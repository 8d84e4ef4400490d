"""From-scratch in-memory key-value store engines.

The paper evaluates three unmodified stores — Redis, Memcached and
DynamoDB (local) — deployed as two server instances bound to FastMem and
SlowMem respectively.  This package provides simulator-native equivalents
with genuinely different internals:

- :class:`~repro.kvstore.redislike.RedisLike` — single-threaded event
  loop over an open-addressing hash index;
- :class:`~repro.kvstore.memcachedlike.MemcachedLike` — slab-allocated
  records, the least memory-sensitive engine;
- :class:`~repro.kvstore.dynamolike.DynamoLike` — B-tree index with
  serialization/checksum passes, the most memory-sensitive engine.

Per-request timing is governed by each engine's
:class:`~repro.kvstore.profiles.EngineProfile`; the
:class:`~repro.kvstore.cluster.HybridDeployment` pairs a FastMem and a
SlowMem server instance behind a key router, mirroring the paper's
two-server setup driven by a modified YCSB core.
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "base": ["KVEngine", "OpResult"],
    "btree": ["BTree"],
    "server": ["HybridDeployment", "ServerInstance"],
    "dynamolike": ["DynamoLike"],
    "hashindex": ["HashIndex"],
    "memcachedlike": ["MemcachedLike"],
    "profiles": [
        "DYNAMO_PROFILE", "MEMCACHED_PROFILE", "REDIS_PROFILE",
        "EngineProfile", "profile_for",
    ],
    "redislike": ["RedisLike"],
    "slab": ["SlabAllocator", "SlabClass"],
})
