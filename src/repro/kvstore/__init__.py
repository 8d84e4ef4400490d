"""The three key-value store engines and the two-server deployment.

The paper evaluates three unmodified stores — Redis, Memcached and
DynamoDB (local) — deployed as two server instances bound to FastMem and
SlowMem respectively.  Mnemo consumes only their end-to-end behaviour, so
here an engine is its calibrated
:class:`~repro.kvstore.profiles.EngineProfile` (docs/CALIBRATION.md):

- :class:`~repro.kvstore.redislike.RedisLike` — one synchronous copy of
  the value per read;
- :class:`~repro.kvstore.memcachedlike.MemcachedLike` — the least
  memory-sensitive engine;
- :class:`~repro.kvstore.dynamolike.DynamoLike` — B-tree walk plus
  serialization/checksum passes, the most memory-sensitive engine.

:class:`~repro.kvstore.server.HybridDeployment` is the two-server setup
as the measurement sees it: record sizes and a FastMem mask, checked
against each node's capacity.
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "base": ["KVEngine"],
    "server": ["HybridDeployment"],
    "dynamolike": ["DynamoLike"],
    "memcachedlike": ["MemcachedLike"],
    "profiles": [
        "DYNAMO_PROFILE", "MEMCACHED_PROFILE", "REDIS_PROFILE",
        "EngineProfile", "profile_for",
    ],
    "redislike": ["RedisLike"],
})
