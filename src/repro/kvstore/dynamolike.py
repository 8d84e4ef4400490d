"""DynamoDB-local-like engine.

DynamoDB's downloadable edition persists tables through SQLite; its
read path walks a B-tree and deserializes/validates items, touching the
value several times per request.  Its profile is the most
SlowMem-sensitive of the three (paper Fig 8b).
"""

from __future__ import annotations

from repro.kvstore.base import KVEngine
from repro.kvstore.profiles import DYNAMO_PROFILE


class DynamoLike(KVEngine):
    """The DynamoDB-local-shaped engine (see module docstring)."""

    default_profile = DYNAMO_PROFILE
