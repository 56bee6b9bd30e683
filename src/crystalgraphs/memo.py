"""The one memo layer: every cached table in the package is a registered
``functools.cache``, so all of them report their counters and clear together.

Tables key on the call's arguments.  A memoized method keys on ``self``, by
identity for classes without ``__eq__``, so such objects (crystals, graphs,
models) stay alive until ``clear_caches()``.  Cached values are shared
between callers; do not mutate them.
"""

from __future__ import annotations

import functools

_TABLES: list = []


def memo(fn):
    """Memoize fn on its (hashable) arguments and register the table."""
    cached = functools.cache(fn)
    _TABLES.append(cached)
    return cached


def cache_stats() -> dict[str, tuple[int, int, int]]:
    """{"module.qualname": (hits, misses, entries)} for every table."""
    stats = {}
    for table in _TABLES:
        info = table.cache_info()
        stats[f"{table.__module__}.{table.__qualname__}"] = (info.hits, info.misses, info.currsize)
    return stats


def clear_caches() -> None:
    """Empty every table and reset its counters."""
    for table in _TABLES:
        table.cache_clear()
