"""Per-process memos: bounded ``functools.lru_cache``s, all emptied by
:func:`clear_memos` (a leaf module: it imports nothing).

Every memo on the spec -> engine chain, and the raw-point memo in front of
it, is made by :func:`memo`, so no layer has to know another's memos.  A
memo outside input can reach takes the bound of what one entry stands
for; only fixed-domain memos (accelerator kinds, config classes) are
unbounded.
"""

import functools

__all__ = ["DESIGN_MEMO_SIZE", "POINT_MEMO_SIZE", "clear_memos", "memo"]

#: Per design point: above a 3072-point warm working set.
POINT_MEMO_SIZE = 8192
#: Per design or network.
DESIGN_MEMO_SIZE = 1024

_MEMOS = []


def memo(maxsize):
    """Decorator: an ``lru_cache(maxsize)`` registered with :func:`clear_memos`."""
    def register(function):
        cached = functools.lru_cache(maxsize=maxsize)(function)
        _MEMOS.append(cached)
        return cached
    return register


def clear_memos() -> None:
    """Empty every registered memo (and reset its hit/miss counters)."""
    for cached in _MEMOS:
        cached.cache_clear()
