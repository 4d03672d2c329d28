"""Canonical spellings of numbers (a leaf module: it imports nothing).

Frozen dataclasses that feed content keys -- the accelerator config, the
network spec, the technology parameters and the DRAM channel -- store each
numeric field as its declared type through :func:`canonical_number`, so
two equal objects always encode, and therefore key, alike.
"""

from __future__ import annotations

__all__ = ["canonical_number"]


def canonical_number(value, declared: type):
    """``value`` spelled as ``declared`` (``int``, ``float`` or ``bool``)
    when that changes no value; anything else is returned unchanged.

    ``1``, ``1.0`` and ``True`` compare and hash alike, and so do ``0.0``
    and ``-0.0``, so two equal jobs could otherwise encode -- and key --
    differently, and the memo on :func:`~repro.sim.jobs.job_key` would
    answer whichever spelling it saw first.  A float zero is spelled
    ``0.0``.
    """
    kind = type(value)
    if kind is declared:
        if kind is float and value == 0.0:
            return 0.0
        return value
    if kind not in (int, float, bool):
        return value
    try:
        converted = declared(value)
    except (OverflowError, ValueError):  # int() of inf or nan
        return value
    return converted if converted == value else value
