"""Global fast-path switch: cached tree structures and columnar sketch kernels.

The simulation has two execution paths through the sketch/broadcast stack:

* the **fast path** (default) — rooted tree structures are cached on the
  :class:`~repro.network.fragments.SpanningForest` and incrementally patched
  on single-edge attach/detach, and every sketch echo is one fused kernel
  call in :mod:`repro.core.sketches` that returns the tree's aggregate
  from its memoised cut column of the graph's columnar snapshot
  (:meth:`~repro.network.graph.Graph.columnar`), hashing each cut edge
  exactly once and deriving all prefix / range parities with single-int
  word operations; the broadcast-and-echo executor takes that aggregate
  and charges it with one accountant call;

* the **reference path** — the original straight-line implementations: the
  rooted structure is rebuilt from the forest for every procedure call, and
  the kernels re-hash every incident edge once per prefix level / weight
  range.

Both paths are *observably identical*: messages, bits, rounds and
broadcast-and-echo counts are bit-for-bit equal (the equivalence suite in
``tests/integration/test_fastpath_equivalence.py`` pins this for every
registered algorithm, and the claims ledger, :mod:`repro.claims`, pins the
same counters on both paths up to n=10^4).  The
reference path exists as the executable spec the fast path is checked
against; everything else should leave the fast path on.

Within the fast path a tree's cut column
(:meth:`~repro.network.broadcast.TreeStructure.cut_column`) has one
builder, which reads the smaller side of the cut: a tree under half the
nodes gathers its own rows, a larger one the rows outside it.  The rule is
wall-clock-only and has no knob.

A search reads the switch once: FindMin, Sample and FindAny each build one
:class:`~repro.core.testout.CutProbe` per call, and the probe's class is
the tier every TestOut, HP-TestOut and FindAny echo of that search runs on.

The switch is process-global (not thread-local): flipping it mid-simulation
is only meant for benchmarks and tests, which use the context managers::

    from repro.fastpath import reference_path

    with reference_path():
        ...  # runs the original slow kernels

Set the environment variable ``REPRO_FASTPATH=0`` to start with the
reference path enabled (useful for A/B runs in CI).  Any value other than
``1``/``true``/``on`` or ``0``/``false``/``off`` raises
:class:`~repro.network.errors.AlgorithmError` at import.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator

from .network.errors import AlgorithmError

__all__ = [
    "is_enabled",
    "set_enabled",
    "fast_path",
    "reference_path",
]


def _fastpath_from_env(value: str) -> bool:
    """Parse ``REPRO_FASTPATH``; a typo must not silently keep the fast path."""
    switch = value.strip().lower()
    if switch in ("1", "true", "on"):
        return True
    if switch in ("0", "false", "off"):
        return False
    raise AlgorithmError(
        f"REPRO_FASTPATH must be one of 1, true, on, 0, false, off; got {value!r}"
    )


_enabled = _fastpath_from_env(os.environ.get("REPRO_FASTPATH", "1"))


def is_enabled() -> bool:
    """True iff the fast path (caches + columnar kernels) is active."""
    return _enabled


def set_enabled(value: bool) -> bool:
    """Set the switch; returns the previous value."""
    global _enabled
    previous = _enabled
    _enabled = bool(value)
    return previous


@contextmanager
def fast_path() -> Iterator[None]:
    """Force the fast path within the ``with`` block."""
    previous = set_enabled(True)
    try:
        yield
    finally:
        set_enabled(previous)


@contextmanager
def reference_path() -> Iterator[None]:
    """Force the original reference implementations within the ``with`` block."""
    previous = set_enabled(False)
    try:
        yield
    finally:
        set_enabled(previous)
