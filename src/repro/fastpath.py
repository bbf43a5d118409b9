"""Global fast-path switch: cached tree structures and columnar sketch kernels.

The simulation has two execution paths through the sketch/broadcast stack:

* the **fast path** (default) — rooted tree structures are cached on the
  :class:`~repro.network.fragments.SpanningForest` and incrementally patched
  on single-edge attach/detach, and every sketch echo is one fused kernel
  call in :mod:`repro.core.sketches` that returns the tree's aggregate
  straight from the graph's columnar snapshot
  (:meth:`~repro.network.graph.Graph.columnar`), hashing each edge exactly
  once and deriving all prefix / range parities with single-int word
  operations; the broadcast-and-echo executor takes that aggregate and
  only charges;

* the **reference path** — the original straight-line implementations: the
  rooted structure is rebuilt from the forest for every procedure call, and
  the kernels re-hash every incident edge once per prefix level / weight
  range.

Both paths are *observably identical*: messages, bits, rounds and
broadcast-and-echo counts are bit-for-bit equal (the equivalence suite in
``tests/integration/test_fastpath_equivalence.py`` pins this for every
registered algorithm, and ``repro bench`` asserts it on every run).  The
reference path exists as the executable spec the fast path is checked
against; everything else should leave the fast path on.

Within the fast path one fixed size rule, :func:`covers_half`, picks the
whole-graph passes over the per-tree ones: a tree holding at least half the
nodes gets the kernels' edge-window pass (and the CSR tree rebuild), and a
window holding at least half the edges gets the numpy form of that pass when
numpy is importable.  It is wall-clock-only and has no knob.

The switch is process-global (not thread-local): flipping it mid-simulation
is only meant for benchmarks and tests, which use the context managers::

    from repro.fastpath import reference_path

    with reference_path():
        ...  # runs the original slow kernels

Set the environment variable ``REPRO_FASTPATH=0`` to start with the
reference path enabled (useful for A/B runs in CI).
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator

__all__ = [
    "is_enabled",
    "set_enabled",
    "fast_path",
    "reference_path",
    "covers_half",
    "repair_batch_size",
]

_enabled = os.environ.get("REPRO_FASTPATH", "1") not in ("0", "false", "off")


def is_enabled() -> bool:
    """True iff the fast path (caches + columnar kernels) is active."""
    return _enabled


def repair_batch_size() -> int:
    """Default wave size for batched impromptu repair (0 = sequential).

    Read from ``REPRO_REPAIR_BATCH``; an explicit ``repair_batch`` argument
    or a ``ScheduleSpec.batch_size`` always wins over the environment, so
    differential oracles can force sequential runs even in forced-batching
    CI legs.  Unlike the kernel dispatch this is *not* wall-clock-only:
    batched repair trades per-update counter attribution for per-wave
    amortized accounting (final-forest equality is the contract).
    """
    try:
        return max(0, int(os.environ.get("REPRO_REPAIR_BATCH", "0")))
    except ValueError:
        return 0


def covers_half(part: int, whole: int) -> bool:
    """Whether ``part`` is at least half of ``whole``.

    A whole-graph pass reads the graph's columns rather than a tree's own
    rows, so it pays off only for a large part: the sketch kernels' edge-window
    pass and the CSR tree rebuild run for trees holding at least half the
    nodes (smaller trees loop over their own rows), and the numpy form of
    the window pass for windows holding at least half the edges.
    Wall-clock-only: both sides compute identical values, so counters never
    depend on it.
    """
    return 2 * part >= whole


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
