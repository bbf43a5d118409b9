"""Global fast-path switch: cached tree structures and one-pass sketch kernels.

The simulation has two execution paths through the sketch/broadcast stack:

* the **fast path** (default) — rooted tree structures are cached on the
  :class:`~repro.network.fragments.SpanningForest` and incrementally patched
  on single-edge attach/detach, per-node incident-edge-number arrays are
  precomputed and cached on the :class:`~repro.network.graph.Graph`, and the
  sketch kernels hash each incident edge exactly once, deriving all prefix /
  range parities with single-int word operations;

* the **reference path** — the original straight-line implementations: the
  rooted structure is rebuilt from the forest for every procedure call, and
  the kernels re-hash every incident edge once per prefix level / weight
  range.

Both paths are *observably identical*: messages, bits, rounds and
broadcast-and-echo counts are bit-for-bit equal (the equivalence suite in
``tests/integration/test_fastpath_equivalence.py`` pins this for every
registered algorithm, and ``repro bench`` asserts it on every run).  The
reference path exists so the equivalence can be checked and the speedup
measured honestly; everything else should leave the fast path on.

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
    "batch_min_nodes",
    "should_batch",
    "repair_batch_size",
]

_enabled = os.environ.get("REPRO_FASTPATH", "1") not in ("0", "false", "off")

#: Below this tree size the batched columnar kernels are not worth their
#: whole-graph setup; tune with ``REPRO_BATCH_MIN_NODES`` (the fuzz campaign
#: lowers it so moderate graphs exercise the columnar path too).
_DEFAULT_BATCH_MIN_NODES = 64

# Read once at import, like ``REPRO_FASTPATH``: :func:`should_batch` runs on
# every broadcast-and-echo, far too often to re-read the environment.
try:
    _batch_min_nodes = int(os.environ.get("REPRO_BATCH_MIN_NODES", _DEFAULT_BATCH_MIN_NODES))
except ValueError:
    _batch_min_nodes = _DEFAULT_BATCH_MIN_NODES


def is_enabled() -> bool:
    """True iff the fast path (caches + one-pass kernels) is active."""
    return _enabled


def batch_min_nodes() -> int:
    """Minimum tree size for batched (whole-graph) columnar kernels."""
    return _batch_min_nodes


def repair_batch_size() -> int:
    """Default wave size for batched impromptu repair (0 = sequential).

    Read from ``REPRO_REPAIR_BATCH``; an explicit ``repair_batch`` argument
    or a ``ScheduleSpec.batch_size`` always wins over the environment, so
    differential oracles can force sequential runs even in forced-batching
    CI legs.  Unlike :func:`should_batch` this is *not* wall-clock-only:
    batched repair trades per-update counter attribution for per-wave
    amortized accounting (final-forest equality is the contract).
    """
    try:
        return max(0, int(os.environ.get("REPRO_REPAIR_BATCH", "0")))
    except ValueError:
        return 0


def should_batch(tree_size: int, graph_nodes: int) -> bool:
    """Whether a broadcast-and-echo should use the batched columnar kernels.

    Purely a wall-clock heuristic — it can never change a computed value
    (the batched kernels are value-identical to the per-node ones and every
    reducer used with them is commutative/associative), so counters stay
    bit-identical regardless of the answer.  Batching computes words for
    *every* graph node in one pass, which only pays off when the tree is
    both large (``REPRO_BATCH_MIN_NODES``) and covers at least half the
    graph.
    """
    return (
        _enabled
        and tree_size >= _batch_min_nodes
        and 2 * tree_size >= graph_nodes
    )


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
