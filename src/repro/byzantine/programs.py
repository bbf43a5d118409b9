"""The Byzantine fault programs: ``byz-*`` entries in the fault registry.

Each program compromises a seed-chosen subset of nodes and runs one
:class:`~repro.byzantine.behaviors.ByzantineBehavior` over them at the event
kernel's delivery boundary.  The subset size is **capped at the honest
majority bound** ``(n - 1) // 3`` — the most Byzantine nodes a Bracha-style
defence can survive — so every registered scenario stays in the regime
that defence is sound for.  On graphs too small to tolerate any Byzantine
node (``n <= 3``) the programs degrade to an honest no-op with an empty
compromised set.

All four programs are runnable from ``(name, seed)`` alone
(``requires=()``), so the fuzzing spec generator picks them up
automatically.  All act only on deliveries (``acts_on=("deliveries",)``),
so they run on the kernel-level runner (``flooding``) and are rejected on
the runners that send nothing through the kernel.

The compromised-node choice is part of provenance: each program plans one
``[at, "byz-<program>", node, None]`` row per compromised node, and every
attack that actually fires is appended by the injector at run time.
"""

from __future__ import annotations

import random
from typing import List, Optional

from ..api.faults import FaultProgram, register_fault
from ..network.errors import AlgorithmError
from ..network.fragments import SpanningForest
from ..network.graph import Graph
from .behaviors import ByzantineBehavior, ByzantineInjector

__all__ = [
    "max_tolerated",
    "choose_byzantine_nodes",
]


def max_tolerated(n: int) -> int:
    """The honest-majority Byzantine cap for ``n`` nodes: (n - 1) // 3."""
    return max(0, (n - 1) // 3)


def choose_byzantine_nodes(
    graph: Graph, seed: Optional[int], count: Optional[int]
) -> List[int]:
    """The seed-chosen compromised subset, capped at :func:`max_tolerated`.

    ``count=None`` asks for the worst tolerated adversary (the full
    ``(n-1)//3`` budget); explicit counts are clamped into the tolerated
    band rather than rejected, so a fuzzer-drawn ``count=2`` on a 5-node
    graph degrades to the 1 compromised node the graph can survive.
    """
    cap = max_tolerated(graph.num_nodes)
    if count is None:
        count = cap
    if count < 0:
        raise AlgorithmError("the Byzantine node count cannot be negative")
    count = min(count, cap)
    if count == 0:
        return []
    rng = random.Random(seed)
    return sorted(rng.sample(sorted(graph.nodes()), count))


def _byzantine_program(
    name: str,
    program: str,
    graph: Graph,
    seed: Optional[int],
    count: Optional[int],
    rate: float,
    at: int,
) -> FaultProgram:
    """Common body of the four ``byz-*`` builders."""
    if at < 0:
        raise AlgorithmError("Byzantine start times must be non-negative")
    nodes = choose_byzantine_nodes(graph, seed, count)
    behavior = ByzantineBehavior(nodes, program, seed=seed, rate=rate, at=at)
    injector = ByzantineInjector(behavior)
    planned = [[at, name, node, None] for node in nodes]
    return FaultProgram(name, injector=injector, planned=planned)


@register_fault(
    "byz-corrupt",
    summary="Compromised nodes flip bits in their outgoing payloads",
    acts_on=("deliveries",),
)
def byz_corrupt_fault(
    graph: Graph,
    forest: SpanningForest,
    seed: Optional[int] = None,
    count: Optional[int] = None,
    rate: float = 1.0,
    at: int = 0,
) -> FaultProgram:
    """Payload corruption: each outgoing message lies with probability ``rate``."""
    return _byzantine_program("byz-corrupt", "corrupt", graph, seed, count, rate, at)


@register_fault(
    "byz-equivocate",
    summary="Compromised nodes tell different neighbours different values",
    acts_on=("deliveries",),
)
def byz_equivocate_fault(
    graph: Graph,
    forest: SpanningForest,
    seed: Optional[int] = None,
    count: Optional[int] = None,
    at: int = 0,
) -> FaultProgram:
    """Equivocation: a fixed half of each compromised node's peers is lied to."""
    return _byzantine_program("byz-equivocate", "equivocate", graph, seed, count, 1.0, at)


@register_fault(
    "byz-replay",
    summary="Compromised nodes re-inject stale copies of old messages",
    acts_on=("deliveries",),
)
def byz_replay_fault(
    graph: Graph,
    forest: SpanningForest,
    seed: Optional[int] = None,
    count: Optional[int] = None,
    rate: float = 0.5,
    at: int = 0,
) -> FaultProgram:
    """Replay: each later send re-injects the node's first message w.p. ``rate``."""
    return _byzantine_program("byz-replay", "replay", graph, seed, count, rate, at)


@register_fault(
    "byz-silent",
    summary="Compromised nodes receive and compute but never speak",
    acts_on=("deliveries",),
)
def byz_silent_fault(
    graph: Graph,
    forest: SpanningForest,
    seed: Optional[int] = None,
    count: Optional[int] = None,
    at: int = 0,
) -> FaultProgram:
    """Send omission: every outgoing message of a compromised node is dropped."""
    return _byzantine_program("byz-silent", "silent", graph, seed, count, 1.0, at)
