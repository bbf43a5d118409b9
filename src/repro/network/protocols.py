"""Message-level reference protocols for the paper's primitives.

The algorithms in :mod:`repro.core` execute broadcast-and-echo through the
fast fragment-level executor (closed-form accounting, one centralised
reduction per echo).  To back up the fidelity claim — that nothing in the
fast path could not be done by real per-node code exchanging real messages —
each primitive here is one run of the message-level
:class:`~repro.network.broadcast.BroadcastEchoProtocolNode` (through
:func:`~repro.network.broadcast.run_reference_broadcast_echo`, launched by
:func:`~repro.network.kernel.run_protocol`) on the synchronous or
asynchronous engine.  Every node computes its echo value from node-local
knowledge with the same definition the reference probe folds
(:func:`~repro.core.testout.testout_local_word`,
:func:`~repro.core.testout.hp_local_pair`):

* :func:`run_testout_protocol` — ``TestOut(x, j, k)``: the root broadcasts an
  odd hash function and a weight range over the tree; every node answers with
  the parity of its incident hashed edges; parities XOR up the tree.
* :func:`run_hp_testout_protocol` — ``HP-TestOut(x, j, k)``: same shape, with
  the Schwartz–Zippel ``(up, down)`` product pair as the echo value.
* :func:`run_path_max_protocol` — the ``Insert(u, v)`` query: a broadcast
  that carries the running path maximum downward and an echo that reports
  whether ``v`` was found and which path edge was heaviest.

The protocols charge their own widths, which are not the executor's.  Tests
(``tests/network/test_protocols.py``) assert that these per-node executions
return the same answers and charge the same number of messages as the
fragment-level implementations in :mod:`repro.core`.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..core.hashing import OddHashFunction
from ..core.polynomial import SetEqualitySketch, product_pair_reducer
from ..core.testout import hp_local_pair, testout_local_word
from .accounting import MessageAccountant
from .broadcast import XOR_REDUCER, Reducer, run_reference_broadcast_echo
from .fragments import SpanningForest
from .graph import Graph
from .scheduler import Scheduler

__all__ = [
    "run_testout_protocol",
    "run_hp_testout_protocol",
    "run_path_max_protocol",
]

#: The upper bound of an open weight range: above every augmented weight.
_OPEN_HIGH = 1 << 256

#: Only the target answers the path query, so its echo is the one non-None value.
_FIRST_ANSWER = Reducer(lambda a, b: a if a is not None else b, None)


def run_testout_protocol(
    graph: Graph,
    forest: SpanningForest,
    root: int,
    odd_hash: OddHashFunction,
    low: Optional[int] = None,
    high: Optional[int] = None,
    engine: str = "sync",
    scheduler: Optional[Scheduler] = None,
) -> Tuple[bool, MessageAccountant]:
    """Message-level ``TestOut(x, j, k)``; returns (cut detected?, accountant)."""
    low_bound = low if low is not None else 0
    high_bound = high if high is not None else _OPEN_HIGH
    ranges = [(low_bound, high_bound)]
    parity, accountant = run_reference_broadcast_echo(
        graph,
        forest,
        root,
        local_values=None,
        reducer=XOR_REDUCER,
        broadcast_bits=odd_hash.description_bits(),
        echo_bits=1,
        engine=engine,
        scheduler=scheduler,
        collect=lambda node, _state: testout_local_word(graph, node, odd_hash, ranges),
    )
    return bool(parity), accountant


def run_hp_testout_protocol(
    graph: Graph,
    forest: SpanningForest,
    root: int,
    alpha: int,
    field_prime: int,
    low: Optional[int] = None,
    high: Optional[int] = None,
    engine: str = "sync",
    scheduler: Optional[Scheduler] = None,
) -> Tuple[bool, MessageAccountant]:
    """Message-level ``HP-TestOut(x, j, k)``; returns (cut detected?, accountant)."""
    p = field_prime
    low_bound = low if low is not None else 0
    high_bound = high if high is not None else _OPEN_HIGH
    (up, down), accountant = run_reference_broadcast_echo(
        graph,
        forest,
        root,
        local_values=None,
        reducer=product_pair_reducer(p),
        broadcast_bits=p.bit_length(),
        echo_bits=2 * p.bit_length(),
        engine=engine,
        scheduler=scheduler,
        collect=lambda node, _state: hp_local_pair(
            graph, node, alpha, p, low_bound, high_bound
        ),
    )
    return (not SetEqualitySketch(up, down, alpha, p).sides_equal), accountant


def run_path_max_protocol(
    graph: Graph,
    forest: SpanningForest,
    root: int,
    target: int,
    engine: str = "sync",
    scheduler: Optional[Scheduler] = None,
) -> Tuple[Tuple[bool, Optional[Tuple[int, int]]], MessageAccountant]:
    """Message-level Insert query: is ``target`` in ``T_root``, and which edge
    on the tree path ``root → target`` is heaviest?

    Returns ``((found, heaviest_edge_key_or_None), accountant)``.
    """
    id_bits = graph.id_bits
    width = 2 * id_bits + max(graph.max_weight().bit_length(), 1)

    def propagate(state, parent: int, child: int):
        edge = graph.get_edge(parent, child)
        if state is None:
            return (edge.u, edge.v)
        heaviest = graph.get_edge(*state)
        if edge.augmented_weight(id_bits) > heaviest.augmented_weight(id_bits):
            return (edge.u, edge.v)
        return state

    answer, accountant = run_reference_broadcast_echo(
        graph,
        forest,
        root,
        local_values=None,
        reducer=_FIRST_ANSWER,
        broadcast_bits=width,
        echo_bits=width,
        engine=engine,
        scheduler=scheduler,
        collect=lambda node, state: ("found", state) if node == target else None,
        propagate=propagate,
    )
    if answer is None:
        return (False, None), accountant
    return (True, answer[1]), accountant
