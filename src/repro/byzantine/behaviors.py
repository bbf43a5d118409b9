"""Adversarial node behaviours injected at the kernel's delivery boundary.

The crash/lossy/partition fault programs model a *benign* adversary:
messages disappear or double, but nobody lies.  This module adds the
adversary that lies, which the tests run Bracha's reliable broadcast
against: a set of nodes is compromised and their *outgoing* traffic is
tampered with at the single :meth:`~repro.network.kernel.EventKernel._admit`
seam, so the protocol faces the adversary without knowing about it.

Four behaviours are provided (the ``program`` of a
:class:`ByzantineBehavior`):

``silent``
    The compromised node's outgoing messages are all suppressed — a
    sender-side crash: the node still *receives* and computes, it just never
    speaks.
``corrupt``
    Each outgoing payload is deterministically corrupted (numeric payloads
    get a bit flipped).
``equivocate``
    The classic Byzantine lie: for a fixed, seed-determined half of its
    peers the node's payloads are replaced with one consistent *altered*
    value while the other half sees the truth — conflicting claims about
    the same logical send.
``replay``
    The node's first observed message is remembered and a stale copy of it
    is re-injected whenever the node speaks again.

Every action that actually fires is logged as a
:class:`~repro.network.faults.FaultEvent` with kind ``byz-<program>``, which
is how a Bracha run carries its full adversarial history in
``BrachaRun.fault_events``.  Payloads that cannot be meaningfully corrupted
(``None``, strings, objects) pass through unchanged — and *unlogged*, so the
event log never claims an attack that did not happen.
"""

from __future__ import annotations

import random
from typing import Any, Dict, Iterable, List, Optional, Set

from ..network.errors import SimulationError
from ..network.faults import DELIVER, DROP, FaultInjector
from ..network.message import Message

__all__ = [
    "BYZANTINE_PROGRAMS",
    "ByzantineBehavior",
    "ByzantineInjector",
    "corrupt_value",
]

#: The adversarial programs a :class:`ByzantineBehavior` can run.
BYZANTINE_PROGRAMS = ("corrupt", "equivocate", "replay", "silent")


def corrupt_value(value: Any, salt: int) -> Optional[Any]:
    """A deterministic corruption of ``value``, or ``None`` if impossible.

    Non-negative integers get one bit (chosen by ``salt``) flipped at or
    below their most significant bit, so the result is a *different*
    non-negative integer of comparable magnitude — a plausible wire-level
    lie, not a crash-inducing type error.  Tuples and lists are corrupted in
    their first corruptible element.  Everything else (``None``, strings,
    arbitrary objects) is not corruptible: returning ``None`` tells the
    caller to leave the message alone.
    """
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        if value < 0:
            return -value
        width = max(1, value.bit_length())
        return value ^ (1 << (salt % width))
    if isinstance(value, (tuple, list)):
        for index, item in enumerate(value):
            corrupted = corrupt_value(item, salt + index)
            if corrupted is not None:
                items = list(value)
                items[index] = corrupted
                return tuple(items) if isinstance(value, tuple) else items
        return None
    return None


class ByzantineBehavior:
    """One seeded adversary controlling a fixed set of compromised nodes.

    Parameters
    ----------
    nodes:
        The compromised node IDs.  An empty set is a valid (inert)
        adversary.
    program:
        One of :data:`BYZANTINE_PROGRAMS`.
    seed:
        Drives the equivocation split and the corruption salt; ``None``
        means seed 0, so a behaviour is *always* deterministic.
    """

    def __init__(
        self,
        nodes: Iterable[int],
        program: str,
        seed: Optional[int] = None,
    ) -> None:
        if program not in BYZANTINE_PROGRAMS:
            known = ", ".join(BYZANTINE_PROGRAMS)
            raise SimulationError(
                f"unknown Byzantine program {program!r}; known programs: {known}"
            )
        self.nodes = frozenset(int(node) for node in nodes)
        self.program = program
        self.seed = 0 if seed is None else int(seed)

    def acts_on(self, message: Message) -> bool:
        """Does this adversary tamper with ``message``?"""
        return message.sender in self.nodes

    def lies_to(self, sender: int, receiver: int) -> bool:
        """Equivocation split: does ``sender`` lie on the edge to ``receiver``?

        The split is a fixed function of (seed, sender, receiver) — not of
        delivery order — so the same logical broadcast always shows one
        consistent false value to the lied-to half and the truth to the
        rest, no matter how the scheduler interleaves deliveries.
        """
        coin = random.Random(self.seed * 1_000_003 + sender * 8_191 + receiver)
        return coin.random() < 0.5


class ByzantineInjector(FaultInjector):
    """A :class:`~repro.network.faults.FaultInjector` that runs one adversary.

    It installs no benign faults of its own; every admitted message from a
    compromised sender runs through the :class:`ByzantineBehavior`:

    * ``silent`` suppresses it (an extra :meth:`verdict` drop, logged as
      ``byz-silent``);
    * ``corrupt`` / ``equivocate`` mutate its payload in place via
      :meth:`on_deliver`, which the kernel calls just before the receiver's
      handler;
    * ``replay`` hands the kernel a stale clone to enqueue (charged like a
      duplicate).

    With an inert behaviour (no compromised nodes) the injector is
    bit-identical to the plain :class:`FaultInjector`.
    """

    def __init__(self, behavior: ByzantineBehavior) -> None:
        super().__init__(seed=behavior.seed)
        self.behavior = behavior
        # Sequence numbers of replayed clones: a replay never triggers
        # further tampering, so replay chains cannot grow unboundedly.
        self._replays: Set[int] = set()
        # The first message observed per compromised sender — the stale
        # template later replays are cloned from.
        self._stale: Dict[int, Message] = {}

    # ------------------------------------------------------------------ #
    # the delivery boundary
    # ------------------------------------------------------------------ #
    def verdict(self, message: Message, time: int) -> str:
        verdict = super().verdict(message, time)
        if verdict != DELIVER:
            return verdict
        behavior = self.behavior
        if behavior.program == "silent" and behavior.acts_on(message):
            self._log(time, "byz-silent", message)
            return DROP
        return DELIVER

    def on_deliver(self, message: Message, time: int) -> Optional[Message]:
        behavior = self.behavior
        if message.sequence in self._replays or not behavior.acts_on(message):
            return None
        if behavior.program == "corrupt":
            self._tamper(message, time, "byz-corrupt", salt=behavior.seed + 1)
            return None
        if behavior.program == "equivocate":
            if behavior.lies_to(message.sender, message.receiver):
                self._tamper(message, time, "byz-equivocate", salt=behavior.seed + 1)
            return None
        if behavior.program == "replay":
            stale = self._stale.get(message.sender)
            if stale is None:
                self._stale[message.sender] = message.clone()
                return None
            replay = stale.clone()
            self._replays.add(replay.sequence)
            self._log(time, "byz-replay", replay)
            return replay
        return None

    def _tamper(self, message: Message, time: int, kind: str, salt: int) -> None:
        """Corrupt the payload in place; log only when a lie actually lands."""
        corrupted = corrupt_value(message.payload, salt)
        if corrupted is None:
            return
        message.payload = corrupted
        self._log(time, kind, message)

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    @property
    def byzantine_nodes(self) -> List[int]:
        return sorted(self.behavior.nodes)
