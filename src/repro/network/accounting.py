"""Message, bit and round accounting.

Everything the paper bounds — message count, message size, time (rounds for
the synchronous algorithms, causal depth for the asynchronous ones), and
broadcast-and-echo invocations — is tracked by a single
:class:`MessageAccountant` instance that is threaded through the simulation
engines, the broadcast-and-echo executor and the algorithms.

The accountant supports cheap *snapshots* so that a caller can measure the
cost of a sub-operation (e.g. one ``FindMin`` inside a Borůvka phase) without
creating a new accountant:

>>> acct = MessageAccountant()
>>> before = acct.snapshot()
>>> acct.record_message(size_bits=17)
>>> delta = acct.since(before)
>>> delta.messages, delta.bits
(1, 17)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .errors import AccountingError

__all__ = ["CostSnapshot", "CostDelta", "MessageAccountant", "PhaseRecord"]


@dataclass(frozen=True)
class CostSnapshot:
    """Immutable view of the accountant's counters at a point in time."""

    messages: int
    bits: int
    rounds: int
    broadcast_echoes: int


@dataclass(frozen=True)
class CostDelta:
    """Difference between two snapshots (cost of a sub-operation)."""

    messages: int
    bits: int
    rounds: int
    broadcast_echoes: int

    def __add__(self, other: "CostDelta") -> "CostDelta":
        return CostDelta(
            messages=self.messages + other.messages,
            bits=self.bits + other.bits,
            rounds=self.rounds + other.rounds,
            broadcast_echoes=self.broadcast_echoes + other.broadcast_echoes,
        )

    @staticmethod
    def zero() -> "CostDelta":
        return CostDelta(0, 0, 0, 0)


@dataclass
class PhaseRecord:
    """Per-phase cost record, used by Build-MST / Build-ST reporting."""

    label: str
    messages: int
    bits: int
    rounds: int
    fragments: int = 0
    extra: Dict[str, float] = field(default_factory=dict)


class MessageAccountant:
    """Counts messages, bits, rounds and broadcast-and-echo invocations."""

    def __init__(self) -> None:
        self._messages = 0
        self._bits = 0
        self._rounds = 0
        self._broadcast_echoes = 0
        self._per_kind: Dict[str, int] = {}
        self._phases: List[PhaseRecord] = []

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def record_message(self, size_bits: int, kind: str = "generic") -> None:
        """Charge one message of ``size_bits`` bits."""
        if size_bits < 1:
            raise AccountingError("a message carries at least one bit")
        self._messages += 1
        self._bits += size_bits
        self._per_kind[kind] = self._per_kind.get(kind, 0) + 1

    def record_messages(self, count: int, size_bits: int, kind: str = "generic") -> None:
        """Charge ``count`` messages of ``size_bits`` bits each."""
        if count < 0:
            raise AccountingError("cannot charge a negative number of messages")
        if count == 0:
            return
        if size_bits < 1:
            raise AccountingError("a message carries at least one bit")
        self._messages += count
        self._bits += count * size_bits
        self._per_kind[kind] = self._per_kind.get(kind, 0) + count

    def record_rounds(self, count: int) -> None:
        """Advance the time/round counter by ``count``."""
        if count < 0:
            raise AccountingError("cannot advance time backwards")
        self._rounds += count

    def record_broadcast_echo(self) -> None:
        """Record that one broadcast-and-echo primitive was invoked."""
        self._broadcast_echoes += 1

    def record_broadcast_echo_cost(
        self,
        count: int,
        bcast_bits: int,
        echo_bits: int,
        labels: Tuple[str, str],
        rounds: int,
    ) -> None:
        """Charge one broadcast-and-echo over a tree with ``count`` edges.

        Equal to :meth:`record_broadcast_echo`, then :meth:`record_messages`
        of ``count`` broadcast and ``count`` echo messages under the
        ``(bcast, echo)`` kinds of ``labels``, then :meth:`record_rounds`,
        with the same checks (bit widths only when ``count`` is positive).
        """
        if count < 0:
            raise AccountingError("cannot charge a negative number of messages")
        if rounds < 0:
            raise AccountingError("cannot advance time backwards")
        self._broadcast_echoes += 1
        self._rounds += rounds
        if count == 0:
            return
        if bcast_bits < 1 or echo_bits < 1:
            raise AccountingError("a message carries at least one bit")
        self._messages += 2 * count
        self._bits += count * (bcast_bits + echo_bits)
        per_kind = self._per_kind
        bcast, echo = labels
        per_kind[bcast] = per_kind.get(bcast, 0) + count
        per_kind[echo] = per_kind.get(echo, 0) + count

    def record_phase(self, record: PhaseRecord) -> None:
        self._phases.append(record)

    # ------------------------------------------------------------------ #
    # inspection
    # ------------------------------------------------------------------ #
    @property
    def messages(self) -> int:
        return self._messages

    @property
    def bits(self) -> int:
        return self._bits

    @property
    def rounds(self) -> int:
        return self._rounds

    @property
    def broadcast_echoes(self) -> int:
        return self._broadcast_echoes

    @property
    def phases(self) -> List[PhaseRecord]:
        return list(self._phases)

    def per_kind(self) -> Dict[str, int]:
        """Message counts keyed by message kind."""
        return dict(self._per_kind)

    def snapshot(self) -> CostSnapshot:
        return CostSnapshot(
            messages=self._messages,
            bits=self._bits,
            rounds=self._rounds,
            broadcast_echoes=self._broadcast_echoes,
        )

    def since(self, snapshot: CostSnapshot) -> CostDelta:
        """Cost accumulated since ``snapshot`` was taken."""
        delta = CostDelta(
            messages=self._messages - snapshot.messages,
            bits=self._bits - snapshot.bits,
            rounds=self._rounds - snapshot.rounds,
            broadcast_echoes=self._broadcast_echoes - snapshot.broadcast_echoes,
        )
        if min(delta.messages, delta.bits, delta.rounds, delta.broadcast_echoes) < 0:
            raise AccountingError("snapshot does not belong to this accountant")
        return delta

    def reset(self) -> None:
        self._messages = 0
        self._bits = 0
        self._rounds = 0
        self._broadcast_echoes = 0
        self._per_kind.clear()
        self._phases.clear()

    def summary(self) -> Dict[str, int]:
        """A plain-dict summary, convenient for reports and benchmarks."""
        return {
            "messages": self._messages,
            "bits": self._bits,
            "rounds": self._rounds,
            "broadcast_echoes": self._broadcast_echoes,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MessageAccountant(messages={self._messages}, bits={self._bits}, "
            f"rounds={self._rounds}, b&e={self._broadcast_echoes})"
        )


def merge_deltas(deltas: List[CostDelta]) -> CostDelta:
    """Sum a list of :class:`CostDelta` (empty list sums to zero)."""
    total = CostDelta.zero()
    for delta in deltas:
        total = total + delta
    return total
