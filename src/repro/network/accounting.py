"""Message, bit and round accounting.

Everything the paper bounds — message count, message size, time (rounds for
the synchronous algorithms, causal depth for the asynchronous ones), and
broadcast-and-echo invocations — is tracked by a single
:class:`MessageAccountant` instance that is threaded through the simulation
engines, the broadcast-and-echo executor and the algorithms.

A broadcast-and-echo on the plain substrate is charged by one call,
:meth:`MessageAccountant.record_broadcast_echo_cost`, which tallies its
messages under the B&E's kind (``"testout"``, ``"stats"``, ...);
:meth:`MessageAccountant.per_kind` reports them as the ``kind:bcast`` and
``kind:echo`` entries that one broadcast and one echo wave per tree edge
send.

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
from typing import Dict, List, NamedTuple

from .errors import AccountingError

__all__ = ["CostSnapshot", "CostDelta", "MessageAccountant", "PhaseRecord"]


class CostSnapshot(NamedTuple):
    """Immutable view of the accountant's counters at a point in time."""

    messages: int
    bits: int
    rounds: int
    broadcast_echoes: int


class CostDelta(NamedTuple):
    """Difference between two snapshots (cost of a sub-operation)."""

    messages: int
    bits: int
    rounds: int
    broadcast_echoes: int

    def __add__(self, other: "CostDelta") -> "CostDelta":  # type: ignore[override]
        return CostDelta(
            self.messages + other.messages,
            self.bits + other.bits,
            self.rounds + other.rounds,
            self.broadcast_echoes + other.broadcast_echoes,
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
    """Counts messages, bits, rounds and broadcast-and-echo invocations.

    Messages charged one wave at a time are tallied per message kind in
    ``_per_kind``; a broadcast-and-echo's two waves are tallied once, per
    B&E kind, in ``_bne_messages``.  The first B&E of a kind that sends
    anything reserves its ``kind:bcast`` and ``kind:echo`` entries in
    ``_per_kind`` (at 0), so :meth:`per_kind` lists them where two wave
    charges would have.
    """

    __slots__ = (
        "_messages",
        "_bits",
        "_rounds",
        "_broadcast_echoes",
        "_per_kind",
        "_bne_messages",
        "_phases",
    )

    def __init__(self) -> None:
        self._messages = 0
        self._bits = 0
        self._rounds = 0
        self._broadcast_echoes = 0
        self._per_kind: Dict[str, int] = {}
        self._bne_messages: Dict[str, int] = {}
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
        kind: str,
        rounds: int,
    ) -> None:
        """Charge one broadcast-and-echo of kind ``kind`` over ``count`` tree edges.

        Equal to :meth:`record_broadcast_echo`, then :meth:`record_messages`
        of ``count`` broadcast messages under ``kind:bcast`` and ``count``
        echo messages under ``kind:echo``, then :meth:`record_rounds`, with
        the same checks (bit widths only when ``count`` is positive) — but
        one update: the messages are tallied under ``kind`` alone, and
        :meth:`per_kind` splits them into the two labels.
        """
        bne = self._bne_messages
        if not (count > 0 and bcast_bits > 0 and echo_bits > 0 and rounds >= 0 and kind in bne):
            if count < 0:
                raise AccountingError("cannot charge a negative number of messages")
            if rounds < 0:
                raise AccountingError("cannot advance time backwards")
            if count == 0:
                self._broadcast_echoes += 1
                self._rounds += rounds
                return
            if bcast_bits < 1 or echo_bits < 1:
                raise AccountingError("a message carries at least one bit")
            # The kind's first B&E that sends anything reserves its labels.
            self._per_kind.setdefault(f"{kind}:bcast", 0)
            self._per_kind.setdefault(f"{kind}:echo", 0)
            bne[kind] = 0
        bne[kind] += count
        self._messages += 2 * count
        self._bits += count * (bcast_bits + echo_bits)
        self._rounds += rounds
        self._broadcast_echoes += 1

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
        """Message counts keyed by message kind.

        A broadcast-and-echo kind ``k`` appears as ``k:bcast`` and
        ``k:echo``, one message each per tree edge.
        """
        counts = dict(self._per_kind)
        for kind, count in self._bne_messages.items():
            counts[f"{kind}:bcast"] += count
            counts[f"{kind}:echo"] += count
        return counts

    def snapshot(self) -> CostSnapshot:
        return CostSnapshot(self._messages, self._bits, self._rounds, self._broadcast_echoes)

    def since(self, snapshot: CostSnapshot) -> CostDelta:
        """Cost accumulated since ``snapshot`` was taken."""
        messages, bits, rounds, broadcast_echoes = snapshot
        delta = CostDelta(
            self._messages - messages,
            self._bits - bits,
            self._rounds - rounds,
            self._broadcast_echoes - broadcast_echoes,
        )
        if min(delta) < 0:
            raise AccountingError("snapshot does not belong to this accountant")
        return delta

    def reset(self) -> None:
        self._messages = 0
        self._bits = 0
        self._rounds = 0
        self._broadcast_echoes = 0
        self._per_kind.clear()
        self._bne_messages.clear()
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

