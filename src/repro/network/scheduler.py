"""Delivery schedulers for the asynchronous engine.

The asynchronous CONGEST model only guarantees that every message is
*eventually* delivered.  Correctness of the paper's repair algorithms must
therefore not depend on delivery order.  The schedulers below let tests and
benchmarks exercise a protocol under different adversaries:

* :class:`FifoScheduler` — messages delivered in send order (the friendliest
  schedule; equivalent to a synchronous execution for many protocols).
* :class:`RandomScheduler` — each delivery picks a uniformly random pending
  message (a common model of an oblivious adversary).
* :class:`LifoScheduler` — always delivers the most recently sent message
  first (a simple adaptive-looking adversary that tends to starve old
  messages as long as new ones keep arriving).
* :class:`EdgeDelayScheduler` — assigns each edge a fixed integer delay and
  delivers in (send time + delay) order, modelling heterogeneous links.

Each scheduler also has a :meth:`~Scheduler.from_params` constructor that
accepts plain JSON-friendly data (so a ``ScheduleSpec`` can name a scheduler
in a serialised experiment description), and :func:`make_scheduler` builds
any of them by their registered short name (``fifo`` / ``lifo`` / ``random``
/ ``edge-delay``).
"""

from __future__ import annotations

import heapq
import random
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from ..registry import Registry
from .errors import SimulationError
from .graph import edge_key
from .message import Message

__all__ = [
    "Scheduler",
    "FifoScheduler",
    "LifoScheduler",
    "RandomScheduler",
    "EdgeDelayScheduler",
    "SCHEDULERS",
    "list_schedulers",
    "make_scheduler",
]


#: The scheduler registry: each scheduler class registers under the short
#: name that ``ScheduleSpec`` and the CLI use.
SCHEDULER_REGISTRY = Registry("scheduler", "schedulers", SimulationError)


def _reject_unknown(cls_name: str, params: Mapping[str, Any], known: Tuple[str, ...]) -> None:
    unknown = set(params) - set(known)
    if unknown:
        raise SimulationError(
            f"{cls_name} does not accept parameters {sorted(unknown)}; "
            f"known parameters: {sorted(known) or '<none>'}"
        )


class Scheduler:
    """Interface: a queue of pending messages with a pluggable pop order."""

    def push(self, message: Message) -> None:
        raise NotImplementedError

    def pop(self) -> Message:
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    def empty(self) -> bool:
        return len(self) == 0

    @classmethod
    def from_params(cls, **params: Any) -> "Scheduler":
        """Build the scheduler from plain (JSON-friendly) keyword data."""
        _reject_unknown(cls.__name__, params, ())
        return cls()


@SCHEDULER_REGISTRY.register("fifo")
class FifoScheduler(Scheduler):
    """Deliver messages in the order they were submitted."""

    def __init__(self) -> None:
        self._queue: List[Message] = []
        self._head = 0

    def push(self, message: Message) -> None:
        self._queue.append(message)

    def pop(self) -> Message:
        if self.empty():
            raise SimulationError("no pending messages")
        message = self._queue[self._head]
        self._head += 1
        if self._head > 1024 and self._head * 2 > len(self._queue):
            # Compact occasionally so memory stays proportional to the backlog.
            self._queue = self._queue[self._head:]
            self._head = 0
        return message

    def __len__(self) -> int:
        return len(self._queue) - self._head


@SCHEDULER_REGISTRY.register("lifo")
class LifoScheduler(Scheduler):
    """Always deliver the most recently submitted message first."""

    def __init__(self) -> None:
        self._stack: List[Message] = []

    def push(self, message: Message) -> None:
        self._stack.append(message)

    def pop(self) -> Message:
        if not self._stack:
            raise SimulationError("no pending messages")
        return self._stack.pop()

    def __len__(self) -> int:
        return len(self._stack)


@SCHEDULER_REGISTRY.register("random")
class RandomScheduler(Scheduler):
    """Deliver a uniformly random pending message at each step."""

    def __init__(self, rng: Optional[random.Random] = None, seed: Optional[int] = None):
        if rng is not None and seed is not None:
            raise SimulationError("pass either rng or seed, not both")
        self._rng = rng if rng is not None else random.Random(seed)
        self._pending: List[Message] = []

    @classmethod
    def from_params(cls, **params: Any) -> "RandomScheduler":
        _reject_unknown(cls.__name__, params, ("seed",))
        return cls(seed=params.get("seed"))

    def push(self, message: Message) -> None:
        self._pending.append(message)

    def pop(self) -> Message:
        if not self._pending:
            raise SimulationError("no pending messages")
        index = self._rng.randrange(len(self._pending))
        self._pending[index], self._pending[-1] = (
            self._pending[-1],
            self._pending[index],
        )
        return self._pending.pop()

    def __len__(self) -> int:
        return len(self._pending)


@SCHEDULER_REGISTRY.register("edge-delay")
class EdgeDelayScheduler(Scheduler):
    """Deliver messages in order of (send sequence + fixed per-edge delay).

    Per-edge delays model heterogeneous link latencies.  Unknown edges get
    ``default_delay``.  Ties break on submission order so the schedule is
    deterministic given the delays.
    """

    def __init__(
        self,
        delays: Optional[Dict[Tuple[int, int], int]] = None,
        default_delay: int = 1,
    ) -> None:
        if default_delay < 0:
            raise SimulationError("delays must be non-negative")
        self._delays = {}
        for (u, v), delay in (delays or {}).items():
            if delay < 0:
                raise SimulationError("delays must be non-negative")
            self._delays[edge_key(u, v)] = delay
        self._default_delay = default_delay
        self._pending: List[Tuple[int, int, Message]] = []
        self._counter = 0

    @classmethod
    def from_params(cls, **params: Any) -> "EdgeDelayScheduler":
        _reject_unknown(cls.__name__, params, ("delays", "default_delay"))
        return cls(
            delays=_decode_delays(params.get("delays")),
            default_delay=params.get("default_delay", 1),
        )

    def push(self, message: Message) -> None:
        delay = self._delays.get(
            edge_key(message.sender, message.receiver), self._default_delay
        )
        # A binary heap replaces the old linear min-scan per pop; submission
        # counters are unique, so (delivery time, counter) keys are total and
        # the delivery order is identical to the scan's.
        heapq.heappush(self._pending, (self._counter + delay, self._counter, message))
        self._counter += 1

    def pop(self) -> Message:
        if not self._pending:
            raise SimulationError("no pending messages")
        return heapq.heappop(self._pending)[2]

    def __len__(self) -> int:
        return len(self._pending)


# ---------------------------------------------------------------------- #
# construction by name
# ---------------------------------------------------------------------- #
#: Name -> scheduler class (the registry's backing dict).
SCHEDULERS: Dict[str, type] = SCHEDULER_REGISTRY.entries
list_schedulers = SCHEDULER_REGISTRY.names


def _decode_delays(
    delays: Union[None, Mapping[Any, int], List[Any]]
) -> Optional[Dict[Tuple[int, int], int]]:
    """Accept per-edge delays as tuple keys, ``"u-v"`` strings or triples.

    JSON objects cannot have tuple keys, so serialised specs carry either a
    ``{"u-v": delay}`` mapping or a ``[[u, v, delay], ...]`` list; in-process
    callers may keep passing ``{(u, v): delay}`` directly.
    """
    if delays is None:
        return None
    decoded: Dict[Tuple[int, int], int] = {}
    if isinstance(delays, Mapping):
        for key, delay in delays.items():
            if isinstance(key, str):
                u, _, v = key.partition("-")
                try:
                    key = (int(u), int(v))
                except ValueError:
                    raise SimulationError(
                        f"edge-delay keys must look like 'u-v', got {key!r}"
                    ) from None
            decoded[edge_key(*key)] = int(delay)
        return decoded
    for entry in delays:
        if len(entry) != 3:
            raise SimulationError(
                f"edge-delay entries must be [u, v, delay] triples, got {entry!r}"
            )
        u, v, delay = entry
        decoded[edge_key(int(u), int(v))] = int(delay)
    return decoded


def make_scheduler(name: str, **params: Any) -> Scheduler:
    """Build a scheduler by registered name from JSON-friendly parameters.

    >>> make_scheduler("random", seed=7)  # doctest: +ELLIPSIS
    <repro.network.scheduler.RandomScheduler object at ...>
    """
    return SCHEDULER_REGISTRY.get(name).from_params(**params)
