"""Property tests: Bracha's guarantees over the whole (n, t, adversary) band.

For every group size ``n`` and every tolerated bound ``t < n/3``, against
seeded adversaries running each Byzantine program — compromising either a
non-sender subset or the sender itself — the executed protocol must satisfy

* **agreement**: no two honest nodes deliver different values;
* **totality**: if any honest node delivers, every honest node delivers;
* **validity**: with an honest sender, every honest node delivers the
  sender's value (our benign-network schedulers deliver everything, so the
  asynchronous "eventually" collapses to "by quiescence").

And the boundary itself is part of the property: every ``t >= n/3`` is
rejected at construction time.
"""

import random

import pytest

from repro.byzantine import (
    BYZANTINE_PROGRAMS,
    BrachaConfig,
    ByzantineBehavior,
    ByzantineInjector,
    run_bracha_broadcast,
)
from repro.network.errors import AlgorithmError
from repro.network.scheduler import list_schedulers, make_scheduler

SIZES = range(4, 9)


def _tolerated(n):
    return range(1, (n - 1) // 3 + 1)


def _adversary(n, t, program, seed, include_sender):
    pool = list(range(2, n + 1))
    rng = random.Random(seed)
    if include_sender:
        nodes = {1, *rng.sample(pool, t - 1)}
    else:
        nodes = set(rng.sample(pool, t))
    behavior = ByzantineBehavior(nodes, program, seed=seed)
    return nodes, ByzantineInjector(behavior)


def _assert_agreement_and_totality(run, byzantine):
    honest = run.honest_delivered(byzantine)
    delivered = [value for value in honest.values() if value is not None]
    # Agreement: at most one distinct delivered value among honest nodes.
    assert len(set(delivered)) <= 1
    # Totality: all-or-nothing across the honest group.
    assert len(delivered) in (0, len(honest))


@pytest.mark.parametrize("program", BYZANTINE_PROGRAMS)
@pytest.mark.parametrize("n", SIZES)
def test_honest_sender_validity_under_every_program(n, program):
    for t in _tolerated(n):
        for seed in (0, 1):
            byzantine, injector = _adversary(n, t, program, seed, include_sender=False)
            run = run_bracha_broadcast(n, t, value=77, faults=injector)
            honest = run.honest_delivered(byzantine)
            assert honest == {node: 77 for node in honest}
            _assert_agreement_and_totality(run, byzantine)


@pytest.mark.parametrize("program", BYZANTINE_PROGRAMS)
@pytest.mark.parametrize("n", SIZES)
def test_byzantine_sender_cannot_break_agreement(n, program):
    for t in _tolerated(n):
        for seed in (0, 1, 2):
            byzantine, injector = _adversary(n, t, program, seed, include_sender=True)
            run = run_bracha_broadcast(n, t, value=77, faults=injector)
            _assert_agreement_and_totality(run, byzantine)


@pytest.mark.parametrize("n", SIZES)
def test_async_schedules_preserve_the_guarantees(n):
    t = (n - 1) // 3
    byzantine, injector = _adversary(n, t, "equivocate", 3, include_sender=True)
    run = run_bracha_broadcast(n, t, value=19, engine="async", faults=injector)
    _assert_agreement_and_totality(run, byzantine)


@pytest.mark.parametrize("scheduler", list_schedulers())
@pytest.mark.parametrize("program", BYZANTINE_PROGRAMS)
def test_every_schedule_preserves_validity_under_every_program(program, scheduler):
    n, t = 7, 2
    byzantine, injector = _adversary(n, t, program, 4, include_sender=False)
    run = run_bracha_broadcast(
        n, t, value=77, engine="async", scheduler=make_scheduler(scheduler), faults=injector
    )
    honest = run.honest_delivered(byzantine)
    assert honest == {node: 77 for node in honest}


@pytest.mark.parametrize("scheduler", list_schedulers())
@pytest.mark.parametrize("program", BYZANTINE_PROGRAMS)
def test_every_schedule_preserves_agreement_under_a_byzantine_sender(program, scheduler):
    n, t = 7, 2
    byzantine, injector = _adversary(n, t, program, 4, include_sender=True)
    run = run_bracha_broadcast(
        n, t, value=77, engine="async", scheduler=make_scheduler(scheduler), faults=injector
    )
    _assert_agreement_and_totality(run, byzantine)


@pytest.mark.parametrize("n", range(1, 16))
def test_every_unsound_bound_is_rejected(n):
    cap = (n - 1) // 3
    for t in range(cap + 1, n + 2):
        with pytest.raises(AlgorithmError, match="n > 3t"):
            BrachaConfig(n=n, t=t)
    # ... and the whole tolerated band constructs fine.
    for t in range(cap + 1):
        BrachaConfig(n=n, t=t)
