"""Bracha's reliable broadcast and the adversary its tests run it against.

* :mod:`repro.byzantine.bracha` — Bracha's reliable broadcast
  (INIT/ECHO/READY, sound for ``n > 3t``) as an executable per-node
  protocol, plus :mod:`repro.byzantine.substrate`, which registers its
  closed-form cost model as the ``"bracha"`` delivery substrate the
  broadcast-and-echo executor can charge through;
* :mod:`repro.byzantine.behaviors` — compromised-node behaviours (payload
  corruption, equivocation, stale replay, send omission) injected at the
  event kernel's single delivery boundary, which the tests use to check
  Bracha's tolerance of ``t`` Byzantine nodes.

No fault program of the experiment registry is Byzantine: the paper's model
is CONGEST with honest nodes.  The ``bracha-overhead`` and
``search-charges`` claims of :mod:`repro.claims` pin what the hardening
costs.
"""

from .behaviors import (
    BYZANTINE_PROGRAMS,
    ByzantineBehavior,
    ByzantineInjector,
    corrupt_value,
)
from .bracha import (
    BrachaConfig,
    BrachaNode,
    BrachaRun,
    complete_graph,
    run_bracha_broadcast,
)
from .substrate import BrachaSubstrate, default_resilience

__all__ = [
    "BYZANTINE_PROGRAMS",
    "ByzantineBehavior",
    "ByzantineInjector",
    "corrupt_value",
    "BrachaConfig",
    "BrachaNode",
    "BrachaRun",
    "complete_graph",
    "run_bracha_broadcast",
    "BrachaSubstrate",
    "default_resilience",
]
