"""The Byzantine fault tier: adversarial nodes and the Bracha defence.

The benign fault subsystem (PR 4) models crashes, dead links and lossy
delivery.  This package adds the adversary that *lies*, in two halves that
mirror attack and defence:

* :mod:`repro.byzantine.behaviors` — compromised-node programs (payload
  corruption, equivocation, stale replay, send omission) injected at the
  event kernel's single delivery boundary, plus
  :mod:`repro.byzantine.programs`, which publishes them as ``byz-*`` fault
  programs in the experiment registry;
* :mod:`repro.byzantine.bracha` — Bracha's reliable broadcast
  (INIT/ECHO/READY, sound for ``n > 3t``) as an executable per-node
  protocol, plus :mod:`repro.byzantine.substrate`, which registers its
  closed-form cost model as the ``"bracha"`` delivery substrate the
  broadcast-and-echo executor can charge through.

The ``bracha-overhead`` claim of :mod:`repro.claims` pins what the
hardening costs.
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
from .programs import choose_byzantine_nodes, max_tolerated
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
    "choose_byzantine_nodes",
    "max_tolerated",
    "BrachaSubstrate",
    "default_resilience",
]
