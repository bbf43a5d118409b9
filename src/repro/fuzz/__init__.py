"""Differential fuzzing for the KKT reproduction.

The curated test grids pin correctness at ~1000 hand-picked points; this
package *generates* scenarios adversarially across the whole
``GraphSpec × WorkloadSpec × ScheduleSpec × FaultSpec`` space and checks
every registered algorithm against the paper's own ground truth — the
sequential MST and its cut/cycle certificates — plus the reproduction's
standing guarantees (fast path == reference path, parallel == serial,
provenance in every result).

The pieces
----------
:mod:`~repro.fuzz.specgen`
    Seeded random generation of valid experiment specs, with registry
    introspection so new workloads and fault programs are fuzzed
    automatically.
:mod:`~repro.fuzz.oracles`
    The pluggable oracle stack (differential, fastpath, determinism,
    provenance) over a shared per-case run cache.
:mod:`~repro.fuzz.shrink`
    A delta-debugging shrinker that reduces a failing spec to a minimal
    reproducer (drop axes, fewer nodes, shorter streams, simpler schedule).
:mod:`~repro.fuzz.corpus`
    The JSON corpus of minimized reproducers, replayable byte-for-byte.
:mod:`~repro.fuzz.engine`
    :class:`FuzzCampaign`, which wires it all together — also exposed as
    the ``repro fuzz run / replay / corpus`` CLI.

>>> from repro.fuzz import FuzzCampaign
>>> campaign = FuzzCampaign(budget=5, seed=0)
>>> report = campaign.run()
>>> report["violation_count"]
0
"""

from .corpus import CORPUS_VERSION, Corpus, CorpusEntry
from .engine import REPORT_VERSION, FuzzCampaign, replay_entry, report_to_json
from .oracles import (
    ORACLE_REGISTRY,
    CaseContext,
    DeterminismOracle,
    DifferentialOracle,
    FastpathOracle,
    ProvenanceOracle,
    Violation,
    default_algorithms,
    default_oracles,
    make_oracles,
    restore_final_state,
    run_recorded,
)
from .shrink import ShrinkOutcome, shrink_spec
from .specgen import SpecGenerator, SpecSpace

__all__ = [
    "CORPUS_VERSION",
    "CaseContext",
    "Corpus",
    "CorpusEntry",
    "DeterminismOracle",
    "DifferentialOracle",
    "FastpathOracle",
    "FuzzCampaign",
    "ORACLE_REGISTRY",
    "ProvenanceOracle",
    "REPORT_VERSION",
    "ShrinkOutcome",
    "SpecGenerator",
    "SpecSpace",
    "Violation",
    "default_algorithms",
    "default_oracles",
    "make_oracles",
    "replay_entry",
    "report_to_json",
    "restore_final_state",
    "run_recorded",
    "shrink_spec",
]
