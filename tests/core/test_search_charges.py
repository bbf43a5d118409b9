"""Each search's charges, per message kind, pinned on both tiers and substrates.

``FindResult.cost`` sums the kinds and ``RunResult`` never sees
:meth:`MessageAccountant.per_kind`, so a charge that moved from one kind to
another (say an HP-TestOut charged as a TestOut) would pass every other
equivalence check.  These cells pin the returned edge, the cost and the
per-kind ledger of FindMin, Sample (``SuperpolyFindMin``) and FindAny at
n=64, seeds 0-2, on the fast and the reference tier, under the plain and the
Bracha substrate.  The Bracha ledger splits every kind into reliable
broadcast phases, so it is pinned by a digest.
"""

import pytest

from repro import fastpath
from repro.api.canonical import content_hash
from repro.core.config import AlgorithmConfig
from repro.core.findany import FindAny
from repro.core.findmin import FindMin
from repro.core.sample import SuperpolyFindMin
from repro.generators import random_connected_graph, random_spanning_tree_forest
from repro.network.accounting import MessageAccountant
from repro.network.broadcast import delivery_substrate, make_substrate

NODES = 64

# search -> (graph, forest, config, accountant, root) -> FindResult
SEARCHES = {
    "findmin": lambda g, f, c, a, r: FindMin(g, f, c, a).find_min(r),
    "superpoly": lambda g, f, c, a, r: SuperpolyFindMin(g, f, c, a).run(r),
    "findany": lambda g, f, c, a, r: FindAny(g, f, c, a).find_any(r),
}

TIERS = {"fast": fastpath.fast_path, "reference": fastpath.reference_path}

# (search, seed) -> (edge endpoints, (messages, bits, rounds, B&Es), per_kind)
PLAIN = {
    ("findmin", 0): (
        (39, 43),
        (2356, 135718, 2280, 38),
        {
            "hp_testout:bcast": 682, "hp_testout:echo": 682,
            "stats:bcast": 31, "stats:echo": 31,
            "testout:bcast": 465, "testout:echo": 465,
        },
    ),
    ("findmin", 1): (
        (14, 42),
        (3696, 214956, 2464, 44),
        {
            "hp_testout:bcast": 1092, "hp_testout:echo": 1092,
            "stats:bcast": 42, "stats:echo": 42,
            "testout:bcast": 714, "testout:echo": 714,
        },
    ),
    ("findmin", 2): (
        (4, 40),
        (3108, 177072, 2146, 37),
        {
            "hp_testout:bcast": 882, "hp_testout:echo": 882,
            "stats:bcast": 42, "stats:echo": 42,
            "testout:bcast": 630, "testout:echo": 630,
        },
    ),
    ("superpoly", 0): (
        (39, 43),
        (2356, 124961, 2280, 38),
        {
            "hp_testout:bcast": 527, "hp_testout:echo": 527,
            "sample:bcast": 310, "sample:echo": 310,
            "stats:bcast": 31, "stats:echo": 31,
            "testout:bcast": 310, "testout:echo": 310,
        },
    ),
    ("superpoly", 1): (
        (14, 42),
        (3780, 191646, 2520, 45),
        {
            "hp_testout:bcast": 756, "hp_testout:echo": 756,
            "sample:bcast": 546, "sample:echo": 546,
            "stats:bcast": 42, "stats:echo": 42,
            "testout:bcast": 546, "testout:echo": 546,
        },
    ),
    ("superpoly", 2): (
        (4, 40),
        (1932, 100254, 1334, 23),
        {
            "hp_testout:bcast": 420, "hp_testout:echo": 420,
            "sample:bcast": 252, "sample:echo": 252,
            "stats:bcast": 42, "stats:echo": 42,
            "testout:bcast": 252, "testout:echo": 252,
        },
    ),
    ("findany", 0): (
        (8, 29),
        (310, 8432, 300, 5),
        {
            "findany:test:bcast": 31, "findany:test:echo": 31,
            "findany:vector:bcast": 31, "findany:vector:echo": 31,
            "findany:xor:bcast": 31, "findany:xor:echo": 31,
            "hp_testout:bcast": 31, "hp_testout:echo": 31,
            "stats:bcast": 31, "stats:echo": 31,
        },
    ),
    ("findany", 1): (
        (25, 32),
        (420, 11424, 280, 5),
        {
            "findany:test:bcast": 42, "findany:test:echo": 42,
            "findany:vector:bcast": 42, "findany:vector:echo": 42,
            "findany:xor:bcast": 42, "findany:xor:echo": 42,
            "hp_testout:bcast": 42, "hp_testout:echo": 42,
            "stats:bcast": 42, "stats:echo": 42,
        },
    ),
    ("findany", 2): (
        (2, 41),
        (420, 11424, 290, 5),
        {
            "findany:test:bcast": 42, "findany:test:echo": 42,
            "findany:vector:bcast": 42, "findany:vector:echo": 42,
            "findany:xor:bcast": 42, "findany:xor:echo": 42,
            "hp_testout:bcast": 42, "hp_testout:echo": 42,
            "stats:bcast": 42, "stats:echo": 42,
        },
    ),
}

# (search, seed) -> ((messages, bits, rounds, B&Es), per_kind digest)
BRACHA = {
    ("findmin", 0): ((19147212, 1141274610, 6840, 38), "2a5452730aa08922"),
    ("findmin", 1): ((30037392, 1807022196, 7392, 44), "8351819050d9a530"),
    ("findmin", 2): ((25258716, 1489581576, 6438, 37), "4361feedd825c3d8"),
    ("superpoly", 0): ((19147212, 1053852471, 6840, 38), "4d7a129e86f4685e"),
    ("superpoly", 1): ((30720060, 1618947162, 7560, 45), "8261eaf42b5b0b8a"),
    ("superpoly", 2): ((15701364, 846166986, 4002, 23), "93b8999b2396f929"),
    ("findany", 0): ((2519370, 73565604, 900, 5), "e378854e10d6a1e1"),
    ("findany", 1): ((3413340, 99669528, 840, 5), "0f6c0f98ac2ad5c8"),
    ("findany", 2): ((3413340, 99669528, 870, 5), "0f6c0f98ac2ad5c8"),
}


def _search(search, seed, substrate):
    """One search on a 64-node graph whose spanning tree lost one edge."""
    graph = random_connected_graph(NODES, 3 * NODES, seed=seed)
    forest = random_spanning_tree_forest(graph, seed=seed + 1)
    key = sorted(forest.marked_edges)[NODES // 3]
    forest.unmark(*key)
    root = max(key, key=lambda node: len(forest.component_of(node)))
    accountant = MessageAccountant()
    config = AlgorithmConfig(n=NODES, seed=seed)
    with delivery_substrate(make_substrate(substrate, n=NODES)):
        result = SEARCHES[search](graph, forest, config, accountant, root)
    cost = result.cost
    counters = (cost.messages, cost.bits, cost.rounds, cost.broadcast_echoes)
    assert counters[3] == result.broadcast_echoes
    return result.edge.endpoints, counters, accountant.per_kind()


@pytest.mark.parametrize("tier", sorted(TIERS))
@pytest.mark.parametrize("search, seed", sorted(PLAIN))
def test_plain_charges(search, seed, tier):
    with TIERS[tier]():
        assert _search(search, seed, "plain") == PLAIN[search, seed]


@pytest.mark.parametrize("tier", sorted(TIERS))
@pytest.mark.parametrize("search, seed", sorted(BRACHA))
def test_bracha_charges(search, seed, tier):
    with TIERS[tier]():
        edge, counters, per_kind = _search(search, seed, "bracha")
    assert edge == PLAIN[search, seed][0]
    assert (counters, content_hash(per_kind)[:16]) == BRACHA[search, seed], per_kind
