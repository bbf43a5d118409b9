"""Golden ``RunResult`` grid: every registered runner, pinned byte-for-byte.

Each cell runs one registered algorithm on ``GraphSpec(16, "sparse",
seed=3)`` under one scenario and pins the content hash of the canonical
result payload (wall time zeroed).  The hash covers every counter, check,
extra and provenance field, so any drift in how a runner resolves its
scenario, verifies its tree or records its result fails here.  The values
are tier-independent: the grid must hold under ``REPRO_FASTPATH=0`` too.

The base grid is every algorithm under five scenarios (plain, a 6-update
``churn`` workload, the ``random`` delivery schedule, the ``crash-leaves``
and ``link-storm`` fault programs); the extra cells exercise the runner
options that reach the shared run skeleton (``substrate``,
``record_state``, ``repair_batch``, ``mode``).
"""

import pytest

from repro.api import (
    ExperimentSpec,
    FaultSpec,
    GraphSpec,
    ScheduleSpec,
    WorkloadSpec,
    list_algorithms,
    run,
)
from repro.api.canonical import content_hash
from repro.service.store import canonical_result

GRAPH = GraphSpec(nodes=16, density="sparse", seed=3)

SCENARIOS = {
    "plain": GRAPH,
    "churn": ExperimentSpec(graph=GRAPH, workload=WorkloadSpec(name="churn", updates=6)),
    "random": ExperimentSpec(graph=GRAPH, schedule=ScheduleSpec(scheduler="random")),
    "crash-leaves": ExperimentSpec(graph=GRAPH, faults=FaultSpec(name="crash-leaves")),
    "link-storm": ExperimentSpec(graph=GRAPH, faults=FaultSpec(name="link-storm")),
}

ALGORITHMS = ("kkt-mst", "kkt-st", "ghs", "flooding", "kkt-repair", "recompute-repair")

# (algorithm, scenario, runner options)
CELLS = [
    (algorithm, scenario, ())
    for algorithm in ALGORITHMS
    for scenario in SCENARIOS
] + [
    ("kkt-mst", "plain", (("substrate", "bracha"),)),
    ("kkt-st", "plain", (("substrate", "bracha"),)),
    ("kkt-repair", "plain", (("substrate", "bracha"),)),
    *[(algorithm, "plain", (("record_state", True),)) for algorithm in ALGORITHMS],
    ("kkt-repair", "churn", (("repair_batch", 4),)),
    ("recompute-repair", "churn", (("repair_batch", 4),)),
    ("kkt-repair", "plain", (("mode", "st"),)),
]

# cell id -> content hash of the canonical result payload
GOLDEN = {
    "kkt-mst-plain": "245ee4ea5420ded7fe46505d1155427e15efc24184f03d7b9a50e0649e43a371",
    "kkt-mst-churn": "d4bd8dc0fac2afa9fee0dbf6c33309fa3e67cf950e791e7f377e3ba662eca56b",
    "kkt-mst-random": "ea1ad7e4b7a7ce18456176ee9f8a81742654c1a9080901309f29c6bf9b87c0e1",
    "kkt-mst-crash-leaves": "6f0631b3c3d48a8a6be8407498d15dd8acf8c0c989772883b4ffa571043ff90d",
    "kkt-mst-link-storm": "2e55740bcc178006a22ce9ff5bd0af4e1fb2287b5d74f26e97841488a447498e",
    "kkt-st-plain": "c2a223ebd7c2cda358299bc2fdd6e7ea515bf5c298bb5daad36049f8fbc69f17",
    "kkt-st-churn": "e41d23b360617372ab75d8fb7fd702cc3b63a8e4369e1a266cf098f6bd46c00a",
    "kkt-st-random": "80343d8a9955ae7e871d9d6938dc607b87a74d79bc1960bdc87ec34258a23e20",
    "kkt-st-crash-leaves": "27446e86591efe4812aa715cd794c96c7bdb33ecc8fc2051649651b842321274",
    "kkt-st-link-storm": "e8639e2690a8c92d1487f4609a1123b66b59eba4084c0b96d1635626979ecf1b",
    "ghs-plain": "4921c022652062e38faffe64dbf2e59be02e6ec85cbc3255c6309fbe6fd1afa9",
    "ghs-churn": "2b99224e69e46e04af5ace0d2933dde0a216987ad7464dd52d6bd8dd5df4e7c1",
    "ghs-random": "5233616aa67c2ff631efd7b4665644900c38de83f5a350844fe3d6cbd848c25f",
    "ghs-crash-leaves": "681b013547e7037880851015d17c88520cce6ce0d864dc559b51b516cfbdaabe",
    "ghs-link-storm": "3389be2d0237049cab5a27af3dba2625962a737b72a72702ec54ae5e241418a6",
    "flooding-plain": "72153058924d78fd9ba02941f199a563b0afb0f10e5ebf6542b8e9e765c7127f",
    "flooding-churn": "719bf26c2cc4c251cbc5ae70ca01bbde1e19b400bf9be4937aff0b49b3efa4f0",
    "flooding-random": "a185e15cab8ca9222c3fde1d45673d2d569d3547a90ca64d15ed02b86a87e254",
    "flooding-crash-leaves": "9de4b462cef1c87b0267bb11257ec86308f3445451131e47bc9d80aeaeef5e9d",
    "flooding-link-storm": "a413c0af8dcf3afbd14f5be4853abf986d5c8b3646a1c957bae2f0fb0ee63417",
    "kkt-repair-plain": "19824a00c6b14b8080d37e34e106b42ec7a6a3d1c0393d24e746db8cc16bf821",
    "kkt-repair-churn": "2528513130f220006b5170f843edf49a71c948666dd66d00647388ec9c681a2d",
    "kkt-repair-random": "588b8f0a9863a12eb62b39e593852a70ae732d8bce8ab1aff425d1a2767640a6",
    "kkt-repair-crash-leaves": "f9dbe1c16f2d06895ea37d9dba71dd0a3ea66b726d8b92c1de07d87d503c28c4",
    "kkt-repair-link-storm": "0cea828dd5e51869cf84640f91aa04ec1659f883293ba23adf778ec6536ead24",
    "recompute-repair-plain": "cdcb82d92d22a66f8f8e613189b23f6af2dc7e69ad97aa8061b1cc8b58043fb3",
    "recompute-repair-churn": "fbe33f58f85688d6981d6ecde63aef289d1e523809c833dfbd48312eead4f3e3",
    "recompute-repair-random": "06272c8bb73d46b85096dce11924975f6a5b6995930c36d4db8b85568a67d6c1",
    "recompute-repair-crash-leaves": "ad20042d4a0e92c216f25d8ff53b7f88cf4c7edee40884d7d2ae6a1d0016fef7",
    "recompute-repair-link-storm": "5d226096cf3b536b64e1ceaf0efb0235e14e0caa9a9e1ce6820ed4c749beacc0",
    "kkt-mst-plain-substrate=bracha": "d7a6bbc4eca85b1a4030fe679112acbfda9218d68e512eab584e9d069b8970c4",
    "kkt-st-plain-substrate=bracha": "0bb8f35cb0e7f21e1ef861647e1311b93501d178ac56d68cefcfae95e72e15e3",
    "kkt-repair-plain-substrate=bracha": "7c241579949693c6d723610f22747ceb49cff1d6f186a966f02ca6ce16e6138e",
    "kkt-mst-plain-record_state=True": "c75d69f181247614e85e5ee2bd317a60dac5a70c59188536c4302ee52e922b15",
    "kkt-st-plain-record_state=True": "1c9a5c6ea7a900f3bbf516df1a1783597fe9cd237d81019b8ddeec8b81a623aa",
    "ghs-plain-record_state=True": "292f78d8de5e89fac0f0183d32bc5b077b7815dc0c82e13059826aed16594078",
    "flooding-plain-record_state=True": "35bff93039e1fde665b1eed18a7ebed45cd57fe6619663ef874273d4ac256469",
    "kkt-repair-plain-record_state=True": "7a9b8b41630e5bed07437ee28647cadc43d5446b410b5655391d855766f4c558",
    "recompute-repair-plain-record_state=True": "05dafd29531c2e93f1dbcd7371b7d732449526a8962cc3516d5ae069a665f646",
    "kkt-repair-churn-repair_batch=4": "6740bc1c8d5d7faeffb1779e329e980d3b3961d79b96a57865fa63b0a51cb06d",
    "recompute-repair-churn-repair_batch=4": "b7ebac71b67bd3088029a66de79793d6b127c45e800455759d226966d08e492b",
    "kkt-repair-plain-mode=st": "a7e3e51d392c3d4296a94dac28438fbd00c5c5aff5e21a57910bd2bfd498a6d0",
}


def _cell_id(cell):
    algorithm, scenario, options = cell
    return "-".join([algorithm, scenario, *(f"{key}={value}" for key, value in options)])


def _digest(cell):
    algorithm, scenario, options = cell
    result = run(algorithm, SCENARIOS[scenario], **dict(options))
    return content_hash(canonical_result(result.to_dict()))


def test_grid_covers_the_registry():
    assert sorted(ALGORITHMS) == sorted(list_algorithms())
    assert sorted(GOLDEN) == sorted(_cell_id(cell) for cell in CELLS)


@pytest.mark.parametrize("cell", CELLS, ids=_cell_id)
def test_run_result_is_pinned(cell):
    assert _digest(cell) == GOLDEN[_cell_id(cell)]
