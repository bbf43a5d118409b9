"""The claims ledger: each quick-tier row equals ``CLAIMS.json`` and holds.

The same tests run on the reference tier (``REPRO_FASTPATH=0``), so both
kernel tiers must reproduce the one pinned set of counters.
"""

import copy
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

from repro.claims import CLAIMS, TIERS, ClaimFailure, main, render

ROOT = pathlib.Path(__file__).resolve().parents[1]
LEDGER_PATH = ROOT / "CLAIMS.json"
README_PATH = ROOT / "README.md"

QUICK_ROWS = [(name, index) for name in sorted(CLAIMS) for index in range(len(CLAIMS[name].quick))]


@pytest.fixture(scope="module")
def pinned():
    return json.loads(LEDGER_PATH.read_text())


@pytest.mark.parametrize("name, index", QUICK_ROWS, ids=[f"{n}-{i}" for n, i in QUICK_ROWS])
def test_quick_row_matches_the_ledger(name, index, pinned):
    claim = CLAIMS[name]
    claim.verify_row(index, claim.measure(claim.quick[index]), pinned["quick"][name][index])


@pytest.mark.parametrize("name", sorted(CLAIMS))
def test_pinned_tiers_hold_and_the_full_tier_contains_the_quick_rows(name, pinned):
    claim = CLAIMS[name]
    for tier in TIERS:
        rows = pinned[tier][name]
        claim.check(rows)
        assert len(rows) == len(claim.params(tier))
    assert all(row in pinned["full"][name] for row in pinned["quick"][name])


def test_ledger_pins_every_claim_in_both_tiers(pinned):
    assert sorted(pinned) == sorted(TIERS)
    for tier in TIERS:
        assert sorted(pinned[tier]) == sorted(CLAIMS)


def test_ledger_is_written_one_key_per_line(pinned):
    assert LEDGER_PATH.read_text() == render(pinned) + "\n"


def _bump_first_counter(value, path=()):
    """Add 1 to the first integer in a row; return its dotted path and old value."""
    for key, item in value.items() if isinstance(value, dict) else enumerate(value):
        if isinstance(item, int):
            value[key] += 1
            return ".".join(map(str, path + (key,))), item
        if isinstance(item, (dict, list)):
            found = _bump_first_counter(item, path + (key,))
            if found:
                return found
    return None


@pytest.mark.parametrize("name", sorted(CLAIMS))
def test_moved_counter_fails_and_names_the_claim_row_and_counter(name, pinned):
    rows = pinned["full"][name]
    index = len(rows) - 1
    moved = copy.deepcopy(rows[index])
    path, old = _bump_first_counter(moved)
    with pytest.raises(ClaimFailure, match=rf"^{name}: row {index} moved: {re.escape(path)} {old} -> {old + 1}$"):
        CLAIMS[name].verify_row(index, moved, rows[index])


def test_broken_shape_fails_and_names_the_claim(pinned):
    rows = copy.deepcopy(pinned["quick"]["construction-crossover"])
    last = rows[-1]
    last["kkt-mst"]["messages"] = last["ghs"]["messages"]
    with pytest.raises(ClaimFailure, match="^construction-crossover: kkt-mst does not beat ghs at n=256"):
        CLAIMS["construction-crossover"].check(rows)
    rows = copy.deepcopy(pinned["quick"]["bracha-overhead"])
    rows[0]["plain"]["messages"] += 1
    with pytest.raises(ClaimFailure, match=r"^bracha-overhead: the plain volley sent 2289 != 18\(n-1\)\+2"):
        CLAIMS["bracha-overhead"].check(rows)
    rows = copy.deepcopy(pinned["quick"]["golden-runs"])
    rows[3]["ok"] = 0
    with pytest.raises(ClaimFailure, match="^golden-runs: row 3 failed its checks$"):
        CLAIMS["golden-runs"].check(rows)
    with pytest.raises(ClaimFailure, match="^golden-runs: the grid has no ghs-churn cell$"):
        CLAIMS["golden-runs"].check([row for row in pinned["quick"]["golden-runs"]
                                     if row["cell"] != "ghs-churn"])


def test_readme_crossover_table_matches_the_ledger(pinned):
    rows = pinned["full"]["construction-crossover"]
    lines = README_PATH.read_text().splitlines()
    start = lines.index("| n | m | kkt-mst | ghs | kkt-st | flooding |") + 2
    table = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        table.append([int(cell.replace(" ", "")) for cell in line.strip("|").split("|")])
    assert table == [
        [row["n"], row["m"], *(row[name]["messages"] for name in ("kkt-mst", "ghs", "kkt-st", "flooding"))]
        for row in rows
    ]
    ratio, n = re.search(r"sends ([\d.]+)× fewer\s+messages at n=(\d+)", README_PATH.read_text()).groups()
    largest = rows[-1]
    assert int(n) == largest["n"]
    assert ratio == f"{largest['ghs']['messages'] / largest['kkt-mst']['messages']:.1f}"


def test_readme_repair_waves_figures_match_the_ledger(pinned):
    text = " ".join(README_PATH.read_text().split())
    match = re.search(
        r"at n=(\d+) sparse \(full tier\) it reports ~(\d+)× fewer messages for k=(\d+) and "
        r"k=(\d+) waves \(`amortized_x100_k\*`: ([\d ]+) / ([\d ]+) sequential vs "
        r"([\d ]+) / ([\d ]+) batched\)",
        text,
    )
    assert match, "README lost its repair-waves sentence"
    n, ratio, k1, k2, *figures = match.groups()
    (row,) = [row for row in pinned["full"]["repair-waves"] if row["n"] == int(n)]
    assert [int(figure.replace(" ", "")) for figure in figures] == [
        row[f"seq_messages_k{k1}"], row[f"seq_messages_k{k2}"],
        row[f"batched_messages_k{k1}"], row[f"batched_messages_k{k2}"],
    ]
    for k in (k1, k2):
        assert round(row[f"amortized_x100_k{k}"] / 100) == int(ratio)


def test_main_takes_no_arguments(capsys):
    assert main(["--quick"]) == 2
    assert "takes no arguments" in capsys.readouterr().err


def test_repro_package_imports_neither_claims_nor_cli():
    code = (
        "import sys, repro\n"
        "print(sorted(m for m in ('repro.claims', 'repro.cli') if m in sys.modules))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert result.stdout.strip() == "[]"
