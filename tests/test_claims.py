"""The claims ledger: each claim's quick tier equals ``CLAIMS.json`` and holds.

The same tests run on the reference tier (``REPRO_FASTPATH=0``), so both
kernel tiers must reproduce the one pinned set of counters.
"""

import copy
import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.claims import CLAIMS, TIERS, ClaimFailure, main

LEDGER_PATH = pathlib.Path(__file__).resolve().parents[1] / "CLAIMS.json"


@pytest.fixture(scope="module")
def pinned():
    return json.loads(LEDGER_PATH.read_text())


@pytest.mark.parametrize("name", sorted(CLAIMS))
def test_quick_tier_matches_the_ledger(name, pinned):
    claim = CLAIMS[name]
    claim.verify(claim.rows("quick"), pinned["quick"][name])


@pytest.mark.parametrize("name", sorted(CLAIMS))
def test_pinned_full_tier_holds_and_contains_the_quick_rows(name, pinned):
    claim = CLAIMS[name]
    full = pinned["full"][name]
    claim.check(full)
    assert len(full) == len(claim.params("full"))
    assert all(row in full for row in pinned["quick"][name])


def test_ledger_pins_every_claim_in_both_tiers(pinned):
    assert sorted(pinned) == sorted(TIERS)
    for tier in TIERS:
        assert sorted(pinned[tier]) == sorted(CLAIMS)


@pytest.mark.parametrize("name", sorted(CLAIMS))
def test_tampered_row_fails_and_names_the_claim(name, pinned):
    rows = pinned["quick"][name]
    tampered = copy.deepcopy(rows)
    counter = next(key for key, value in tampered[-1].items() if isinstance(value, int))
    tampered[-1][counter] += 1
    with pytest.raises(ClaimFailure, match=f"^{name}: row {len(rows) - 1} "):
        CLAIMS[name].verify(rows, tampered)
    with pytest.raises(ClaimFailure, match=f"^{name}: {len(rows)} rows, the ledger pins 0$"):
        CLAIMS[name].verify(rows, [])


def test_broken_shape_fails_and_names_the_claim(pinned):
    rows = copy.deepcopy(pinned["quick"]["construction-crossover"])
    last = rows[-1]
    last["kkt-mst"]["messages"] = last["ghs"]["messages"]
    with pytest.raises(ClaimFailure, match="^construction-crossover: kkt-mst does not beat ghs at n=256"):
        CLAIMS["construction-crossover"].verify(rows, rows)
    rows = copy.deepcopy(pinned["quick"]["bracha-overhead"])
    rows[0]["plain"]["messages"] += 1
    with pytest.raises(ClaimFailure, match=r"^bracha-overhead: the plain volley sent 2289 != 18\(n-1\)\+2"):
        CLAIMS["bracha-overhead"].check(rows)


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
