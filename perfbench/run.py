"""Benchmark entry point: run one workload in a clean child process.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload construct-dense --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The measurement
itself runs in a child (:mod:`perfbench.harness`) started with a fixed
``PYTHONHASHSEED``, one BLAS/OpenMP thread and no inherited ``REPRO_*``
settings, so every run sees the program's defaults.  One child runs at a
time and is waited for.  The program is pure Python and is imported from
``src/`` as checked out; there is nothing to build.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: The child must finish well inside the 180 s a run may take.
CHILD_TIMEOUT_S = 170

CHILD_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


def main() -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env.update(CHILD_ENV)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    command = [sys.executable, "-m", "perfbench.harness", *sys.argv[1:]]
    try:
        child = subprocess.run(command, cwd=ROOT, env=env, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: the measurement did not finish in time", file=sys.stderr)
        return 3
    return child.returncode


if __name__ == "__main__":
    sys.exit(main())
