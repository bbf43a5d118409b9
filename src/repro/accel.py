"""Optional acceleration tier: numpy auto-detection for the columnar kernels.

The columnar sketch engine (:mod:`repro.network.columnar` and the columnar
kernels in :mod:`repro.core.sketches`) is stdlib-only: flat ``array``-module
columns and one-pass Python loops.  When numpy happens to be installed, a
handful of kernels additionally offer a vectorised variant — but **only**
where the vectorised arithmetic is provably exact:

* the odd-hash test ``(a·x mod 2^w) ≤ t`` is computed with ``uint64``
  wrap-around multiplication, which equals ``mod 2^64`` exactly, so any word
  width ``w ≤ 64`` is bit-exact;
* the Carter–Wegman hash ``((a·x + b) mod p) mod r`` is only vectorised when
  ``a·x_max + b`` fits in a signed 64-bit product (checked per call);
  otherwise the stdlib loop runs.

Numpy is therefore a wall-clock tier, never a semantics tier: every counter
and every sketch word is identical with and without it (pinned by
``tests/core/test_columnar_kernels.py``).  Set ``REPRO_NUMPY=0`` to force the
stdlib tier even when numpy is importable — the CI matrix runs the suite both
ways.
"""

from __future__ import annotations

import os
from typing import Any, Optional

__all__ = ["numpy_or_none", "HAVE_NUMPY"]

_np: Optional[Any] = None
if os.environ.get("REPRO_NUMPY", "1") not in ("0", "false", "off"):
    try:  # pragma: no cover - exercised only when numpy is installed
        import numpy as _numpy

        _np = _numpy
    except ImportError:
        _np = None

#: True iff the numpy acceleration tier is importable and not disabled.
HAVE_NUMPY = _np is not None


def numpy_or_none() -> Optional[Any]:
    """The numpy module when the acceleration tier is active, else ``None``."""
    return _np
