"""Pin BLAS to one thread and put the checkout's ``src/`` first on sys.path.

Call :func:`prepare` before anything imports numpy: OpenBLAS reads its thread
count once, when the library loads.  Worker processes inherit both the
environment and sys.path from the process that starts them.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def prepare() -> None:
    """Pin BLAS threads, then make ``import ncfourier`` load this checkout's source."""
    for var in _THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "ncfourier" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no ncfourier package under {SRC}")
    sys.path.insert(0, str(SRC))
    import ncfourier

    if Path(ncfourier.__file__).resolve().parent != SRC / "ncfourier":
        raise SystemExit(f"perfbench: imported ncfourier from {ncfourier.__file__}, not {SRC}")
