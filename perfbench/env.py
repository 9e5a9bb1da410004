"""Thread pinning, package import from the checkout, and the environment record.

Import this module before numpy: ``pin_threads`` only takes effect when it
runs before the BLAS library loads.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

# One thread: the sparse solver and the gas model run single-threaded
# anyway, and a second BLAS thread only adds noise on a small host.
THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def pin_threads() -> None:
    for name in THREAD_VARS:
        os.environ[name] = str(THREADS)


def import_package(root: Path):
    """Import axinozzle from ``root/src`` and nowhere else."""
    src = (root / "src").resolve()
    if not (src / "axinozzle" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no axinozzle package under {src}")
    sys.path.insert(0, str(src))
    import axinozzle
    import axinozzle.cli  # noqa: F401  (the in-process command line)

    if Path(axinozzle.__file__).resolve().parent.parent != src:
        raise SystemExit(f"perfbench: imported axinozzle from {axinozzle.__file__}, not {src}")
    return axinozzle


def describe() -> dict:
    """Host and library versions, so that runs on two commits can be compared."""
    import numpy
    import scipy

    def blas(module) -> str:
        info = module.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
        return f"{info.get('name', '?')} {info.get('version', '?')}"

    return {
        "host": platform.node(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "threads": THREADS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
    }
