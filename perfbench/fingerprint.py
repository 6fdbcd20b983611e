"""Machine and build fingerprint that goes with every benchmark result.

BLAS thread variables are recorded as found; the benchmark never sets them,
so the program runs with the threading a user would get.
"""

from __future__ import annotations

import ctypes
import os
import platform
from importlib import metadata
from pathlib import Path

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "OPENBLAS_CORETYPE")


def _openblas_libs() -> dict:
    """Core type, thread count and build config of every loaded OpenBLAS.

    numpy and scipy each bundle their own OpenBLAS; both are reported.
    """
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return {}
    paths = sorted({line.split()[-1] for line in maps if "openblas" in line.lower() and "/" in line})
    libs = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        info = {}
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                for field, restype in (("get_corename", ctypes.c_char_p),
                                       ("get_num_threads", ctypes.c_int),
                                       ("get_config", ctypes.c_char_p)):
                    fn = getattr(lib, f"{prefix}{field}{suffix}", None)
                    if fn is not None and field not in info:
                        fn.restype = restype
                        fn.argtypes = []
                        value = fn()
                        info[field] = value.decode() if isinstance(value, bytes) else value
        libs[Path(path).name] = info
    return libs


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def _git_commit(root: Path):
    """HEAD commit read from the .git directory, or None outside a checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def fingerprint(root: Path, seed: int) -> dict:
    import numpy as np

    build = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = build.get("blas", {})

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": version("scipy"),
        "blas_name": blas.get("name"),
        "blas_config": blas.get("openblas configuration"),
        "openblas": _openblas_libs(),
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(root),
        "seed": seed,
    }
