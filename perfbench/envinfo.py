"""Environment block of a benchmark run.

The BLAS thread count is read back from each OpenBLAS copy actually loaded
in this process (numpy and scipy may each carry one), through the library's
own getter found with ``ctypes``.  When no getter is found the count is
recorded as ``"unknown"``, never as the value that was requested.
"""

from __future__ import annotations

import ctypes
import os
import platform
import sys
from pathlib import Path

_PREFIXES = ("", "scipy_")
_SUFFIXES = ("", "64_")


def _symbol(lib, stem: str):
    for prefix in _PREFIXES:
        for suffix in _SUFFIXES:
            fn = getattr(lib, f"{prefix}{stem}{suffix}", None)
            if fn is not None:
                return fn
    return None


def _loaded_openblas() -> list[str]:
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return []
    return sorted(p for p in paths if p.startswith("/"))


def blas_libraries() -> list[dict]:
    """Name, effective thread count and build string of each loaded OpenBLAS."""
    out = []
    for path in _loaded_openblas():
        entry = {"library": Path(path).name, "threads": "unknown", "config": "unknown"}
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            out.append(entry)
            continue
        get_threads = _symbol(lib, "openblas_get_num_threads")
        if get_threads is not None:
            get_threads.argtypes = []
            get_threads.restype = ctypes.c_int
            entry["threads"] = int(get_threads())
        get_config = _symbol(lib, "openblas_get_config")
        if get_config is not None:
            get_config.argtypes = []
            get_config.restype = ctypes.c_char_p
            entry["config"] = get_config().decode(errors="replace").strip()
        out.append(entry)
    return out


def _blas_build(module) -> str:
    try:
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: Path) -> str:
    """Commit from ``.git`` inside ``root`` only; a plain source tree gives "unknown"."""
    git = root / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            ref_file = git / name
            if ref_file.is_file():
                return ref_file.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown"


def environment(root: Path) -> dict:
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas_build(numpy),
        "scipy_blas": _blas_build(scipy),
        "blas_loaded": blas_libraries(),
        "blas_threads_requested": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "cpu": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(root),
    }
