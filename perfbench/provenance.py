"""Where a result came from: source revision, machine and numeric stack.

Everything is read without starting a process: the git sha from ``.git``
when the checkout has one, cache sizes from glibc's ``sysconf`` and the BLAS
thread count from the OpenBLAS that numpy already loaded.
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import platform
import sys
from pathlib import Path

import numpy as np

# glibc sysconf names (bits/confname.h)
_SC_LEVEL2_CACHE_SIZE = 191
_SC_LEVEL3_CACHE_SIZE = 194

_THREAD_SYMBOLS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                   "openblas_get_num_threads64_", "openblas_get_num_threads")


def git_sha(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256(src: Path) -> str:
    """Digest of every ``.py`` file under ``src``, so a checkout without git
    still names the code it measured."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _cache_bytes(name: int) -> int | None:
    if not sys.platform.startswith("linux"):
        return None
    try:
        value = ctypes.CDLL(None).sysconf(name)
    except (OSError, AttributeError):
        return None
    return value if value > 0 else None


def _blas() -> dict:
    info = {}
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        info = {"name": blas.get("name"), "version": blas.get("version")}
    except (AttributeError, KeyError, TypeError):
        pass
    threads = None
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for lib_path in glob.glob(libs):
        try:
            lib = ctypes.CDLL(lib_path)
        except OSError:
            continue
        for symbol in _THREAD_SYMBOLS:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
        if threads is not None:
            break
    info["threads"] = threads
    return info


def provenance(root: Path) -> dict:
    return {
        "git_sha": git_sha(root),
        "source_sha256": source_sha256(root / "src"),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "l2_bytes": _cache_bytes(_SC_LEVEL2_CACHE_SIZE),
        "l3_bytes": _cache_bytes(_SC_LEVEL3_CACHE_SIZE),
        "machine": platform.machine(),
    }
