"""Machine and provenance facts recorded with every benchmark result.

Reads ``/proc/cpuinfo`` and the sysfs cache descriptions for the CPU model
and cache sizes; everything else comes from the interpreter and the
checkout.  Missing facts are recorded as ``None`` rather than guessed.
"""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cap_blas_threads() -> int:
    """Set the BLAS thread variables before numpy is imported: one thread
    unless ``OPENBLAS_NUM_THREADS`` (or ``OMP_NUM_THREADS``) asks for more,
    and never more than ``nproc``.  A single thread keeps the dense solves of
    set-up and ``c_theta`` from contending with other load.  Returns the
    count."""
    requested = os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")
    try:
        threads = max(1, min(int(requested), nproc())) if requested else 1
    except ValueError:
        threads = 1
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(threads)
    return threads


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _cache_sizes() -> dict:
    """``{"L2": bytes, "L3": bytes}`` per instance, from sysfs."""
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind == "Instruction" or level not in ("2", "3"):
            continue
        scale = {"K": 1024, "M": 1024 ** 2}.get(size[-1], 1)
        out[f"L{level}"] = int(size.rstrip("KM")) * scale
    return out


def _git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() or None


def source_digest(src: Path) -> str:
    """SHA-256 over the package sources, naming the code measured when the
    checkout carries no git metadata."""
    h = hashlib.sha256()
    for path in sorted((src / "acfront").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def facts(root: Path, threads: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": nproc(),
        "cpu_model": _cpu_model(),
        "cache_bytes": _cache_sizes(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": threads},
        "git_commit": _git_commit(root),
        "source_sha256": source_digest(root / "src"),
    }
