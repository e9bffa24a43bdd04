"""Percentiles, memory and the environment stamp."""

from __future__ import annotations

import hashlib
import importlib.util
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path


def pct(values, q: float) -> float:
    """Linearly interpolated ``q``-quantile (``0 <= q <= 1``); 0.0 for
    no values."""
    xs = sorted(values)
    if not xs:
        return 0.0
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values) -> float:
    return pct(values, 0.5)


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def self_peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, from /proc."""
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


_SPIN = (
    "import time\nt = time.perf_counter()\nx = 0\n"
    "for i in range(3_000_000):\n    x += i\n"
    "print(time.perf_counter() - t)"
)


def _spin(count: int) -> float:
    procs = [
        subprocess.Popen([sys.executable, "-S", "-c", _SPIN], stdout=subprocess.PIPE, text=True)
        for _ in range(count)
    ]
    return max(float(p.communicate(timeout=60)[0]) for p in procs)


def two_process_parallelism() -> float:
    """Speed-up of two CPU-bound processes over one: 2.0 on two free
    cores, 1.0 when they share one."""
    one = _spin(1)
    return 2.0 * one / _spin(2)


def _src_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _git_sha(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(root: Path) -> dict:
    """What the numbers were measured on.  ``git_sha`` is ``None`` in
    a checkout without ``.git``; ``src_sha256`` identifies the code
    either way."""
    return {
        "git_sha": _git_sha(root),
        "src_sha256": _src_digest(root),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "scipy": importlib.util.find_spec("scipy") is not None,
        "two_process_parallelism": round(two_process_parallelism(), 3),
    }
