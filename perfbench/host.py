"""Host fingerprint recorded with every benchmark result.

Two results are comparable only when their ``host`` sections match:
CPU model, CPU count and Python version.  The ``context`` section
(source revision, load average at start) is recorded alongside but
not compared — an A/B comparison has two revisions by design.
"""

from __future__ import annotations

import os
import platform
import subprocess
from pathlib import Path
from typing import Optional

__all__ = ["fingerprint", "check_comparable", "FingerprintMismatch"]


class FingerprintMismatch(ValueError):
    """Two results were measured on different hosts."""


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine() or "unknown"


def _git_rev(root: Path) -> Optional[str]:
    """HEAD's commit id (None when ``root`` is not a git checkout)."""
    if not (root / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def fingerprint(root: Path) -> dict:
    """The host identity plus the run context for ``root``'s tree."""
    try:
        load = list(os.getloadavg())
    except OSError:
        load = None
    return {
        "host": {
            "cpu_model": _cpu_model(),
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
        },
        "context": {
            "git_rev": _git_rev(root),
            "loadavg_start": load,
        },
    }


def check_comparable(a: dict, b: dict) -> None:
    """Raise :class:`FingerprintMismatch` unless both hosts match."""
    ha, hb = a.get("host"), b.get("host")
    if not ha or not hb:
        raise FingerprintMismatch("a result carries no host fingerprint")
    diffs = [f"{key}: {ha.get(key)!r} != {hb.get(key)!r}"
             for key in sorted(set(ha) | set(hb))
             if ha.get(key) != hb.get(key)]
    if diffs:
        raise FingerprintMismatch(
            "results come from different hosts (" + "; ".join(diffs)
            + ")")
