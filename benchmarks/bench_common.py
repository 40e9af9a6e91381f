"""Shared helpers for the benchmark harness (imported by bench modules)."""

from __future__ import annotations

import os
import subprocess
from pathlib import Path

SCALE = max(1, int(os.environ.get("REPRO_SCALE", "1")))
TRAIN_JOBS = 10 * SCALE

RESULTS_DIR = Path(__file__).parent / "results"
RESULTS_DIR.mkdir(exist_ok=True)

SYSTEMS = ("mapreduce", "spark", "tez")


def write_result(name: str, text: str) -> None:
    """Persist a regenerated table/figure and echo it to stdout."""
    (RESULTS_DIR / name).write_text(text + "\n")
    print(f"\n=== {name} ===\n{text}")


def git_sha() -> str:
    """The checkout's HEAD commit, or ``"unknown"`` outside a git tree."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=Path(__file__).parent,
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"
