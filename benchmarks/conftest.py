"""Shared reporting fixture for the E1–E8 benchmark harnesses.

Each harness prints a paper-style table (and archives it under
``benchmarks/results/``) in addition to the pytest-benchmark timing
table, so that ``pytest benchmarks/ --benchmark-only`` regenerates every
row the reproduction targets (DESIGN.md §4, EXPERIMENTS.md).
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Sequence

import pytest

#: Resolved against this file, never the process cwd — ``pytest
#: /path/to/repo/benchmarks`` from anywhere writes to the same place.
RESULTS_DIR = Path(__file__).resolve().parent / "results"


def write_json_result(name: str, payload) -> Path:
    """Archive one benchmark's raw numbers as JSON under ``results/``.

    The shared writer for every harness that emits a machine-readable
    artifact (``BENCH_api.json``, ``BENCH_kernels.json``, ...): one place
    resolves the destination (file-relative, cwd-independent) and
    creates the directory.
    """
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / name
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path


def format_table(
    title: str,
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    notes: Sequence[str] = (),
) -> list[str]:
    """Render an aligned plain-text table."""
    widths = [len(h) for h in headers]
    text_rows = [[str(cell) for cell in row] for row in rows]
    for row in text_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def fmt(cells: Sequence[str]) -> str:
        return "  ".join(
            cell.ljust(width) for cell, width in zip(cells, widths)
        ).rstrip()

    lines = [
        title,
        "=" * len(title),
        fmt(list(headers)),
        fmt(["-" * width for width in widths]),
    ]
    lines.extend(fmt(row) for row in text_rows)
    if isinstance(notes, str):
        notes = (notes,)
    lines.extend(f"note: {note}" for note in notes)
    return lines


@pytest.fixture
def report(capsys):
    """Print a result table to the terminal and archive it to disk."""

    def _report(title, headers, rows, notes=()):
        lines = format_table(title, headers, rows, notes)
        text = "\n".join(lines)
        with capsys.disabled():
            print("\n" + text + "\n")
        RESULTS_DIR.mkdir(exist_ok=True)
        slug = re.sub(r"[^a-z0-9]+", "-", title.lower()).strip("-")
        (RESULTS_DIR / f"{slug}.txt").write_text(text + "\n")

    return _report
