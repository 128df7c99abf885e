#!/usr/bin/env python3
"""End-to-end benchmark of the reproduction: five workloads, four
end-to-end metrics, per-layer numbers from a traced replicate each.

    python3 benchmarks/e2e/run.py                     # every workload, then every layer
    python3 benchmarks/e2e/run.py --workload serve_demand --seed 7 --trace 0
    python3 benchmarks/e2e/run.py --workload pwl_reason --trace 1
    python3 benchmarks/e2e/run.py --smoke             # 1 + 1 traced replicate each, for CI
    python3 benchmarks/e2e/run.py --aa 5              # A/A: 5 sets of the same code

A run of one workload is 10 replicates of one frozen op list, each on
fresh state (a fresh daemon, or a fresh child process).  Every answer
is checked against :mod:`oracle` after the clock has stopped.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end with ``--trace 0``, per-layer
with ``--trace 1``, both without ``--trace``).  README.md explains the
estimators and the workloads.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from common import ROOT, WORK, fastest_quarter, require_source, spread_pct
from workloads import BY_NAME, REPLICATES, RUN_SECONDS, WORKLOADS, Workload

BENCHMARK_JSON = ROOT / "BENCHMARK.json"
SMOKE_REPLICATES = 1  # untraced; the traced one makes two
TRACED_REPLICATES = 3


@dataclass
class Run:
    """The replicates of one workload."""

    workload: Workload
    replicates: list   # of replicate.Replicate
    ops: int           # per replicate

    @property
    def attempted(self) -> int:
        return self.ops * len(self.replicates)

    @property
    def failed(self) -> int:
        return sum(replicate.failed for replicate in self.replicates)

    @property
    def usable(self) -> list:
        return [r for r in self.replicates if r.detail is not None]


def run_workload(workload: Workload, seed: int, replicates: int) -> Run:
    from replicate import prepare

    inputs, replicate = prepare(workload, seed)
    return Run(
        workload,
        [replicate() for _ in range(replicates)],
        len(inputs.ops) if inputs else 1,
    )


# -- end-to-end metrics ------------------------------------------------------


def per_replicate(run: Run) -> Dict[str, List[float]]:
    """Every usable replicate's own figure for each end-to-end metric."""
    return {
        "setup_s": [r.setup_s for r in run.usable],
        "throughput_ops_s": [run.ops / r.window_s for r in run.usable],
        "op_p50_ms": [statistics.median(r.primary) * 1e3 for r in run.usable],
        "peak_rss_mb": [r.rss_mb for r in run.usable],
    }


def end_to_end(run: Run) -> Dict[str, dict]:
    """The four end-to-end metrics of one run: the mean over the fastest
    quarter of replicates for the timings, the median for peak RSS."""
    if not run.usable:
        raise SystemExit(f"{run.workload.name}: every replicate broke")
    raw = per_replicate(run)
    return {
        "setup_s": {"value": fastest_quarter(raw["setup_s"]), "unit": "s"},
        "throughput_ops_s": {
            "value": fastest_quarter(raw["throughput_ops_s"], highest=True),
            "unit": "1/s"},
        "op_p50_ms": {"value": fastest_quarter(raw["op_p50_ms"]), "unit": "ms"},
        "peak_rss_mb": {
            "value": statistics.median(raw["peak_rss_mb"]), "unit": "MB"},
    }


def diagnostics(run: Run) -> str:
    """All-replicate median and IQR — what the fastest quarter discards,
    printed so a change that adds jitter still shows."""
    return "  ".join(
        f"{name} median {statistics.median(values):.4g} "
        f"IQR {spread_pct(values):.1f}%"
        for name, values in per_replicate(run).items()
    )


def print_metrics(title: str, metrics: Dict[str, dict]) -> None:
    print(title)
    for name, metric in metrics.items():
        print(f"  {name:34s} {metric['value']:>14.6g} {metric['unit']}")


# -- modes -------------------------------------------------------------------


def replicate_count(args) -> int:
    """REPLICATES at the default ``--seconds``, in proportion otherwise
    (never below the fastest quarter's 3): fixed by the arguments alone,
    never by how loaded the box is."""
    if args.smoke:
        return SMOKE_REPLICATES
    return max(3, round(REPLICATES * args.seconds / RUN_SECONDS))


def measure(workload: Workload, args) -> Tuple[Run, Dict[str, dict]]:
    run = run_workload(workload, args.seed, replicate_count(args))
    metrics = end_to_end(run)
    print_metrics(
        f"== {workload.name}  seed {args.seed}  {len(run.replicates)} "
        f"replicates × {run.ops} op(s)  primary op: {workload.primary}  "
        f"failed {run.failed}/{run.attempted}",
        metrics,
    )
    print(f"  (all replicates: {diagnostics(run)})")
    return run, metrics


def trace(
    workload: Workload, args, plain: Optional[list]
) -> Tuple[int, int, Dict[str, dict]]:
    """The traced replicate(s) of *workload*; *plain* are the untraced
    replicates just measured, if any (else the tracer runs its own)."""
    from layers import trace_workload

    attempted, failed, metrics, spans = trace_workload(
        workload, args.seed, plain, count=1 if args.smoke else TRACED_REPLICATES
    )
    out = Path(args.trace_out) if args.trace_out else WORK / "trace"
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{workload.name}-seed{args.seed}.spans.json"
    path.write_text(json.dumps(
        {"columns": ["id", "name", "start_s", "end_s", "parent", "op"],
         "spans": spans}
    ))
    print_metrics(
        f"== {workload.name}  seed {args.seed}  traced  "
        f"failed {failed}/{attempted}  {len(spans)} spans → {path}",
        metrics,
    )
    return attempted, failed, metrics


def fingerprint() -> str:
    model = "unknown CPU"
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return (
        f"{os.cpu_count()} vCPU, {model}, Python {platform.python_version()}, "
        f"{platform.system()} {platform.release()}"
    )


def aa_check(workloads: Sequence[Workload], args) -> int:
    """A/A: N sets of the same code back to back; per workload × metric
    the largest pairwise relative difference must stay within the bound
    BENCHMARK.json fixes for that metric."""
    spec = json.loads(BENCHMARK_JSON.read_text())
    limits = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    sets: List[Dict[str, Dict[str, dict]]] = []
    for index in range(args.aa):
        print(f"-- A/A set {index + 1}/{args.aa}")
        sets.append({w.name: measure(w, args)[1] for w in workloads})
    breaches = 0
    print(f"\nA/A over {args.aa} sets: max pairwise difference (bound)")
    print("| workload | " + " | ".join(limits) + " |")
    print("|---|" + "---|" * len(limits))
    for workload in workloads:
        cells = []
        for name, bound in limits.items():
            values = [one[workload.name][name]["value"] for one in sets]
            worst = max(
                abs(a - b) / min(a, b)
                for a, b in itertools.combinations(values, 2)
            )
            breaches += worst > bound
            cells.append(
                f"{100 * worst:.1f} % ({100 * bound:.0f} %)"
                + (" !" if worst > bound else "")
            )
        print(f"| {workload.name} | " + " | ".join(cells) + " |")
    print(f"{breaches} breach(es)")
    return 1 if breaches else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark (see benchmarks/e2e/README.md)."
    )
    parser.add_argument("--workload", choices=list(BY_NAME), default=None,
                        help="one workload (default: all five)")
    parser.add_argument("--seed", type=int, default=2019,
                        help="input seed (default 2019)")
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="measuring time per workload: the replicate "
                             f"count is {REPLICATES} at the default "
                             f"{RUN_SECONDS} and in proportion otherwise")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics only; 1: per-layer "
                             "metrics of the traced replicate only "
                             "(default: both)")
    parser.add_argument("--trace-out", default=None, metavar="DIR",
                        help="where span dumps go (default .bench_e2e/trace)")
    parser.add_argument("--smoke", action="store_true",
                        help="one untraced and one traced replicate per "
                             "workload, same code path")
    parser.add_argument("--aa", type=int, default=0, metavar="N",
                        help="run N ≥ 2 sets back to back and check them "
                             "against the bounds")
    args = parser.parse_args(argv)
    if args.aa == 1:
        parser.error("--aa needs at least 2 sets")
    require_source()
    WORK.mkdir(exist_ok=True)
    workloads = [BY_NAME[args.workload]] if args.workload else list(WORKLOADS)
    print(f"benchmarks/e2e on {fingerprint()}")
    try:
        if args.aa:
            return aa_check(workloads, args)
        attempted = failed = 0
        metrics: Dict[str, dict] = {}
        for workload in workloads:
            found: Dict[str, dict] = {}
            plain = None
            if args.trace != 1:
                run, measured = measure(workload, args)
                attempted += run.attempted
                failed += run.failed
                found.update(measured)
                plain = run.usable
            if args.trace != 0:
                tried, wrong, layered = trace(workload, args, plain)
                attempted += tried
                failed += wrong
                found.update(layered)
            if args.workload:
                metrics = found
            else:
                metrics[workload.name] = found
        print(json.dumps({
            "correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics,
        }))
        return 0
    finally:
        for leftover in WORK.glob(f"*-{os.getpid()}"):
            shutil.rmtree(leftover, ignore_errors=True)


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Set iteration order feeds the in-process layer counts; re-exec
        # once under the hash seed the daemons and children already get.
        os.execve(
            sys.executable,
            [sys.executable, *sys.argv],
            dict(os.environ, PYTHONHASHSEED="0"),
        )
    sys.exit(main())
