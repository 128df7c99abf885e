"""E13 — storage backends: wall time and resident bytes.

The storage subsystem (``repro.storage``) claims that its one id-array
store — interned term-id rows, one shard per relation under
``"columnar"`` and eight under ``"sharded"`` — shrinks the resident
footprint of a materialized instance versus the object-set
``Instance``, without changing any answer.
Measured here, on the E2 data-complexity workloads (transitive closure
over growing chains, Θ(n²) materialized atoms):

* chase wall time per backend (pytest-benchmark on the largest chain);
* ``memory_report()`` resident bytes of the final store, per component;
* tracemalloc peak during the chase;
* identical certain answers across backends at every size.

Besides the usual report table, the harness writes
``benchmarks/results/e13_storage.json`` with the raw rows.
"""

from __future__ import annotations

import time

from repro.chase import chase
from repro.storage import BACKENDS, traced_peak

from conftest import write_json_result
from workloads import reachability_query, tc_linear_chain

SIZES = (16, 32, 64, 128)
BENCH_SIZE = 64
MAX_ATOMS = 100000


def _run_backend(backend: str, n: int) -> dict:
    program, database = tc_linear_chain(n)
    start = time.perf_counter()
    result, peak = traced_peak(
        lambda: chase(database, program, max_atoms=MAX_ATOMS, store=backend)
    )
    seconds = time.perf_counter() - start
    report = result.instance.memory_report()
    return {
        "backend": backend,
        "n": n,
        "atoms": len(result.instance),
        "saturated": result.saturated,
        "seconds": seconds,
        "resident_bytes": report.total_bytes,
        "memory_report": report.as_dict(),
        "tracemalloc_peak": peak,
        "answers": len(result.evaluate(reachability_query())),
    }


def test_e13_storage_backends(benchmark, report):
    rows = [
        _run_backend(backend, n) for n in SIZES for backend in BACKENDS
    ]

    # Identical answers at every size is the drop-in guarantee.
    for n in SIZES:
        answer_counts = {r["answers"] for r in rows if r["n"] == n}
        atom_counts = {r["atoms"] for r in rows if r["n"] == n}
        assert len(answer_counts) == 1, f"answers diverge at n={n}"
        assert len(atom_counts) == 1, f"instances diverge at n={n}"

    program, database = tc_linear_chain(BENCH_SIZE)
    benchmark.pedantic(
        chase, (database, program),
        {"max_atoms": MAX_ATOMS, "store": "columnar"},
        rounds=2, iterations=1,
    )

    report(
        "E13: storage backends — resident bytes and wall time (chase, "
        "E2 chains)",
        (
            "backend", "chain n", "atoms", "resident", "vs instance",
            "tracemalloc peak", "seconds",
        ),
        [
            (
                r["backend"],
                r["n"],
                r["atoms"],
                f"{r['resident_bytes'] / 1024:.0f} KiB",
                _ratio(rows, r),
                f"{r['tracemalloc_peak'] / 1024:.0f} KiB",
                f"{r['seconds']:.3f}",
            )
            for r in rows
        ],
        notes=(
            "resident = memory_report().total_bytes of the final store; "
            "columnar and sharded are the one id-array store (interned "
            "id rows, lazy indexes) with one and eight shards per "
            "relation.",
        ),
    )

    write_json_result("e13_storage.json", {"sizes": list(SIZES), "rows": rows})

    # The space-efficiency acceptance bar: on the largest workload the
    # columnar backend is resident-smaller than the object-set Instance.
    largest = {r["backend"]: r for r in rows if r["n"] == SIZES[-1]}
    assert (
        largest["columnar"]["resident_bytes"]
        < largest["instance"]["resident_bytes"]
    )


def _ratio(rows, row) -> str:
    baseline = next(
        r["resident_bytes"]
        for r in rows
        if r["n"] == row["n"] and r["backend"] == "instance"
    )
    return f"{row['resident_bytes'] / baseline:.2f}x"
