"""Compiled columnar batch kernels vs the per-tuple interpreter.

Nobody chooses how a rule runs: the datalog engine compiles kernels on
a kernel-capable store (columnar, sharded) and interprets on the rest
(instance).  So the comparison is between *stores*, measured
end-to-end through the session layer:

* **Speedup** — the E2-style transitive-closure saturation on the
  ``columnar`` store (kernels) runs at least ``SPEEDUP_FLOOR``× faster
  than the same saturation on the ``instance`` store (interpreter):
  the two cells compared are ``columnar`` and ``instance`` of
  ``saturation_cells``, recorded as ``speedup_vs_instance_interpret``.
  The design target is ≥10× at scale; at this smoke scale the ratio
  measured ~3× when the 2× floor was set, and 1.3–2.1× on a 2-core
  machine since interned terms made the interpreter cheaper, so the
  floor fails on some runs (rescaling it is an open ROADMAP item).
* **Exactness** — kernel cells answer digest-equal to the interpreter
  on every surface that dispatches them: plain saturation (columnar
  and sharded vs instance), a magic-rewritten bound query and a
  post-``Session.apply`` re-query (the IVM path).  The generator
  families' datalog cells on every store are tier-1's business:
  ``tests/property/test_prop_kernels.py::
  test_store_alone_decides_dispatch_across_families`` (dispatch,
  batches and digests per store) and
  ``tests/integration/test_cross_validation.py::
  TestSuiteCorpusAgreement`` (one digest across engines and stores).
* **Observability** — kernel cells report ``exec_mode="kernel"`` and a
  positive ``kernel_batches`` through ``StreamStats``; interpreter
  cells report ``"interpret"`` and zero batches.

Raw rows land in ``benchmarks/results/BENCH_kernels.json`` — written
*before* the assertions, so a failing run still uploads its evidence.
"""

from __future__ import annotations

import random
import time

from repro.api import Session
from repro.benchsuite import answer_digest

from conftest import write_json_result

#: E2-style workload: a cycle (long recursion chains) plus random
#: chords — the closure is dense and the fixpoint needs many rounds.
VERTICES = 192
CHORDS = 48
SEED = 2019

#: Asserted wall-clock floor for kernels on ``columnar`` vs the
#: interpreter on ``instance`` (the design target is 10×).
SPEEDUP_FLOOR = 2.0

RULES = """
path(X, Y) :- edge(X, Y).
path(X, Z) :- edge(X, Y), path(Y, Z).
"""
QUERY = "q(X, Y) :- path(X, Y)."
BOUND_QUERY = "q(Y) :- path(v0, Y)."


def _program_text() -> str:
    rng = random.Random(SEED)
    edges = {(f"v{i}", f"v{(i + 1) % VERTICES}") for i in range(VERTICES)}
    while len(edges) < VERTICES + CHORDS:
        edges.add(
            (f"v{rng.randrange(VERTICES)}", f"v{rng.randrange(VERTICES)}")
        )
    facts = "\n".join(f"edge({x}, {y})." for x, y in sorted(edges))
    return facts + "\n" + RULES


def _saturate(program_text: str, store: str, query: str = QUERY,
              rewrite: str = "auto"):
    """One cold session, one drained stream: the cell dict."""
    session = Session(store=store)
    session.load(program_text)
    start = time.perf_counter()
    stream = session.query(query, rewrite=rewrite)
    answers = stream.to_set()
    seconds = time.perf_counter() - start
    return {
        "store": store,
        "exec_mode": stream.stats.exec_mode,
        "rewrite": stream.stats.rewrite,
        "kernel_batches": stream.stats.kernel_batches,
        "rounds": stream.stats.rounds,
        "derived": stream.stats.derived,
        "seconds": seconds,
        "answers": len(answers),
        "digest": answer_digest(answers),
    }


def _post_apply_digest(program_text: str, store: str):
    """Query → apply a change batch → re-query; the IVM-path digest."""
    from repro.lang.parser import parse_program

    session = Session(store=store)
    session.load(program_text)
    session.query(QUERY).to_set()
    # Two fresh edges that lengthen existing chains through a new
    # vertex — the warmed fixpoint is upgraded, not recomputed.
    _, delta = parse_program(
        f"edge(w0, v0). edge(v{VERTICES // 2}, w0)."
    )
    report = session.apply(inserts=delta)
    stream = session.query(QUERY)
    answers = stream.to_set()
    return {
        "store": store,
        "maintained": len(report.maintained),
        "answers": len(answers),
        "digest": answer_digest(answers),
    }


def test_kernel_compile_speedup_and_parity(report):
    program_text = _program_text()

    # -- the headline measurement: TC saturation per store ------------
    col_kernel = _saturate(program_text, "columnar")
    sh_kernel = _saturate(program_text, "sharded")
    inst_interp = _saturate(program_text, "instance")
    saturation = (col_kernel, sh_kernel, inst_interp)
    speedup = inst_interp["seconds"] / max(col_kernel["seconds"], 1e-9)

    # -- magic-rewritten cell: demand program through the kernels ------
    magic_kernel = _saturate(
        program_text, "columnar", query=BOUND_QUERY, rewrite="magic"
    )
    magic_interp = _saturate(
        program_text, "instance", query=BOUND_QUERY, rewrite="magic"
    )

    # -- post-Session.apply cell: the IVM path ------------------------
    ivm_kernel = _post_apply_digest(program_text, "columnar")
    ivm_interp = _post_apply_digest(program_text, "instance")

    report(
        f"Columnar kernel compilation ({VERTICES} vertices + "
        f"{CHORDS} chords, transitive closure)",
        ("configuration", "seconds", "rounds", "batches", "answers"),
        [
            (
                f"{cell['store']} × {cell['exec_mode']}",
                f"{cell['seconds']:.3f}",
                str(cell["rounds"]),
                str(cell["kernel_batches"]),
                str(cell["answers"]),
            )
            for cell in saturation
        ],
        notes=(
            f"columnar kernels {speedup:.1f}x vs the instance "
            f"interpreter (asserted floor {SPEEDUP_FLOOR:.0f}x); magic "
            f"cell {magic_kernel['seconds']:.3f}s kernel vs "
            f"{magic_interp['seconds']:.3f}s interpret",
        ),
    )

    # Evidence first, judgement second: the artifact must exist even
    # when an assertion below fails (CI uploads it with if: always()).
    write_json_result(
        "BENCH_kernels.json",
        {
            "schema": "repro/bench-kernels/v3",
            "scale": {
                "vertices": VERTICES,
                "chords": CHORDS,
                "seed": SEED,
            },
            "speedup_floor": SPEEDUP_FLOOR,
            "speedup_vs_instance_interpret": speedup,
            "saturation_cells": list(saturation),
            "magic_cells": [magic_kernel, magic_interp],
            "ivm_cells": [ivm_kernel, ivm_interp],
        },
    )

    # -- exactness ----------------------------------------------------
    assert len({cell["digest"] for cell in saturation}) == 1, (
        "kernels and the interpreter disagree on the closure: "
        f"{[(c['store'], c['digest']) for c in saturation]}"
    )
    assert len({cell["rounds"] for cell in saturation}) == 1
    assert len({cell["derived"] for cell in saturation}) == 1
    assert magic_kernel["digest"] == magic_interp["digest"]
    assert magic_kernel["rewrite"] == magic_interp["rewrite"] == "magic"
    assert ivm_kernel["digest"] == ivm_interp["digest"]

    # -- the store decided how the rounds ran --------------------------
    for cell in (col_kernel, sh_kernel, magic_kernel):
        assert cell["exec_mode"] == "kernel"
        assert cell["kernel_batches"] > 0
    for cell in (inst_interp, magic_interp):
        assert cell["exec_mode"] == "interpret"
        assert cell["kernel_batches"] == 0

    # -- the performance floor ----------------------------------------
    assert speedup >= SPEEDUP_FLOOR, (
        f"columnar kernels are only {speedup:.2f}x the instance "
        f"interpreter (floor {SPEEDUP_FLOOR}x): kernel "
        f"{col_kernel['seconds']:.3f}s vs interpret "
        f"{inst_interp['seconds']:.3f}s"
    )
