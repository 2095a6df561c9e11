"""Batch backend — pooled ``run_many`` vs per-input compiled execution.

Three measurements, all emitted into ``benchmarks/out/BENCH_batch.json``
(uploaded as a CI artifact, mirrored to the repo root):

1. **execution loop** — replay each Table 3 subject's fuzz corpus through
   one ``run_many`` call on the batch backend against a per-input
   ``run`` loop on the compiled backend.  Per-input (steps, fault-kind)
   traces are asserted identical along the way, so the speedup is never
   bought with semantic drift.  Target: >= 1.5x median.
2. **codegen coverage** — per subject, how many functions the batch
   compiler generated flat source for versus fell back to pooled
   closures (a fallback-heavy subject would silently lose the speedup).
3. **end-to-end Table 3 sweep** — the full ten-subject HeteroGen run
   under ``interp_backend="batch"`` against the same sweep under
   ``"compiled"``, with every per-subject result dict asserted
   bit-identical between the two (the pipeline-level charge-identity
   check).
"""

from __future__ import annotations

import re
import statistics
import time

from repro.baselines import default_config, run_variant
from repro.cli import result_to_dict
from repro.fuzz import FuzzConfig, fuzz_kernel
from repro.interp import ExecLimits, batch_program, engine_run_many, make_engine
from repro.subjects import all_subjects

from _shared import SEED, write_bench_json, write_table

#: Corpus replays per backend when timing the execution loop.
REPEATS = 3

LOOSE = ExecLimits(max_steps=120_000, max_depth=128)


def build_corpora():
    """One deterministic fuzz corpus per subject (built once, replayed
    under both backends)."""
    corpora = []
    for subject in all_subjects():
        unit = subject.parse()
        report = fuzz_kernel(
            unit,
            subject.kernel,
            FuzzConfig(max_execs=250, plateau_execs=250, seed=SEED),
            seeds=subject.existing_test_list() or None,
            backend="tree",
        )
        corpora.append((subject, unit, report.suite(40)))
    return corpora


def replay(engine, kernel, suite):
    """One pass over the suite; per-test (steps, fault-kind) trace.

    Both backends go through :func:`engine_run_many`, so the batch side
    exercises the pooled ``run_many`` fast path while the compiled side
    runs the per-input loop — exactly the code paths the consumers use.
    """
    trace = []
    for record in engine_run_many(engine, kernel, suite):
        if record.result is not None:
            trace.append((record.result.steps, ""))
        else:
            trace.append((-1, type(record.error).__name__))
    return trace


def time_backend(unit, kernel, suite, backend):
    if backend == "batch":
        # Lower before timing: the engine would otherwise run its first
        # input on closures (see repro.interp.batch._LOWER_AFTER_INPUTS).
        batch_program(unit)
    engine = make_engine(unit, backend=backend, limits=LOOSE,
                         want_out_args=False)
    trace = replay(engine, kernel, suite)  # warm-up (and the compile)
    start = time.perf_counter()
    for _ in range(REPEATS):
        replay(engine, kernel, suite)
    return time.perf_counter() - start, trace


def run_batch_loop(corpora):
    rows = []
    for subject, unit, suite in corpora:
        comp_s, comp_trace = time_backend(unit, subject.kernel, suite,
                                          "compiled")
        batch_s, batch_trace = time_backend(unit, subject.kernel, suite,
                                            "batch")
        assert comp_trace == batch_trace, (
            f"{subject.id}: batch diverged from compiled on the fuzz corpus"
        )
        program = batch_program(unit)
        rows.append({
            "subject": subject.id,
            "tests": len(suite),
            "compiled_seconds": round(comp_s, 4),
            "batch_seconds": round(batch_s, 4),
            "speedup": round(comp_s / batch_s, 2) if batch_s else 0.0,
            "generated_functions": program.generated,
            "fallback_functions": program.fallback_functions,
        })
    return rows


def run_table3_sweep(backend):
    """Full ten-subject run; returns (elapsed, per-subject result dicts)."""
    config = default_config(
        budget_seconds=3 * 3600.0,
        max_iterations=220,
        fuzz_execs=800,
        seed=SEED,
        interp_backend=backend,
    )
    start = time.perf_counter()
    results = [
        run_variant(subject, "HeteroGen", config)
        for subject in all_subjects()
    ]
    elapsed = time.perf_counter() - start
    assert all(r.hls_compatible and r.behavior_preserved for r in results)
    return elapsed, [result_to_dict(r) for r in results]


def _strip_uids(obj):
    """Replace ``@<uid>`` node references in strings with ``@N``."""
    if isinstance(obj, dict):
        return {k: _strip_uids(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_strip_uids(v) for v in obj]
    if isinstance(obj, str):
        return re.sub(r"@\d+", "@N", obj)
    return obj


def test_batch_backend(benchmark):
    corpora = build_corpora()
    loop_rows = benchmark.pedantic(
        run_batch_loop, args=(corpora,), rounds=1, iterations=1
    )

    compiled_sweep_s, compiled_dicts = run_table3_sweep("compiled")
    batch_sweep_s, batch_dicts = run_table3_sweep("batch")
    # The pipeline-level identity check: every subject's full result —
    # edits applied, speedup, repair iterations, generated tests — must
    # be bit-identical under the batch backend.  Edit labels embed AST
    # node uids (``loop@2278``) drawn from a process-global counter, so
    # the second sweep in this process parses its units at higher uids;
    # normalize those before comparing (the CI job re-runs the pipeline
    # in separate processes and diffs the raw JSON byte-for-byte).
    for comp_d, batch_d in zip(compiled_dicts, batch_dicts):
        assert _strip_uids(comp_d) == _strip_uids(batch_d), (
            f"{comp_d.get('subject')}: pipeline output diverged under batch"
        )

    median_speedup = statistics.median(r["speedup"] for r in loop_rows)
    payload = {
        "repeats": REPEATS,
        "execution_loop": loop_rows,
        "median_speedup": median_speedup,
        "codegen": {
            "generated_functions": sum(
                r["generated_functions"] for r in loop_rows
            ),
            "fallback_functions": sum(
                r["fallback_functions"] for r in loop_rows
            ),
        },
        "table3_sweep": {
            "compiled_seconds": round(compiled_sweep_s, 1),
            "batch_seconds": round(batch_sweep_s, 1),
            "delta_seconds": round(compiled_sweep_s - batch_sweep_s, 1),
            "pipeline_output_identical": True,
        },
    }
    write_bench_json("BENCH_batch.json", payload)

    lines = [
        "Batch backend — pooled run_many vs per-input compiled loop",
        f"{'ID':4} {'Tests':>5} {'Compiled(s)':>12} {'Batch(s)':>9} "
        f"{'Speedup':>8} {'Fallbacks':>9}",
    ]
    for row in loop_rows:
        lines.append(
            f"{row['subject']:4} {row['tests']:5} "
            f"{row['compiled_seconds']:12.3f} {row['batch_seconds']:9.3f} "
            f"{row['speedup']:7.2f}x {row['fallback_functions']:9}"
        )
    lines.append("")
    lines.append(f"median execution-loop speedup: {median_speedup:.2f}x "
                 f"(target: >= 1.5x)")
    lines.append(
        f"Table 3 sweep: {batch_sweep_s:.1f}s batch vs "
        f"{compiled_sweep_s:.1f}s compiled (outputs bit-identical)"
    )
    write_table("bench_batch.txt", "\n".join(lines))

    assert median_speedup >= 1.5
