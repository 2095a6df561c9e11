"""One timed pass of each workload, run inside a fresh worker process.

A pass drives the public ``repro`` API subject by subject, times each
subject and the whole pass, and keeps every output so the oracle can
check it after the clock has stopped.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.baselines import default_config, run_variant
from repro.cfront.printer import render
from repro.core import heterogen as pipeline
from repro.core.heterogen import HeteroGenConfig
from repro.hls.clock import SimulatedClock
from repro.subjects import Subject, get_subject

from . import oracle

#: Subjects of the two repair workloads.  One default-config repair of
#: all ten Table 3 subjects takes about a minute on a 2-CPU host, too
#: long to repeat within one benchmark run, so they take four that
#: together cover three of the six error families: unsupported data
#: types (P1, P2, P5), dynamic data structures (P5) and loop
#: parallelisation (P7).  P1 is the paper's one subject whose converted
#: kernel is slower than the CPU.
REPAIR_SUBJECTS = ("P1", "P2", "P5", "P7")

#: Test generation alone is cheap enough to cover all of Table 4, and
#: over ten subjects the work a seed draws varies by about 2%.
TESTGEN_SUBJECTS = tuple(f"P{i}" for i in range(1, 11))

WORKLOADS = ("repair-cold", "repair-warm", "testgen")


def subjects_for(workload: str) -> List[Subject]:
    ids = TESTGEN_SUBJECTS if workload == "testgen" else REPAIR_SUBJECTS
    return [get_subject(i) for i in ids]


def bench_config(seed: int, store_path: Optional[str] = None) -> HeteroGenConfig:
    """``default_config()`` with the workload seed; the executor, worker
    count and engine are left at their defaults (the benchmark clears
    every ``REPRO_*`` override before the worker starts)."""
    config = default_config(seed=seed)
    config.search.store_path = store_path
    return config


@dataclass
class SubjectRun:
    subject: Subject
    wall_s: float
    output: Any = None
    """A :class:`TranspileResult` (repair) or :class:`FuzzReport`
    (testgen); None when the subject raised."""
    problems: List[str] = field(default_factory=list)


@dataclass
class Pass:
    wall_s: float
    runs: List[SubjectRun]


def testgen_stage(subject: Subject, config: HeteroGenConfig) -> Any:
    """The pipeline's test-generation stage on its own: host seed
    capture, plus the existing tests, plus Algorithm 1 fuzzing.  Each
    stage function is looked up on :mod:`repro.core.heterogen` at call
    time, exactly where the pipeline looks it up."""
    unit = pipeline.parse(subject.source, top_name=subject.kernel)
    backend = config.interp_backend
    seeds = subject.existing_test_list()
    if subject.host:
        seeds = pipeline.get_kernel_seed(
            unit, subject.host, subject.kernel, subject.host_args,
            backend=backend,
        ) + seeds
    return pipeline.fuzz_kernel(
        unit, subject.kernel, config.fuzz, seeds=seeds or None,
        clock=SimulatedClock(), limits=config.limits, backend=backend,
    )


def run_pass(workload: str, subjects: List[Subject],
             config: HeteroGenConfig) -> Pass:
    """Time one closed-loop pass; a subject that raises is recorded as a
    failure and the pass goes on."""
    runs: List[SubjectRun] = []
    start = time.perf_counter()
    for subject in subjects:
        t0 = time.perf_counter()
        try:
            if workload == "testgen":
                output = testgen_stage(subject, config)
            else:
                output = run_variant(subject, config=config)
        except Exception:  # a crash is a failed operation, not a crashed benchmark
            runs.append(SubjectRun(
                subject, time.perf_counter() - t0,
                problems=[f"{subject.id}: raised\n{traceback.format_exc()}"],
            ))
            continue
        runs.append(SubjectRun(subject, time.perf_counter() - t0, output))
    return Pass(time.perf_counter() - start, runs)


def check_pass(workload: str, result: Pass, config: HeteroGenConfig) -> None:
    """Run the oracle on every output (outside the timed pass)."""
    for run in result.runs:
        if run.output is None:
            continue
        if workload == "testgen":
            run.problems += oracle.check_coverage(run.output, run.subject, config)
        else:
            run.problems += oracle.check_repair(run.output, run.subject, config)


def geomean(values: List[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def fingerprint(workload: str, output: Any) -> Dict[str, Any]:
    """What must not differ between two passes of one seed, or between a
    cold and a warm repair: the generated suite, or the repaired program
    and its simulated seconds."""
    if workload == "testgen":
        return {"suite": _sha(json.dumps(output.suite(), default=str)),
                "execs": output.execs}
    return {
        "sha": _sha(render(output.final_unit)) if output.final_unit else "",
        "sim_s": output.search_result.clock.seconds,
    }


def summarize(workload: str, result: Pass) -> Dict[str, Any]:
    """Plain-data view of a pass for the parent process."""
    rows, counters, fingerprints = [], {}, {}
    ok = [run for run in result.runs if run.output is not None]
    for run in result.runs:
        row: Dict[str, Any] = {"subject": run.subject.id, "wall_s": run.wall_s}
        out = run.output
        if out is not None and workload == "testgen":
            row.update(execs=out.execs, sim_min=out.fuzz_minutes,
                       coverage=out.coverage_ratio)
        elif out is not None:
            stats = out.search_result.stats
            row.update(evals=stats.attempts,
                       sim_min=out.search_result.total_minutes,
                       speedup=out.speedup,
                       coverage=out.fuzz_report.coverage_ratio)
        if out is not None:
            fingerprints[run.subject.id] = fingerprint(workload, out)
        rows.append(row)
    if workload == "testgen":
        counters["fuzz.execs"] = sum(r.output.execs for r in ok)
    else:
        for name in ("attempts", "hls_invocations", "style_checks",
                     "cache_hits", "store_hits", "store_misses"):
            counters[name] = sum(
                getattr(r.output.search_result.stats, name) for r in ok
            )
        counters["fuzz.execs"] = sum(
            r.output.fuzz_report.execs for r in ok if r.output.fuzz_report
        )
    quality = {
        "sim_min": sum(row.get("sim_min", 0.0) for row in rows),
        "branch_coverage_mean": (
            sum(row.get("coverage", 0.0) for row in rows) / len(rows)
        ),
        # A test-generation pass transforms no program: its output runs
        # exactly as fast as its input.
        "speedup_geomean": 1.0 if workload == "testgen" else geomean(
            [max(row.get("speedup", 0.0), 1e-12) for row in rows]
        ),
    }
    return {
        "wall_s": result.wall_s,
        "rows": rows,
        "counters": counters,
        "quality": quality,
        "fingerprints": fingerprints,
        "problems": [p for run in result.runs for p in run.problems],
        "failed": sum(1 for run in result.runs if run.problems),
        "attempted": len(result.runs),
    }
