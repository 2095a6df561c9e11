"""Worker process: one set-up, store fill or timed pass, then exit.

Run by ``perfbench/run.py`` as ``python -m perfbench.worker <mode> ...``
with the repository root as working directory and ``src`` on the path.
Prints one JSON object as its last line of standard output.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from typing import Any, Dict, List

from repro.cfront.parser import parse
from repro.core.store import close_stores
from repro.interp import default_backend

from . import workloads
from .tracer import SPAN_NAMES, Tracer


#: The one site an untraced pass wraps: a warm pass must make no store
#: write, and a wrapper that is never called costs nothing.
STORE_PUT = ("repro.core.store:EvalStore", "put", "core.store.put")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def layer_metrics(tracer: Tracer, start: float, end: float,
                  counters: Dict[str, int]) -> Dict[str, float]:
    """The per-layer metrics of one traced pass."""
    ledger = tracer.ledger(start, end)
    inc, own, n = ledger["inclusive"], ledger["self"], tracer.counts

    def t(name: str) -> float:
        return inc.get(name, 0.0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    metrics = {
        "interp.run_many_s": t("interp.run_many"),
        "interp.run_many_calls": n["interp.run_many.calls"],
        "interp.inputs": n["interp.inputs"],
        "interp.steps": n["interp.steps"],
        "interp.steps_per_s": ratio(n["interp.steps"], t("interp.run_many")),
        "interp.make_engine_s": t("interp.make_engine"),
        "fuzz.self_s": own.get("fuzz", 0.0),
        "fuzz.execs": counters["fuzz.execs"],
        "fuzz.seed_capture_s": t("fuzz.seed_capture"),
        "core.edits.apply_s": t("core.edits.apply"),
        "core.edits.apply_calls": n["core.edits.apply.calls"],
        "core.edits.useful_ratio": ratio(
            n["core.search.evaluate.calls"], n["core.edits.apply.calls"]
        ),
        "core.search.run_s": t("core.search.run"),
        "core.search.evaluate_s": t("core.search.evaluate"),
        "core.search.evals": n["core.search.evaluate.calls"],
        "core.search.propose_self_s": own.get("core.search.run", 0.0),
        "difftest.search_s": t("difftest.search"),
        "difftest.search_calls": n["difftest.search.calls"],
        "difftest.final_s": t("difftest.final"),
        "hls.check_style_s": t("hls.check_style"),
        "hls.check_style_calls": n["hls.check_style.calls"],
        "hls.style_reject_ratio": ratio(
            n["hls.style_rejects"], n["hls.check_style.calls"]
        ),
        "hls.compile_unit_s": t("hls.compile_unit"),
        "hls.compile_unit_calls": n["hls.compile_unit.calls"],
        "hls.schedule_s": t("hls.schedule"),
        "hls.simulate_self_s": own.get("hls.simulate", 0.0),
        "core.evalcache.lookup_s": t("core.evalcache.lookup"),
        "core.evalcache.hit_ratio": ratio(
            n["core.evalcache.hits"], n["core.evalcache.lookup.calls"]
        ),
        "core.store.get_s": t("core.store.get"),
        "core.store.get_calls": n["core.store.get.calls"],
        "core.store.hit_ratio": ratio(
            n["core.store.hits"], n["core.store.get.calls"]
        ),
        "core.store.put_s": t("core.store.put"),
        "core.bitwidth_s": t("core.bitwidth"),
        "cfront.parse_s": t("cfront.parse"),
        "unattributed_s": ledger["unattributed"],
    }
    for name in SPAN_NAMES:
        metrics[f"self.{name}_s"] = own.get(name, 0.0)
    return metrics


def cross_check(workload: str, tracer: Tracer,
                counters: Dict[str, int]) -> List[str]:
    """Each wrapper's call count must equal the program's own counter;
    a difference means a wrapper sits where the call does not happen."""
    n = tracer.counts
    pairs = [("fuzz inputs", n["fuzz.inputs"], counters["fuzz.execs"])]
    if workload != "testgen":
        pairs += [
            ("evaluate calls", n["core.search.evaluate.calls"],
             counters["attempts"]),
            ("compile_unit calls", n["hls.compile_unit.calls"],
             counters["hls_invocations"]),
            ("check_style calls", n["hls.check_style.calls"],
             counters["style_checks"]),
        ]
    problems = [
        f"cross-check: {label} {traced} != program counter {program}"
        for label, traced, program in pairs
        if traced != program
    ]
    if workload == "repair-warm" and (
        n["core.store.get.calls"] < counters["store_hits"]
    ):
        problems.append(
            f"cross-check: store get calls {n['core.store.get.calls']} < "
            f"store hits {counters['store_hits']}"
        )
    return problems


def timed_pass(args: argparse.Namespace) -> Dict[str, Any]:
    config = workloads.bench_config(args.seed, args.store)
    subjects = workloads.subjects_for(args.workload)
    warm = args.workload == "repair-warm" and args.mode == "pass"
    tracer = Tracer() if args.trace else Tracer(patches=(STORE_PUT,))
    tracer.install()
    try:
        start = time.perf_counter()
        result = workloads.run_pass(args.workload, subjects, config)
        end = time.perf_counter()
    finally:
        tracer.uninstall()
    rss = peak_rss_mb()
    close_stores()
    oracle_start = time.perf_counter()
    if args.check:
        workloads.check_pass(args.workload, result, config)
    oracle_s = time.perf_counter() - oracle_start
    out = workloads.summarize(args.workload, result)
    out["peak_rss_mb"] = rss
    out["oracle_s"] = oracle_s
    out["provenance"] = {
        "backend": default_backend(),
        "executor": config.search.executor,
        "workers": config.search.workers,
    }
    # Pass-level problems fail every subject of the pass.
    problems: List[str] = []
    if warm:
        c = out["counters"]
        puts = tracer.counts["core.store.put.calls"]
        if puts:
            problems.append(f"warm pass made {puts} store put(s)")
        if c["cache_hits"] != c["attempts"]:
            problems.append(
                f"warm pass: cache hits {c['cache_hits']} != "
                f"evaluations {c['attempts']}"
            )
    if not tracer.restored():
        problems.append("tracer left a wrapper installed")
    if args.trace:
        out["layers"] = layer_metrics(tracer, start, end, out["counters"])
        problems += cross_check(args.workload, tracer, out["counters"])
        if args.spans_out:
            tracer.write(args.spans_out)
    if problems:
        out["problems"] += problems
        out["failed"] = out["attempted"]
    return out


def setup(args: argparse.Namespace) -> Dict[str, Any]:
    """Import the pipeline and parse the workload's subjects."""
    for subject in workloads.subjects_for(args.workload):
        parse(subject.source, top_name=subject.kernel)
    return {"ok": True}


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(prog="perfbench.worker")
    parser.add_argument("mode", choices=("setup", "fill", "pass"))
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=2022)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--store", default=None)
    parser.add_argument("--spans-out", default=None)
    parser.add_argument("--check", type=int, choices=(0, 1), default=1,
                        help="run the oracle on this pass's outputs")
    args = parser.parse_args(argv)
    out = setup(args) if args.mode == "setup" else timed_pass(args)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
