"""The repository benchmark: HeteroGen repair and test generation, timed
end to end and, in a separate traced run, layer by layer.

Usage, from the repository root::

    python3 perfbench/run.py --workload repair-cold --seed 2022 --seconds 15 --trace 0

Workloads (see ``BENCHMARK.json``):

* ``repair-cold``: default-config HeteroGen repair of P1, P2, P5 and P7
  with no evaluation store, every pass in a fresh process.
* ``repair-warm``: the same repair backed by a persistent evaluation
  store that set-up fills; every pass opens it cold and only reads it.
* ``testgen``: only the pipeline's test-generation stage, on P1-P10.

The loop is closed and single-threaded: one worker process at a time,
default ``thread`` executor with one worker, default engine, in-program
tracing off.  ``--trace 0`` repeats passes until ``--seconds`` of pass
time is measured and prints the end-to-end metrics, each subject's time
taken as its median over the passes;
``--trace 1`` makes a traced pass between two untraced ones and prints
the per-layer metrics.  The first pass's outputs are checked by
``perfbench/oracle.py`` outside the timed region, and every later pass
must reproduce them exactly.  The last line of standard output is the
result as JSON.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("repair-cold", "repair-warm", "testgen")
SETUP_REPEATS = 3
#: Hard limit for one benchmark run, below the 180 s a run may take.
RUN_LIMIT_S = 170.0
#: Scratch space for the evaluation store, removed after each run, and
#: the span dumps of traced runs; both inside the checkout, ignored by git.
TMP_DIR = ROOT / ".perfbench-tmp"
SPANS_DIR = ROOT / ".perfbench-out"

#: Repair results recorded at seed 2022 by ``benchmarks/bench_synth.py``.
GOLDEN_PATH = ROOT / "benchmarks" / "golden_synth_off.json"
GOLDEN_SEED = 2022

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "subject_geomean_s": "s",
    "peak_rss_mb": "MB",
    "sim_min": "min",
    "speedup_geomean": "x",
    "branch_coverage_mean": "ratio",
}


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a failed operation)."""


def pinned_env() -> Dict[str, str]:
    """The worker environment: no ``REPRO_*`` override of executor,
    workers, store, engine, synthesis, tracing or any other knob; the
    checkout's ``src`` first on the path; one thread for native math."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    for knob in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[knob] = "1"
    return env


def git_describe() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--tags"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


class Runner:
    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.env = pinned_env()
        self.deadline = time.monotonic() + RUN_LIMIT_S

    def remaining(self) -> float:
        return self.deadline - time.monotonic()

    def spawn(self, mode: str, *extra: str) -> Dict[str, Any]:
        """Run one worker process to completion; its wall time from
        outside is returned as ``elapsed_s``."""
        cmd = [
            sys.executable, "-m", "perfbench.worker", mode,
            "--workload", self.args.workload, "--seed", str(self.args.seed),
            *extra,
        ]
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, env=self.env, capture_output=True, text=True,
                timeout=max(1.0, self.remaining()),
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"worker {mode} timed out") from exc
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise BenchError(f"worker {mode} exited with {proc.returncode}")
        lines = proc.stdout.strip().splitlines()
        if not lines:
            raise BenchError(f"worker {mode} printed nothing")
        out = json.loads(lines[-1])
        out["elapsed_s"] = elapsed
        return out


def check_consistency(passes: List[Dict[str, Any]],
                      reference: Dict[str, Any]) -> List[str]:
    """Simulated results are deterministic per seed: every pass must
    reproduce the reference pass's repaired programs and quality."""
    problems = []
    for i, p in enumerate(passes):
        for sid, fp in p["fingerprints"].items():
            if fp != reference["fingerprints"].get(sid):
                problems.append(
                    f"pass {i}: {sid} output differs from the reference pass"
                )
        if p["quality"] != reference["quality"]:
            problems.append(f"pass {i}: quality metrics differ from reference")
    return problems


def check_golden(reference: Dict[str, Any]) -> List[str]:
    """At the seed the golden sweep was recorded with, every repaired
    subject must match ``benchmarks/golden_synth_off.json``."""
    golden = json.loads(GOLDEN_PATH.read_text())["subjects"]
    evals = {row["subject"]: row.get("evals") for row in reference["rows"]}
    problems = []
    for sid, fp in reference["fingerprints"].items():
        want = golden[sid]
        got = (fp["sha"], round(fp["sim_s"], 2), evals[sid])
        if got != (want["final_render_sha"], want["clock_seconds"],
                   want["attempts"]):
            problems.append(f"{sid}: differs from the golden seed-"
                            f"{GOLDEN_SEED} repair")
    return problems


def print_rows(workload: str, rows: List[Dict[str, Any]]) -> None:
    if workload == "testgen":
        print(f"{'subject':<8}{'wall_s':>9}{'execs':>8}{'sim_min':>9}{'coverage':>10}")
        for r in rows:
            print(f"{r['subject']:<8}{r['wall_s']:>9.3f}{r.get('execs', 0):>8}"
                  f"{r.get('sim_min', 0.0):>9.2f}{r.get('coverage', 0.0):>10.3f}")
        return
    print(f"{'subject':<8}{'wall_s':>9}{'evals':>7}{'sim_min':>9}{'speedup':>9}")
    for r in rows:
        print(f"{r['subject']:<8}{r['wall_s']:>9.3f}{r.get('evals', 0):>7}"
              f"{r.get('sim_min', 0.0):>9.1f}{r.get('speedup', 0.0):>9.3f}")


def run(args: argparse.Namespace) -> Dict[str, Any]:
    runner = Runner(args)
    warm = args.workload == "repair-warm"
    run_dir = TMP_DIR / f"run-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        store: List[str] = []
        setup_walls: List[float] = []
        if not args.trace:
            setup_walls = [runner.spawn("setup")["elapsed_s"]
                           for _ in range(SETUP_REPEATS)]
        fill = None
        if warm:
            store = ["--store", str(run_dir / "eval-store.sqlite")]
            fill = runner.spawn("fill", *store)
        passes: List[Dict[str, Any]] = []
        # The oracle checks the first pass; every later pass must
        # reproduce its outputs exactly (see check_consistency).
        passes.append(runner.spawn("pass", *store))
        if args.trace:
            SPANS_DIR.mkdir(exist_ok=True)
            spans = SPANS_DIR / f"spans-{args.workload}-{args.seed}.jsonl"
            passes.append(runner.spawn(
                "pass", *store, "--check", "0", "--trace", "1",
                "--spans-out", str(spans),
            ))
            # Untraced passes on both sides of the traced one, so a
            # drift in host speed does not read as tracing overhead.
            passes.append(runner.spawn("pass", *store, "--check", "0"))
        else:
            measured = passes[0]["wall_s"]
            while (measured < args.seconds
                   and runner.remaining() > 2 * passes[-1]["elapsed_s"]):
                passes.append(runner.spawn("pass", *store, "--check", "0"))
                measured += passes[-1]["wall_s"]
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            TMP_DIR.rmdir()
        except OSError:  # another run's directory is still in it
            pass

    provenance = dict(passes[0]["provenance"], git=git_describe())
    print("# provenance: " + json.dumps(provenance, sort_keys=True))
    for i, p in enumerate(passes):
        print(f"# pass {i}: wall {p['wall_s']:.3f} s, "
              f"{p['attempted']} subjects, {p['failed']} failed, "
              f"oracle {p['oracle_s']:.3f} s (untimed)")
    # Each subject's time is its median over the untraced passes.
    timed = passes[::2] if args.trace else passes
    subject_walls = [
        statistics.median(p["rows"][i]["wall_s"] for p in timed)
        for i in range(len(timed[0]["rows"]))
    ]
    print_rows(args.workload, [
        dict(row, wall_s=wall) for row, wall in zip(timed[0]["rows"], subject_walls)
    ])

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    problems = [msg for p in passes for msg in p["problems"]]
    reference = fill if fill is not None else passes[0]
    if fill is not None and fill["problems"]:
        problems += [f"store fill: {msg}" for msg in fill["problems"]]
        failed = attempted
    consistency = check_consistency(passes, reference)
    if (args.workload != "testgen" and args.seed == GOLDEN_SEED
            and GOLDEN_PATH.is_file()):
        consistency += check_golden(reference)
    if consistency:
        problems += consistency
        failed = attempted

    if args.trace:
        traced = passes[1]
        untraced = statistics.mean(p["wall_s"] for p in passes[::2])
        metrics = dict(traced["layers"])
        metrics["trace_overhead_ratio"] = traced["wall_s"] / untraced
        ledger = sum(v for k, v in metrics.items() if k.startswith("self."))
        ledger += metrics["unattributed_s"]
        if abs(ledger - traced["wall_s"]) > 1e-6 * traced["wall_s"]:
            problems.append(
                f"self times plus unattributed ({ledger:.6f} s) do not add "
                f"up to the traced wall ({traced['wall_s']:.6f} s)"
            )
            failed = attempted
        units = {k: _layer_unit(k) for k in metrics}
    else:
        metrics = {
            "setup_s": statistics.median(setup_walls)
            + (fill["wall_s"] if fill is not None else 0.0),
            "wall_s": sum(subject_walls),
            "subject_geomean_s": math.exp(
                sum(math.log(w) for w in subject_walls) / len(subject_walls)
            ),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
            **passes[0]["quality"],
        }
        units = END_TO_END_UNITS
    for msg in problems:
        print("# FAIL " + msg.replace("\n", "\n#   "))
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }


def _layer_unit(name: str) -> str:
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
