"""Result checks of ``perfbench/run.py``."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

from perfbench import run

ROOT = Path(__file__).resolve().parents[2]


def _golden_reference():
    golden = json.loads(run.GOLDEN_PATH.read_text())["subjects"]["P2"]
    return {
        "rows": [{"subject": "P2", "evals": golden["attempts"]}],
        "fingerprints": {"P2": {"sha": golden["final_render_sha"],
                                "sim_s": golden["clock_seconds"]}},
        "quality": {"sim_min": 1.0},
    }


def test_golden_check_flags_a_different_program():
    reference = _golden_reference()
    assert run.check_golden(reference) == []
    reference["fingerprints"]["P2"]["sha"] = "0" * 64
    assert run.check_golden(reference) == [
        "P2: differs from the golden seed-2022 repair"
    ]


def test_consistency_check_flags_a_pass_that_differs():
    reference = _golden_reference()
    other = json.loads(json.dumps(reference))
    other["fingerprints"]["P2"]["sim_s"] += 1.0
    assert run.check_consistency([reference], reference) == []
    assert len(run.check_consistency([reference, other], reference)) == 1


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "testgen",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
