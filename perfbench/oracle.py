"""Correctness oracle, independent of the default interpreter engine.

Every check re-parses the subject from its source and replays on the
tree-walking reference interpreter (``backend="tree"``), so a bug in the
default fast engine cannot confirm itself.  Each function returns a list
of problems; an empty list means the output checks out.
"""

from __future__ import annotations

import math
from typing import Any, List

from repro.cfront.parser import parse
from repro.core.heterogen import HeteroGenConfig
from repro.core.report import TranspileResult
from repro.difftest import differential_test
from repro.fuzz import FuzzReport, coverage_of_suite
from repro.subjects import Subject

ORACLE_BACKEND = "tree"


def final_difftest_inputs(
    result: TranspileResult, subject: Subject, config: HeteroGenConfig
) -> List[List[Any]]:
    """The inputs the pipeline's final differential test ran: the fuzz
    suite with the subject's existing tests in front, capped as
    :meth:`repro.core.heterogen.HeteroGen.transpile` caps it."""
    if result.fuzz_report is None:
        raise ValueError(f"{subject.id}: no fuzz report to rebuild the suite")
    suite = result.fuzz_report.suite(config.suite_cap)
    existing = subject.existing_test_list()
    if existing:
        suite = existing + [t for t in suite if t not in existing]
        suite = suite[: config.suite_cap]
    return suite[: config.final_diff_cap]


def check_coverage(
    report: FuzzReport, subject: Subject, config: HeteroGenConfig
) -> List[str]:
    """Replaying the generated suite must reproduce the reported branch
    coverage."""
    unit = parse(subject.source, top_name=subject.kernel)
    replayed = coverage_of_suite(
        unit, subject.kernel, report.suite(), limits=config.limits,
        backend=ORACLE_BACKEND,
    )
    if replayed != report.coverage_ratio:
        return [
            f"{subject.id}: suite replays to {replayed:.6f} branch coverage, "
            f"fuzzer reported {report.coverage_ratio:.6f}"
        ]
    return []


def check_repair(
    result: TranspileResult, subject: Subject, config: HeteroGenConfig
) -> List[str]:
    """The repaired program must be a success and the reference engine
    must agree with the pipeline's final verdict and speedup."""
    if not result.success or result.final_unit is None or result.final_diff is None:
        return [f"{subject.id}: pipeline reports no successful repair"]
    tests = final_difftest_inputs(result, subject, config)
    reported = result.final_diff
    if len(tests) != reported.total:
        return [
            f"{subject.id}: rebuilt {len(tests)} final-difftest inputs, "
            f"pipeline ran {reported.total}"
        ]
    original = parse(subject.source, top_name=subject.kernel)
    replay = differential_test(
        original, result.final_unit, subject.kernel, result.final_config,
        tests, limits=config.limits, backend=ORACLE_BACKEND,
    )
    problems: List[str] = []
    if (replay.matching, replay.mismatching_tests) != (
        reported.matching, reported.mismatching_tests
    ):
        problems.append(
            f"{subject.id}: reference engine matches {replay.matching}/"
            f"{replay.total} tests, pipeline reported "
            f"{reported.matching}/{reported.total}"
        )
    if not math.isclose(replay.speedup, reported.speedup, rel_tol=1e-9):
        problems.append(
            f"{subject.id}: reference speedup {replay.speedup:.6f}, "
            f"pipeline reported {reported.speedup:.6f}"
        )
    if result.fuzz_report is not None:
        problems += check_coverage(result.fuzz_report, subject, config)
    return problems
