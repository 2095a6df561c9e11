"""The correctness oracle accepts a real repair and flags a corrupted one."""

import dataclasses

import pytest

from perfbench import oracle
from repro.baselines import default_config, run_variant
from repro.cfront.parser import parse
from repro.cfront.printer import render
from repro.subjects import get_subject


@pytest.fixture(scope="module")
def repaired():
    subject = get_subject("P1")
    config = default_config()
    return subject, config, run_variant(subject, config=config)


def test_oracle_accepts_the_pipeline_output(repaired):
    subject, config, result = repaired
    assert oracle.check_repair(result, subject, config) == []


def test_oracle_flags_a_corrupted_final_unit(repaired):
    subject, config, result = repaired
    source = render(result.final_unit)
    corrupted = source.replace("return a - b;", "return b - a;")
    assert corrupted != source
    bad = dataclasses.replace(
        result, final_unit=parse(corrupted, top_name=subject.kernel)
    )
    problems = oracle.check_repair(bad, subject, config)
    assert any("reference engine matches" in p for p in problems)


def test_oracle_flags_a_wrong_coverage_claim(repaired):
    subject, config, result = repaired
    report = dataclasses.replace(result.fuzz_report, coverage_ratio=0.5)
    assert oracle.check_coverage(report, subject, config)
