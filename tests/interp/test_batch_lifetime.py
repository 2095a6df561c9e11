"""Batch-engine lifetime: a unit is lowered only once an engine runs it
more than once, generated code is compiled once per distinct source, and
the repair search drops a candidate's program once it has been evaluated.

* an engine runs its first ``_LOWER_AFTER_INPUTS`` inputs on the unit's
  closure compilation, then lowers, mid-batch if need be, with every
  result identical to the compiled engine's;
* two units whose generated function source is identical share one code
  object, yet each runs against its own constant pool;
* the intern table is bounded, evicts least recently used entries, and
  stays consistent when threads lower programs concurrently;
* after :meth:`RepairSearch.run`, no evaluated candidate other than the
  final one keeps its :class:`BatchProgram` alive;
* ``batch`` is the default engine.
"""

from __future__ import annotations

import gc
import os
import subprocess
import sys
import threading
import weakref
from pathlib import Path

import pytest

from repro.cfront import nodes as N
from repro.cfront.parser import parse
from repro.core import RepairSearch, SearchConfig
from repro.core.edits import Candidate
from repro.hls import SimulatedClock, SolutionConfig
from repro.interp import batch as batch_mod
from repro.interp import make_engine

SCALE_SRC = """
float scale(float x, float out[2]) {
    out[0] = x * 1.5;
    if (x > 0.25) {
        out[1] = x - 0.5;
    }
    return out[0] + out[1];
}
"""

INPUTS = [[2.0, [0.0, 0.0]], [-1.0, [3.0, 4.0]], [0.125, [1.0, 1.0]]]


@pytest.fixture
def empty_code_cache(monkeypatch):
    """Run against an empty intern table, restoring the shared one after."""
    monkeypatch.setattr(batch_mod, "_CODE_CACHE", type(batch_mod._CODE_CACHE)())
    return batch_mod._CODE_CACHE


def _with_constants(unit, mapping):
    """A uid-preserving clone of *unit* with float literals replaced."""
    twin = N.clone(unit)
    for node in twin.walk():
        if isinstance(node, N.FloatLit) and node.value in mapping:
            node.value = mapping[node.value]
    return twin


def _results(unit):
    engine = make_engine(unit, backend="batch")
    return [
        (r.result.value, r.result.out_args, r.result.steps)
        for r in engine.run_many("scale", INPUTS)
    ]


GLOBALS_SRC = """
int BASE = 40;
int TABLE[4] = {1, 2, 4, 8};

int mix(int n) {
    int total = BASE;
    for (int i = 0; i < n; i++) {
        total += TABLE[i % 4];
        BASE = BASE + 1;
    }
    return total;
}
"""


def _compiled_records(unit, func, inputs):
    engine = make_engine(unit, backend="compiled")
    return [
        (r.value, r.out_args, r.steps, frozenset(r.coverage.hits))
        for r in (engine.run(func, args) for args in inputs)
    ]


def _batch_records(engine, func, inputs):
    return [
        (r.result.value, r.result.out_args, r.result.steps,
         frozenset(r.result.coverage.hits))
        for r in engine.run_many(func, inputs)
    ]


def test_one_input_engines_stay_on_closures(monkeypatch):
    monkeypatch.setattr(batch_mod, "_LOWER_AFTER_INPUTS", 1)
    unit = parse(GLOBALS_SRC)
    for n in range(4):
        engine = make_engine(unit, backend="batch")
        assert _batch_records(engine, "mix", [[n]]) == _compiled_records(
            N.clone(unit), "mix", [[n]]
        )
    assert make_engine(unit, backend="batch").run("mix", [3]).value == (
        40 + 1 + 2 + 4
    )
    assert "_batch_program" not in unit.__dict__


def test_lowering_mid_batch_is_unobservable(monkeypatch):
    monkeypatch.setattr(batch_mod, "_LOWER_AFTER_INPUTS", 4)
    unit = parse(GLOBALS_SRC)
    inputs = [[n] for n in range(12)]
    engine = make_engine(unit, backend="batch")
    # The first call stays within the closure inputs; the second lowers
    # the unit part way through.
    records = _batch_records(engine, "mix", inputs[:3])
    assert "_batch_program" not in unit.__dict__
    records += _batch_records(engine, "mix", inputs[3:])
    assert records == _compiled_records(N.clone(unit), "mix", inputs)
    program = unit.__dict__.get("_batch_program")
    assert isinstance(program, batch_mod.BatchProgram)
    assert program.generated == 1
    # A new engine runs a lowered unit on its generated code at once.
    fresh = make_engine(unit, backend="batch")
    assert fresh._current_program() is program


def test_identical_source_shares_one_code_object(empty_code_cache):
    base = parse(SCALE_SRC)
    twin = _with_constants(base, {1.5: 3.0, 0.5: 0.75})
    first = batch_mod.batch_program(base).functions["scale"].body
    second = batch_mod.batch_program(twin).functions["scale"].body
    assert first.__code__ is second.__code__
    assert first.__globals__ is not second.__globals__
    assert len(empty_code_cache) == 1

    shared = {id(u): _results(u) for u in (base, twin)}
    assert shared[id(base)] != shared[id(twin)]
    # Against a fresh compile: empty the table and lower clean copies.
    empty_code_cache.clear()
    for unit in (base, twin):
        fresh = N.clone(unit)
        assert _results(fresh) == shared[id(unit)]
        reference = make_engine(fresh, backend="compiled")
        assert [
            (r.value, r.out_args, r.steps)
            for r in (reference.run("scale", args) for args in INPUTS)
        ] == shared[id(unit)]


def test_intern_table_evicts_at_capacity(empty_code_cache, monkeypatch):
    monkeypatch.setattr(batch_mod, "_CODE_CACHE_SIZE", 2)
    sources = [f"def _batch_body(rt, frame):\n    return {i}\n" for i in range(3)]
    codes = [batch_mod._interned_code(src, "<batch:t>") for src in sources]
    assert len(empty_code_cache) == 2
    # The newest entries are hits; the oldest was evicted and recompiles.
    assert batch_mod._interned_code(sources[2], "<batch:t>") is codes[2]
    assert batch_mod._interned_code(sources[0], "<batch:t>") is not codes[0]
    assert len(empty_code_cache) == 2
    # The filename is part of the key.
    assert batch_mod._interned_code(sources[2], "<batch:u>") is not codes[2]


def test_intern_table_under_concurrent_lowering(empty_code_cache, monkeypatch):
    monkeypatch.setattr(batch_mod, "_CODE_CACHE_SIZE", 5)
    sources = [f"def _batch_body(rt, frame):\n    return {i}\n" for i in range(20)]
    wrong = []

    def worker(offset):
        for step in range(300):
            i = (offset + step * 7) % len(sources)
            ns = {}
            exec(batch_mod._interned_code(sources[i], "<batch:t>"), ns)
            if ns["_batch_body"](None, None) != i:
                wrong.append(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=worker, args=(k,)) for k in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not wrong
    assert len(empty_code_cache) == 5


BROKEN_SRC = """
int kernel(int a[8], int n) {
    if (n > 8) { n = 8; }
    long double acc = 0.0;
    for (int i = 0; i < n; i++) {
        long double x = a[i];
        acc = acc + x;
    }
    return (int)acc;
}
"""

TESTS = [
    [[1, 2, 3, 4, 5, 6, 7, 8], 8],
    [[10, -10, 3, 0, 0, 0, 0, 0], 3],
    [[0] * 8, 0],
]


def test_search_releases_evaluated_programs(monkeypatch):
    unit = parse(BROKEN_SRC, top_name="kernel")
    search = RepairSearch(
        original=unit,
        kernel_name="kernel",
        tests=TESTS,
        config=SearchConfig(max_iterations=40, interp_backend="batch"),
        clock=SimulatedClock(),
    )
    programs = []
    evaluate = search.evaluate

    def tracking(candidate):
        evaluation = evaluate(candidate)
        program = candidate.unit.__dict__.get("_batch_program")
        if isinstance(program, batch_mod.BatchProgram):
            programs.append((candidate, weakref.ref(program)))
        return evaluation

    monkeypatch.setattr(search, "evaluate", tracking)
    result = search.run(
        Candidate(unit=unit, config=SolutionConfig(top_name="kernel"))
    )
    assert result.success
    gc.collect()
    final = result.best.candidate
    released = [ref for candidate, ref in programs if candidate is not final]
    assert released, "the search evaluated no non-final candidate"
    assert all(ref() is None for ref in released)
    # The final candidate keeps its program for the final difftest.
    assert isinstance(
        final.unit.__dict__.get("_batch_program"), batch_mod.BatchProgram
    )


def test_batch_is_the_default_backend():
    env = {k: v for k, v in os.environ.items() if k != "REPRO_INTERP_BACKEND"}
    src = Path(__file__).resolve().parents[2] / "src"
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(src), env.get("PYTHONPATH")))
    )
    out = subprocess.run(
        [sys.executable, "-c",
         "from repro.interp import default_backend; print(default_backend())"],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    assert out.strip() == "batch"
