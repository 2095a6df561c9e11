"""Outside-in tracer for the benchmark's traced run.

The pipeline binds most layer entry points by name at import time
(``from ..hls.compiler import compile_unit``), so a span around a layer
has to be installed where its *caller* looks the name up.  ``PATCHES``
lists every such lookup site; :class:`Tracer` swaps each one for a
timing wrapper, keeps the spans in memory with their parent, and puts
every original back on :meth:`Tracer.uninstall`.

Self time of a span is its duration minus the part of it covered by its
child spans, so the self times of all spans plus the time outside every
span (``unattributed_s``) add up to the traced wall time.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: Lookup sites to wrap: ``(module[:Class], attribute, span name)``.
PATCHES: Tuple[Tuple[str, str, str], ...] = (
    ("repro.core.heterogen", "parse", "cfront.parse"),
    ("repro.core.heterogen", "get_kernel_seed", "fuzz.seed_capture"),
    ("repro.core.heterogen", "fuzz_kernel", "fuzz"),
    ("repro.core.heterogen", "generate_initial_version", "core.bitwidth"),
    ("repro.core.heterogen", "differential_test", "difftest.final"),
    ("repro.core.search", "check_style", "hls.check_style"),
    ("repro.core.search", "compile_unit", "hls.compile_unit"),
    ("repro.core.search", "differential_test", "difftest.search"),
    ("repro.difftest.harness", "simulate", "hls.simulate"),
    ("repro.hls.simulator", "estimate", "hls.schedule"),
) + tuple(
    (module, attr, span)
    for module in (
        "repro.fuzz.fuzzer",
        "repro.difftest.harness",
        "repro.hls.simulator",
        "repro.core.bitwidth",
    )
    for attr, span in (
        ("engine_run_many", "interp.run_many"),
        ("make_engine", "interp.make_engine"),
    )
) + (
    ("repro.core.edits.base:EditApplication", "apply", "core.edits.apply"),
    ("repro.core.search:RepairSearch", "run", "core.search.run"),
    ("repro.core.search:RepairSearch", "evaluate", "core.search.evaluate"),
    ("repro.core.evalcache:EvalCache", "lookup", "core.evalcache.lookup"),
    ("repro.core.evalcache:EvalCache", "put", "core.evalcache.put"),
    ("repro.core.store:EvalStore", "get", "core.store.get"),
    ("repro.core.store:EvalStore", "put", "core.store.put"),
)

#: Every span name the patch table can produce, in ledger order.
SPAN_NAMES: Tuple[str, ...] = tuple(dict.fromkeys(span for _, _, span in PATCHES))


@dataclass
class Span:
    name: str
    start: float
    parent: Optional[int]
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


def _covered(intervals: List[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of *intervals*, clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: Sequence[Span]) -> List[float]:
    """Per-span self time: duration minus the time its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return [
        span.duration - _covered(children[i], span.start, span.end)
        for i, span in enumerate(spans)
    ]


def root_coverage(spans: Sequence[Span], lo: float, hi: float) -> float:
    """Time inside ``[lo, hi]`` covered by at least one root span."""
    return _covered(
        [(s.start, s.end) for s in spans if s.parent is None], lo, hi
    )


def _record_run_many(tracer: "Tracer", span: Span, records: Any) -> None:
    tracer.counts["interp.inputs"] += len(records)
    tracer.counts["interp.steps"] += sum(
        r.result.steps for r in records if r.result is not None
    )
    if span.parent is not None and tracer.spans[span.parent].name == "fuzz":
        tracer.counts["fuzz.inputs"] += len(records)


def _record_hit(key: str) -> Callable[..., None]:
    def observe(tracer: "Tracer", span: Span, result: Any) -> None:
        found = result[0] if isinstance(result, tuple) else result
        if found is not None:
            tracer.counts[key] += 1
    return observe


def _record_style(tracer: "Tracer", span: Span, violations: Any) -> None:
    if violations:
        tracer.counts["hls.style_rejects"] += 1


#: Per-span result observers: counts measured where the work happens.
OBSERVERS: Dict[str, Callable[..., None]] = {
    "interp.run_many": _record_run_many,
    "hls.check_style": _record_style,
    "core.evalcache.lookup": _record_hit("core.evalcache.hits"),
    "core.store.get": _record_hit("core.store.hits"),
}


def resolve(target: str) -> Any:
    """``"pkg.module"`` or ``"pkg.module:Class"`` to the object."""
    module_name, _, class_name = target.partition(":")
    obj = importlib.import_module(module_name)
    return getattr(obj, class_name) if class_name else obj


class Tracer:
    """Single-threaded span recorder over the :data:`PATCHES` sites."""

    def __init__(self, patches: Sequence[Tuple[str, str, str]] = PATCHES,
                 clock: Callable[[], float] = time.perf_counter) -> None:
        self.patches = tuple(patches)
        self.clock = clock
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self._stack: List[int] = []
        self.originals: List[Tuple[Any, str, Any]] = []

    # -- install / uninstall ------------------------------------------------

    def install(self) -> None:
        for target, attr, name in self.patches:
            owner = resolve(target)
            original = owner.__dict__[attr]
            self.originals.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.originals):
            setattr(owner, attr, original)

    def restored(self) -> bool:
        """True when every wrapped site holds its original again."""
        return all(owner.__dict__[attr] is original
                   for owner, attr, original in self.originals)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.uninstall()

    # -- spans ---------------------------------------------------------------

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        observe = OBSERVERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else None
            span = Span(name, tracer.clock(), parent)
            tracer.spans.append(span)
            tracer.counts[name + ".calls"] += 1
            tracer._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = tracer.clock()
                tracer._stack.pop()
            if observe is not None:
                observe(tracer, span, result)
            return result

        return traced

    # -- reporting -----------------------------------------------------------

    def ledger(self, start: float, end: float) -> Dict[str, Any]:
        """Per-span-name inclusive and self time, plus the wall time
        inside ``[start, end]`` that no span covers."""
        own = self_times(self.spans)
        inclusive: Dict[str, float] = defaultdict(float)
        self_s: Dict[str, float] = defaultdict(float)
        for span, span_self in zip(self.spans, own):
            self_s[span.name] += span_self
            inclusive[span.name] += span.duration
        return {
            "inclusive": dict(inclusive),
            "self": dict(self_s),
            "unattributed": (end - start) - root_coverage(self.spans, start, end),
        }

    def write(self, path: str) -> None:
        """Dump the span tree, one JSON object per span."""
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps({
                    "name": span.name,
                    "start": span.start,
                    "end": span.end,
                    "parent": span.parent,
                }) + "\n")
