"""C interpreter substrate: execution, coverage, value profiling.

Replaces native compilation + AFL instrumentation in the original paper's
toolchain (see DESIGN.md).  Two execution backends share one semantics:
the tree-walking :class:`Interpreter` and the closure-compiled
:class:`CompiledEngine` (see ``repro.interp.compile``), with
:class:`CrossCheckEngine` asserting they stay bit-identical.  The
:class:`BatchEngine` (see ``repro.interp.batch``), the default engine,
lowers the closure form once more to flat generated Python and adds
``run_many`` — whole input sets through one pooled pass — with
:class:`BatchCrossCheckEngine` asserting batch-vs-compiled identity.
"""

from .coverage import CoverageRecorder, ValueProfile, branch_points
from .interpreter import ExecLimits, ExecResult, Interpreter, run_program
from .compile import (
    BACKENDS,
    BackendMismatch,
    CompiledEngine,
    CrossCheckEngine,
    compile_program,
    default_backend,
    make_engine,
    set_default_backend,
)
from .batch import (
    BatchCrossCheckEngine,
    BatchEngine,
    BatchRecord,
    batch_program,
    engine_run_many,
)
from .memory import (
    MemBlock,
    Pointer,
    StreamValue,
    StructValue,
    c_to_python,
    python_to_c,
)

__all__ = [
    "BACKENDS",
    "BackendMismatch",
    "BatchCrossCheckEngine",
    "BatchEngine",
    "BatchRecord",
    "CompiledEngine",
    "CoverageRecorder",
    "CrossCheckEngine",
    "ExecLimits",
    "ExecResult",
    "Interpreter",
    "MemBlock",
    "Pointer",
    "StreamValue",
    "StructValue",
    "ValueProfile",
    "batch_program",
    "branch_points",
    "c_to_python",
    "engine_run_many",
    "compile_program",
    "default_backend",
    "make_engine",
    "python_to_c",
    "run_program",
    "set_default_backend",
]
