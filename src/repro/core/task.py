"""Task model for the SMPSs runtime.

This module defines the static side of the programming model: a
:class:`TaskDefinition` is created for every function annotated with a
``#pragma css task`` construct (section II of the paper), and a
:class:`TaskInstance` is created for every *invocation* of such a
function while a runtime is active.

Terminology follows the paper:

* *directionality clauses* — ``input`` / ``output`` / ``inout`` declare
  whether each parameter is read, written, or both (section II);
* *dimension specifiers* — ``a[M][M]`` give the shape of an array
  parameter so the runtime knows its size;
* *array region specifiers* — ``data{i..j}`` restrict the access to a
  sub-region (section V.A, the language extension);
* *opaque parameters* — ``void *`` pointers in the paper; they "pass
  through the runtime unaltered and are not considered in the task
  dependency analysis".
"""

from __future__ import annotations

import enum
import inspect
import itertools
import threading
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple, Optional, Sequence

__all__ = [
    "Direction",
    "TaskState",
    "ParamAccess",
    "TaskDefinition",
    "TaskInstance",
    "InvocationError",
]


class Direction(enum.Enum):
    """Directionality of a task parameter (section II)."""

    INPUT = "input"
    OUTPUT = "output"
    INOUT = "inout"
    #: ``void *`` analogue: skipped by the dependency analysis.
    OPAQUE = "opaque"

    @property
    def reads(self) -> bool:
        return self in (Direction.INPUT, Direction.INOUT)

    @property
    def writes(self) -> bool:
        return self in (Direction.OUTPUT, Direction.INOUT)


class TaskState(enum.Enum):
    """Lifecycle of a task instance inside the runtime."""

    #: Created, dependency analysis done, still has unsatisfied inputs.
    BLOCKED = "blocked"
    #: All input dependencies satisfied; sitting in some ready list.
    READY = "ready"
    #: Currently executing on a worker (or the main thread).
    RUNNING = "running"
    #: Finished; its successors may have become ready.
    FINISHED = "finished"


class ParamAccess(NamedTuple):
    """One concrete (datum, region, direction) access of a task instance.

    The dependency engine consumes a flat list of these.  A parameter
    that appears in several directionality clauses with different
    regions (allowed by section V.A: "a single parameter may appear
    several times in the directionality clauses") contributes one
    :class:`ParamAccess` per appearance.

    A ``NamedTuple`` rather than a (frozen) dataclass: construction is a
    single C-level tuple build, and one to two of these are created per
    task submission — the paper's per-``task_add`` overhead.
    """

    name: str
    direction: Direction
    #: The user-visible object passed at the call site.
    value: Any
    #: Resolved region (a ``Region``; ``None`` means the whole object).
    region: Any = None
    #: Index of the parameter in the function signature.
    position: int = -1


class InvocationError(TypeError):
    """Raised when a call site does not match the task declaration."""


_task_counter = itertools.count(1)
_counter_lock = threading.Lock()


def _next_task_id() -> int:
    # itertools.count.__next__ is atomic at the C level, so the id
    # allocation itself needs no lock — this is on the per-submission
    # hot path.  (Submission is main-thread-only anyway; the atomicity
    # covers stray instantiations from tests/benchmarks.)
    return next(_task_counter)


def reset_task_ids() -> None:
    """Restart instance numbering (used by tests and the recorder).

    Figure 5 of the paper numbers tasks by invocation order starting at
    1; runtimes call this so that freshly built graphs match.
    """

    global _task_counter
    with _counter_lock:
        _task_counter = itertools.count(1)


@dataclass
class TaskDefinition:
    """Static description of a task: the parsed pragma + the function.

    One per annotated function, shared by all its invocations.
    """

    func: Callable[..., Any]
    #: ``pragma.ParamSpec`` objects in declaration order.
    params: Sequence[Any]
    high_priority: bool = False
    name: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            self.name = getattr(self.func, "__name__", "<task>")
        self._signature = inspect.signature(self.func)
        self._declared = {p.name for p in self.params}
        #: ordered parameter names, for the zero-overhead bind fast path
        self.param_names: tuple[str, ...] = tuple(self._signature.parameters)
        #: parameter name -> position, cached for access building
        self.positions: dict[str, int] = {
            name: idx for idx, name in enumerate(self.param_names)
        }
        #: True when any declared parameter carries dimension or region
        #: specifiers (expression evaluation needed at invocation).
        self.needs_expressions: bool = any(
            getattr(p, "dims", ()) or getattr(p, "regions", ()) for p in self.params
        )
        #: parameter name -> set of declared directions.  A parameter
        #: may appear in several clauses with different regions, so this
        #: is a set union (used by the repro.check sanitizer).
        self.directions_by_name: dict[str, set[Direction]] = {}
        for p in self.params:
            self.directions_by_name.setdefault(p.name, set()).add(p.direction)
        #: positions of ``opaque`` parameters, which the tracker skips
        #: (the transfer codec's opaque rule checks them per call).
        self.opaque_positions: frozenset = frozenset(
            self.positions[p.name] for p in self.params
            if p.direction is Direction.OPAQUE and p.name in self.positions
        )
        #: Precompiled invocation plan, attached lazily by
        #: :func:`repro.core.invocation.plan_for` (kept off this module
        #: to avoid a task -> invocation import cycle).
        self._invocation_plan = None

    @property
    def signature(self) -> inspect.Signature:
        return self._signature

    def bind_dict(self, args: tuple, kwargs: dict) -> dict:
        """Bind a call site to parameter names, applying defaults.

        Fast path: plain positional calls with one value per parameter
        skip :mod:`inspect` entirely (this is on the per-task-submission
        critical path of the runtime, the paper's task_add overhead).
        """

        if not kwargs and len(args) == len(self.param_names):
            return dict(zip(self.param_names, args))
        try:
            bound = self._signature.bind(*args, **kwargs)
        except TypeError as exc:  # surface the task name in the error
            raise InvocationError(f"task {self.name!r}: {exc}") from exc
        bound.apply_defaults()
        return dict(bound.arguments)

    def declared_direction(self, param_name: str) -> Optional[Direction]:
        """Direction of *param_name*, or ``None`` if undeclared.

        Undeclared parameters are treated as by-value scalars: captured
        at invocation time and ignored by the dependency analysis, like
        the paper's scalar arguments.
        """

        for spec in self.params:
            if spec.name == param_name:
                return spec.direction
        return None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        clauses = ", ".join(f"{p.direction.value}({p.name})" for p in self.params)
        return f"TaskDefinition({self.name}: {clauses})"


class TaskInstance:
    """One dynamic invocation of a task (a node of the task graph).

    A plain ``__slots__`` class with a hand-written ``__init__``: one of
    these is allocated per submission, so the generated-dataclass
    machinery (per-field defaults resolution, ``__set_name__`` walks)
    is measurable overhead on the fast path.
    """

    __slots__ = (
        "definition",
        "_accesses",
        "_arguments",
        "call_values",
        "task_id",
        "high_priority",
        "state",
        "num_pending_deps",
        "predecessors",
        "successors",
        "executed_by",
        "reads",
        "writes",
        "sanitizer_state",
    )

    def __init__(
        self,
        definition: TaskDefinition,
        accesses: Optional[list],
        arguments: Optional[dict],
        task_id: Optional[int] = None,
        high_priority: bool = False,
        call_values: Optional[tuple] = None,
    ) -> None:
        self.definition = definition
        self._accesses = accesses
        self._arguments = arguments
        #: Bound argument values in positional (signature) order, set by
        #: the plan's simple fast path.  When present, ``accesses`` and
        #: ``arguments`` are derived lazily from it — the dependency
        #: engine reads the plan's access specs + this tuple directly,
        #: so the common submission allocates neither.
        self.call_values = call_values
        self.task_id = next(_task_counter) if task_id is None else task_id
        self.high_priority = high_priority
        self.state = TaskState.BLOCKED
        # --- graph bookkeeping (maintained by core.graph.TaskGraph) ---
        #: number of incomplete true-dependency predecessors
        self.num_pending_deps = 0
        self.predecessors: set = set()
        self.successors: set = set()
        # --- runtime bookkeeping --------------------------------------
        #: worker index that executed the task (-1: not yet / main 0)
        self.executed_by = -1
        #: versions this instance reads / writes (dependency engine)
        self.reads: list = []
        self.writes: list = []
        #: snapshots taken by the access sanitizer (None: sanitize off)
        self.sanitizer_state: Any = None

    @property
    def accesses(self) -> list:
        """One :class:`ParamAccess` per clause appearance (lazy)."""

        acc = self._accesses
        if acc is None:
            values = self.call_values
            acc = self._accesses = [
                ParamAccess(name, direction, values[pos], None, pos)
                for name, direction, pos
                in self.definition._invocation_plan.access_specs
            ]
        return acc

    @property
    def arguments(self) -> dict:
        """Values for every parameter as bound at the call site (lazy)."""

        args = self._arguments
        if args is None:
            args = self._arguments = dict(
                zip(self.definition.param_names, self.call_values)
            )
        return args

    @property
    def name(self) -> str:
        return self.definition.name

    @property
    def is_ready(self) -> bool:
        return self.num_pending_deps == 0 and self.state is TaskState.BLOCKED

    def __hash__(self) -> int:
        return self.task_id

    def __eq__(self, other: object) -> bool:
        return self is other

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Task #{self.task_id} {self.name} {self.state.value}>"
