"""The redesigned public surface: snapshot, config knobs, wait_on, shims.

PR 4 unified the API around the fast-path submission engine:
``wait_on`` became first-class, all three runtimes construct through
one validated :class:`~repro.core.config.RuntimeConfig` path, moved
names grew :class:`DeprecationWarning` shims, and the ``repro``
top-level namespace froze.  These tests pin each of those contracts.
"""

import inspect

import numpy as np
import pytest

import repro
import repro.core
from repro import (
    RecordingRuntime,
    RuntimeConfig,
    SmpssRuntime,
    barrier,
    css_task,
    wait_on,
)
from repro.sim import SimulatedRuntime


# ---------------------------------------------------------------------------
# API snapshot: additions are deliberate, removals are breaking
# ---------------------------------------------------------------------------

TOP_LEVEL_ALL = [
    "CentralQueueScheduler",
    "DependencyError",
    "Direction",
    "EdgeKind",
    "InvocationError",
    "PragmaError",
    "RecordingRuntime",
    "Region",
    "RegionError",
    "Representant",
    "RepresentantTable",
    "RuntimeConfig",
    "SharedArena",
    "SmpssRuntime",
    "SmpssScheduler",
    "TaskExecutionError",
    "TaskGraph",
    "Tracer",
    "__version__",
    "arena_array",
    "barrier",
    "css_task",
    "current_runtime",
    "parse_pragma",
    "record_program",
    "wait_on",
]

CORE_ALL = [
    "AdapterRegistry",
    "CentralQueueScheduler",
    "DataAdapter",
    "DependencyError",
    "DependencyTracker",
    "Direction",
    "EdgeKind",
    "EventKind",
    "HotStealScheduler",
    "InvocationError",
    "NullTracer",
    "ParamAccess",
    "ParsedPragma",
    "PragmaError",
    "RecordedProgram",
    "RecordingRuntime",
    "Region",
    "RegionError",
    "Representant",
    "RepresentantTable",
    "RuntimeConfig",
    "SmpssRuntime",
    "SmpssScheduler",
    "TaskDefinition",
    "TaskExecutionError",
    "TaskGraph",
    "TaskInstance",
    "TaskState",
    "ThreadLocalTracer",
    "TraceEvent",
    "Tracer",
    "TrackerConfig",
    "Version",
    "analysis",
    "barrier",
    "css_task",
    "current_runtime",
    "default_registry",
    "parse_expression",
    "parse_pragma",
    "record_program",
    "wait_on",
]


class TestSurfaceSnapshot:
    def test_top_level_all_is_pinned(self):
        assert sorted(repro.__all__) == TOP_LEVEL_ALL

    def test_core_all_is_pinned(self):
        assert sorted(repro.core.__all__) == CORE_ALL

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None
        for name in repro.core.__all__:
            assert getattr(repro.core, name) is not None

    def test_key_signatures(self):
        assert list(inspect.signature(wait_on).parameters) == ["obj"]
        assert list(inspect.signature(barrier).parameters) == []
        assert list(inspect.signature(css_task).parameters) == [
            "pragma",
            "constants",
        ]
        for runtime_cls in (SmpssRuntime, RecordingRuntime, SimulatedRuntime):
            params = inspect.signature(runtime_cls).parameters
            assert "config" in params, runtime_cls
            assert any(
                p.kind is inspect.Parameter.VAR_KEYWORD for p in params.values()
            ), runtime_cls

    def test_top_level_and_core_agree(self):
        for name in ("SmpssRuntime", "RuntimeConfig", "wait_on", "barrier"):
            assert getattr(repro, name) is getattr(repro.core, name)


# ---------------------------------------------------------------------------
# Frozen top-level namespace
# ---------------------------------------------------------------------------

class TestFrozenNamespace:
    def test_unknown_attribute_fails_fast(self):
        with pytest.raises(AttributeError, match="repro.core"):
            repro.bogus_name

    def test_typo_gets_did_you_mean(self):
        with pytest.raises(AttributeError, match="did you mean 'wait_on'"):
            repro.wait_onn


# ---------------------------------------------------------------------------
# One validated construction path for every runtime
# ---------------------------------------------------------------------------

class TestConfigConstruction:
    @pytest.mark.parametrize(
        "runtime_cls", [SmpssRuntime, RecordingRuntime, SimulatedRuntime]
    )
    def test_unknown_knob_rejected_with_hint(self, runtime_cls):
        with pytest.raises(TypeError, match="keep_graph"):
            runtime_cls(keep_grap=True)

    @pytest.mark.parametrize(
        "runtime_cls", [SmpssRuntime, RecordingRuntime, SimulatedRuntime]
    )
    def test_config_plus_knob_conflict_rejected(self, runtime_cls):
        cfg = RuntimeConfig(keep_graph=True)
        with pytest.raises(TypeError, match="config"):
            runtime_cls(config=cfg, keep_graph=False)

    def test_config_object_is_honoured(self):
        cfg = RuntimeConfig(num_workers=1, keep_graph=True)
        with SmpssRuntime(config=cfg) as rt:
            assert rt.config.keep_graph is True
            assert rt.config.num_workers == 1

    def test_config_is_copied_not_shared(self):
        cfg = RuntimeConfig(num_workers=1)
        with SmpssRuntime(config=cfg) as rt:
            assert rt.config is not cfg


# ---------------------------------------------------------------------------
# Deprecation shims for moved names
# ---------------------------------------------------------------------------

class TestDeprecationShims:
    def test_shim_table_is_audited(self):
        """No moved name keeps a shim: ``RuntimeConfig`` lives only in
        ``repro.core.config`` (re-exported from ``repro`` and
        ``repro.core``), and the runtime module has no ``__getattr__``
        hook handing out old homes."""

        import repro.core.runtime as runtime_mod

        assert not hasattr(runtime_mod, "_DEPRECATED_HOMES")
        assert "__getattr__" not in vars(runtime_mod)
        with pytest.raises(ImportError):
            from repro.core.runtime import RuntimeConfig  # noqa: F401

    def test_unknown_name_in_runtime_module_still_fails(self):
        import repro.core.runtime as runtime_mod

        with pytest.raises(AttributeError):
            runtime_mod.never_existed


# ---------------------------------------------------------------------------
# wait_on semantics
# ---------------------------------------------------------------------------

@css_task("inout(a)")
def _bump(a):
    a += 1.0


@css_task("input(src) output(dst)")
def _copy_into(src, dst):
    dst[...] = src


class TestWaitOn:
    def test_sequential_noop_returns_object(self):
        a = np.zeros(4)
        assert wait_on(a) is a

    def test_waits_for_last_submitted_writer(self):
        a = np.zeros(8)
        with SmpssRuntime(num_workers=2):
            for _ in range(5):
                _bump(a)
            latest = wait_on(a)
            # All five inout writers submitted before the wait must be
            # visible in the storage wait_on hands back.
            assert (np.asarray(latest) == 5.0).all()

    def test_partial_barrier_does_not_wait_for_other_data(self):
        a = np.zeros(4)
        b = np.zeros(4)
        with SmpssRuntime(num_workers=1) as rt:
            _bump(a)
            _bump(b)
            wait_on(a)
            # wait_on(a) alone must not imply a full barrier: the graph
            # may still hold b's writer.  (It may have run already on a
            # fast worker, so only assert the barrier-side contract.)
            rt.barrier()
            assert (b == 1.0).all()

    def test_untracked_object_passes_through(self):
        with SmpssRuntime(num_workers=1):
            obj = np.zeros(2)
            assert wait_on(obj) is obj

    def test_renamed_storage_is_returned(self):
        src = np.arange(4, dtype=np.float64)
        dst = np.zeros(4)
        with SmpssRuntime(num_workers=2):
            _copy_into(src, dst)
            _copy_into(src, dst)  # WAW: second write renames dst
            latest = wait_on(dst)
            assert (np.asarray(latest) == src).all()

    def test_inside_task_body_is_noop(self):
        seen = []

        @css_task("inout(a)")
        def nested_wait(a):
            seen.append(wait_on(a) is a)

        a = np.zeros(2)
        with SmpssRuntime(num_workers=1) as rt:
            nested_wait(a)
            rt.barrier()
        assert seen == [True]


# ---------------------------------------------------------------------------
# Defensive __exit__: no stale _stack_owner after mid-with exceptions
# ---------------------------------------------------------------------------

class TestDefensiveExit:
    @pytest.mark.parametrize(
        "make_runtime",
        [
            lambda: SmpssRuntime(num_workers=1),
            lambda: RecordingRuntime(execute="eager"),
            lambda: SimulatedRuntime(),
        ],
        ids=["smpss", "recording", "simulated"],
    )
    def test_exception_mid_with_leaves_no_stale_owner(self, make_runtime):
        from repro.core import api as _api

        with pytest.raises(RuntimeError, match="boom"):
            with make_runtime():
                raise RuntimeError("boom")
        assert _api.current_runtime() is None
        assert _api._thread_stack() == []
        assert _api._exclusive_depth == 0
        assert _api._exclusive_owner is None
        # The regression this guards: a stale owner wedged every later
        # runtime behind the single-main-thread guard.  A fresh runtime
        # must enter cleanly.
        a = np.zeros(2)
        with SmpssRuntime(num_workers=1) as rt:
            _bump(a)
            rt.barrier()
        assert (a == 1.0).all()
