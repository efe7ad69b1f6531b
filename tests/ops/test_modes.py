"""The per-thread mode record (repro.ops.modes) and its public wrappers.

Every per-thread switch of the op and tensor stack is a field of one
``threading.local`` record; each public context manager is a thin wrapper
over :func:`repro.ops.modes.modes`.  The contract checked here, per
wrapper: a fresh thread reads the default, a raise inside the block
restores the outer value, nested entries restore the outer value, and
another thread never sees the value.  Each property is parametrized only
over the wrappers no other test already checks it for (the rest live next
to their modules: ``TestInferenceMode``, ``TestRosterScope``,
``test_batch_invariant.py``, ``test_dtype_policy.py``,
``test_fused_kernels.py``, ``test_sanitize.py``, ``test_registry.py``).
"""

import ast
import threading
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.ops import current_profiler, fastpath_enabled, profile_ops
from repro.ops.batching import batch_cell, batch_cell_rows
from repro.ops.fused import fused_enabled, use_fused
from repro.ops.modes import modes
from repro.tensor import (
    default_dtype,
    dtype_scope,
    inference_mode,
    is_grad_enabled,
    no_grad,
    sanitize_enabled,
    sanitize_mode,
)

# name -> (enter, enter_other, read, default).  ``enter`` opens the
# wrapper with a non-default value; ``enter_other`` with a second value
# where the wrapper has one.  The dtype default is the process default
# the test-suite pins (tests/conftest.py).
WRAPPERS = {
    "no_grad": (no_grad, no_grad, is_grad_enabled, True),
    "inference_mode": (inference_mode, inference_mode,
                       lambda: (fastpath_enabled(), is_grad_enabled()),
                       (False, True)),
    "sanitize_mode": (sanitize_mode, lambda: sanitize_mode(False),
                      sanitize_enabled, False),
    "use_fused": (lambda: use_fused(False), use_fused, fused_enabled, True),
    "batch_cell": (lambda: batch_cell(4), lambda: batch_cell(2),
                   batch_cell_rows, None),
    "dtype_scope": (lambda: dtype_scope(np.float16),
                    lambda: dtype_scope(np.float32), default_dtype,
                    np.float64),
    "profile_ops": (profile_ops, profile_ops, current_profiler, None),
}


def _read_on_fresh_thread(read):
    seen = []
    worker = threading.Thread(target=lambda: seen.append(read()))
    worker.start()
    worker.join()
    return seen[0]


@pytest.mark.parametrize("name", ["no_grad", "inference_mode",
                                  "sanitize_mode", "use_fused",
                                  "dtype_scope"])
def test_fresh_thread_reads_the_default(name):
    enter, _, read, default = WRAPPERS[name]
    with enter():
        assert read() != default
        assert _read_on_fresh_thread(read) == default


@pytest.mark.parametrize("name", ["no_grad", "sanitize_mode", "use_fused",
                                  "batch_cell", "dtype_scope",
                                  "profile_ops"])
def test_raise_restores_the_outer_value(name):
    enter, enter_other, read, default = WRAPPERS[name]
    with pytest.raises(RuntimeError):
        with enter():
            raise RuntimeError("member fault")
    assert read() == default
    with enter_other():
        outer = read()
        with pytest.raises(RuntimeError):
            with enter():
                raise RuntimeError("member fault")
        assert read() == outer


@pytest.mark.parametrize("name", ["dtype_scope", "profile_ops"])
def test_nested_entries_restore_the_outer_value(name):
    enter, enter_other, read, default = WRAPPERS[name]
    with enter():
        outer = read()
        with enter_other():
            assert read() != outer
        assert read() == outer
    assert read() == default


@pytest.mark.parametrize("name", ["no_grad", "inference_mode",
                                  "sanitize_mode", "use_fused",
                                  "batch_cell", "profile_ops"])
def test_another_thread_never_sees_the_value(name):
    enter, _, read, default = WRAPPERS[name]
    entered, release = threading.Event(), threading.Event()
    inside = []

    def hold():
        with enter():
            inside.append(read())
            entered.set()
            release.wait(timeout=10)

    assert read() == default
    worker = threading.Thread(target=hold)
    worker.start()
    try:
        assert entered.wait(timeout=10)
        assert read() == default
    finally:
        release.set()
        worker.join()
    assert inside[0] != default


class TestModes:
    def test_restores_exactly_the_named_fields(self):
        with modes(grad=False):
            with modes(cell=3, fastpath=True):
                assert (is_grad_enabled(), fastpath_enabled(),
                        batch_cell_rows()) == (False, True, 3)
            assert (is_grad_enabled(), fastpath_enabled(),
                    batch_cell_rows()) == (False, False, None)
        assert is_grad_enabled()

    def test_misspelt_field_raises(self):
        with pytest.raises(TypeError, match="fastpth"):
            with modes(fastpth=True):
                pass
        assert not fastpath_enabled()

    def test_workspace_free_lists_are_not_a_mode(self):
        with pytest.raises(TypeError, match="free"):
            with modes(free={}):
                pass


def _threading_local_uses(path: Path):
    """Lines that subclass, instantiate or import ``threading.local``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "threading" \
                and any(alias.name == "local" for alias in node.names):
            yield node.lineno
        exprs = node.bases if isinstance(node, ast.ClassDef) else \
            [node.func] if isinstance(node, ast.Call) else []
        if any(ast.unparse(expr) == "threading.local" for expr in exprs):
            yield node.lineno


def test_modes_is_the_only_thread_local_container():
    """A ninth per-thread container fails here: add a field instead."""
    root = Path(repro.__file__).parent
    found = {}
    for package in ("ops", "tensor"):
        for path in sorted((root / package).rglob("*.py")):
            lines = list(_threading_local_uses(path))
            if lines:
                found[path.relative_to(root).as_posix()] = lines
    assert list(found) == ["ops/modes.py"]
