"""Shared test utilities: differential execution of IR before/after
passes, and server subprocesses for shutdown tests."""

from __future__ import annotations

import copy
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import pytest

import repro
from repro.interp import Interpreter, Memory
from repro.ir import Function, Module, parse_function, validate_function
from repro.service.client import DaemonClient


@dataclass
class Observation:
    """Everything observable about one routine execution."""

    value: object
    arrays: list[list]
    dynamic_count: int
    result: object = None  # the full ExecutionResult (per-opcode counts)


def observe(
    module_or_func,
    name: Optional[str] = None,
    args: Sequence = (),
    arrays: Sequence[tuple[Sequence, int]] = (),
) -> Observation:
    """Run a routine and capture its observable behaviour.

    ``arrays`` is a sequence of ``(initial_values, elemsize)`` pairs; each
    array is allocated, its base address appended to ``args``, and its
    final contents captured.
    """
    if isinstance(module_or_func, Function):
        module = Module([module_or_func])
        name = module_or_func.name
    else:
        module = module_or_func
    assert name is not None
    memory = Memory()
    bases = []
    full_args = list(args)
    for values, elemsize in arrays:
        base = memory.allocate_array(list(values), elemsize)
        bases.append((base, len(list(values)), elemsize))
        full_args.append(base)
    result = Interpreter(module).run(name, full_args, memory)
    final_arrays = [
        memory.read_array(base, count, elemsize) for base, count, elemsize in bases
    ]
    return Observation(
        value=result.value,
        arrays=final_arrays,
        dynamic_count=result.dynamic_count,
        result=result,
    )


def observe_machine(
    module_or_func,
    name: Optional[str] = None,
    args: Sequence = (),
    arrays: Sequence[tuple[Sequence, int]] = (),
    *,
    k: int = 16,
    schedule: bool = True,
):
    """Lower + allocate + schedule a copy, simulate it, capture behaviour.

    The differential twin of :func:`observe`: identical argument handling,
    but the routine runs on the ``rvk`` cycle simulator after codegen.
    Returns ``(Observation, SimResult)`` — the observation's
    ``dynamic_count`` is the simulator's *instruction* count.  The input
    module/function is never mutated (codegen runs on a printed copy).
    """
    from repro.backend import Simulator, Target, codegen_module
    from repro.ir import parse_module, print_module

    if isinstance(module_or_func, Function):
        module = Module([module_or_func])
        name = module_or_func.name
    else:
        module = module_or_func
    assert name is not None
    machine = parse_module(print_module(module))
    target = Target(k=k)
    codegen_module(machine, target, schedule=schedule)
    memory = Memory()
    bases = []
    full_args = list(args)
    for values, elemsize in arrays:
        base = memory.allocate_array(list(values), elemsize)
        bases.append((base, len(list(values)), elemsize))
        full_args.append(base)
    result = Simulator(machine, target).run(name, full_args, memory)
    final_arrays = [
        memory.read_array(base, count, elemsize) for base, count, elemsize in bases
    ]
    observation = Observation(
        value=result.value,
        arrays=final_arrays,
        dynamic_count=result.instructions,
        result=result,
    )
    return observation, result


def assert_codegen_preserves_behavior(
    module_or_func,
    name: Optional[str] = None,
    cases: Sequence[dict] = ({},),
    ks: Sequence[int] = (8, 16, 32),
) -> None:
    """Check sim == interp for every case at every k (both schedulings)."""
    for case in cases:
        args = case.get("args", ())
        arrays = case.get("arrays", ())
        expected = observe(module_or_func, name, args=args, arrays=arrays)
        for k in ks:
            for schedule in (False, True):
                actual, _ = observe_machine(
                    module_or_func,
                    name,
                    args=args,
                    arrays=arrays,
                    k=k,
                    schedule=schedule,
                )
                label = f"k={k} schedule={schedule} case={case}"
                assert actual.value == expected.value, (
                    f"return value diverged at {label}: "
                    f"{expected.value} -> {actual.value}"
                )
                assert actual.arrays == expected.arrays, (
                    f"memory effects diverged at {label}"
                )


def deep_copy_function(func: Function) -> Function:
    """A structurally independent copy of a function."""
    from repro.ir import parse_function, print_function

    return parse_function(print_function(func))


def assert_pass_preserves_behavior(
    func: Function,
    pass_fn: Callable[[Function], Function],
    cases: Sequence[dict],
) -> Function:
    """Run ``pass_fn`` and check observable behaviour on every case.

    Each case is a dict with optional ``args`` and ``arrays`` keys as for
    :func:`observe`.  Returns the transformed function.  The transformed
    function is also validated structurally.
    """
    before = [
        observe(func, args=c.get("args", ()), arrays=c.get("arrays", ()))
        for c in cases
    ]
    transformed = pass_fn(deep_copy_function(func))
    validate_function(transformed)
    for case, expected in zip(cases, before):
        actual = observe(
            transformed, args=case.get("args", ()), arrays=case.get("arrays", ())
        )
        assert actual.value == expected.value, (
            f"return value changed for {case}: {expected.value} -> {actual.value}"
        )
        assert actual.arrays == expected.arrays, f"memory effects changed for {case}"
    return transformed


# -- server subprocesses -------------------------------------------------------


def start_server(command: Sequence[str], cwd, socket_name: str = "s.sock"):
    """Run ``python -m repro <command>`` in ``cwd`` until it answers ``ping``.

    Returns ``(process, socket path, stderr path)``; stderr goes to a
    file so a chatty server can never block on a full pipe.
    """
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    stderr_path = os.path.join(str(cwd), "stderr.log")
    with open(stderr_path, "w") as stderr:
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", *command, "--socket", socket_name],
            cwd=str(cwd), env=env, stdout=subprocess.DEVNULL, stderr=stderr,
        )
    path = os.path.join(str(cwd), socket_name)
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        if process.poll() is not None:
            with open(stderr_path) as handle:
                raise AssertionError(f"{command} exited: {handle.read()}")
        try:
            with DaemonClient(path, timeout=5.0) as client:
                if client.ping():
                    return process, path, stderr_path
        except OSError:
            time.sleep(0.05)
    process.kill()
    process.wait()
    raise AssertionError(f"{command} never answered ping")
