"""The correctness oracle; it never runs the optimizer.

* A suite routine's output runs on its driver in the interpreter and is
  compared with the routine's Python ``reference`` at the suite tests'
  tolerance (relative and absolute 1e-9 on floats, exact otherwise).
* A fuzz CFG's output and its unoptimized input both run in the
  interpreter on the request's seeded arguments; return values must
  be equal.

Dynamic operation counts of the suite outputs (Table 1's metric) and
the static instruction count of every output are collected on the way.
"""

from __future__ import annotations

import math

#: Step limits for running outputs, so a miscompiled loop fails fast.
#: The unoptimized suite's longest routine (tomcatv) runs 173,272
#: operations; a fuzz CFG's fuel counter stops it within a few hundred.
SUITE_MAX_STEPS = 1_000_000
FUZZ_MAX_STEPS = 100_000


def _close(got, want) -> bool:
    if isinstance(got, float) or isinstance(want, float):
        if got is None or want is None:
            return False
        return math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-9)
    return got == want


def check_suite(routine, module) -> tuple[bool, int]:
    """(matches reference, dynamic operation count)."""
    from repro.interp import Interpreter, Memory

    memory = Memory()
    arguments = list(routine.args)
    bases = []
    for values, elemsize in routine.fresh_arrays():
        arguments.append(memory.allocate_array(values, elemsize))
        bases.append((arguments[-1], len(values), elemsize))
    run = Interpreter(module, max_steps=SUITE_MAX_STEPS).run(
        routine.entry_name, arguments, memory
    )
    arrays = [list(values) for values, _ in routine.arrays]
    value = routine.reference(*routine.args, *arrays)
    ok = _close(run.value, value) and all(
        all(map(_close, memory.read_array(*base), want))
        for base, want in zip(bases, arrays)
    )
    return ok, run.dynamic_count


def check_fuzz(request: dict, module) -> bool:
    from repro.interp import Interpreter
    from repro.ir.parser import parse_module

    unoptimized = parse_module(request["text"])
    name = request["id"]
    return all(
        Interpreter(module, max_steps=FUZZ_MAX_STEPS).run(name, args).value
        == Interpreter(unoptimized).run(name, args).value
        for args in request["args"]
    )


def check(requests: list[dict], outputs: dict[str, str]) -> dict:
    """Check the printed output of every request that has one.

    Returns ``wrong`` (ids failing the oracle), ``missing`` (ids without
    an output), ``dyn_ops`` (suite outputs only) and ``code_size``.
    """
    from repro.bench.suite import SUITE, suite_routines
    from repro.ir.parser import parse_module

    suite_routines()  # loads the registry
    wrong: list[str] = []
    missing: list[str] = []
    dyn_ops = code_size = 0
    for request in requests:
        text = outputs.get(request["id"])
        if text is None:
            missing.append(request["id"])
            continue
        try:
            module = parse_module(text)
            code_size += sum(func.static_count() for func in module)
            if request["kind"] == "source":
                ok, count = check_suite(SUITE[request["id"]], module)
                dyn_ops += count
            else:
                ok = check_fuzz(request, module)
        except Exception:  # noqa: BLE001 — any oracle crash is a wrong output
            ok = False
        if not ok:
            wrong.append(request["id"])
    return {
        "wrong": wrong,
        "missing": missing,
        "dyn_ops": dyn_ops,
        "code_size": code_size,
    }
