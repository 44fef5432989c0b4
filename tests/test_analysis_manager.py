"""The per-function AnalysisManager: caching, stamps, declared invalidation."""

from repro.analysis.manager import (
    GLOBAL_STATS,
    analyses,
    body_stamp,
    cfg_stamp,
)
from repro.ir import parse_function
from repro.ir.instructions import Instruction
from repro.ir.opcodes import Opcode
from repro.passes.pre_common import prepare_pre

DIAMOND = """
function f(r0, r1, r2) {
entry:
    cbr r0 -> left, right
left:
    r3 <- add r1, r2
    jmp -> join
right:
    r4 <- add r1, r2
    jmp -> join
join:
    r5 <- add r1, r2
    ret r5
}
"""


def _func():
    return parse_function(DIAMOND)


def test_repeated_requests_hit_the_cache():
    func = _func()
    manager = analyses(func)
    GLOBAL_STATS.reset()
    first = manager.cfg()
    assert GLOBAL_STATS.misses == 1 and GLOBAL_STATS.hits == 0
    assert manager.cfg() is first
    assert GLOBAL_STATS.hits == 1
    assert analyses(func) is manager


def test_cfg_stamp_catches_shape_edits():
    func = _func()
    manager = analyses(func)
    before = manager.cfg()
    # a straight-line edit keeps the shape stamp (and the cached CFG)
    func.blocks[1].instructions.insert(
        0, Instruction(Opcode.LOADI, target="r9", imm=7)
    )
    assert manager.cfg() is before
    # retargeting a terminator changes the stamp and rebuilds
    stamp = cfg_stamp(func)
    func.blocks[1].instructions[-1].labels[0] = "right"
    assert cfg_stamp(func) != stamp
    assert manager.cfg() is not before


def test_body_stamp_drops_body_analyses():
    func = _func()
    manager = analyses(func)
    table = manager.expressions()
    universe = manager.expression_universe()
    assert manager.expressions() is table
    assert manager.expression_universe() is universe
    func.blocks[1].instructions.insert(
        0, Instruction(Opcode.LOADI, target="r9", imm=7)
    )
    assert body_stamp(func) != manager._body_stamp
    assert manager.expressions() is not table
    assert manager.expression_universe() is not universe


def test_after_pass_preserves_declared_analyses():
    func = _func()
    manager = analyses(func)
    table = manager.expressions()
    universe = manager.expression_universe()
    live = manager.liveness()
    # expr_universe is derived from expressions and rides its declaration
    manager.after_pass(preserves=("expressions",))
    assert manager.expressions() is table
    assert manager.expression_universe() is universe
    assert manager.liveness() is not live
    manager.after_pass()
    assert manager.expressions() is not table


def test_invalidate_cascades():
    func = _func()
    manager = analyses(func)
    manager.cfg(), manager.dominators(), manager.expressions()
    manager.invalidate("expressions")
    assert "expressions" not in manager._cache
    assert "expr_universe" not in manager._cache
    assert "cfg" in manager._cache
    manager.invalidate("cfg")
    assert not manager._cache


def test_invalidate_all_resets_stamps():
    func = _func()
    manager = analyses(func)
    manager.cfg(), manager.expressions()
    manager.invalidate_all()
    assert not manager._cache
    assert manager._cfg_stamp is None and manager._body_stamp is None


def test_peek_body_only_reports_validated_hits():
    func = _func()
    manager = analyses(func)
    assert manager.peek_body("expressions") is None  # nothing cached yet
    table = manager.expressions()
    assert manager.peek_body("expressions") is table
    func.blocks[1].instructions.insert(
        0, Instruction(Opcode.LOADI, target="r9", imm=7)
    )
    assert manager.peek_body("expressions") is None  # stamp changed


def test_pre_context_cached_across_both_solvers():
    func = _func()
    ctx = prepare_pre(func)
    assert ctx is not None
    # second preparation (the other PRE pass) is a pure cache hit
    GLOBAL_STATS.reset()
    assert prepare_pre(func) is ctx
    assert GLOBAL_STATS.hits == 1 and GLOBAL_STATS.misses == 0
    # mutating the body invalidates the context
    func.blocks[0].instructions.insert(
        0, Instruction(Opcode.LOADI, target="r9", imm=7)
    )
    assert prepare_pre(func) is not ctx


def test_compiled_functions_are_not_retained():
    """Managers die with their functions: long-lived workers must not
    keep every function they ever compiled."""
    import gc
    import weakref

    from repro.analysis.manager import AnalysisManager
    from repro.bench.suite import suite_routines
    from repro.pipeline.driver import compile_payload

    def live_managers():
        return sum(isinstance(obj, AnalysisManager) for obj in gc.get_objects())

    gc.collect()
    before = live_managers()
    module = compile_payload(
        "source", suite_routines()[0].source, "distribution", "final"
    )
    func = next(iter(module.functions.values()))
    analyses(func).dominators()  # at least this one has a manager
    assert live_managers() > before
    dead = weakref.ref(func)
    del module, func
    gc.collect()
    assert dead() is None
    assert live_managers() == before
