"""Per-function analysis caching with stamp- and declaration-based invalidation.

Every pass in the seed recomputed its CFG, dominators, traversal
orders and expression tables from scratch — ``ControlFlowGraph(func)``
appears at the top of almost every transform.  The
:class:`AnalysisManager` makes those analyses shared state: passes ask
:func:`analyses` for the manager of their function and fetch analyses
from it; repeated requests return the cached object.

Two invalidation mechanisms keep cached analyses honest:

* **Shape stamps** — the CFG, traversal orders, dominators and loops
  are pure functions of the block labels and terminator targets, so
  they are revalidated on every access against a cheap O(blocks)
  :func:`cfg_stamp`.  A pass (or any direct mutation) that changes the
  graph shape is caught automatically; one that only rewrites straight-
  line code keeps these analyses for free.

* **Declared preservation** — body-dependent analyses (the lexical
  :class:`~repro.dataflow.expressions.ExpressionTable`, liveness)
  cannot be cheaply revalidated, so they are dropped after every pass
  unless the pass declared them in ``register_pass(preserves=...)``.
  :class:`repro.pm.manager.PassManager` calls :meth:`AnalysisManager.
  after_pass` between pipeline stages; a coarse :func:`body_stamp`
  (block and instruction counts) backstops code that mutates the
  function outside the pass manager.

Code that rewrites a function by hand (tests, drivers) and wants to be
explicit can call ``analyses(func).invalidate_all()``; stamps make that
optional for shape analyses and merely prudent for body analyses.
"""

from __future__ import annotations

from typing import Optional

from repro.ir.function import Function

#: Names of analyses revalidated by :func:`cfg_stamp` on every access.
SHAPE_ANALYSES = ("cfg", "dominators", "loops")

#: Names of analyses invalidated after any pass not declaring them
#: preserved (plus a coarse body-stamp backstop).  ``expr_universe`` is
#: derived from ``expressions`` and lives or dies with it — a pass
#: declaring ``preserves=("expressions",)`` keeps both.  ``pre_context``
#: is the lowered PRE context built by :mod:`repro.passes.pre_common`.
BODY_ANALYSES = ("expressions", "expr_universe", "liveness", "pre_context")


class AnalysisStats:
    """Process-wide cache counters (read by ``repro bench dataflow``)."""

    __slots__ = ("hits", "misses", "invalidations")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "hit_rate": round(self.hit_rate, 4),
        }


GLOBAL_STATS = AnalysisStats()


def cfg_stamp(func: Function) -> tuple:
    """A cheap version stamp of the function's CFG *shape*.

    Captures exactly what the shape analyses depend on: the block
    sequence and each block's successor labels.  O(blocks) to compute,
    no hashing of instruction bodies.  Reads the terminator directly
    (this runs on every shape-analysis access, so the per-block
    property hops of ``successor_labels`` add up).
    """
    from repro.ir.opcodes import TERMINATORS, Opcode

    ret = Opcode.RET
    stamp = []
    for blk in func.blocks:
        insts = blk.instructions
        last = insts[-1] if insts else None
        if last is None or last.opcode not in TERMINATORS or last.opcode is ret:
            stamp.append((blk.label, ()))
        else:
            stamp.append((blk.label, tuple(last.labels)))
    return tuple(stamp)


def body_stamp(func: Function) -> tuple:
    """A coarse version stamp of the function body.

    Cheap by design (block count plus per-block instruction counts), so
    it catches structural edits but *not* in-place operand rewrites —
    that is what declared preservation is for.
    """
    return (len(func.blocks), tuple(len(blk.instructions) for blk in func.blocks))


class AnalysisManager:
    """Caches derived analyses of one function; see the module docstring."""

    def __init__(self, func: Function) -> None:
        self.func = func
        self._cache: dict[str, object] = {}
        self._cfg_stamp: Optional[tuple] = None
        self._body_stamp: Optional[tuple] = None

    # -- cache plumbing ----------------------------------------------------

    def _validate_shape(self) -> None:
        """Drop stale analyses if the CFG shape moved since last observed.

        Body analyses are dropped too — liveness and the PRE context
        depend on the graph, and a terminator retarget is invisible to
        the coarse :func:`body_stamp` (instruction counts don't move).
        Both stamps are maintained by every access, shape or body, so
        initializing one never looks like a mutation.
        """
        stamp = cfg_stamp(self.func)
        if stamp != self._cfg_stamp:
            if self._cfg_stamp is not None:
                self._drop(*SHAPE_ANALYSES)
                self._drop(*BODY_ANALYSES)
            self._cfg_stamp = stamp

    def _validate_body(self) -> None:
        self._validate_shape()
        stamp = body_stamp(self.func)
        if stamp != self._body_stamp:
            if self._body_stamp is not None:
                self._drop(*BODY_ANALYSES)
            self._body_stamp = stamp

    def _get_shape(self, name: str, build):
        self._validate_shape()
        return self._fetch(name, build)

    def _get_body(self, name: str, build):
        self._validate_body()
        return self._fetch(name, build)

    def peek_body(self, name: str):
        """The cached body analysis ``name`` after stamp validation, or None.

        Unlike :meth:`_get_body` this never builds — callers use it to
        skip work (e.g. IR normalization) that only a confirmed cache
        hit makes skippable.
        """
        self._validate_body()
        cached = self._cache.get(name)
        if cached is not None:
            GLOBAL_STATS.hits += 1
        return cached

    def _fetch(self, name: str, build):
        cached = self._cache.get(name)
        if cached is not None:
            GLOBAL_STATS.hits += 1
            return cached
        GLOBAL_STATS.misses += 1
        result = self._cache[name] = build()
        return result

    def _drop(self, *names: str) -> None:
        for name in names:
            if self._cache.pop(name, None) is not None:
                GLOBAL_STATS.invalidations += 1

    # -- the analyses ------------------------------------------------------

    def cfg(self):
        """The :class:`~repro.cfg.graph.ControlFlowGraph` snapshot."""
        from repro.cfg.graph import ControlFlowGraph

        return self._get_shape("cfg", lambda: ControlFlowGraph(self.func))

    def reverse_postorder(self) -> list[str]:
        return self.cfg().reverse_postorder

    def postorder(self) -> list[str]:
        return self.cfg().postorder

    def dominators(self):
        """The :class:`~repro.cfg.dominators.DominatorTree`."""
        from repro.cfg.dominators import DominatorTree

        cfg = self.cfg()  # revalidates the shape stamp first
        return self._fetch("dominators", lambda: DominatorTree(cfg))

    def loops(self):
        """The :class:`~repro.cfg.loops.LoopInfo` (natural loops, depths)."""
        from repro.cfg.loops import LoopInfo

        dom = self.dominators()
        return self._fetch("loops", lambda: LoopInfo(dom.cfg, dom))

    def expressions(self):
        """The lexical :class:`~repro.dataflow.expressions.ExpressionTable`."""
        from repro.dataflow.expressions import ExpressionTable

        return self._get_body(
            "expressions", lambda: ExpressionTable.build(self.func)
        )

    def expression_universe(self):
        """The :class:`~repro.dataflow.bitset.FactUniverse` of expression keys.

        Interned once per function in first-occurrence key order (the
        table's own order), so bit positions are deterministic; shared
        by every expression-domain solve over the same body.
        """
        from repro.dataflow.bitset import FactUniverse

        table = self.expressions()  # revalidates the body stamp first
        return self._fetch("expr_universe", lambda: FactUniverse(table.keys))

    def liveness(self):
        """Live variables (:func:`repro.dataflow.problems.live_variables`)."""
        from repro.dataflow.problems import live_variables

        cfg = self.cfg()
        return self._get_body("liveness", lambda: live_variables(self.func, cfg))

    def pre_context(self, build):
        """The lowered PRE context, built on a miss by ``build()``.

        The context (interned universe, lowered local masks, solved
        AVAIL/ANT) is produced by :func:`repro.passes.pre_common.
        build_context`; the builder is passed in to keep this module
        free of a dependency on the pass layer.  Cached so a pipeline
        running both PRE equation systems back-to-back lowers and
        solves once; any IR mutation between them drops it via the
        body stamp or :meth:`after_pass`.
        """
        return self._get_body("pre_context", build)

    # -- invalidation ------------------------------------------------------

    def invalidate(self, *names: str) -> None:
        """Drop the named analyses (and the dependents of shape ones)."""
        for name in names:
            if name == "cfg":
                self._drop("cfg", *SHAPE_ANALYSES[1:], *BODY_ANALYSES)
            elif name == "dominators":
                self._drop("dominators", "loops")
            elif name == "expressions":
                self._drop("expressions", "expr_universe")
            else:
                self._drop(name)

    def invalidate_all(self) -> None:
        self._drop(*self._cache.copy())
        self._cfg_stamp = None
        self._body_stamp = None

    def after_pass(self, preserves: tuple = ()) -> None:
        """Declared invalidation, called by the pass manager between stages.

        Shape analyses survive on their stamps alone; body analyses
        survive only when the pass declared them in ``preserves``.
        """
        kept = set(preserves)
        if "expressions" in kept:
            kept.add("expr_universe")
        for name in BODY_ANALYSES:
            if name not in kept:
                self._drop(name)

    def __repr__(self) -> str:
        return (
            f"<AnalysisManager {self.func.name}: "
            f"{sorted(self._cache) or 'empty'}>"
        )


def analyses(func: Function) -> AnalysisManager:
    """The (per-process, per-object) :class:`AnalysisManager` of ``func``.

    The manager hangs off the function itself, so the two die together:
    the manager and its cached analyses (the CFG among them) point back
    at the function, and a registry keyed on the function would keep
    every function it ever saw alive through those back-references.
    """
    manager = getattr(func, "_analyses", None)
    if manager is None:
        manager = func._analyses = AnalysisManager(func)
    return manager
