"""Resource budgets for evaluation and BET construction.

A hand-written or machine-generated skeleton is untrusted input: a
hostile (or merely pathological) file can encode an exponentially
mounting call chain, a multi-megabyte expression, or an integer power
tower — all of which previously hung or crashed the process instead of
failing with a diagnosis.  :class:`EvalBudget` bounds the resources one
build/evaluation may consume:

``max_expr_depth`` / ``max_expr_nodes``
    Structural ceilings on any single expression the builder evaluates.
``max_contexts``
    Ceiling on live probabilistic contexts (overrides the builder's
    ``max_contexts`` when tighter).
``max_seconds``
    Wall-clock bound for one BET build (and one symbolic replay).

Exceeding a budget raises :class:`~repro.errors.BudgetExceededError`
(strict mode) or quarantines the offending subtree (degraded mode).
Checks are deliberately cheap — one ``perf_counter`` per statement, one
capped tree walk per distinct expression — so a generous budget costs
nothing measurable on well-behaved skeletons.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from ..errors import BudgetExceededError


@dataclass
class EvalBudget:
    """Resource ceilings for one build/evaluation.

    ``None`` disables an individual ceiling.  The defaults are generous:
    every workload in the repository fits with two orders of magnitude
    of headroom (see DESIGN.md §9 for the calibration).
    """

    max_expr_depth: Optional[int] = 64
    max_expr_nodes: Optional[int] = 20_000
    max_contexts: Optional[int] = None
    max_seconds: Optional[float] = None

    def __post_init__(self):
        self._deadline: Optional[float] = None
        self._checked_exprs = set()

    # -- wall clock -----------------------------------------------------
    def start_clock(self) -> None:
        """Arm the wall-clock ceiling (call at build/replay start)."""
        if self.max_seconds is not None:
            self._deadline = time.perf_counter() + self.max_seconds
        else:
            self._deadline = None

    def expired(self) -> bool:
        """True once the armed wall-clock ceiling has passed."""
        return (self._deadline is not None
                and time.perf_counter() > self._deadline)

    def check_clock(self, where: str = "") -> None:
        if self.expired():
            raise BudgetExceededError(
                "wall_clock", self.max_seconds,
                f"build exceeded its {self.max_seconds:g}s budget"
                + (f" at {where}" if where else ""))

    # -- expressions ----------------------------------------------------
    def check_expr(self, expr, where: str = "") -> None:
        """Bound the node count and depth of one expression tree.

        Results are memoized by object identity (expression trees are
        immutable and hash-consed), so each distinct tree is walked at
        most once per budget — and the walk itself stops as soon as a
        ceiling is crossed.
        """
        if self.max_expr_nodes is None and self.max_expr_depth is None:
            return
        if not hasattr(expr, "children"):    # plain number
            return
        key = id(expr)
        if key in self._checked_exprs:
            return
        nodes = 0
        deepest = 0
        stack = [(expr, 1)]
        while stack:
            node, depth = stack.pop()
            nodes += 1
            if depth > deepest:
                deepest = depth
            if self.max_expr_nodes is not None \
                    and nodes > self.max_expr_nodes:
                raise BudgetExceededError(
                    "expr_nodes", self.max_expr_nodes,
                    f"expression has more than {self.max_expr_nodes} "
                    f"nodes" + (f" at {where}" if where else ""))
            if self.max_expr_depth is not None \
                    and depth > self.max_expr_depth:
                raise BudgetExceededError(
                    "expr_depth", self.max_expr_depth,
                    f"expression nesting exceeds {self.max_expr_depth} "
                    f"levels" + (f" at {where}" if where else ""))
            for child in node.children():
                stack.append((child, depth + 1))
        if len(self._checked_exprs) < 65_536:
            self._checked_exprs.add(key)

    def __repr__(self):
        return (f"EvalBudget(depth={self.max_expr_depth}, "
                f"nodes={self.max_expr_nodes}, "
                f"contexts={self.max_contexts}, "
                f"seconds={self.max_seconds})")


#: a permissive default used when callers pass ``budget=None`` but still
#: want structural hardening (CLI degraded mode)
def default_budget() -> EvalBudget:
    return EvalBudget()
