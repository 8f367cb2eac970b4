"""Symbolic BET: build the tree once per program, rebind inputs many times.

An input sweep re-evaluates the same program under thousands of input
bindings.  The tree *structure* the builder produces — which nodes exist,
which contexts merge, which branch arms run — is a function of a small set
of discrete decisions; everything else (probabilities, trip counts, metric
totals, environment values) is arithmetic over the inputs.  This module
separates the two:

* during one ordinary :class:`~repro.bet.builder.BETBuilder` build, a
  recorder rides along and emits a flat **annotation tape**: one closure
  per input-dependent computation, reading and writing a register file
  (environment dicts, probability floats, escape-mass accumulators);
* :meth:`SymbolicBET.rebind` replays the tape against new inputs, updating
  ``prob`` / ``num_iter`` / ``context`` / ``own_metrics`` in place on the
  existing tree and recomputing ENR — no :class:`BETNode`, no
  :class:`Context`, and almost no :class:`Metrics` churn.

Every discrete decision is **guarded**: the tape re-checks branch-condition
outcomes, zero-trip boundaries, context-merge partitions, arm skip
patterns, and probability-validity ranges, and raises :class:`ShapeChanged`
the moment new inputs would have produced a different tree.  The rebind
then transparently falls back to a full build (which also re-records the
tape), so callers always get exactly what a fresh ``BETBuilder.build``
would have returned — bit-identical annotations, identical error behavior —
just faster whenever the shape holds.
"""

from __future__ import annotations

import math
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .. import arrayops as _aops
from ..arrayops import is_array, truthy, vmin, vmax, vwhere
from ..errors import BudgetExceededError
from ..expressions.compile import compile_expr, compile_expr_vector
from ..expressions.expr import as_expr
from ..hardware.instmix import LibraryDatabase
from ..hardware.metrics import Metrics
from ..skeleton.ast_nodes import Comp, ForLoop, Load, Store
from ..skeleton.bst import Program
from .builder import BETBuilder, expected_break_iterations
from .context import Context
from .nodes import BLOCK_KINDS, BETNode

#: must match the builder's dead-context / skipped-arm threshold
_EPS = 1e-12

_ESC_INDEX = {"break": 0, "continue": 1, "return": 2}


class ShapeChanged(Exception):
    """Replay guard tripped: these inputs change the tree structure."""


def _compiled(expr: Any) -> Callable:
    """Compiled equivalent of ``expressions.evaluate(expr, env)``.

    Plain numbers are returned untouched (``evaluate`` short-circuits them
    *without* int/float coercion, so ``Num`` would be wrong here).
    """
    if isinstance(expr, (int, float)) and not isinstance(expr, bool):
        return lambda env, _v=expr: _v
    return compile_expr(as_expr(expr))


def _vcompiled(expr: Any) -> Callable:
    """Vector twin of :func:`_compiled` (``fn(env, bad) -> lanes``)."""
    if isinstance(expr, (int, float)) and not isinstance(expr, bool):
        return lambda env, bad, _v=expr: _v
    return compile_expr_vector(as_expr(expr))


def _vnot(mask):
    """Lane-wise logical not for guard masks (``~`` on a Python bool is
    integer inversion, so the scalar case needs ``not``)."""
    if is_array(mask):
        return ~mask
    return not mask


def _vfloat(value):
    """Scalar ``float()`` that leaves float64 lane arrays untouched."""
    if is_array(value):
        return value
    return float(value)


def _tolist(value, lanes: int):
    """Per-lane Python values for exact scalar-semantics loops."""
    if is_array(value):
        return value.tolist()
    return [value] * lanes


def _env_eq(a: Dict, b: Dict):
    """Lane-wise dict equality mask (``True``/``False`` when uniform).

    Mirrors the builder's ``env == env`` partition comparison; keys are
    record-time structure, so a key-set mismatch is uniform across lanes.
    """
    if a is b:
        return True
    if a.keys() != b.keys():
        return False
    acc = True
    for key, va in a.items():
        vb = b[key]
        if va is vb:
            continue
        acc = acc & (va == vb)
    return acc


def _vtrips(lo, hi, step, S):
    """Lane-wise ``max(0, ceil((hi - lo) / step))`` with divergence guards.

    Lanes with non-positive step diverge from the recorded shape (the
    builder raises ``ShapeChanged`` there), so they are marked for the
    scalar fallback; their returned values are meaningless.  In the array
    branch every intermediate that could leave float64's exact-integer
    range is guarded, because the scalar builder computes trips with exact
    Python integer arithmetic.
    """
    S.mark(truthy(step <= 0))
    if not (is_array(lo) or is_array(hi) or is_array(step)):
        if step <= 0:
            return 0
        return max(0, math.ceil((hi - lo) / step))
    np = _aops.np
    _aops.check_exact(lo, S.bad)
    _aops.check_exact(hi, S.bad)
    _aops.check_exact(step, S.bad)
    diff = _aops.mark_unsafe(hi - lo, S.bad)
    out = np.ceil(diff / step)
    S.bad |= ~(np.abs(out) < _aops.UNSAFE_LIMIT)
    return np.maximum(0.0, out)


#: unchecked constructor for tape ops — every count that reaches it is
#: clamped non-negative first, so skipping validation changes nothing
_RAW = Metrics._raw


def _add_metrics(a: Metrics, b: Metrics) -> Metrics:
    """Field-wise sum, bit-identical to ``Metrics.__add__`` but without
    re-validating operands that are non-negative by construction."""
    return _RAW(a.flops + b.flops, a.iops + b.iops,
                a.div_flops + b.div_flops, a.vec_flops + b.vec_flops,
                a.loads + b.loads, a.stores + b.stores,
                a.load_bytes + b.load_bytes,
                a.store_bytes + b.store_bytes,
                a.static_size + b.static_size,
                a.footprint_bytes + b.footprint_bytes,
                a.reuse_bytes + b.reuse_bytes,
                a.reuse_traffic + b.reuse_traffic)


def _iadd_metrics(bm: Metrics, m: Metrics) -> None:
    """In-place field-wise add onto a block's accumulator.

    Safe only because every replay's block-reset op installs a *fresh*
    ``Metrics`` object before any leaf re-adds, so ``bm`` is private to
    the current replay.  All twelve fields are added (even structurally
    zero ones) so the float results match the builder's chained
    ``Metrics.__add__`` exactly.
    """
    bm.flops += m.flops
    bm.iops += m.iops
    bm.div_flops += m.div_flops
    bm.vec_flops += m.vec_flops
    bm.loads += m.loads
    bm.stores += m.stores
    bm.load_bytes += m.load_bytes
    bm.store_bytes += m.store_bytes
    bm.static_size += m.static_size
    bm.footprint_bytes += m.footprint_bytes
    bm.reuse_bytes += m.reuse_bytes
    bm.reuse_traffic += m.reuse_traffic


def _metrics_base(metrics: Metrics) -> Tuple:
    """Positional field snapshot (Metrics is mutable; tape must not alias)."""
    return (metrics.flops, metrics.iops, metrics.div_flops,
            metrics.vec_flops, metrics.loads, metrics.stores,
            metrics.load_bytes, metrics.store_bytes, metrics.static_size,
            metrics.footprint_bytes, metrics.reuse_bytes,
            metrics.reuse_traffic)


class _Recorder:
    """Rides along one ``BETBuilder.build`` and emits the annotation tape.

    Register file layout: ``R[0]`` is the rebind's input dict; every other
    register is allocated in build order and holds either an environment
    dict, a probability/trip-count number, or a constant.  Registers whose
    template value is meaningful (``1.0`` constants, ``0.0`` escape
    accumulators, branch ``remaining`` starting at ``1.0``) are restored by
    copying the template at each replay, so no reset ops are needed.
    """

    def __init__(self, vector: bool = False):
        self.tape: List[Callable] = []
        #: vector twin tape (``vop(R, S)`` per op) — only recorded when the
        #: owner wants batch replays, so scalar-only use pays nothing
        self.vtape: Optional[List[Callable]] = [] if vector else None
        self.template: List[Any] = [None]           # R[0] = inputs
        self.ONE = self.reg(1.0)
        #: per-tree cache shared by every batch of this recording
        #: (:attr:`BatchBET.memo`)
        self.memo: Dict[Any, Any] = {}
        # id() side tables, only needed while recording (keep-alive lists
        # prevent id reuse); dropped by finish()
        self._ctx: Optional[Dict[int, Tuple[int, int]]] = {}
        self._body: Optional[Dict[int, Tuple[int, int, int]]] = {}
        self._keep: Optional[List[Any]] = []

    # -- register bookkeeping --------------------------------------------
    def reg(self, value: Any = None) -> int:
        self.template.append(value)
        return len(self.template) - 1

    def emit(self, op: Callable) -> None:
        self.tape.append(op)

    def vemit(self, vop: Callable) -> None:
        self.vtape.append(vop)

    def bind_ctx(self, ctx: Context, env_reg: int, prob_reg: int) -> None:
        self._ctx[id(ctx)] = (env_reg, prob_reg)
        self._keep.append(ctx)

    def regs(self, ctx: Context) -> Tuple[int, int]:
        return self._ctx[id(ctx)]

    def finish(self) -> None:
        """Recording done: drop the id-keyed side tables."""
        self._ctx = None
        self._body = None
        self._keep = None

    def replay(self, inputs: Dict[str, float], budget=None) -> None:
        R = list(self.template)
        R[0] = inputs
        if budget is None or budget.max_seconds is None:
            for op in self.tape:
                op(R)
            return
        # wall-clock-guarded replay: the per-op check is hoisted to every
        # 256 ops so a tape of cheap closures stays cheap, while a hung
        # replay is still cut off within a fraction of its budget
        budget.start_clock()
        check = budget.check_clock
        for index, op in enumerate(self.tape):
            if not index % 256:
                check("symbolic replay")
            op(R)

    def replay_batch(self, cols: Dict[str, Any], sink: "_BatchSink") -> None:
        """Replay the vector twin tape against a SoA register file.

        ``R[0]`` holds the column dict (name → float64 lane array); every
        annotation lands in ``sink`` instead of on the shared tree, so
        concurrent scalar replays of the same tree are unaffected.
        """
        R = list(self.template)
        R[0] = cols
        for vop in self.vtape:
            vop(R, sink)

    def _block_reset(self, node: BETNode) -> None:
        """Restore a block's constant metrics base before leaf re-adds.

        Each reset op owns one ``Metrics`` accumulator created at record
        time and rewrites its fields per replay — rebind already mutates
        the tree in place, so reusing the object saves an allocation per
        block per replay.
        """
        shared = _RAW(*_metrics_base(node.own_metrics))
        base = _metrics_base(shared)

        def op(R, node=node, shared=shared, base=base):
            (shared.flops, shared.iops, shared.div_flops, shared.vec_flops,
             shared.loads, shared.stores, shared.load_bytes,
             shared.store_bytes, shared.static_size,
             shared.footprint_bytes, shared.reuse_bytes,
             shared.reuse_traffic) = base
            node.own_metrics = shared
        self.emit(op)
        if self.vtape is not None:
            def vop(R, S, node=node, base=base):
                S.metrics[node] = list(base)
            self.vemit(vop)

    # -- builder hooks (in build order) -----------------------------------
    def on_build(self, program: Program, func, root: BETNode,
                 init_ctx: Context) -> None:
        param_fns = tuple((name, _compiled(expr))
                          for name, expr in program.params.items())
        func_params = tuple(func.params)
        er = self.reg()

        def op(R, er=er, param_fns=param_fns, func_params=func_params,
               root=root):
            inputs = R[0]
            env = {}
            for name, fn in param_fns:
                env[name] = inputs[name] if name in inputs else fn(env)
            for name, value in inputs.items():
                env.setdefault(name, value)
            for param in func_params:
                if param not in env:
                    raise ShapeChanged    # rebuild raises the ModelError
            R[er] = env
            root.context = env
        self.emit(op)
        if self.vtape is not None:
            vparam_fns = tuple((name, _vcompiled(expr))
                               for name, expr in program.params.items())

            def vop(R, S, er=er, param_fns=vparam_fns,
                    func_params=func_params, root=root):
                inputs = R[0]
                env = {}
                for name, fn in param_fns:
                    env[name] = (inputs[name] if name in inputs
                                 else fn(env, S.bad))
                for name, value in inputs.items():
                    env.setdefault(name, value)
                for param in func_params:
                    if param not in env:
                        # lane-uniform: the scalar rebuild raises the
                        # canonical ModelError for every lane
                        S.bad |= True
                R[er] = env
                S.ctx[root] = env
            self.vemit(vop)
        self.bind_ctx(init_ctx, er, self.ONE)
        self._block_reset(root)

    def on_body(self, result) -> None:
        regs = (self.reg(0.0), self.reg(0.0), self.reg(0.0))
        self._body[id(result)] = regs
        self._keep.append(result)

    def merge(self, contexts: List[Context]) -> List[Context]:
        """Recording replacement for ``merge_contexts`` (same algorithm),
        capturing the partition so the replay can guard it."""
        in_regs = tuple(self.regs(ctx) for ctx in contexts)
        groups: List[List[int]] = []
        keys: List[Tuple] = []
        merged: List[Context] = []
        for index, ctx in enumerate(contexts):
            if not ctx.alive():
                continue
            key = ctx._freeze()
            for gi, seen in enumerate(keys):
                if seen == key:
                    groups[gi].append(index)
                    old = merged[gi]
                    merged[gi] = Context(old.env,
                                         min(old.prob + ctx.prob, 1.0))
                    break
            else:
                keys.append(key)
                groups.append([index])
                merged.append(ctx)

        if not in_regs and not groups:
            return merged
        out_regs: List[Tuple[int, int]] = []
        for gi, group in enumerate(groups):
            if len(group) == 1:
                out_regs.append(in_regs[group[0]])   # original ctx, bound
            else:
                prob_reg = self.reg()
                out_regs.append((in_regs[group[0]][0], prob_reg))
                self.bind_ctx(merged[gi], in_regs[group[0]][0], prob_reg)
        groups_t = tuple(tuple(g) for g in groups)

        if len(in_regs) == 1:
            # hot path: one live context passing straight through
            prob_reg = in_regs[0][1]
            alive = groups_t == ((0,),)

            def op(R, prob_reg=prob_reg, alive=alive):
                if (R[prob_reg] > _EPS) != alive:
                    raise ShapeChanged
            self.emit(op)
            if self.vtape is not None:
                def vop(R, S, prob_reg=prob_reg, alive=alive):
                    S.mark((R[prob_reg] > _EPS) != alive)
                self.vemit(vop)
            return merged

        def op(R, in_regs=in_regs, groups=groups_t,
               out_regs=tuple(out_regs)):
            part: List[List[int]] = []
            reps: List[Dict] = []
            for index, (env_reg, prob_reg) in enumerate(in_regs):
                if not (R[prob_reg] > _EPS):
                    continue
                env = R[env_reg]
                for gi, rep in enumerate(reps):
                    if rep == env:
                        part[gi].append(index)
                        break
                else:
                    reps.append(env)
                    part.append([index])
            if len(part) != len(groups):
                raise ShapeChanged
            for got, want in zip(part, groups):
                if tuple(got) != want:
                    raise ShapeChanged
            for (env_reg, prob_reg), group in zip(out_regs, groups):
                if len(group) > 1:
                    acc = R[in_regs[group[0]][1]]
                    for index in group[1:]:
                        acc = min(acc + R[in_regs[index][1]], 1.0)
                    R[prob_reg] = acc
        self.emit(op)
        if self.vtape is not None:
            # lane-wise partition guard: a lane matches the recorded merge
            # iff its liveness pattern is identical AND each member env
            # equals its group's representative AND no member env equals
            # an *earlier* group's representative (the scan joins the
            # first matching group, so order is part of the shape)
            member = frozenset(i for g in groups_t for i in g)

            def vop(R, S, in_regs=in_regs, groups=groups_t,
                    out_regs=tuple(out_regs), member=member):
                for index, (env_reg, prob_reg) in enumerate(in_regs):
                    live = R[prob_reg] > _EPS
                    S.mark(live != (index in member))
                for gi, group in enumerate(groups):
                    rep = R[in_regs[group[0]][0]]
                    for j in range(gi):
                        rep_j = R[in_regs[groups[j][0]][0]]
                        for index in group:
                            S.mark(_env_eq(R[in_regs[index][0]], rep_j))
                    for index in group[1:]:
                        S.mark(_vnot(_env_eq(R[in_regs[index][0]], rep)))
                for (env_reg, prob_reg), group in zip(out_regs, groups):
                    if len(group) > 1:
                        acc = R[in_regs[group[0]][1]]
                        for index in group[1:]:
                            acc = vmin(acc + R[in_regs[index][1]], 1.0)
                        R[prob_reg] = acc
            self.vemit(vop)
        return merged

    def on_assign(self, statement, src_ctx: Context,
                  new_ctx: Context) -> None:
        src_er, src_pr = self.regs(src_ctx)
        dst_er = self.reg()
        fn = _compiled(statement.expr)

        def op(R, src_er=src_er, dst_er=dst_er, fn=fn, name=statement.name):
            src = R[src_er]
            value = fn(src)
            env = dict(src)
            env[name] = value
            R[dst_er] = env
        self.emit(op)
        if self.vtape is not None:
            vfn = _vcompiled(statement.expr)

            def vop(R, S, src_er=src_er, dst_er=dst_er, fn=vfn,
                    name=statement.name):
                src = R[src_er]
                value = fn(src, S.bad)
                env = dict(src)
                env[name] = value
                R[dst_er] = env
            self.vemit(vop)
        self.bind_ctx(new_ctx, dst_er, src_pr)

    def _emit_prob_context(self, node: BETNode,
                           regs: Tuple[Tuple[int, int], ...]) -> None:
        """Leaf annotation: prob = min(Σ pᵢ, 1), context = argmax-prob env
        (first max wins, matching the builder's ``max``)."""
        if len(regs) == 1:
            env_reg, prob_reg = regs[0]

            def op(R, node=node, env_reg=env_reg, prob_reg=prob_reg):
                node.prob = min(R[prob_reg], 1.0)
                node.context = R[env_reg]
            self.emit(op)
            if self.vtape is not None:
                def vop(R, S, node=node, env_reg=env_reg,
                        prob_reg=prob_reg):
                    S.prob[node] = vmin(R[prob_reg], 1.0)
                    S.ctx[node] = R[env_reg]
                self.vemit(vop)
            return

        def op(R, node=node, regs=regs):
            total = 0
            for env_reg, prob_reg in regs:
                total = total + R[prob_reg]
            node.prob = min(total, 1.0)
            best_env, best_p = regs[0][0], R[regs[0][1]]
            for env_reg, prob_reg in regs[1:]:
                p = R[prob_reg]
                if p > best_p:
                    best_env, best_p = env_reg, p
            node.context = R[best_env]
        self.emit(op)
        if self.vtape is not None:
            def vop(R, S, node=node, regs=regs):
                total = 0
                for env_reg, prob_reg in regs:
                    total = total + R[prob_reg]
                S.prob[node] = vmin(total, 1.0)
                # argmax-prob env with first-max-wins (strict >), tracked
                # as a per-lane index when probabilities are lane-varying
                best_idx = 0
                best_p = R[regs[0][1]]
                for j in range(1, len(regs)):
                    p = R[regs[j][1]]
                    take = p > best_p
                    best_idx = vwhere(take, j, best_idx)
                    best_p = vwhere(take, p, best_p)
                envs = tuple(R[env_reg] for env_reg, _ in regs)
                if is_array(best_idx):
                    S.ctx[node] = _LaneSelect(envs, best_idx)
                else:
                    S.ctx[node] = envs[best_idx]
            self.vemit(vop)

    def on_leaf(self, node: BETNode, contexts: List[Context],
                block: Optional[BETNode], metrics: Metrics, spec) -> None:
        regs = tuple(self.regs(ctx) for ctx in contexts)
        self._emit_prob_context(node, regs)
        if spec is None:
            # constant metrics (ArrayDecl): node annotation set at build
            # time stays valid; only the block re-add needs replaying
            if block is not None:
                base = _metrics_base(metrics)

                def add(R, block=block, base=base):
                    bm = block.own_metrics
                    bm.flops += base[0]
                    bm.iops += base[1]
                    bm.div_flops += base[2]
                    bm.vec_flops += base[3]
                    bm.loads += base[4]
                    bm.stores += base[5]
                    bm.load_bytes += base[6]
                    bm.store_bytes += base[7]
                    bm.static_size += base[8]
                    bm.footprint_bytes += base[9]
                    bm.reuse_bytes += base[10]
                    bm.reuse_traffic += base[11]
                self.emit(add)
                if self.vtape is not None:
                    def vadd(R, S, block=block, base=base):
                        bm = S.metrics[block]
                        for i in range(12):
                            bm[i] = bm[i] + base[i]
                    self.vemit(vadd)
            return
        self._emit_characteristic(node, block, regs, spec)

    def _emit_characteristic(self, node: BETNode, block: BETNode,
                             regs: Tuple[Tuple[int, int], ...],
                             stmt) -> None:
        """Recompute a Comp/Load/Store leaf's probability-weighted metrics
        with plain float accumulators, reproducing the builder's
        ``Metrics(static) + m₁·p₁ + m₂·p₂ …`` field-wise float ordering."""
        static = stmt.static_size
        # one reused Metrics per leaf op (see _block_reset); fields the
        # statement kind never touches keep their creation-time zeros
        shared = _RAW(static_size=static)
        vop = None
        if isinstance(stmt, Comp):
            f_flops = _compiled(stmt.flops)
            f_divs = _compiled(stmt.div_flops)
            f_iops = _compiled(stmt.iops)
            vectorizable = stmt.vectorizable

            def op(R, node=node, block=block, regs=regs, f_flops=f_flops,
                   f_divs=f_divs, f_iops=f_iops, vec=vectorizable,
                   shared=shared):
                acc_f = acc_i = acc_d = acc_v = 0.0
                for env_reg, prob_reg in regs:
                    env = R[env_reg]
                    p = R[prob_reg]
                    flops = max(0.0, f_flops(env))
                    divs = max(0.0, f_divs(env))
                    iops = max(0.0, f_iops(env))
                    acc_f = acc_f + flops * p
                    acc_i = acc_i + iops * p
                    acc_d = acc_d + min(divs, flops) * p
                    acc_v = acc_v + (flops if vec else 0.0) * p
                shared.flops = acc_f
                shared.iops = acc_i
                shared.div_flops = acc_d
                shared.vec_flops = acc_v
                node.own_metrics = shared
                _iadd_metrics(block.own_metrics, shared)
            if self.vtape is not None:
                vf_flops = _vcompiled(stmt.flops)
                vf_divs = _vcompiled(stmt.div_flops)
                vf_iops = _vcompiled(stmt.iops)

                def vop(R, S, node=node, block=block, regs=regs,
                        f_flops=vf_flops, f_divs=vf_divs, f_iops=vf_iops,
                        vec=vectorizable, static=static):
                    bad = S.bad
                    acc_f = acc_i = acc_d = acc_v = 0.0
                    for env_reg, prob_reg in regs:
                        env = R[env_reg]
                        p = R[prob_reg]
                        flops = vmax(0.0, f_flops(env, bad))
                        divs = vmax(0.0, f_divs(env, bad))
                        iops = vmax(0.0, f_iops(env, bad))
                        acc_f = acc_f + flops * p
                        acc_i = acc_i + iops * p
                        acc_d = acc_d + vmin(divs, flops) * p
                        acc_v = acc_v + (flops if vec else 0.0) * p
                    own = [acc_f, acc_i, acc_d, acc_v,
                           0.0, 0.0, 0.0, 0.0, static, 0.0, 0.0, 0.0]
                    S.metrics[node] = own
                    bm = S.metrics[block]
                    for i in range(12):
                        bm[i] = bm[i] + own[i]
        elif isinstance(stmt, (Load, Store)):
            f_count = _compiled(stmt.count)
            is_load = isinstance(stmt, Load)
            annotated = (stmt.stride is not None
                         or stmt.footprint is not None
                         or stmt.reuse is not None)
            if annotated:
                # access-pattern clauses: mirror builder._access_pattern
                # float-for-float (span → footprint override → window
                # clamp), accumulating the three pattern fields alongside
                # count/bytes
                f_stride = (_compiled(stmt.stride)
                            if stmt.stride is not None else None)
                f_fp = (_compiled(stmt.footprint)
                        if stmt.footprint is not None else None)
                f_reuse = (_compiled(stmt.reuse)
                           if stmt.reuse is not None else None)

                def op(R, node=node, block=block, regs=regs,
                       f_count=f_count, element_bytes=stmt.element_bytes,
                       f_stride=f_stride, f_fp=f_fp, f_reuse=f_reuse,
                       is_load=is_load, shared=shared):
                    acc_n = acc_b = acc_fp = acc_rb = acc_rt = 0.0
                    for env_reg, prob_reg in regs:
                        env = R[env_reg]
                        p = R[prob_reg]
                        count = max(0.0, f_count(env))
                        nbytes = count * element_bytes
                        span = nbytes
                        if f_stride is not None:
                            span = nbytes * max(1.0, f_stride(env))
                        footprint = span
                        if f_fp is not None:
                            footprint = max(0.0, f_fp(env))
                        acc_n = acc_n + count * p
                        acc_b = acc_b + nbytes * p
                        acc_fp = acc_fp + footprint * p
                        if f_reuse is not None:
                            window = max(f_reuse(env), footprint)
                            acc_rb = acc_rb + (nbytes * window) * p
                            acc_rt = acc_rt + nbytes * p
                    if is_load:
                        shared.loads = acc_n
                        shared.load_bytes = acc_b
                    else:
                        shared.stores = acc_n
                        shared.store_bytes = acc_b
                    shared.footprint_bytes = acc_fp
                    shared.reuse_bytes = acc_rb
                    shared.reuse_traffic = acc_rt
                    node.own_metrics = shared
                    _iadd_metrics(block.own_metrics, shared)
            elif is_load:
                def op(R, node=node, block=block, regs=regs,
                       f_count=f_count, element_bytes=stmt.element_bytes,
                       shared=shared):
                    acc_n = acc_b = 0.0
                    for env_reg, prob_reg in regs:
                        p = R[prob_reg]
                        count = max(0.0, f_count(R[env_reg]))
                        acc_n = acc_n + count * p
                        acc_b = acc_b + (count * element_bytes) * p
                    shared.loads = acc_n
                    shared.load_bytes = acc_b
                    # default pattern: footprint == traffic bytes, so the
                    # accumulated sums are the same float sequence
                    shared.footprint_bytes = acc_b
                    node.own_metrics = shared
                    _iadd_metrics(block.own_metrics, shared)
            else:
                def op(R, node=node, block=block, regs=regs,
                       f_count=f_count, element_bytes=stmt.element_bytes,
                       shared=shared):
                    acc_n = acc_b = 0.0
                    for env_reg, prob_reg in regs:
                        p = R[prob_reg]
                        count = max(0.0, f_count(R[env_reg]))
                        acc_n = acc_n + count * p
                        acc_b = acc_b + (count * element_bytes) * p
                    shared.stores = acc_n
                    shared.store_bytes = acc_b
                    shared.footprint_bytes = acc_b
                    node.own_metrics = shared
                    _iadd_metrics(block.own_metrics, shared)
            if self.vtape is not None:
                vf_count = _vcompiled(stmt.count)
                count_i = 4 if is_load else 5
                bytes_i = 6 if is_load else 7
                if annotated:
                    vf_stride = (_vcompiled(stmt.stride)
                                 if stmt.stride is not None else None)
                    vf_fp = (_vcompiled(stmt.footprint)
                             if stmt.footprint is not None else None)
                    vf_reuse = (_vcompiled(stmt.reuse)
                                if stmt.reuse is not None else None)

                    def vop(R, S, node=node, block=block, regs=regs,
                            f_count=vf_count,
                            element_bytes=stmt.element_bytes, static=static,
                            count_i=count_i, bytes_i=bytes_i,
                            f_stride=vf_stride, f_fp=vf_fp,
                            f_reuse=vf_reuse):
                        bad = S.bad
                        acc_n = acc_b = acc_fp = acc_rb = acc_rt = 0.0
                        for env_reg, prob_reg in regs:
                            env = R[env_reg]
                            p = R[prob_reg]
                            count = vmax(0.0, f_count(env, bad))
                            nbytes = count * element_bytes
                            span = nbytes
                            if f_stride is not None:
                                span = nbytes * vmax(1.0, f_stride(env, bad))
                            footprint = span
                            if f_fp is not None:
                                footprint = vmax(0.0, f_fp(env, bad))
                            acc_n = acc_n + count * p
                            acc_b = acc_b + nbytes * p
                            acc_fp = acc_fp + footprint * p
                            if f_reuse is not None:
                                window = vmax(f_reuse(env, bad), footprint)
                                acc_rb = acc_rb + (nbytes * window) * p
                                acc_rt = acc_rt + nbytes * p
                        own = [0.0] * 8 + [static, acc_fp, acc_rb, acc_rt]
                        own[count_i] = acc_n
                        own[bytes_i] = acc_b
                        S.metrics[node] = own
                        bm = S.metrics[block]
                        for i in range(12):
                            bm[i] = bm[i] + own[i]
                else:
                    def vop(R, S, node=node, block=block, regs=regs,
                            f_count=vf_count,
                            element_bytes=stmt.element_bytes, static=static,
                            count_i=count_i, bytes_i=bytes_i):
                        bad = S.bad
                        acc_n = acc_b = 0.0
                        for env_reg, prob_reg in regs:
                            p = R[prob_reg]
                            count = vmax(0.0, f_count(R[env_reg], bad))
                            acc_n = acc_n + count * p
                            acc_b = acc_b + (count * element_bytes) * p
                        own = [0.0] * 8 + [static, acc_b, 0.0, 0.0]
                        own[count_i] = acc_n
                        own[bytes_i] = acc_b
                        S.metrics[node] = own
                        bm = S.metrics[block]
                        for i in range(12):
                            bm[i] = bm[i] + own[i]
        else:                                        # pragma: no cover
            raise ShapeChanged
        self.emit(op)
        if vop is not None:
            self.vemit(vop)

    def on_lib(self, node: BETNode, ctx: Context, statement, mix) -> None:
        env_reg, prob_reg = self.regs(ctx)
        fn = _compiled(statement.size)
        static = Metrics(static_size=statement.static_size)

        def op(R, node=node, env_reg=env_reg, prob_reg=prob_reg, fn=fn,
               mix=mix, static=static):
            env = R[env_reg]
            size = max(0.0, fn(env))
            node.own_metrics = _add_metrics(mix.to_metrics(size), static)
            node.prob = R[prob_reg]
            node.context = env
        self.emit(op)
        if self.vtape is not None:
            vfn = _vcompiled(statement.size)
            sbase = _metrics_base(static)

            def vop(R, S, node=node, env_reg=env_reg, prob_reg=prob_reg,
                    fn=vfn, mix=mix, sbase=sbase):
                env = R[env_reg]
                size = vmax(0.0, fn(env, S.bad))
                # InstructionMix.to_metrics, field for field (size is
                # clamped non-negative, so its guard never fires), then
                # the builder's `+ static` — adding the zero fields too,
                # matching the chained Metrics.__add__ float-for-float
                flops = mix.flops_per_element * size
                loads = mix.loads_per_element * size
                stores = mix.stores_per_element * size
                bytes_moved = mix.bytes_per_element * size
                accesses = loads + stores
                positive = accesses > 0
                denom = vwhere(positive, accesses, 1.0)
                load_fraction = vwhere(positive, loads / denom, 1.0)
                S.metrics[node] = [
                    flops + sbase[0],
                    (mix.iops_per_element * size
                     + mix.overhead_iops) + sbase[1],
                    mix.div_per_element * size + sbase[2],
                    (flops if mix.vectorizable else 0.0) + sbase[3],
                    loads + sbase[4],
                    stores + sbase[5],
                    bytes_moved * load_fraction + sbase[6],
                    bytes_moved * (1.0 - load_fraction) + sbase[7],
                    1 + sbase[8],
                    bytes_moved + sbase[9],
                    sbase[10],
                    sbase[11],
                ]
                S.prob[node] = R[prob_reg]
                S.ctx[node] = env
            self.vemit(vop)

    def on_call(self, node: BETNode, ctx: Context, callee, statement,
                entry_ctx: Context, program: Program) -> None:
        caller_er, caller_pr = self.regs(ctx)
        dst_er = self.reg()
        global_names = tuple(program.params)
        param_fns = tuple((param, _compiled(arg)) for param, arg
                          in zip(callee.params, statement.args))

        def op(R, node=node, caller_er=caller_er, caller_pr=caller_pr,
               dst_er=dst_er, global_names=global_names,
               param_fns=param_fns):
            caller_env = R[caller_er]
            env = {}
            for name in global_names:
                if name in caller_env:
                    env[name] = caller_env[name]
            for param, fn in param_fns:
                env[param] = fn(caller_env)
            R[dst_er] = env
            node.prob = R[caller_pr]
            node.context = env
        self.emit(op)
        if self.vtape is not None:
            vparam_fns = tuple((param, _vcompiled(arg)) for param, arg
                               in zip(callee.params, statement.args))

            def vop(R, S, node=node, caller_er=caller_er,
                    caller_pr=caller_pr, dst_er=dst_er,
                    global_names=global_names, param_fns=vparam_fns):
                caller_env = R[caller_er]
                env = {}
                for name in global_names:
                    if name in caller_env:
                        env[name] = caller_env[name]
                for param, fn in param_fns:
                    env[param] = fn(caller_env, S.bad)
                R[dst_er] = env
                S.prob[node] = R[caller_pr]
                S.ctx[node] = env
            self.vemit(vop)
        self.bind_ctx(entry_ctx, dst_er, self.ONE)
        self._block_reset(node)

    def on_loop_head(self, node: BETNode, ctx: Context, statement,
                     zero_trip: bool, body_ctx: Optional[Context],
                     survivor: Optional[Context]) -> Optional[int]:
        env_reg, prob_reg = self.regs(ctx)
        trips_reg = self.reg()
        vop = None
        if isinstance(statement, ForLoop):
            f_lo = _compiled(statement.lo)
            f_hi = _compiled(statement.hi)
            f_step = _compiled(statement.step)
            if self.vtape is not None:
                vf_lo = _vcompiled(statement.lo)
                vf_hi = _vcompiled(statement.hi)
                vf_step = _vcompiled(statement.step)
            if zero_trip:
                def op(R, node=node, env_reg=env_reg, prob_reg=prob_reg,
                       f_lo=f_lo, f_hi=f_hi, f_step=f_step,
                       trips_reg=trips_reg):
                    env = R[env_reg]
                    lo = f_lo(env)
                    hi = f_hi(env)
                    step = f_step(env)
                    if step <= 0:
                        raise ShapeChanged
                    trips = max(0, math.ceil((hi - lo) / step))
                    if trips > 0:
                        raise ShapeChanged
                    node.prob = R[prob_reg]
                    node.context = env
                    node.num_iter = float(trips)
                    R[trips_reg] = trips
                if self.vtape is not None:
                    def vop(R, S, node=node, env_reg=env_reg,
                            prob_reg=prob_reg, f_lo=vf_lo, f_hi=vf_hi,
                            f_step=vf_step, trips_reg=trips_reg):
                        env = R[env_reg]
                        trips = _vtrips(f_lo(env, S.bad), f_hi(env, S.bad),
                                        f_step(env, S.bad), S)
                        S.mark(truthy(trips > 0))
                        S.prob[node] = R[prob_reg]
                        S.ctx[node] = env
                        S.num_iter[node] = _vfloat(trips)
                        R[trips_reg] = trips
            else:
                body_er = self.reg()

                def op(R, node=node, env_reg=env_reg, prob_reg=prob_reg,
                       f_lo=f_lo, f_hi=f_hi, f_step=f_step,
                       trips_reg=trips_reg, body_er=body_er,
                       var=statement.var):
                    env = R[env_reg]
                    lo = f_lo(env)
                    hi = f_hi(env)
                    step = f_step(env)
                    if step <= 0:
                        raise ShapeChanged
                    trips = max(0, math.ceil((hi - lo) / step))
                    if trips <= 0:
                        raise ShapeChanged
                    body_env = dict(env)
                    body_env[var] = lo + step * (trips - 1) / 2
                    R[body_er] = body_env
                    node.prob = R[prob_reg]
                    node.context = env
                    node.num_iter = float(trips)
                    R[trips_reg] = trips
                if self.vtape is not None:
                    def vop(R, S, node=node, env_reg=env_reg,
                            prob_reg=prob_reg, f_lo=vf_lo, f_hi=vf_hi,
                            f_step=vf_step, trips_reg=trips_reg,
                            body_er=body_er, var=statement.var):
                        env = R[env_reg]
                        lo = f_lo(env, S.bad)
                        step = f_step(env, S.bad)
                        trips = _vtrips(lo, f_hi(env, S.bad), step, S)
                        S.mark(truthy(trips <= 0))
                        body_env = dict(env)
                        if (is_array(lo) or is_array(step)
                                or is_array(trips)):
                            # the midpoint product must stay within exact-
                            # integer float range, or scalar int arithmetic
                            # would round differently
                            _aops.check_exact(lo, S.bad)
                            _aops.check_exact(step, S.bad)
                            mid = _aops.mark_unsafe(step * (trips - 1),
                                                    S.bad)
                            body_env[var] = lo + mid / 2
                        else:
                            body_env[var] = lo + step * (trips - 1) / 2
                        R[body_er] = body_env
                        S.prob[node] = R[prob_reg]
                        S.ctx[node] = env
                        S.num_iter[node] = _vfloat(trips)
                        R[trips_reg] = trips
                self.bind_ctx(body_ctx, body_er, self.ONE)
        else:                                          # WhileLoop
            f_trips = _compiled(statement.expect)

            def op(R, node=node, env_reg=env_reg, prob_reg=prob_reg,
                   f_trips=f_trips, trips_reg=trips_reg,
                   zero_trip=zero_trip):
                env = R[env_reg]
                trips = f_trips(env)
                if trips < 0:
                    raise ShapeChanged
                if (trips <= 0) != zero_trip:
                    raise ShapeChanged
                node.prob = R[prob_reg]
                node.context = env
                node.num_iter = float(trips)
                R[trips_reg] = trips
            if self.vtape is not None:
                vf_trips = _vcompiled(statement.expect)

                def vop(R, S, node=node, env_reg=env_reg,
                        prob_reg=prob_reg, f_trips=vf_trips,
                        trips_reg=trips_reg, zero_trip=zero_trip):
                    env = R[env_reg]
                    trips = f_trips(env, S.bad)
                    S.mark(truthy(trips < 0))
                    S.mark((trips <= 0) != zero_trip)
                    S.prob[node] = R[prob_reg]
                    S.ctx[node] = env
                    S.num_iter[node] = _vfloat(trips)
                    R[trips_reg] = trips
            if not zero_trip:
                # while bodies see the loop context env unchanged
                self.bind_ctx(body_ctx, env_reg, self.ONE)
        self.emit(op)
        if vop is not None:
            self.vemit(vop)
        if zero_trip:
            # survivor = ctx.fork(1.0): same probability, copied env
            self.bind_ctx(survivor, env_reg, prob_reg)
            return None
        self._block_reset(node)
        return trips_reg

    def on_loop_tail(self, node: BETNode, ctx: Context, trips_reg: int,
                     body_result, parent_result,
                     survivor: Context) -> None:
        env_reg, prob_reg = self.regs(ctx)
        body_break, _, body_return = self._body[id(body_result)]
        parent_return = self._body[id(parent_result)][2]
        survivor_pr = self.reg()

        def op(R, node=node, prob_reg=prob_reg, trips_reg=trips_reg,
               body_break=body_break, body_return=body_return,
               parent_return=parent_return, survivor_pr=survivor_pr):
            trips = R[trips_reg]
            p_break = min(R[body_break], 1.0)
            p_return = min(R[body_return], 1.0)
            exit_per_iter = min(p_break + p_return, 1.0)
            if exit_per_iter > _EPS:
                node.num_iter = expected_break_iterations(exit_per_iter,
                                                          trips)
                ever_exited = 1.0 - (1.0 - exit_per_iter) ** trips
                returned = ever_exited * (p_return / exit_per_iter)
            else:
                returned = 0.0
            R[parent_return] = R[parent_return] + R[prob_reg] * returned
            prob = R[prob_reg] * (1.0 - returned)
            if prob < 0 or prob > 1 + 1e-9:
                raise ShapeChanged
            R[survivor_pr] = min(prob, 1.0)
        self.emit(op)
        if self.vtape is not None:
            def vop(R, S, node=node, prob_reg=prob_reg,
                    trips_reg=trips_reg, body_break=body_break,
                    body_return=body_return, parent_return=parent_return,
                    survivor_pr=survivor_pr):
                trips = R[trips_reg]
                p_break = vmin(R[body_break], 1.0)
                p_return = vmin(R[body_return], 1.0)
                exit_per_iter = vmin(p_break + p_return, 1.0)
                if not (is_array(trips) or is_array(exit_per_iter)
                        or is_array(p_return)):
                    # uniform lanes: replicate the scalar op exactly
                    returned = 0.0
                    if exit_per_iter > _EPS:
                        try:
                            S.num_iter[node] = expected_break_iterations(
                                exit_per_iter, trips)
                            ever = 1.0 - (1.0 - exit_per_iter) ** trips
                            returned = ever * (p_return / exit_per_iter)
                        except Exception:
                            S.mark(True)
                else:
                    # expected_break_iterations has branchy exact-scalar
                    # semantics; run it per lane on true Python values
                    np = _aops.np
                    n = S.lanes
                    t_list = _tolist(trips, n)
                    e_list = _tolist(exit_per_iter, n)
                    pr_list = _tolist(p_return, n)
                    ni_list = _tolist(S.num_iter.get(node, node.num_iter),
                                      n)
                    ret = np.zeros(n, dtype=np.float64)
                    ni = np.empty(n, dtype=np.float64)
                    for i in range(n):
                        e = e_list[i]
                        ni[i] = ni_list[i]
                        if e > _EPS:
                            try:
                                ni[i] = expected_break_iterations(
                                    e, t_list[i])
                                ever = 1.0 - (1.0 - e) ** t_list[i]
                                ret[i] = ever * (pr_list[i] / e)
                            except Exception:
                                S.bad[i] = True
                    returned = ret
                    S.num_iter[node] = ni
                R[parent_return] = (R[parent_return]
                                    + R[prob_reg] * returned)
                prob = R[prob_reg] * (1.0 - returned)
                S.mark((prob < 0) | (prob > 1 + 1e-9))
                R[survivor_pr] = vmin(prob, 1.0)
            self.vemit(vop)
        self.bind_ctx(survivor, env_reg, survivor_pr)

    # -- branches ----------------------------------------------------------
    def on_branch_start(self, ctx: Context) -> Dict[str, int]:
        env_reg, prob_reg = self.regs(ctx)
        return {"er": env_reg, "pr": prob_reg, "rem": self.reg(1.0)}

    def on_branch_break(self, token: Dict[str, int]) -> None:
        def op(R, rem=token["rem"]):
            if R[rem] > _EPS:
                raise ShapeChanged
        self.emit(op)
        if self.vtape is not None:
            def vop(R, S, rem=token["rem"]):
                S.mark(R[rem] > _EPS)
            self.vemit(vop)

    def _arm_p(self, arm) -> Tuple[str, Optional[Callable]]:
        if arm.kind in ("cond", "prob"):
            return arm.kind, _compiled(arm.expr)
        return arm.kind, None

    def _varm_p(self, arm) -> Tuple[str, Optional[Callable]]:
        if arm.kind in ("cond", "prob"):
            return arm.kind, _vcompiled(arm.expr)
        return arm.kind, None

    def on_arm_skip(self, token: Dict[str, int], arm) -> None:
        kind, fn = self._arm_p(arm)

        def op(R, er=token["er"], rem=token["rem"], kind=kind, fn=fn):
            if R[rem] <= _EPS:
                raise ShapeChanged       # builder would break, not skip
            if kind == "cond":
                p_arm = R[rem] if bool(fn(R[er])) else 0.0
            else:                        # prob (default arms never skip)
                p_raw = fn(R[er])
                if not (0.0 <= p_raw <= 1.0 + 1e-9):
                    raise ShapeChanged   # rebuild raises the ModelError
                p_arm = min(p_raw, R[rem])
            if p_arm > _EPS:
                raise ShapeChanged
        self.emit(op)
        if self.vtape is not None:
            vkind, vfn = self._varm_p(arm)

            def vop(R, S, er=token["er"], rem=token["rem"], kind=vkind,
                    fn=vfn):
                rv = R[rem]
                S.mark(rv <= _EPS)
                if kind == "cond":
                    p_arm = vwhere(truthy(fn(R[er], S.bad)), rv, 0.0)
                else:
                    p_raw = fn(R[er], S.bad)
                    S.mark(_vnot((p_raw >= 0.0)
                                 & (p_raw <= 1.0 + 1e-9)))
                    p_arm = vmin(p_raw, rv)
                S.mark(p_arm > _EPS)
            self.vemit(vop)

    def on_arm_taken(self, token: Dict[str, int], arm, node: BETNode,
                     entry_ctx: Context) -> int:
        kind, fn = self._arm_p(arm)
        scale_reg = self.reg()

        def op(R, er=token["er"], pr=token["pr"], rem=token["rem"],
               kind=kind, fn=fn, node=node, scale_reg=scale_reg):
            if R[rem] <= _EPS:
                raise ShapeChanged
            if kind == "cond":
                p_arm = R[rem] if bool(fn(R[er])) else 0.0
            elif kind == "prob":
                p_raw = fn(R[er])
                if not (0.0 <= p_raw <= 1.0 + 1e-9):
                    raise ShapeChanged
                p_arm = min(p_raw, R[rem])
            else:
                p_arm = R[rem]
            if p_arm <= _EPS:
                raise ShapeChanged
            R[rem] = R[rem] - p_arm
            scale = R[pr] * p_arm
            node.prob = scale
            node.context = R[er]
            R[scale_reg] = scale
        self.emit(op)
        if self.vtape is not None:
            vkind, vfn = self._varm_p(arm)

            def vop(R, S, er=token["er"], pr=token["pr"],
                    rem=token["rem"], kind=vkind, fn=vfn, node=node,
                    scale_reg=scale_reg):
                rv = R[rem]
                S.mark(rv <= _EPS)
                if kind == "cond":
                    p_arm = vwhere(truthy(fn(R[er], S.bad)), rv, 0.0)
                elif kind == "prob":
                    p_raw = fn(R[er], S.bad)
                    S.mark(_vnot((p_raw >= 0.0)
                                 & (p_raw <= 1.0 + 1e-9)))
                    p_arm = vmin(p_raw, rv)
                else:
                    p_arm = rv
                S.mark(p_arm <= _EPS)
                R[rem] = rv - p_arm
                scale = R[pr] * p_arm
                S.prob[node] = scale
                S.ctx[node] = R[er]
                R[scale_reg] = scale
            self.vemit(vop)
        # arm entry context: copy of the branch context env at full mass
        self.bind_ctx(entry_ctx, token["er"], self.ONE)
        self._block_reset(node)
        return scale_reg

    def on_arm_exits(self, token: Dict[str, int], scale_reg: int,
                     arm_result, parent_result,
                     exit_ctxs: List[Context],
                     new_ctxs: List[Context]) -> None:
        arm_regs = self._body[id(arm_result)]
        parent_regs = self._body[id(parent_result)]
        pairs = []
        for exit_ctx, new_ctx in zip(exit_ctxs, new_ctxs):
            exit_er, exit_pr = self.regs(exit_ctx)
            new_pr = self.reg()
            pairs.append((exit_pr, new_pr))
            self.bind_ctx(new_ctx, exit_er, new_pr)

        def op(R, scale_reg=scale_reg, arm_regs=arm_regs,
               parent_regs=parent_regs, pairs=tuple(pairs)):
            scale = R[scale_reg]
            for src, dst in zip(arm_regs, parent_regs):
                R[dst] = R[dst] + R[src] * scale
            for exit_pr, new_pr in pairs:
                prob = R[exit_pr] * scale
                if prob < 0 or prob > 1 + 1e-9:
                    raise ShapeChanged
                R[new_pr] = min(prob, 1.0)
        self.emit(op)
        if self.vtape is not None:
            def vop(R, S, scale_reg=scale_reg, arm_regs=arm_regs,
                    parent_regs=parent_regs, pairs=tuple(pairs)):
                scale = R[scale_reg]
                for src, dst in zip(arm_regs, parent_regs):
                    R[dst] = R[dst] + R[src] * scale
                for exit_pr, new_pr in pairs:
                    prob = R[exit_pr] * scale
                    S.mark((prob < 0) | (prob > 1 + 1e-9))
                    R[new_pr] = vmin(prob, 1.0)
            self.vemit(vop)

    def on_branch_end(self, token: Dict[str, int],
                      residual: Optional[Context]) -> None:
        if residual is None:
            def op(R, rem=token["rem"]):
                if R[rem] > _EPS:
                    raise ShapeChanged
            self.emit(op)
            if self.vtape is not None:
                def vop(R, S, rem=token["rem"]):
                    S.mark(R[rem] > _EPS)
                self.vemit(vop)
            return
        residual_pr = self.reg()

        def op(R, pr=token["pr"], rem=token["rem"],
               residual_pr=residual_pr):
            if not (R[rem] > _EPS):
                raise ShapeChanged
            prob = R[pr] * R[rem]
            if prob < 0 or prob > 1 + 1e-9:
                raise ShapeChanged
            R[residual_pr] = min(prob, 1.0)
        self.emit(op)
        if self.vtape is not None:
            def vop(R, S, pr=token["pr"], rem=token["rem"],
                    residual_pr=residual_pr):
                S.mark(_vnot(R[rem] > _EPS))
                prob = R[pr] * R[rem]
                S.mark((prob < 0) | (prob > 1 + 1e-9))
                R[residual_pr] = vmin(prob, 1.0)
            self.vemit(vop)
        self.bind_ctx(residual, token["er"], residual_pr)

    def on_escape(self, kind: str, statement, node: BETNode, ctx: Context,
                  survivor: Optional[Context], result) -> None:
        env_reg, prob_reg = self.regs(ctx)
        escape_reg = self._body[id(result)][_ESC_INDEX[kind]]
        fn = _compiled(statement.prob)
        alive = survivor is not None
        survivor_pr = self.reg() if alive else None

        def op(R, node=node, env_reg=env_reg, prob_reg=prob_reg,
               escape_reg=escape_reg, fn=fn, alive=alive,
               survivor_pr=survivor_pr):
            env = R[env_reg]
            p = fn(env)
            if not (0.0 <= p <= 1.0 + 1e-9):
                raise ShapeChanged
            p = min(p, 1.0)
            R[escape_reg] = R[escape_reg] + R[prob_reg] * p
            node.prob = R[prob_reg] * p
            node.context = env
            prob = R[prob_reg] * (1.0 - p)
            if prob < 0 or prob > 1 + 1e-9:
                raise ShapeChanged
            prob = min(prob, 1.0)
            if (prob > _EPS) != alive:
                raise ShapeChanged
            if alive:
                R[survivor_pr] = prob
        self.emit(op)
        if self.vtape is not None:
            vfn = _vcompiled(statement.prob)

            def vop(R, S, node=node, env_reg=env_reg, prob_reg=prob_reg,
                    escape_reg=escape_reg, fn=vfn, alive=alive,
                    survivor_pr=survivor_pr):
                env = R[env_reg]
                p = fn(env, S.bad)
                S.mark(_vnot((p >= 0.0) & (p <= 1.0 + 1e-9)))
                p = vmin(p, 1.0)
                R[escape_reg] = R[escape_reg] + R[prob_reg] * p
                S.prob[node] = R[prob_reg] * p
                S.ctx[node] = env
                prob = R[prob_reg] * (1.0 - p)
                S.mark((prob < 0) | (prob > 1 + 1e-9))
                prob = vmin(prob, 1.0)
                S.mark((prob > _EPS) != alive)
                if alive:
                    R[survivor_pr] = prob
            self.vemit(vop)
        if alive:
            self.bind_ctx(survivor, env_reg, survivor_pr)


class _BatchSink:
    """Annotation sink for one batch replay.

    The vector twins never touch the shared tree; every per-node
    annotation lands here, keyed by node.  ``bad`` is the lane mask of
    sweep points whose vector evaluation may diverge from the scalar
    builder — those lanes are re-bound through the scalar path, so
    marking a lane is always *safe*, never wrong.
    """

    __slots__ = ("lanes", "bad", "prob", "num_iter", "metrics", "ctx")

    def __init__(self, lanes: int):
        self.lanes = lanes
        self.bad = _aops.np.zeros(lanes, dtype=bool)
        self.prob: Dict[BETNode, Any] = {}
        self.num_iter: Dict[BETNode, Any] = {}
        self.metrics: Dict[BETNode, list] = {}
        self.ctx: Dict[BETNode, Any] = {}

    def mark(self, mask) -> None:
        """Merge a divergence mask (Python bool or lane array) into
        ``bad``."""
        self.bad |= mask


class _LaneSelect:
    """Deferred per-lane context choice (argmax over candidate envs).

    Materialized lazily by :meth:`BatchBET.context_at`: ``envs[index[i]]``
    is lane *i*'s environment.
    """

    __slots__ = ("envs", "index")

    def __init__(self, envs, index):
        self.envs = envs
        self.index = index


class SymbolicBET:
    """One BET build per program, replayed across input bindings.

    The first :meth:`bind` performs an ordinary recorded build; later
    binds replay the annotation tape in place on the same tree.  When the
    replay detects a structural change (or hits any error), it falls back
    to a full recorded rebuild, so the returned tree is always exactly
    what a fresh :class:`BETBuilder` would produce for those inputs — the
    returned root may therefore be a *different object* after a rebuild.

    Instances pickle without tape or tree (closures cannot cross process
    boundaries); an unpickled copy simply re-records on first bind, which
    is how sweep workers amortize one build per chunk.
    """

    def __init__(self, program: Program, entry: str = "main",
                 library: Optional[LibraryDatabase] = None,
                 **builder_kwargs):
        self.program = program
        self.entry = entry
        self.library = library
        self.builder_kwargs = builder_kwargs
        self.budget = builder_kwargs.get("budget")
        self._recorder: Optional[_Recorder] = None
        self._root: Optional[BETNode] = None
        self._want_vector = False   # record vector twins on next build
        self.stats: Dict[str, float] = {
            "builds": 0.0,          # full recorded builds
            "replays": 0.0,         # tape replays (cache hits)
            "shape_rebuilds": 0.0,  # replays abandoned for a rebuild
            "build_seconds": 0.0,
            "replay_seconds": 0.0,
            "batch_replays": 0.0,       # whole-sweep tape replays
            "batch_seconds": 0.0,
            "lanes_vectorized": 0.0,    # sweep points served by a batch
            "lanes_fallback": 0.0,      # lanes re-routed to scalar binds
        }

    @property
    def root(self) -> Optional[BETNode]:
        """Tree from the most recent bind (``None`` before the first)."""
        return self._root

    def input_names(self) -> Tuple[str, ...]:
        """The entry function's input parameter names.

        The bindable surface of :meth:`bind` / :meth:`rebind_batch` —
        callers that construct input axes programmatically (the sweep
        CLI, the :mod:`repro.explore` space validation) check axis names
        against this instead of discovering a typo deep inside a build.
        """
        return tuple(self.program.function(self.entry).params)

    def bind(self, inputs: Optional[Dict[str, float]] = None) -> BETNode:
        """Evaluate the BET for ``inputs``; replay when the shape holds."""
        inputs = dict(inputs or {})
        if self._recorder is not None:
            started = perf_counter()
            try:
                self._recorder.replay(inputs, budget=self.budget)
                self._root.compute_enr(1.0)
            except BudgetExceededError:
                # a crossed budget is a diagnosis, not a shape change —
                # a rebuild would only hang for longer
                raise
            except Exception:
                # structural change or evaluation error: a full rebuild
                # either produces the new tree or raises the canonical
                # builder error for these inputs
                self.stats["shape_rebuilds"] += 1
            else:
                self.stats["replays"] += 1
                self.stats["replay_seconds"] += perf_counter() - started
                return self._root
        return self._record(inputs)

    #: alias — the sweep engine calls this per point
    rebind = bind

    def rebind_batch(self, inputs: Dict[str, Any],
                     lane_index: Optional[Sequence[int]] = None
                     ) -> "BatchBET":
        """Replay the annotation tape once for a whole input sweep.

        ``inputs`` maps each input name to a 1-D sequence of values; lane
        *i* across all columns is sweep point *i*.  Returns a
        :class:`BatchBET` whose per-node annotations are lane arrays and
        whose ``bad`` mask flags every lane that must be re-bound through
        the scalar path (shape divergence, domain errors, values outside
        float64's exact-integer range).  Masked lanes aside, annotations
        are bit-identical to a fresh scalar build per point.

        ``lane_index`` is an optional non-contiguous index map: entry
        *i* names the caller-side position lane *i* came from (a lane
        group gathered from a heterogeneous cell list is not contiguous
        in its chunk).  It is carried on the returned batch for
        :func:`~repro.analysis.vectorized.project_batch` to scatter
        results back into original order; it never affects the lane
        arithmetic itself.
        """
        np = _aops.np
        if self.budget is not None:
            raise ValueError("batch replay does not enforce build "
                             "budgets; bind points individually instead")
        if not inputs:
            raise ValueError("batch rebind needs at least one input "
                             "column")
        cols: Dict[str, Any] = {}
        lanes = 0
        for name, values in inputs.items():
            col = np.asarray(values, dtype=np.float64)
            if col.ndim != 1:
                raise ValueError(f"input column {name!r} must be 1-D")
            if not cols:
                lanes = int(col.shape[0])
            elif int(col.shape[0]) != lanes:
                raise ValueError("input columns must all have the same "
                                 "length")
            cols[name] = col
        if lanes < 1:
            raise ValueError("batch rebind needs at least one lane")
        index_map: Optional[Tuple[int, ...]] = None
        if lane_index is not None:
            index_map = tuple(int(position) for position in lane_index)
            if len(index_map) != lanes:
                raise ValueError(
                    f"lane_index has {len(index_map)} entries for "
                    f"{lanes} lanes")
        if self._recorder is None or self._recorder.vtape is None:
            # (re)record with vector twins enabled; a builder error for
            # lane 0 propagates exactly as a scalar bind would raise it
            self._want_vector = True
            self._record({name: float(col[0])
                          for name, col in cols.items()})
        started = perf_counter()
        sink = _BatchSink(lanes)
        for col in cols.values():
            # lanes outside the exact-integer float range go to the
            # scalar path before any arithmetic happens
            sink.bad |= ~(np.abs(col) < _aops.UNSAFE_LIMIT)
        with np.errstate(all="ignore"):
            memo = self._recorder.memo
            try:
                self._recorder.replay_batch(cols, sink)
                batch = BatchBET(self._root, sink, cols,
                                 lane_index=index_map, memo=memo)
            except Exception:
                # unexpected replay failure: every lane takes the scalar
                # path, which reproduces the canonical result or error
                sink.bad |= True
                try:
                    batch = BatchBET(self._root, sink, cols,
                                     lane_index=index_map, memo=memo)
                except Exception:
                    sink.prob.clear()
                    sink.num_iter.clear()
                    sink.metrics.clear()
                    sink.ctx.clear()
                    batch = BatchBET(self._root, sink, cols,
                                     lane_index=index_map, memo=memo)
        fallback = int(np.count_nonzero(sink.bad))
        self.stats["batch_replays"] += 1
        self.stats["batch_seconds"] += perf_counter() - started
        self.stats["lanes_vectorized"] += lanes - fallback
        self.stats["lanes_fallback"] += fallback
        return batch

    def demote_batch(self, batch: "BatchBET") -> None:
        """Recount ``batch``'s vectorized lanes as fallback lanes.

        For a caller that could not use the batch after all (its
        projection raised), so every lane reruns through :meth:`bind`.
        """
        moved = batch.lanes - int(_aops.np.count_nonzero(batch.bad))
        self.stats["lanes_vectorized"] -= moved
        self.stats["lanes_fallback"] += moved

    def _record(self, inputs: Dict[str, float]) -> BETNode:
        started = perf_counter()
        recorder = _Recorder(vector=self._want_vector)
        builder = BETBuilder(self.program, library=self.library,
                             **self.builder_kwargs)
        builder._rec = recorder
        self._recorder = None             # stale tape must not survive
        root = builder.build(entry=self.entry, inputs=inputs)
        recorder.finish()
        self._recorder = recorder
        self._root = root
        self.stats["builds"] += 1
        self.stats["build_seconds"] += perf_counter() - started
        return root

    # -- pickling ----------------------------------------------------------
    def __getstate__(self):
        return {"program": self.program, "entry": self.entry,
                "library": self.library,
                "builder_kwargs": self.builder_kwargs,
                "stats": dict(self.stats)}

    def __setstate__(self, state):
        self.program = state["program"]
        self.entry = state["entry"]
        self.library = state["library"]
        self.builder_kwargs = state["builder_kwargs"]
        self.budget = self.builder_kwargs.get("budget")
        self.stats = state["stats"]
        for key in ("batch_replays", "batch_seconds",
                    "lanes_vectorized", "lanes_fallback"):
            self.stats.setdefault(key, 0.0)
        self._recorder = None
        self._root = None
        self._want_vector = False


class BatchBET:
    """One batch replay's view of the tree: lane-array annotations.

    Wraps the recorded tree (never mutated by a batch replay) together
    with the :class:`_BatchSink` holding per-node lane annotations.  Nodes
    absent from the sink are input-independent — their recorded scalar
    annotations hold for every lane.  ``bad`` flags lanes that must be
    re-bound through the scalar path instead of read from here.
    ``lane_index`` (optional) maps lane *i* to the caller-side position
    it was gathered from; consumers use it to scatter per-lane results
    back into non-contiguous original order.

    ``blocks`` lists the tree's code blocks in pre-order (the order of
    :meth:`BETNode.blocks`), with each block's ENR in ``block_enr`` and
    its parallel width (:meth:`BETNode.parallel_width`) in
    ``block_width``, scalars or lane arrays.  ``memo`` is a dict shared
    by every batch of one recorded tree, where consumers cache what
    depends on the tree's structure alone.
    """

    __slots__ = ("root", "sink", "cols", "lanes", "bad", "lane_index",
                 "memo", "blocks", "block_enr", "block_width", "_enr")

    def __init__(self, root: BETNode, sink: _BatchSink,
                 cols: Dict[str, Any],
                 lane_index: Optional[Tuple[int, ...]] = None,
                 memo: Optional[Dict] = None):
        self.root = root
        self.sink = sink
        self.cols = cols
        self.lanes = sink.lanes
        self.bad = sink.bad
        self.lane_index = lane_index
        self.memo = {} if memo is None else memo
        self._enr: Dict[BETNode, Any] = {}
        self.blocks: List[BETNode] = []
        self.block_enr: List[Any] = []
        self.block_width: List[Any] = []
        # one pre-order pass (BETNode.walk's order) carries each node's
        # parent ENR — multiplied in BETNode.compute_enr's order, so
        # lane values are bit-identical to a scalar build's enr fill —
        # and the width of its nearest enclosing forall loop
        stack = [(root, 1.0, 1.0)]
        while stack:
            node, parent_enr, width = stack.pop()
            enr = self.num_iter(node) * self.prob(node) * parent_enr
            self._enr[node] = enr
            if node.kind in BLOCK_KINDS:
                if node.kind == "loop" and node.parallel:
                    width = vmax(self.num_iter(node), 1.0)
                self.blocks.append(node)
                self.block_enr.append(enr)
                self.block_width.append(width)
            stack.extend((child, enr, width)
                         for child in reversed(node.children))

    # -- lane-aware annotation accessors --------------------------------
    def prob(self, node: BETNode):
        return self.sink.prob.get(node, node.prob)

    def num_iter(self, node: BETNode):
        return self.sink.num_iter.get(node, node.num_iter)

    def enr(self, node: BETNode):
        return self._enr[node]

    def metric_fields(self, node: BETNode):
        """The twelve Metrics fields, positionally (scalars or lanes)."""
        fields = self.sink.metrics.get(node)
        if fields is None:
            return _metrics_base(node.own_metrics)
        return fields

    def context_at(self, node: BETNode, lane: int) -> Dict:
        """Materialize lane *lane*'s environment for ``node``."""
        ctx = self.sink.ctx.get(node)
        if ctx is None:
            return dict(node.context)
        if isinstance(ctx, _LaneSelect):
            ctx = ctx.envs[int(ctx.index[lane])]
        out = {}
        for key, value in ctx.items():
            out[key] = float(value[lane]) if is_array(value) else value
        return out
