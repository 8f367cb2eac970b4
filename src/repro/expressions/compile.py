"""Expression compilation: turn an :class:`Expr` tree into one closure.

The BET builder and the sweep engine evaluate the same symbolic
expressions thousands of times against different environments (one per
sweep point).  The interpreted tree walk pays, per evaluation, for
attribute lookups, method dispatch, and try/except framing at every node.
This module compiles an expression tree once into a single generated
Python function — ``lambda env: _c(env["n"] * env["m"] + 4)`` in spirit —
and caches it by *structural* identity, so structurally equal trees share
one code object across the whole process.

Semantics are exactly the interpreter's:

* ``_coerce`` is applied at every arithmetic node, so int/float behavior
  (and therefore every downstream trip-count product) is bit-identical;
* ``and`` / ``or`` short-circuit in operand order, comparisons yield
  ``1``/``0``, and intrinsic functions come from the same
  :data:`~repro.expressions.expr.FUNCTIONS` table;
* on *any* exception the compiled closure re-runs the interpreted walk,
  which raises the canonical :class:`~repro.errors.UnboundVariableError` /
  :class:`~repro.errors.ExpressionError` with the exact message a caller
  would have seen before compilation existed.  The happy path costs one
  ``try`` frame; the error path costs one redundant evaluation.

Trees too deep to compile safely (or anything else that trips the code
generator) fall back to a cached interpreted closure — compilation can
make nothing slower than the interpreter, only faster.
"""

from __future__ import annotations

import math
import operator
import time
from typing import Callable, Dict, Mapping

from .. import arrayops as _aops
from ..errors import ExpressionError
from .expr import (
    Binary, Bool, Compare, Expr, FUNCTIONS, Func, Num, Unary, Var, _coerce,
    guarded_pow,
)

#: trees nested deeper than this are left interpreted: CPython's parser
#: and the generated code's expression nesting both have recursion limits
_MAX_COMPILE_DEPTH = 150

#: compiled-closure cache, keyed by the expression itself (hash/eq are
#: structural, so equal trees from different parses share one closure)
_CACHE: Dict[Expr, Callable] = {}
_CACHE_LIMIT = 4096

#: vector-closure cache (same keying/limit policy as ``_CACHE``)
_VCACHE: Dict[Expr, Callable] = {}

#: observable counters (per process; workers report their own snapshot)
_STATS = {
    "compiles": 0.0,           # closures generated (cache misses)
    "cache_hits": 0.0,         # compile_expr calls served from the cache
    "interp_fallbacks": 0.0,   # trees left interpreted (depth/codegen)
    "error_replays": 0.0,      # runtime errors replayed interpreted
    "compile_seconds": 0.0,    # wall time spent generating closures
    "vector_compiles": 0.0,    # vector closures generated (cache misses)
    "vector_cache_hits": 0.0,  # compile_expr_vector calls from the cache
}

_PY_OP = {"+": "+", "-": "-", "*": "*", "/": "/", "//": "//", "%": "%",
          "^": "**"}


class _TooDeep(Exception):
    """Internal: expression exceeds the safe compilation depth."""


def _emit(expr: Expr, depth: int) -> str:
    """Generate the Python source fragment for one node (parenthesized)."""
    if depth > _MAX_COMPILE_DEPTH:
        raise _TooDeep
    if type(expr) is Num:
        value = expr.value
        if isinstance(value, int):
            return f"({value!r})"
        if value != value or value in (float("inf"), float("-inf")):
            # non-finite floats have no source literal; fail to interp
            raise _TooDeep
        return f"({value!r})"
    if type(expr) is Var:
        return f"_e[{expr.name!r}]"
    if type(expr) is Unary:
        operand = _emit(expr.operand, depth + 1)
        if expr.op == "-":
            return f"_c(-{operand})"
        return f"(0 if {operand} else 1)"
    if type(expr) is Binary:
        left = _emit(expr.left, depth + 1)
        right = _emit(expr.right, depth + 1)
        if expr.op == "^":
            # route through the guarded power so a pathological integer
            # power raises here too (the interpreted replay then renders
            # the canonical domain-error message)
            return f"_c(_pw({left}, {right}))"
        return f"_c({left} {_PY_OP[expr.op]} {right})"
    if type(expr) is Compare:
        left = _emit(expr.left, depth + 1)
        right = _emit(expr.right, depth + 1)
        return f"(1 if {left} {expr.op} {right} else 0)"
    if type(expr) is Bool:
        joiner = f" {expr.op} "
        chain = joiner.join(_emit(o, depth + 1) for o in expr.operands)
        return f"(1 if ({chain}) else 0)"
    if type(expr) is Func:
        args = ", ".join(_emit(a, depth + 1) for a in expr.args)
        return f"_c(_f_{expr.name}({args}))"
    # unknown subclass (user extension): leave it interpreted
    raise _TooDeep


#: shared global namespace for every generated function: the coercion
#: helper plus the intrinsic-function table under stable aliases
#: (``Exception`` must be spelled out — the sandbox has no builtins)
_BASE_GLOBALS = {"_c": _coerce, "_pw": guarded_pow, "Exception": Exception,
                 "_stats": _STATS, "__builtins__": {}}
_BASE_GLOBALS.update({f"_f_{name}": fn for name, fn in FUNCTIONS.items()})


def _generate(expr: Expr) -> Callable[[Mapping], object]:
    """Build the guarded compiled function for ``expr``.

    The interpreted-replay fallback lives *inside* the generated
    function (rather than in a wrapping closure) so the hot path is a
    single call frame; on any exception the interpreted walk re-runs
    and raises the canonical error with the exact pre-compilation
    message — or, for a compiled-only hiccup, returns the right value.
    """
    body = _emit(expr, 0)
    source = ("def _compiled(_e):\n"
              "    try:\n"
              f"        return {body}\n"
              "    except Exception:\n"
              "        _stats['error_replays'] += 1.0\n"
              "        return _interp(_e)\n")
    namespace = dict(_BASE_GLOBALS)
    namespace["_interp"] = _guard_interp(expr)
    exec(compile(source, "<repro-expr>", "exec"), namespace)
    fn = namespace["_compiled"]
    fn.__repro_source__ = body          # debugging / tests
    return fn


def _guard_interp(expr: Expr) -> Callable[[Mapping], object]:
    """The interpreted walk, with ``RecursionError`` converted into a
    catchable :class:`~repro.errors.ExpressionError`.

    A tree deep enough to exhaust the Python stack only arises from
    hostile or machine-mangled input; without this guard it would
    surface as a bare ``RecursionError`` that bypasses every
    ``except ReproError`` in the pipeline.  The message deliberately
    omits ``str(expr)`` — rendering a too-deep tree would itself
    recurse.
    """
    interp = expr._eval

    def _interp(env):
        try:
            return interp(env)
        except RecursionError:
            raise ExpressionError(
                "expression tree too deep to evaluate (Python recursion "
                "limit reached); simplify the expression or raise the "
                "budget") from None
    return _interp


def _interp_closure(expr: Expr) -> Callable[[Mapping], object]:
    """The no-op 'compilation': the guarded interpreted walk."""
    return _guard_interp(expr)


def compile_expr(expr: Expr) -> Callable[[Mapping], object]:
    """Compile ``expr`` into an evaluation closure (memoized).

    The returned callable takes an environment mapping and behaves
    exactly like ``expr._eval`` — same values (bit-identical, including
    int/float coercion) and same raised error types and messages.
    """
    cached = _CACHE.get(expr)
    if cached is not None:
        _STATS["cache_hits"] += 1
        return cached
    started = time.perf_counter()
    try:
        closure = _generate(expr)
    except Exception:       # depth guard, codegen or compile() failure
        _STATS["interp_fallbacks"] += 1
        closure = _interp_closure(expr)
    else:
        _STATS["compiles"] += 1
    _STATS["compile_seconds"] += time.perf_counter() - started
    if len(_CACHE) < _CACHE_LIMIT:
        _CACHE[expr] = closure
    return closure


def compiled_source(expr: Expr) -> str:
    """The generated source fragment for ``expr`` (tests/debugging);
    an empty string when the expression is evaluated interpreted."""
    return getattr(compile_expr(expr), "__repro_source__", "")


def compile_stats() -> Dict[str, float]:
    """Snapshot of the compiler's counters (per process)."""
    out = dict(_STATS)
    out["cache_size"] = float(len(_CACHE))
    out["vector_cache_size"] = float(len(_VCACHE))
    return out


def clear_compile_cache(reset_stats: bool = False) -> None:
    """Drop every cached closure (tests); optionally zero the counters."""
    _CACHE.clear()
    _VCACHE.clear()
    if reset_stats:
        for key in _STATS:
            _STATS[key] = 0.0


# ---------------------------------------------------------------------------
# Vector compilation target (DESIGN.md §10)
#
# A vector closure has the signature ``fn(env, bad) -> value`` where ``env``
# maps names to either plain Python scalars or 1-D float64 arrays (one lane
# per sweep point) and ``bad`` is a boolean lane mask.  The contract is:
# for every lane NOT marked in ``bad`` on return, the lane's value is
# bit-identical to what the scalar closure would produce for that lane's
# environment.  Marking a lane bad is always safe (it is re-routed to the
# scalar per-point path); the closures therefore mark conservatively —
# non-finite results, magnitudes at or past 2**53 (where float64 loses the
# integer exactness the scalar interpreter's ``_coerce`` relies on), and
# per-lane domain errors.  When *no* array is involved, every operation
# defers to the exact scalar semantics (``_coerce``, builtins, ``math``),
# so constant subtrees stay bit-identical by construction.

_np = _aops.np
_nd = _np.ndarray

_ARITH_OP = {"+": operator.add, "-": operator.sub, "*": operator.mul,
             "/": operator.truediv}
_LANEWISE_OP = {"//": operator.floordiv, "%": operator.mod,
                "^": guarded_pow}
_CMP_OP = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
           ">=": operator.ge, "==": operator.eq, "!=": operator.ne}

#: intrinsics whose ufunc twin is bit-identical to the libm scalar call
#: for every finite float64 (sqrt is IEEE correctly rounded; ceil/floor
#: are exact).  log/log2/exp stay lane-wise: NumPy's SIMD paths may differ
#: from libm by an ulp, which would break bit-identity.
_UFUNC_INTRINSICS = {"sqrt": _np.sqrt, "ceil": _np.ceil,
                     "floor": _np.floor}
_LANEWISE_INTRINSICS = {"log": math.log, "log2": math.log2,
                        "exp": math.exp}


def _v_all_bad(env, bad):
    """Fallback vector closure: route every lane to the scalar path."""
    bad |= True
    return 0.0


def _lanewise1(py, v, bad):
    """Apply a scalar unary function per lane (exact libm semantics)."""
    vals = v.tolist()
    out = _np.empty(len(vals), dtype=_np.float64)
    for i, x in enumerate(vals):
        try:
            out[i] = py(x)
        except Exception:
            bad[i] = True
            out[i] = 0.0
    return _aops.mark_unsafe(out, bad)


def _lanewise2(py, a, b, bad):
    """Apply a scalar binary op per lane with true Python semantics
    (``//``/``%`` int-vs-float behavior, guarded power)."""
    a_list = a.tolist() if isinstance(a, _nd) else None
    b_list = b.tolist() if isinstance(b, _nd) else None
    n = len(a_list if a_list is not None else b_list)
    out = _np.empty(n, dtype=_np.float64)
    for i in range(n):
        x = a_list[i] if a_list is not None else a
        y = b_list[i] if b_list is not None else b
        try:
            out[i] = py(x, y)
        except Exception:
            bad[i] = True
            out[i] = 0.0
    return _aops.mark_unsafe(out, bad)


def _vemit(expr: Expr, depth: int) -> Callable:
    """Build the vector closure for one node (recursive composition)."""
    if depth > _MAX_COMPILE_DEPTH:
        raise _TooDeep
    t = type(expr)
    if t is Num:
        value = expr.value
        if isinstance(value, float) and not math.isfinite(value):
            raise _TooDeep
        return lambda env, bad, _v=value: _v
    if t is Var:
        name = expr.name
        return lambda env, bad, _n=name: env[_n]
    if t is Unary:
        operand = _vemit(expr.operand, depth + 1)
        if expr.op == "-":
            def fn(env, bad, _o=operand):
                v = _o(env, bad)
                if isinstance(v, _nd):
                    return -v
                return _coerce(-v)
            return fn

        def fn(env, bad, _o=operand):
            v = _o(env, bad)
            if isinstance(v, _nd):
                # per-lane `0 if v else 1` (NaN is truthy → 0, matching
                # `nan == 0` being false)
                return (v == 0).astype(_np.float64)
            return 0 if v else 1
        return fn
    if t is Binary:
        left = _vemit(expr.left, depth + 1)
        right = _vemit(expr.right, depth + 1)
        py = _ARITH_OP.get(expr.op)
        if py is not None:
            def fn(env, bad, _l=left, _r=right, _py=py):
                a = _l(env, bad)
                b = _r(env, bad)
                if isinstance(a, _nd) or isinstance(b, _nd):
                    _aops.check_exact(a, bad)
                    _aops.check_exact(b, bad)
                    return _aops.mark_unsafe(_py(a, b), bad)
                return _coerce(_py(a, b))
            return fn
        py = _LANEWISE_OP[expr.op]

        def fn(env, bad, _l=left, _r=right, _py=py):
            a = _l(env, bad)
            b = _r(env, bad)
            if isinstance(a, _nd) or isinstance(b, _nd):
                return _lanewise2(_py, a, b, bad)
            return _coerce(_py(a, b))
        return fn
    if t is Compare:
        left = _vemit(expr.left, depth + 1)
        right = _vemit(expr.right, depth + 1)
        py = _CMP_OP.get(expr.op)
        if py is None:
            raise _TooDeep

        def fn(env, bad, _l=left, _r=right, _py=py):
            a = _l(env, bad)
            b = _r(env, bad)
            if isinstance(a, _nd) or isinstance(b, _nd):
                _aops.check_exact(a, bad)
                _aops.check_exact(b, bad)
                return _py(a, b).astype(_np.float64)
            return 1 if _py(a, b) else 0
        return fn
    if t is Bool:
        fns = [_vemit(o, depth + 1) for o in expr.operands]
        is_and = expr.op == "and"

        def fn(env, bad, _fns=fns, _and=is_and):
            acc = None
            for sub in _fns:
                if acc is not None and not isinstance(acc, _nd):
                    # scalar short-circuit, exactly like the interpreter
                    # (later operands — and their errors — never run)
                    if _and and not acc:
                        break
                    if not _and and acc:
                        break
                v = sub(env, bad)
                tv = _aops.truthy(v)
                if acc is None:
                    acc = tv
                elif isinstance(acc, _nd) or isinstance(tv, _nd):
                    acc = (_np.logical_and if _and
                           else _np.logical_or)(acc, tv)
                else:
                    acc = (acc and tv) if _and else (acc or tv)
            if isinstance(acc, _nd):
                return acc.astype(_np.float64)
            return 1 if acc else 0
        return fn
    if t is Func:
        return _vemit_func(expr, depth)
    raise _TooDeep


def _vemit_func(expr: Func, depth: int) -> Callable:
    name = expr.name
    if name not in FUNCTIONS:
        raise _TooDeep
    scalar_fn = FUNCTIONS[name]
    args = [_vemit(a, depth + 1) for a in expr.args]
    if name in ("min", "max"):
        if len(args) < 2:
            raise _TooDeep     # scalar call raises; keep the canonical path
        red = _np.minimum if name == "min" else _np.maximum

        def fn(env, bad, _args=args, _red=red, _py=scalar_fn):
            vals = [a(env, bad) for a in args]
            if any(isinstance(v, _nd) for v in vals):
                acc = _aops.check_exact(vals[0], bad)
                for v in vals[1:]:
                    acc = _red(acc, _aops.check_exact(v, bad))
                return acc
            return _coerce(_py(*vals))
        return fn
    if name == "pow":
        if len(args) != 2:
            raise _TooDeep

        def fn(env, bad, _l=args[0], _r=args[1]):
            a = _l(env, bad)
            b = _r(env, bad)
            if isinstance(a, _nd) or isinstance(b, _nd):
                return _lanewise2(guarded_pow, a, b, bad)
            return _coerce(guarded_pow(a, b))
        return fn
    if len(args) != 1:
        raise _TooDeep
    arg = args[0]
    if name == "abs":
        def fn(env, bad, _a=arg):
            v = _a(env, bad)
            if isinstance(v, _nd):
                return _np.abs(v)
            return _coerce(abs(v))
        return fn
    ufunc = _UFUNC_INTRINSICS.get(name)
    if ufunc is not None:
        def fn(env, bad, _a=arg, _uf=ufunc, _py=scalar_fn):
            v = _a(env, bad)
            if isinstance(v, _nd):
                # sqrt of a negative lane yields NaN → marked unsafe →
                # the scalar fallback raises the canonical domain error
                return _aops.mark_unsafe(_uf(v), bad)
            return _coerce(_py(v))
        return fn
    lanewise = _LANEWISE_INTRINSICS.get(name)
    if lanewise is None:
        raise _TooDeep

    def fn(env, bad, _a=arg, _py=lanewise):
        v = _a(env, bad)
        if isinstance(v, _nd):
            return _lanewise1(_py, v, bad)
        return _coerce(_py(v))
    return fn


def compile_expr_vector(expr: Expr) -> Callable:
    """Compile ``expr`` into a lane-wise vector closure (memoized).

    The returned ``fn(env, bad)`` evaluates against an environment whose
    values may be 1-D float64 arrays.  Lanes whose result could diverge
    from the scalar path (domain errors, overflow past exact-integer
    range) are flagged in the ``bad`` mask; unflagged lanes are
    bit-identical to :func:`compile_expr` on the per-lane environment.
    Expressions the vector target cannot handle compile to a closure that
    flags every lane — never an error.
    """
    cached = _VCACHE.get(expr)
    if cached is not None:
        _STATS["vector_cache_hits"] += 1
        return cached
    started = time.perf_counter()
    try:
        body = _vemit(expr, 0)
    except Exception:        # depth guard, unknown node, bad arity
        body = None
    if body is None:
        fn = _v_all_bad
    else:
        def fn(env, bad, _body=body):
            try:
                return _body(env, bad)
            except Exception:
                # lane-uniform failure (unbound name, scalar divide by
                # zero, ...): every lane re-runs scalar and raises the
                # canonical error there
                bad |= True
                return 0.0
    _STATS["vector_compiles"] += 1
    _STATS["compile_seconds"] += time.perf_counter() - started
    if len(_VCACHE) < _CACHE_LIMIT:
        _VCACHE[expr] = fn
    return fn
