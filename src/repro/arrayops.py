"""Scalar/array dispatch helpers for the vectorized sweep backend.

The vector backend (DESIGN.md §10) evaluates a whole input sweep against a
structure-of-arrays register file.  Registers then hold either plain Python
scalars (input-independent values, identical across lanes) or 1-D
``float64`` arrays (one lane per sweep point).  The helpers here let the
replay code treat both uniformly while keeping the scalar code path
bit-identical to the interpreter: when no array is involved they defer to
the exact builtins the scalar builder uses.
"""

from __future__ import annotations

import numpy as np

#: magnitude at which float64 stops representing every integer exactly.
#: The scalar interpreter coerces exact-integer floats back to ``int`` and
#: then does exact integer arithmetic; below this limit float64 arithmetic
#: reproduces that bit-for-bit, so any lane that meets or exceeds it is
#: marked for the scalar fallback instead.
UNSAFE_LIMIT = float(2 ** 53)


def is_array(value) -> bool:
    """True when ``value`` is a NumPy array (lane-varying register)."""
    return isinstance(value, np.ndarray)


def vmin(a, b):
    """``min`` that matches the builtin for scalars, ``np.minimum`` else."""
    if is_array(a) or is_array(b):
        return np.minimum(a, b)
    return min(a, b)


def vmax(a, b):
    """``max`` that matches the builtin for scalars, ``np.maximum`` else."""
    if is_array(a) or is_array(b):
        return np.maximum(a, b)
    return max(a, b)


def vwhere(cond, a, b):
    """Lane select: ``a if cond else b`` (elementwise when any is array)."""
    if is_array(cond) or is_array(a) or is_array(b):
        return np.where(cond, a, b)
    return a if cond else b


def truthy(value):
    """Python truthiness, lane-wise for arrays.

    Matches ``bool(x)`` per lane: non-zero is true, and NaN is true
    (``nan != 0`` holds in both worlds).
    """
    if is_array(value):
        return value != 0
    return bool(value)


def mark_unsafe(value, bad):
    """Flag lanes whose float64 value may diverge from the scalar path.

    A lane is unsafe when its value is non-finite or its magnitude reaches
    :data:`UNSAFE_LIMIT` (where float64 rounds integers the scalar
    interpreter would keep exact).  ``~(|v| < limit)`` also catches NaN.
    ``bad`` is a boolean lane mask mutated in place; returns ``value``.
    """
    if is_array(value):
        bad |= ~(np.abs(value) < UNSAFE_LIMIT)
    elif isinstance(value, (int, float)):
        if not (-UNSAFE_LIMIT < value < UNSAFE_LIMIT):
            bad |= True
    return value


def check_exact(scalar, bad):
    """Flag every lane when a *scalar* operand mixing into an array op is a
    Python int too large for float64 to represent exactly (the implicit
    conversion would round it before the op even runs)."""
    if isinstance(scalar, int) and not isinstance(scalar, bool):
        if not (-UNSAFE_LIMIT < scalar < UNSAFE_LIMIT):
            bad |= True
    return scalar
