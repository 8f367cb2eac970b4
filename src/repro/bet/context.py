"""Probabilistic execution contexts.

A context is the paper's "set of variables that would affect branch
outcomes, loop boundaries, and data accesses" together with the probability
of the execution reaching this point with exactly these values (Sec. IV-A).
Branches split contexts; identical environments are merged by summing
probabilities — the observation that branch outcomes correlate in real
workloads is what keeps the BET close to BST size (Sec. IV-B).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple, Union

Number = Union[int, float]


class Context:
    """A weighted variable environment.

    ``prob`` is always relative to one invocation of the enclosing code
    block (the builder rescales when crossing block boundaries).
    """

    __slots__ = ("env", "prob")

    def __init__(self, env: Dict[str, Number], prob: float = 1.0):
        if prob < 0 or prob > 1 + 1e-9:
            raise ValueError(f"context probability {prob} outside [0, 1]")
        self.env = env
        self.prob = min(prob, 1.0)

    def fork(self, prob_factor: float = 1.0, **updates: Number) -> "Context":
        """Copy with probability scaled and selected variables rebound."""
        env = dict(self.env)
        env.update(updates)
        return Context(env, self.prob * prob_factor)

    def assign(self, name: str, value: Number) -> "Context":
        """Copy with one variable rebound (probability unchanged)."""
        env = dict(self.env)
        env[name] = value
        return Context(env, self.prob)

    def alive(self, epsilon: float = 1e-12) -> bool:
        return self.prob > epsilon

    def _freeze(self) -> Tuple[Tuple[str, Number], ...]:
        return tuple(sorted(self.env.items()))

    def __repr__(self):
        shown = ", ".join(f"{k}={v}" for k, v in sorted(self.env.items()))
        return f"<Context p={self.prob:.4g} {{{shown}}}>"


def merge_contexts(contexts: Iterable[Context],
                   epsilon: float = 1e-12) -> List[Context]:
    """Merge contexts with identical environments by summing probabilities.

    Dead contexts (probability ≈ 0) are dropped.  Order of first occurrence
    is preserved so BET construction stays deterministic.
    """
    merged: Dict[Tuple, Context] = {}
    order: List[Tuple] = []
    for context in contexts:
        if not context.alive(epsilon):
            continue
        key = context._freeze()
        if key in merged:
            existing = merged[key]
            merged[key] = Context(existing.env,
                                  min(existing.prob + context.prob, 1.0))
        else:
            merged[key] = context
            order.append(key)
    return [merged[key] for key in order]
