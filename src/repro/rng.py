"""Deterministic SHA-256 counter-stream randomness.

Every stochastic-looking decision in this codebase must be reproducible:
retry jitter, chaos schedules, the explorer's initial design and
candidate pools.  None of them may depend on wall clock, global RNG
state, or Python hash randomization — the equivalence suites assert
bit-identical behaviour across runs, processes, and machines.

This module is the single source of that determinism.  A draw is a pure
function of its *key*: the parts are stringified, joined with ``:``,
hashed with SHA-256, and the first 8 bytes become a 64-bit integer.
:func:`unit_fraction` maps it into [0, 1); :func:`integer` reduces it
modulo a bound.  :class:`CounterRNG` layers a stateful counter on top
for stream-style consumption (each draw appends the next counter value
to the seed key), which stays deterministic as long as the *order* of
draws is deterministic — and, because each draw is independently keyed,
two streams with different seeds never correlate.

Consumers: :class:`~repro.parallel.RetryPolicy` backoff jitter,
:meth:`~repro.parallel.ChaosSchedule.seeded`, and the
:mod:`repro.explore` sampler and surrogates.
"""

from __future__ import annotations

import hashlib
from typing import Any, List, Sequence

__all__ = ["unit_fraction", "integer", "CounterRNG"]

#: 2^64 — the scale of the 8-byte digest prefix
_SCALE = 2.0 ** 64


def _digest(parts: Sequence[Any]) -> bytes:
    """SHA-256 digest of the ``:``-joined stringified parts."""
    text = ":".join(str(part) for part in parts)
    return hashlib.sha256(text.encode("utf-8")).digest()


def unit_fraction(*parts: Any) -> float:
    """A stable pseudo-random fraction in [0, 1) derived from ``parts``.

    Identical across runs, processes, platforms, and hash randomization:
    the value is a pure function of ``str(part)`` for each part.
    """
    return int.from_bytes(_digest(parts)[:8], "big") / _SCALE


def integer(modulus: int, *parts: Any) -> int:
    """A stable pseudo-random integer in [0, modulus) from ``parts``."""
    if modulus < 1:
        raise ValueError("modulus must be >= 1")
    return int.from_bytes(_digest(parts)[:8], "big") % modulus


class CounterRNG:
    """A deterministic draw stream keyed by ``(seed parts, counter)``.

    Each draw hashes the seed key plus an incrementing counter, so a
    stream is fully determined by its construction arguments and the
    order of calls — no hidden state beyond the counter, nothing shared
    between instances.  Construct one per decision site (e.g. one per
    surrogate bag, one per exploration round) so unrelated decisions
    never consume each other's draws.
    """

    def __init__(self, *seed_parts: Any):
        self._seed = ":".join(str(part) for part in seed_parts)
        self._counter = 0
        # every draw hashes ``<seed>:<counter>``; the shared prefix is
        # absorbed once and each draw resumes from a copy of that state
        self._prefix = hashlib.sha256((self._seed + ":").encode("utf-8"))

    @property
    def counter(self) -> int:
        """Number of draws consumed so far."""
        return self._counter

    def _next(self) -> int:
        """The next draw's 64-bit integer: the digest prefix of
        ``<seed>:<counter>``, exactly as :func:`unit_fraction` and
        :func:`integer` derive it."""
        self._counter += 1
        state = self._prefix.copy()
        state.update(str(self._counter).encode("utf-8"))
        return int.from_bytes(state.digest()[:8], "big")

    def fraction(self) -> float:
        """Next fraction in [0, 1)."""
        return self._next() / _SCALE

    def randint(self, modulus: int) -> int:
        """Next integer in [0, modulus)."""
        if modulus < 1:
            raise ValueError("modulus must be >= 1")
        return self._next() % modulus

    def shuffle(self, items: List[Any]) -> None:
        """In-place Fisher–Yates shuffle driven by the stream."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randint(i + 1)
            items[i], items[j] = items[j], items[i]

    def permutation(self, count: int) -> List[int]:
        """A deterministic permutation of ``range(count)``."""
        items = list(range(count))
        self.shuffle(items)
        return items

    def sample_distinct(self, population: int, count: int,
                        exclude=None) -> List[int]:
        """``count`` distinct integers in [0, population), in draw order.

        ``exclude`` is an optional membership container of indices never
        to return.  Rejection-samples the stream, so it stays cheap while
        ``count + len(exclude)`` is small relative to ``population``;
        when more than half the population is requested it switches to a
        shuffled enumeration instead.
        """
        excluded = exclude if exclude is not None else ()
        available = population - (len(excluded)
                                  if hasattr(excluded, "__len__") else 0)
        count = min(count, max(0, available))
        if count <= 0:
            return []
        if count * 2 >= available:
            candidates = [index for index in range(population)
                          if index not in excluded]
            self.shuffle(candidates)
            return candidates[:count]
        chosen: List[int] = []
        seen = set()
        # each miss consumes one draw; the loop is bounded because the
        # target set is at most half the available population
        while len(chosen) < count:
            index = self.randint(population)
            if index in seen or index in excluded:
                continue
            seen.add(index)
            chosen.append(index)
        return chosen
