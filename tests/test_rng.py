"""Tests for the shared deterministic-randomness helper (`repro.rng`):
stability of the SHA-256 derivations, equivalence with the legacy
per-module hash code it replaced (retry jitter, seeded chaos), and the
CounterRNG stream/shuffle/sampling utilities the explorer builds on.
"""

import hashlib

import pytest

from repro.parallel import RetryPolicy
from repro.parallel.chaos import ChaosSchedule
from repro.rng import CounterRNG, integer, unit_fraction


def _legacy_fraction(index, attempt):
    """The pre-PR8 derivation RetryPolicy carried privately."""
    digest = hashlib.sha256(f"{index}:{attempt}".encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2.0 ** 64


class TestDerivations:
    def test_unit_fraction_range_and_determinism(self):
        values = [unit_fraction(i, "x") for i in range(200)]
        assert all(0.0 <= v < 1.0 for v in values)
        assert values == [unit_fraction(i, "x") for i in range(200)]
        assert len(set(values)) == 200

    def test_unit_fraction_matches_legacy_retry_derivation(self):
        for index in range(8):
            for attempt in range(1, 5):
                assert unit_fraction(index, attempt) == \
                    _legacy_fraction(index, attempt)

    def test_retry_jitter_unchanged_by_extraction(self):
        policy = RetryPolicy(max_attempts=4, base_delay=0.1, jitter=0.5)
        for index in (0, 3, 17):
            for attempt in (1, 2, 3):
                raw = min(0.1 * 2.0 ** (attempt - 1), policy.max_delay)
                expected = raw * (1.0 + 0.5 * _legacy_fraction(index,
                                                               attempt))
                assert policy.delay(attempt, index) == expected

    def test_seeded_chaos_unchanged_by_extraction(self):
        schedule = ChaosSchedule.seeded(42, 12, kinds=("kill", "stall"),
                                        events_per_kind=2)
        # the same digest the old inline code computed
        def legacy_pick(seed, kind, draw, modulus):
            digest = hashlib.sha256(f"{seed}:{kind}:{draw}".encode())
            return int.from_bytes(digest.digest()[:8], "big") % modulus
        expected = []
        for kind in ("kill", "stall"):
            chosen, draw = [], 0
            while len(chosen) < 2:
                shard = legacy_pick(42, kind, draw, 12)
                draw += 1
                if shard not in chosen:
                    chosen.append(shard)
            expected.extend((kind, shard) for shard in sorted(chosen))
        assert [(e.kind, e.shard) for e in schedule.events] == expected

    def test_integer_bounds(self):
        for modulus in (1, 2, 7, 1000):
            values = [integer(modulus, "seed", i) for i in range(50)]
            assert all(0 <= v < modulus for v in values)
        with pytest.raises(ValueError):
            integer(0, "seed")


class TestCounterRNG:
    def test_stream_is_deterministic(self):
        a = CounterRNG("explore", 7)
        b = CounterRNG("explore", 7)
        assert [a.fraction() for _ in range(10)] == \
            [b.fraction() for _ in range(10)]
        assert a.counter == 10

    def test_different_seeds_differ(self):
        a = CounterRNG("explore", 7)
        b = CounterRNG("explore", 8)
        assert [a.fraction() for _ in range(10)] != \
            [b.fraction() for _ in range(10)]

    def test_shuffle_and_permutation(self):
        items = list(range(20))
        CounterRNG("shuffle", 1).shuffle(items)
        assert sorted(items) == list(range(20))
        assert items != list(range(20))
        assert CounterRNG("shuffle", 1).permutation(20) == \
            CounterRNG("shuffle", 1).permutation(20)

    def test_sample_distinct(self):
        rng = CounterRNG("sample", 0)
        picked = rng.sample_distinct(1000, 30)
        assert len(picked) == 30 == len(set(picked))
        assert all(0 <= p < 1000 for p in picked)
        assert picked == CounterRNG("sample", 0).sample_distinct(1000, 30)

    def test_sample_distinct_excludes(self):
        exclude = set(range(0, 1000, 2))
        picked = CounterRNG("sample", 1).sample_distinct(1000, 40,
                                                         exclude=exclude)
        assert len(picked) == 40
        assert not exclude.intersection(picked)

    def test_sample_distinct_dense_request(self):
        # more than half the population: switches to shuffled enumeration
        picked = CounterRNG("dense", 0).sample_distinct(10, 8)
        assert len(picked) == 8 == len(set(picked))
        everything = CounterRNG("dense", 1).sample_distinct(5, 99)
        assert sorted(everything) == list(range(5))


#: the first four draws of SHAKE-256 over "block:0:1", which FIPS 202
#: fixes on every platform
FIRST_BLOCK = [0xdff8412d1782eede, 0xfd66d8d973ceac56,
               0x8ea59fe1af469820, 0x1bdb0b7cbf469cc3]


class TestBlockDraws:
    def test_first_block_is_pinned(self):
        rng = CounterRNG("block", 0)
        assert rng.block(4).tolist() == FIRST_BLOCK
        assert rng.counter == 1
        # a longer block starts with the same draws
        assert CounterRNG("block", 0).block(64)[:4].tolist() == FIRST_BLOCK

    def test_blocks_advance_the_counter(self):
        rng = CounterRNG("block", 0)
        first, second = rng.block(8).tolist(), rng.block(8).tolist()
        assert rng.counter == 2 and first != second

    def test_candidate_pool_sized_draw(self):
        exclude = set(range(3, 10 ** 6, 3907))
        assert len(exclude) == 256
        picked = CounterRNG("pool", 0).sample_distinct(
            10 ** 6, 2048, exclude=exclude)
        assert len(picked) == 2048 == len(set(picked))
        assert all(0 <= index < 10 ** 6 for index in picked)
        assert not exclude.intersection(picked)
        assert picked == CounterRNG("pool", 0).sample_distinct(
            10 ** 6, 2048, exclude=exclude)

    def test_short_block_is_topped_up(self):
        # 499 of 1000 excluded and 250 wanted, just under half of the 501
        # left: the rejection path runs and its first block falls short
        exclude = set(range(0, 998, 2))
        rng = CounterRNG("top-up", 0)
        picked = rng.sample_distinct(1000, 250, exclude=exclude)
        assert rng.counter > 1
        assert len(picked) == 250 == len(set(picked))
        assert all(0 <= index < 1000 for index in picked)
        assert not exclude.intersection(picked)
