"""Property-based tests for the core model invariants.

Random skeleton programs are generated from a constrained grammar, then the
BET, the roofline characterization, and the executor are checked against
structural invariants the paper states or implies:

* probabilities stay in [0, 1], ENR is non-negative;
* BET size never exceeds the 2^B bound and is input-size independent;
* block records partition the projected runtime;
* the executor's dynamic flop count equals the BET's expected flop count
  for deterministic programs (no probabilistic constructs);
* the printer/parser round-trip preserves the model.
"""

import pytest
from hypothesis import given, settings, HealthCheck
from hypothesis import strategies as st

from repro.analysis import characterize, total_time
from repro.bet import build_bet
from repro.hardware import BGQ, RooflineModel
from repro.simulate import execute
from repro.skeleton import format_skeleton, parse_skeleton

# -- random skeleton generation ----------------------------------------------

_counter = [0]


def _statements(depth, deterministic):
    leaf = st.sampled_from([
        "comp 8 flops",
        "comp 3 flops div 1",
        "comp 5 iops",
        "load 16 float64 from data",
        "store 4 float64 to data",
        "comp 2 * n flops",
        "load n float64 from data",
    ])
    if depth == 0:
        return st.lists(leaf, min_size=1, max_size=3)

    sub = _statements(depth - 1, deterministic)

    def make_for(args):
        trip, body = args
        lines = [f"for i{depth} = 0 : {trip}"]
        lines += [f"  {line}" for line in body]
        lines.append("end")
        return lines

    def make_if(args):
        prob, then, other = args
        condition = f"prob {prob}" if not deterministic else "n > 10"
        lines = [f"if {condition}"]
        lines += [f"  {line}" for line in then]
        lines.append("else")
        lines += [f"  {line}" for line in other]
        lines.append("end")
        return lines

    block = st.one_of(
        st.tuples(st.integers(min_value=0, max_value=6), sub).map(make_for),
        st.tuples(st.sampled_from([0.25, 0.5, 0.75]), sub, sub).map(
            make_if),
    )
    return st.lists(st.one_of(leaf.map(lambda s: [s]), block),
                    min_size=1, max_size=3).map(
        lambda groups: [line for group in groups for line in group])


def programs(deterministic=False):
    def assemble(body):
        lines = ["param n = 32", "def main(n)",
                 "  array data: float64[n][n]"]
        lines += [f"  {line}" for line in body]
        lines.append("end")
        return "\n".join(lines) + "\n"
    return _statements(2, deterministic).map(assemble)


COMMON = dict(max_examples=60,
              suppress_health_check=[HealthCheck.too_slow],
              deadline=None)


class TestBETInvariants:
    @given(programs())
    @settings(**COMMON)
    def test_probabilities_and_enr_valid(self, source):
        program = parse_skeleton(source)
        root = build_bet(program)
        for node in root.walk():
            assert 0.0 <= node.prob <= 1.0 + 1e-9
            assert node.num_iter >= 0.0
            assert node.enr >= 0.0

    @given(programs())
    @settings(**COMMON)
    def test_bet_size_bounded(self, source):
        program = parse_skeleton(source)
        root = build_bet(program)
        branches = source.count("if ")
        assert root.size() <= program.statement_count() * 2 ** max(
            branches, 1)

    @given(programs())
    @settings(**COMMON)
    def test_bet_size_input_invariant(self, source):
        program = parse_skeleton(source)
        small = build_bet(program, inputs={"n": 8})
        large = build_bet(parse_skeleton(source), inputs={"n": 8192})
        assert small.size() == large.size()

    @given(programs())
    @settings(**COMMON)
    def test_parent_child_links_consistent(self, source):
        root = build_bet(parse_skeleton(source))
        for node in root.walk():
            for child in node.children:
                assert child.parent is node

    @given(programs())
    @settings(**COMMON)
    def test_metrics_nonnegative(self, source):
        root = build_bet(parse_skeleton(source))
        for node in root.walk():
            m = node.own_metrics
            assert m.flops >= 0 and m.iops >= 0
            assert m.load_bytes >= 0 and m.store_bytes >= 0
            assert m.div_flops <= m.flops + 1e-9


class TestCharacterizationInvariants:
    @given(programs())
    @settings(**COMMON)
    def test_records_partition_total(self, source):
        program = parse_skeleton(source)
        root = build_bet(program)
        records = characterize(root, RooflineModel(BGQ))
        assert total_time(records) == pytest.approx(
            sum(r.total for r in records))
        for record in records:
            assert record.total >= 0
            assert record.time.overlap <= min(record.time.compute,
                                              record.time.memory) + 1e-12

    @given(programs())
    @settings(**COMMON)
    def test_faster_machine_never_slower(self, source):
        program = parse_skeleton(source)
        root = build_bet(program)
        base = total_time(characterize(root, RooflineModel(BGQ)))
        faster = BGQ.with_overrides(frequency_hz=BGQ.frequency_hz * 2,
                                    bandwidth=BGQ.bandwidth * 2)
        boosted = total_time(characterize(root, RooflineModel(faster)))
        assert boosted <= base + 1e-15


class TestModelMatchesExecutor:
    @given(programs(deterministic=True))
    @settings(**COMMON)
    def test_deterministic_flops_agree(self, source):
        """For programs without probabilistic constructs the BET's expected
        flop count equals the executor's exact dynamic count."""
        program = parse_skeleton(source)
        root = build_bet(program)
        expected = sum(b.own_metrics.flops * b.enr for b in root.blocks())
        measured = execute(program, BGQ, seed=0).totals().flops
        assert measured == pytest.approx(expected, rel=1e-9, abs=1e-6)

    @given(programs())
    @settings(max_examples=30,
              suppress_health_check=[HealthCheck.too_slow], deadline=None)
    def test_probabilistic_flops_agree_in_expectation(self, source):
        program = parse_skeleton(source)
        root = build_bet(program)
        expected = sum(b.own_metrics.flops * b.enr for b in root.blocks())
        # 200 sampled runs, not 5: with most flops behind one prob-0.25
        # arm, 3 hits in 5 runs (about one chance in ten) already broke
        # the bound below; in 200 runs the odds are below 1e-11
        runs = [execute(parse_skeleton(source), BGQ, seed=s).totals().flops
                for s in range(200)]
        mean = sum(runs) / len(runs)
        if expected > 0:
            # allow generous relative error plus absolute slack so tiny
            # expectations (a handful of flops behind a prob-0.5 arm)
            # cannot flake the suite
            assert abs(mean - expected) <= max(0.9 * expected, 32.0)
        else:
            assert mean == 0


class TestRoundTrip:
    @given(programs())
    @settings(**COMMON)
    def test_printer_parser_fixpoint(self, source):
        program = parse_skeleton(source)
        text = format_skeleton(program)
        assert format_skeleton(parse_skeleton(text)) == text

    @given(programs())
    @settings(**COMMON)
    def test_round_trip_preserves_model(self, source):
        program = parse_skeleton(source)
        text = format_skeleton(program)
        original = build_bet(program)
        rebuilt = build_bet(parse_skeleton(text))
        assert original.size() == rebuilt.size()
        original_time = total_time(characterize(original,
                                                RooflineModel(BGQ)))
        rebuilt_time = total_time(characterize(rebuilt,
                                               RooflineModel(BGQ)))
        assert rebuilt_time == pytest.approx(original_time, rel=1e-12)
