"""Property-based tests (hypothesis) for the vectorized sweep backend:
every lane of a batched tape replay must be bit-identical to a fresh
scalar build of that point — annotations, metrics, and ENR for lanes the
batch keeps, and the canonical scalar result (value or error) for lanes
it routes to the fallback path.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bet import SymbolicBET, build_bet
from repro.skeleton.parser import parse_skeleton

SOURCE = """
param n = 64
param m = 8
param pr = 0.3
def kernel(k)
  comp k * 2 flops
  load k float64 from data
end
def main(n, m, pr)
  for i = 0 : n as "outer"
    if prob pr
      comp n * m flops div m
    else
      comp n flops
      store m float64 to data
    end
  end
  call kernel(n * m)
end
"""

PROGRAM = parse_skeleton(SOURCE)

# pr draws 0.0 / 1.0 with inflated likelihood: those lanes change the
# branch shape and must exercise the fallback mask, not silently diverge
point = st.fixed_dictionaries({
    "n": st.one_of(st.just(0.0), st.floats(min_value=1, max_value=4096,
                                           allow_nan=False)),
    "m": st.floats(min_value=1, max_value=64, allow_nan=False),
    "pr": st.one_of(st.just(0.0), st.just(1.0),
                    st.floats(min_value=0, max_value=1,
                              allow_nan=False)),
})
batches = st.lists(point, min_size=1, max_size=6)


def signature(node):
    m = node.own_metrics
    return (node.kind, str(node.stmt), node.note, node.prob,
            node.num_iter, node.enr,
            (m.flops, m.iops, m.div_flops, m.vec_flops, m.loads,
             m.stores, m.load_bytes, m.store_bytes, m.static_size),
            tuple(sorted(node.context.items())),
            tuple(signature(child) for child in node.children))


def walk(node):
    yield node
    for child in node.children:
        yield from walk(child)


def lane(value, index):
    return float(value[index]) if getattr(value, "ndim", 0) else float(value)


class TestBatchReplayMatchesFreshBuilds:
    @given(batches)
    @settings(max_examples=100, deadline=None)
    def test_every_lane_bit_identical(self, points):
        sym = SymbolicBET(PROGRAM)
        cols = {name: [p[name] for p in points]
                for name in ("n", "m", "pr")}
        batch = sym.rebind_batch(cols)
        for i, inputs in enumerate(points):
            fresh = build_bet(PROGRAM, inputs=inputs)
            if batch.bad[i]:
                # fallback lane: the scalar path the engine re-binds
                # through must produce the canonical fresh-build tree
                assert signature(sym.bind(inputs)) == signature(fresh)
                continue
            for got, ref in zip(walk(batch.root), walk(fresh)):
                assert lane(batch.prob(got), i) == ref.prob
                assert lane(batch.num_iter(got), i) == ref.num_iter
                assert lane(batch.enr(got), i) == ref.enr
                fields = (ref.own_metrics.flops, ref.own_metrics.iops,
                          ref.own_metrics.div_flops,
                          ref.own_metrics.vec_flops,
                          ref.own_metrics.loads, ref.own_metrics.stores,
                          ref.own_metrics.load_bytes,
                          ref.own_metrics.store_bytes,
                          ref.own_metrics.static_size)
                for field, value in zip(batch.metric_fields(got), fields):
                    assert lane(field, i) == value

    @given(batches)
    @settings(max_examples=50, deadline=None)
    def test_batch_never_mutates_scalar_replay(self, points):
        # a batch replay and a scalar replay interleaved on one
        # SymbolicBET must not corrupt each other's annotations
        sym = SymbolicBET(PROGRAM)
        cols = {name: [p[name] for p in points]
                for name in ("n", "m", "pr")}
        sym.rebind_batch(cols)
        probe = {"n": 64.0, "m": 8.0, "pr": 0.3}
        assert signature(sym.bind(probe)) == \
            signature(build_bet(PROGRAM, inputs=probe))
