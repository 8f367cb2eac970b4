"""Tests for the analytic cache model and the access-pattern plumbing.

Covers the layer-condition fraction arithmetic (scalar and lane-array),
the ``stride`` / ``footprint`` / ``reuse`` skeleton clauses end to end
(parser → printer → builder → symbolic tape → executor), the lane-shaped
``BlockTime.bound`` / ``attainable_gflops`` regressions, the picklable
sweep factories, and the CLI ``--cache-model`` switch.
"""

import pickle

import numpy as np
import pytest

from repro.analysis.cachevalidate import validate_workload
from repro.bet import SymbolicBET, build_bet
from repro.cli import main as cli_main
from repro.errors import HardwareModelError, ReproError
from repro.hardware import (
    BGQ, ECMModel, RooflineModel, machine_by_name,
)
from repro.hardware.cachemodel import (
    CACHE_MODEL_NAMES, DEFAULT_MISS_RATE, AnalyticCacheModel,
    ConstantCacheModel, ECMFactory, RooflineFactory, cache_model_by_name,
)
from repro.hardware.metrics import Metrics
from repro.hardware.roofline import BlockTime
from repro.simulate import profile
from repro.skeleton import format_skeleton
from repro.skeleton.parser import parse_skeleton

MACHINE = machine_by_name("bgq")


def streaming(nbytes):
    """Plain unit-stride metrics: footprint == traffic."""
    return Metrics(loads=nbytes / 8, load_bytes=nbytes,
                   footprint_bytes=nbytes)


class TestConstantCacheModel:
    def test_matches_papers_split(self):
        model = ConstantCacheModel()
        f_l1, f_llc, f_dram = model.fractions(streaming(1024), MACHINE)
        miss = DEFAULT_MISS_RATE
        assert f_l1 == 1.0 - miss
        assert f_llc == miss * (1.0 - miss)
        assert f_dram == miss * miss

    def test_fractions_sum_to_one(self):
        f = ConstantCacheModel(miss_rate=0.4).fractions(
            streaming(64), MACHINE)
        assert sum(f) == pytest.approx(1.0)

    def test_rejects_bad_miss_rate(self):
        with pytest.raises(HardwareModelError):
            ConstantCacheModel(miss_rate=1.5)


class TestAnalyticCacheModel:
    def test_fits_l1(self):
        model = AnalyticCacheModel()
        fractions = model.fractions(streaming(MACHINE.l1_size / 2),
                                    MACHINE)
        assert fractions == (1.0, 0.0, 0.0)

    def test_fits_llc_only(self):
        model = AnalyticCacheModel()
        fractions = model.fractions(streaming(MACHINE.l1_size * 4),
                                    MACHINE)
        assert fractions == (0.0, 1.0, 0.0)

    def test_streams_from_dram(self):
        model = AnalyticCacheModel()
        fractions = model.fractions(streaming(MACHINE.llc_size * 2),
                                    MACHINE)
        assert fractions == (0.0, 0.0, 1.0)

    def test_zero_traffic_is_l1_served(self):
        assert AnalyticCacheModel().fractions(Metrics(), MACHINE) \
            == (1.0, 0.0, 0.0)

    def test_annotated_mixture(self):
        # half the traffic re-reads a tiny tile (reuse window fits L1),
        # the other half streams a DRAM-sized working set
        big = MACHINE.llc_size * 4.0
        tile = MACHINE.l1_size / 4.0
        metrics = Metrics(loads=big / 4, load_bytes=big * 2,
                          footprint_bytes=big,
                          reuse_bytes=big * tile,     # window == tile
                          reuse_traffic=big)
        f_l1, f_llc, f_dram = AnalyticCacheModel().fractions(metrics,
                                                             MACHINE)
        assert f_l1 == pytest.approx(0.5)
        assert f_llc == pytest.approx(0.0)
        assert f_dram == pytest.approx(0.5)

    def test_inclusive_subtraction(self):
        # annotated class hits L1; plain class hits the LLC: the LLC
        # fraction must be net of what L1 already served
        plain = MACHINE.l1_size * 16.0
        tile = MACHINE.l1_size / 4.0
        metrics = Metrics(loads=1.0, load_bytes=plain * 2,
                          footprint_bytes=plain,
                          reuse_bytes=plain * tile,
                          reuse_traffic=plain)
        f_l1, f_llc, f_dram = AnalyticCacheModel().fractions(metrics,
                                                             MACHINE)
        assert f_l1 == pytest.approx(0.5)
        assert f_llc == pytest.approx(0.5)
        assert f_dram == pytest.approx(0.0)

    def test_capacity_overrides(self):
        nbytes = 1 << 20
        grown = AnalyticCacheModel(l1_size=float(2 << 20))
        assert grown.fractions(streaming(nbytes), MACHINE) \
            == (1.0, 0.0, 0.0)
        shrunk = AnalyticCacheModel(l1_size=16.0, llc_size=32.0)
        assert shrunk.fractions(streaming(nbytes), MACHINE) \
            == (0.0, 0.0, 1.0)

    def test_rejects_bad_override(self):
        with pytest.raises(HardwareModelError):
            AnalyticCacheModel(l1_size=0.0)
        with pytest.raises(HardwareModelError):
            AnalyticCacheModel(llc_size=-1.0)

    def test_lane_array_capacity_sweep(self):
        # sweep the LLC size across the streaming cliff as a lane axis
        nbytes = float(1 << 24)
        sizes = np.array([nbytes / 2, nbytes, nbytes * 2])
        model = AnalyticCacheModel(l1_size=16.0, llc_size=sizes)
        f_l1, f_llc, f_dram = model.fractions(streaming(nbytes), MACHINE)
        assert list(f_llc) == [0.0, 1.0, 1.0]
        assert list(f_dram) == [1.0, 0.0, 0.0]
        assert not np.any(f_l1)

    def test_lane_array_metrics(self):
        # lane-shaped metrics (vector sweep backend): one window per lane
        footprints = np.array([MACHINE.l1_size / 2.0,
                               MACHINE.l1_size * 8.0,
                               MACHINE.llc_size * 2.0])
        metrics = Metrics._raw(loads=footprints / 8,
                               load_bytes=footprints,
                               footprint_bytes=footprints)
        f_l1, f_llc, f_dram = AnalyticCacheModel().fractions(metrics,
                                                             MACHINE)
        assert list(f_l1) == [1.0, 0.0, 0.0]
        assert list(f_llc) == [0.0, 1.0, 0.0]
        assert list(f_dram) == [0.0, 0.0, 1.0]


class TestFactoriesAndNames:
    def test_roofline_factory_pickles(self):
        factory = RooflineFactory(cache_model=AnalyticCacheModel(),
                                  model_division=True)
        clone = pickle.loads(pickle.dumps(factory))
        model = clone(MACHINE)
        assert isinstance(model, RooflineModel)
        assert isinstance(model.cache_model, AnalyticCacheModel)
        assert model.model_division

    def test_ecm_factory_pickles(self):
        factory = ECMFactory(cache_model=AnalyticCacheModel())
        model = pickle.loads(pickle.dumps(factory))(MACHINE)
        assert isinstance(model, ECMModel)
        assert isinstance(model.cache_model, AnalyticCacheModel)

    def test_by_name(self):
        assert cache_model_by_name("constant") is None
        assert isinstance(cache_model_by_name("analytic"),
                          AnalyticCacheModel)
        assert set(CACHE_MODEL_NAMES) == {"constant", "analytic"}
        with pytest.raises(HardwareModelError):
            cache_model_by_name("psychic")


class TestBlockTimeBound:
    def test_scalar(self):
        assert BlockTime(2.0, 1.0, 0.5, 2.5).bound == "compute"
        assert BlockTime(1.0, 2.0, 0.5, 2.5).bound == "memory"

    def test_lane_shaped(self):
        # regression: lane-shaped compute/memory used to raise the
        # ambiguous-truth-value error inside the scalar comparison
        compute = np.array([2.0, 1.0, 3.0])
        memory = np.array([1.0, 2.0, 3.0])
        time = BlockTime(compute, memory, compute * 0.0, compute + memory)
        assert list(time.bound) == ["compute", "memory", "compute"]


class TestAttainableGflops:
    def test_scalar_negative_raises(self):
        with pytest.raises(HardwareModelError):
            RooflineModel(MACHINE).attainable_gflops(-1.0)

    def test_scalar_ceiling(self):
        model = RooflineModel(MACHINE)
        assert model.attainable_gflops(1e9) \
            == MACHINE.peak_scalar_gflops

    def test_lane_poisons_negative(self):
        model = RooflineModel(MACHINE)
        out = model.attainable_gflops(np.array([0.5, -1.0, 1e9]))
        assert out[0] == pytest.approx(model.attainable_gflops(0.5))
        assert np.isnan(out[1])
        assert out[2] == MACHINE.peak_scalar_gflops


ANNOTATED = """
param n = 4096
param tile = 64
def main(n, tile)
  array field: float64[n]
  for i = 0 : n as "kernel"
    load n float64 from field stride 2 reuse (tile * 8)
    comp n flops
    store n float64 to field footprint (n * 4)
  end
end
"""


class TestAccessClauses:
    def test_parse_and_metrics(self):
        program = parse_skeleton(ANNOTATED)
        root = build_bet(program, inputs={"n": 1024.0, "tile": 64.0})
        kernel = next(node for node in root.blocks()
                      if node.own_metrics.load_bytes > 0)
        m = kernel.own_metrics
        nbytes = 1024.0 * 8
        # load: stride 2 doubles the spanned bytes; store: explicit
        # footprint overrides
        assert m.footprint_bytes == nbytes * 2 + 1024.0 * 4
        # reuse window clamps to at least the access's own footprint
        assert m.reuse_bytes == nbytes * max(64.0 * 8, nbytes * 2)
        assert m.reuse_traffic == nbytes

    def test_default_footprint_equals_traffic(self):
        program = parse_skeleton(
            "def main(n)\n"
            "  for i = 0 : n as \"plain\"\n"
            "    load n float64\n"
            "    store n float64\n"
            "  end\n"
            "end\n")
        root = build_bet(program, inputs={"n": 100.0})
        block = next(node for node in root.blocks()
                     if node.own_metrics.load_bytes > 0)
        m = block.own_metrics
        assert m.footprint_bytes == m.total_bytes
        assert m.reuse_bytes == 0.0
        assert m.reuse_traffic == 0.0

    def test_printer_round_trip(self):
        program = parse_skeleton(ANNOTATED)
        text = format_skeleton(program)
        assert "stride 2" in text
        assert "reuse (tile * 8)" in text
        assert "footprint (n * 4)" in text
        again = parse_skeleton(text)
        assert format_skeleton(again) == text

    def test_duplicate_clause_rejected(self):
        with pytest.raises(ReproError):
            parse_skeleton("def main(n)\n"
                           "  load n float64 stride 2 stride 4\n"
                           "end\n")

    def test_clause_names_not_reserved(self):
        # stride/footprint/reuse stay usable as ordinary identifiers
        program = parse_skeleton("def main(stride)\n"
                                 "  comp stride flops\n"
                                 "end\n")
        assert "main" in program.functions


class TestSymbolicClauses:
    def test_replay_matches_fresh_build(self):
        program = parse_skeleton(ANNOTATED)
        sym = SymbolicBET(program)
        for n in (512.0, 2048.0, 333.0):
            inputs = {"n": n, "tile": 16.0}
            replay = sym.bind(inputs)
            fresh = build_bet(program, inputs=inputs)
            for got, ref in zip(_walk(replay), _walk(fresh)):
                gm, rm = got.own_metrics, ref.own_metrics
                assert gm.footprint_bytes == rm.footprint_bytes
                assert gm.reuse_bytes == rm.reuse_bytes
                assert gm.reuse_traffic == rm.reuse_traffic

    def test_batch_lanes_match_fresh_builds(self):
        program = parse_skeleton(ANNOTATED)
        sym = SymbolicBET(program)
        cols = {"n": [256.0, 1024.0, 4096.0],
                "tile": [8.0, 64.0, 512.0]}
        batch = sym.rebind_batch(cols)
        assert not batch.bad.any()
        for i in range(batch.lanes):
            point = {name: values[i] for name, values in cols.items()}
            fresh = build_bet(program, inputs=point)
            for got, ref in zip(_walk(batch.root), _walk(fresh)):
                fields = batch.metric_fields(got)
                assert len(fields) == 12
                rm = ref.own_metrics
                for lane_value, ref_value in zip(
                        (fields[9], fields[10], fields[11]),
                        (rm.footprint_bytes, rm.reuse_bytes,
                         rm.reuse_traffic)):
                    got_value = lane_value[i] if hasattr(
                        lane_value, "__len__") else lane_value
                    assert got_value == ref_value


def _walk(node):
    yield node
    for child in node.children:
        yield from _walk(child)


class TestExecutorClauses:
    def _dram_bytes(self, source, inputs):
        program = parse_skeleton(source)
        result = profile(program, MACHINE, inputs=inputs)
        return result.execution.totals().dram_bytes

    def test_stride_widens_simulated_footprint(self):
        # footprint that fits the LLC at unit stride but spans past it
        # with stride 8: the strided variant streams from DRAM every
        # iteration while the dense one only pays the cold first touch
        count = int(MACHINE.llc_size / 2 / 8)
        template = ("param n = {count}\n"
                    "def main(n)\n"
                    "  for i = 0 : 8 as \"touch\"\n"
                    "    load n float64{clause}\n"
                    "  end\n"
                    "end\n")
        dense = self._dram_bytes(
            template.format(count=count, clause=""), {"n": count})
        strided = self._dram_bytes(
            template.format(count=count, clause=" stride 8"),
            {"n": count})
        assert strided > dense * 4

    def test_footprint_clause_restores_reuse(self):
        # a gather reading a large span but touching a tiny resident
        # set: the explicit footprint keeps it cache-resident after the
        # cold first iteration
        count = int(MACHINE.llc_size / 8)
        template = ("param n = {count}\n"
                    "def main(n)\n"
                    "  for i = 0 : 8 as \"touch\"\n"
                    "    load n float64 stride 4{clause}\n"
                    "  end\n"
                    "end\n")
        spilled = self._dram_bytes(
            template.format(count=count, clause=""), {"n": count})
        pinned = self._dram_bytes(
            template.format(count=count, clause=" footprint 4096"),
            {"n": count})
        assert spilled > pinned * 4

    def test_reuse_clause_is_model_only(self):
        # `reuse` parameterizes the analytic model; the simulator observes
        # reuse directly, so the clause must not change measurements
        base = ("def main(n)\n"
                "  for i = 0 : 4 as \"touch\"\n"
                "    load n float64{clause}\n"
                "  end\n"
                "end\n")
        plain = parse_skeleton(base.format(clause=""))
        hinted = parse_skeleton(base.format(clause=" reuse 1024"))
        a = profile(plain, MACHINE, inputs={"n": 4096.0})
        b = profile(hinted, MACHINE, inputs={"n": 4096.0})
        assert a.execution.totals().dram_bytes \
            == b.execution.totals().dram_bytes
        assert a.total_seconds == b.total_seconds

    def test_loop_varying_clause_blocks_warm_batching(self):
        # a stride that grows with the loop variable must be recomputed
        # per iteration, not scaled from one warm iteration: most of the
        # 16 iterations spill the LLC, so the exact DRAM traffic is close
        # to the total, while a (wrong) scaled-warm-delta run would
        # extrapolate the still-resident second iteration
        count = int(MACHINE.llc_size / 8 / 4)    # stride 5+ spills
        source = (f"param n = {count}\n"
                  "def main(n)\n"
                  "  for i = 0 : 16 as \"grow\"\n"
                  "    load n float64 stride (i + 1)\n"
                  "  end\n"
                  "end\n")
        program = parse_skeleton(source)
        result = profile(program, MACHINE, inputs={"n": count})
        totals = result.execution.totals()
        assert totals.dram_bytes > 0.75 * totals.bytes_moved
        assert totals.dram_bytes < totals.bytes_moved


class TestModelIntegration:
    def test_default_path_is_untouched(self):
        metrics = streaming(1 << 20)
        plain = RooflineModel(MACHINE)
        explicit = RooflineModel(MACHINE,
                                 cache_model=ConstantCacheModel())
        assert plain.cache_model is None
        assert plain.memory_time(metrics) \
            == explicit.memory_time(metrics)

    def test_analytic_rewards_small_working_sets(self):
        metrics = streaming(MACHINE.l1_size / 2)
        constant = RooflineModel(MACHINE).memory_time(metrics)
        analytic = RooflineModel(
            MACHINE,
            cache_model=AnalyticCacheModel()).memory_time(metrics)
        assert analytic < constant

    def test_ecm_accepts_cache_model(self):
        metrics = streaming(MACHINE.llc_size * 4)
        default = ECMModel(MACHINE)
        analytic = ECMModel(MACHINE, cache_model=AnalyticCacheModel())
        assert analytic.cache_model is not None
        # full-DRAM streaming must not be cheaper than the constant mix
        assert analytic.data_cycles(metrics) > 0.0
        assert default.data_cycles(metrics) > 0.0


class TestValidationHarness:
    def test_stassuij_is_exact(self):
        report = validate_workload("stassuij", BGQ)
        assert report.sites
        assert report.mae_l1 == 0.0
        # only the cold first touch of each region separates the two
        assert report.mae_dram < 1e-3
        payload = report.to_dict()
        assert payload["workload"] == "stassuij"
        assert payload["mae"]["analytic"]["f_dram"] < 1e-3

    def test_sord_hotspot4_moves_toward_simulator(self):
        # paper Sec. VII-C: update_velocity re-reads update_stress's
        # output; the constant ratio projects DRAM traffic the simulator
        # never sees, the layer condition recognizes the LLC fit
        report = validate_workload("sord", BGQ)
        spot = next(s for s in report.sites
                    if s.site.startswith("update_velocity"))
        assert abs(spot.pred_f_dram - spot.sim_f_dram) \
            < abs(spot.const_f_dram - spot.sim_f_dram)

    def test_analytic_beats_constant_on_dram(self):
        report = validate_workload("cfd", BGQ)
        assert report.mae_dram < report.const_mae_dram


class TestCLI:
    def _run(self, capsys, *argv):
        code = cli_main(list(argv))
        captured = capsys.readouterr()
        assert code == 0
        return captured.out

    def test_project_flag_changes_projection(self, capsys):
        constant = self._run(capsys, "project", "sord", "--top", "5",
                             "--cache-model", "constant")
        default = self._run(capsys, "project", "sord", "--top", "5")
        analytic = self._run(capsys, "project", "sord", "--top", "5",
                             "--cache-model", "analytic")
        assert constant == default
        assert analytic != constant

    def test_sweep_flag(self, capsys):
        out = self._run(capsys, "sweep", "pedagogical",
                        "--param", "bandwidth=1e10,4e10",
                        "--cache-model", "analytic")
        assert "bandwidth" in out

    def test_rejects_unknown_model(self, capsys):
        with pytest.raises(SystemExit):
            cli_main(["project", "sord", "--cache-model", "psychic"])
        capsys.readouterr()
