"""Tests for repro.bench: schema, runner, comparator, CLI."""

import copy
import json
from pathlib import Path

import pytest

from repro.bench import (
    BenchSchemaError,
    Thresholds,
    bench_path,
    compare_dirs,
    compare_docs,
    comparison_table,
    env_fingerprint,
    load_bench,
    robust_stats,
    run_scenario,
    scenario_names,
    validate_bench,
    write_bench,
)

#: the cheapest real scenario -- the runner tests go through it.
FAST = "cmip_equal_width"
#: a scenario whose hottest stage is one steady call of several ms
#: (``bitpack.pack`` on 1M values), well above the comparator's noise floor.
HOT = "bitpack_roundtrip"
BASELINES = Path(__file__).resolve().parents[1] / "benchmarks" / "baselines"


@pytest.fixture(scope="module")
def quick_doc():
    return run_scenario(FAST, quick=True, repeats=3)


@pytest.fixture(scope="module")
def hot_doc():
    """The committed measurement of ``HOT``, for the gating tests.

    Whether a doctored 2x slowdown clears the gate depends on the MAD of
    the sample it is doctored from.  A fresh run on a shared host can
    carry 5-13% MAD, which puts a 2x shift inside k=4 sigmas of noise;
    the committed run was recorded on a quiet host (MAD under 1%), so
    the gating tests check the comparator, not the host's load.
    """
    return load_bench(bench_path(BASELINES, HOT))


class TestRobustStats:
    def test_median_and_mad(self):
        stats = robust_stats([1.0, 2.0, 3.0, 100.0])
        assert stats["median"] == pytest.approx(2.5)
        assert stats["mad"] == pytest.approx(1.0)
        assert stats["runs"] == [1.0, 2.0, 3.0, 100.0]

    def test_outlier_barely_moves_median(self):
        clean = robust_stats([1.0, 1.0, 1.0, 1.0, 1.0])
        noisy = robust_stats([1.0, 1.0, 1.0, 1.0, 50.0])
        assert noisy["median"] == clean["median"]


class TestRunner:
    def test_document_shape(self, quick_doc):
        validate_bench(quick_doc)  # raises on any schema violation
        assert quick_doc["scenario"] == FAST
        assert quick_doc["mode"] == "quick"
        assert quick_doc["repeats"] == 3
        assert len(quick_doc["total"]["wall_s"]["runs"]) == 3
        assert quick_doc["attrs"]["n_points"] > 0
        assert "encode" in quick_doc["stages"]
        encode = quick_doc["stages"]["encode"]
        assert encode["calls"] >= 1
        assert encode["self_s"]["median"] >= 0

    def test_env_fingerprint_complete(self, quick_doc):
        env = quick_doc["env"]
        for key in ("python", "implementation", "platform", "machine",
                    "numpy", "cpu_count"):
            assert key in env, f"missing env key {key}"
        assert env == env_fingerprint()

    def test_memory_section(self, quick_doc):
        memory = quick_doc["memory"]
        assert memory["stages"], "memory pass should cover traced stages"
        peaks = [s["mem_py_peak_kb"] for s in memory["stages"].values()]
        assert all(p >= 0 for p in peaks)
        assert max(peaks) > 0

    def test_write_and_load_round_trip(self, quick_doc, tmp_path):
        path = write_bench(quick_doc, tmp_path)
        assert path == bench_path(tmp_path, FAST)
        assert path.name == f"BENCH_{FAST}.json"
        assert load_bench(path) == json.loads(json.dumps(quick_doc))

    def test_unknown_scenario_raises(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            run_scenario("nope", quick=True)

    def test_bad_repeats_raises(self):
        with pytest.raises(ValueError, match="repeats"):
            run_scenario(FAST, quick=True, repeats=0)

    def test_all_scenarios_registered(self):
        names = scenario_names()
        assert FAST in names
        assert "cmip_clustering" in names
        assert "bitpack_roundtrip" in names
        assert len(names) >= 5


class TestSchema:
    def test_rejects_non_object(self):
        with pytest.raises(BenchSchemaError, match="JSON object"):
            validate_bench([])

    def test_rejects_wrong_version(self, quick_doc):
        doc = copy.deepcopy(quick_doc)
        doc["schema"] = "numarck-bench/0"
        with pytest.raises(BenchSchemaError, match="schema"):
            validate_bench(doc)

    def test_rejects_missing_env_key(self, quick_doc):
        doc = copy.deepcopy(quick_doc)
        del doc["env"]["numpy"]
        with pytest.raises(BenchSchemaError, match="numpy"):
            validate_bench(doc)

    def test_rejects_median_outside_runs(self, quick_doc):
        doc = copy.deepcopy(quick_doc)
        doc["total"]["wall_s"]["median"] = 1e9
        with pytest.raises(BenchSchemaError, match="median"):
            validate_bench(doc)

    def test_rejects_empty_runs(self, quick_doc):
        doc = copy.deepcopy(quick_doc)
        doc["total"]["wall_s"]["runs"] = []
        with pytest.raises(BenchSchemaError, match="runs"):
            validate_bench(doc)

    def test_rejects_bad_mode(self, quick_doc):
        doc = copy.deepcopy(quick_doc)
        doc["mode"] = "fast"
        with pytest.raises(BenchSchemaError, match="mode"):
            validate_bench(doc)


def _slow_stage(doc, stage, factor):
    """A deep copy of ``doc`` with one stage's self time scaled.

    Runs are shifted rather than scaled so the sample keeps the
    baseline's dispersion -- a regression moves the centre, it does not
    multiply the jitter, and scaling the MAD would widen the very noise
    gate the slowdown must clear.
    """
    out = copy.deepcopy(doc)
    block = out["stages"][stage]["self_s"]
    shift = block["median"] * (factor - 1.0)
    block["runs"] = [v + shift for v in block["runs"]]
    block["median"] += shift
    return out


class TestCompare:
    def test_self_comparison_passes(self, quick_doc):
        comparison = compare_docs(quick_doc, quick_doc)
        assert comparison.regressions == []
        assert len(comparison.deltas) >= 2  # total + stages

    def test_two_x_stage_slowdown_flags(self, hot_doc):
        hottest = max(hot_doc["stages"],
                      key=lambda s: hot_doc["stages"][s]["self_s"]["median"])
        slowed = _slow_stage(hot_doc, hottest, 2.0)
        comparison = compare_docs(hot_doc, slowed)
        regressed = [d.metric for d in comparison.regressions]
        assert f"stage:{hottest}" in regressed

    def test_improvement_reported_not_failed(self, hot_doc):
        hottest = max(hot_doc["stages"],
                      key=lambda s: hot_doc["stages"][s]["self_s"]["median"])
        faster = _slow_stage(hot_doc, hottest, 0.25)
        comparison = compare_docs(hot_doc, faster)
        assert comparison.regressions == []
        assert any(d.metric == f"stage:{hottest}"
                   for d in comparison.improvements)

    def test_noise_threshold_scales_with_mad(self):
        th = Thresholds(k=4.0, rel_floor=0.0, abs_floor=0.0)
        quiet = th.threshold_s(1.0, 0.001, 0.001)
        noisy = th.threshold_s(1.0, 0.1, 0.1)
        assert noisy == pytest.approx(quiet * 100)

    def test_scenario_mismatch_raises(self, quick_doc):
        other = copy.deepcopy(quick_doc)
        other["scenario"] = "different"
        with pytest.raises(ValueError, match="scenario mismatch"):
            compare_docs(quick_doc, other)

    def test_vanished_stage_noted(self, quick_doc):
        cur = copy.deepcopy(quick_doc)
        stage = next(iter(cur["stages"]))
        del cur["stages"][stage]
        comparison = compare_docs(quick_doc, cur)
        assert any("vanished" in n for n in comparison.notes)
        assert [d.metric for d in comparison.regressions] == [f"stage:{stage}"]
        assert "REGRESSED" in comparison_table(comparison)

    def test_new_stage_only_noted(self, quick_doc):
        base = copy.deepcopy(quick_doc)
        stage = next(iter(base["stages"]))
        del base["stages"][stage]
        comparison = compare_docs(base, quick_doc)
        assert any("is new" in n for n in comparison.notes)
        assert comparison.regressions == []

    def test_compare_dirs(self, hot_doc, tmp_path):
        base_dir = tmp_path / "base"
        cur_dir = tmp_path / "cur"
        write_bench(hot_doc, base_dir)
        hottest = max(hot_doc["stages"],
                      key=lambda s: hot_doc["stages"][s]["self_s"]["median"])
        write_bench(_slow_stage(hot_doc, hottest, 3.0), cur_dir)
        comparison = compare_dirs(base_dir, cur_dir)
        assert comparison.regressions
        table = comparison_table(comparison)
        assert "REGRESSED" in table

    def test_compare_dirs_no_common_raises(self, quick_doc, tmp_path):
        base_dir = tmp_path / "base"
        cur_dir = tmp_path / "cur"
        base_dir.mkdir()
        cur_dir.mkdir()
        with pytest.raises(ValueError, match="no common"):
            compare_dirs(base_dir, cur_dir)


class TestBenchCli:
    def test_run_compare_report(self, quick_doc, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "results"
        assert main(["bench", "run", "--quick", "--scenario", HOT,
                     "--repeats", "2", "--no-memory",
                     "--output", str(out)]) == 0
        assert (out / f"BENCH_{HOT}.json").exists()
        captured = capsys.readouterr().out
        assert HOT in captured and "median" in captured

        assert main(["bench", "report", str(out)]) == 0
        assert HOT in capsys.readouterr().out

        # Self-comparison: clean gate, exit 0.
        assert main(["bench", "compare", str(out), str(out)]) == 0
        assert "no regressions" in capsys.readouterr().out

        # Doctored 2x slowdown on the hottest stage: exit 1.  Gated
        # against the committed measurement (see ``hot_doc``).
        doc = load_bench(bench_path(BASELINES, HOT))
        hottest = max(doc["stages"],
                      key=lambda s: doc["stages"][s]["self_s"]["median"])
        slow_dir = tmp_path / "slow"
        write_bench(_slow_stage(doc, hottest, 2.0), slow_dir)
        assert main(["bench", "compare", str(BASELINES),
                     str(slow_dir)]) == 1
        captured = capsys.readouterr()
        assert "REGRESSED" in captured.out
        assert "REGRESSION" in captured.err

        # A baseline stage missing from the current run: exit 1.
        del doc["stages"][hottest]
        gone_dir = tmp_path / "gone"
        write_bench(doc, gone_dir)
        assert main(["bench", "compare", str(BASELINES),
                     str(gone_dir)]) == 1
        assert "vanished" in capsys.readouterr().out

    def test_run_unknown_scenario_exits_two(self, capsys):
        from repro.cli import main

        assert main(["bench", "run", "--scenario", "nope"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_report_empty_dir_exits_one(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["bench", "report", str(tmp_path)]) == 1
        assert "no BENCH_" in capsys.readouterr().err


class TestCommittedBaseline:
    """The repo ships a seed baseline; it must stay schema-valid."""

    def test_baselines_validate(self):
        files = sorted(BASELINES.glob("BENCH_*.json"))
        assert files, "committed baseline missing"
        for path in files:
            doc = load_bench(path)  # validates
            assert doc["mode"] == "quick"
