"""Tests for repro.telemetry: tracer, metrics, sink, accounting, reports."""

import json
import threading
import time

import numpy as np
import pytest

from repro import Codec
from repro.core import CheckpointChain, NumarckConfig
from repro.io import load_chain, save_chain
from repro.io.format import encode_delta_bytes, encode_full_bytes
from repro.telemetry import (
    NULL_TELEMETRY,
    JsonlSink,
    Telemetry,
    delta_payload_nbytes,
    full_payload_nbytes,
    get_telemetry,
    metrics_table,
    read_spans,
    read_trace,
    record_nbytes,
    set_telemetry,
    stage_summary,
    stage_table,
    trace_totals,
    use,
)
from repro.telemetry.metrics import MetricsRegistry


class TestSpans:
    def test_nesting_and_timing(self):
        tel = Telemetry()
        with tel.span("outer") as outer:
            with tel.span("inner") as inner:
                pass
        assert [s.name for s in tel.spans] == ["inner", "outer"]
        assert inner.parent_id == outer.span_id
        assert inner.depth == 1 and outer.depth == 0
        assert outer.wall_s >= inner.wall_s >= 0.0
        assert outer.cpu_s >= 0.0

    def test_cpu_is_the_spans_own_thread(self):
        # Another thread burns 0.2 s of CPU while the span only waits: a
        # server's span must not absorb its neighbours' work.
        done = threading.Event()

        def spin():
            while time.thread_time() < 0.2:
                pass
            done.set()

        tel = Telemetry()
        with tel.span("wait") as sp:
            worker = threading.Thread(target=spin)
            worker.start()
            assert done.wait(30)
        worker.join()
        assert sp.cpu_s < 0.1

    def test_attributes_set_and_add(self):
        tel = Telemetry()
        with tel.span("s", n=3) as sp:
            sp.set(bytes_out=10)
            sp.add("bytes_out", 5)
        assert sp.attrs == {"n": 3, "bytes_out": 15}

    def test_exception_recorded_and_propagated(self):
        tel = Telemetry()
        with pytest.raises(RuntimeError):
            with tel.span("boom"):
                raise RuntimeError("x")
        assert tel.spans[0].attrs["error"] == "RuntimeError"

    def test_siblings_share_parent(self):
        tel = Telemetry()
        with tel.span("root") as root:
            with tel.span("a"):
                pass
            with tel.span("b"):
                pass
        a, b = tel.spans[0], tel.spans[1]
        assert a.parent_id == b.parent_id == root.span_id

    def test_ambient_default_is_noop(self):
        tel = get_telemetry()
        assert tel is NULL_TELEMETRY
        assert not tel.enabled
        sp = tel.span("anything", n=1)
        with sp as inner:
            inner.set(x=2)
        # Shared singleton: no allocation, no state.
        assert tel.span("other") is sp
        assert tel.spans == ()

    def test_use_restores_previous(self):
        tel = Telemetry()
        with use(tel) as active:
            assert get_telemetry() is tel is active
        assert get_telemetry() is NULL_TELEMETRY

    def test_set_telemetry_none_restores_default(self):
        prev = set_telemetry(Telemetry())
        assert prev is NULL_TELEMETRY
        set_telemetry(None)
        assert get_telemetry() is NULL_TELEMETRY


class TestMetrics:
    def test_counter(self):
        reg = MetricsRegistry()
        c = reg.counter("writes")
        c.inc()
        c.inc(4)
        assert c.value == 5
        assert reg.counter("writes") is c
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge(self):
        reg = MetricsRegistry()
        reg.gauge("depth").set(3.5)
        assert reg.gauge("depth").value == 3.5

    def test_histogram_buckets(self):
        reg = MetricsRegistry()
        h = reg.histogram("sweeps", buckets=(1, 4, 16))
        for v in (0.5, 1, 3, 20):
            h.observe(v)
        assert h.count == 4
        assert h.total == pytest.approx(24.5)
        # per-bucket counts: <=1, <=4, <=16, overflow
        assert h.counts == [2, 1, 0, 1]

    def test_histogram_underflow_lands_in_first_bucket(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", buckets=(10, 100))
        h.observe(-5)
        h.observe(0)
        assert h.counts == [2, 0, 0]

    def test_histogram_overflow_lands_in_last_bucket(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", buckets=(10, 100))
        h.observe(100.001)
        h.observe(1e9)
        assert h.counts == [0, 0, 2]

    def test_histogram_boundary_value_is_inclusive(self):
        # Bounds are upper bounds: an observation equal to a bound
        # belongs to that bound's bucket, not the next one up.
        reg = MetricsRegistry()
        h = reg.histogram("lat", buckets=(10, 100))
        h.observe(10)
        h.observe(100)
        assert h.counts == [1, 1, 0]

    def test_histogram_counts_partition_observations(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", buckets=(1, 4, 16))
        for v in (-2, 0.5, 1, 3, 4, 15, 16, 17, 1e6):
            h.observe(v)
        assert sum(h.counts) == h.count == 9

    def test_snapshot_round_trips_json(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(2)
        reg.gauge("g").set(1.0)
        reg.histogram("h", buckets=(1, 2)).observe(1.5)
        snap = json.loads(json.dumps(reg.snapshot()))
        assert snap["counters"]["c"] == 2
        assert snap["gauges"]["g"] == 1.0
        assert snap["histograms"]["h"]["count"] == 1

    def test_null_registry_absorbs_everything(self):
        tel = NULL_TELEMETRY
        tel.metrics.counter("x").inc(5)
        tel.metrics.histogram("y", buckets=(1,)).observe(2)
        tel.metrics.gauge("z").set(1)


class TestSink:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "t.jsonl"
        tel = Telemetry(sink=JsonlSink(path))
        with tel.span("a", bytes_out=7):
            with tel.span("b"):
                pass
        tel.metrics.counter("c").inc()
        tel.close()
        records = read_trace(path)
        assert [r["name"] for r in records if r["type"] == "span"] == ["b", "a"]
        assert records[-1]["type"] == "metrics"
        assert records[-1]["counters"]["c"] == 1

    def test_export_rewrites(self, tmp_path):
        path = tmp_path / "t.jsonl"
        tel = Telemetry()
        with tel.span("only"):
            pass
        assert tel.export(path) == 1
        assert tel.export(path) == 1  # second export does not append
        assert len(read_spans(path)) == 1

    def test_torn_tail_dropped(self, tmp_path):
        path = tmp_path / "t.jsonl"
        tel = Telemetry(sink=JsonlSink(path))
        with tel.span("a"):
            pass
        with tel.span("b"):
            pass
        tel.close()
        raw = path.read_bytes()
        path.write_bytes(raw[:-9])  # tear the final line mid-record
        names = [r["name"] for r in read_trace(path) if r.get("type") == "span"]
        assert names == ["a"]

    def test_interior_corruption_raises(self, tmp_path):
        path = tmp_path / "t.jsonl"
        lines = [json.dumps({"type": "span", "name": "a"}), "garbage{{{",
                 json.dumps({"type": "span", "name": "b"})]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="line 2"):
            read_trace(path)

    def test_torn_tail_with_trailing_newline_dropped(self, tmp_path):
        # A crash between write() and the next append can leave a torn
        # record even when a newline made it to disk; the final line is
        # still the tear point and must be dropped, not fatal.
        path = tmp_path / "t.jsonl"
        path.write_text(json.dumps({"type": "span", "name": "a"}) +
                        '\n{"type": "span", "na\n')
        assert [r["name"] for r in read_trace(path)] == ["a"]

    def test_corruption_before_intact_data_is_fatal(self, tmp_path):
        # The mirror case: damage *followed by* parseable records cannot
        # be an interrupted append -- refuse to silently skip it.
        path = tmp_path / "t.jsonl"
        good = json.dumps({"type": "span", "name": "a"})
        path.write_text(good + "\n" + good[:10] + "\n" + good + "\n")
        with pytest.raises(ValueError, match="corrupt trace line 2"):
            read_trace(path)

    def test_keep_spans_false_streams_only(self, tmp_path):
        path = tmp_path / "t.jsonl"
        tel = Telemetry(sink=JsonlSink(path), keep_spans=False)
        with tel.span("a"):
            pass
        tel.close()
        assert tel.spans == []
        assert len(read_spans(path)) == 1


class TestAccounting:
    """Computed byte counts must match the real serialiser exactly."""

    @pytest.fixture
    def encoded(self, rng):
        prev = rng.uniform(1.0, 2.0, 4000)
        curr = prev * (1 + rng.normal(0, 0.01, 4000))
        curr[::97] = np.nan  # force some incompressible points
        comp = Codec(config=NumarckConfig(error_bound=1e-3, nbits=8))
        return comp.compress(prev, curr)

    def test_delta_matches_serialiser(self, encoded):
        assert delta_payload_nbytes(encoded) == len(encode_delta_bytes(encoded))

    def test_delta_matches_serialiser_float32(self, rng):
        prev = rng.uniform(1.0, 2.0, 1000).astype(np.float32)
        curr = (prev * (1 + rng.normal(0, 0.01, 1000))).astype(np.float32)
        enc = Codec(config=NumarckConfig(error_bound=1e-3)).compress(
            prev, curr)
        assert delta_payload_nbytes(enc) == len(encode_delta_bytes(enc))

    def test_full_matches_serialiser(self, rng):
        data = rng.normal(size=(30, 40))
        assert full_payload_nbytes(data) == len(encode_full_bytes(data))

    def test_record_overhead_matches_container(self, tmp_path, rng):
        data = rng.normal(size=500)
        chain = CheckpointChain(data, NumarckConfig())
        nbytes = save_chain(tmp_path / "c.nmk", chain)
        # header (6) + one framed FULL record
        assert nbytes == 6 + record_nbytes(full_payload_nbytes(data))


class TestIntegration:
    """The acceptance-criteria trace: compress + persist, check the tree."""

    @pytest.fixture
    def traced(self, tmp_path, rng):
        prev = rng.uniform(1.0, 2.0, 20_000)
        curr = prev * (1 + rng.normal(0, 0.02, 20_000))
        tel = Telemetry()
        with use(tel):
            comp = Codec(
                config=NumarckConfig(error_bound=1e-3, nbits=8,
                              strategy="clustering"))
            chain = CheckpointChain(prev, comp.config)
            chain.append(curr)
            save_chain(tmp_path / "c.nmk", chain)
            load_chain(tmp_path / "c.nmk")
        path = tmp_path / "trace.jsonl"
        tel.export(path)
        return tel, read_trace(path)

    def test_expected_stages_present(self, traced):
        _, records = traced
        names = {r["name"] for r in records if r["type"] == "span"}
        for stage in ("encode", "encode.change_ratios", "encode.fit",
                      "encode.assign", "strategy.clustering.fit",
                      "kmeans.lloyd", "bitpack.pack", "io.write_record",
                      "io.save_chain", "io.load_chain"):
            assert stage in names, f"missing span {stage}"

    def test_nesting_structure(self, traced):
        _, records = traced
        spans = {r["id"]: r for r in records if r["type"] == "span"}

        def ancestors(rec):
            while rec["parent"] is not None:
                rec = spans[rec["parent"]]
                yield rec["name"]

        fits = [r for r in spans.values()
                if r["name"] == "strategy.clustering.fit"]
        assert fits and all("encode.fit" in ancestors(r) and
                            "encode" in ancestors(r) for r in fits)
        lloyds = [r for r in spans.values() if r["name"] == "kmeans.lloyd"]
        assert lloyds and all(
            "strategy.clustering.fit" in ancestors(r) for r in lloyds)
        writes = [r for r in spans.values() if r["name"] == "io.write_record"]
        assert writes and all("io.save_chain" in ancestors(r) for r in writes)

    def test_byte_attributes_nonzero(self, traced):
        _, records = traced
        by_name = {}
        for r in records:
            if r["type"] == "span":
                by_name.setdefault(r["name"], []).append(r)
        assert all(r["attrs"]["bytes_in"] > 0 for r in by_name["encode"])
        assert all(r["attrs"]["bytes_out"] > 0 for r in by_name["encode"])
        assert all(r["attrs"]["bytes_out"] > 0
                   for r in by_name["bitpack.pack"])
        assert all(r["attrs"]["bytes_out"] > 0
                   for r in by_name["io.write_record"])
        assert all(r["attrs"]["bytes_out"] > 0
                   for r in by_name["io.save_chain"])

    def test_encode_bytes_out_is_exact(self, traced, tmp_path):
        _, records = traced
        enc_spans = [r for r in records
                     if r["type"] == "span" and r["name"] == "encode"]
        assert enc_spans
        for r in enc_spans:
            assert r["attrs"]["bytes_out"] > 0
            assert 0.0 <= r["attrs"]["gamma"] < 1.0

    def test_metrics_collected(self, traced):
        tel, records = traced
        snap = records[-1]
        assert snap["type"] == "metrics"
        assert snap["counters"]["io.bytes_written"] > 0
        assert snap["histograms"]["kmeans.sweeps"]["count"] >= 1
        assert snap["histograms"]["encode.incompressible_fraction"]["count"] == 1

    def test_report_tables_render(self, traced):
        _, records = traced
        spans = [r for r in records if r["type"] == "span"]
        table = stage_table(spans)
        assert "encode" in table and "wall ms" in table
        summary = stage_summary(spans)
        assert summary[0]["wall_s"] >= summary[-1]["wall_s"]
        totals = trace_totals(spans)
        assert totals["spans"] == len(spans)
        mtable = metrics_table(records[-1])
        assert "io.bytes_written" in mtable


class TestSalvageCounter:
    def test_records_salvaged_counted(self, tmp_path, rng):
        from repro.io import salvage_truncate

        data = rng.uniform(1.0, 2.0, 500)
        chain = CheckpointChain(data, NumarckConfig())
        chain.append(data * 1.001)
        path = tmp_path / "c.nmk"
        save_chain(path, chain)
        with open(path, "r+b") as fh:
            fh.seek(-3, 2)
            fh.write(b"\xff\xff\xff")
        tel = Telemetry()
        with use(tel):
            report = salvage_truncate(path)
        assert report.records_dropped == 1
        assert tel.metrics.counter("io.records_salvaged").value == \
            report.records_kept


class TestStatsCli:
    def test_stats_on_real_trace(self, tmp_path, rng, capsys):
        from repro.cli import main

        prev = rng.uniform(1.0, 2.0, 2000)
        tel = Telemetry()
        with use(tel):
            chain = CheckpointChain(prev, NumarckConfig(error_bound=1e-3))
            chain.append(prev * (1 + rng.normal(0, 0.01, 2000)))
            save_chain(tmp_path / "c.nmk", chain)
        trace = str(tmp_path / "trace.jsonl")
        tel.export(trace)
        assert main(["stats", trace]) == 0
        out = capsys.readouterr().out
        assert "stage breakdown" in out
        assert "encode" in out

    def test_stats_empty_trace_exits_one(self, tmp_path, capsys):
        from repro.cli import main

        trace = tmp_path / "empty.jsonl"
        trace.write_text("")
        assert main(["stats", str(trace)]) == 1
        assert "no spans" in capsys.readouterr().err

    def test_stats_missing_file_exits_one(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["stats", str(tmp_path / "nope.jsonl")]) == 1
        assert "error:" in capsys.readouterr().err


class TestEnvActivation:
    def test_trace_env_var_produces_jsonl(self, tmp_path):
        import os
        import subprocess
        import sys
        from pathlib import Path

        trace = tmp_path / "env.jsonl"
        env = os.environ.copy()
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        env["NUMARCK_TRACE"] = str(trace)
        code = (
            "import numpy as np\n"
            "from repro import Codec, NumarckConfig\n"
            "rng = np.random.default_rng(0)\n"
            "prev = rng.uniform(1, 2, 5000)\n"
            "curr = prev * (1 + rng.normal(0, 0.01, 5000))\n"
            "Codec(config=NumarckConfig(error_bound=1e-3))"
            ".compress(prev, curr)\n"
        )
        subprocess.run([sys.executable, "-c", code], check=True, env=env,
                       timeout=120)
        names = {r["name"] for r in read_spans(trace)}
        assert "codec.compress" in names
        assert "encode" in names
