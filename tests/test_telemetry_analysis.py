"""Tests for repro.telemetry.analysis: trees, paths, stacks, diffs."""

import numpy as np
import pytest

from repro import Codec
from repro.core import NumarckConfig
from repro.telemetry import (
    Telemetry,
    critical_path,
    diff_table,
    diff_traces,
    folded_stacks,
    self_time_ranking,
    span_tree,
    stage_rollup,
    use,
)


def _span(name, sid, parent=None, wall=1.0, t_start=0.0, attrs=None):
    return {"type": "span", "name": name, "id": sid, "parent": parent,
            "depth": 0, "t_start": t_start, "wall_s": wall, "cpu_s": wall,
            "attrs": attrs or {}}


class TestSpanTree:
    def test_simple_forest(self):
        records = [
            _span("child", 2, parent=1, wall=0.4, t_start=0.1),
            _span("root", 1, wall=1.0),
            _span("other_root", 3, wall=0.5, t_start=2.0),
        ]
        roots = span_tree(records)
        assert [r.name for r in roots] == ["root", "other_root"]
        assert [c.name for c in roots[0].children] == ["child"]
        assert roots[0].self_s == pytest.approx(0.6)
        assert roots[0].children[0].self_s == pytest.approx(0.4)

    def test_out_of_order_records(self):
        # Sinks write spans in completion order (children first); the
        # tree must come out identical for any permutation.
        records = [
            _span("root", 1, wall=3.0),
            _span("b", 3, parent=1, wall=1.0, t_start=1.5),
            _span("a", 2, parent=1, wall=1.0, t_start=0.5),
            _span("a.x", 4, parent=2, wall=0.5, t_start=0.6),
        ]
        for perm in (records, records[::-1], records[2:] + records[:2]):
            roots = span_tree(perm)
            assert len(roots) == 1
            assert [c.name for c in roots[0].children] == ["a", "b"]
            assert [c.name for c in roots[0].children[0].children] == ["a.x"]

    def test_unclosed_parent_orphans_become_roots(self):
        # A crash leaves the parent span unfinished (never written); its
        # children must surface as roots, not vanish.
        records = [
            _span("survivor", 5, parent=99, wall=0.2),
            _span("root", 1, wall=1.0, t_start=1.0),
        ]
        roots = span_tree(records)
        assert sorted(r.name for r in roots) == ["root", "survivor"]

    def test_self_parent_cycle_is_root(self):
        records = [_span("weird", 7, parent=7, wall=0.1)]
        roots = span_tree(records)
        assert [r.name for r in roots] == ["weird"]

    def test_walk_covers_all(self):
        records = [
            _span("root", 1, wall=1.0),
            _span("a", 2, parent=1, wall=0.3),
            _span("a.x", 3, parent=2, wall=0.1),
        ]
        (root,) = span_tree(records)
        assert [n.name for n in root.walk()] == ["root", "a", "a.x"]

    def test_non_span_records_ignored(self):
        records = [_span("root", 1), {"type": "metrics", "counters": {}}]
        assert len(span_tree(records)) == 1


class TestRollupAndRanking:
    def test_rollup_self_time(self):
        records = [
            _span("root", 1, wall=1.0),
            _span("leaf", 2, parent=1, wall=0.75),
        ]
        roll = stage_rollup(records)
        assert roll["root"]["self_s"] == pytest.approx(0.25)
        assert roll["leaf"]["self_s"] == pytest.approx(0.75)

    def test_rollup_memory_peak_is_max(self):
        records = [
            _span("s", 1, wall=1.0, attrs={"mem_py_peak_kb": 10.0}),
            _span("s", 2, wall=1.0, t_start=2.0,
                  attrs={"mem_py_peak_kb": 30.0}),
        ]
        assert stage_rollup(records)["s"]["mem_py_peak_kb"] == 30.0

    def test_ranking_orders_by_self_time(self):
        records = [
            _span("root", 1, wall=1.0),
            _span("hot", 2, parent=1, wall=0.9),
            _span("cold", 3, parent=2, wall=0.05),
        ]
        ranked = self_time_ranking(records)
        assert [r["stage"] for r in ranked] == ["hot", "root", "cold"]
        assert [r["stage"] for r in self_time_ranking(records, top=1)] == \
            ["hot"]


class TestCriticalPath:
    def test_follows_heaviest_chain(self):
        records = [
            _span("root", 1, wall=1.0),
            _span("light", 2, parent=1, wall=0.2),
            _span("heavy", 3, parent=1, wall=0.7),
            _span("heavy.leaf", 4, parent=3, wall=0.6),
        ]
        path = critical_path(records)
        assert [p["name"] for p in path] == ["root", "heavy", "heavy.leaf"]
        assert [p["depth"] for p in path] == [0, 1, 2]

    def test_picks_heaviest_root(self):
        records = [_span("small", 1, wall=0.1),
                   _span("big", 2, wall=5.0, t_start=1.0)]
        assert critical_path(records)[0]["name"] == "big"

    def test_empty_trace(self):
        assert critical_path([]) == []


class TestFoldedStacks:
    def test_stacks_and_merging(self):
        records = [
            _span("root", 1, wall=1.0),
            _span("a", 2, parent=1, wall=0.25),
            _span("a", 3, parent=1, wall=0.25, t_start=0.5),
        ]
        lines = folded_stacks(records)
        by_stack = dict(line.rsplit(" ", 1) for line in lines)
        # Two sibling "a" spans merge into one folded line.
        assert set(by_stack) == {"root", "root;a"}
        assert int(by_stack["root;a"]) == 500_000  # 0.5 s of self time in us
        assert int(by_stack["root"]) == 500_000

    def test_real_trace_has_pipeline_prefix(self, rng):
        prev = rng.uniform(1.0, 2.0, 5000)
        curr = prev * (1 + rng.normal(0, 0.002, 5000))
        tel = Telemetry()
        with use(tel):
            Codec(config=NumarckConfig(error_bound=1e-3)).compress(
                prev, curr)
        lines = folded_stacks([s.to_dict() for s in tel.spans])
        assert any(line.startswith("codec.compress;encode ")
                   for line in lines)


class TestDiff:
    def test_deltas_sum_to_root_delta(self):
        a = [_span("root", 1, wall=1.0), _span("x", 2, parent=1, wall=0.5)]
        b = [_span("root", 1, wall=2.0), _span("x", 2, parent=1, wall=1.6)]
        diffs = diff_traces(a, b)
        assert sum(d["delta_self"] for d in diffs) == pytest.approx(1.0)
        # x grew by 1.1 of self time, root self shrank by 0.1.
        assert diffs[0]["stage"] == "x"
        assert diffs[0]["delta_self"] == pytest.approx(1.1)

    def test_stage_only_in_one_trace(self):
        a = [_span("root", 1, wall=1.0)]
        b = [_span("root", 1, wall=1.0),
             _span("new", 2, parent=1, wall=0.4)]
        by_stage = {d["stage"]: d for d in diff_traces(a, b)}
        assert by_stage["new"]["calls_a"] == 0
        assert by_stage["new"]["delta_self"] == pytest.approx(0.4)

    def test_real_traces_attribute_strategy_change(self, rng):
        prev = rng.uniform(1.0, 2.0, 20_000)
        curr = prev * (1 + rng.normal(0, 0.002, 20_000))
        traces = {}
        for strategy in ("equal_width", "clustering"):
            tel = Telemetry()
            with use(tel):
                Codec(config=NumarckConfig(
                    error_bound=1e-3, strategy=strategy)).compress(prev, curr)
            traces[strategy] = [s.to_dict() for s in tel.spans]
        diffs = diff_traces(traces["equal_width"], traces["clustering"])
        top = diffs[0]
        assert top["stage"] in ("kmeans.lloyd", "strategy.clustering.fit")
        assert top["delta_self"] > 0
        assert top["share"] > 0.3

    def test_diff_table_renders(self):
        a = [_span("root", 1, wall=1.0)]
        b = [_span("root", 1, wall=2.0)]
        table = diff_table(a, b, labels=("before", "after"))
        assert "self ms before" in table
        assert "root" in table
        assert len(diff_table(a, b, top=0).splitlines()) <= 3


class TestMemoryGauges:
    def test_span_records_python_peak(self):
        tel = Telemetry(memory=True)
        try:
            with use(tel):
                with tel.span("alloc"):
                    block = np.ones(512 * 1024)  # ~4 MiB
                    del block
        finally:
            tel.close()
        attrs = tel.spans[0].attrs
        assert attrs["mem_py_peak_kb"] > 3000
        # The process RSS high-water mark is not the span's: not attached.
        assert "mem_rss_peak_kb" not in attrs

    def test_child_peak_propagates_to_parent(self):
        tel = Telemetry(memory=True)
        try:
            with use(tel):
                with tel.span("parent"):
                    with tel.span("child"):
                        block = np.ones(512 * 1024)
                        del block
        finally:
            tel.close()
        by_name = {s.name: s.attrs for s in tel.spans}
        assert by_name["child"]["mem_py_peak_kb"] > 3000
        # The parent's peak must include what happened inside the child,
        # even though tracemalloc's global peak was reset on child entry.
        assert by_name["parent"]["mem_py_peak_kb"] >= \
            by_name["child"]["mem_py_peak_kb"] * 0.9

    def test_memory_off_leaves_attrs_clean(self):
        tel = Telemetry()
        with use(tel):
            with tel.span("plain"):
                pass
        assert "mem_py_peak_kb" not in tel.spans[0].attrs

    def test_close_stops_tracemalloc_only_if_started(self):
        import tracemalloc

        was_tracing = tracemalloc.is_tracing()
        tel = Telemetry(memory=True)
        tel.close()
        assert tracemalloc.is_tracing() == was_tracing
