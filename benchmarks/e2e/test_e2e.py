"""Self-test of the end-to-end benchmark, at about 1/20 of its run length.

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
from pathlib import Path

import numpy as np
import pytest

from repro import Codec
from repro.io import chain_to_bytes
from repro.telemetry import read_trace
from repro.telemetry.analysis import span_tree

import agree
import inputs
import run
from checks import bound_violations, ingest_failures

SECONDS = run.SPEC["run_seconds"] / 20


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_end_to_end_metric_with_its_unit(workload, tmp_path):
    result = run.run_workload(workload, 0, SECONDS, False, tmp_path,
                              tmp_path / "work", setups=1)
    assert result["correct"], result["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in run.SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for metric in result["metrics"].values():
        assert math.isfinite(metric["value"]) and metric["value"] > 0


def test_checker_rejects_a_state_perturbed_by_2e():
    rng = np.random.default_rng(1)
    prev = rng.uniform(1.0, 2.0, 5000)
    curr = prev * (1.0 + rng.normal(0.0, 2e-3, prev.size))
    codec = Codec(config=inputs.CONFIGS["encode_paper"])
    error_bound = codec.config.error_bound
    decoded = codec.decompress(prev, codec.compress(prev, curr))
    assert bound_violations(prev, curr, decoded, error_bound) == 0
    decoded[7] += 2 * error_bound * abs(prev[7])
    assert bound_violations(prev, curr, decoded, error_bound) == 1


def test_checker_rejects_a_container_one_byte_off():
    config = inputs.CONFIGS["ingest"]
    states = [s.ravel() for s in inputs.ingest_trajectories(0)[0].states(4)]
    blob = chain_to_bytes(Codec(config=config).compress_chain(states))
    assert ingest_failures({"c": blob}, lambda c: states, config) == []
    for off_by_one in (blob[:-1], blob + b"\0",
                       blob[:100] + bytes([blob[100] ^ 1]) + blob[101:]):
        assert ingest_failures({"c": off_by_one}, lambda c: states, config)


def test_server_encodes_run_inside_chain_appends(tmp_path):
    trace_dir = tmp_path / "trace"
    result = run.run_workload("ingest", 0, SECONDS, True, trace_dir,
                              tmp_path / "work", setups=1)
    assert result["correct"], result["failures"]
    assert set(result["metrics"]) == {m["name"]
                                      for m in run.SPEC["per_layer"]}
    records = read_trace(trace_dir / "ingest.server.jsonl")
    parent = {r["id"]: r["parent"] for r in records}
    names = {r["id"]: r["name"] for r in records}
    encodes = [r for r in records if r["name"] == "core.encode_pair"]
    assert encodes
    for record in encodes:
        ancestors = []
        node = record["parent"]
        while node is not None:
            ancestors.append(names[node])
            node = parent[node]
        assert "chains.append_state" in ancestors
        assert ancestors[-1] == "jobs.run"
    # Every server-side job span carries the job id the client saw.
    client_jobs = {r["attrs"]["job"]
                   for r in read_trace(trace_dir / "ingest.client.jsonl")
                   if r["name"] == "client.submit"}
    server_jobs = {root.record["attrs"]["job"] for root in span_tree(records)
                   if root.name == "jobs.run"}
    assert server_jobs == client_jobs


def test_exits_nonzero_without_the_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    spec = json.loads((tmp_path / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        spec["command"] + ["--workload", "ingest", "--seed", "0",
                           "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_agree_passes_within_bounds_and_fails_beyond(tmp_path):
    def write(directory: Path, values: list[float]) -> None:
        directory.mkdir()
        for i, value in enumerate(values):
            doc = {"workloads": {"ingest": {"metrics": {
                "throughput_mb_s": {"value": value, "unit": "MB/s"}}}}}
            (directory / f"{i}.json").write_text(json.dumps(doc))

    bound = next(m["bound"] for m in run.SPEC["end_to_end"]
                 if m["name"] == "throughput_mb_s")
    write(tmp_path / "a", [100.0, 101.0, 99.0, 100.0, 100.5])
    write(tmp_path / "b", [100.0 * (1 + bound / 2)] * 5)
    write(tmp_path / "c", [100.0 * (1 + bound * 2)] * 5)
    assert agree.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 0
    assert agree.main([str(tmp_path / "a"), str(tmp_path / "c")]) == 1
