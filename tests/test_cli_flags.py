"""Normalized CLI flag surface: canonical spellings, the global --trace
flag and the serve subcommand's parser."""

import json

import numpy as np
import pytest

from repro.cli import build_parser, main


@pytest.fixture
def arrays(tmp_path):
    rng = np.random.default_rng(0)
    a0 = rng.uniform(1.0, 2.0, 4000)
    a1 = a0 * (1.0 + rng.normal(0.0, 2e-3, 4000))
    p0, p1 = tmp_path / "a0.npy", tmp_path / "a1.npy"
    np.save(p0, a0)
    np.save(p1, a1)
    return str(p0), str(p1)


class TestErrorBoundAlias:
    def test_short_E(self, tmp_path, arrays):
        chain = str(tmp_path / "c.nmk")
        assert main(["init", chain, arrays[0], "-E", "1e-3"]) == 0

    def test_long_spelling_unchanged(self, tmp_path, arrays):
        chain = str(tmp_path / "c.nmk")
        assert main(["init", chain, arrays[0], "--error-bound", "1e-3"]) == 0


class TestOutputAlias:
    def test_extract_accepts_out_alias(self, tmp_path, arrays):
        # No code registers ``--out``; argparse accepts it as the unique
        # prefix of ``--output``.
        chain = str(tmp_path / "c.nmk")
        main(["init", chain, arrays[0]])
        out = str(tmp_path / "x.npy")
        assert main(["extract", chain, "--out", out]) == 0
        assert np.load(out).shape == (4000,)

    def test_extract_requires_output(self, tmp_path, arrays, capsys):
        chain = str(tmp_path / "c.nmk")
        main(["init", chain, arrays[0]])
        assert main(["extract", chain]) == 2
        assert "--output/-o is required" in capsys.readouterr().err

    def test_out_alias_hidden_from_help(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["extract", "--help"])
        help_text = capsys.readouterr().out
        assert "--output" in help_text
        assert "--out " not in help_text and "--out," not in help_text

    def test_bench_run_keeps_out_alias(self):
        args = build_parser().parse_args(
            ["bench", "run", "--quick", "--out", "somewhere"])
        assert args.out == "somewhere"
        args = build_parser().parse_args(
            ["bench", "run", "--quick", "--output", "elsewhere"])
        assert args.out == "elsewhere"


class TestCompressStreamForms:
    def test_flag_form(self, tmp_path, arrays, capsys):
        out = str(tmp_path / "s.nms")
        assert main(["compress-stream", arrays[0], arrays[1],
                     "-o", out, "--chunk-size", "1024"]) == 0
        assert "deprecated" not in capsys.readouterr().err

    def test_legacy_positional_form(self, tmp_path, arrays, capsys):
        # OUTPUT PREV CURR without --output is rejected, nothing written.
        out = tmp_path / "s.nms"
        assert main(["compress-stream", str(out), arrays[0], arrays[1],
                     "--chunk-size", "1024"]) == 2
        assert "--output/-o is required" in capsys.readouterr().err
        assert not out.exists()

    def test_wrong_arity_rejected(self, tmp_path, arrays, capsys):
        assert main(["compress-stream", arrays[0]]) == 2
        assert main(["compress-stream", arrays[0],
                     "-o", str(tmp_path / "s.nms")]) == 2


class TestGlobalTrace:
    def test_trace_flag_writes_spans(self, tmp_path, arrays):
        trace = tmp_path / "t.jsonl"
        chain = str(tmp_path / "c.nmk")
        assert main(["--trace", str(trace), "init", chain, arrays[0]]) == 0
        records = [json.loads(line)
                   for line in trace.read_text().splitlines()]
        assert any(r.get("type") == "span" for r in records)

    def test_no_trace_flag_no_file(self, tmp_path, arrays):
        chain = str(tmp_path / "c.nmk")
        assert main(["init", chain, arrays[0]]) == 0
        assert not list(tmp_path.glob("*.jsonl"))


class TestServeParser:
    def test_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.port == 8765
        assert args.workers == 2
        assert args.capacity == 32
        assert args.store_dir is None

    def test_all_flags(self):
        args = build_parser().parse_args(
            ["serve", "--host", "0.0.0.0", "--port", "0", "--workers", "4",
             "--capacity", "64", "--retry-after", "0.2",
             "--store-dir", "/tmp/chains", "-E", "1e-4"])
        assert args.port == 0
        assert args.capacity == 64
        assert args.error_bound == 1e-4
