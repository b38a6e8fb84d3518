"""CLI streaming (out-of-core) command tests."""

import numpy as np
import pytest

from repro.cli import main


@pytest.fixture
def pair_files(tmp_path, rng):
    prev = rng.uniform(1.0, 2.0, 50_000)
    curr = prev * (1 + rng.normal(0, 0.002, 50_000))
    pp, cp = tmp_path / "prev.npy", tmp_path / "curr.npy"
    np.save(pp, prev)
    np.save(cp, curr)
    return str(pp), str(cp), prev, curr


class TestStreamCommands:
    def test_compress_decompress_roundtrip(self, tmp_path, pair_files):
        pp, cp, prev, curr = pair_files
        stream = str(tmp_path / "s.nms")
        assert main(["compress-stream", pp, cp, "-o", stream,
                     "--chunk-size", "8192", "--error-bound", "1e-3"]) == 0
        out = str(tmp_path / "out.npy")
        assert main(["decompress-stream", stream, pp, "-o", out]) == 0
        decoded = np.load(out)
        err = np.abs((decoded - prev) / prev - (curr - prev) / prev)
        assert err.max() < 1.1e-3  # exact points have zero ratio error anyway

    def test_stream_file_smaller_than_raw(self, tmp_path, pair_files, capsys):
        pp, cp, _, curr = pair_files
        stream = tmp_path / "s.nms"
        main(["compress-stream", pp, cp, "-o", str(stream),
              "--chunk-size", "8192"])
        assert stream.stat().st_size < 0.3 * curr.nbytes

    def test_wrong_reference_rejected(self, tmp_path, pair_files, capsys):
        pp, cp, *_ = pair_files
        stream = str(tmp_path / "s.nms")
        main(["compress-stream", pp, cp, "-o", stream, "--chunk-size", "8192"])
        short = tmp_path / "short.npy"
        np.save(short, np.ones(10))
        rc = main(["decompress-stream", stream, str(short),
                   "-o", str(tmp_path / "x.npy")])
        assert rc == 2
        assert "reference has" in capsys.readouterr().err

    def test_2d_input_flattened(self, tmp_path, rng):
        prev = rng.uniform(1, 2, (100, 200))
        curr = prev * 1.001
        pp, cp = tmp_path / "p.npy", tmp_path / "c.npy"
        np.save(pp, prev)
        np.save(cp, curr)
        stream = str(tmp_path / "s.nms")
        assert main(["compress-stream", str(pp), str(cp), "-o", stream,
                     "--chunk-size", "4096"]) == 0
        out = str(tmp_path / "o.npy")
        assert main(["decompress-stream", stream, str(pp), "-o", out]) == 0
        assert np.load(out).size == 20_000

    def test_float32_input_stays_float32(self, tmp_path, rng):
        from repro.io import load_streamed

        prev = rng.uniform(1, 2, 20_000).astype(np.float32)
        curr = (prev * (1 + rng.normal(0, 0.002, 20_000))).astype(np.float32)
        prev[::50] = 0.0  # stored exactly
        pp, cp = tmp_path / "p.npy", tmp_path / "c.npy"
        np.save(pp, prev)
        np.save(cp, curr)
        stream = str(tmp_path / "s.nms")
        assert main(["compress-stream", str(pp), str(cp), "-o", stream,
                     "--chunk-size", "4096"]) == 0
        assert load_streamed(stream).value_bits == 32
        out = str(tmp_path / "o.npy")
        assert main(["decompress-stream", stream, str(pp), "-o", out]) == 0
        np.testing.assert_array_equal(np.load(out)[::50].astype(np.float32),
                                      curr[::50])
