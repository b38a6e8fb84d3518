"""CLI multi-variable (.npz) workflow tests."""

import numpy as np
import pytest

from repro.cli import main


@pytest.fixture
def npz_checkpoints(tmp_path, rng):
    paths = []
    a = rng.uniform(1.0, 2.0, 2000)
    b = rng.uniform(100.0, 200.0, 2000)
    for i in range(3):
        p = tmp_path / f"step{i}.npz"
        np.savez(p, dens=a, pres=b)
        paths.append(str(p))
        a = a * (1 + rng.normal(0, 0.002, 2000))
        b = b * (1 + rng.normal(0, 0.002, 2000))
    return paths


class TestMultiWorkflow:
    def test_init_append_extract(self, tmp_path, npz_checkpoints):
        chain = str(tmp_path / "m.nmk")
        assert main(["init", chain, npz_checkpoints[0],
                     "--error-bound", "1e-3"]) == 0
        assert main(["append", chain, npz_checkpoints[1]]) == 0
        assert main(["append", chain, npz_checkpoints[2]]) == 0
        out = str(tmp_path / "restart.npz")
        assert main(["extract", chain, "-o", out]) == 0

        with np.load(out) as decoded, np.load(npz_checkpoints[2]) as truth:
            assert set(decoded.files) == {"dens", "pres"}
            for v in ("dens", "pres"):
                rel = np.abs(decoded[v] / truth[v] - 1)
                assert rel.max() < 5e-3

    def test_extract_full_checkpoint_exact(self, tmp_path, npz_checkpoints):
        chain = str(tmp_path / "m.nmk")
        main(["init", chain, npz_checkpoints[0]])
        main(["append", chain, npz_checkpoints[1]])
        out = str(tmp_path / "it0.npz")
        assert main(["extract", chain, "-i", "0", "-o", out]) == 0
        with np.load(out) as decoded, np.load(npz_checkpoints[0]) as truth:
            for v in ("dens", "pres"):
                np.testing.assert_array_equal(decoded[v], truth[v])

    def test_inspect_multi(self, tmp_path, npz_checkpoints, capsys):
        chain = str(tmp_path / "m.nmk")
        main(["init", chain, npz_checkpoints[0]])
        main(["append", chain, npz_checkpoints[1]])
        capsys.readouterr()
        assert main(["inspect", chain]) == 0
        out = capsys.readouterr().out
        assert "multi-variable checkpoint" in out
        assert "dens" in out and "pres" in out
        assert out.count("delta 1") == 2

    def test_append_missing_chain(self, tmp_path, npz_checkpoints, capsys):
        rc = main(["append", str(tmp_path / "nope.nmk"),
                   npz_checkpoints[0]])
        assert rc == 2

    def test_config_inherited(self, tmp_path, npz_checkpoints, capsys):
        chain = str(tmp_path / "m.nmk")
        main(["init", chain, npz_checkpoints[0]])
        main(["append", chain, npz_checkpoints[1],
              "--nbits", "10", "--strategy", "equal_width"])
        main(["append", chain, npz_checkpoints[2]])
        capsys.readouterr()
        main(["inspect", chain])
        out = capsys.readouterr().out
        assert out.count("B=10") == 4  # 2 variables x 2 deltas
        assert out.count("equal_width") == 4

    def test_empty_npz_rejected(self, tmp_path, capsys):
        empty = tmp_path / "empty.npz"
        np.savez(empty)
        rc = main(["init", str(tmp_path / "c.nmk"), str(empty)])
        assert rc == 2
