"""CLI tests (driving main() directly, plus subprocess exit-code checks)."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main


@pytest.fixture
def arrays(tmp_path, rng):
    """Three consecutive iterations saved as .npy files."""
    paths = []
    data = rng.uniform(1.0, 2.0, 3000)
    for i in range(3):
        p = tmp_path / f"iter{i}.npy"
        np.save(p, data)
        paths.append(str(p))
        data = data * (1 + rng.normal(0, 0.002, 3000))
    return paths


class TestWorkflow:
    def test_init_append_extract(self, tmp_path, arrays, capsys):
        chain = str(tmp_path / "c.nmk")
        assert main(["init", chain, arrays[0], "--error-bound", "1e-3"]) == 0
        assert main(["append", chain, arrays[1]]) == 0
        assert main(["append", chain, arrays[2]]) == 0
        out_npy = str(tmp_path / "out.npy")
        assert main(["extract", chain, "-o", out_npy]) == 0

        decoded = np.load(out_npy)
        truth = np.load(arrays[2])
        rel = np.abs(decoded / truth - 1)
        assert rel.max() < 5e-3  # two open-loop steps at E=1e-3

    def test_extract_specific_iteration(self, tmp_path, arrays):
        chain = str(tmp_path / "c.nmk")
        main(["init", chain, arrays[0]])
        main(["append", chain, arrays[1]])
        out_npy = str(tmp_path / "it0.npy")
        assert main(["extract", chain, "-i", "0", "-o", out_npy]) == 0
        np.testing.assert_array_equal(np.load(out_npy), np.load(arrays[0]))

    def test_append_inherits_config(self, tmp_path, arrays, capsys):
        chain = str(tmp_path / "c.nmk")
        main(["init", chain, arrays[0]])
        main(["append", chain, arrays[1], "--error-bound", "5e-3",
              "--nbits", "9", "--strategy", "log_scale"])
        capsys.readouterr()
        main(["inspect", chain])
        first = capsys.readouterr().out
        assert "B=9" in first and "log_scale" in first
        # Second append without flags must reuse the same parameters.
        main(["append", chain, arrays[2]])
        capsys.readouterr()
        main(["inspect", chain])
        out = capsys.readouterr().out
        assert out.count("B=9") == 2
        assert out.count("log_scale") == 2

    def test_inspect_output(self, tmp_path, arrays, capsys):
        chain = str(tmp_path / "c.nmk")
        main(["init", chain, arrays[0]])
        main(["append", chain, arrays[1]])
        capsys.readouterr()
        assert main(["inspect", chain]) == 0
        out = capsys.readouterr().out
        assert "2 iterations" in out
        assert "delta 1" in out
        assert "gamma=" in out


class TestErrors:
    def test_append_missing_chain(self, tmp_path, arrays, capsys):
        rc = main(["append", str(tmp_path / "nope.nmk"), arrays[0]])
        assert rc == 2
        assert "does not exist" in capsys.readouterr().err

    def test_inspect_garbage_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.nmk"
        bad.write_bytes(b"garbage")
        assert main(["inspect", str(bad)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_inspect_names_delta_before_full(self, tmp_path, arrays, capsys):
        """A single-chain file whose DELT precedes its FULL is reported as
        exactly that, not as a malformed multi-variable file."""
        from repro.core import NumarckConfig, encode_pair
        from repro.io import CheckpointFile

        prev, curr = np.load(arrays[0]), np.load(arrays[1])
        path = tmp_path / "d.nmk"
        with CheckpointFile.create(path) as f:
            f.write_delta(encode_pair(prev, curr, NumarckConfig())[0])
            f.write_full(prev)
        assert main(["inspect", str(path)]) == 1
        err = capsys.readouterr().err
        assert "before FULL" in err
        assert "multi" not in err

    def test_bad_config_value(self, tmp_path, arrays, capsys):
        chain = str(tmp_path / "c.nmk")
        rc = main(["init", chain, arrays[0], "--error-bound", "5.0"])
        assert rc == 1
        assert "error_bound" in capsys.readouterr().err

    def test_extract_out_of_range(self, tmp_path, arrays, capsys):
        chain = str(tmp_path / "c.nmk")
        main(["init", chain, arrays[0]])
        rc = main(["extract", chain, "-i", "7",
                   "-o", str(tmp_path / "x.npy")])
        assert rc == 1


def _run_cli(*args, env_extra=None):
    """Run ``python -m repro ...`` as a real subprocess.

    Exit codes flow through ``raise SystemExit(main())``, so this checks
    the actual process status an operator's shell script would see.
    """
    env = os.environ.copy()
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


class TestSubprocessExitCodes:
    """verify/repair drive shell pipelines; pin their process exit codes."""

    @pytest.fixture
    def chain(self, tmp_path, arrays):
        path = str(tmp_path / "c.nmk")
        assert main(["init", path, arrays[0]]) == 0
        assert main(["append", path, arrays[1]]) == 0
        return path

    def test_verify_clean_exits_zero(self, chain):
        proc = _run_cli("verify", chain)
        assert proc.returncode == 0
        assert "clean" in proc.stdout

    def test_verify_damaged_exits_one(self, chain):
        with open(chain, "r+b") as fh:
            fh.seek(-3, os.SEEK_END)
            fh.write(b"\xff\xff\xff")
        proc = _run_cli("verify", chain)
        assert proc.returncode == 1
        assert "DAMAGED" in proc.stderr

    def test_verify_missing_file_exits_one(self, tmp_path):
        proc = _run_cli("verify", str(tmp_path / "nope.nmk"))
        assert proc.returncode == 1
        assert "error:" in proc.stderr

    def test_repair_then_verify_recovers(self, chain, tmp_path):
        with open(chain, "r+b") as fh:
            fh.seek(-3, os.SEEK_END)
            fh.write(b"\xff\xff\xff")
        proc = _run_cli("repair", chain)
        assert proc.returncode == 0
        assert "kept" in proc.stdout
        assert Path(f"{chain}.bak").exists()
        assert _run_cli("verify", chain).returncode == 0

    def test_repair_clean_file_is_noop(self, chain):
        proc = _run_cli("repair", chain)
        assert proc.returncode == 0
        assert "already clean" in proc.stdout
        assert not Path(f"{chain}.bak").exists()

    def test_repair_missing_file_exits_one(self, tmp_path):
        proc = _run_cli("repair", str(tmp_path / "nope.nmk"))
        assert proc.returncode == 1
        assert "error:" in proc.stderr
