"""CLI tests (driving main() directly, plus subprocess exit-code checks)."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main
from repro.core import CheckpointChain, NumarckConfig
from repro.io import (chain_to_bytes, decode_delta_bytes, load_chain,
                      load_chains, save_chain, save_chains)
from repro.telemetry import Telemetry, use


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


class TestAppendInPlace:
    """``append`` adds one record per variable to the file, which then
    holds the bytes a whole-file save of the same chains would: the
    chains that loading the file, appending and saving produced."""

    @pytest.mark.parametrize("adaptive", [False, True],
                             ids=["fixed", "adaptive"])
    @pytest.mark.parametrize("names", [(None,), ("dens", "pres")],
                             ids=["single", "multi"])
    def test_one_record_per_variable(self, tmp_path, rng, names, adaptive):
        flags = ["-E", "1e-3", "--nbits", "8", "--strategy", "equal_width"]
        flags += ["--adaptive"] if adaptive else []
        cfg = NumarckConfig(error_bound=1e-3, nbits=8,
                            strategy="equal_width", adaptive=adaptive)
        state = {v: rng.uniform(1.0, 2.0, 3000) for v in names}
        inputs = []
        for i in range(4):
            path = tmp_path / f"step{i}.{'npy' if names == (None,) else 'npz'}"
            if names == (None,):
                np.save(path, state[None])
            else:
                np.savez(path, **state)
            inputs.append(str(path))
            state = {v: a * (1 + rng.normal(0, 2e-3, a.size))
                     for v, a in state.items()}

        chain = tmp_path / "c.nmk"
        assert main(["init", str(chain), inputs[0], *flags]) == 0
        for step in inputs[1:]:
            tel = Telemetry(keep_spans=True)
            with use(tel):
                assert main(["append", str(chain), step, *flags]) == 0
            writes = [s for s in tel.spans if s.name == "io.write_record"]
            assert len(writes) == len(names)

        # The same steps through a whole-file load, append and save.
        ref = tmp_path / "ref.nmk"
        if names == (None,):
            save_chain(ref, CheckpointChain(np.load(inputs[0]), cfg))
            for step in inputs[1:]:
                chains = load_chain(ref, cfg)
                chains.append(np.load(step))
                save_chain(ref, chains)
        else:
            with np.load(inputs[0]) as first:
                save_chains(ref, {v: CheckpointChain(first[v], cfg)
                                  for v in names})
            for step in inputs[1:]:
                chains = load_chains(ref, cfg)
                with np.load(step) as arrays:
                    for v in names:
                        chains[v].append(arrays[v])
                save_chains(ref, chains)
        assert chain.read_bytes() == ref.read_bytes()
        if adaptive and names == (None,):
            # A reopened single chain reuses its stored table, so the
            # appended records include table references.
            assert any(d.model_reused for d in load_chain(chain).deltas)

    @pytest.mark.parametrize("adaptive", [False, True],
                             ids=["fixed", "adaptive"])
    def test_append_decodes_each_stored_delta_once(self, tmp_path, rng,
                                                   monkeypatch, adaptive):
        # The stored config comes from the last delta's head; only the
        # append's reference state decodes the deltas.
        cfg = NumarckConfig(error_bound=1e-3, nbits=9, strategy="log_scale",
                            adaptive=adaptive)
        states = [rng.uniform(1.0, 2.0, 2000)]
        for _ in range(8):
            states.append(states[-1] * (1 + rng.normal(0, 2e-3, 2000)))
        chain = CheckpointChain(states[0], cfg)
        chain.extend(states[1:8])
        save_chain(tmp_path / "c.nmk", chain)
        np.save(tmp_path / "s.npy", states[8])
        decodes, decode = [], decode_delta_bytes

        def counting(*args, **kwargs):
            decodes.append(args)
            return decode(*args, **kwargs)

        for module in list(sys.modules.values()):
            if getattr(module, "decode_delta_bytes", None) \
                    is decode_delta_bytes:
                monkeypatch.setattr(module, "decode_delta_bytes", counting)
        assert main(["append", str(tmp_path / "c.nmk"),
                     str(tmp_path / "s.npy")]) == 0
        assert len(decodes) == 7
        loaded = load_chain(tmp_path / "c.nmk")
        assert len(loaded) == 9
        assert {(d.error_bound, d.nbits, d.strategy)
                for d in loaded.deltas} == {(1e-3, 9, "log_scale")}

    def test_append_cuts_incomplete_checkpoint(self, tmp_path, rng):
        # Variable ``a`` holds one more iteration than ``b``, as a crash
        # between the two records of an append leaves it: the next append
        # cuts that record and writes a whole checkpoint.
        a, b = rng.uniform(1.0, 2.0, (2, 500))
        chains = {v: CheckpointChain(x) for v, x in (("a", a), ("b", b))}
        save_chains(tmp_path / "ref.nmk", chains)
        chains["a"].append(a * 1.001)
        save_chains(tmp_path / "c.nmk", chains)
        np.savez(tmp_path / "s.npz", a=a * 1.002, b=b * 1.002)
        assert main(["append", str(tmp_path / "c.nmk"),
                     str(tmp_path / "s.npz")]) == 0
        assert main(["append", str(tmp_path / "ref.nmk"),
                     str(tmp_path / "s.npz")]) == 0
        assert (tmp_path / "c.nmk").read_bytes() \
            == (tmp_path / "ref.nmk").read_bytes()
        assert [len(c) for c in load_chains(tmp_path / "c.nmk").values()] \
            == [2, 2]

    def test_bad_variable_leaves_file_appendable(self, tmp_path, rng,
                                                 capsys):
        a, b = rng.uniform(1.0, 2.0, (2, 500))
        chain = tmp_path / "c.nmk"
        np.savez(tmp_path / "s0.npz", a=a, b=b)
        np.savez(tmp_path / "bad.npz", a=a * 1.001, b=b[:400])
        np.savez(tmp_path / "s1.npz", a=a * 1.001, b=b * 1.001)
        assert main(["init", str(chain), str(tmp_path / "s0.npz")]) == 0
        before = chain.read_bytes()
        assert main(["append", str(chain), str(tmp_path / "bad.npz")]) == 1
        assert "shape" in capsys.readouterr().err
        assert chain.read_bytes() == before
        assert main(["append", str(chain), str(tmp_path / "s1.npz")]) == 0
        assert [len(c) for c in load_chains(chain).values()] == [2, 2]

    def test_append_after_torn_tail(self, tmp_path, arrays):
        # A crash mid-append tears the last record; the next append cuts
        # it without a separate repair.
        chain, ref = tmp_path / "c.nmk", tmp_path / "ref.nmk"
        for path in (chain, ref):
            assert main(["init", str(path), arrays[0]]) == 0
            assert main(["append", str(path), arrays[1]]) == 0
        chain.write_bytes(chain.read_bytes()[:-9])
        assert main(["append", str(chain), arrays[2]]) == 0
        expected = load_chain(tmp_path / "ref.nmk")
        expected.truncate(1)
        expected.append(np.load(arrays[2]))
        assert chain.read_bytes() == chain_to_bytes(expected)

    def test_append_rejects_other_flavour(self, tmp_path, arrays, capsys):
        chain = str(tmp_path / "c.nmk")
        main(["init", chain, arrays[0]])
        np.savez(tmp_path / "s.npz", x=np.load(arrays[1]))
        assert main(["append", chain, str(tmp_path / "s.npz")]) == 2
        assert ".npy array" in capsys.readouterr().err


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
        from repro.io import (CheckpointFile, encode_delta_bytes,
                              encode_full_bytes)

        prev, curr = np.load(arrays[0]), np.load(arrays[1])
        path = tmp_path / "d.nmk"
        with CheckpointFile.create(path) as f:
            f.write_delta(encode_delta_bytes(
                encode_pair(prev, curr, NumarckConfig())[0]))
            f.write_full(encode_full_bytes(prev))
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
