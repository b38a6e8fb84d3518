"""Multi-variable checkpoint file tests."""

import numpy as np
import pytest

from repro.core import CheckpointChain, FormatError, NumarckConfig, encode_pair
from repro.io import (CheckpointFile, encode_delta_bytes, encode_full_bytes,
                      load_chain, load_chains, save_chain, save_chains)
from repro.simulations.flash import FlashSimulation


def _chains(rng, n_vars=3, n_iters=3, n=1500):
    cfg = NumarckConfig(error_bound=1e-3)
    out = {}
    for v in range(n_vars):
        data = rng.uniform(1, 2, n)
        chain = CheckpointChain(data, cfg)
        for _ in range(n_iters):
            data = data * (1 + rng.normal(0, 0.002, n))
            chain.append(data)
        out[f"var{v}"] = chain
    return out


class TestSaveLoad:
    def test_roundtrip(self, tmp_path, rng):
        chains = _chains(rng)
        path = tmp_path / "multi.nmk"
        nbytes = save_chains(path, chains)
        assert nbytes == path.stat().st_size
        loaded = load_chains(path)
        assert set(loaded) == set(chains)
        for name, chain in chains.items():
            for i in range(len(chain)):
                np.testing.assert_array_equal(chain.reconstruct(i),
                                              loaded[name].reconstruct(i))

    def test_uneven_chain_lengths(self, tmp_path, rng):
        chains = _chains(rng, n_vars=2, n_iters=2)
        chains["var0"].append(chains["var0"].reconstruct() * 1.001)
        path = tmp_path / "m.nmk"
        save_chains(path, chains)
        loaded = load_chains(path)
        assert len(loaded["var0"]) == 4
        assert len(loaded["var1"]) == 3

    def test_loaded_chains_appendable(self, tmp_path, rng):
        chains = _chains(rng, n_vars=1, n_iters=1)
        path = tmp_path / "m.nmk"
        save_chains(path, chains)
        loaded = load_chains(path, NumarckConfig())
        prev = loaded["var0"].reconstruct()
        loaded["var0"].append(prev * 1.002)
        assert len(loaded["var0"]) == 3

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(FormatError):
            save_chains(tmp_path / "e.nmk", {})

    def test_flash_checkpoint_roundtrip(self, tmp_path, flash_checkpoints):
        """All ten FLASH variables in one file, like a real checkpoint."""
        cfg = NumarckConfig(error_bound=1e-3)
        chains = {}
        for var in flash_checkpoints[0]:
            chain = CheckpointChain(flash_checkpoints[0][var], cfg)
            for cp in flash_checkpoints[1:4]:
                chain.append(cp[var])
            chains[var] = chain
        path = tmp_path / "flash.nmk"
        save_chains(path, chains)
        loaded = load_chains(path)
        assert len(loaded) == 10
        for var in chains:
            np.testing.assert_array_equal(chains[var].reconstruct(),
                                          loaded[var].reconstruct())


class TestWriter:
    def test_duplicate_full_rejected(self, tmp_path, rng):
        with CheckpointFile.create(tmp_path / "w.nmk") as w:
            w.write_full(encode_full_bytes(rng.normal(size=10)), name="a")
            with pytest.raises(FormatError, match="already"):
                w.write_full(encode_full_bytes(rng.normal(size=10)), name="a")

    def test_delta_before_full_rejected(self, tmp_path, rng):
        prev = rng.uniform(1, 2, 50)
        enc = encode_pair(prev, prev * 1.01, NumarckConfig())[0]
        with CheckpointFile.create(tmp_path / "w.nmk") as w:
            with pytest.raises(FormatError, match="no full"):
                w.write_delta(encode_delta_bytes(enc), name="a")

    def test_interleaved_streaming_write(self, tmp_path, rng):
        """Write the way an in-situ integration would: iteration by
        iteration across variables."""
        cfg = NumarckConfig(error_bound=1e-3)
        a = rng.uniform(1, 2, 500)
        b = rng.uniform(5, 6, 500)
        path = tmp_path / "s.nmk"
        with CheckpointFile.create(path) as w:
            w.write_full(encode_full_bytes(a), name="a")
            w.write_full(encode_full_bytes(b), name="b")
            ca, cb = a, b
            for _ in range(2):
                na = ca * (1 + rng.normal(0, 0.002, 500))
                nb = cb * (1 + rng.normal(0, 0.002, 500))
                w.write_delta(encode_delta_bytes(encode_pair(ca, na, cfg)[0]),
                              name="a")
                w.write_delta(encode_delta_bytes(encode_pair(cb, nb, cfg)[0]),
                              name="b")
                ca, cb = na, nb
        loaded = load_chains(path)
        assert len(loaded["a"]) == 3 and len(loaded["b"]) == 3
        rel = np.abs(loaded["a"].reconstruct() / ca - 1)
        assert rel.max() < 5e-3

    def test_long_name_rejected(self, tmp_path, rng):
        with CheckpointFile.create(tmp_path / "w.nmk") as w:
            with pytest.raises(FormatError, match="too long"):
                w.write_full(encode_full_bytes(rng.normal(size=10)),
                             name="x" * 300)

    def test_corruption_detected(self, tmp_path, rng):
        path = tmp_path / "c.nmk"
        save_chains(path, _chains(rng, n_vars=1, n_iters=1))
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError):
            load_chains(path)

    def test_mixed_named_and_unnamed_rejected(self, tmp_path, rng):
        path = tmp_path / "mix.nmk"
        with CheckpointFile.create(path) as w:
            w.write_full(encode_full_bytes(rng.normal(size=10)), name="a")
            w.write_full(encode_full_bytes(rng.normal(size=10)))
        with pytest.raises(FormatError, match="mixes"):
            load_chains(path)

    def test_each_loader_rejects_the_other_family(self, tmp_path, rng):
        chains = _chains(rng, n_vars=1, n_iters=1)
        multi, single = tmp_path / "m.nmk", tmp_path / "s.nmk"
        save_chains(multi, chains)
        save_chain(single, chains["var0"])
        with pytest.raises(FormatError, match="load_chains"):
            load_chain(multi)
        with pytest.raises(FormatError, match="load_chain"):
            load_chains(single)
