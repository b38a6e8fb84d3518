"""Serialization: payload codecs and the framed container."""

import struct
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    CheckpointChain,
    FormatError,
    NumarckConfig,
    decode_iteration,
    encode_pair,
)
from repro.io import (
    CheckpointFile,
    chain_from_bytes,
    chain_to_bytes,
    decode_delta_bytes,
    decode_full_bytes,
    encode_delta_bytes,
    encode_full_bytes,
    load_chain,
    save_chain,
    save_chains,
)
from repro.io.format import last_delta_head


def _calls(monkeypatch, fn):
    """Record the calls of ``fn`` from every module that imported it."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for module in list(sys.modules.values()):
        if getattr(module, fn.__name__, None) is fn:
            monkeypatch.setattr(module, fn.__name__, counting)
    return calls


def _assert_encoded_equal(a, b):
    assert a.shape == b.shape
    assert a.nbits == b.nbits
    assert a.strategy == b.strategy
    assert a.zero_reserved == b.zero_reserved
    assert a.error_bound == b.error_bound
    np.testing.assert_array_equal(a.representatives, b.representatives)
    np.testing.assert_array_equal(a.indices, b.indices)
    np.testing.assert_array_equal(a.incompressible, b.incompressible)
    np.testing.assert_array_equal(a.exact_values, b.exact_values)


class TestFullPayload:
    def test_roundtrip_shapes(self, rng):
        for shape in [(10,), (4, 5), (2, 3, 4)]:
            arr = rng.normal(size=shape)
            out = decode_full_bytes(encode_full_bytes(arr))
            np.testing.assert_array_equal(out, arr)
            assert out.shape == shape

    def test_nan_inf_preserved(self):
        arr = np.array([np.nan, np.inf, -np.inf, 0.0])
        out = decode_full_bytes(encode_full_bytes(arr))
        assert np.isnan(out[0]) and np.isposinf(out[1]) and np.isneginf(out[2])

    def test_truncated_raises(self, rng):
        payload = encode_full_bytes(rng.normal(size=10))
        with pytest.raises(FormatError):
            decode_full_bytes(payload[:-8])


class TestDeltaPayload:
    @pytest.mark.parametrize("strategy", ["equal_width", "log_scale", "clustering"])
    def test_roundtrip(self, strategy, hard_pair):
        prev, curr = hard_pair
        enc = encode_pair(prev, curr, NumarckConfig(strategy=strategy))[0]
        out = decode_delta_bytes(encode_delta_bytes(enc))
        _assert_encoded_equal(enc, out)

    def test_decoded_delta_decodes_identically(self, smooth_pair):
        prev, curr = smooth_pair
        enc = encode_pair(prev, curr, NumarckConfig())[0]
        enc2 = decode_delta_bytes(encode_delta_bytes(enc))
        np.testing.assert_array_equal(
            decode_iteration(prev, enc), decode_iteration(prev, enc2)
        )

    def test_roundtrip_2d_and_nbits(self, rng):
        prev = rng.uniform(1, 2, (8, 16))
        curr = prev * (1 + rng.normal(0, 0.01, (8, 16)))
        for b in (3, 9, 12):
            enc = encode_pair(prev, curr, NumarckConfig(nbits=b))[0]
            _assert_encoded_equal(enc, decode_delta_bytes(encode_delta_bytes(enc)))

    def test_unreserved_flag_roundtrips(self, rng):
        prev = rng.uniform(1, 2, 100)
        enc = encode_pair(prev, prev * 1.01,
                               NumarckConfig(reserve_zero_bin=False))[0]
        assert not decode_delta_bytes(encode_delta_bytes(enc)).zero_reserved

    def test_bitmap_population_mismatch_detected(self):
        """A bitmap inconsistent with the exact-value count must be rejected."""
        prev = np.array([0.0, 1.0, 1.0, 1.0])  # one incompressible point
        enc = encode_pair(prev, np.array([2.0, 1.0, 1.0, 1.0]),
                               NumarckConfig())[0]
        assert enc.n_incompressible == 1
        # Rebuild the payload with a second incompressible bit but the same
        # single exact value.
        import dataclasses

        bad_mask = enc.incompressible.copy()
        bad_mask[1] = True
        bad = dataclasses.replace(enc, incompressible=bad_mask)
        with pytest.raises(FormatError, match="population"):
            decode_delta_bytes(encode_delta_bytes(bad))

    def test_out_of_range_index_detected(self, rng):
        prev = rng.uniform(1, 2, 64)
        enc = encode_pair(prev, prev * 1.05, NumarckConfig(nbits=8))[0]
        assert enc.representatives.size >= 1
        import dataclasses

        bad_idx = enc.indices.copy()
        bad_idx[0] = enc.representatives.size + 5
        bad = dataclasses.replace(enc, indices=bad_idx)
        with pytest.raises(FormatError, match="exceeds"):
            decode_delta_bytes(encode_delta_bytes(bad))


class TestContainer:
    def test_save_load_chain(self, tmp_path, rng):
        data = [rng.uniform(1, 2, 2000)]
        for _ in range(4):
            data.append(data[-1] * (1 + rng.normal(0, 0.003, 2000)))
        chain = CheckpointChain(data[0], NumarckConfig())
        chain.extend(data[1:])
        path = tmp_path / "c.nmk"
        nbytes = save_chain(path, chain)
        assert nbytes == path.stat().st_size
        loaded = load_chain(path)
        for i in range(5):
            np.testing.assert_array_equal(chain.reconstruct(i),
                                          loaded.reconstruct(i))

    def test_loaded_chain_appendable(self, tmp_path, rng):
        d0 = rng.uniform(1, 2, 500)
        d1 = d0 * 1.002
        chain = CheckpointChain(d0, NumarckConfig())
        chain.append(d1)
        path = tmp_path / "c.nmk"
        save_chain(path, chain)
        loaded = load_chain(path, NumarckConfig())
        d2 = d1 * 1.002
        loaded.append(d2)
        rel = np.abs(loaded.reconstruct(2) / d2 - 1)
        assert rel.max() < 5e-3

    def test_compressed_smaller_than_raw(self, tmp_path, rng):
        data = [rng.uniform(1, 2, 20_000)]
        for _ in range(5):
            data.append(data[-1] * (1 + rng.normal(0, 0.002, 20_000)))
        chain = CheckpointChain(data[0], NumarckConfig(nbits=8))
        chain.extend(data[1:])
        nbytes = save_chain(tmp_path / "c.nmk", chain)
        raw = 6 * 20_000 * 8
        assert nbytes < 0.35 * raw, "6 iterations must compress well below raw"

    def test_magic_check(self, tmp_path):
        p = tmp_path / "bad.nmk"
        p.write_bytes(b"JUNKJUNKJUNK")
        with pytest.raises(FormatError, match="not a NUMARCK"):
            CheckpointFile.open(p)

    def test_version_check(self, tmp_path):
        p = tmp_path / "v.nmk"
        p.write_bytes(b"NMRK" + struct.pack("<H", 99))
        with pytest.raises(FormatError, match="version"):
            CheckpointFile.open(p)

    def test_crc_detects_corruption(self, tmp_path, rng):
        d0 = rng.uniform(1, 2, 1000)
        chain = CheckpointChain(d0, NumarckConfig())
        chain.append(d0 * 1.001)
        path = tmp_path / "c.nmk"
        save_chain(path, chain)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0x01  # single bit flip mid-file
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError):
            load_chain(path)

    def test_truncation_detected(self, tmp_path, rng):
        d0 = rng.uniform(1, 2, 1000)
        chain = CheckpointChain(d0, NumarckConfig())
        chain.append(d0 * 1.001)
        path = tmp_path / "c.nmk"
        save_chain(path, chain)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 10])
        with pytest.raises(FormatError, match="truncated|CRC|exceeds"):
            load_chain(path)

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "e.nmk"
        CheckpointFile.create(p).close()
        with pytest.raises(FormatError, match="no FULL"):
            load_chain(p)

    def test_delta_before_full_rejected(self, tmp_path, rng):
        prev = rng.uniform(1, 2, 50)
        enc = encode_pair(prev, prev * 1.01, NumarckConfig())[0]
        with CheckpointFile.create(tmp_path / "d.nmk") as f:
            f.write_delta(encode_delta_bytes(enc))
        with pytest.raises(FormatError, match="before FULL"):
            load_chain(tmp_path / "d.nmk")

    def test_write_on_read_handle_rejected(self, tmp_path, rng):
        p = tmp_path / "c.nmk"
        with CheckpointFile.create(p) as f:
            f.write_full(encode_full_bytes(rng.normal(size=10)))
        with CheckpointFile.open(p) as f:
            with pytest.raises(FormatError):
                f.write_full(encode_full_bytes(rng.normal(size=10)))


def _trajectory_states(rng, n_deltas, n=2000):
    states = [rng.uniform(1.0, 2.0, n)]
    for _ in range(n_deltas):
        states.append(states[-1] * (1.0 + rng.normal(0.0, 3e-3, n)))
    return states


def _exact_history(rng, n_deltas, n=3000):
    """States whose deltas decode bit-exactly: each point either keeps
    its value (the reserved zero bin) or doubles (a change ratio of
    exactly 1, stored as the one-value table ``[1.0]``).  A restart then
    resumes from the very state the unbroken chain holds, under either
    reference mode."""
    states = [rng.uniform(1.0, 2.0, n)]
    for _ in range(n_deltas):
        states.append(states[-1] * np.where(rng.random(n) < 0.3, 2.0, 1.0))
    return states


class TestResume:
    """A rebuilt chain decodes each delta once, and only when it is read
    or appended to."""

    @pytest.fixture
    def decodes(self, monkeypatch):
        """Count ``decode_iteration`` calls from every module that
        imported it."""
        return _calls(monkeypatch, decode_iteration)

    @pytest.mark.parametrize("adaptive", [False, True],
                             ids=["fixed", "adaptive"])
    def test_rebuilt_chain_decodes_each_delta_once(self, rng, monkeypatch,
                                                   decodes, adaptive):
        # An adaptive chain's reuse hits are table references, resolved
        # in the same single pass.
        cfg = NumarckConfig(nbits=8, strategy="equal_width",
                            adaptive=adaptive)
        states = _trajectory_states(rng, n_deltas=5)
        chain = CheckpointChain(states[0], cfg)
        chain.extend(states[1:-1])
        blob = chain_to_bytes(chain)
        payloads = _calls(monkeypatch, decode_delta_bytes)
        decodes.clear()
        rebuilt = list(chain_from_bytes(blob, cfg).iter_states())
        assert len(payloads) == len(decodes) == len(chain) - 1
        for got, want in zip(rebuilt, chain.iter_states(), strict=True):
            np.testing.assert_array_equal(got, want)
        payloads.clear()
        decodes.clear()
        loaded = chain_from_bytes(blob, cfg)
        loaded.append(states[-1])
        assert len(payloads) == len(decodes) == len(chain) - 1

    def test_load_decodes_nothing_read_decodes_once(self, tmp_path, rng,
                                                    decodes):
        data = _trajectory_states(rng, n_deltas=5)
        chain = CheckpointChain(data[0], NumarckConfig())
        chain.extend(data[1:])
        expected = list(chain.iter_states())
        blob = chain_to_bytes(chain)
        path = tmp_path / "c.nmk"
        path.write_bytes(blob)
        decodes.clear()
        load_chain(path)
        load_chain(path, recover="tail")
        assert decodes == []
        states = list(chain_from_bytes(blob).iter_states())
        assert len(decodes) == len(chain.deltas)
        for got, want in zip(states, expected, strict=True):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("adaptive", [False, True],
                             ids=["fixed", "adaptive"])
    @pytest.mark.parametrize("reference", ["original", "reconstructed"])
    def test_load_append_matches_unbroken(self, tmp_path, rng, reference,
                                          adaptive):
        # Two appends after the restart: a doubling step, which an
        # adaptive chain encodes with the model it resumed with, then a
        # noisy step that refits.
        cfg = NumarckConfig(reference=reference, adaptive=adaptive)
        states = _exact_history(rng, n_deltas=4)
        states.append(states[-1] * (1.0 + rng.normal(0.0, 2e-3,
                                                     states[0].size)))
        unbroken = CheckpointChain(states[0], cfg)
        unbroken.extend(states[1:4])
        path = tmp_path / "c.nmk"
        save_chain(path, unbroken)
        resumed = load_chain(path, cfg)
        unbroken.extend(states[4:])
        resumed.extend(states[4:])
        if adaptive:
            assert [d.model_reused for d in resumed.deltas[-2:]] \
                == [True, False]
        assert chain_to_bytes(resumed) == chain_to_bytes(unbroken)

    @pytest.mark.parametrize("reference", ["original", "reconstructed"])
    def test_truncate_append_matches_prefix(self, rng, reference, decodes):
        cfg = NumarckConfig(reference=reference)
        states = _exact_history(rng, n_deltas=4)
        chain = CheckpointChain(states[0], cfg)
        chain.extend(states[1:])
        decodes.clear()
        chain.truncate(3)
        assert decodes == []
        prefix = CheckpointChain(states[0], cfg)
        prefix.extend(states[1:3])
        chain.append(states[4])
        prefix.append(states[4])
        assert chain_to_bytes(chain) == chain_to_bytes(prefix)


class TestChainOwnsPayloads:
    """A chain encodes each delta's payload once, at append; files and
    savers only frame it."""

    @staticmethod
    def _adaptive_chain(rng, n_deltas=5):
        cfg = NumarckConfig(nbits=8, strategy="equal_width", adaptive=True)
        states = _trajectory_states(rng, n_deltas=n_deltas)
        chain = CheckpointChain(states[0], cfg)
        return chain, states[1:]

    def test_append_encodes_once_savers_never(self, tmp_path, rng,
                                              monkeypatch):
        encodes = _calls(monkeypatch, encode_delta_bytes)
        chain, states = self._adaptive_chain(rng)
        chain.extend(states)
        assert len(encodes) == len(states)
        assert any(d.model_reused for d in chain.deltas)
        encodes.clear()
        blob = chain_to_bytes(chain)
        save_chain(tmp_path / "c.nmk", chain)
        save_chains(tmp_path / "m.nmk", {"a": chain, "b": chain})
        assert encodes == []
        assert (tmp_path / "c.nmk").read_bytes() == blob
        assert chain_to_bytes(chain_from_bytes(blob)) == blob

    def test_append_scan_and_cut_parse_no_payload(self, tmp_path, rng,
                                                  monkeypatch):
        a, states = self._adaptive_chain(rng)
        a.extend(states)
        b = CheckpointChain(states[0] * 3.0, a.config)
        b.extend([s * 3.0 for s in states])
        path, saved = tmp_path / "m.nmk", tmp_path / "saved.nmk"
        save_chains(saved, {"a": a, "b": b})
        path.write_bytes(saved.read_bytes())
        parsed = [_calls(monkeypatch, fn) for fn in
                  (decode_delta_bytes, decode_full_bytes, last_delta_head)]
        with CheckpointFile.append(path) as f:
            assert f.n_records == 2 * len(a)
            f.truncate_records(4)       # both fulls and both first deltas
            for i in range(1, len(a) - 1):
                f.write_delta(a.payloads[i], name="a")
                f.write_delta(b.payloads[i], name="b")
            with pytest.raises(FormatError, match="already"):
                f.write_full(a.full_payload, name="a")
            with pytest.raises(FormatError, match="no full"):
                f.write_delta(a.payloads[0], name="c")
        assert parsed == [[], [], []]
        assert path.read_bytes() == saved.read_bytes()


def _traced_peak(fn):
    """``(fn(), peak bytes fn allocated)``, as tracemalloc counts them."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestOneCopyPerRecord:
    """A record is copied once where it is built, framed or parsed: a
    1,000,000-point full checkpoint is an 8.0 MB record."""

    @pytest.fixture(scope="class")
    def d0(self):
        return np.random.default_rng(0).uniform(1.0, 2.0, 1_000_000)

    def test_chain_holds_its_full_record_once(self, d0):
        chain, peak = _traced_peak(lambda: CheckpointChain(d0))
        assert peak <= 1.1 * d0.nbytes
        np.testing.assert_array_equal(chain.full_checkpoint, d0)

    def test_framing_copies_once(self, d0):
        chain = CheckpointChain(d0)
        blob, peak = _traced_peak(lambda: chain_to_bytes(chain))
        # The frame, and the stream buffer it is written to.
        assert peak <= 2.1 * len(blob)

    def test_parsing_copies_once(self, d0):
        blob = chain_to_bytes(CheckpointChain(d0))
        chain, peak = _traced_peak(lambda: chain_from_bytes(blob))
        assert peak <= 1.1 * len(blob)
        np.testing.assert_array_equal(chain.reconstruct(), d0)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**31), nbits=st.integers(2, 12))
def test_property_delta_roundtrip(seed, nbits):
    rng = np.random.default_rng(seed)
    prev = rng.normal(size=150)
    prev[rng.random(150) < 0.1] = 0.0
    curr = prev * (1 + rng.normal(0, 0.05, 150))
    enc = encode_pair(prev, curr, NumarckConfig(nbits=nbits))[0]
    out = decode_delta_bytes(encode_delta_bytes(enc))
    _assert_encoded_equal(enc, out)
