"""One encode kernel behind the pair, chunked and SPMD encoders.

* float64 containers keep their exact bytes (sha256 pins), multi-variable
  files with per-variable table references included;
* float32 and mixed-dtype streams keep their container bytes and the
  values ``decode_stream`` rebuilds from them (sha256 pins);
* for one bin table, the three drivers produce identical per-point
  output for float64 and float32 input;
* a chain append computes the change ratios once and takes its error
  statistics from the kernel, matching ``iteration_stats`` exactly.
"""

import hashlib
import sys
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Codec, NumarckConfig
from repro.core.change import change_ratios
from repro.core.checkpoint import CheckpointChain
from repro.core.encoder import encode_pair
from repro.core.metrics import iteration_stats
from repro.core.strategies.base import BinModel
from repro.core.streaming import _ChunkedEncoder, decode_stream
from repro.io import (CheckpointFile, chain_to_bytes, encode_delta_bytes,
                      save_chains, streamed_from_bytes, streamed_to_bytes)
from repro.parallel import SerialComm, parallel_encode


def _states():
    rng = np.random.default_rng(1234)
    s = rng.uniform(1.0, 2.0, 3000)
    s[:40] = 0.0                      # zero pairs stay compressible
    states = [s]
    for step in range(3):
        s = s * (1.0 + rng.normal(0.0, 2e-3, s.size))
        s[100 + step] = np.nan        # forced exact
        s[:40] = 0.0
        s[40 + step] = 0.0            # x -> 0 and 0 -> x transitions
        states.append(s)
    return states


def _sha(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


class TestPinnedFloat64Bytes:
    """sha256 pins: any change to the float64 delta or stream bytes fails."""

    @pytest.mark.parametrize("strategy,adaptive,digest", [
        ("equal_width", False,
         "95a15652b90984aee42e4945be443659bb200b0e222ecbc126c1ba0b14918004"),
        ("log_scale", True,
         "5c86982ccc5e78047622a5b6e66e94a971a39cc5613c832b5b0ea260eb7f7ba8"),
    ])
    def test_chain_to_bytes(self, strategy, adaptive, digest):
        cfg = NumarckConfig(error_bound=1e-3, nbits=8, strategy=strategy,
                            adaptive=adaptive)
        chain = Codec(config=cfg).compress_chain(_states())
        assert _sha(chain_to_bytes(chain)) == digest

    def test_streamed_to_bytes(self):
        states = _states()
        cfg = NumarckConfig(error_bound=1e-3, nbits=8, strategy="equal_width")
        streamed = Codec(config=cfg, chunk_size=700).compress_stream_arrays(
            states[0], states[1])
        assert streamed.value_bits == 64
        assert _sha(streamed_to_bytes(streamed)) == (
            "560f12a79bfbc01f491329a449201d4afc52b6a492d5f5604afa3751e9c654ab")


def _stream_case(kind: str):
    """``(prev, streamed)`` for a float32 stream or one whose current
    chunks mix float32 and float64."""
    states = _states()
    prev, curr = states[0], states[1]
    codec = Codec(config=NumarckConfig(error_bound=1e-3, nbits=4,
                                       strategy="log_scale"), chunk_size=700)
    if kind == "float32":
        prev, curr = prev.astype(np.float32), curr.astype(np.float32)
        return prev, codec.compress_stream_arrays(prev, curr)
    curr_chunks = [c.astype(np.float32) if i % 2 else c
                   for i, c in enumerate(np.array_split(curr, 5))]
    return prev, codec.compress_stream(lambda: iter(np.array_split(prev, 5)),
                                       lambda: iter(curr_chunks))


class TestPinnedStreamBytes:
    """sha256 pins of a float32 and a mixed-dtype stream: the container
    bytes, and the values ``decode_stream`` rebuilds from those bytes."""

    @pytest.mark.parametrize("kind,value_bits,blob_digest,decoded_digest", [
        ("float32", 32,
         "6c6e7513ca3dd215a5aa52d5cbba97b6083d1503965814d320ef7748ebb0fbe0",
         "ba003fd091d0d30dc0977e43010df61641bb155ec42ccf36c75cd0278428fddd"),
        ("mixed", 64,
         "39a2a45d9b8620c062e1792ce59ef28af6db2d2796511eb108e7381a71b512e0",
         "7129c737aecf9ba58720366fa8be423d492d51ae4f8636a95ff311768a7244c0"),
    ], ids=["float32", "mixed"])
    def test_bytes_and_decode(self, kind, value_bits, blob_digest,
                              decoded_digest):
        prev, streamed = _stream_case(kind)
        assert streamed.value_bits == value_bits
        blob = streamed_to_bytes(streamed)
        back = streamed_from_bytes(blob)
        out = np.concatenate(list(decode_stream(
            iter(np.array_split(prev, len(back.chunks))), back)))
        assert out.dtype == np.float64 and out.size == prev.size
        assert (_sha(blob), _sha(out.tobytes())) == (blob_digest,
                                                     decoded_digest)


def _adaptive_chains() -> dict:
    """Two adaptive chains of unequal depth: reuse hits on both make the
    multi-variable writer store per-variable table references."""
    cfg = NumarckConfig(error_bound=1e-3, nbits=8, strategy="log_scale",
                        adaptive=True)
    states = _states()
    return {"dens": Codec(config=cfg).compress_chain(states),
            "pres": Codec(config=cfg).compress_chain(
                [s * 1.5 for s in states[:3]])}


class TestPinnedMultiVariableBytes:
    def test_save_chains(self, tmp_path):
        path = tmp_path / "m.nmk"
        save_chains(path, _adaptive_chains())
        with CheckpointFile.open(path) as f:
            # NDEL payload: name_len:u8 name nbits:u8 flags:u8 ...
            refs = [bool(p[p[0] + 2] & 0x08)
                    for tag, p in f.records() if tag == b"NDEL"]
        assert refs == [False, False, True, True, True]
        assert _sha(path.read_bytes()) == (
            "df7eb24f1498aeb99fecc0d6f0c5f8391f6fa19b856f4edc4cd1f3108241958b")

    def test_reopened_append_equals_save_chains(self, tmp_path):
        chains = _adaptive_chains()
        saved = tmp_path / "saved.nmk"
        save_chains(saved, chains)
        path = tmp_path / "appended.nmk"
        with CheckpointFile.create(path) as w:
            for name, chain in chains.items():
                w.write_full(chain.full_payload, name=name)
            for name, chain in chains.items():
                w.write_delta(chain.payloads[0], name=name)
        with CheckpointFile.append(path) as w:
            for i in (1, 2):
                for name, chain in chains.items():
                    if i < len(chain.payloads):
                        w.write_delta(chain.payloads[i], name=name)
        assert path.read_bytes() == saved.read_bytes()


@st.composite
def _cases(draw):
    n = draw(st.integers(1, 300))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    prev = rng.uniform(1.0, 2.0, n)
    curr = prev * (1.0 + rng.normal(0.0, draw(st.sampled_from([1e-4, 3e-3,
                                                                2e-2])), n))
    special = rng.random(n)
    prev[special < 0.03] = 0.0                     # 0 -> x: forced exact
    curr[(special >= 0.03) & (special < 0.05)] = np.nan
    reps = np.unique(rng.normal(0.0, 0.01, draw(st.integers(1, 40))))
    cfg = NumarckConfig(error_bound=1e-3, nbits=8,
                        reserve_zero_bin=draw(st.booleans()))
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    return prev.astype(dtype), curr.astype(dtype), BinModel(reps), cfg


class TestDriversAgree:
    @settings(max_examples=60, deadline=None)
    @given(case=_cases())
    def test_pair_spmd_and_chunk_identical(self, case):
        prev, curr, model, cfg = case
        pair, report = encode_pair(prev, curr, cfg, model_hint=model,
                                   hint_drift=None)
        spmd, stats = parallel_encode(SerialComm(), prev, curr, cfg,
                                      model_hint=model, hint_drift=None)
        chunk = _ChunkedEncoder(cfg)._encode_chunk(0, prev, curr, model,
                                                   value_bits=64)
        streamed = Codec(config=cfg).compress_stream_arrays(prev, curr)
        assert report.model_reused and stats.model_reused
        expected_bits = 32 if prev.dtype == np.float32 else 64
        assert pair.value_bits == spmd.value_bits == expected_bits
        assert streamed.value_bits == expected_bits
        np.testing.assert_array_equal(pair.representatives,
                                      spmd.representatives)
        for other in (spmd, chunk):
            np.testing.assert_array_equal(pair.indices, other.indices)
            np.testing.assert_array_equal(pair.incompressible,
                                          other.incompressible)
            np.testing.assert_array_equal(pair.exact_values,
                                          other.exact_values)

    def test_float32_spmd_delta_bytes_equal_pair(self, rng):
        prev = rng.uniform(1.0, 2.0, 5000).astype(np.float32)
        curr = (prev * (1.0 + rng.normal(0.0, 3e-3, 5000))).astype(np.float32)
        prev[:50] = 0.0  # stored exactly
        cfg = NumarckConfig(error_bound=1e-3, nbits=8)
        model, _ = encode_pair(prev, curr, cfg)
        hint = BinModel(model.representatives)
        pair, _ = encode_pair(prev, curr, cfg, model_hint=hint,
                              hint_drift=None)
        spmd, _ = parallel_encode(SerialComm(), prev, curr, cfg,
                                  model_hint=hint, hint_drift=None)
        assert pair.n_incompressible > 0
        assert encode_delta_bytes(spmd) == encode_delta_bytes(pair)


class TestFloat32Stream:
    def test_f32_stream_stores_f4_exact_values(self, rng):
        prev = rng.uniform(1.0, 2.0, 4000).astype(np.float32)
        curr = (prev * (1.0 + rng.normal(0.0, 5e-3, 4000))).astype(np.float32)
        prev[::97] = 0.0  # stored exactly
        codec = Codec(config=NumarckConfig(error_bound=1e-3), chunk_size=1000)
        f32 = codec.compress_stream_arrays(prev, curr)
        f64 = codec.compress_stream_arrays(prev.astype(np.float64),
                                           curr.astype(np.float64))
        n_exact = sum(c.exact_values.size for c in f32.chunks)
        assert f32.value_bits == 32 and f64.value_bits == 64 and n_exact
        blob = streamed_to_bytes(f32)
        assert len(streamed_to_bytes(f64)) - len(blob) == 4 * n_exact
        back = streamed_from_bytes(blob)
        assert back.value_bits == 32
        out = np.concatenate(list(codec.decompress_stream(
            iter(np.array_split(prev, 4)), back)))
        exact = np.concatenate([c.incompressible for c in back.chunks])
        np.testing.assert_array_equal(out[exact].astype(np.float32),
                                      curr[exact])

    def test_mixed_dtypes_store_f8(self, rng):
        prev = rng.uniform(1.0, 2.0, 2000)
        curr = prev * (1.0 + rng.normal(0.0, 5e-3, 2000))
        chunks = [curr[:1000].astype(np.float32), curr[1000:]]
        streamed = Codec(config=NumarckConfig(), chunk_size=1000) \
            .compress_stream(lambda: iter(np.array_split(prev, 2)),
                             lambda: iter(chunks))
        assert streamed.value_bits == 64


def _count_change_ratios(monkeypatch) -> list:
    calls = []

    def counting(prev, curr):
        calls.append(1)
        return change_ratios(prev, curr)

    for name, module in list(sys.modules.items()):
        if module is not None and name.startswith("repro"):
            for attr, value in list(vars(module).items()):
                if value is change_ratios:
                    monkeypatch.setattr(module, attr, counting)
    return calls


class TestChainAppend:
    @pytest.mark.parametrize("adaptive", [False, True])
    def test_one_change_ratios_per_append(self, monkeypatch, adaptive):
        states = _states()
        chain = CheckpointChain(states[0],
                                NumarckConfig(error_bound=1e-3,
                                              adaptive=adaptive))
        calls = _count_change_ratios(monkeypatch)
        for i, state in enumerate(states[1:], start=1):
            chain.append(state)
            assert len(calls) == i

    @pytest.mark.parametrize("strategy", ["clustering", "log_scale"])
    @pytest.mark.parametrize("reserve_zero_bin", [True, False])
    def test_stats_equal_iteration_stats(self, strategy, reserve_zero_bin):
        states = _states()
        cfg = NumarckConfig(error_bound=1e-3, strategy=strategy,
                            reserve_zero_bin=reserve_zero_bin, adaptive=True)
        chain = Codec(config=cfg).compress_chain(states)
        for i, enc in enumerate(chain.deltas):
            want = iteration_stats(states[i], states[i + 1], enc)
            got = chain.stats[i]
            for f in fields(want):
                assert getattr(got, f.name) == getattr(want, f.name), f.name
