"""Fuzzing the container reader: corruption must always be *detected*.

The restart path feeds decoded checkpoints straight back into a running
simulation, so the failure mode that matters is silent corruption.  These
tests assert that arbitrary single-bit flips and random garbage always
surface as :class:`~repro.errors.FormatError` -- never as a different
exception type and never as silently wrong data.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    CheckpointChain,
    FormatError,
    NumarckConfig,
    SalvageError,
)
from repro.io import (
    load_chain,
    load_chains,
    load_streamed,
    save_chain,
    save_chains,
    save_streamed,
)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz_work")


@pytest.fixture(scope="module")
def chain_blob(tmp_path_factory):
    rng = np.random.default_rng(99)
    data = rng.uniform(1, 2, 800)
    chain = CheckpointChain(data, NumarckConfig(error_bound=1e-3))
    for _ in range(2):
        data = data * (1 + rng.normal(0, 0.002, 800))
        chain.append(data)
    path = tmp_path_factory.mktemp("fuzz") / "chain.nmk"
    save_chain(path, chain)
    truth = chain.reconstruct()
    return path, path.read_bytes(), truth


def _load_mutated(tmp_path, blob: bytes):
    p = tmp_path / "mut.nmk"
    p.write_bytes(blob)
    return load_chain(p)


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_single_bit_flip_always_detected(chain_blob, workdir, data):
    path, blob, truth = chain_blob
    pos = data.draw(st.integers(0, len(blob) - 1))
    bit = data.draw(st.integers(0, 7))
    mutated = bytearray(blob)
    mutated[pos] ^= 1 << bit
    with pytest.raises(FormatError):
        _load_mutated(workdir, bytes(mutated))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_truncation_always_detected(chain_blob, workdir, data):
    path, blob, truth = chain_blob
    cut = data.draw(st.integers(1, len(blob) - 1))
    with pytest.raises(FormatError):
        _load_mutated(workdir, blob[:cut])


@settings(max_examples=60, deadline=None)
@given(junk=st.binary(min_size=0, max_size=200))
def test_random_garbage_rejected(workdir, junk):
    p = workdir / "junk.nmk"
    p.write_bytes(junk)
    with pytest.raises(FormatError):
        load_chain(p)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_garbage_after_magic_rejected(workdir, data):
    """Even with a valid magic+version prefix, junk records must fail."""
    junk = data.draw(st.binary(min_size=1, max_size=200))
    p = workdir / "g.nmk"
    p.write_bytes(b"NMRK\x01\x00" + junk)
    with pytest.raises(FormatError):
        load_chain(p)


def test_untouched_blob_still_loads(chain_blob, tmp_path):
    """Sanity: the fixture blob itself is valid (the fuzzers above would
    vacuously pass if it were not)."""
    path, blob, truth = chain_blob
    loaded = _load_mutated(tmp_path, blob)
    np.testing.assert_array_equal(loaded.reconstruct(), truth)


# -- salvage mode: recovery must never return wrong data ---------------------


@pytest.fixture(scope="module")
def chain_states(chain_blob):
    """Decoded state at every iteration of the fixture chain."""
    path, blob, truth = chain_blob
    chain = load_chain(path)
    return [chain.reconstruct(i) for i in range(len(chain))]


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_salvage_truncation_returns_exact_prefix_or_raises(
        chain_blob, chain_states, workdir, data):
    """For a cut at *every* byte boundary, ``recover="tail"`` either
    salvages a chain whose every iteration matches the original exactly,
    or raises (SalvageError when nothing survives).  Never wrong data."""
    path, blob, truth = chain_blob
    cut = data.draw(st.integers(1, len(blob) - 1))
    p = workdir / "s.nmk"
    p.write_bytes(blob[:cut])
    try:
        loaded, report = load_chain(p, recover="tail")
    except SalvageError:
        return  # header or FULL record destroyed: nothing to salvage
    assert 1 <= len(loaded) <= len(chain_states)
    assert report.records_kept == len(loaded)
    assert (report.bytes_truncated > 0) == (not report.clean)
    for i in range(len(loaded)):
        np.testing.assert_array_equal(loaded.reconstruct(i), chain_states[i])


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_salvage_bitflip_never_silently_corrupts(chain_blob, chain_states,
                                                 workdir, data):
    """A single bit flip anywhere either raises (interior damage) or is
    dropped by salvage; the surviving prefix is always bit-exact."""
    path, blob, truth = chain_blob
    pos = data.draw(st.integers(0, len(blob) - 1))
    bit = data.draw(st.integers(0, 7))
    mutated = bytearray(blob)
    mutated[pos] ^= 1 << bit
    p = workdir / "sf.nmk"
    p.write_bytes(bytes(mutated))
    try:
        loaded, report = load_chain(p, recover="tail")
    except FormatError:  # includes SalvageError
        return
    # Only damage confined to the trailing record can reach this branch.
    assert len(loaded) < len(chain_states)
    for i in range(len(loaded)):
        np.testing.assert_array_equal(loaded.reconstruct(i), chain_states[i])


# -- multichain format: same detection guarantees ----------------------------


@pytest.fixture(scope="module")
def multichain_blob(tmp_path_factory):
    rng = np.random.default_rng(17)
    chains = {}
    for name in ("dens", "pres"):
        data = rng.uniform(1, 2, 400)
        chain = CheckpointChain(data, NumarckConfig(error_bound=1e-3))
        for _ in range(2):
            data = data * (1 + rng.normal(0, 0.002, 400))
            chain.append(data)
        chains[name] = chain
    path = tmp_path_factory.mktemp("fuzz_multi") / "multi.nmk"
    save_chains(path, chains)
    truth = {n: c.reconstruct() for n, c in chains.items()}
    return path, path.read_bytes(), truth


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_multichain_bit_flip_always_detected(multichain_blob, workdir, data):
    path, blob, truth = multichain_blob
    pos = data.draw(st.integers(0, len(blob) - 1))
    bit = data.draw(st.integers(0, 7))
    mutated = bytearray(blob)
    mutated[pos] ^= 1 << bit
    p = workdir / "m.nmk"
    p.write_bytes(bytes(mutated))
    with pytest.raises(FormatError):
        load_chains(p)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_multichain_truncation_always_detected(multichain_blob, workdir,
                                               data):
    path, blob, truth = multichain_blob
    cut = data.draw(st.integers(1, len(blob) - 1))
    p = workdir / "mt.nmk"
    p.write_bytes(blob[:cut])
    with pytest.raises(FormatError):
        load_chains(p)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_multichain_salvage_prefix_exact_or_raises(multichain_blob, workdir,
                                                   data):
    path, blob, truth = multichain_blob
    cut = data.draw(st.integers(1, len(blob) - 1))
    p = workdir / "ms.nmk"
    p.write_bytes(blob[:cut])
    try:
        loaded, report = load_chains(p, recover="tail")
    except SalvageError:
        return
    reference = load_chains(path)
    for name, chain in loaded.items():
        full_ref = reference[name]
        assert len(chain) <= len(full_ref)
        for i in range(len(chain)):
            np.testing.assert_array_equal(chain.reconstruct(i),
                                          full_ref.reconstruct(i))


def test_multichain_untouched_blob_still_loads(multichain_blob, tmp_path):
    path, blob, truth = multichain_blob
    p = tmp_path / "ok.nmk"
    p.write_bytes(blob)
    loaded = load_chains(p)
    for name, expected in truth.items():
        np.testing.assert_array_equal(loaded[name].reconstruct(), expected)


# -- streamed format: same detection guarantees ------------------------------


@pytest.fixture(scope="module")
def streamed_blob(tmp_path_factory):
    rng = np.random.default_rng(23)
    prev = rng.uniform(1, 2, 1200)
    curr = prev * (1 + rng.normal(0, 0.002, 1200))

    def chunks(arr):
        def factory():
            for start in range(0, arr.size, 256):
                yield arr[start : start + 256]
        return factory

    from repro import Codec

    encoder = Codec(config=NumarckConfig(error_bound=1e-3),
                               chunk_size=256)
    streamed = encoder.compress_stream(chunks(prev), chunks(curr))
    path = tmp_path_factory.mktemp("fuzz_stream") / "iter.nms"
    save_streamed(path, streamed)
    return path, path.read_bytes()


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_streamed_bit_flip_always_detected(streamed_blob, workdir, data):
    path, blob = streamed_blob
    pos = data.draw(st.integers(0, len(blob) - 1))
    bit = data.draw(st.integers(0, 7))
    mutated = bytearray(blob)
    mutated[pos] ^= 1 << bit
    p = workdir / "st.nms"
    p.write_bytes(bytes(mutated))
    with pytest.raises(FormatError):
        load_streamed(p)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_streamed_truncation_always_detected(streamed_blob, workdir, data):
    path, blob = streamed_blob
    cut = data.draw(st.integers(1, len(blob) - 1))
    p = workdir / "stt.nms"
    p.write_bytes(blob[:cut])
    with pytest.raises(FormatError):
        load_streamed(p)


def test_streamed_untouched_blob_still_loads(streamed_blob, tmp_path):
    path, blob = streamed_blob
    p = tmp_path / "ok.nms"
    p.write_bytes(blob)
    streamed = load_streamed(p)
    assert streamed.n_points == 1200


def test_streamed_index_past_table_rejected(streamed_blob, tmp_path):
    """A CHNK record with a valid CRC whose index points past the table
    must fail at parse time, not as an IndexError during decode."""
    from dataclasses import replace

    from repro.io import streamed_from_bytes, streamed_to_bytes

    streamed = load_streamed(streamed_blob[0])
    table = streamed.representatives[:4]
    chunks = [replace(c, indices=np.minimum(c.indices, table.size))
              for c in streamed.chunks]
    ok = replace(streamed, representatives=table, chunks=tuple(chunks))
    streamed_from_bytes(streamed_to_bytes(ok))  # in range: parses

    bad = chunks[0].indices.copy()
    bad[np.flatnonzero(~chunks[0].incompressible)[0]] = table.size + 1
    chunks[0] = replace(chunks[0], indices=bad)
    blob = streamed_to_bytes(replace(ok, chunks=tuple(chunks)))
    with pytest.raises(FormatError, match="exceeds bin table"):
        streamed_from_bytes(blob)
