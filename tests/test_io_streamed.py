"""On-disk persistence of streamed (chunked) encodings."""

import numpy as np
import pytest

from repro import Codec
from repro.core import (
    FormatError,
    NumarckConfig,
    decode_stream,
)
from repro.io import (
    load_streamed,
    save_streamed,
    streamed_from_bytes,
    streamed_to_bytes,
)


@pytest.fixture
def streamed(smooth_pair):
    prev, curr = smooth_pair
    enc = Codec(config=NumarckConfig(error_bound=1e-3), chunk_size=1000)
    return prev, curr, enc.compress_stream_arrays(prev, curr)


class TestRoundtrip:
    def test_save_load(self, tmp_path, streamed):
        prev, curr, s = streamed
        path = tmp_path / "s.nms"
        nbytes = save_streamed(path, s)
        assert nbytes == path.stat().st_size
        loaded = load_streamed(path)
        assert loaded.n_points == s.n_points
        assert loaded.nbits == s.nbits
        assert loaded.strategy == s.strategy
        assert loaded.zero_reserved == s.zero_reserved
        assert loaded.error_bound == s.error_bound
        np.testing.assert_array_equal(loaded.representatives,
                                      s.representatives)
        assert len(loaded.chunks) == len(s.chunks)
        for a, b in zip(loaded.chunks, s.chunks):
            assert a.shape == b.shape
            np.testing.assert_array_equal(a.indices, b.indices)
            np.testing.assert_array_equal(a.incompressible, b.incompressible)
            np.testing.assert_array_equal(a.exact_values, b.exact_values)

    def test_loaded_stream_decodes(self, tmp_path, streamed):
        prev, curr, s = streamed
        path = tmp_path / "s.nms"
        save_streamed(path, s)
        loaded = load_streamed(path)
        out = np.concatenate(list(decode_stream(
            iter(np.array_split(prev, len(loaded.chunks))), loaded)))
        rel = np.abs(out / curr - 1)
        rel[np.concatenate([c.incompressible for c in loaded.chunks])] = 0
        assert rel.max() < 1.2e-3

    def test_bytes_identical_to_file(self, tmp_path, streamed):
        _, _, s = streamed
        path = tmp_path / "s.nms"
        save_streamed(path, s)
        assert streamed_to_bytes(s) == path.read_bytes()

    def test_bytes_roundtrip(self, streamed):
        _, _, s = streamed
        loaded = streamed_from_bytes(streamed_to_bytes(s))
        assert loaded.n_points == s.n_points
        assert len(loaded.chunks) == len(s.chunks)
        np.testing.assert_array_equal(loaded.representatives,
                                      s.representatives)

    def test_bytes_truncation_detected(self, streamed):
        _, _, s = streamed
        data = streamed_to_bytes(s)
        with pytest.raises(FormatError):
            streamed_from_bytes(data[: len(data) - 5])

    def test_compressed_smaller_than_raw(self, tmp_path, streamed):
        prev, curr, s = streamed
        nbytes = save_streamed(tmp_path / "s.nms", s)
        assert nbytes < 0.4 * curr.nbytes

    def test_empty_like_stream(self, tmp_path, rng):
        prev = rng.uniform(1, 2, 100)
        s = Codec(config=NumarckConfig(),
                  chunk_size=50).compress_stream_arrays(prev, prev)
        path = tmp_path / "e.nms"
        save_streamed(path, s)
        loaded = load_streamed(path)
        assert loaded.representatives.size == 0
        assert loaded.n_points == 100


class TestCorruption:
    def test_bit_flip_detected(self, tmp_path, streamed):
        _, _, s = streamed
        path = tmp_path / "c.nms"
        save_streamed(path, s)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 3] ^= 0x10
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError):
            load_streamed(path)

    def test_missing_header(self, tmp_path):
        from repro.io.container import CheckpointFile

        p = tmp_path / "h.nms"
        CheckpointFile.create(p).close()
        with pytest.raises(FormatError, match="no stream header"):
            load_streamed(p)

    def test_chunk_order_verified(self, tmp_path, streamed):
        """Dropping a middle chunk record must be detected."""
        import struct
        import zlib

        _, _, s = streamed
        path = tmp_path / "o.nms"
        save_streamed(path, s)
        # Rewrite the file without the second CHNK record.
        from repro.io.container import CheckpointFile

        records = []
        with CheckpointFile.open(path) as f:
            records = list(f.records())
        kept = [records[0]] + [records[1]] + records[3:]
        with open(path, "wb") as fh:
            fh.write(b"NMRK" + struct.pack("<H", 1))
            for tag, payload in kept:
                frame = tag + struct.pack("<Q", len(payload)) + payload
                fh.write(frame + struct.pack("<I", zlib.crc32(frame)))
        with pytest.raises(FormatError, match="chunk at offset|cover"):
            load_streamed(path)
