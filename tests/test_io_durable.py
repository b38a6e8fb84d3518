"""Durable write primitives: atomic replace and bounded retry."""

import errno
import os

import numpy as np
import pytest

from repro.core import CheckpointChain, NumarckConfig
from repro.io import (
    atomic_write,
    chain_to_bytes,
    load_chain,
    retry_io,
    save_chain,
)
from repro.io.durable import is_transient_oserror


class TestAtomicWrite:
    def test_writes_content(self, tmp_path):
        target = tmp_path / "out.bin"
        with atomic_write(target) as fh:
            fh.write(b"hello")
        assert target.read_bytes() == b"hello"

    def test_no_temp_leftovers_on_success(self, tmp_path):
        with atomic_write(tmp_path / "out.bin") as fh:
            fh.write(b"x")
        assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]

    def test_failure_preserves_original(self, tmp_path):
        target = tmp_path / "out.bin"
        target.write_bytes(b"precious")
        with pytest.raises(RuntimeError):
            with atomic_write(target) as fh:
                fh.write(b"partial garbage")
                raise RuntimeError("crash mid-write")
        assert target.read_bytes() == b"precious"

    def test_failure_leaves_no_temp_files(self, tmp_path):
        target = tmp_path / "out.bin"
        with pytest.raises(RuntimeError):
            with atomic_write(target) as fh:
                fh.write(b"junk")
                raise RuntimeError("boom")
        assert list(tmp_path.iterdir()) == []

    def test_overwrites_atomically(self, tmp_path):
        target = tmp_path / "out.bin"
        target.write_bytes(b"old")
        with atomic_write(target) as fh:
            fh.write(b"new contents")
        assert target.read_bytes() == b"new contents"


class TestRetryIO:
    def test_returns_result_first_try(self):
        assert retry_io(lambda: 42, sleep=lambda _: None) == 42

    def test_retries_transient_then_succeeds(self):
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise OSError(errno.EIO, "transient")
            return "ok"

        delays = []
        assert retry_io(flaky, base_delay=0.01, sleep=delays.append) == "ok"
        assert len(calls) == 3
        # Exponential backoff: each delay doubles.
        assert delays == [pytest.approx(0.01), pytest.approx(0.02)]

    def test_backoff_capped(self):
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 4:
                raise OSError(errno.EIO, "transient")
            return "ok"

        delays = []
        retry_io(flaky, base_delay=0.3, max_delay=0.5, sleep=delays.append)
        assert delays == [pytest.approx(0.3), pytest.approx(0.5),
                          pytest.approx(0.5)]

    def test_gives_up_after_attempts(self):
        calls = []

        def always_fails():
            calls.append(1)
            raise OSError(errno.EIO, "transient")

        with pytest.raises(OSError):
            retry_io(always_fails, attempts=3, sleep=lambda _: None)
        assert len(calls) == 3

    def test_permanent_error_not_retried(self):
        calls = []

        def missing():
            calls.append(1)
            raise FileNotFoundError(errno.ENOENT, "gone", "f")

        with pytest.raises(FileNotFoundError):
            retry_io(missing, sleep=lambda _: None)
        assert len(calls) == 1

    def test_non_oserror_propagates_immediately(self):
        calls = []

        def broken():
            calls.append(1)
            raise ValueError("not io")

        with pytest.raises(ValueError):
            retry_io(broken, sleep=lambda _: None)
        assert len(calls) == 1

    def test_rejects_zero_attempts(self):
        with pytest.raises(ValueError):
            retry_io(lambda: 1, attempts=0)

    def test_transient_classification(self):
        assert is_transient_oserror(OSError(errno.EIO, "x"))
        assert is_transient_oserror(OSError(errno.EINTR, "x"))
        assert not is_transient_oserror(OSError(errno.ENOENT, "x"))
        assert not is_transient_oserror(OSError(errno.ENOSPC, "x"))


class TestDurableSave:
    def test_save_chain_replaces_not_truncates(self, tmp_path, rng):
        """A failed save must leave the previous file intact."""
        data = rng.uniform(1, 2, 300)
        chain = CheckpointChain(data, NumarckConfig(error_bound=1e-3))
        path = tmp_path / "c.nmk"
        save_chain(path, chain)
        before = path.read_bytes()

        # Corrupt the *chain object* so the save blows up mid-write.
        class Boom:
            def __getattr__(self, name):
                raise RuntimeError("encoder exploded")

        broken = CheckpointChain(data, NumarckConfig(error_bound=1e-3))
        broken._deltas = [Boom()]  # noqa: SLF001
        with pytest.raises(RuntimeError):
            save_chain(path, broken)
        assert path.read_bytes() == before
        np.testing.assert_array_equal(load_chain(path).reconstruct(), data)

    def test_save_chain_durable_false_still_roundtrips(self, tmp_path, rng):
        data = rng.uniform(1, 2, 128)
        chain = CheckpointChain(data, NumarckConfig(error_bound=1e-3))
        chain.append(data * 1.001)
        path = tmp_path / "nd.nmk"
        save_chain(path, chain, durable=False)
        np.testing.assert_allclose(load_chain(path).reconstruct(),
                                   chain.reconstruct())

    def test_durable_and_plain_writes_identical_bytes(self, tmp_path, rng):
        data = rng.uniform(1, 2, 128)
        chain = CheckpointChain(data, NumarckConfig(error_bound=1e-3))
        chain.append(data * 1.002)
        a, b = tmp_path / "a.nmk", tmp_path / "b.nmk"
        save_chain(a, chain, durable=True)
        save_chain(b, chain, durable=False)
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() == chain_to_bytes(chain)
