"""Torn-write salvage, append-mode persistence and the verify/repair CLI.

The contract under test: a crash during an append can only damage the
*tail* of a checkpoint file, and every reader/repair path must then
recover exactly the longest valid record prefix -- while corruption
*before* the last record (which appends cannot produce) must keep raising,
because the delta chain beyond it is untrustworthy.
"""

import errno

import numpy as np
import pytest

from repro.cli import main
from repro.core import (
    CheckpointChain,
    FormatError,
    NumarckConfig,
    SalvageError,
)
from repro.io import (
    CheckpointFile,
    chain_to_bytes,
    load_chain,
    load_chains,
    salvage_truncate,
    save_chain,
    save_chains,
)
from repro.io.container import HEADER_SIZE, ChainWriter
from repro.io.durable import retry_io


def _build_chain(rng, n_deltas=3, n=400):
    data = rng.uniform(1, 2, n)
    chain = CheckpointChain(data, NumarckConfig(error_bound=1e-3))
    for _ in range(n_deltas):
        data = data * (1 + rng.normal(0, 0.002, n))
        chain.append(data)
    return chain


def _record_ends(blob: bytes) -> list[int]:
    """Byte offset just past each record (index 0 = end of header)."""
    import struct

    ends = [HEADER_SIZE]
    pos = HEADER_SIZE
    while pos < len(blob):
        (length,) = struct.unpack_from("<Q", blob, pos + 4)
        pos += 12 + length + 4
        ends.append(pos)
    return ends


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    rng = np.random.default_rng(42)
    chain = _build_chain(rng)
    path = tmp_path_factory.mktemp("salvage") / "chain.nmk"
    save_chain(path, chain)
    return path, path.read_bytes(), chain


class TestSalvageLoad:
    def test_clean_file_reports_clean(self, saved, tmp_path):
        path, blob, chain = saved
        loaded, report = load_chain(path, recover="tail")
        assert report.clean
        assert report.records_kept == len(chain)
        assert report.records_dropped == 0
        assert report.bytes_truncated == 0
        np.testing.assert_array_equal(loaded.reconstruct(),
                                      chain.reconstruct())

    @pytest.mark.parametrize("drop_records", [1, 2, 3])
    def test_torn_tail_recovers_exact_prefix(self, saved, tmp_path,
                                             drop_records):
        path, blob, chain = saved
        ends = _record_ends(blob)
        # Cut in the middle of the record after the kept prefix.
        keep = len(ends) - 1 - drop_records
        cut = (ends[keep] + ends[keep + 1]) // 2
        p = tmp_path / f"torn{drop_records}.nmk"
        p.write_bytes(blob[:cut])
        with pytest.raises(FormatError):
            load_chain(p)
        loaded, report = load_chain(p, recover="tail")
        assert len(loaded) == keep
        assert report.records_kept == keep
        assert report.records_dropped == 1
        assert report.bytes_truncated == cut - ends[keep]
        assert not report.clean
        np.testing.assert_array_equal(loaded.reconstruct(),
                                      chain.reconstruct(keep - 1))

    def test_bitflip_in_final_record_salvaged(self, saved, tmp_path):
        path, blob, chain = saved
        ends = _record_ends(blob)
        mutated = bytearray(blob)
        mutated[(ends[-2] + ends[-1]) // 2] ^= 0x10
        p = tmp_path / "flip_last.nmk"
        p.write_bytes(bytes(mutated))
        loaded, report = load_chain(p, recover="tail")
        assert len(loaded) == len(chain) - 1
        assert report.records_dropped == 1
        np.testing.assert_array_equal(loaded.reconstruct(),
                                      chain.reconstruct(len(chain) - 2))

    def test_interior_corruption_still_raises(self, saved, tmp_path):
        path, blob, chain = saved
        ends = _record_ends(blob)
        mutated = bytearray(blob)
        # Flip a bit inside the *second* record (an interior delta).
        mutated[(ends[1] + ends[2]) // 2] ^= 0x01
        p = tmp_path / "interior.nmk"
        p.write_bytes(bytes(mutated))
        with pytest.raises(FormatError):
            load_chain(p, recover="tail")

    def test_torn_full_record_is_salvage_error(self, saved, tmp_path):
        path, blob, chain = saved
        ends = _record_ends(blob)
        p = tmp_path / "no_full.nmk"
        p.write_bytes(blob[: (ends[0] + ends[1]) // 2])
        with pytest.raises(SalvageError):
            load_chain(p, recover="tail")

    def test_not_a_checkpoint_is_salvage_error(self, tmp_path):
        p = tmp_path / "junk.nmk"
        p.write_bytes(b"definitely not a checkpoint")
        with pytest.raises(SalvageError):
            load_chain(p, recover="tail")

    def test_unknown_recover_mode_rejected(self, saved):
        path, _, _ = saved
        with pytest.raises(ValueError):
            load_chain(path, recover="head")


class TestSalvageLoadChains:
    @pytest.fixture(scope="class")
    def multi(self, tmp_path_factory):
        rng = np.random.default_rng(7)
        chains = {"dens": _build_chain(rng, 2, 200),
                  "pres": _build_chain(rng, 2, 200)}
        path = tmp_path_factory.mktemp("multi") / "multi.nmk"
        save_chains(path, chains)
        return path, path.read_bytes(), chains

    def test_clean_multi_salvage(self, multi):
        path, blob, chains = multi
        loaded, report = load_chains(path, recover="tail")
        assert report.clean
        for name, chain in chains.items():
            np.testing.assert_array_equal(loaded[name].reconstruct(),
                                          chain.reconstruct())

    def test_torn_multi_tail_recovers_prefix(self, multi, tmp_path):
        path, blob, chains = multi
        ends = _record_ends(blob)
        cut = (ends[-2] + ends[-1]) // 2
        p = tmp_path / "torn.nmk"
        p.write_bytes(blob[:cut])
        with pytest.raises(FormatError):
            load_chains(p)
        loaded, report = load_chains(p, recover="tail")
        assert report.records_kept == len(ends) - 2
        assert report.records_dropped == 1
        # save_chains interleaves by iteration, so the torn final record
        # belongs to the *last* variable: chains may differ in depth by 1.
        depths = sorted(len(c) for c in loaded.values())
        assert depths in ([2, 3], [3, 3])
        for name, chain in loaded.items():
            np.testing.assert_array_equal(
                chain.reconstruct(), chains[name].reconstruct(len(chain) - 1))

    def test_nothing_salvageable_multi(self, tmp_path):
        p = tmp_path / "junk.nmk"
        p.write_bytes(b"NMRK\x01\x00")
        with pytest.raises(SalvageError):
            load_chains(p, recover="tail")


class TestAppendMode:
    def test_append_matches_full_rewrite_bytes(self, saved, tmp_path):
        """Growing a file by appends produces byte-identical output to a
        one-shot save -- the strongest possible compatibility check."""
        path, blob, chain = saved
        p = tmp_path / "grown.nmk"
        prefix = CheckpointChain(chain.full_checkpoint,
                                 NumarckConfig(error_bound=1e-3))
        save_chain(p, prefix)
        with CheckpointFile.append(p) as writer:
            assert writer.n_records == 1
            for payload in chain.payloads:
                writer.write_delta(payload)
            assert writer.n_records == len(chain)
        assert p.read_bytes() == blob

    def test_append_truncates_torn_tail_first(self, saved, tmp_path):
        path, blob, chain = saved
        ends = _record_ends(blob)
        p = tmp_path / "torn.nmk"
        p.write_bytes(blob[: ends[-1] - 5])  # tear the final record
        with CheckpointFile.append(p) as writer:
            assert writer.n_records == len(chain) - 1
            assert writer.salvage.records_dropped == 1
            assert writer.salvage.bytes_truncated > 0
            writer.write_delta(chain.payloads[-1])
        assert p.read_bytes() == blob
        np.testing.assert_array_equal(load_chain(p).reconstruct(),
                                      chain.reconstruct())

    def test_append_rejects_interior_damage(self, saved, tmp_path):
        path, blob, chain = saved
        ends = _record_ends(blob)
        mutated = bytearray(blob)
        mutated[(ends[0] + ends[1]) // 2] ^= 0x04
        p = tmp_path / "bad.nmk"
        p.write_bytes(bytes(mutated))
        with pytest.raises(FormatError):
            CheckpointFile.append(p)

    def test_append_rejects_non_checkpoint(self, tmp_path):
        p = tmp_path / "junk.nmk"
        p.write_bytes(b"not a checkpoint at all")
        with pytest.raises(FormatError):
            CheckpointFile.append(p)

    def test_truncate_records(self, saved, tmp_path):
        path, blob, chain = saved
        p = tmp_path / "cut.nmk"
        p.write_bytes(blob)
        with CheckpointFile.append(p) as writer:
            writer.truncate_records(2)
            assert writer.n_records == 2
        loaded = load_chain(p)
        assert len(loaded) == 2
        np.testing.assert_array_equal(loaded.reconstruct(),
                                      chain.reconstruct(1))

    def test_truncate_records_keeps_table_anchors(self, tmp_path, rng):
        # Cut an adaptive chain back to just before a reuse-hit delta and
        # write that delta again: it must still reference the kept
        # table, so the file equals a save of the shorter chain.
        cfg = NumarckConfig(error_bound=1e-3, nbits=8,
                            strategy="equal_width", adaptive=True)
        data = rng.uniform(1, 2, 3000)
        chain = CheckpointChain(data, cfg)
        for _ in range(4):
            data = data * (1 + rng.normal(0, 0.002, data.size))
            chain.append(data)
        assert chain.deltas[2].model_reused
        p = tmp_path / "adaptive.nmk"
        save_chain(p, chain)
        with CheckpointFile.append(p) as writer:
            writer.truncate_records(3)
            writer.write_delta(chain.payloads[2])
        kept = CheckpointChain.resume(chain.full_payload,
                                      chain.payloads[:3])
        assert p.read_bytes() == chain_to_bytes(kept)

    def test_truncate_records_bounds(self, saved, tmp_path):
        path, blob, chain = saved
        p = tmp_path / "cut2.nmk"
        p.write_bytes(blob)
        with CheckpointFile.append(p) as writer:
            with pytest.raises(ValueError):
                writer.truncate_records(len(chain) + 1)


class TestChainWriter:
    def test_rolled_back_write_is_retried_on_the_held_file(
            self, saved, tmp_path, monkeypatch):
        # A transient failure whose write rolled back keeps the writer:
        # the retry appends on the same handle, without a re-scan.
        path, blob, chain = saved
        p = tmp_path / "held.nmk"
        writer = ChainWriter(p)
        writer.write_full(chain.full_payload)
        fail = [True]
        original = CheckpointFile._write

        def flaky(self, data):
            if fail:
                fail.pop()
                raise OSError(errno.EIO, "Input/output error")
            return original(self, data)

        monkeypatch.setattr(CheckpointFile, "_write", flaky)
        monkeypatch.setattr(CheckpointFile, "append", None)  # no re-open
        for payload in chain.payloads:
            retry_io(lambda p=payload: writer.write_delta(p),
                     sleep=lambda _: None)
        writer.close()
        assert not fail
        assert p.read_bytes() == blob

    def test_failed_rollback_reopens_and_cuts(self, saved, tmp_path,
                                              monkeypatch):
        path, blob, chain = saved
        p = tmp_path / "torn.nmk"
        writer = ChainWriter(p)
        writer.write_full(chain.full_payload)
        original = CheckpointFile._write

        class NoTruncate:
            def __init__(self, fh):
                self._fh = fh

            def __getattr__(self, name):
                return getattr(self._fh, name)

            def truncate(self, size=None):
                raise OSError(errno.EIO, "Input/output error")

        def half_then_fail(self, data):
            # Half a record reaches the disk, then the rollback fails too.
            original(self, data[: len(data) // 2])
            self._fh = NoTruncate(self._fh)
            raise OSError(errno.EIO, "Input/output error")

        monkeypatch.setattr(CheckpointFile, "_write", half_then_fail)
        with pytest.raises(OSError):
            writer.write_delta(chain.payloads[0])
        monkeypatch.setattr(CheckpointFile, "_write", original)
        for payload in chain.payloads:
            writer.write_delta(payload)
        writer.close()
        assert p.read_bytes() == blob


class TestChainTruncate:
    def test_truncate_then_append_consistent(self, rng):
        chain = _build_chain(rng, 3, 100)
        states = [chain.reconstruct(i) for i in range(len(chain))]
        chain.truncate(2)
        assert len(chain) == 2
        np.testing.assert_array_equal(chain.reconstruct(), states[1])
        chain.append(states[1] * 1.001)
        assert len(chain) == 3

    def test_truncate_noop_and_bounds(self, rng):
        chain = _build_chain(rng, 2, 50)
        chain.truncate(3)
        assert len(chain) == 3
        with pytest.raises(IndexError):
            chain.truncate(0)
        with pytest.raises(IndexError):
            chain.truncate(4)


class TestSalvageTruncate:
    def test_repairs_torn_tail(self, saved, tmp_path):
        path, blob, chain = saved
        ends = _record_ends(blob)
        p = tmp_path / "torn.nmk"
        p.write_bytes(blob[: ends[-1] - 3])
        report = salvage_truncate(p)
        assert report.records_kept == len(chain) - 1
        assert not report.clean
        loaded = load_chain(p)  # strict load now succeeds
        assert len(loaded) == len(chain) - 1

    def test_clean_file_untouched(self, saved, tmp_path):
        path, blob, chain = saved
        p = tmp_path / "clean.nmk"
        p.write_bytes(blob)
        report = salvage_truncate(p)
        assert report.clean
        assert p.read_bytes() == blob

    def test_interior_damage_truncates_at_first_bad_record(self, saved,
                                                           tmp_path):
        path, blob, chain = saved
        ends = _record_ends(blob)
        mutated = bytearray(blob)
        mutated[(ends[1] + ends[2]) // 2] ^= 0x02
        p = tmp_path / "interior.nmk"
        p.write_bytes(bytes(mutated))
        report = salvage_truncate(p)
        # Damage in record 2 of 4: only the FULL record survives, and the
        # two intact-looking deltas after the bad one are (correctly) cut.
        assert report.records_kept == 1
        loaded = load_chain(p)
        assert len(loaded) == 1


class TestVerifyRepairCli:
    def test_verify_clean(self, saved, tmp_path, capsys):
        path, blob, chain = saved
        p = tmp_path / "ok.nmk"
        p.write_bytes(blob)
        assert main(["verify", str(p)]) == 0
        out = capsys.readouterr().out
        assert "clean" in out
        assert f"{len(chain)} records" in out
        assert out.count("crc ok") == len(chain)

    def test_verify_damaged_exits_nonzero(self, saved, tmp_path, capsys):
        path, blob, chain = saved
        p = tmp_path / "torn.nmk"
        p.write_bytes(blob[:-7])
        assert main(["verify", str(p)]) == 1
        err = capsys.readouterr().err
        assert "DAMAGED" in err
        assert "repair" in err

    def test_verify_interior_damage(self, saved, tmp_path, capsys):
        path, blob, chain = saved
        ends = _record_ends(blob)
        mutated = bytearray(blob)
        mutated[(ends[1] + ends[2]) // 2] ^= 0x08
        p = tmp_path / "interior.nmk"
        p.write_bytes(bytes(mutated))
        assert main(["verify", str(p)]) == 1
        assert "interior damage" in capsys.readouterr().err

    def test_verify_non_checkpoint(self, tmp_path, capsys):
        p = tmp_path / "junk.nmk"
        p.write_bytes(b"garbage")
        assert main(["verify", str(p)]) == 1

    def test_repair_then_verify_clean(self, saved, tmp_path, capsys):
        path, blob, chain = saved
        p = tmp_path / "torn.nmk"
        p.write_bytes(blob[:-9])
        assert main(["repair", str(p)]) == 0
        backup = tmp_path / "torn.nmk.bak"
        assert backup.exists()
        assert backup.read_bytes() == blob[:-9]
        assert main(["verify", str(p)]) == 0
        loaded = load_chain(p)
        assert len(loaded) == len(chain) - 1

    def test_repair_clean_file_removes_backup(self, saved, tmp_path, capsys):
        path, blob, chain = saved
        p = tmp_path / "clean.nmk"
        p.write_bytes(blob)
        assert main(["repair", str(p)]) == 0
        assert not (tmp_path / "clean.nmk.bak").exists()
        assert p.read_bytes() == blob

    def test_repair_custom_backup_path(self, saved, tmp_path):
        path, blob, chain = saved
        p = tmp_path / "torn.nmk"
        p.write_bytes(blob[:-4])
        backup = tmp_path / "keep_me.orig"
        assert main(["repair", str(p), "--backup", str(backup)]) == 0
        assert backup.read_bytes() == blob[:-4]

    def test_verify_multichain_flavour(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        chains = {"a": _build_chain(rng, 1, 64), "b": _build_chain(rng, 1, 64)}
        p = tmp_path / "multi.nmk"
        save_chains(p, chains)
        assert main(["verify", str(p)]) == 0
        assert "clean (4 records)" in capsys.readouterr().out

    def test_repaired_multichain_never_mixes_iterations(self, tmp_path,
                                                        capsys):
        """Repairing a multichain file can leave chains of uneven depth
        (one variable salvaged its last delta, another lost it); the
        latest *common* iteration must then be decoded for every
        variable -- never each chain's own latest."""
        from repro.core import VariableSet

        rng = np.random.default_rng(9)
        chains = {"a": _build_chain(rng, 1, 64), "b": _build_chain(rng, 1, 64)}
        p = tmp_path / "multi.nmk"
        save_chains(p, chains)
        # Tear the final record (b's DELT): a keeps depth 2, b drops to 1.
        p.write_bytes(p.read_bytes()[:-9])
        assert main(["repair", str(p)]) == 0
        vs = VariableSet.load(p)
        assert vs.n_checkpoints == 1
        state = vs.reconstruct()
        np.testing.assert_array_equal(state["a"],
                                      chains["a"].reconstruct(0))
        np.testing.assert_array_equal(state["b"],
                                      chains["b"].reconstruct(0))
