"""Adaptive bin-model reuse: drift gating, warm starts, persistence.

The engine's contract: stationary ratio distributions reuse the cached
table (fit skipped entirely), a genuine distribution shift trips the
drift trigger and refits, and the per-point guarantee E is untouched in
both paths.
"""

import numpy as np
import pytest

from repro import AdaptiveEncoder, Codec
from repro.core import CheckpointChain, NumarckConfig, decode_iteration
from repro.core.encoder import encode_pair
from repro.core.strategies.base import BinModel
from repro.telemetry import Telemetry, use


def _stationary_states(n_iters=8, size=6000, seed=3):
    """States whose consecutive change-ratio distributions barely move."""
    rng = np.random.default_rng(seed)
    state = rng.uniform(50.0, 150.0, size=size)
    out = [state]
    for i in range(n_iters):
        state = state * (1.0 + np.sin(state * 3.0 + i) * 0.004)
        out.append(state)
    return out


def _shifted_pair(prev, scale):
    """A pair whose ratio distribution sits at a new magnitude.

    The ratios stay continuous (more distinct values than table slots) so
    a refit genuinely exercises the clustering path rather than the
    exact small-alphabet shortcut.
    """
    return prev * (1.0 + scale * (1.0 + 0.25 * np.sin(prev * 7.0)))


CFG = dict(error_bound=1e-3, nbits=8, strategy="clustering")


class TestDriftTrigger:
    def test_stationary_reuses_every_iteration_after_first(self):
        enc = AdaptiveEncoder(NumarckConfig(adaptive=True, **CFG))
        states = _stationary_states()
        for prev, curr in zip(states, states[1:]):
            enc.encode(prev, curr)
        assert enc.stats.encodes == len(states) - 1
        assert enc.stats.reuse_hits == enc.stats.encodes - 1
        assert enc.stats.refits == 0
        assert enc.stats.hit_rate == pytest.approx(
            (enc.stats.encodes - 1) / enc.stats.encodes)

    def test_forced_shift_triggers_refit(self):
        enc = AdaptiveEncoder(NumarckConfig(adaptive=True, **CFG))
        states = _stationary_states(4)
        for prev, curr in zip(states, states[1:]):
            enc.encode(prev, curr)
        assert enc.stats.refits == 0
        # Jump the ratio distribution two orders of magnitude: the cached
        # +-0.004-scale table cannot cover +-0.2 within E=1e-3.
        prev = states[-1]
        enc.encode(prev, _shifted_pair(prev, 0.2))
        assert enc.stats.refits == 1
        assert enc.last_report.refitted and not enc.last_report.model_reused
        assert enc.last_report.drift > enc.config.drift_threshold

    def test_baseline_anchored_at_fit_not_at_reuse(self):
        enc = AdaptiveEncoder(NumarckConfig(adaptive=True, **CFG))
        states = _stationary_states(3)
        for prev, curr in zip(states, states[1:]):
            enc.encode(prev, curr)
        baseline_after_fit = enc._baseline
        # reuse hits must not move the baseline (slow-drift ratchet guard)
        prev = states[-1]
        enc.encode(prev, prev * (1.0 + np.sin(prev * 3.0 + 9) * 0.004))
        assert enc.last_report.model_reused
        assert enc._baseline == baseline_after_fit

    def test_seed_and_reset(self):
        enc = AdaptiveEncoder(NumarckConfig(adaptive=True, **CFG))
        model = BinModel(np.array([-0.004, 0.0, 0.004]))
        enc.seed(model, baseline=0.1)
        assert enc.cached_model is model
        enc.reset()
        assert enc.cached_model is None

    def test_error_bound_holds_in_both_paths(self):
        cfg = NumarckConfig(adaptive=True, **CFG)
        enc = AdaptiveEncoder(cfg)
        states = _stationary_states(5)
        pairs = list(zip(states, states[1:]))
        prev = states[-1]
        pairs.append((prev, _shifted_pair(prev, 0.2)))  # forces a refit
        modes = []
        for prev, curr in pairs:
            encoded = enc.encode(prev, curr)
            modes.append(encoded.model_reused)
            out = decode_iteration(prev, encoded)
            err = np.abs(out - curr) / np.abs(prev)
            err[encoded.incompressible] = 0.0
            assert err.max() < cfg.error_bound
        assert True in modes and False in modes  # both paths exercised


class TestEncodePairHints:
    def test_hint_drift_none_reuses_unconditionally(self):
        prev = np.linspace(1.0, 2.0, 1000)
        curr = prev * 1.05  # far outside the hinted table's reach
        hint = BinModel(np.array([0.001, 0.002]))
        enc, report = encode_pair(prev, curr, NumarckConfig(**CFG),
                                  model_hint=hint, hint_drift=None)
        assert report.model_reused and not report.refitted
        np.testing.assert_array_equal(enc.representatives,
                                      hint.representatives)
        # reuse never weakens E: unreachable points went incompressible
        out = decode_iteration(prev, enc)
        err = np.abs(out - curr) / np.abs(prev)
        err[enc.incompressible] = 0.0
        assert err.max() < 1e-3

    def test_no_candidates_with_hint_is_trivial_reuse(self):
        prev = np.linspace(1.0, 2.0, 500)
        hint = BinModel(np.array([0.01, 0.02]))
        enc, report = encode_pair(prev, prev, NumarckConfig(**CFG),
                                  model_hint=hint, hint_drift=0.05)
        assert report.model_reused and report.n_candidates == 0
        np.testing.assert_array_equal(enc.representatives,
                                      hint.representatives)

    def test_warm_start_counter_increments_on_refit(self):
        states = _stationary_states(2)
        prev = states[-1]
        shifted = _shifted_pair(prev, 0.2)
        hint_enc, _ = encode_pair(states[0], states[1], NumarckConfig(**CFG))
        hint = BinModel(hint_enc.representatives)
        tel = Telemetry()
        with use(tel):
            _, report = encode_pair(prev, shifted, NumarckConfig(**CFG),
                                    model_hint=hint, hint_drift=0.05)
        assert report.refitted
        assert tel.metrics.counter("kmeans.warm_starts").value == 1

    def test_telemetry_counters(self):
        tel = Telemetry()
        with use(tel):
            enc = AdaptiveEncoder(NumarckConfig(adaptive=True, **CFG))
            states = _stationary_states(3)
            for prev, curr in zip(states, states[1:]):
                enc.encode(prev, curr)
        assert tel.metrics.counter("adaptive.reuse_hits").value == 2
        assert tel.metrics.counter("adaptive.refits").value == 0


class TestChainIntegration:
    def test_chain_marks_reuse_and_roundtrips(self, tmp_path):
        from repro.io import load_chain, save_chain

        states = _stationary_states(6)
        chain = Codec(config=NumarckConfig(adaptive=True, **CFG)).compress_chain(
            states)
        flags = [d.model_reused for d in chain.deltas]
        assert flags[0] is False and all(flags[1:])
        assert chain.reuse_stats.reuse_hits == len(states) - 2

        path = tmp_path / "adaptive.nmk"
        save_chain(path, chain)
        loaded = load_chain(path, NumarckConfig(adaptive=True, **CFG))
        for i in range(len(states)):
            np.testing.assert_array_equal(loaded.reconstruct(i),
                                          chain.reconstruct(i))
        assert [d.model_reused for d in loaded.deltas] == flags

    def test_table_ref_dedup_shrinks_file(self, tmp_path):
        from repro.io import save_chain

        states = _stationary_states(6)
        adaptive = Codec(config=NumarckConfig(adaptive=True, **CFG)).compress_chain(
            states)
        plain = Codec(config=NumarckConfig(**CFG)).compress_chain(states)
        a = save_chain(tmp_path / "a.nmk", adaptive)
        b = save_chain(tmp_path / "b.nmk", plain)
        # 5 reuse-hit deltas elide their 255-entry float64 table
        assert b - a >= 5 * 200 * 8

    def test_append_mode_continues_dedup(self, tmp_path):
        from repro.io import CheckpointFile, load_chain, save_chain

        states = _stationary_states(8)
        cfg = NumarckConfig(adaptive=True, **CFG)
        chain = Codec(config=cfg).compress_chain(states[:5])
        path = tmp_path / "chain.nmk"
        save_chain(path, chain)

        resumed = load_chain(path, cfg)
        for state in states[5:]:
            resumed.append(state)
        with CheckpointFile.append(path) as f:
            for payload in resumed.payloads[4:]:
                f.write_delta(payload)
        final = load_chain(path, cfg)
        assert len(final) == len(states)
        np.testing.assert_array_equal(final.reconstruct(len(states) - 1),
                                      resumed.reconstruct(len(states) - 1))

    def test_load_chains_resumes_model_reuse(self, tmp_path):
        # Every chain of a multi-variable file is seeded with its last
        # table, as a single chain is: the first append after the load
        # reuses it, and its record references the stored table.
        from repro.io import load_chains, save_chains

        states = _stationary_states(6)
        cfg = NumarckConfig(adaptive=True, **CFG)
        scales = {"a": 1.0, "b": 3.0}
        path = tmp_path / "m.nmk"
        save_chains(path, {v: Codec(config=cfg).compress_chain(
            [s * scale for s in states[:5]]) for v, scale in scales.items()})
        loaded = load_chains(path, cfg)
        for v, scale in scales.items():
            loaded[v].append(states[5] * scale)
            assert loaded[v].deltas[-1].model_reused
            assert loaded[v].payloads[-1][1] & 0x08  # flags: table reference

    def test_truncate_resets_cache(self):
        states = _stationary_states(4)
        cfg = NumarckConfig(adaptive=True, **CFG)
        chain = Codec(config=cfg).compress_chain(states)
        chain.truncate(1)
        chain.append(states[1])
        assert chain.deltas[-1].model_reused is False  # cold refit


class TestParallelReuse:
    def test_serial_comm_reuse_hit(self):
        from repro.parallel import parallel_encode

        cfg = NumarckConfig(**CFG)
        states = _stationary_states(3)
        enc1, stats1 = parallel_encode(None, states[0], states[1], cfg)
        assert not stats1.model_reused
        hint = BinModel(enc1.representatives)
        enc2, stats2 = parallel_encode(None, states[1], states[2], cfg,
                                       model_hint=hint, hint_drift=0.05)
        assert stats2.model_reused and enc2.model_reused
        np.testing.assert_array_equal(enc2.representatives,
                                      hint.representatives)

    def test_serial_comm_drift_refits(self):
        from repro.parallel import parallel_encode

        cfg = NumarckConfig(**CFG)
        states = _stationary_states(2)
        prev = states[-1]
        hint = BinModel(np.array([-0.004, 0.004]))
        enc, stats = parallel_encode(None, prev, _shifted_pair(prev, 0.2),
                                     cfg, model_hint=hint, hint_drift=0.05)
        assert not stats.model_reused and not enc.model_reused
