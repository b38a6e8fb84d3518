"""CadenceController tests."""

import numpy as np
import pytest

from repro.analysis import CadenceController
from repro.core import CheckpointChain, NumarckConfig


class TestCadenceController:
    def _stats(self, rng, gamma=0.0, mean_error=1e-5):
        from repro.core.metrics import CompressionStats

        n = 1000
        return CompressionStats(
            n_points=n, n_incompressible=int(gamma * n), n_bins=100, nbits=8,
            mean_error=mean_error, max_error=10 * mean_error,
            ratio_paper=80.0, ratio_actual=78.0,
        )

    def test_within_budget_keeps_delta(self, rng):
        ctl = CadenceController(error_budget=1e-2, max_depth=10)
        d = ctl.observe_delta(self._stats(rng))
        assert not d.write_full
        assert d.depth == 1

    def test_gamma_triggers_full(self, rng):
        ctl = CadenceController(gamma_threshold=0.4)
        d = ctl.observe_delta(self._stats(rng, gamma=0.6))
        assert d.write_full and "incompressible" in d.reason

    def test_error_budget_triggers_full(self, rng):
        ctl = CadenceController(error_budget=2.5e-4, max_depth=100)
        decisions = [ctl.observe_delta(self._stats(rng, mean_error=1e-4))
                     for _ in range(3)]
        assert not decisions[0].write_full
        assert not decisions[1].write_full
        assert decisions[2].write_full and "accumulated" in decisions[2].reason

    def test_depth_cap_triggers_full(self, rng):
        ctl = CadenceController(error_budget=1.0, max_depth=4)
        decisions = [ctl.observe_delta(self._stats(rng)) for _ in range(4)]
        assert decisions[-1].write_full and "depth" in decisions[-1].reason

    def test_reset_after_full(self, rng):
        ctl = CadenceController(max_depth=2, error_budget=1.0)
        ctl.observe_delta(self._stats(rng))
        ctl.observe_delta(self._stats(rng))
        ctl.notify_full_checkpoint()
        assert ctl.depth == 0
        assert not ctl.observe_delta(self._stats(rng)).write_full

    def test_integration_with_chain(self, rng):
        """Drive the controller from real chain stats."""
        ctl = CadenceController(error_budget=3e-4, max_depth=50)
        data = rng.uniform(1, 2, 2000)
        chain = CheckpointChain(data, NumarckConfig(error_bound=1e-3))
        full_written = 0
        for _ in range(12):
            data = data * (1 + rng.normal(0, 0.003, 2000))
            stats = chain.append(data)
            if ctl.observe_delta(stats).write_full:
                chain = CheckpointChain(data, NumarckConfig(error_bound=1e-3))
                ctl.notify_full_checkpoint()
                full_written += 1
        assert full_written >= 1, "budget must eventually force a full checkpoint"

    def test_validation(self):
        with pytest.raises(ValueError):
            CadenceController(error_budget=0)
        with pytest.raises(ValueError):
            CadenceController(gamma_threshold=0)
        with pytest.raises(ValueError):
            CadenceController(max_depth=0)
