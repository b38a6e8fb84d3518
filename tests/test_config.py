"""NumarckConfig validation tests."""

import pytest

from repro.core import ConfigError, NumarckConfig


class TestValidation:
    def test_defaults_valid(self):
        cfg = NumarckConfig()
        assert cfg.error_bound == 1e-3
        assert cfg.nbits == 8
        assert cfg.strategy == "clustering"
        assert cfg.reference == "original"

    @pytest.mark.parametrize("e", [0.0, -0.1, 1.0, 2.0])
    def test_bad_error_bound(self, e):
        with pytest.raises(ConfigError):
            NumarckConfig(error_bound=e)

    @pytest.mark.parametrize("b", [0, 17, -1])
    def test_bad_nbits(self, b):
        with pytest.raises(ConfigError):
            NumarckConfig(nbits=b)

    def test_nbits_must_be_int(self):
        with pytest.raises(ConfigError):
            NumarckConfig(nbits=8.0)

    def test_bad_strategy(self):
        with pytest.raises(ConfigError):
            NumarckConfig(strategy="magic")

    def test_bad_reference(self):
        with pytest.raises(ConfigError):
            NumarckConfig(reference="future")

    def test_bad_max_iter(self):
        with pytest.raises(ConfigError):
            NumarckConfig(kmeans_max_iter=0)


class TestDerived:
    @pytest.mark.parametrize("b,expected", [(8, 255), (9, 511), (10, 1023), (1, 1)])
    def test_n_bins_reserved(self, b, expected):
        assert NumarckConfig(nbits=b).n_bins == expected

    def test_n_bins_unreserved(self):
        assert NumarckConfig(nbits=8, reserve_zero_bin=False).n_bins == 256

    def test_with_replaces_and_revalidates(self):
        cfg = NumarckConfig()
        cfg2 = cfg.with_(nbits=9, strategy="log_scale")
        assert cfg2.nbits == 9 and cfg2.strategy == "log_scale"
        assert cfg.nbits == 8, "original must be unchanged (frozen)"
        with pytest.raises(ConfigError):
            cfg.with_(error_bound=5.0)

    def test_frozen(self):
        with pytest.raises(Exception):
            NumarckConfig().nbits = 9  # type: ignore[misc]
