"""The keyword-only config/Codec surface and its dict round trip."""

import warnings

import pytest

from repro import Codec, NumarckConfig
from repro.errors import ConfigError


class TestDictRoundTrip:
    def test_to_dict_from_dict(self):
        cfg = NumarckConfig(error_bound=5e-4, nbits=10,
                            strategy="log_scale", adaptive=True)
        data = cfg.to_dict()
        assert data["error_bound"] == 5e-4
        assert NumarckConfig.from_dict(data) == cfg

    def test_to_dict_is_json_compatible(self):
        import json

        round_tripped = json.loads(json.dumps(NumarckConfig().to_dict()))
        assert NumarckConfig.from_dict(round_tripped) == NumarckConfig()

    def test_partial_dict_uses_defaults(self):
        cfg = NumarckConfig.from_dict({"nbits": 6})
        assert cfg.nbits == 6
        assert cfg.error_bound == NumarckConfig().error_bound

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="no_such_field"):
            NumarckConfig.from_dict({"no_such_field": 1})

    def test_non_dict_rejected(self):
        with pytest.raises(ConfigError):
            NumarckConfig.from_dict([("nbits", 8)])

    def test_values_still_validated(self):
        with pytest.raises(ConfigError):
            NumarckConfig.from_dict({"error_bound": 2.0})


class TestKeywordOnly:
    def test_keyword_construction_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            NumarckConfig(error_bound=1e-3, nbits=8)
            Codec(config=NumarckConfig())
            Codec()

    def test_positional_config_raises(self):
        with pytest.raises(TypeError):
            NumarckConfig(1e-3, 8)

    def test_positional_codec_raises(self):
        with pytest.raises(TypeError):
            Codec(NumarckConfig(error_bound=1e-3))

    def test_positional_and_keyword_conflict(self):
        with pytest.raises(TypeError):
            NumarckConfig(1e-3, error_bound=1e-3)
        with pytest.raises(TypeError):
            Codec(NumarckConfig(), config=NumarckConfig())

    def test_too_many_positionals(self):
        with pytest.raises(TypeError):
            Codec(NumarckConfig(), NumarckConfig())

    def test_replace_does_not_warn(self):
        cfg = NumarckConfig(error_bound=1e-3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cfg.with_(nbits=4).nbits == 4
