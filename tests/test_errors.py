"""The unified error hierarchy: one tree, the parallel.faults alias, HTTP map."""

import pytest

import repro.errors as errors
from repro.errors import (
    ChainNotFoundError,
    ConfigError,
    FormatError,
    JobCancelledError,
    JobNotFoundError,
    NumarckError,
    QueueFullError,
    RankFailureError,
    SalvageError,
    ServiceError,
    ServiceUnavailableError,
    StateError,
    http_status,
)


class TestHierarchy:
    def test_everything_is_a_numarck_error(self):
        for name in errors.__all__:
            obj = getattr(errors, name)
            if isinstance(obj, type) and issubclass(obj, Exception):
                assert issubclass(obj, NumarckError), name

    def test_builtin_bases_preserved(self):
        # Pre-hierarchy code caught ValueError / RuntimeError / KeyError;
        # the unified tree must keep those contracts.
        assert issubclass(ConfigError, ValueError)
        assert issubclass(FormatError, ValueError)
        assert issubclass(SalvageError, FormatError)
        assert issubclass(StateError, RuntimeError)
        assert issubclass(RankFailureError, RuntimeError)
        assert issubclass(JobNotFoundError, KeyError)
        assert issubclass(ChainNotFoundError, KeyError)

    def test_service_errors_group(self):
        for cls in (JobNotFoundError, ChainNotFoundError, QueueFullError,
                    JobCancelledError, ServiceUnavailableError):
            assert issubclass(cls, ServiceError)

    def test_key_error_str_is_clean(self):
        # KeyError.__str__ repr-quotes its argument; the service classes
        # must render their message verbatim for HTTP bodies.
        assert str(JobNotFoundError("no such job 'j1'")) == "no such job 'j1'"

    def test_queue_full_carries_retry_after(self):
        exc = QueueFullError("full", retry_after=2.5)
        assert exc.retry_after == 2.5

    def test_rank_failure_fields(self):
        exc = RankFailureError(3, "timeout", phase="reduce")
        assert exc.rank == 3
        assert exc.reason == "timeout"
        assert "rank 3" in str(exc)


class TestAliases:
    def test_parallel_faults_alias(self):
        from repro.parallel.faults import RankFailureError as aliased

        assert aliased is RankFailureError

    def test_isinstance_across_import_paths(self):
        from repro import ConfigError as top_level_config_error

        with pytest.raises(top_level_config_error):
            from repro.core.config import NumarckConfig
            NumarckConfig(error_bound=5.0)


class TestHttpStatus:
    @pytest.mark.parametrize("exc,status", [
        (QueueFullError("full"), 429),
        (JobNotFoundError("nope"), 404),
        (ChainNotFoundError("nope"), 404),
        (JobCancelledError("gone"), 409),
        (ServiceUnavailableError("down"), 503),
        (ConfigError("bad"), 400),
        (FormatError("torn"), 422),
        (SalvageError("torn badly"), 422),
        (StateError("not ready"), 409),
        (RankFailureError(1, "lost"), 500),
        (ServiceError("generic"), 500),
        (NumarckError("generic"), 500),
        (RuntimeError("foreign"), 500),
    ])
    def test_mapping(self, exc, status):
        assert http_status(exc) == status

    def test_table_orders_subclasses_before_bases(self):
        seen: list[type] = []
        for cls, _ in errors.HTTP_STATUS:
            for earlier in seen:
                assert not issubclass(cls, earlier), (
                    f"{cls.__name__} is shadowed by earlier "
                    f"{earlier.__name__} entry"
                )
            seen.append(cls)
