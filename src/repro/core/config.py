"""Compression configuration.

All tunables of the paper's Algorithm 1 live here:

* ``error_bound`` -- the user tolerance ``E`` on the *change ratio*
  (0.001 == the paper's 0.1 %).  Hard per-point guarantee: the decoded
  change ratio of every compressible point differs from the true ratio by
  less than ``E``.
* ``nbits`` -- approximation precision ``B``; indices take ``B`` bits and
  the bin table holds ``2**B - 1`` representatives (index 0 is reserved for
  "change below tolerance").
* ``strategy`` -- ``"equal_width"``, ``"log_scale"`` or ``"clustering"``.
* ``reference`` -- what the change ratio is computed against.
  ``"original"`` is the paper's open-loop scheme (ratio between true
  iterates; restart error accumulates along the chain).
  ``"reconstructed"`` is a closed-loop extension (ratio against the decoded
  previous state, as an MPEG encoder would do) that stops accumulation; it
  is measured by the delta-reference ablation bench.
* ``adaptive`` -- reuse the fitted bin model across a chain's iterations
  (see :mod:`repro.core.adaptive`): each timestep first validates the
  cached table against the new ratios and refits only when the
  incompressible fraction drifts past ``drift_threshold``.  The hard
  per-point guarantee E is unaffected -- reuse only steers bin placement,
  the exactness check always runs.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields, replace
from typing import Any, Literal

from repro.errors import ConfigError

__all__ = ["NumarckConfig"]


StrategyName = Literal["equal_width", "log_scale", "clustering"]
ReferenceMode = Literal["original", "reconstructed"]

_MAX_NBITS = 16


@dataclass(frozen=True, kw_only=True)
class NumarckConfig:
    """Validated bundle of NUMARCK parameters (keyword-only construction).

    Raises :class:`~repro.errors.ConfigError` on construction for any
    out-of-range value, so a config object is always safe to use.
    ``to_dict()`` / ``from_dict()`` round-trip the config through plain
    JSON-compatible dicts -- the wire form used by the compression
    service's job-submit body (:mod:`repro.service`).
    """

    error_bound: float = 1e-3
    nbits: int = 8
    strategy: StrategyName = "clustering"
    reference: ReferenceMode = "original"
    kmeans_max_iter: int = 25
    reserve_zero_bin: bool = True
    seed: int = field(default=0)
    #: reuse the fitted bin model across chain iterations (drift-validated).
    adaptive: bool = False
    #: refit trigger: cached model is dropped when the incompressible
    #: fraction exceeds ``baseline + drift_threshold`` (absolute drift).
    drift_threshold: float = 0.05

    def __post_init__(self) -> None:
        if not (0.0 < self.error_bound < 1.0):
            raise ConfigError(
                f"error_bound must be in (0, 1), got {self.error_bound!r}"
            )
        if not isinstance(self.nbits, int) or not (1 <= self.nbits <= _MAX_NBITS):
            raise ConfigError(f"nbits must be an int in [1, {_MAX_NBITS}], got {self.nbits!r}")
        if self.strategy not in ("equal_width", "log_scale", "clustering"):
            raise ConfigError(f"unknown strategy {self.strategy!r}")
        if self.reference not in ("original", "reconstructed"):
            raise ConfigError(f"unknown reference mode {self.reference!r}")
        if self.kmeans_max_iter < 1:
            raise ConfigError(f"kmeans_max_iter must be >= 1, got {self.kmeans_max_iter}")
        if not (0.0 < self.drift_threshold <= 1.0):
            raise ConfigError(
                f"drift_threshold must be in (0, 1], got {self.drift_threshold!r}"
            )

    @property
    def n_bins(self) -> int:
        """Number of representative bins (2^B - 1 when index 0 is reserved)."""
        total = 1 << self.nbits
        return total - 1 if self.reserve_zero_bin else total

    def with_(self, **kwargs) -> "NumarckConfig":
        """Return a copy with the given fields replaced (re-validated)."""
        return replace(self, **kwargs)

    def to_dict(self) -> dict[str, Any]:
        """JSON-compatible dict of every field (see :meth:`from_dict`)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "NumarckConfig":
        """Rebuild a validated config from :meth:`to_dict` output.

        Unknown keys raise :class:`~repro.errors.ConfigError` (typos
        in a job-submit body must not silently fall back to defaults);
        missing keys take their defaults, so partial dicts work as
        overrides.
        """
        if not isinstance(data, dict):
            raise ConfigError(
                f"config must be a dict of fields, got {type(data).__name__}"
            )
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigError(
                f"unknown config keys {unknown}; valid keys: {sorted(known)}"
            )
        try:
            return cls(**data)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc
