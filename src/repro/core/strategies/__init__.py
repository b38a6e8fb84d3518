"""Approximation strategies: learn the change-ratio distribution.

Each strategy fits a :class:`BinModel` -- at most ``k`` representative
change ratios plus an assignment rule -- on the compressible candidates of
one iteration:

* :class:`EqualWidthStrategy` (paper II-C1): ``k`` equal-width histogram
  bins over the ratio range, represented by bin centers.
* :class:`LogScaleStrategy` (paper II-C2): bin widths grow geometrically
  with ``|ratio|`` (finer bins for small changes), sign-aware.
* :class:`ClusteringStrategy` (paper II-C3): 1-D k-means seeded from the
  equal-width histogram; cluster centroids become the representatives.

Strategies are selected from a :class:`~repro.core.config.NumarckConfig`
through :meth:`ApproximationStrategy.from_config`, the one construction
path.
"""

from repro.core.strategies.base import ApproximationStrategy, BinModel
from repro.core.strategies.clustering import ClusteringStrategy
from repro.core.strategies.equal_width import EqualWidthStrategy
from repro.core.strategies.log_scale import LogScaleStrategy

__all__ = [
    "ApproximationStrategy",
    "BinModel",
    "EqualWidthStrategy",
    "LogScaleStrategy",
    "ClusteringStrategy",
    "STRATEGIES",
]

STRATEGIES: dict[str, type[ApproximationStrategy]] = {
    "equal_width": EqualWidthStrategy,
    "log_scale": LogScaleStrategy,
    "clustering": ClusteringStrategy,
}

