"""From-scratch k-means clustering substrate.

NUMARCK's best-performing approximation strategy clusters the change-ratio
distribution with k-means seeded from an equal-width histogram (paper
Section II-C3, citing the authors' own parallel k-means MPI package).
scikit-learn is not available in this environment, so this package provides
the complete algorithm:

* :func:`kmeans1d` / :func:`kmeans` -- vectorised Lloyd iterations for 1-D
  (the NUMARCK case: change ratios are scalars) and general n-D data.
* :mod:`repro.kmeans.init` -- centroid initialisation: equal-width
  histogram prior (the paper's choice), k-means++, and uniform random.
* :func:`parallel_kmeans1d` -- data-parallel Lloyd driver over a
  :class:`repro.parallel.Comm`, mirroring the paper's MPI formulation
  (local assign + local partial sums, allreduce of sums/counts).

1-D assignment (:func:`assign1d`, and the encoder's ``BinModel.assign``)
places each point among the sorted centroid midpoints with a lookup table
(:class:`~repro.kmeans.lloyd.MidpointTable`), O(1) per point instead of
the O(n k) distance matrix.  The 1-D Lloyd drivers go further: they sort
the data once per fit (O(n log n)), after which every cluster is a contiguous sorted run and a
sweep costs O(k log n + n) -- the main reason the clustering strategy
stays fast at checkpoint scale.
"""

from repro.kmeans.init import (histogram_init, kmeanspp_init, random_init,
                               warm_start_init)
from repro.kmeans.lloyd import KMeansResult, assign1d, kmeans, kmeans1d
from repro.kmeans.parallel import parallel_kmeans1d

__all__ = [
    "KMeansResult",
    "kmeans",
    "kmeans1d",
    "assign1d",
    "histogram_init",
    "kmeanspp_init",
    "random_init",
    "warm_start_init",
    "parallel_kmeans1d",
]
