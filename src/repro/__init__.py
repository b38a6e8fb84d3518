"""NUMARCK: error-bounded checkpoint compression (SC'14 reproduction).

Northwestern University Machine learning Algorithm for Resiliency and
ChecKpointing -- compresses simulation checkpoints by learning the
distribution of *relative changes* between consecutive iterations and
encoding each point as a small index into a table of representative change
ratios, with a hard user-specified per-point error bound.

Quick start::

    import numpy as np
    from repro import Codec, NumarckConfig

    codec = Codec(config=NumarckConfig(error_bound=1e-3, nbits=8,
                                strategy="clustering"))
    encoded = codec.compress(prev_iteration, curr_iteration)
    decoded = codec.decompress(prev_iteration, encoded)

For chain-shaped workloads, ``NumarckConfig(adaptive=True)`` caches the
fitted bin model across iterations and refits only on distribution drift
-- the fit stage disappears from the steady-state hot path.

Sub-packages
------------
``repro.core``
    the compression pipeline (change ratios, strategies, encoder/decoder,
    checkpoint chains, metrics).
``repro.kmeans``
    from-scratch 1-D/n-D k-means with histogram seeding.
``repro.bitpack``
    B-bit integer packing.
``repro.io``
    binary checkpoint container format.
``repro.baselines``
    B-Splines and ISABELA lossy compressors, lossless helpers.
``repro.simulations``
    FLASH-like hydrodynamics and CMIP5-like climate data generators.
``repro.parallel``
    MPI-style SPMD communicator and decompositions.
``repro.restart``
    restart manager and fault-injection harness.
``repro.analysis``
    entropy and change-distribution diagnostics.
"""

from repro.codec import Codec
from repro.core import (
    AdaptiveEncoder,
    CheckpointChain,
    CompressionStats,
    ConfigError,
    EncodedIteration,
    FormatError,
    NumarckConfig,
    NumarckError,
    change_ratios,
    decode_iteration,
    pearson_r,
    rmse,
)

__version__ = "1.0.0"

__all__ = [
    "Codec",
    "AdaptiveEncoder",
    "NumarckConfig",
    "CheckpointChain",
    "CompressionStats",
    "EncodedIteration",
    "decode_iteration",
    "change_ratios",
    "pearson_r",
    "rmse",
    "NumarckError",
    "ConfigError",
    "FormatError",
    "__version__",
]
