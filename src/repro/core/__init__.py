"""NUMARCK core: error-bounded checkpoint compression.

The pipeline implements the paper's three stages:

1. **Forward predictive coding** (:mod:`repro.core.change`): the relative
   change ratio ``(D_i - D_{i-1}) / D_{i-1}`` of every point between two
   consecutive checkpoint iterations.
2. **Data approximation** (:mod:`repro.core.strategies`,
   :mod:`repro.core.encoder`): learn the distribution of change ratios with
   equal-width binning, log-scale binning, or k-means clustering; represent
   every compressible point by a B-bit index into a table of 2^B - 1
   representative ratios; points whose approximation error would exceed the
   user tolerance ``E`` are stored exactly.
3. **Restart** (:mod:`repro.core.decoder`, :mod:`repro.core.checkpoint`):
   rebuild iteration ``i`` as ``D'_{i-1} * (1 + ratio')`` with exact values
   spliced in, chaining deltas from the last full checkpoint.

Entry points: :class:`repro.Codec` for pair/chain/stream compression and
:class:`CheckpointChain` for multi-iteration streams.  With
``NumarckConfig(adaptive=True)`` the fitted bin model is cached across a
chain's iterations and refitted only on distribution drift
(:mod:`repro.core.adaptive`).
"""

from repro.core.adaptive import AdaptiveEncoder, ReuseStats
from repro.core.change import ChangeField, apply_change, change_ratios
from repro.core.checkpoint import CheckpointChain
from repro.core.config import NumarckConfig
from repro.core.decoder import decode_iteration
from repro.core.encoder import EncodedIteration, EncodeReport, encode_pair
from repro.core.joint import JointEncodedIteration, decode_joint, encode_joint
from repro.core.metrics import (
    CompressionStats,
    compression_ratio_actual,
    compression_ratio_paper,
    error_rates,
    pearson_r,
    rmse,
)
from repro.core.varset import VariableSet
from repro.core.theory import (
    closed_loop_error_bound,
    max_chain_depth,
    open_loop_error_bound,
)
from repro.core.streaming import StreamedIteration, decode_stream
from repro.core.strategies import (
    ApproximationStrategy,
    BinModel,
    ClusteringStrategy,
    EqualWidthStrategy,
    LogScaleStrategy,
)
from repro.errors import (
    ConfigError,
    FormatError,
    NumarckError,
    SalvageError,
    SalvageReport,
)

__all__ = [
    "NumarckConfig",
    "VariableSet",
    "CheckpointChain",
    "ChangeField",
    "change_ratios",
    "apply_change",
    "EncodedIteration",
    "EncodeReport",
    "encode_pair",
    "AdaptiveEncoder",
    "ReuseStats",
    "decode_iteration",
    "encode_joint",
    "decode_joint",
    "JointEncodedIteration",
    "ApproximationStrategy",
    "BinModel",
    "EqualWidthStrategy",
    "LogScaleStrategy",
    "ClusteringStrategy",
    "StreamedIteration",
    "decode_stream",
    "open_loop_error_bound",
    "closed_loop_error_bound",
    "max_chain_depth",
    "CompressionStats",
    "error_rates",
    "compression_ratio_paper",
    "compression_ratio_actual",
    "pearson_r",
    "rmse",
    "NumarckError",
    "ConfigError",
    "FormatError",
    "SalvageError",
    "SalvageReport",
]
