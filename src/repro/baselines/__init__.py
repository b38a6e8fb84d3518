"""Baseline compressors the paper compares against (Section III-F).

* :class:`BSplineCompressor` -- straight least-squares cubic B-spline fit
  to the data vector with ``P_S`` coefficients (Chou & Piegl style).  The
  paper fixes ``P_S = 0.8 n``, giving its constant 20 % compression ratio.
* :class:`IsabelaCompressor` -- ISABELA (Lakshminarasimhan et al.): split
  the vector into windows of ``W_0`` values, *sort* each window (storing
  the permutation in ``log2 W_0`` bits per point), and fit the now-monotone
  curve with a ``P_I``-coefficient B-spline.

Both lossy baselines implement ``compress`` / ``decompress`` /
``compression_ratio`` so the Table I/II benches drive all three systems
through one interface.
"""

from repro.baselines.bspline import BSplineCompressor, lsq_bspline_fit
from repro.baselines.huffman import (
    code_lengths,
    huffman_decode,
    huffman_encode,
    huffman_size_bits,
)
from repro.baselines.isabela import IsabelaCompressor

__all__ = [
    "BSplineCompressor",
    "IsabelaCompressor",
    "huffman_encode",
    "huffman_decode",
    "huffman_size_bits",
    "code_lengths",
    "lsq_bspline_fit",
]
