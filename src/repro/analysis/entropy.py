"""Shannon entropy estimators for floating-point data.

The paper's premise (Section II-A) is that scientific snapshots are "high
entropy data": their byte streams are near-incompressible for lossless
coders.  These estimators quantify that, and the corresponding tests
demonstrate the premise on the FLASH/CMIP substrates: snapshot bytes are
close to 8 bits/byte while NUMARCK's index streams are far below
``B`` bits/index.
"""

from __future__ import annotations

import numpy as np

__all__ = ["byte_entropy", "word_entropy"]


def _shannon(counts: np.ndarray) -> float:
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts[counts > 0] / total
    return float(-(p * np.log2(p)).sum())


def byte_entropy(data: np.ndarray | bytes) -> float:
    """Shannon entropy of the byte stream, in bits/byte (max 8)."""
    if isinstance(data, (bytes, bytearray)):
        raw = np.frombuffer(bytes(data), dtype=np.uint8)
    else:
        raw = np.frombuffer(np.ascontiguousarray(data).tobytes(), dtype=np.uint8)
    return _shannon(np.bincount(raw, minlength=256))


def word_entropy(values: np.ndarray) -> float:
    """Empirical entropy of the value distribution, in bits/value.

    Treats each distinct value (e.g. a 64-bit double or a B-bit index) as a
    symbol; this is the ideal-coder size for a zeroth-order model, i.e. the
    best any per-symbol lossless code could do.
    """
    arr = np.asarray(values).ravel()
    if arr.size == 0:
        return 0.0
    _, counts = np.unique(arr, return_counts=True)
    return _shannon(counts)

