"""Joint (multi-variable) change-vector quantization.

The paper encodes each variable independently, but checkpoint variables
are often strongly correlated -- FLASH's ``pres`` and ``temp`` "showed
very similar behaviors because the computation applied to both is
actually the same" (Section III-G).  Joint coding exploits that: the
*change vector* ``(dP/P, dT/T, ...)`` of each point is quantized with
n-dimensional k-means, so ``d`` correlated variables share **one** B-bit
index per point instead of ``d`` of them.

The per-variable guarantee is unchanged: a point's component is decoded
from the shared representative only if that component is within ``E`` of
the true ratio; otherwise that variable's raw value is stored exactly
(per-variable bitmaps + exact streams, as in the scalar encoder).

Storage per point: ``B`` bits (shared) + per-variable exact fallbacks,
versus ``d * B`` bits for separate encoding -- the ablation bench
measures when the shared table's coarser per-component resolution is
worth it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.change import change_ratios
from repro.core.config import NumarckConfig
from repro.errors import FormatError
from repro.kmeans import kmeans

__all__ = ["JointEncodedIteration", "encode_joint", "decode_joint"]


@dataclass(frozen=True)
class JointEncodedIteration:
    """Compressed form of one multi-variable iteration with shared indices.

    ``representatives`` is ``(m, d)``: representative change-ratio vectors.
    Index 0 is reserved for "all components below tolerance"; ``j >= 1``
    selects ``representatives[j - 1]``.  ``incompressible[v]`` flags the
    points whose variable ``v`` is stored exactly in ``exact_values[v]``.
    """

    shape: tuple[int, ...]
    nbits: int
    variables: tuple[str, ...]
    representatives: np.ndarray
    indices: np.ndarray
    incompressible: dict[str, np.ndarray]
    exact_values: dict[str, np.ndarray]
    error_bound: float

    @property
    def n_points(self) -> int:
        return int(self.indices.size)

    @property
    def n_variables(self) -> int:
        return len(self.variables)

    def incompressible_ratio(self, variable: str) -> float:
        mask = self.incompressible[variable]
        return float(mask.sum()) / self.n_points if self.n_points else 0.0

    def stored_bits(self) -> int:
        """Index stream + bitmaps + exact values + table (bits)."""
        bits = self.n_points * self.nbits            # one shared index/point
        for v in self.variables:
            bits += self.n_points                    # per-variable bitmap
            bits += self.exact_values[v].size * 64
        bits += self.representatives.size * 64
        return bits


def encode_joint(prev: dict[str, np.ndarray], curr: dict[str, np.ndarray],
                 config: NumarckConfig | None = None,
                 sample_limit: int = 100_000) -> JointEncodedIteration:
    """Encode several same-shaped variables with one shared index stream."""
    cfg = config if config is not None else NumarckConfig()
    variables = tuple(sorted(curr))
    if not variables:
        raise ValueError("need at least one variable")
    missing = set(variables) - set(prev)
    if missing:
        raise KeyError(f"prev missing variables: {sorted(missing)}")
    shape = np.asarray(curr[variables[0]]).shape
    for v in variables:
        if np.asarray(curr[v]).shape != shape or \
                np.asarray(prev[v]).shape != shape:
            raise FormatError(f"variable {v!r} shape mismatch")

    e = cfg.error_bound
    d = len(variables)
    n = int(np.prod(shape)) if shape else 1

    ratios = np.empty((d, n))
    forced = np.zeros((d, n), dtype=bool)
    for i, v in enumerate(variables):
        field = change_ratios(prev[v], curr[v])
        ratios[i] = field.ratios.ravel()
        forced[i] = field.forced_exact.ravel()

    small = np.all((np.abs(ratios) < e) & ~forced, axis=0)
    cand_mask = ~small
    cand_idx = np.flatnonzero(cand_mask)

    indices = np.zeros(n, dtype=np.uint32)
    incompressible = {v: forced[i].copy() for i, v in enumerate(variables)}
    reps = np.empty((0, d))

    if cand_idx.size:
        # Fit n-D k-means in per-component asinh space (heavy-tail safety,
        # matching the scalar strategy's stabilised variant).
        vectors = np.arcsinh(ratios[:, cand_idx].T / e)  # (n_cand, d)
        k = min(cfg.n_bins, cand_idx.size)
        rng = np.random.default_rng(cfg.seed)
        sample = vectors
        if sample.shape[0] > sample_limit:
            pick = rng.choice(sample.shape[0], sample_limit, replace=False)
            sample = sample[pick]
        uniq = np.unique(sample, axis=0)
        if uniq.shape[0] <= k:
            centroids = uniq
        else:
            init = uniq[rng.choice(uniq.shape[0], k, replace=False)]
            centroids = kmeans(sample, init,
                               max_iter=cfg.kmeans_max_iter).centroids
        reps = np.sinh(centroids) * e  # (m, d) back in ratio space

        # Assign every candidate to its nearest centroid (in fit space).
        d2 = (-2.0 * vectors @ centroids.T
              + np.sum(centroids * centroids, axis=1)[None, :])
        labels = np.argmin(d2, axis=1).astype(np.uint32)
        indices[cand_idx] = labels + 1

        # Per-variable exactness check against the shared representative.
        approx = reps[labels]                         # (n_cand, d)
        true = ratios[:, cand_idx].T
        fail = np.abs(approx - true) >= e             # (n_cand, d)
        for i, v in enumerate(variables):
            incompressible[v][cand_idx[fail[:, i]]] = True

    exact_values = {
        v: np.asarray(curr[v], dtype=np.float64).ravel()[incompressible[v]].copy()
        for v in variables
    }
    return JointEncodedIteration(
        shape=tuple(shape),
        nbits=cfg.nbits,
        variables=variables,
        representatives=reps,
        indices=indices,
        incompressible=incompressible,
        exact_values=exact_values,
        error_bound=e,
    )


def decode_joint(prev: dict[str, np.ndarray],
                 encoded: JointEncodedIteration) -> dict[str, np.ndarray]:
    """Rebuild every variable from the shared index stream."""
    out: dict[str, np.ndarray] = {}
    m = encoded.representatives.shape[0] if encoded.representatives.size else 0
    for i, v in enumerate(encoded.variables):
        p = np.asarray(prev[v], dtype=np.float64)
        if p.shape != encoded.shape:
            raise FormatError(f"variable {v!r}: reference shape mismatch")
        if m:
            table = np.concatenate([[0.0], encoded.representatives[:, i]])
            ratios = table[encoded.indices]
        else:
            ratios = np.zeros(encoded.n_points)
        mask = encoded.incompressible[v]
        values = p.ravel() * (1.0 + np.where(mask, 0.0, ratios))
        values[mask] = encoded.exact_values[v]
        out[v] = values.reshape(encoded.shape)
    return out
