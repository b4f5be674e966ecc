"""Generalized Toeplitz matrices over the Gegenbauer family.

T[h] is the (ell+1) x (ell+1) symmetric matrix of weighted integrals of
p_i(t) p_j(t) h(t) against the normalized ultraspherical measure, where
p_i = C_i / sqrt(C_i(1)) is the orthonormal family.  Entries vanish for
|i - j| > deg(h) by orthogonality, and T[t] is the tridiagonal Jacobi matrix
whose eigenvalues are the roots of C_{ell+1}.  An entry does not depend on
ell, so T[h] on the degree-ell window is the leading (ell+1) block of T[h]
on any larger window, up to the rounding of the two quadratures; rho serves
each rate cell as such a block of one build per power-of-two window.

Entries that vanish by degree or parity are stored as exact zeros: those
outside the band |i - j| <= deg(h); those with i + j of the wrong parity
when every nonzero coefficient of h has the same parity (the integrand
p_i p_j h is then odd, e.g. the diagonal of T[t]); and, for a multiplier
given in the Gegenbauer basis whose lowest nonzero coefficient is that of
C_k, those with i + j < k, since p_i p_j has degree i + j and is orthogonal
to C_k.  In particular T[C_{2k}] is the zero matrix for ell < k, so a sign
test on its quadratic forms, or a banded solver, reads the structure rather
than the rounding of the quadrature.

build also takes a stack of multipliers, which share one Gauss rule and
one table of orthonormal values.

Every top eigenpair comes from one banded solver, top_eigenpair on the
upper_band storage; lambda_max applies it to T[h] with the band of deg(h).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eig_banded

from .gegenbauer import GegenbauerBasis


@dataclass
class ToeplitzOp:
    """Dense symmetric storage of T[h] with its multiplier descriptor."""

    d: int
    size: int
    h_descriptor: tuple
    bandwidth: int
    matrix: np.ndarray = field(repr=False)


def _trim(coeffs) -> np.ndarray:
    coeffs = np.atleast_1d(np.asarray(coeffs, dtype=float))
    nz = np.nonzero(coeffs)[0]
    return coeffs[: nz[-1] + 1] if nz.size else coeffs[:1]


def build(basis: GegenbauerBasis, ell: int, h,
          kind: str = "monomial") -> ToeplitzOp | list[ToeplitzOp]:
    """Assemble T[h] for the multiplier h on the degree-(ell) window.

    h is a coefficient array: of powers of t when kind == "monomial", or of
    C_k/C_k(1) when kind == "gegenbauer".  The quadrature is exact for the
    integrand degree i + j + deg(h).  Entries outside the band, entries of
    the wrong parity for a multiplier of one parity and, for kind ==
    "gegenbauer", entries with i + j below the lowest nonzero harmonic index
    are set to exact 0.0.

    A 2-D h holds one multiplier per row (as polyval takes coefficient
    columns) and gives a list of ToeplitzOps: the rows share one rule, exact
    for the highest row degree, and one orthonormal_values table, whose low
    rows give the Gegenbauer multiplier values; each row keeps its own band
    and zeros.  A 1-D h is the one-row case and gives one ToeplitzOp.
    """
    if kind not in ("monomial", "gegenbauer"):
        raise ValueError(f"unknown multiplier kind {kind!r}")
    if ell < 0:
        raise ValueError("ell must be >= 0")
    H = np.atleast_2d(np.asarray(h, dtype=float))
    rows = [_trim(r) for r in H]
    deg_h = max(len(r) for r in rows) - 1
    H = H[:, : deg_h + 1]
    if ell + deg_h > basis.max_degree:
        raise ValueError(
            f"ell + deg(h) = {ell + deg_h} exceeds basis max_degree {basis.max_degree}"
        )
    node_count = math.ceil((2 * ell + deg_h + 1) / 2) + 2
    nodes, weights = basis.gauss_rule(node_count)
    V = basis.orthonormal_values(nodes, max(ell, deg_h) if kind == "gegenbauer" else ell)
    if kind == "monomial":
        hv = np.polynomial.polynomial.polyval(nodes, H.T)
    else:
        hv = np.dot(H / np.sqrt(basis.endpoint_values[: deg_h + 1]), V[: deg_h + 1])
    P = V[: ell + 1]
    ops = []
    for coeffs, values in zip(rows, hv):
        deg = len(coeffs) - 1
        M = (P * (weights * values)) @ P.T
        upper = np.tril(np.triu(M), deg)
        nz = np.flatnonzero(coeffs)
        if nz.size and np.all(nz % 2 == nz[0] % 2):
            # p_i p_j h is odd, so integrates to zero, when i + j has parity q.
            q = 1 - nz[0] % 2
            upper[0::2, q::2] = 0.0
            upper[1::2, 1 - q::2] = 0.0
        M = upper + np.triu(upper, 1).T
        if kind == "gegenbauer":
            lowest = int(nz[0]) if nz.size else 0
            for i in range(min(lowest, ell + 1)):
                M[i, : lowest - i] = 0.0
        ops.append(ToeplitzOp(
            d=basis.d, size=ell + 1, h_descriptor=(kind, tuple(coeffs)), bandwidth=deg, matrix=M
        ))
    return ops[0] if np.ndim(h) < 2 else ops


def build_single_gegenbauer(basis: GegenbauerBasis, ell: int, k: int) -> ToeplitzOp:
    """T[C_k / C_k(1)], the multiplier that isolates one harmonic order."""
    coeffs = np.zeros(k + 1)
    coeffs[k] = 1.0
    return build(basis, ell, coeffs, kind="gegenbauer")


def upper_band(M: np.ndarray, w: int) -> np.ndarray:
    """LAPACK upper band storage of a symmetric M of bandwidth w: row w - k
    holds the k-th superdiagonal."""
    band = np.zeros((w + 1, len(M)))
    for k in range(w + 1):
        band[w - k, k:] = np.diagonal(M, k)
    return band


def top_eigenpair(band: np.ndarray) -> tuple[float, np.ndarray]:
    """Largest eigenvalue and a unit eigenvector of a matrix in upper band
    storage; only that pair is computed."""
    top = band.shape[1] - 1
    w, v = eig_banded(band, select="i", select_range=(top, top), check_finite=False)
    return float(w[0]), v[:, 0]


def canonical_sign(v: np.ndarray) -> np.ndarray:
    """v or -v, whichever has its largest-magnitude entry positive."""
    return -v if v[int(np.argmax(np.abs(v)))] < 0 else v


def lambda_max(op: ToeplitzOp) -> tuple[float, np.ndarray]:
    """Largest eigenvalue and unit eigenvector of T[h], solved from its band
    of width deg(h).

    The eigenvector sign is fixed by making its largest-magnitude entry
    positive; the residual |T v - lam v| is checked against
    1e-10 max(|lam|, 1).
    """
    lam, vec = top_eigenpair(upper_band(op.matrix, op.bandwidth))
    vec = canonical_sign(vec)
    resid = float(np.linalg.norm(op.matrix @ vec - lam * vec))
    if resid > 1e-10 * max(abs(lam), 1.0):  # pragma: no cover
        raise RuntimeError(f"eigensolver residual {resid:.3e} too large")
    return lam, vec


def gegenbauer_roots(basis: GegenbauerBasis, m: int) -> np.ndarray:
    """All m roots of C_m, ascending: the nodes of the m-point Gauss rule,
    which are the eigenvalues of the m x m Jacobi matrix.  The array is the
    rule's cached, read-only one, shared with every caller; copy it to edit."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return basis.gauss_rule(m)[0]
