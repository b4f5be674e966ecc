"""Convergence-rate quantities for the kernel optimization.

rho2 and rho4 are the exact quantities for quadratic and quartic inputs:
rho2 is rho_tilde's n = 1 case, and rho4 solves its optimality condition on
the boundary of a joint numerical range by an Illinois (modified regula
falsi) root search over one angle, with one banded top-eigenpair solve per
probe.
rho_tilde is the linearized proxy that is available for every half-degree n,
and rho_from_tilde converts it back into a bound on the exact quantity.
A KernelSpec packages the optimizing coefficient vector e of
q(t) = sum_i e_i C_i(t)/sqrt(C_i(1)) together with the induced eigenvalues
lambda_{2k} of the squared kernel and the slack delta it certifies.
Each Toeplitz matrix is built once per (d, ell, multiplier) and shared
read-only by the solvers and kernel_lambdas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.linalg import eig_banded

from .gegenbauer import GegenbauerBasis
from .harmonic import b_constant
from . import toeplitz


class DegenerateKernelError(ValueError):
    """Raised when a kernel direction yields a non-positive eigenvalue."""


# Measured rate constants: rho_{2n}(d, l) * (l/d)^2 stays below
# RATE_CONSTANTS[n] for l >= RATE_LEVEL_MULTIPLIER * n * d.  The constant
# is largest at d = 3 and grows toward an asymptote as l/d increases;
# observed ceilings ~0.94 (n = 1, l/d up to 64) and ~4.06 (n = 2).  The
# theory guarantees only that constants of this shape exist; these are the
# ones this code actually achieves.
RATE_CONSTANTS = {1: 1.0, 2: 4.5}
RATE_LEVEL_MULTIPLIER = 2

# rho4 stops its root search once |g(theta)| is this small: rounding level
# for an angle in [0, pi/2].
_G_TOL = 4 * np.finfo(float).eps


@dataclass
class KernelSpec:
    """Optimized kernel coefficients and the certificate quantities they induce.

    e has unit norm so that lambda_0 = 1; lambdas holds lambda_{2k} for
    k = 1..n; rho_value = sum |1/lambda_{2k} - 1| and delta = (B_{2n}/2) rho.
    tilde is the proxy value when rho_tilde produced the spec (None
    otherwise), so that rho2's callers get both from one solve.
    """

    d: int
    ell: int
    n: int
    e: np.ndarray = field(repr=False)
    lambdas: np.ndarray = field(repr=False)
    rho_value: float = 0.0
    delta: float = 0.0
    skipped_directions: int = 0
    tilde: float | None = None


def _canonical_sign(e: np.ndarray) -> np.ndarray:
    pivot = int(np.argmax(np.abs(e)))
    return -e if e[pivot] < 0 else e


def kernel_lambdas(d: int, ell: int, n: int, e: np.ndarray) -> np.ndarray:
    """lambda_{2k} = e^T T[C_{2k}/C_{2k}(1)] e for k = 1..n, with e taken as
    given (a unit e makes lambda_0 = 1)."""
    lambdas = np.empty(n)
    for k in range(1, n + 1):
        T = _gegenbauer_toeplitz(d, ell, _harmonic(2 * k)).matrix
        lambdas[k - 1] = float(e @ T @ e)
    return lambdas


def kernel_spec_from_e(d: int, ell: int, n: int, e: np.ndarray) -> KernelSpec:
    """Build a KernelSpec from a coefficient vector, normalized to unit
    length, with each lambda_{2k} recomputed by kernel_lambdas.

    A non-positive eigenvalue (the kernel cannot reach that harmonic order,
    e.g. ell < n) yields rho_value = inf; certificate construction guards
    against such specs."""
    e = np.asarray(e, dtype=float)
    e = _canonical_sign(e / np.linalg.norm(e))
    lambdas = kernel_lambdas(d, ell, n, e)
    if np.any(lambdas <= 0):
        rho_value = math.inf
    else:
        rho_value = float(np.sum(np.abs(1.0 / lambdas - 1.0)))
    return KernelSpec(
        d=d, ell=ell, n=n, e=e, lambdas=lambdas,
        rho_value=rho_value, delta=0.5 * b_constant(n) * rho_value,
    )


def _cached_basis(d: int, max_degree: int) -> GegenbauerBasis:
    # Rounded up to a power of two so that a sweep over ell reuses a few
    # bases; per-index data do not depend on max_degree.
    return _basis(d, 1 << max(max_degree - 1, 0).bit_length())


@lru_cache(maxsize=256)
def _basis(d: int, max_degree: int) -> GegenbauerBasis:
    return GegenbauerBasis(d, max_degree)


def _harmonic(k: int) -> tuple:
    """Gegenbauer coefficients of the multiplier C_k/C_k(1)."""
    return (0.0,) * k + (1.0,)


@lru_cache(maxsize=4)
def _gegenbauer_toeplitz(d: int, ell: int, h: tuple) -> toeplitz.ToeplitzOp:
    """T[sum_k h_k C_k/C_k(1)] on the degree-ell window, built once and shared.

    The matrix depends on the basis only through d, so any max_degree gives
    the same bits; it is read-only because every caller shares it.  Four
    entries hold one rate cell: rho_tilde's multiplier (C_2 itself for
    n = 1) and T[C_{2k}] for k = 1..n, n <= 3."""
    op = toeplitz.build(_cached_basis(d, ell + len(h) - 1), ell, h, kind="gegenbauer")
    op.matrix.flags.writeable = False
    return op


def rho2(d: int, ell: int) -> tuple[float, KernelSpec]:
    """Exact rate quantity for quadratic inputs: 1/lambda_max(T[C_2/C_2(1)]) - 1.

    For n = 1 rho_tilde's multiplier is C_2/C_2(1) itself, so its kernel is
    the exact optimizer and tilde = 1 - lambda_max."""
    tilde, spec = rho_tilde(d, ell, 1)
    if tilde >= 1.0:
        raise DegenerateKernelError("degenerate multiplier: lambda_max <= 0")
    return 1.0 / (1.0 - tilde) - 1.0, spec


def rho_tilde(d: int, ell: int, n: int) -> tuple[float, KernelSpec]:
    """Linearized proxy n - n lambda_max(T[h]) with h the average of the
    C_{2k}/C_{2k}(1), k = 1..n; always in [0, n]."""
    if n < 1 or ell < 1:
        raise ValueError("need n >= 1 and ell >= 1")
    coeffs = np.zeros(2 * n + 1)
    coeffs[2 : 2 * n + 1 : 2] = 1.0 / n
    lam, vec = toeplitz.lambda_max(_gegenbauer_toeplitz(d, ell, tuple(coeffs.tolist())))
    spec = kernel_spec_from_e(d, ell, n, vec)
    spec.tilde = n - n * lam
    return spec.tilde, spec


def rho_from_tilde(tilde: float) -> float:
    """Bound on the exact quantity: tilde/(1 - tilde), valid for tilde < 1."""
    if not 0.0 <= tilde < 1.0:
        raise ValueError(f"bound vacuous: rho_tilde = {tilde} not in [0, 1)")
    return tilde / (1.0 - tilde)


def _upper_band(M: np.ndarray, w: int) -> np.ndarray:
    """LAPACK upper band storage of a symmetric M of bandwidth w: row w - k
    holds the k-th superdiagonal."""
    band = np.zeros((w + 1, len(M)))
    for k in range(w + 1):
        band[w - k, k:] = np.diagonal(M, k)
    return band


def _top_eigenpair(band: np.ndarray) -> tuple[float, np.ndarray]:
    """Largest eigenvalue and a unit eigenvector of a matrix in upper band
    storage; only that pair is computed."""
    top = band.shape[1] - 1
    w, v = eig_banded(band, select="i", select_range=(top, top), check_finite=False)
    return float(w[0]), v[:, 0]


def rho4(d: int, ell: int) -> tuple[float, KernelSpec]:
    """Exact quartic rate quantity from its optimality condition.

    With A = T[C_2/C_2(1)], B = T[C_4/C_4(1)] and (a, b) = (e^T A e, e^T B e),
    the objective 1/a + 1/b - 2 decreases in both coordinates on (0, 1]^2
    and the joint numerical range of (A, B) is convex, so the minimum lies on
    the range's north-east boundary.  The top eigenvector u(theta) of
    cos(theta) A + sin(theta) B traces that boundary for theta in [0, pi/2],
    with a never rising and b never falling.  The minimum is where the
    descent direction (1/a^2, 1/b^2) is parallel to the normal
    (cos(theta), sin(theta)): the root of the increasing function
    g(theta) = theta - atan2(a^2, b^2).  An Illinois (modified regula falsi)
    search brackets it until |g| reaches rounding level or the bracket is
    1e-10 wide; each probe solves only the top eigenpair of the band-4
    matrix, and the kernel is the probe with the smallest |g|.
    A direction with b <= 0 (a <= 0) is counted as skipped and moves the
    search toward B (A).
    """
    if ell < 1:
        raise ValueError("ell must be >= 1")
    A = _gegenbauer_toeplitz(d, ell, _harmonic(2)).matrix
    B = _gegenbauer_toeplitz(d, ell, _harmonic(4)).matrix
    A_band, B_band = _upper_band(A, 4), _upper_band(B, 4)
    skipped = 0
    best = (math.inf, None)

    def g(theta: float) -> float:
        nonlocal skipped, best
        _, u = _top_eigenpair(math.cos(theta) * A_band + math.sin(theta) * B_band)
        a, b = float(u @ A @ u), float(u @ B @ u)
        if b <= 0 or a <= 0:
            skipped += 1
            value = -math.pi if b <= 0 else math.pi
        else:
            value = theta - math.atan2(a * a, b * b)
        if abs(value) <= best[0]:
            best = (abs(value), u)
        return value

    lo, hi = 0.0, math.pi / 2
    g_lo = g(lo)
    if g_lo < 0:
        g_hi = g(hi)
        side = 0
        while g_hi > 0 and hi - lo > 1e-10 and best[0] > _G_TOL:
            theta = (lo * g_hi - hi * g_lo) / (g_hi - g_lo)
            if not lo < theta < hi:
                theta = 0.5 * (lo + hi)
            g_mid = g(theta)
            # Illinois: halve the value kept at an end that stays put twice.
            if g_mid < 0:
                lo, g_lo = theta, g_mid
                if side < 0:
                    g_hi *= 0.5
                side = -1
            else:
                hi, g_hi = theta, g_mid
                if side > 0:
                    g_lo *= 0.5
                side = 1

    spec = kernel_spec_from_e(d, ell, 2, best[1])
    spec.skipped_directions = skipped
    if not math.isfinite(spec.rho_value):
        raise DegenerateKernelError("no direction with positive (lambda_2, lambda_4)")
    return spec.rho_value, spec


def rate_table(d_list, ell_list, n_list, jobs: int | None = None) -> list[dict]:
    """One row per (d, ell, n) combination, sorted canonically.

    rho2 / rho4 are filled for n = 1 / n = 2; rho_bound is the best certified
    value available (direct quantity or rho_from_tilde of the proxy).  Cells
    are computed serially; jobs is accepted for compatibility and ignored
    (a thread pool measured slower than serial)."""
    cells = sorted(
        (d, ell, n) for d in d_list for ell in ell_list for n in n_list
    )

    def compute(cell):
        d, ell, n = cell
        row = {"d": d, "ell": ell, "n": n, "rho2": None, "rho4": None}
        direct = None
        if n == 1:
            # rho2 is rho_tilde's n = 1 case: one solve fills both columns
            direct, spec = rho2(d, ell)
            tilde = spec.tilde
            row["rho2"] = direct
        else:
            tilde, _ = rho_tilde(d, ell, n)
        row["rho_tilde"] = tilde
        if n == 2:
            try:
                direct, _ = rho4(d, ell)
            except DegenerateKernelError:
                # ell too small to reach the 4th harmonic: the exact
                # quantity is infinite
                direct = math.inf
            row["rho4"] = direct
        candidates = [] if direct is None else [direct]
        if tilde < 1.0:
            candidates.append(rho_from_tilde(tilde))
        row["rho_bound"] = min(candidates) if candidates else None
        return row

    return [compute(cell) for cell in cells]
