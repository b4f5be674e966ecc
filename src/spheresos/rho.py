"""Convergence-rate quantities for the kernel optimization.

rho2 and rho4 are the exact quantities for quadratic and quartic inputs;
rho_tilde is the linearized proxy that is available for every half-degree n,
and rho_from_tilde converts it back into a bound on the exact quantity.
A KernelSpec packages the optimizing coefficient vector e of
q(t) = sum_i e_i C_i(t)/sqrt(C_i(1)) together with the induced eigenvalues
lambda_{2k} of the squared kernel and the slack delta it certifies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

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


@dataclass
class KernelSpec:
    """Optimized kernel coefficients and the certificate quantities they induce.

    e has unit norm so that lambda_0 = 1; lambdas holds lambda_{2k} for
    k = 1..n; rho_value = sum |1/lambda_{2k} - 1| and delta = (B_{2n}/2) rho.
    """

    d: int
    ell: int
    n: int
    e: np.ndarray = field(repr=False)
    lambdas: np.ndarray = field(repr=False)
    rho_value: float = 0.0
    delta: float = 0.0
    skipped_directions: int = 0


def _canonical_sign(e: np.ndarray) -> np.ndarray:
    pivot = int(np.argmax(np.abs(e)))
    return -e if e[pivot] < 0 else e


def kernel_lambdas(basis: GegenbauerBasis, ell: int, n: int, e: np.ndarray) -> np.ndarray:
    """lambda_{2k} = e^T T[C_{2k}/C_{2k}(1)] e for k = 1..n, with e taken as
    given (a unit e makes lambda_0 = 1)."""
    lambdas = np.empty(n)
    for k in range(1, n + 1):
        T = toeplitz.build_single_gegenbauer(basis, ell, 2 * k)
        lambdas[k - 1] = float(e @ T.matrix @ e)
    return lambdas


def kernel_spec_from_e(
    basis: GegenbauerBasis, d: int, ell: int, n: int, e: np.ndarray
) -> KernelSpec:
    """Build a KernelSpec from a coefficient vector, normalized to unit
    length, with each lambda_{2k} recomputed by kernel_lambdas.

    A non-positive eigenvalue (the kernel cannot reach that harmonic order,
    e.g. ell < n) yields rho_value = inf; certificate construction guards
    against such specs."""
    e = np.asarray(e, dtype=float)
    e = _canonical_sign(e / np.linalg.norm(e))
    lambdas = kernel_lambdas(basis, ell, n, e)
    if np.any(lambdas <= 0):
        rho_value = math.inf
    else:
        rho_value = float(np.sum(np.abs(1.0 / lambdas - 1.0)))
    return KernelSpec(
        d=d, ell=ell, n=n, e=e, lambdas=lambdas,
        rho_value=rho_value, delta=0.5 * b_constant(n) * rho_value,
    )


@lru_cache(maxsize=256)
def _cached_basis(d: int, max_degree: int) -> GegenbauerBasis:
    return GegenbauerBasis(d, max_degree)


def rho2(d: int, ell: int) -> tuple[float, KernelSpec]:
    """Exact rate quantity for quadratic inputs: 1/|T[C_2/C_2(1)]| - 1."""
    if ell < 1:
        raise ValueError("ell must be >= 1")
    basis = _cached_basis(d, ell + 2)
    T = toeplitz.build_single_gegenbauer(basis, ell, 2)
    lam, vec = toeplitz.lambda_max(T)
    if lam <= 0:
        raise DegenerateKernelError("degenerate multiplier: lambda_max <= 0")
    spec = kernel_spec_from_e(basis, d, ell, 1, vec)
    return 1.0 / lam - 1.0, spec


def rho_tilde(d: int, ell: int, n: int) -> tuple[float, KernelSpec]:
    """Linearized proxy n - n lambda_max(T[h]) with h the average of the
    C_{2k}/C_{2k}(1), k = 1..n; always in [0, n]."""
    if n < 1 or ell < 1:
        raise ValueError("need n >= 1 and ell >= 1")
    basis = _cached_basis(d, ell + 2 * n)
    coeffs = np.zeros(2 * n + 1)
    coeffs[2 : 2 * n + 1 : 2] = 1.0 / n
    T = toeplitz.build(basis, ell, coeffs, kind="gegenbauer")
    lam, vec = toeplitz.lambda_max(T)
    spec = kernel_spec_from_e(basis, d, ell, n, vec)
    return n - n * lam, spec


def rho_from_tilde(tilde: float) -> float:
    """Bound on the exact quantity: tilde/(1 - tilde), valid for tilde < 1."""
    if not 0.0 <= tilde < 1.0:
        raise ValueError(f"bound vacuous: rho_tilde = {tilde} not in [0, 1)")
    return tilde / (1.0 - tilde)


def _rho4_objective(a: float, b: float) -> float:
    return abs(1.0 / a - 1.0) + abs(1.0 / b - 1.0)


def rho4(d: int, ell: int, theta_grid: int = 48) -> tuple[float, KernelSpec]:
    """Exact quartic rate quantity by a sweep of the joint numerical range.

    The objective |1/a - 1| + |1/b - 1| is coordinate-wise decreasing on
    (0, 1]^2 and the joint numerical range of (T[C_2/C_2(1)], T[C_4/C_4(1)])
    is convex, so the minimum lies on the north-east boundary, traced by the
    top eigenvectors of cos(theta) A + sin(theta) B for theta in [0, pi/2].
    The best grid direction is refined by golden section to width 1e-8.
    Directions whose (a, b) leave the positive quadrant are skipped.
    """
    if theta_grid < 8:
        raise ValueError("theta_grid must be >= 8")
    if ell < 1:
        raise ValueError("ell must be >= 1")
    basis = _cached_basis(d, ell + 4)
    A = toeplitz.build_single_gegenbauer(basis, ell, 2).matrix
    B = toeplitz.build_single_gegenbauer(basis, ell, 4).matrix

    skipped = 0

    def eval_theta(theta: float):
        nonlocal skipped
        M = math.cos(theta) * A + math.sin(theta) * B
        w, V = np.linalg.eigh(M)
        u = V[:, -1]
        a = float(u @ A @ u)
        b = float(u @ B @ u)
        if a <= 0 or b <= 0:
            skipped += 1
            return math.inf, u
        return _rho4_objective(a, b), u

    thetas = np.linspace(0.0, math.pi / 2, theta_grid)
    results = [eval_theta(t) for t in thetas]
    best_idx = int(np.argmin([r[0] for r in results]))
    best_val, best_u = results[best_idx]

    lo = thetas[max(best_idx - 1, 0)]
    hi = thetas[min(best_idx + 1, theta_grid - 1)]
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - invphi * (hi - lo)
    x2 = lo + invphi * (hi - lo)
    f1, u1 = eval_theta(x1)
    f2, u2 = eval_theta(x2)
    while hi - lo > 1e-8:
        if f1 <= f2:
            hi, x2, f2, u2 = x2, x1, f1, u1
            x1 = hi - invphi * (hi - lo)
            f1, u1 = eval_theta(x1)
        else:
            lo, x1, f1, u1 = x1, x2, f2, u2
            x2 = lo + invphi * (hi - lo)
            f2, u2 = eval_theta(x2)
    for f, u in ((f1, u1), (f2, u2)):
        if f < best_val:
            best_val, best_u = f, u

    if not math.isfinite(best_val):
        raise DegenerateKernelError("no direction with positive (lambda_2, lambda_4)")
    spec = kernel_spec_from_e(basis, d, ell, 2, best_u)
    spec.skipped_directions = skipped
    return best_val, spec


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
        tilde, _ = rho_tilde(d, ell, n)
        row["rho_tilde"] = tilde
        direct = None
        if n == 1:
            direct, _ = rho2(d, ell)
            row["rho2"] = direct
        elif n == 2:
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
