"""Convergence-rate quantities for the kernel optimization.

rho2 and rho4 are the exact quantities for quadratic and quartic inputs:
rho2 is rho_tilde's n = 1 case, and rho4 solves its optimality condition on
the boundary of a joint numerical range by bisection over one angle.
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
    g(theta) = theta - atan2(a^2, b^2), found by bisection to width 1e-10.
    A direction with b <= 0 (a <= 0) is counted as skipped and moves the
    search toward B (A).
    """
    if ell < 1:
        raise ValueError("ell must be >= 1")
    basis = _cached_basis(d, ell + 4)
    A = toeplitz.build_single_gegenbauer(basis, ell, 2).matrix
    B = toeplitz.build_single_gegenbauer(basis, ell, 4).matrix
    skipped = 0

    def g(theta: float) -> tuple[float, np.ndarray]:
        nonlocal skipped
        u = np.linalg.eigh(math.cos(theta) * A + math.sin(theta) * B)[1][:, -1]
        a, b = float(u @ A @ u), float(u @ B @ u)
        if b <= 0 or a <= 0:
            skipped += 1
            return (-math.pi if b <= 0 else math.pi), u
        return theta - math.atan2(a * a, b * b), u

    lo, hi = 0.0, math.pi / 2
    g_lo, u = g(lo)
    if g_lo < 0:
        g_hi, u = g(hi)
        if g_hi > 0:
            while hi - lo > 1e-10:
                mid = 0.5 * (lo + hi)
                if g(mid)[0] < 0:
                    lo = mid
                else:
                    hi = mid
            _, u = g(0.5 * (lo + hi))

    spec = kernel_spec_from_e(basis, d, ell, 2, u)
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
