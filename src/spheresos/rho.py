"""Convergence-rate quantities for the kernel optimization.

rho2 and rho4 are the exact quantities for quadratic and quartic inputs:
rho2 is rho_tilde's n = 1 case, and rho4 solves its optimality condition on
the boundary of a joint numerical range by an Illinois (modified regula
falsi) root search over one angle, with one top-eigenpair solve per probe
by toeplitz's banded solver.
rho_tilde is the linearized proxy that is available for every half-degree n,
and rho_from_tilde converts it back into a bound on the exact quantity.
A KernelSpec packages the optimizing coefficient vector e of
q(t) = sum_i e_i C_i(t)/sqrt(C_i(1)) together with the induced eigenvalues
lambda_{2k} of the squared kernel and the slack delta it certifies.
kernel_for picks the solver for each n (the one kernel a certificate uses),
and slack is the one formula from eigenvalues to (rho, delta).
The entries of T[C_2k/C_2k(1)] do not depend on the window ell, so the
family T[C_2], ..., T[C_2n] is built once, in one toeplitz.build call on one
quadrature, per canonical window: the smallest power of two >= ell.  Each
rate cell (d, ell, n) is the read-only leading (ell+1) block of its
window's family, shared by the solvers and kernel_lambdas.  The window
depends only on ell, so a cell, and the kernel e a certificate embeds, has
the same bits whatever else the process computed.  The family cache holds
four windows, enough for one rho-table call, which walks its windows in
ascending order.
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

# rho4 stops its root search once |g(theta)| is this small: rounding level
# for an angle in [0, pi/2].
_G_TOL = 4 * np.finfo(float).eps

# rho4 counts a probe as skipped when a quadratic form (a or b) of its unit
# vector is at most this.  The matrices have spectral norm <= 1, so the forms
# lie in [-1, 1].  A form that is 0 in exact arithmetic (d = 2, even ell, at
# theta = pi/2) comes out with either sign, with |form| up to 2.4e-8 at
# ell = 254; every other probe form over d = 2..10, ell = 2..80 is above
# 1e-2.  A form below the threshold would give 1/a + 1/b - 2 > 1e6, and it
# moves the search the same way whether or not it is counted.
_FORM_TOL = 1e-6


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


def kernel_lambdas(d: int, ell: int, n: int, e: np.ndarray) -> np.ndarray:
    """lambda_{2k} = e^T T[C_{2k}/C_{2k}(1)] e for k = 1..n, with e taken as
    given (a unit e makes lambda_0 = 1)."""
    family = _cell(d, ell, n) if n else ()
    return np.array([float(e @ op.matrix @ e) for op in family])


def slack(n: int, lambdas: np.ndarray) -> tuple[float, float]:
    """(rho, delta) of a kernel with eigenvalues lambda_{2k}, k = 1..n:
    rho = sum |1/lambda_{2k} - 1|, inf when some lambda_{2k} <= 0, and
    delta = (B_{2n}/2) rho; a constant (n = 0) needs neither."""
    if n == 0:
        return 0.0, 0.0
    if np.any(lambdas <= 0):
        return math.inf, math.inf
    rho_value = float(np.sum(np.abs(1.0 / lambdas - 1.0)))
    return rho_value, 0.5 * b_constant(n) * rho_value


def kernel_spec_from_e(d: int, ell: int, n: int, e: np.ndarray) -> KernelSpec:
    """Build a KernelSpec from a coefficient vector, normalized to unit
    length, with each lambda_{2k} recomputed by kernel_lambdas.

    A non-positive eigenvalue (the kernel cannot reach that harmonic order,
    e.g. ell < n) yields rho_value = inf; certificate construction guards
    against such specs."""
    e = np.asarray(e, dtype=float)
    e = toeplitz.canonical_sign(e / np.linalg.norm(e))
    lambdas = kernel_lambdas(d, ell, n, e)
    rho_value, delta = slack(n, lambdas)
    return KernelSpec(
        d=d, ell=ell, n=n, e=e, lambdas=lambdas, rho_value=rho_value, delta=delta,
    )


def _pow2(m: int) -> int:
    """The smallest power of two >= m (1 for m <= 1)."""
    return 1 << max(m - 1, 0).bit_length()


def _cached_basis(d: int, max_degree: int) -> GegenbauerBasis:
    # Rounded up to a power of two so that a sweep over ell reuses a few
    # bases; per-index data do not depend on max_degree.
    return _basis(d, _pow2(max_degree))


@lru_cache(maxsize=256)
def _basis(d: int, max_degree: int) -> GegenbauerBasis:
    return GegenbauerBasis(d, max_degree)


@lru_cache(maxsize=4)
def _family(d: int, window: int, n: int) -> tuple:
    """The family T[C_{2k}/C_{2k}(1)], k = 1..n, on a power-of-two window,
    built by one toeplitz.build call; read-only, since every cell of the
    window shares it.  A process that reads more families than the four
    entries hold misses and rebuilds them: a certify_qsep bench cycle reads
    ten (d, window, n) families and misses 8 of its 28 lookups."""
    H = np.zeros((n, 2 * n + 1))
    H[np.arange(n), np.arange(2, 2 * n + 1, 2)] = 1.0
    family = toeplitz.build(_cached_basis(d, window + 2 * n), window, H, kind="gegenbauer")
    for op in family:
        op.matrix.flags.writeable = False
    return tuple(family)


def _cell(d: int, ell: int, n: int) -> tuple:
    """The family T[C_{2k}/C_{2k}(1)], k = 1..n, on the degree-ell window:
    the read-only leading (ell+1) blocks of the family on the smallest power
    of two >= ell, where the structural zeros, set by index, stay exact.
    rho_tilde, rho4 and kernel_lambdas of one (d, ell, n) all read it."""
    m = ell + 1
    return tuple(
        toeplitz.ToeplitzOp(op.d, m, op.h_descriptor, op.bandwidth, op.matrix[:m, :m])
        for op in _family(d, _pow2(ell), n)
    )


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
    # T is linear in h, so T[h] is the mean of the cell's family
    family = _cell(d, ell, n)
    mean = toeplitz.ToeplitzOp(d, ell + 1, ("gegenbauer", (0.0,) + (0.0, 1.0 / n) * n),
                               2 * n, np.mean([op.matrix for op in family], axis=0))
    lam, vec = toeplitz.lambda_max(mean)
    spec = kernel_spec_from_e(d, ell, n, vec)
    spec.tilde = n - n * lam
    return spec.tilde, spec


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
    g(theta) = theta - atan2(a^2, b^2).  An Illinois (modified regula falsi)
    search brackets it until |g| reaches rounding level or the bracket is
    1e-10 wide; each probe solves only the top eigenpair of the banded
    matrix, and the kernel is the probe with the smallest |g|.
    A direction with b <= _FORM_TOL (a <= _FORM_TOL) is counted as skipped
    and moves the search toward B (A), so the count does not depend on the
    sign of a form that is zero up to rounding.
    """
    if ell < 1:
        raise ValueError("ell must be >= 1")
    A_op, B_op = _cell(d, ell, 2)
    A, B = A_op.matrix, B_op.matrix
    w = B_op.bandwidth  # T[C_4]'s band holds T[C_2]'s
    A_band, B_band = toeplitz.upper_band(A, w), toeplitz.upper_band(B, w)
    skipped = 0
    best = (math.inf, None)

    def g(theta: float) -> float:
        nonlocal skipped, best
        _, u = toeplitz.top_eigenpair(math.cos(theta) * A_band + math.sin(theta) * B_band)
        a, b = float(u @ A @ u), float(u @ B @ u)
        if b <= _FORM_TOL or a <= _FORM_TOL:
            skipped += 1
            value = -math.pi if b <= _FORM_TOL else math.pi
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


@lru_cache(maxsize=512)
def kernel_for(d: int, ell: int, n: int) -> KernelSpec:
    """The kernel a certificate of half-degree n uses: the constant q = 1 for
    n = 0, the exact optimizer for n in {1, 2} (rho2, rho4), the rho_tilde
    optimizer otherwise (its e is feasible and certified through
    rho_from_tilde).  Cached: the kernel depends only on (d, ell, n), not on
    the instance."""
    if n == 0:
        return KernelSpec(d=d, ell=ell, n=0, e=np.eye(1, ell + 1)[0], lambdas=np.zeros(0))
    if n == 1:
        _, spec = rho2(d, ell)
    elif n == 2:
        _, spec = rho4(d, ell)
    else:
        _, spec = rho_tilde(d, ell, n)
    return spec


def rate_table(d_list, ell_list, n_list) -> list[dict]:
    """One row per (d, ell, n) combination, sorted canonically, computed
    serially.

    rho2 / rho4 are filled for n = 1 / n = 2; rho_bound is the best certified
    value available (direct quantity or rho_from_tilde of the proxy).
    kernel is the KernelSpec kernel_for(d, ell, n) returns, taken from the
    solve that filled the row (None when rho4 is inf)."""
    rows = []
    for d, ell, n in sorted((d, ell, n) for d in d_list for ell in ell_list for n in n_list):
        row = {"d": d, "ell": ell, "n": n, "rho2": None, "rho4": None}
        direct = None
        if n == 1:
            # rho2 is rho_tilde's n = 1 case: one solve fills both columns
            direct, spec = rho2(d, ell)
            tilde = spec.tilde
            row["rho2"] = direct
        else:
            tilde, spec = rho_tilde(d, ell, n)
        row["rho_tilde"] = tilde
        if n == 2:
            try:
                direct, spec = rho4(d, ell)
            except DegenerateKernelError:
                # ell too small to reach the 4th harmonic: the exact
                # quantity is infinite
                direct, spec = math.inf, None
            row["rho4"] = direct
        row["kernel"] = spec
        candidates = [] if direct is None else [direct]
        if tilde < 1.0:
            candidates.append(rho_from_tilde(tilde))
        row["rho_bound"] = min(candidates) if candidates else None
        rows.append(row)
    return rows
