"""Kernel-based L-SOS certificates for polynomials on the sphere.

A certificate for a normalized input 0 <= G <= 1 (in the matrix case,
0 <= G(x) <= I in the semidefinite order) consists of an optimized kernel
q(t)^2 with Gegenbauer eigenvalues lambda_{2k}, a slack delta, and the
witness H obtained by dividing each harmonic part of G + delta by its
eigenvalue.  When the slack dominates (B_{2n}/2) sum |1/lambda_{2k} - 1| the
witness is pointwise nonnegative and G + delta agrees on the sphere with the
integral of q(<x, y>)^2 H(y), an L-SOS representation.  Validity is checked
algebraically through the diagonal (Funk-Hecke) action on harmonic
coefficients plus a multistart positivity search on the witness; the range
normalization of the original input is recorded so callers can undo it.

Construction and verification share one computation of the targets (the
harmonic parts of G + delta), and scalar and matrix inputs take the same
path: only the identity embedding |x|^{2n} (times I) depends on the type.
The kernel comes from rho.kernel_for and every (rho, delta) pair from
rho.slack, so construction, reloading and the margin check agree.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .gegenbauer import GegenbauerBasis
from .harmonic import HarmonicDecomp, decompose
from .poly import MatPoly, Poly, sup_norm_sphere
from .rho import DegenerateKernelError, KernelSpec, kernel_for, kernel_lambdas, slack


class KernelInversionError(ValueError):
    """The kernel has a non-positive eigenvalue on a needed harmonic order."""


@dataclass
class VerificationReport:
    passed: bool
    kernel_norm_error: float
    lambda_recompute_error: float
    funk_hecke_residual: float
    witness_min: float
    eq15_margin: float
    checks: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)
    # Witness positivity search: restarts run, and those that converged
    # rather than stopping at the iteration cap.
    witness_restarts: int = 0
    witness_restarts_converged: int = 0

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "kernel_norm_error": self.kernel_norm_error,
            "lambda_recompute_error": self.lambda_recompute_error,
            "funk_hecke_residual": self.funk_hecke_residual,
            "witness_min": self.witness_min,
            "eq15_margin": self.eq15_margin,
            "checks": self.checks,
            "notes": self.notes,
            "witness_search": {
                "restarts": self.witness_restarts,
                "converged": self.witness_restarts_converged,
            },
        }


@dataclass
class Certificate:
    """Kernel spec, slack, witness decomposition and verification report.

    H certifies the normalized polynomial G = (F - m) / (M - m); the
    normalization pair (m, M) is stored so statements about the original F
    can be recovered (F + delta*(M-m) is L-SOS-above-m, etc.)."""

    spec: KernelSpec
    delta: float
    normalization: tuple[float, float]
    H: HarmonicDecomp
    verification: VerificationReport | None = None

    @property
    def matrix(self) -> bool:
        return self.H.matrix

    def witness_polynomial(self):
        return self.H.reconstruct()

    def certified_upper_bound(self) -> float:
        """Upper bound on the original input implied by the certificate:
        m + (M - m) (1 + delta)."""
        m, M = self.normalization
        return m + (M - m) * (1.0 + self.delta)

    def to_dict(self) -> dict:
        out = {
            "spec": {
                "d": self.spec.d,
                "ell": self.spec.ell,
                "n": self.spec.n,
                "e": list(map(float, self.spec.e)),
                "lambdas": list(map(float, self.spec.lambdas)),
                "rho_value": self.spec.rho_value,
            },
            "delta": self.delta,
            "normalization": {"m": self.normalization[0], "M": self.normalization[1]},
            "H": self.H.to_dict(),
        }
        if self.verification is not None:
            out["verification"] = self.verification.to_dict()
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "Certificate":
        try:
            s = data["spec"]
            spec = KernelSpec(
                d=int(s["d"]), ell=int(s["ell"]), n=int(s["n"]),
                e=np.asarray(s["e"], dtype=float),
                lambdas=np.asarray(s["lambdas"], dtype=float),
            )
            spec.rho_value, spec.delta = slack(spec.n, spec.lambdas)
            norm = (float(data["normalization"]["m"]), float(data["normalization"]["M"]))
            H = HarmonicDecomp.from_dict(data["H"])
            return cls(spec=spec, delta=float(data["delta"]), normalization=norm, H=H)
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed certificate JSON: {exc}") from exc


def _identity_like(F, degree: int, value: float):
    # value * |x|^degree, times I when F is matrix-valued.
    if isinstance(F, MatPoly):
        return MatPoly.identity(F.d, F.k, degree, value)
    return Poly.constant(F.d, value).mul_norm_power(degree // 2)


def _targets(F, normalization: tuple[float, float], delta: float):
    """What a witness must reproduce: G = (F - m|x|^{2n}) / (M - m) (F itself
    at degree 0), its decomposition, and the harmonic parts of G + delta.

    A valid witness has lambda_{2k} H_{2k} equal to part k of G + delta."""
    m, M = normalization
    G = F if F.degree == 0 else (F - _identity_like(F, F.degree, m)) * (1.0 / (M - m))
    decomp = decompose(G)
    parts = list(decomp.parts)
    parts[0] = parts[0] + _identity_like(G, 0, delta)
    return G, decomp, parts


def build_certificate(
    F: Poly | MatPoly,
    ell: int,
    bounds: tuple[float, float] | None = None,
    delta: float | None = None,
    restarts: int = 64,
    seed: int = 0,
) -> Certificate:
    """Certify that (F - m)/(M - m) + delta is L-SOS on the sphere.

    F must be homogeneous of even degree 2n.  When bounds is omitted the
    range [m, M] on the sphere is estimated by multistart optimization (not
    certified); delta defaults to the theorem value (B_{2n}/2) rho_{2n}(d, L).
    A constant (n = 0) takes the constant kernel q = 1 and is certified as
    F + delta with normalization (0, 1); an input constant on the sphere is
    normalized by (m, m + 1).  The returned certificate targets the
    normalized G in [0, 1]; on witness positivity failure it is returned
    with verification.passed False rather than raising (user-supplied
    slacks may legitimately fail)."""
    if F.degree % 2 != 0:
        raise ValueError("input degree must be even")
    if ell < 1:
        raise ValueError("ell must be >= 1")
    n = F.degree // 2
    d = F.d

    if n == 0:
        normalization = (0.0, 1.0)
    else:
        if bounds is None:
            est = sup_norm_sphere(F, restarts=restarts, seed=seed)
            m, M = est.min_est, est.max_est
        else:
            m, M = float(bounds[0]), float(bounds[1])
        if M - m < 1e-12:
            # Constant on the sphere: the shifted polynomial vanishes there and
            # only the slack remains.
            M = m + 1.0
        normalization = (m, M)
    try:
        spec = kernel_for(d, ell, n)
        if np.any(spec.lambdas <= 0):
            raise DegenerateKernelError(f"lambdas={spec.lambdas.tolist()}")
    except DegenerateKernelError as exc:
        raise KernelInversionError(
            f"kernel non-invertible on needed harmonics: {exc}"
        ) from exc
    if delta is None:
        delta = spec.delta

    _, decomp, parts = _targets(F, normalization, delta)
    for k in range(1, n + 1):
        parts[k] = parts[k] * (1.0 / spec.lambdas[k - 1])
    H = HarmonicDecomp(n=n, parts=parts, matrix=decomp.matrix, residual=decomp.residual)

    cert = Certificate(spec=spec, delta=delta, normalization=normalization, H=H)
    cert.verification = verify_certificate(F, cert, restarts=restarts, seed=seed)
    return cert


def verify_certificate(
    F: Poly | MatPoly,
    cert: Certificate,
    restarts: int = 64,
    seed: int = 0,
    tol_lambda: float = 1e-10,
    tol_funk_hecke: float = 1e-9,
    tol_witness: float = 1e-8,
    tol_margin: float = 1e-10,
) -> VerificationReport:
    """Re-check a certificate against the input it claims to certify.

    Four checks: unit kernel coefficients with eigenvalues recomputed from
    the Toeplitz matrices; the diagonal (Funk-Hecke) action matching the
    harmonic parts of the normalized input coefficient-wise; multistart
    positivity of the witness; and the slack margin
    delta - (B_{2n}/2) sum |1/lambda_{2k} - 1| >= 0.  Report-only."""
    spec = cert.spec
    if F.d != spec.d:
        raise ValueError("dimension mismatch between input and certificate")
    n = F.degree // 2
    if n != cert.H.n:
        raise ValueError("degree mismatch between input and certificate")
    notes = []

    e_norm_err = abs(float(np.linalg.norm(spec.e)) - 1.0)
    lam_err = 0.0
    if n >= 1:
        lambdas = kernel_lambdas(spec.d, spec.ell, n, spec.e)
        lam_err = float(np.max(np.abs(lambdas - spec.lambdas)))
    kernel_ok = e_norm_err <= tol_lambda and lam_err <= tol_lambda

    G, _, targets = _targets(F, cert.normalization, cert.delta)
    scale = max(G.max_abs_coef(), 1.0)
    fh_resid = 0.0
    for k, target in enumerate(targets):
        lam_k = 1.0 if k == 0 else float(spec.lambdas[k - 1])
        diff = (lam_k * cert.H.parts[k]) - target
        fh_resid = max(fh_resid, diff.max_abs_coef() / scale)
    funk_hecke_ok = fh_resid <= tol_funk_hecke

    witness = cert.H.reconstruct()
    est = sup_norm_sphere(witness, restarts=restarts, seed=seed)
    witness_ok = est.min_est >= -tol_witness
    if not est.converged:
        notes.append("witness positivity search hit iteration cap")

    margin = cert.delta - slack(n, spec.lambdas)[1]
    margin_ok = margin >= -tol_margin

    if spec.skipped_directions:
        notes.append(f"{spec.skipped_directions} kernel directions skipped")

    return VerificationReport(
        passed=kernel_ok and funk_hecke_ok and witness_ok and margin_ok,
        kernel_norm_error=e_norm_err,
        lambda_recompute_error=lam_err,
        funk_hecke_residual=fh_resid,
        witness_min=est.min_est,
        eq15_margin=margin,
        checks={
            "kernel": kernel_ok,
            "funk_hecke": funk_hecke_ok,
            "witness_positive": witness_ok,
            "margin": margin_ok,
        },
        notes=notes,
        witness_restarts=est.restarts,
        witness_restarts_converged=est.converged_restarts,
    )


def reznick_lambdas(d: int, ell: int, max_k: int) -> np.ndarray:
    """Gegenbauer eigenvalues lambda_{2k}, k = 0..max_k, of t^{2L}/c.

    The baseline comparison kernel: its eigenvalues approach 1 only at a
    d/L rate, against (d/L)^2 for the optimized kernels."""
    if 2 * ell < 2 * max_k:
        raise ValueError("kernel degree 2*ell too small for requested harmonics")
    basis = GegenbauerBasis(d, 2 * max_k)
    nodes, weights = basis.gauss_rule(ell + max_k + 3)
    phi = nodes ** (2 * ell)
    out = np.empty(max_k + 1)
    for k in range(max_k + 1):
        coeffs = np.zeros(2 * k + 1)
        coeffs[2 * k] = 1.0
        ck = basis.gegenbauer_combination_values(coeffs, nodes)
        out[k] = float(np.sum(weights * phi * ck))
    return out / out[0]


def sphere_quadrature(d: int, degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Product quadrature on S^{d-1} exact for polynomials up to ``degree``.

    Returns (points, weights) with points of shape (N, d) and weights
    summing to 1.  Built recursively: equal angles on the circle, then a
    Gauss rule in the polar coordinate against the matching ultraspherical
    weight for each added dimension.  Supported for d in {2, 3, 4}."""
    if d not in (2, 3, 4):
        raise ValueError(f"sphere quadrature supported for d in {{2, 3, 4}}, got {d}")
    if degree < 0 or degree > 60:
        raise ValueError("degree must be in 0..60")
    if d == 2:
        count = degree + 2
        angles = 2.0 * np.pi * np.arange(count) / count
        pts = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        return pts, np.full(count, 1.0 / count)
    sub_pts, sub_w = sphere_quadrature(d - 1, degree)
    basis = GegenbauerBasis(d, 0)
    nz = (degree + 1) // 2 + 2
    z, wz = basis.gauss_rule(nz)
    radial = np.sqrt(np.maximum(1.0 - z**2, 0.0))
    pts = np.empty((len(z) * len(sub_pts), d))
    w = np.empty(len(z) * len(sub_pts))
    idx = 0
    for zi, wzi, ri in zip(z, wz, radial):
        block = slice(idx, idx + len(sub_pts))
        pts[block, : d - 1] = ri * sub_pts
        pts[block, d - 1] = zi
        w[block] = wzi * sub_w
        idx += len(sub_pts)
    return pts, w
