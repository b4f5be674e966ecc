"""Kernel-based L-SOS certificates for polynomials on the sphere.

A certificate for a normalized input 0 <= G <= 1 (in the matrix case,
0 <= G(x) <= I in the semidefinite order) consists of an optimized kernel
q(t)^2 with Gegenbauer eigenvalues lambda_{2k}, a slack delta, and the
witness H obtained by dividing each harmonic part of G + delta by its
eigenvalue.  When the slack dominates (B_{2n}/2) sum |1/lambda_{2k} - 1| the
witness is pointwise nonnegative and G + delta agrees on the sphere with the
integral of q(<x, y>)^2 H(y), an L-SOS representation.  Validity is checked
algebraically through the diagonal (Funk-Hecke) action on harmonic
coefficients plus a positivity check on the witness; the range
normalization of the original input is recorded so callers can undo it.

The integrand q(<x, y>)^2 H(y) has degree 2 ell + 2n in y.  On a
positive-weight rule (y_i, w_i) exact to that degree the integral is the
sum of w_i H(y_i) q(<x, y_i>)^2, so H(y_i) >= 0 at the nodes (the smallest
eigenvalue, for a matrix) already makes G + delta an explicit sum of
squares.  Where sphere_quadrature has such a rule (d <= 4, degree <= 60)
with at most WITNESS_NODE_BUDGET nodes, the positivity check reads the
witness at its nodes: a "cubature" check, exact up to rounding and
independent of the seed and restart count.  Beyond it the check is a
"multistart" descent search for the witness minimum (poly.min_sphere),
which is not certified.  The range estimate [m, M] takes the same split
and is not certified on either side.

The witness also bounds F.  K^{-1} fixes |x|^{2n}, so K^{-1}F =
m + (M - m)(H - delta) on the sphere.  With lo and hi its least and
greatest node values, hi |x|^{2n} - F = sum_i w_i (hi - K^{-1}F(y_i))
q(<x, y_i>)^2 and F - lo |x|^{2n} likewise are explicit sums of squares,
so lo <= F <= hi whatever [m, M] and the witness sign are.

Construction and verification share one computation of the targets (the
harmonic parts of G + delta) and one set of checks, so a build decomposes
its input once and checks the targets it has just built.  Scalar and matrix
inputs take the same path: the identity embedding |x|^{2n} (times I for a
matrix) is the input's own identity_like, and the range's and the witness
check's node reads take its extremes (a matrix's extreme eigenvalues).
The kernel comes from rho.kernel_for and every (rho, delta) pair from
rho.slack, so construction, reloading and the margin check agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .gegenbauer import GegenbauerBasis
from .harmonic import HarmonicDecomp, decompose
from .poly import MatPoly, Poly, _integers, min_sphere, sup_norm_sphere
from .rho import DegenerateKernelError, KernelSpec, kernel_for, kernel_lambdas, slack


class KernelInversionError(ValueError):
    """The kernel has a non-positive eigenvalue on a needed harmonic order."""


# Fixed thresholds of the kernel, Funk-Hecke and margin checks; the witness
# tolerance is the one a caller may loosen (the CLI's --tol).
TOL_LAMBDA = 1e-10
TOL_FUNK_HECKE = 1e-9
TOL_WITNESS = 1e-8
TOL_MARGIN = 1e-10

# Largest rule the witness check evaluates.  At d = 4 a rule of degree 18
# (2,420 nodes: qsep with d_B = 2 at ell = 8) fits; one of degree 34
# (12,996 nodes) took about 5x longer than the descent search it replaces.
WITNESS_NODE_BUDGET = 4_000


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
    # How witness positivity was decided, the other dict being None:
    # "cubature", witness_rule {"nodes", "degree"} (witness_min is the minimum
    # over the nodes of a rule exact to that degree), or "multistart",
    # witness_search {"restarts", "converged", "floor"} (a descent search:
    # restarts run, those that stopped before the iteration cap, and those of
    # them stopped at the rounding floor rather than by a small gradient).
    witness_check: str = "multistart"
    witness_rule: dict | None = None
    witness_search: dict | None = None
    # lo and hi of the module docstring: lower_bound from witness_min (and as
    # certified as it), upper_bound only where the witness check read a rule.
    lower_bound: float | None = None
    upper_bound: float | None = None

    def to_dict(self) -> dict:
        return {k: v for k, v in vars(self).items() if v is not None}


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
    # How build_certificate found (m, M), for the CLI's summary; "none" when
    # it searched nothing.  Not serialized.
    range_search: str = "none"

    def certified_upper_bound(self) -> float:
        """hi >= F on the sphere (F's top eigenvalue, for a matrix): the
        report's upper_bound, recomputed from the stored H so that a
        certificate loaded without its report gives the same bits.  Beyond
        the node budget the maximum of H is searched instead (sup_norm_sphere
        at its default restarts and seed), which is not certified."""
        witness = self.H.reconstruct()
        rule = _witness_rule(self.spec.d, 2 * (self.spec.ell + self.H.n))
        top = (sup_norm_sphere(witness).max_est if rule is None
               else float(witness.extremes(rule)[1].max()))
        return self._unnormalized(top)

    def _unnormalized(self, h: float) -> float:
        """The value m + (M - m)(h - delta) of K^{-1}F where H takes h."""
        m, M = self.normalization
        return m + (M - m) * (h - self.delta)

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
        if not isinstance(data, dict):
            raise ValueError(f"malformed certificate JSON: expected an object, "
                             f"got {type(data).__name__}")
        try:
            s = data["spec"]
            spec = KernelSpec(*_integers((s["d"], s["ell"], s["n"]), "spec (d, ell, n)"),
                              e=np.asarray(s["e"], dtype=float),
                              lambdas=np.asarray(s["lambdas"], dtype=float))
            norm = (float(data["normalization"]["m"]), float(data["normalization"]["M"]))
            H = HarmonicDecomp.from_dict(data["H"])
            delta = float(data["delta"])
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed certificate JSON: {exc}") from exc
        # Parts that disagree would fail deep inside the checks, after the
        # Toeplitz family for ell is built; refuse them here.
        parts = [(p.d, p.degree) for p in H.parts]
        if (spec.e.shape != (spec.ell + 1,) or spec.lambdas.shape != (spec.n,)
                or H.n != spec.n or parts != [(spec.d, 2 * k) for k in range(spec.n + 1)]):
            raise ValueError(
                f"malformed certificate JSON: parts disagree: d = {spec.d}, ell = {spec.ell}, "
                f"n = {spec.n}, e shape {spec.e.shape}, lambdas shape {spec.lambdas.shape}, "
                f"H n = {H.n}, H parts (d, degree) {parts}")
        # A stored lambda <= 0 would make the slack infinite and the margin -inf.
        for name, x, low in (("e", spec.e, -np.inf), ("lambdas", spec.lambdas, 0.0)):
            bad = np.flatnonzero(~((x > low) & (x < np.inf)))
            if bad.size:
                raise ValueError(f"malformed certificate JSON: {name}[{bad[0]}] = "
                                 f"{float(x[bad[0]])!r}, need finite e and lambdas > 0")
        if not (np.isfinite([*norm, delta]).all() and norm[1] > norm[0]):
            raise ValueError(f"malformed certificate JSON: need finite delta = {delta!r}, "
                             f"m, M = {norm} with M > m")
        spec.rho_value, spec.delta = slack(spec.n, spec.lambdas)
        return cls(spec=spec, delta=delta, normalization=norm, H=H)


def _targets(F, normalization: tuple[float, float], delta: float):
    """What a witness must reproduce: G = (F - m|x|^{2n}) / (M - m) (F itself
    at degree 0) and the harmonic parts of G + delta.

    A valid witness has lambda_{2k} H_{2k} equal to part k of G + delta."""
    m, M = normalization
    G = F if F.degree == 0 else (F - F.identity_like(F.degree, m)) * (1.0 / (M - m))
    parts = list(decompose(G).parts)
    parts[0] = parts[0] + G.identity_like(0, delta)
    return G, parts


def build_certificate(
    F: Poly | MatPoly,
    ell: int,
    bounds: tuple[float, float] | None = None,
    delta: float | None = None,
    restarts: int = 64,
    seed: int = 0,
    tol_witness: float = TOL_WITNESS,
) -> Certificate:
    """Certify that (F - m)/(M - m) + delta is L-SOS on the sphere.

    F must be homogeneous of even degree 2n.  bounds = (m, M) needs M >= m;
    when omitted the range is estimated, not certified: where the witness
    check reads a rule of degree 2 ell + 2n (see _witness_rule) it is F's
    extremes (extreme eigenvalues, for a matrix) at the rule's nodes,
    elsewhere sup_norm_sphere's multistart search.  delta defaults to the
    theorem value (B_{2n}/2) rho_{2n}(d, L).
    A constant (n = 0) takes the constant kernel q = 1 and is certified as
    F + delta with normalization (0, 1); an input constant on the sphere
    (M = m) is normalized by (m, m + 1).  The returned certificate carries
    the report of the checks verify_certificate runs, made on the targets
    just built with witness tolerance tol_witness, and is returned with
    verification.passed False rather than raising when they fail.  Within
    the node budget the report's lower_bound and upper_bound hold either
    way; passed adds the kernel, Funk-Hecke and margin checks and
    lower_bound >= m - (delta + tol_witness)(M - m), the theorem's slack on
    this instance."""
    if F.degree % 2 != 0:
        raise ValueError("input degree must be even")
    if ell < 1:
        raise ValueError("ell must be >= 1")
    if not math.isfinite(tol_witness):
        raise ValueError(f"tol_witness must be finite, got {tol_witness!r}")
    if delta is not None and not math.isfinite(delta):
        raise ValueError(f"delta must be finite, got {delta!r}")
    if bounds is not None and not (np.isfinite(bounds).all() and bounds[1] >= bounds[0]):
        raise ValueError(f"bounds must be finite with M >= m, got {bounds!r}")
    n = F.degree // 2
    d = F.d

    range_search, degree = "none", 2 * (ell + n)
    if n == 0:
        normalization = (0.0, 1.0)
    else:
        if bounds is not None:
            m, M = float(bounds[0]), float(bounds[1])
        elif (rule := _witness_rule(d, degree)) is not None:
            bottom, top = F.extremes(rule)
            m, M = float(bottom.min()), float(top.max())
            range_search = f"nodes({len(rule)})"
        else:
            est = sup_norm_sphere(F, restarts=restarts, seed=seed)
            m, M = est.min_est, est.max_est
            range_search = f"multistart({est.converged_restarts}/{est.restarts} converged)"
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

    G, targets = _targets(F, normalization, delta)
    parts = [t if k == 0 else t * (1.0 / spec.lambdas[k - 1]) for k, t in enumerate(targets)]
    H = HarmonicDecomp(n=n, parts=parts)
    cert = Certificate(spec=spec, delta=delta, normalization=normalization, H=H,
                       range_search=range_search)
    cert.verification = _check(cert, G, targets, restarts, seed, tol_witness)
    return cert


def verify_certificate(
    F: Poly | MatPoly,
    cert: Certificate,
    restarts: int = 64,
    seed: int = 0,
    tol_witness: float = TOL_WITNESS,
) -> VerificationReport:
    """Re-check a certificate against the input it claims to certify.

    Four checks: unit kernel coefficients with eigenvalues recomputed from
    the Toeplitz matrices; the diagonal (Funk-Hecke) action matching the
    harmonic parts of the normalized input coefficient-wise; positivity of
    the witness, read at the nodes of a rule exact to degree 2 ell + 2n when
    one fits WITNESS_NODE_BUDGET (restarts and seed then play no part), and
    otherwise searched by restarts descents from seeded start points; and
    the slack margin delta - (B_{2n}/2) sum |1/lambda_{2k} - 1| >= 0.  The
    targets are derived from the stored normalization and slack.
    Report-only."""
    if not math.isfinite(tol_witness):
        raise ValueError(f"tol_witness must be finite, got {tol_witness!r}")
    if F.d != cert.spec.d:
        raise ValueError("dimension mismatch between input and certificate")
    if F.degree // 2 != cert.H.n:
        raise ValueError("degree mismatch between input and certificate")
    G, targets = _targets(F, cert.normalization, cert.delta)
    return _check(cert, G, targets, restarts, seed, tol_witness)


def _check(cert: Certificate, G, targets: list, restarts: int, seed: int,
           tol_witness: float) -> VerificationReport:
    """The four checks of verify_certificate, given the normalized input G
    and the harmonic parts of G + delta."""
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    spec = cert.spec
    n = cert.H.n
    notes = []

    e_norm_err = abs(float(np.linalg.norm(spec.e)) - 1.0)
    lam_err = 0.0
    if n >= 1:
        lambdas = kernel_lambdas(spec.d, spec.ell, n, spec.e)
        lam_err = float(np.max(np.abs(lambdas - spec.lambdas)))
    kernel_ok = e_norm_err <= TOL_LAMBDA and lam_err <= TOL_LAMBDA

    scale = max(G.max_abs_coef(), 1.0)
    fh_resid = 0.0
    for k, target in enumerate(targets):
        lam_k = 1.0 if k == 0 else float(spec.lambdas[k - 1])
        diff = (lam_k * cert.H.parts[k]) - target
        fh_resid = max(fh_resid, diff.max_abs_coef() / scale)
    funk_hecke_ok = fh_resid <= TOL_FUNK_HECKE

    witness = cert.H.reconstruct()
    degree = 2 * (spec.ell + n)
    rule = _witness_rule(spec.d, degree)
    upper_bound = None
    if rule is not None:
        low, high = witness.extremes(rule)
        witness_min, upper_bound = float(low.min()), cert._unnormalized(float(high.max()))
        how = {"witness_check": "cubature", "witness_rule": {"nodes": len(rule), "degree": degree}}
    else:
        est = min_sphere(witness, restarts=restarts, seed=seed)
        witness_min = est.min_est
        how = {"witness_check": "multistart", "witness_search": {
            "restarts": est.restarts, "converged": est.converged_restarts,
            "floor": est.floor_restarts}}
        if not est.converged:
            capped = est.restarts - est.converged_restarts
            notes.append(f"witness positivity search hit iteration cap in {capped} "
                         f"of {est.restarts} restarts")
    witness_ok = witness_min >= -tol_witness

    margin = cert.delta - slack(n, spec.lambdas)[1]
    margin_ok = margin >= -TOL_MARGIN

    if spec.skipped_directions:
        notes.append(f"{spec.skipped_directions} kernel directions skipped")

    checks = {"kernel": kernel_ok, "funk_hecke": funk_hecke_ok,
              "witness_positive": witness_ok, "margin": margin_ok}
    return VerificationReport(
        passed=all(checks.values()),
        kernel_norm_error=e_norm_err,
        lambda_recompute_error=lam_err,
        funk_hecke_residual=fh_resid,
        witness_min=witness_min,
        eq15_margin=margin,
        checks=checks,
        notes=notes,
        lower_bound=cert._unnormalized(witness_min),
        upper_bound=upper_bound,
        **how,
    )


def _witness_rule(d: int, degree: int) -> np.ndarray | None:
    """Nodes of sphere_quadrature(d, degree) when it is supported and has at
    most WITNESS_NODE_BUDGET of them (counted before it is built), else
    None."""
    shape = _rule_shape(d, degree)
    if shape is None or math.prod(shape) > WITNESS_NODE_BUDGET:
        return None
    return _cached_nodes(d, degree)


@lru_cache(maxsize=32)
def _cached_nodes(d: int, degree: int) -> np.ndarray:
    nodes, _ = sphere_quadrature(d, degree)
    nodes.flags.writeable = False
    return nodes


def reznick_lambdas(d: int, ell: int, max_k: int) -> np.ndarray:
    """Gegenbauer eigenvalues lambda_{2k}, k = 0..max_k, of t^{2L}/c.

    The baseline comparison kernel: its eigenvalues approach 1 only at a
    d/L rate, against (d/L)^2 for the optimized kernels."""
    if 2 * ell < 2 * max_k:
        raise ValueError("kernel degree 2*ell too small for requested harmonics")
    basis = GegenbauerBasis(d, 2 * max_k)
    nodes, weights = basis.gauss_rule(ell + max_k + 3)
    # C_{2k}/C_{2k}(1) at the nodes, every even order from one table
    scale = 1.0 / np.sqrt(basis.endpoint_values[0::2, None])
    ck = basis.orthonormal_values(nodes)[0::2] * scale
    out = np.sum(weights * nodes ** (2 * ell) * ck, axis=1)
    return out / out[0]


def _rule_shape(d: int, degree: int) -> list[int] | None:
    """Node counts per coordinate of sphere_quadrature(d, degree): equal
    angles on the circle, then Gauss nodes for each of the d - 2 polar
    coordinates; the rule has their product of nodes.  None where the rule
    is not supported (d outside {2, 3, 4} or degree outside 0..60)."""
    if d not in (2, 3, 4) or not 0 <= degree <= 60:
        return None
    return [degree + 2] + [(degree + 1) // 2 + 2] * (d - 2)


def sphere_quadrature(d: int, degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Product quadrature on S^{d-1} exact for polynomials up to ``degree``.

    Returns (points, weights) with points of shape (N, d) and weights
    summing to 1.  Built recursively: equal angles on the circle, then a
    Gauss rule in the polar coordinate against the matching ultraspherical
    weight for each added dimension.  Supported for d in {2, 3, 4}."""
    shape = _rule_shape(d, degree)
    if shape is None:
        raise ValueError(f"sphere quadrature supports d in {{2, 3, 4}} and degree 0..60, "
                         f"got d = {d}, degree = {degree}")
    count = shape[-1]
    if d == 2:
        angles = 2.0 * np.pi * np.arange(count) / count
        pts = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        return pts, np.full(count, 1.0 / count)
    sub_pts, sub_w = sphere_quadrature(d - 1, degree)
    basis = GegenbauerBasis(d, 0)
    z, wz = basis.gauss_rule(count)
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
