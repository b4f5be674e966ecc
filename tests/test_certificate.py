"""Certificate construction, verification, baseline kernel, sphere quadrature."""

import copy
import itertools

import numpy as np
import pytest

from spheresos.certificate import (
    Certificate,
    KernelInversionError,
    build_certificate,
    reznick_lambdas,
    sphere_quadrature,
    verify_certificate,
)
from spheresos.poly import MatPoly, Poly, sample_sphere_array, sup_norm_sphere
from spheresos.rho import rho2


def rand_homog(d, degree, rng, scale=1.0):
    exps = [e for e in itertools.product(range(degree + 1), repeat=d) if sum(e) == degree]
    return Poly(d, degree, {e: scale * rng.standard_normal() for e in exps})


def rand_matpoly(d, k, degree, rng, scale=1.0):
    entries = {
        (i, j): rand_homog(d, degree, rng, scale) for i in range(k) for j in range(i, k)
    }
    return MatPoly(d, k, degree, entries)


# -- sphere quadrature ------------------------------------------------------

def test_sphere_quadrature_moments():
    for d in (2, 3, 4):
        pts, w = sphere_quadrature(d, 8)
        assert w.sum() == pytest.approx(1.0, abs=1e-13)
        assert np.abs(np.linalg.norm(pts, axis=1) - 1.0).max() < 1e-12
        x1sq = float(w @ pts[:, 0] ** 2)
        assert x1sq == pytest.approx(1.0 / d, abs=1e-12)
        x1quart = float(w @ pts[:, 0] ** 4)
        assert x1quart == pytest.approx(3.0 / (d * (d + 2)), abs=1e-12)


def test_sphere_quadrature_unsupported_dimension():
    with pytest.raises(ValueError):
        sphere_quadrature(5, 4)
    with pytest.raises(ValueError):
        sphere_quadrature(3, 61)


def test_sphere_quadrature_exactness_random_poly():
    # product rule integrates a random degree-6 polynomial as well as a much
    # denser rule does
    rng = np.random.default_rng(0)
    p = rand_homog(3, 6, rng)
    pts_a, w_a = sphere_quadrature(3, 6)
    pts_b, w_b = sphere_quadrature(3, 20)
    ia = float(w_a @ p.eval_many(pts_a))
    ib = float(w_b @ p.eval_many(pts_b))
    assert ia == pytest.approx(ib, abs=1e-12)


# -- Reznick baseline -------------------------------------------------------

def test_reznick_lambdas_normalized_and_bounded():
    for d, ell in ((3, 6), (5, 12)):
        lams = reznick_lambdas(d, ell, max_k=4)
        assert lams[0] == 1.0
        assert np.all(lams > 0.0)
        assert np.all(lams <= 1.0 + 1e-12)


def test_reznick_lambda2_closed_form():
    # lambda_2 of t^(2l)/c equals 2l/(2l + d): the 1 - lambda_2 ~ d/(2l) rate
    for d in (3, 4, 7):
        for ell in (5, 11, 20):
            lams = reznick_lambdas(d, ell, max_k=1)
            assert lams[1] == pytest.approx(2 * ell / (2 * ell + d), abs=1e-12)


def test_reznick_vs_optimized_rate():
    # optimized 1 - lambda_2 decays quadratically, baseline linearly
    d = 4
    for mult in (6, 12):
        ell = mult * d
        lam_opt = 1.0 - (1.0 / (1.0 + rho2(d, ell)[0]))
        lam_rez = 1.0 - reznick_lambdas(d, ell, 1)[1]
        assert lam_opt < lam_rez / 3.0


# -- scalar certificates ----------------------------------------------------

def test_certificate_perfect_square():
    rng = np.random.default_rng(1)
    v = rng.standard_normal(3)
    v /= np.linalg.norm(v)
    lin = Poly(3, 1, {tuple(int(i == j) for i in range(3)): v[j] for j in range(3)})
    for ell in (1, 4):
        cert = build_certificate(lin * lin, ell=ell, seed=2)
        assert cert.verification.passed
        assert cert.verification.witness_min >= -1e-8


def test_certificate_constant_edge_case():
    cert = build_certificate(Poly.constant(3, 0.5), ell=3)
    assert cert.delta == 0.0
    assert cert.H.parts[0].terms == {(0, 0, 0): 0.5}
    assert cert.verification.passed


def test_certificate_rejects_bad_ell():
    # ell is checked before the degree-0 shortcut, so a constant input gets
    # the same message as a quartic
    for F in (Poly.constant(3, 0.5), Poly.constant(3, 1.0).mul_norm_power(2)):
        for ell in (0, -2):
            with pytest.raises(ValueError, match="ell must be >= 1"):
                build_certificate(F, ell=ell)


def test_certificate_constant_with_user_delta():
    # Build and verify normalize a constant the same way, so a user slack
    # ends up in the witness: H = F + delta, reproduced exactly.
    scalar = Poly.constant(3, 0.5)
    matrix = MatPoly.identity(3, 2, 0, 0.5)
    for F, shifted in ((scalar, Poly.constant(3, 0.6)), (matrix, MatPoly.identity(3, 2, 0, 0.6))):
        cert = build_certificate(F, ell=3, delta=0.1)
        assert cert.delta == 0.1
        assert cert.normalization == (0.0, 1.0)
        assert cert.verification.passed
        assert cert.verification.funk_hecke_residual == 0.0
        assert (cert.H.parts[0] - shifted).max_abs_coef() == 0.0


def test_certificate_random_quartic():
    rng = np.random.default_rng(3)
    F = rand_homog(3, 4, rng)
    cert = build_certificate(F, ell=12, seed=4)
    rep = cert.verification
    assert rep.passed
    assert rep.eq15_margin >= 0.0
    assert rep.funk_hecke_residual < 1e-9
    # the witness reproduces G + delta through the eigenvalue scaling
    verify_again = verify_certificate(F, cert, seed=5)
    assert verify_again.passed


def test_certificate_explicit_bounds_skip_estimation():
    rng = np.random.default_rng(4)
    F = rand_homog(3, 2, rng)
    X = sample_sphere_array(3, 20_000, seed=6)
    vals = F.eval_many(X)
    cert = build_certificate(F, ell=6, bounds=(vals.min() - 1e-6, vals.max() + 1e-6))
    assert cert.verification.passed


def test_certificate_upper_bound_statement():
    # certified bound (reflected input) sits above the sampled maximum
    rng = np.random.default_rng(5)
    p = rand_homog(4, 4, rng)
    X = sample_sphere_array(4, 20_000, seed=7)
    vals = p.eval_many(X)
    m, M = float(vals.min()), float(vals.max())
    cert = build_certificate(-1.0 * p, ell=16, bounds=(-M, -m), seed=8)
    assert cert.verification.passed
    upper = -m + (M - m) * cert.delta
    # "-p + delta*(M-m) - (-M) is l-sos" translates to p <= M + delta (M - m)
    certified_max = M + (M - m) * cert.delta
    assert certified_max >= vals.max()
    assert upper >= -vals.min()


def test_tampered_certificate_fails_funk_hecke():
    rng = np.random.default_rng(6)
    F = rand_homog(3, 4, rng)
    cert = build_certificate(F, ell=12, seed=9)
    bad = copy.deepcopy(cert)
    key = next(iter(bad.H.parts[1].terms))
    bad.H.parts[1].terms[key] += 1e-3
    bad.H.parts[1]._arrays = None
    rep = verify_certificate(F, bad, seed=10)
    assert not rep.checks["funk_hecke"]
    assert not rep.passed


def test_report_carries_witness_search_counts():
    rng = np.random.default_rng(8)
    F = rand_homog(3, 4, rng)
    cert = build_certificate(F, ell=12, restarts=10, seed=12)
    est = sup_norm_sphere(cert.H.reconstruct(), restarts=10, seed=12)
    rep = cert.verification
    assert rep.witness_restarts == 10
    assert rep.witness_restarts_converged == est.converged_restarts
    assert rep.to_dict()["witness_search"] == {
        "restarts": 10,
        "converged": est.converged_restarts,
    }
    capped = any("iteration cap" in note for note in rep.notes)
    assert capped == (rep.witness_restarts_converged < rep.witness_restarts)


def test_halved_delta_fails_margin():
    rng = np.random.default_rng(7)
    F = rand_homog(3, 4, rng)
    good = build_certificate(F, ell=12, seed=11)
    weak = build_certificate(F, ell=12, delta=good.delta / 2.0, seed=11)
    assert not weak.verification.checks["margin"]
    assert weak.verification.eq15_margin < 0.0


def test_nonpositive_stored_lambda_fails_margin():
    # A stored lambda_{2k} <= 0 makes the theorem slack infinite, however
    # large delta is; the margin check reads that without dividing by zero.
    rng = np.random.default_rng(7)
    F = rand_homog(3, 4, rng)
    data = build_certificate(F, ell=12, seed=11).to_dict()
    data["delta"] = 100.0
    for lam2 in (-0.5, 0.0):
        data["spec"]["lambdas"][0] = lam2
        report = verify_certificate(F, Certificate.from_dict(data), seed=11)
        assert report.checks["margin"] is False
        assert report.eq15_margin == -np.inf


def test_wrong_dimension_rejected():
    rng = np.random.default_rng(8)
    cert = build_certificate(rand_homog(3, 2, rng), ell=4)
    with pytest.raises(ValueError):
        verify_certificate(rand_homog(4, 2, rng), cert)


def test_kernel_unreachable_harmonics():
    # ell = 1 cannot certify a quartic: lambda_4 = 0
    rng = np.random.default_rng(9)
    with pytest.raises(KernelInversionError):
        build_certificate(rand_homog(3, 4, rng), ell=1)


def test_degree_six_surrogate_kernel():
    # n = 3 goes through the rho_tilde surrogate; B_6 is astronomical but
    # the certificate is still internally consistent
    rng = np.random.default_rng(10)
    F = rand_homog(3, 6, rng)
    cert = build_certificate(F, ell=18, seed=12)
    assert cert.spec.n == 3
    assert cert.verification.passed
    assert cert.delta == pytest.approx(
        0.5 * 720 * 721**3 * cert.spec.rho_value, rel=1e-12
    )


@pytest.mark.parametrize("d", (3, 4, 5))
@pytest.mark.parametrize("n", (1, 2))
def test_theorem_instantiation_grid(d, n):
    # 50 random normalized instances per (d, n) cell at ell = 4 n d: the
    # theorem slack always yields a verifying certificate
    rng = np.random.default_rng(100 * d + n)
    ell = 4 * n * d
    for i in range(50):
        F = rand_homog(d, 2 * n, rng)
        cert = build_certificate(F, ell=ell, restarts=12, seed=10_000 + i)
        assert cert.verification.passed, (d, n, i)


# Frozen Theorem-1.1 constants: delta * (l/d)^2 measured <= 0.827 (n=1,
# l >= 2d) and <= 17.63 (n=2, l >= 4d) on this implementation.
THEOREM_BOUND_CONSTANTS = {1: 1.1, 2: 5.0}


def test_certified_bound_rate_constants():
    # (bound - p_min)/(p_max - p_min) = 1 + delta <= 1 + (C_n d/l)^2 with
    # frozen C_n, for l >= 2nd
    rng = np.random.default_rng(14)
    for n, ell_mult in ((1, (2, 5, 10)), (2, (4, 7, 10))):
        for d in (3, 5):
            for mult in ell_mult:
                ell = mult * d
                p = rand_homog(d, 2 * n, rng)
                est_pts = sample_sphere_array(d, 20_000, seed=19)
                vals = p.eval_many(est_pts)
                m, M = float(vals.min()), float(vals.max())
                cert = build_certificate(-1.0 * p, ell=ell, bounds=(-M, -m), seed=20)
                certified_max = M + (M - m) * cert.delta
                assert certified_max >= vals.max()
                cn = THEOREM_BOUND_CONSTANTS[n]
                assert 1.0 + cert.delta <= 1.0 + (cn * d / ell) ** 2, (n, d, ell)


# -- matrix certificates ----------------------------------------------------

def test_matrix_certificate_and_size_independence():
    rng = np.random.default_rng(11)
    deltas = []
    for k in (1, 2, 5, 10):
        F = rand_matpoly(3, k, 2, rng, scale=0.5)
        cert = build_certificate(F, ell=12, seed=13)
        assert cert.verification.passed, k
        deltas.append(cert.delta)
    assert np.abs(np.diff(deltas)).max() < 1e-14


def test_bihomogeneous_bridge():
    # y^T (F + delta I)(x) y equals y^T (K H)(x) y with K applied via the
    # eigenvalue scaling of harmonic parts
    rng = np.random.default_rng(12)
    F = rand_matpoly(3, 2, 2, rng)
    cert = build_certificate(F, ell=8, seed=14)
    m, M = cert.normalization
    n = 1
    X = sample_sphere_array(3, 50, seed=15)
    Y = sample_sphere_array(2, 50, seed=16)
    G_plus = cert.H  # K H has parts lambda_{2k} H_{2k}
    for x, y in zip(X, Y):
        lhs_mat = (F.eval(x) - m * np.eye(2)) / (M - m) + cert.delta * np.eye(2)
        kh = np.zeros((2, 2))
        for k, part in enumerate(cert.H.parts):
            lam = 1.0 if k == 0 else cert.spec.lambdas[k - 1]
            kh += lam * part.eval(x)
        assert abs(y @ lhs_mat @ y - y @ kh @ y) < 1e-7


def test_certificate_json_round_trip():
    rng = np.random.default_rng(13)
    F = rand_homog(3, 4, rng)
    cert = build_certificate(F, ell=12, seed=17)
    clone = Certificate.from_dict(cert.to_dict())
    assert clone.spec.ell == cert.spec.ell
    assert np.array_equal(clone.spec.e, cert.spec.e)
    assert clone.delta == cert.delta
    rep = verify_certificate(F, clone, seed=18)
    assert rep.passed
