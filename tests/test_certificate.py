"""Certificate construction, verification, baseline kernel, sphere quadrature."""

import copy
import itertools
import json
import os

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
from spheresos.poly import MatPoly, Poly, min_sphere, sample_sphere_array, sup_norm_sphere
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


def test_rule_shape_counts_sphere_quadrature_nodes():
    # the witness check's node budget reads the same shape the rule is built
    # from
    import math

    from spheresos.certificate import _rule_shape

    for d in (2, 3, 4):
        for degree in range(61):
            shape = _rule_shape(d, degree)
            assert len(shape) == d - 1
            assert math.prod(shape) == len(sphere_quadrature(d, degree)[0]), (d, degree)


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


def test_certificate_constant_on_sphere():
    # |x|^4 is 1 on the sphere: the range collapses, so the input is
    # normalized by (m, m + 1) and only the slack is left to certify
    cert = build_certificate(Poly.constant(3, 1.0).mul_norm_power(2), ell=8)
    assert cert.normalization == pytest.approx((1.0, 2.0), abs=1e-12)
    assert cert.normalization[1] - cert.normalization[0] == 1.0
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


# (d, degree, matrix size k or None, ell): the in-budget certify families
RANGE_FAMILIES = {
    "quartic_d3": (3, 4, None, 12),
    "quadratic_k2": (3, 2, 2, 8),
    "quadratic_k5": (3, 2, 5, 8),
    "sextic_d3": (3, 6, None, 12),
    "quartic_d4": (4, 4, None, 8),
}
RANGE_INPUTS = 200
RANGE_RESTARTS = 1024
# sup_norm_sphere's (max_est, min_est) at RANGE_RESTARTS restarts for every
# range_input, written by tests/make_range_reference.py
RANGE_REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                               "range_reference.json")


def range_input(family, seed):
    d, degree, k, _ = RANGE_FAMILIES[family]
    rng = np.random.default_rng((200, seed))
    return rand_homog(d, degree, rng) if k is None else rand_matpoly(d, k, degree, rng)


@pytest.mark.parametrize("family", sorted(RANGE_FAMILIES))
def test_witness_bounds_contain_multistart_range(family):
    # the certified sandwich [lower_bound, certified_upper_bound()] contains
    # every extreme that 1,024 random restarts find, on 200 dense inputs per
    # family, and every certificate passes; the first input's search runs
    # here too, so that a stale reference file fails
    with open(RANGE_REFERENCE) as fh:
        ref = json.load(fh)
    assert ref["restarts"] == RANGE_RESTARTS
    ref_max, ref_min = ref["families"][family]["max"], ref["families"][family]["min"]
    assert len(ref_max) == len(ref_min) == RANGE_INPUTS
    ell = RANGE_FAMILIES[family][3]
    for seed in range(RANGE_INPUTS):
        F = range_input(family, seed)
        tol = 1e-12 * (ref_max[seed] - ref_min[seed])
        if seed == 0:
            live = sup_norm_sphere(F, restarts=RANGE_RESTARTS, seed=seed)
            assert abs(live.max_est - ref_max[0]) <= tol and abs(live.min_est - ref_min[0]) <= tol
        cert = build_certificate(F, ell=ell)
        rep = cert.verification
        assert rep.passed and rep.witness_check == "cubature", seed
        upper = cert.certified_upper_bound()
        assert upper == rep.upper_bound, seed
        assert rep.lower_bound <= ref_min[seed] + tol and upper >= ref_max[seed] - tol, seed


@pytest.mark.parametrize("d, degree, ell", [(3, 2, 8), (3, 4, 12), (4, 4, 8), (5, 4, 12)])
def test_one_by_one_matrix_takes_the_scalar_bits(d, degree, ell):
    # d = 5 has no cubature rule, so its range and witness are searched
    def fields(est):
        return {k: v.coords.tolist() if hasattr(v, "coords") else v for k, v in vars(est).items()}

    p = rand_homog(d, degree, np.random.default_rng(40 + d + degree))
    F = MatPoly.diagonal([p])
    for search in (sup_norm_sphere, min_sphere):
        a, b = (search(G, restarts=16, seed=1) for G in (p, F))
        assert fields(b) == fields(a)
    a, b = (build_certificate(G, ell=ell, restarts=16, seed=1) for G in (p, F))
    assert b.normalization == a.normalization
    assert b.verification == a.verification
    assert [q.entry(0, 0).terms for q in b.H.parts] == [q.terms for q in a.H.parts]


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


@pytest.mark.parametrize("seed, hi, lo", [
    (0, 0.2629, -1.8293), (1, 1.1605, -0.6131), (2, 2.2009, -0.5420)])
def test_upper_bound_holds_with_wrong_bounds(seed, hi, lo):
    # dense d = 3 quartics at ell = 12 given the true minimum and a maximum
    # of 0, below the true one: the node sandwich does not depend on the
    # bounds, and certified_upper_bound() stays above the true maximum
    F = rand_homog(3, 4, np.random.default_rng(seed))
    est = sup_norm_sphere(F, restarts=1024, seed=seed)
    cert = build_certificate(F, ell=12, bounds=(est.min_est, 0.0))
    rep = cert.verification
    assert rep.passed and rep.witness_check == "cubature"
    upper = cert.certified_upper_bound()
    assert upper >= est.max_est
    assert upper == rep.upper_bound and rep.lower_bound <= est.min_est
    assert (upper, rep.lower_bound) == pytest.approx((hi, lo), abs=5e-5)
    free = build_certificate(F, ell=12).verification
    assert (free.lower_bound, free.upper_bound) == pytest.approx((rep.lower_bound, upper), rel=1e-12)


@pytest.mark.parametrize("case", ["quartic_d3", "matrix_k5"])
def test_node_bounds_give_explicit_sos(case):
    # hi |x|^{2n} - F = sum_i w_i (hi - K^{-1}F(y_i)) q(<x, y_i>)^2 and
    # F - lo |x|^{2n} = sum_i w_i (K^{-1}F(y_i) - lo) q(<x, y_i>)^2 at unit
    # x, with every weight of the two sums positive (semidefinite)
    from spheresos.gegenbauer import GegenbauerBasis

    rng = np.random.default_rng(45)
    F, ell = (rand_homog(3, 4, rng), 12) if case == "quartic_d3" else (rand_matpoly(3, 5, 2, rng), 8)
    cert = build_certificate(F, ell=ell, seed=3)
    rep = cert.verification
    hi, lo = cert.certified_upper_bound(), rep.lower_bound
    Y, w = sphere_quadrature(F.d, 2 * ell + F.degree)
    X = sample_sphere_array(F.d, 20, seed=46)
    q = np.tensordot(cert.spec.e, GegenbauerBasis(F.d, ell).orthonormal_values(X @ Y.T), axes=1)
    m, M = cert.normalization
    unit = np.eye(F.k) if isinstance(F, MatPoly) else 1.0
    inverse = m * unit + (M - m) * (cert.H.reconstruct().eval_many(Y) - cert.delta * unit)
    values = F.eval_many(X)
    scale = np.abs(values).max()
    for side, rhs in (((hi * unit) - inverse, hi * unit - values),
                      (inverse - lo * unit, values - lo * unit)):
        low = np.linalg.eigvalsh(side)[:, 0] if side.ndim == 3 else side
        assert low.min() >= -1e-12 * scale
        assert np.abs(np.tensordot(w * q**2, side, axes=1) - rhs).max() <= 1e-12 * scale


@pytest.mark.parametrize("d", [3, 5])
def test_upper_bound_survives_reload(d):
    # certified_upper_bound() reads the stored witness, so a certificate
    # loaded without its report gives the same bits; at d = 5, past the
    # node budget, it is a search and the report has no upper_bound
    for F in (rand_homog(d, 4, np.random.default_rng(47)),
              rand_matpoly(d, 3, 2, np.random.default_rng(48))):
        cert = build_certificate(F, ell=12, seed=5)
        data = cert.to_dict()
        loaded = Certificate.from_dict(data)
        assert loaded.verification is None
        assert loaded.certified_upper_bound() == cert.certified_upper_bound()
        assert ("upper_bound" in data["verification"]) == (d == 3)
        assert data["verification"]["lower_bound"] == cert.verification.lower_bound


def test_reversed_bounds_refused():
    p = rand_homog(3, 4, np.random.default_rng(49))
    with pytest.raises(ValueError, match=r"bounds must be finite with M >= m, got \(3.0, 1.0\)"):
        build_certificate(p, ell=8, bounds=(3.0, 1.0))
    # M = m is the constant-on-the-sphere path
    assert build_certificate(p, ell=8, bounds=(1.0, 1.0)).normalization == (1.0, 2.0)


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
    # d = 5 has no cubature rule, so a descent search decides positivity
    rng = np.random.default_rng(8)
    F = rand_homog(5, 4, rng)
    cert = build_certificate(F, ell=12, restarts=10, seed=12)
    est = min_sphere(cert.H.reconstruct(), restarts=10, seed=12)
    rep = cert.verification
    assert rep.witness_check == "multistart"
    assert rep.witness_min == est.min_est
    assert rep.witness_rule is None
    assert rep.witness_search == {
        "restarts": 10,
        "converged": est.converged_restarts,
        "floor": est.floor_restarts,
    }
    out = rep.to_dict()
    assert out["witness_check"] == "multistart"
    assert "witness_rule" not in out
    assert out["witness_search"] == rep.witness_search
    capped = any("iteration cap" in note for note in rep.notes)
    assert capped == (est.converged_restarts < 10)


def test_report_carries_witness_rule():
    # d = 3 at ell = 12: the degree-28 rule has 30 * 16 nodes, within budget
    rng = np.random.default_rng(8)
    F = rand_homog(3, 4, rng)
    cert = build_certificate(F, ell=12, restarts=10, seed=12)
    rep = cert.verification
    nodes, _ = sphere_quadrature(3, 28)
    assert rep.witness_check == "cubature"
    assert rep.witness_min == float(cert.H.reconstruct().eval_many(nodes).min())
    out = rep.to_dict()
    assert out["witness_check"] == "cubature"
    assert out["witness_rule"] == {"nodes": 480, "degree": 28}
    assert "witness_search" not in out
    assert not any("iteration cap" in note for note in rep.notes)


def test_cap_note_counts_capped_restarts(monkeypatch):
    from spheresos import certificate as cert_mod

    rng = np.random.default_rng(8)
    F = rand_homog(5, 4, rng)
    cert = build_certificate(F, ell=12, restarts=10, seed=12)
    # two steps are too few for the witness search to settle
    monkeypatch.setattr(
        cert_mod, "min_sphere",
        lambda target, **kw: min_sphere(target, iters=2, **kw),
    )
    rep = verify_certificate(F, cert, restarts=10, seed=12)
    search = rep.witness_search
    capped = search["restarts"] - search["converged"]
    assert capped > 0
    assert f"witness positivity search hit iteration cap in {capped} of 10 restarts" in rep.notes
    assert 0 <= search["floor"] <= search["converged"]


def test_cubature_check_runs_no_search(monkeypatch):
    from spheresos import certificate as cert_mod

    rng = np.random.default_rng(8)
    F = rand_homog(3, 4, rng)
    cert = build_certificate(F, ell=12, restarts=10, seed=12)
    monkeypatch.setattr(cert_mod, "min_sphere", lambda *a, **k: pytest.fail("searched"))
    monkeypatch.setattr(cert_mod, "sup_norm_sphere", lambda *a, **k: pytest.fail("searched"))
    rep = verify_certificate(F, cert, restarts=10, seed=12)
    assert rep.passed and rep.witness_check == "cubature"
    assert rep.notes == []


@pytest.mark.parametrize("d, degree, nodes", [
    (2, 18, 20),
    (3, 28, 480),     # d = 3 quartic at ell = 12
    (3, 18, 220),     # d = 3 quadratic at ell = 8
    (4, 18, 2420),    # qsep with d_B = 2 at ell = 8
    (4, 34, None),    # 12,996 nodes: over budget
    (3, 62, None),    # past sphere_quadrature's degree cap
    (5, 18, None),    # past its dimension cap
    (6, 18, None),
])
def test_witness_rule_within_budget(d, degree, nodes):
    from spheresos.certificate import WITNESS_NODE_BUDGET, _witness_rule

    rule = _witness_rule(d, degree)
    if nodes is None:
        assert rule is None
        return
    assert nodes <= WITNESS_NODE_BUDGET
    assert rule.shape == (nodes, d)
    assert not rule.flags.writeable
    assert np.array_equal(rule, sphere_quadrature(d, degree)[0])
    assert _witness_rule(d, degree) is rule


def _qsep_witness():
    from spheresos.quantum import QOperator, realify

    rng = np.random.default_rng(40)
    A = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    P = realify(QOperator.bipartite(A @ A.conj().T / 4, 2, 2))
    gamma = float(np.linalg.eigvalsh(A @ A.conj().T / 4)[-1])
    return (P.identity_like(2, gamma) - P) * (1.0 / gamma), (0.0, 1.0)


@pytest.mark.parametrize("case", ["quartic_d3", "matrix_k5", "qsep_2x2"])
def test_witness_rule_gives_explicit_sos(case):
    # sum_i w_i H(y_i) q(<x, y_i>)^2 = G(x) + delta at unit x, on the rule
    # the witness check reads: with H(y_i) >= 0 that is a sum of squares
    from spheresos.gegenbauer import GegenbauerBasis

    rng = np.random.default_rng(41)
    if case == "quartic_d3":
        F, bounds, ell = rand_homog(3, 4, rng), None, 12
    elif case == "matrix_k5":
        F, bounds, ell = rand_matpoly(3, 5, 2, rng), None, 8
    else:
        (F, bounds), ell = _qsep_witness(), 8
    cert = build_certificate(F, ell=ell, bounds=bounds, seed=3)
    assert cert.verification.passed
    assert cert.verification.witness_check == "cubature"
    d, n = F.d, cert.spec.n
    Y, w = sphere_quadrature(d, 2 * ell + 2 * n)
    X = sample_sphere_array(d, 20, seed=42)
    basis = GegenbauerBasis(d, ell)
    q = np.tensordot(cert.spec.e, basis.orthonormal_values(X @ Y.T), axes=1)
    H_nodes = cert.H.reconstruct().eval_many(Y)
    # the check reads the smallest value, or smallest eigenvalue, at the nodes
    lowest = np.linalg.eigvalsh(H_nodes)[:, 0] if H_nodes.ndim == 3 else H_nodes
    assert cert.verification.witness_min == float(lowest.min())
    lhs = np.tensordot(w * q**2, H_nodes, axes=1)
    m, M = cert.normalization
    unit = np.eye(F.k) if isinstance(F, MatPoly) else 1.0
    rhs = (F.eval_many(X) - m * unit) / (M - m) + cert.delta * unit
    scale = np.abs(rhs).max()
    assert np.abs(lhs - rhs).max() <= 1e-12 * scale


def test_zero_restarts_rejected_on_both_paths():
    rng = np.random.default_rng(44)
    for F in (rand_homog(3, 4, rng), rand_homog(5, 4, rng)):
        cert = build_certificate(F, ell=12)
        with pytest.raises(ValueError, match="restarts must be >= 1"):
            verify_certificate(F, cert, restarts=0)
        with pytest.raises(ValueError, match="restarts must be >= 1"):
            build_certificate(F, ell=12, bounds=(-1.0, 1.0), restarts=0)


def test_halved_delta_fails_margin():
    rng = np.random.default_rng(7)
    F = rand_homog(3, 4, rng)
    good = build_certificate(F, ell=12, seed=11)
    weak = build_certificate(F, ell=12, delta=good.delta / 2.0, seed=11)
    assert not weak.verification.checks["margin"]
    assert weak.verification.eq15_margin < 0.0


def test_nonpositive_stored_lambda_fails_margin():
    # A lambda_{2k} <= 0 makes the theorem slack infinite, however large
    # delta is; the margin check reads that without dividing by zero.
    # from_dict refuses such a stored value, so it is set after loading.
    rng = np.random.default_rng(7)
    F = rand_homog(3, 4, rng)
    data = build_certificate(F, ell=12, seed=11).to_dict()
    data["delta"] = 100.0
    for lam2 in (-0.5, 0.0):
        cert = Certificate.from_dict(data)
        cert.spec.lambdas[0] = lam2
        report = verify_certificate(F, cert, seed=11)
        assert report.checks["margin"] is False
        assert report.eq15_margin == -np.inf


@pytest.mark.parametrize("key, i, value", [
    ("e", 3, float("nan")), ("lambdas", 1, float("inf")), ("lambdas", 0, -0.5), ("lambdas", 0, 0.0),
])
def test_from_dict_refuses_bad_kernel_values(key, i, value):
    data = build_certificate(rand_homog(3, 4, np.random.default_rng(7)), ell=12).to_dict()
    data["spec"][key][i] = value
    with pytest.raises(ValueError, match=rf"{key}\[{i}\] = {value!r}"):
        Certificate.from_dict(data)


def test_wrong_dimension_rejected():
    rng = np.random.default_rng(8)
    cert = build_certificate(rand_homog(3, 2, rng), ell=4)
    with pytest.raises(ValueError):
        verify_certificate(rand_homog(4, 2, rng), cert)


def test_kernel_unreachable_harmonics():
    # ell = 1 cannot certify a quartic (no rho4 kernel exists), and ell = 2
    # not a sextic: its surrogate kernel has lambda_6 exactly 0
    rng = np.random.default_rng(9)
    for degree, ell in ((4, 1), (6, 2)):
        with pytest.raises(KernelInversionError):
            build_certificate(rand_homog(3, degree, rng), ell=ell)


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
