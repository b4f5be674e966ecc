"""Gegenbauer family: normalization, recurrence, endpoints, quadrature."""

import math

import numpy as np
import pytest
from numpy.polynomial import legendre
from scipy.linalg import eigh_tridiagonal

from spheresos.certificate import sphere_quadrature
from spheresos.gegenbauer import GegenbauerBasis, _offdiagonal, harmonic_dim, weight_ratio
from spheresos.harmonic import decompose
from spheresos.poly import Poly, sample_sphere_array


def test_weight_ratio_values():
    assert weight_ratio(3) == pytest.approx(0.5, abs=1e-14)
    assert weight_ratio(2) == pytest.approx(1.0 / math.pi, abs=1e-14)
    assert weight_ratio(4) == pytest.approx(2.0 / math.pi, abs=1e-14)


def test_weight_ratio_rejects_d1():
    with pytest.raises(ValueError):
        weight_ratio(1)
    with pytest.raises(ValueError):
        GegenbauerBasis(1, 4)


def test_legendre_identity_d3():
    # d=3: C_k(t) = (2k+1) P_k(t)
    b = GegenbauerBasis(3, 8)
    t = np.linspace(-1.0, 1.0, 41)
    for k in range(9):
        expected = (2 * k + 1) * legendre.legval(t, [0.0] * k + [1.0])
        assert np.abs(b.eval_ck(k, t) - expected).max() < 1e-11


def test_endpoint_values_dimension_formula():
    for d in (2, 3, 4, 7):
        b = GegenbauerBasis(d, 10)
        for k in range(11):
            expected = harmonic_dim(d, k)
            assert b.endpoint_values[k] == expected
            assert b.eval_ck(k, 1.0) == pytest.approx(expected, rel=1e-12)
    assert harmonic_dim(3, 2) == 5
    assert harmonic_dim(4, 2) == math.comb(5, 2) - math.comb(3, 0)


def test_degree_two_closed_form():
    # C_2(t)/C_2(1) = (d t^2 - 1)/(d - 1)
    t = np.linspace(-1.0, 1.0, 17)
    for d in (2, 3, 5, 9):
        b = GegenbauerBasis(d, 2)
        got = b.eval_ck(2, t) / b.endpoint_values[2]
        expected = (d * t**2 - 1.0) / (d - 1.0)
        assert np.abs(got - expected).max() < 1e-12


def test_c0_is_one():
    for d in (2, 4, 11):
        b = GegenbauerBasis(d, 0)
        assert b.eval_ck(0, -0.3) == 1.0
        assert b.eval_ck(0, 1.0) == 1.0


def test_c2_value_d3():
    b = GegenbauerBasis(3, 4)
    assert b.eval_ck(2, 0.5) == pytest.approx(-0.625, abs=1e-13)


def test_eval_ck_degree_out_of_range():
    b = GegenbauerBasis(3, 4)
    with pytest.raises(ValueError):
        b.eval_ck(5, 0.0)


def test_endpoint_dominance():
    # |C_k(t)| <= C_k(1) on [-1, 1], attained at t = 1
    t = np.linspace(-1.0, 1.0, 2001)
    for d in (2, 3, 6):
        b = GegenbauerBasis(d, 15)
        for k in range(16):
            vals = np.abs(b.eval_ck(k, t))
            assert vals.max() <= b.endpoint_values[k] + 1e-9
            assert vals.max() == pytest.approx(b.endpoint_values[k], abs=1e-9)


def test_derivative_at_one():
    b3 = GegenbauerBasis(3, 4)
    assert b3.derivative_at_one(0) == 0.0
    assert b3.derivative_at_one(2) == pytest.approx(15.0, abs=1e-12)
    # cross-check against 5 * P_2'(1) = 5 * 3
    assert b3.derivative_at_one(2) == pytest.approx(5 * 3.0, abs=1e-12)
    # n=1 kernel average h = C_2/C_2(1): h'(1) = 2d/(d-1), which equals the
    # general (n+1)(3d+4n-4)/(3(d-1)) at n = 1
    for d in (3, 4, 8):
        b = GegenbauerBasis(d, 2)
        h_prime = b.derivative_at_one(2) / b.endpoint_values[2]
        assert h_prime == pytest.approx(2.0 * d / (d - 1.0), rel=1e-13)
        assert h_prime == pytest.approx(2 * (3 * d) / (3.0 * (d - 1)), rel=1e-13)


def test_derivative_finite_difference():
    eps = 1e-6
    for d in (2, 5):
        b = GegenbauerBasis(d, 10)
        for k in (1, 4, 9):
            fd = (b.eval_ck(k, 1.0) - b.eval_ck(k, 1.0 - eps)) / eps
            assert b.derivative_at_one(k) == pytest.approx(fd, rel=1e-4)


def test_gauss_rule_two_point_d3():
    b = GegenbauerBasis(3, 2)
    nodes, weights = b.gauss_rule(2)
    assert np.abs(np.sort(nodes) - np.array([-1, 1]) / math.sqrt(3)).max() < 1e-14
    assert np.abs(weights - 0.5).max() < 1e-14


def test_gauss_rule_probability_and_moment():
    for d in (2, 3, 4, 9):
        b = GegenbauerBasis(d, 2)
        for m in (1, 3, 8, 25):
            nodes, weights = b.gauss_rule(m)
            assert weights.sum() == pytest.approx(1.0, abs=1e-13)
            if m >= 2:
                assert (weights * nodes**2).sum() == pytest.approx(1.0 / d, abs=1e-13)


def test_gauss_rule_cached_read_only():
    # one rule per (d, node_count), bit-identical to a fresh Golub-Welsch
    # solve, read-only, and shared by every basis of that d
    for d in (2, 3, 8):
        for m in (1, 2, 17, 45):
            nodes, weights = GegenbauerBasis(d, 3).gauss_rule(m)
            if m == 1:
                ref_nodes, ref_weights = np.zeros(1), np.ones(1)
            else:
                ref_nodes, vecs = eigh_tridiagonal(np.zeros(m), _offdiagonal(d, m - 1))
                ref_weights = vecs[0, :] ** 2
            assert nodes.tobytes() == ref_nodes.tobytes(), (d, m)
            assert weights.tobytes() == ref_weights.tobytes(), (d, m)
            for arr in (nodes, weights):
                with pytest.raises(ValueError):
                    arr[0] = 0.5
            again = GegenbauerBasis(d, 40).gauss_rule(m)
            assert again[0] is nodes and again[1] is weights


def test_orthonormality_matrix():
    # pairwise inner products of C_i/sqrt(C_i(1)) under a 40-node rule
    for d in (2, 3, 5):
        b = GegenbauerBasis(d, 12)
        nodes, weights = b.gauss_rule(40)
        P = b.orthonormal_values(nodes, 12)
        gram = (P * weights) @ P.T
        assert np.abs(gram - np.eye(13)).max() < 1e-10


def test_reproducing_normalization():
    # integral of C_i C_j dmu equals delta_ij C_i(1)
    for d in (2, 4):
        b = GegenbauerBasis(d, 8)
        nodes, weights = b.gauss_rule(30)
        vals = np.array([b.eval_ck(k, nodes) for k in range(9)])
        gram = (vals * weights) @ vals.T
        expected = np.diag(b.endpoint_values)
        assert np.abs(gram - expected).max() < 1e-10


def test_recurrence_has_no_linear_shift():
    # even weight forces b_k = 0 in C_{k+1} = (a_k t + b_k) C_k - c_k C_{k-1}
    for d in (2, 3, 6):
        b = GegenbauerBasis(d, 20)
        assert np.all(b.recurrence[:, 1] == 0.0)
        # and the recurrence rows actually reproduce eval_ck
        t = np.linspace(-1, 1, 9)
        prev, cur = np.ones_like(t), b.recurrence[0, 0] * t
        for k in range(1, 20):
            a, _, c = b.recurrence[k]
            prev, cur = cur, a * t * cur - c * prev
            assert np.abs(cur - b.eval_ck(k + 1, t)).max() < 1e-9 * b.endpoint_values[k + 1]


def test_tangent_line_property():
    # C_i lies above its tangent at t = 1 on [-1, 1].  The slack tolerance is
    # scaled by C_i(1): endpoint values reach ~1e8 (derivatives ~1e10) at
    # d = 10, i = 30, so an absolute 1e-9 would sit below double-precision
    # granularity there.
    t = np.linspace(-1.0, 1.0, 1000)
    for d in range(3, 11):
        b = GegenbauerBasis(d, 30)
        for i in range(31):
            tangent = b.derivative_at_one(i) * (t - 1.0) + b.endpoint_values[i]
            slack = b.eval_ck(i, t) - tangent
            assert slack.min() >= -1e-9 * max(b.endpoint_values[i], 1.0), (d, i)


def _random_harmonic(d: int, k: int, rng) -> Poly:
    # Degree <= 4 harmonics from closed forms / the decomposition machinery.
    v = rng.standard_normal(d)
    v /= np.linalg.norm(v)
    lin = Poly(d, 1, {tuple(int(i == j) for j in range(d)): v[j] for j in range(d) for i in [j]})
    if k == 0:
        return Poly.constant(d, 1.0)
    if k == 1:
        return lin
    if k == 3:
        # (v.x)^3 - 3 |x|^2 (v.x) / (d + 2) is harmonic
        cube = lin * lin * lin
        return cube - (3.0 / (d + 2.0)) * lin.mul_norm_power(1)
    # even k: take the top harmonic part of a random homogeneous polynomial
    import itertools

    exps = [e for e in itertools.product(range(k + 1), repeat=d) if sum(e) == k]
    f = Poly(d, k, {e: rng.standard_normal() for e in exps})
    return decompose(f).parts[k // 2]


def test_reproducing_property_on_sphere():
    # integral of C_k(<x, y>) p_k(y) dsigma(y) = p_k(x) for p_k harmonic
    rng = np.random.default_rng(42)
    for d in (3, 4):
        b = GegenbauerBasis(d, 8)
        for k in range(5):
            p = _random_harmonic(d, k, rng)
            pts, w = sphere_quadrature(d, 2 * k + 4)
            pvals = p.eval_many(pts) if p.terms else np.zeros(len(pts))
            X = sample_sphere_array(d, 20, seed=100 + 10 * d + k)
            inner = X @ pts.T
            kernel = np.array([b.eval_ck(k, row) for row in inner])
            integral = kernel @ (w * pvals)
            direct = p.eval_many(X)
            assert np.abs(integral - direct).max() < 1e-8, (d, k)
