"""Harmonic decomposition: recursion coefficients, round trips, norm bounds."""

import itertools

import numpy as np
import pytest

from spheresos.certificate import sphere_quadrature
from spheresos.harmonic import (
    HarmonicDecomp,
    b_constant,
    decompose,
    decompose_matrix,
    r_coefficient,
)
from spheresos.poly import MatPoly, Poly, sample_sphere_array


def rand_homog(d, degree, rng):
    exps = [e for e in itertools.product(range(degree + 1), repeat=d) if sum(e) == degree]
    return Poly(d, degree, {e: rng.standard_normal() for e in exps})


def test_r_coefficient_values():
    assert r_coefficient(2, 3, 2, 0) == pytest.approx(120.0, abs=1e-12)
    assert r_coefficient(2, 3, 1, 1) == pytest.approx(14.0, abs=1e-12)
    for n, d, k in ((5, 4, 3), (1, 2, 0), (3, 9, 2)):
        assert r_coefficient(n, d, 0, k) == 1.0
    assert r_coefficient(2, 3, 2, 1) == 0.0
    assert r_coefficient(4, 5, 3, 2) == 0.0


def test_r_coefficient_matches_laplacian_action():
    # Delta^m(|x|^(2(n-k)) f_{2k}) = r |x|^(2(n-k-m)) f_{2k} for harmonic f_{2k}
    d = 4
    f2 = Poly(d, 2, {(2, 0, 0, 0): 1.0}) - Poly.norm_squared(d) * (1.0 / d)
    assert f2.laplacian().terms == {}
    n, k = 3, 1
    lifted = f2.mul_norm_power(n - k)
    for m in (1, 2):
        lhs = lifted
        for _ in range(m):
            lhs = lhs.laplacian()
        rhs = r_coefficient(n, d, m, k) * f2.mul_norm_power(n - k - m)
        assert (lhs - rhs).max_abs_coef() < 1e-10


def test_decompose_quadratic_example():
    dec = decompose(Poly.monomial(3, (2, 0, 0)))
    assert dec.parts[0].terms == {(0, 0, 0): pytest.approx(1.0 / 3.0)}
    expected_f2 = Poly.monomial(3, (2, 0, 0)) - Poly.norm_squared(3) * (1.0 / 3.0)
    assert (dec.parts[1] - expected_f2).max_abs_coef() < 1e-15


def test_decompose_quartic_example():
    dec = decompose(Poly.monomial(3, (4, 0, 0)))
    assert dec.parts[0].terms == {(0, 0, 0): pytest.approx(0.2)}
    expected_f2 = (6.0 * Poly.monomial(3, (2, 0, 0)) - 2.0 * Poly.norm_squared(3)) * (1.0 / 7.0)
    assert (dec.parts[1] - expected_f2).max_abs_coef() < 1e-14
    for part in dec.parts:
        assert part.laplacian().max_abs_coef() < 1e-12
    # numeric cross-check: f0 equals the sphere average of x1^4
    pts, w = sphere_quadrature(3, 6)
    avg = float(w @ Poly.monomial(3, (4, 0, 0)).eval_many(pts))
    assert avg == pytest.approx(0.2, abs=1e-12)


def test_decompose_rejects_odd_degree():
    with pytest.raises(ValueError):
        decompose(Poly.monomial(3, (3, 0, 0)))


def test_decompose_zero_polynomial():
    dec = decompose(Poly.zero(3, 4))
    assert all(p.terms == {} for p in dec.parts)
    assert dec.reconstruct().terms == {}


def test_round_trip_and_harmonicity():
    rng = np.random.default_rng(0)
    for _ in range(40):
        d = int(rng.integers(2, 7))
        n = int(rng.integers(1, 5))
        f = rand_homog(d, 2 * n, rng)
        dec = decompose(f)
        scale = max(f.max_abs_coef(), 1.0)
        assert (dec.reconstruct() - f).max_abs_coef() / scale < 1e-9
        for part in dec.parts:
            assert part.laplacian().max_abs_coef() <= 1e-9 * scale


def test_matrix_decompose_diagonal_example():
    F = MatPoly.diagonal([Poly.monomial(2, (2, 0)), Poly.monomial(2, (0, 2))])
    dec = decompose_matrix(F)
    f0 = dec.parts[0]
    assert f0.entry(0, 0).terms == {(0, 0): pytest.approx(0.5)}
    assert f0.entry(1, 1).terms == {(0, 0): pytest.approx(0.5)}
    assert f0.entry(0, 1).terms == {}


def test_matrix_decompose_constant():
    C = MatPoly(2, 2, 0, {
        (0, 0): Poly.constant(2, 2.0),
        (0, 1): Poly.constant(2, -1.0),
        (1, 1): Poly.constant(2, 0.5),
    })
    dec = decompose_matrix(C)
    assert dec.n == 0
    assert dec.parts[0].entry(0, 1).terms == {(0, 0): -1.0}


def test_matrix_round_trip_random_quartic():
    rng = np.random.default_rng(1)
    entries = {
        (i, j): rand_homog(3, 4, rng) for i in range(2) for j in range(i, 2)
    }
    F = MatPoly(3, 2, 4, entries)
    dec = decompose_matrix(F)
    recon = dec.reconstruct()
    assert (recon - F).max_abs_coef() < 1e-9
    for part in dec.parts:
        assert part.laplacian().max_abs_coef() < 1e-9 * max(F.max_abs_coef(), 1.0)
    # A matrix decomposes entry by entry, bit for bit as each scalar entry
    # does; also with an absent off-diagonal entry and a sparse one.
    sparse = MatPoly(3, 3, 4, {
        (0, 0): rand_homog(3, 4, rng),
        (0, 1): Poly.monomial(3, (4, 0, 0)),
        (1, 1): rand_homog(3, 4, rng),
        (2, 2): Poly.monomial(3, (2, 2, 0), -0.5),
    })
    for G in (F, sparse):
        dec = decompose(G)
        assert all(isinstance(part, MatPoly) for part in dec.parts)
        for k, part in enumerate(dec.parts):
            assert part.degree == 2 * k
            for i, j in G.entries:
                assert part.entry(i, j).terms == decompose(G.entry(i, j)).parts[k].terms
    for part in decompose(sparse).parts:
        assert (0, 2) not in part.entries and (1, 2) not in part.entries


def test_b_constant_values():
    assert b_constant(1) == 2.0
    assert b_constant(2) == 10.0
    assert b_constant(3) == 720.0 * 721.0**3
    with pytest.raises(ValueError):
        b_constant(0)


def test_projection_norm_bounds_sampled():
    # |f_{2k}|_inf <= B_{2n} |f|_inf on 1e4 sphere samples
    rng = np.random.default_rng(2)
    for d, n, reps in ((3, 1, 10), (5, 1, 10), (3, 2, 10), (6, 2, 10)):
        X = sample_sphere_array(d, 10_000, seed=40 + d + n)
        for _ in range(reps):
            f = rand_homog(d, 2 * n, rng)
            dec = decompose(f)
            sup_f = np.abs(f.eval_many(X)).max()
            for part in dec.parts:
                sup_part = np.abs(part.eval_many(X)).max() if part.terms else 0.0
                assert sup_part <= b_constant(n) * sup_f * (1 + 1e-10), (d, n)


def test_shifted_projection_bound():
    # for 0-mean-shifted f the k >= 1 parts obey the (M - m)/2 bound
    rng = np.random.default_rng(3)
    for d, n in ((3, 1), (4, 2)):
        X = sample_sphere_array(d, 10_000, seed=50 + d)
        for _ in range(10):
            f = rand_homog(d, 2 * n, rng)
            vals = f.eval_many(X)
            m, M = vals.min(), vals.max()
            dec = decompose(f)
            for part in dec.parts[1:]:
                sup_part = np.abs(part.eval_many(X)).max() if part.terms else 0.0
                assert sup_part <= b_constant(n) * (M - m) / 2 + 1e-8


def test_parts_orthogonal_on_sphere():
    rng = np.random.default_rng(4)
    for d in (3, 4):
        pts, w = sphere_quadrature(d, 10)
        f = rand_homog(d, 4, rng)
        dec = decompose(f)
        vals = [p.eval_many(pts) if p.terms else np.zeros(len(pts)) for p in dec.parts]
        for i in range(3):
            for j in range(i + 1, 3):
                inner = float(np.sum(w * vals[i] * vals[j]))
                assert abs(inner) < 1e-8


def test_harmonic_decomp_json_round_trip():
    rng = np.random.default_rng(5)
    dec = decompose(rand_homog(3, 4, rng))
    clone = HarmonicDecomp.from_dict(dec.to_dict())
    for a, b in zip(dec.parts, clone.parts):
        assert (a - b).max_abs_coef() == 0.0
    Fdec = decompose_matrix(MatPoly.diagonal([rand_homog(2, 2, rng)]))
    clone2 = HarmonicDecomp.from_dict(Fdec.to_dict())
    assert isinstance(clone2.parts[0], MatPoly) and clone2.n == 1
    # the parts carry their own type; the "matrix" key that older
    # certificates hold is not written and not read back
    data = Fdec.to_dict()
    assert "matrix" not in data
    data["matrix"] = True
    assert HarmonicDecomp.from_dict(data).to_dict() == Fdec.to_dict()
