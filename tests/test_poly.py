"""Polynomial arithmetic, evaluation, Laplacian, sphere sampling, sup norms."""

import itertools
import math

import numpy as np
import pytest

from spheresos.poly import (
    MatPoly,
    Poly,
    SpherePoint,
    from_dict,
    min_sphere,
    sample_sphere,
    sample_sphere_array,
    sup_norm_sphere,
)


def rand_homog(d, degree, rng, scale=1.0):
    exps = [e for e in itertools.product(range(degree + 1), repeat=d) if sum(e) == degree]
    return Poly(d, degree, {e: scale * rng.standard_normal() for e in exps})


def test_eval_monomial_at_unit_vector():
    p = Poly.monomial(3, (2, 0, 0))
    assert p.eval([1.0, 0.0, 0.0]) == 1.0


def test_eval_norm_squared_on_sphere():
    p = Poly.norm_squared(3)
    for x in sample_sphere_array(3, 10, seed=0):
        assert p.eval(x) == pytest.approx(1.0, abs=1e-12)


def test_eval_diagonal_quartic():
    p = Poly(2, 4, {(4, 0): 1.0, (0, 4): 1.0})
    x = np.array([1.0, 1.0]) / math.sqrt(2)
    assert p.eval(x) == pytest.approx(0.5, abs=1e-14)


def test_eval_dimension_mismatch():
    p = Poly.monomial(3, (2, 0, 0))
    with pytest.raises(ValueError):
        p.eval([1.0, 0.0])


def test_homogeneity():
    rng = np.random.default_rng(1)
    for d, degree in ((2, 3), (4, 4), (5, 6)):
        p = rand_homog(d, degree, rng)
        for _ in range(10):
            x = rng.standard_normal(d)
            t = rng.uniform(0.3, 2.5)
            lhs = p.eval(t * x)
            rhs = t**degree * p.eval(x)
            assert lhs == pytest.approx(rhs, rel=1e-10)


def test_laplacian_examples():
    assert Poly.monomial(3, (4, 0, 0)).laplacian().terms == {(2, 0, 0): 12.0}
    for d in (2, 5, 9):
        assert Poly.norm_squared(d).laplacian().terms == {(0,) * d: 2.0 * d}
    twice = Poly.monomial(3, (4, 0, 0)).laplacian().laplacian()
    assert twice.terms == {(0, 0, 0): 24.0}


def test_laplacian_low_degree_is_zero():
    assert Poly.monomial(2, (1, 0)).laplacian().terms == {}
    assert Poly.constant(2, 3.0).laplacian().terms == {}


def test_laplacian_linearity_exact():
    # exact coefficient-wise equality: integer coefficients keep every float
    # operation exact, so the two evaluation orders must agree bit-for-bit
    rng = np.random.default_rng(2)
    exps = [e for e in itertools.product(range(5), repeat=3) if sum(e) == 4]
    p = Poly(3, 4, {e: float(rng.integers(-8, 9)) for e in exps})
    q = Poly(3, 4, {e: float(rng.integers(-8, 9)) for e in exps})
    a, b = 3.0, -2.0
    lhs = (a * p + b * q).laplacian()
    rhs = a * p.laplacian() + b * q.laplacian()
    assert lhs.terms == rhs.terms
    # and within float rounding for generic coefficients
    pf, qf = rand_homog(3, 4, rng), rand_homog(3, 4, rng)
    diff = (2.5 * pf + 1.5 * qf).laplacian() - (2.5 * pf.laplacian() + 1.5 * qf.laplacian())
    assert diff.max_abs_coef() < 1e-13


def test_mul_norm_power_examples():
    assert Poly.monomial(2, (1, 0)).mul_norm_power(1).terms == {(3, 0): 1.0, (1, 2): 1.0}
    assert Poly.constant(2, 1.0).mul_norm_power(2).terms == {
        (4, 0): 1.0, (2, 2): 2.0, (0, 4): 1.0,
    }
    p = rand_homog(3, 2, np.random.default_rng(3))
    assert p.mul_norm_power(0).terms == p.terms


def test_reznick_laplacian_bound():
    # sup |Delta^k p| <= d^k (m)_{2k} sup |p| on sphere samples
    rng = np.random.default_rng(4)
    for d, m in ((3, 4), (4, 6), (6, 8), (5, 3)):
        p = rand_homog(d, m, rng)
        X = sample_sphere_array(d, 10_000, seed=17)
        sup_p = np.abs(p.eval_many(X)).max()
        q = p
        falling = 1.0
        for k in range(1, m // 2 + 1):
            q = q.laplacian()
            falling *= (m - 2 * k + 2) * (m - 2 * k + 1)
            sup_q = np.abs(q.eval_many(X)).max() if q.terms else 0.0
            assert sup_q <= d**k * falling * sup_p * (1 + 1e-12), (d, m, k)


def test_sup_norm_squared_coordinate():
    est = sup_norm_sphere(Poly.monomial(3, (2, 0, 0)), restarts=16, seed=0)
    assert est.max_est == pytest.approx(1.0, abs=1e-9)
    assert est.min_est == pytest.approx(0.0, abs=1e-9)


def test_sup_norm_rank_one_quadratic():
    rng = np.random.default_rng(5)
    v = rng.standard_normal(4)
    v /= np.linalg.norm(v)
    lin = Poly(4, 1, {tuple(int(i == j) for i in range(4)): v[j] for j in range(4)})
    est = sup_norm_sphere(lin * lin, restarts=24, seed=1)
    assert est.max_est == pytest.approx(1.0, abs=1e-9)
    assert abs(abs(float(est.argmax.coords @ v)) - 1.0) < 1e-6


def test_sup_norm_quartic_min_against_grid_oracle():
    # dense 1e4-point grid on the circle as the independent oracle
    p = Poly(2, 4, {(4, 0): 1.0, (0, 4): 1.0})
    angles = np.linspace(0.0, 2 * np.pi, 10_000, endpoint=False)
    grid = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    oracle_min = p.eval_many(grid).min()
    est = sup_norm_sphere(p, restarts=32, seed=2)
    assert est.min_est == pytest.approx(0.5, abs=1e-9)
    assert est.min_est <= oracle_min + 1e-12
    diag = np.abs(est.argmin.coords)
    assert np.abs(diag - 1 / math.sqrt(2)).max() < 1e-5


def test_sup_norm_monotone_in_restarts():
    rng = np.random.default_rng(6)
    p = rand_homog(4, 6, rng)
    prev = -np.inf
    for r in (1, 2, 4, 8, 16):
        est = sup_norm_sphere(p, restarts=r, seed=3)
        assert est.max_est >= prev - 1e-10
        prev = est.max_est


def test_sup_norm_inner_bound_property():
    # estimates never exceed a dense random sample's implied range
    rng = np.random.default_rng(7)
    p = rand_homog(3, 4, rng)
    est = sup_norm_sphere(p, restarts=16, seed=4)
    X = sample_sphere_array(3, 50_000, seed=5)
    vals = p.eval_many(X)
    assert est.max_est >= vals.max() - 1e-6
    assert est.min_est <= vals.min() + 1e-6
    # and the returned args actually achieve the estimates
    assert p.eval(est.argmax.coords) == pytest.approx(est.max_est, rel=1e-12)
    assert p.eval(est.argmin.coords) == pytest.approx(est.min_est, rel=1e-12)


def test_matpoly_sup_norm_eigen_range():
    F = MatPoly.diagonal([Poly.monomial(2, (2, 0)), Poly.monomial(2, (0, 2))])
    est = sup_norm_sphere(F, restarts=16, seed=0)
    assert est.max_est == pytest.approx(1.0, abs=1e-8)
    assert est.min_est == pytest.approx(0.0, abs=1e-8)


def test_sample_sphere_determinism_and_norms():
    a = sample_sphere(3, 2, seed=7)
    b = sample_sphere(3, 2, seed=7)
    for pa, pb in zip(a, b):
        assert np.array_equal(pa.coords, pb.coords)
        assert abs(np.linalg.norm(pa.coords) - 1.0) <= 1e-12
    for pt in sample_sphere(1, 4, seed=8):
        assert pt.coords[0] in (1.0, -1.0)


def test_sample_sphere_nested_streams():
    # the first r samples for restarts r are a prefix of those for r + 1
    a = sample_sphere_array(5, 6, seed=9)
    b = sample_sphere_array(5, 9, seed=9)
    assert np.array_equal(a, b[:6])


def test_sphere_point_validation():
    with pytest.raises(ValueError):
        SpherePoint(3, np.array([1.0, 1.0, 0.0]))
    with pytest.raises(ValueError):
        SpherePoint(3, np.array([1.0, 0.0]))


def test_poly_json_round_trip():
    rng = np.random.default_rng(10)
    p = rand_homog(3, 4, rng)
    q = Poly.from_dict(p.to_dict())
    assert q == p
    # canonical term order: graded lex, exponents descending
    order = [tuple(t["exp"]) for t in p.to_dict()["terms"]]
    assert order == sorted(order, reverse=True)


def test_poly_json_rejects_bad_degree():
    with pytest.raises(ValueError):
        Poly.from_dict({"d": 2, "degree": 3, "terms": [{"exp": [1, 1], "coef": 1.0}]})


def test_matpoly_shape_and_json():
    rng = np.random.default_rng(11)
    entries = {
        (0, 0): rand_homog(3, 2, rng),
        (0, 1): rand_homog(3, 2, rng),
        (1, 1): rand_homog(3, 2, rng),
    }
    F = MatPoly(3, 2, 2, entries)
    x = sample_sphere_array(3, 4, seed=12)
    vals = F.eval_many(x)
    assert np.abs(vals - vals.transpose(0, 2, 1)).max() == 0.0
    G = MatPoly.from_dict(F.to_dict())
    assert G.entries[(0, 1)] == F.entries[(0, 1)]


def test_from_dict_reads_the_type_from_the_json():
    scalar = Poly.monomial(3, (2, 0, 0), 1.5)
    matrix = MatPoly.diagonal([scalar, Poly.zero(3, 2)])
    assert from_dict(scalar.to_dict()) == scalar
    loaded = from_dict(matrix.to_dict())
    assert isinstance(loaded, MatPoly) and loaded.k == 2 and loaded.entries == matrix.entries
    for bad in ([1, 2], 5, None):
        with pytest.raises(ValueError, match="malformed polynomial JSON"):
            from_dict(bad)


def test_matpoly_mixed_degree_rejected():
    with pytest.raises(ValueError):
        MatPoly(2, 2, 2, {(0, 0): Poly.monomial(2, (4, 0))})


def test_zero_polynomial_carries_degree():
    z = Poly.zero(3, 4)
    assert z.degree == 4 and z.terms == {}
    assert z.eval_many(sample_sphere_array(3, 3, seed=0)).tolist() == [0.0, 0.0, 0.0]


# -- compiled evaluation against a termwise reference ------------------------

def termwise(p, x):
    """Plain-Python value of p at the point x, one term at a time."""
    return sum(c * math.prod(xi**e for xi, e in zip(x, exps)) for exps, c in p.terms.items())


def scalar_cases():
    rng = np.random.default_rng(20)
    return [
        Poly.zero(3, 4),
        Poly.constant(3, -2.5),
        rand_homog(3, 4, rng),
        rand_homog(5, 6, rng),
    ]


@pytest.mark.parametrize("p", scalar_cases(), ids=["zero", "constant", "quartic_d3", "sextic_d5"])
def test_compiled_eval_and_gradient_match_termwise(p):
    X = np.random.default_rng(21).standard_normal((5, p.d))
    vals = p.eval_many(X)
    grads = p.gradient_many(X)
    assert vals.shape == (5,) and grads.shape == (5, p.d)
    for x, v, g in zip(X, vals, grads):
        assert v == pytest.approx(termwise(p, x), rel=1e-12, abs=1e-12)
        for a in range(p.d):
            assert g[a] == pytest.approx(termwise(p.partial(a), x), rel=1e-12, abs=1e-12)


def test_compiled_eval_across_row_chunks(monkeypatch):
    # with a tiny chunk a batch of 11 rows is evaluated in several pieces
    from spheresos import poly as poly_mod

    p = rand_homog(3, 4, np.random.default_rng(22))
    X = np.random.default_rng(23).standard_normal((11, 3))
    whole_vals, whole_grads = p.eval_many(X), p.gradient_many(X)
    monkeypatch.setattr(poly_mod, "_EVAL_CHUNK_ENTRIES", 40)
    # rows are independent; only BLAS summation order may differ
    assert np.allclose(p.eval_many(X), whole_vals, rtol=1e-13, atol=1e-14)
    assert np.allclose(p.gradient_many(X), whole_grads, rtol=1e-13, atol=1e-14)
    for x, v in zip(X, whole_vals):
        assert v == pytest.approx(termwise(p, x), rel=1e-12)


@pytest.mark.parametrize("k", [1, 3])
def test_compiled_matpoly_eval_and_gradient(k):
    rng = np.random.default_rng(24 + k)
    if k == 3:  # sparse: (0, 1) and (1, 2) absent
        entries = {key: rand_homog(3, 4, rng) for key in [(0, 0), (0, 2), (1, 1), (2, 2)]}
    else:
        entries = {(0, 0): rand_homog(3, 4, rng)}
    F = MatPoly(3, k, 4, entries)
    X = np.random.default_rng(26).standard_normal((4, 3))
    vals = F.eval_many(X)
    grads = F.gradient_many(X)
    assert vals.shape == (4, k, k) and grads.shape == (4, 3, k, k)
    assert np.array_equal(vals, vals.transpose(0, 2, 1))
    assert np.array_equal(grads, grads.transpose(0, 1, 3, 2))
    for n, x in enumerate(X):
        for i in range(k):
            for j in range(k):
                p = F.entry(i, j)
                assert vals[n, i, j] == pytest.approx(termwise(p, x), rel=1e-12, abs=1e-12)
                for a in range(3):
                    ref = termwise(p.partial(a), x)
                    assert grads[n, a, i, j] == pytest.approx(ref, rel=1e-12, abs=1e-12)


def test_edited_terms_recompile_after_reset():
    p = Poly.monomial(3, (2, 0, 0))
    x = np.array([[0.5, 0.5, 0.0]])
    assert p.eval_many(x)[0] == 0.25
    p.terms[(0, 2, 0)] = 1.0
    p._arrays = None
    assert p.eval_many(x)[0] == 0.5
    assert p.gradient_many(x)[0].tolist() == [1.0, 1.0, 0.0]


def edge_cases():
    rng = np.random.default_rng(27)
    return [
        rand_homog(2, 16, rng),  # long power-table rows
        rand_homog(3, 10, rng),
        # x_1 and x_3 never occur
        Poly(5, 4, {(4, 0, 0, 0, 0): 1.5, (1, 0, 3, 0, 0): -2.0, (2, 0, 1, 0, 1): 0.75}),
        Poly.constant(4, 3.25),
    ]


@pytest.mark.parametrize("p", edge_cases(), ids=["d2_deg16", "d3_deg10", "unused_vars", "deg0"])
def test_compiled_eval_edge_cases_match_termwise(p):
    X = np.random.default_rng(28).standard_normal((6, p.d))
    vals = p.eval_many(X)
    grads = p.gradient_many(X)
    for x, v, g in zip(X, vals, grads):
        assert v == pytest.approx(termwise(p, x), rel=1e-13, abs=0.0)
        for a in range(p.d):
            assert g[a] == pytest.approx(termwise(p.partial(a), x), rel=1e-13, abs=0.0)


# -- one sup-norm path for scalars and matrices ------------------------------

@pytest.mark.parametrize("seed", [0, 1])
def test_sup_norm_scalar_equals_one_by_one_matrix(seed):
    p = rand_homog(3, 4, np.random.default_rng(30 + seed))
    a = sup_norm_sphere(p, restarts=12, seed=seed)
    b = sup_norm_sphere(MatPoly.diagonal([p]), restarts=12, seed=seed)
    assert b.max_est == pytest.approx(a.max_est, rel=1e-12)
    assert b.min_est == pytest.approx(a.min_est, rel=1e-12)
    assert b.converged == a.converged
    assert b.converged_restarts == a.converged_restarts


def test_extremes_read_the_values_or_the_eigenvalue_ends():
    rng = np.random.default_rng(50)
    X = sample_sphere_array(3, 50, seed=3)
    p = rand_homog(3, 4, rng)
    low, high = p.extremes(X)
    values = p.eval_many(X)
    assert np.array_equal(low, values) and np.array_equal(high, values)
    F = MatPoly(3, 3, 2, {(i, j): rand_homog(3, 2, rng) for i in range(3) for j in range(i, 3)})
    low, high = F.extremes(X)
    w = np.linalg.eigvalsh(F.eval_many(X))
    assert np.array_equal(low, w[:, 0]) and np.array_equal(high, w[:, -1])


def test_sup_norm_converged_restart_count():
    p = rand_homog(3, 4, np.random.default_rng(32))
    done = sup_norm_sphere(p, restarts=10, seed=0)
    assert done.converged and done.converged_restarts == 10
    # two steps are too few for any restart to settle
    capped = sup_norm_sphere(p, restarts=10, seed=0, iters=2)
    assert not capped.converged
    assert capped.converged_restarts < capped.restarts == 10


def _sup_norm_cases():
    rng = np.random.default_rng(33)
    quartic = rand_homog(3, 4, rng)
    entries = {(i, j): rand_homog(3, 2, rng) for i in range(3) for j in range(i, 3)}
    return [quartic, MatPoly(3, 3, 2, entries)]


@pytest.mark.parametrize("F", _sup_norm_cases(), ids=["quartic", "matrix_3x3"])
def test_sup_norm_one_evaluation_per_ascent_step(F, monkeypatch):
    # max and min searches share every step: one gradients call per step,
    # plus the starting evaluation, with the values taken from it by Euler's
    # identity; the final points are evaluated directly once
    calls = {"eval_many": 0, "gradient_many": 0}
    cls = type(F)
    for name in calls:
        method = getattr(cls, name)

        def counted(self, X, _method=method, _name=name):
            calls[_name] += 1
            return _method(self, X)

        monkeypatch.setattr(cls, name, counted)
    iters = 10
    # a tolerance no restart reaches in 10 steps keeps every row moving
    sup_norm_sphere(F, restarts=8, seed=0, iters=iters, grad_tol=1e-300)
    assert calls["eval_many"] == 1
    assert 1 < calls["gradient_many"] <= iters + 1


@pytest.mark.parametrize("F", _sup_norm_cases(), ids=["quartic", "matrix_3x3"])
def test_sup_norm_of_negation_mirrors(F):
    a = sup_norm_sphere(F, restarts=12, seed=5)
    b = sup_norm_sphere(F * -1.0, restarts=12, seed=5)
    assert b.max_est == pytest.approx(-a.min_est, rel=1e-12)
    assert b.min_est == pytest.approx(-a.max_est, rel=1e-12)
    assert b.converged_restarts == a.converged_restarts


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("F", _sup_norm_cases(), ids=["quartic", "matrix_3x3"])
def test_min_sphere_matches_two_sided_minimum(F, seed):
    # the descent rows alone follow the same paths as in the two-sided
    # batch; only the rounding floor's scale can differ
    both = sup_norm_sphere(F, restarts=16, seed=seed)
    low = min_sphere(F, restarts=16, seed=seed)
    assert low.min_est == pytest.approx(both.min_est, rel=1e-12, abs=1e-14)
    assert low.restarts == 16
    assert both.converged_restarts <= low.converged_restarts <= 16
    assert 0 <= low.floor_restarts <= low.converged_restarts
    at = F.eval(low.argmin.coords)
    lowest = float(np.linalg.eigvalsh(at)[0]) if isinstance(F, MatPoly) else at
    assert lowest == pytest.approx(low.min_est, rel=1e-12, abs=1e-14)


def test_min_sphere_rejects_no_restarts():
    with pytest.raises(ValueError, match="restarts must be >= 1"):
        min_sphere(Poly.norm_squared(3), restarts=0)


# -- cheaper search steps ----------------------------------------------------

def _euler_cases():
    rng = np.random.default_rng(40)
    scalars = [rand_homog(3, degree, rng) for degree in range(1, 9)]
    entries = {(i, j): rand_homog(3, 4, rng) for i in range(3) for j in range(i, 3)}
    return scalars + [MatPoly(3, 3, 4, entries), Poly.constant(3, -1.75)]


@pytest.mark.parametrize(
    "F", _euler_cases(), ids=[f"deg{k}" for k in range(1, 9)] + ["matrix_3x3", "deg0"]
)
def test_euler_values_match_direct_evaluation(F):
    from spheresos.poly import _euler_values

    X = np.vstack([
        sample_sphere_array(3, 20, seed=41),
        np.random.default_rng(42).standard_normal((5, 3)),
    ])
    direct = F.eval_many(X)
    euler = _euler_values(F, X, F.gradient_many(X))
    assert euler.shape == direct.shape
    scale = max(np.abs(direct).max(), 1.0)
    assert np.abs(euler - direct).max() <= 1e-13 * scale


def _per_variable_apply(m, X):
    """Former evaluation: one gathered factor per used variable, x^0 included."""
    nv, width = m._vars.size, m._width
    table = np.empty((nv, width, X.shape[0]))
    table[:, 0] = 1.0
    table[:, 1:] = X.T[m._vars][:, None, :]
    np.multiply.accumulate(table, axis=1, out=table)
    mono = np.ones((m.exps.shape[0], X.shape[0]))
    for t, var in enumerate(m._vars):
        mono *= table[t][m.exps[:, var]]
    return mono.T @ m.coefs


def _gather_cases():
    rng = np.random.default_rng(43)
    return [
        rand_homog(2, 16, rng),
        # x_1 and x_3 never occur
        Poly(5, 4, {(4, 0, 0, 0, 0): 1.5, (1, 0, 3, 0, 0): -2.0, (2, 0, 1, 0, 1): 0.75}),
        rand_homog(8, 4, rng),
        Poly.constant(4, 3.25),
    ]


@pytest.mark.parametrize("p", _gather_cases(), ids=["d2_deg16", "unused_vars", "d8_quartic", "deg0"])
def test_nonzero_factor_gather_is_bit_identical(p):
    X = np.random.default_rng(44).standard_normal((7, p.d))
    compiled = p._compiled()
    for m in (compiled.values, compiled.partials):
        assert np.array_equal(m.apply(X), _per_variable_apply(m, X))


@pytest.mark.parametrize(
    "p, top, bottom",
    [
        (Poly(4, 2, {(2, 0, 0, 0): 3.0, (0, 2, 0, 0): 1.0, (0, 0, 2, 0): -0.5, (0, 0, 0, 2): -2.0}), 3.0, -2.0),
        (Poly(3, 4, {(4, 0, 0): 1.0, (0, 4, 0): 1.0, (0, 0, 4): 1.0}), 1.0, 1.0 / 3.0),
    ],
    ids=["diagonal_quadratic", "sum_of_fourth_powers"],
)
def test_sup_norm_known_extremes_stop_before_cap(p, top, bottom):
    est = sup_norm_sphere(p, restarts=16, seed=7)
    assert est.converged and est.converged_restarts == 16
    assert 0 <= est.floor_restarts <= est.converged_restarts
    assert abs(est.max_est - top) <= 1e-14
    assert abs(est.min_est - bottom) <= 1e-14


def test_internal_arithmetic_matches_validated_construction():
    rng = np.random.default_rng(45)
    p, q = rand_homog(3, 4, rng), rand_homog(3, 4, rng)
    results = [
        p + q,
        p - p,  # every coefficient cancels exactly
        p * q,
        2.5 * p,
        p * 0.0,
        p.laplacian(),
        p.partial(1),
        p.mul_norm_power(2),
        Poly.constant(3, 1.0).mul_norm_power(3),
    ]
    for r in results:
        checked = Poly(r.d, r.degree, r.terms)
        assert r.terms == checked.terms
        assert all(type(c) is float and c != 0.0 for c in r.terms.values())
        assert all(type(a) is int for e in r.terms for a in e)
    assert (p - p).terms == {} and (p * 0.0).terms == {}
    # |x|^(2j) by shifts is the product with norm_squared, term for term
    nsq = Poly.norm_squared(3)
    assert p.mul_norm_power(2).terms == (p * nsq * nsq).terms


def _count_gradient_calls(monkeypatch) -> dict:
    calls = {"gradient_many": 0}
    method = Poly.gradient_many

    def counted(self, X):
        calls["gradient_many"] += 1
        return method(self, X)

    monkeypatch.setattr(Poly, "gradient_many", counted)
    return calls


def test_rounding_floor_stops_before_step_collapse(monkeypatch):
    # The floor test changes only when a row stops, never its trajectory, so
    # with it switched off (_FLOOR_ULPS = 0) every row follows the same steps
    # and stops by a small gradient or a collapsed step at the same call as
    # with it on.  A search that ends sooner with it on therefore had a row
    # stopped by the floor test, before its step collapsed.  (Counting
    # halvings from 0.25 does not bound a collapse: a halving run starts
    # from the row's last secant step, which can be far smaller.)
    import spheresos.poly as poly_mod

    calls = _count_gradient_calls(monkeypatch)
    p = Poly(3, 4, {(4, 0, 0): 1.0, (0, 4, 0): 1.0, (0, 0, 4): 1.0})
    est = sup_norm_sphere(p, restarts=16, seed=7)
    with_floor, calls["gradient_many"] = calls["gradient_many"], 0
    monkeypatch.setattr(poly_mod, "_FLOOR_ULPS", 0.0)
    sup_norm_sphere(p, restarts=16, seed=7)
    assert est.converged and est.floor_restarts > 0
    assert with_floor < 45
    assert with_floor < calls["gradient_many"]


def test_close_eigenvalues_converge_before_cap():
    # x^T A x on S^2 whose two lowest eigenvalues sit close, so a
    # fixed-ratio step crawls to the minimum
    Q, _ = np.linalg.qr(np.random.default_rng(10011).standard_normal((3, 3)))
    A = Q @ np.diag([0.9, -2.081, -2.154]) @ Q.T
    terms = {}
    for i, j in itertools.product(range(3), repeat=2):
        e = [0, 0, 0]
        e[i] += 1
        e[j] += 1
        terms[tuple(e)] = terms.get(tuple(e), 0.0) + A[i, j]
    est = sup_norm_sphere(Poly(3, 2, terms), restarts=12, seed=0)
    assert est.converged and est.converged_restarts == 12
    assert abs(est.min_est - (-2.154)) <= 1e-12
    assert abs(est.max_est - 0.9) <= 1e-12


def test_secant_steps_bound_gradient_calls(monkeypatch):
    # the bound sits between the 33 batch evaluations secant steps make on
    # this quartic and the 64 a fixed-ratio step rule makes
    calls = _count_gradient_calls(monkeypatch)
    est = sup_norm_sphere(rand_homog(3, 4, np.random.default_rng(55)), restarts=64, seed=0)
    assert est.converged
    assert calls["gradient_many"] <= 48
