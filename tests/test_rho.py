"""Convergence-rate quantities: exact small cases, proxies, optimality, tables.

The rho_tilde scaling-law grid check lives in tests/test_acceptance.py
(criterion 3): it asserts a bound derived from the largest root of
C_{l+1}, and that the claimed constant (7n^2/12)(d/l)^2 fails at d = 3.
"""

import math

import numpy as np
import pytest

from spheresos import rho as rho_mod
from spheresos import toeplitz as tz
from spheresos.gegenbauer import GegenbauerBasis
from spheresos.rho import rate_table, rho2, rho4, rho_from_tilde, rho_tilde


def test_rho2_small_case_exact():
    value, spec = rho2(3, 1)
    assert value == pytest.approx(1.5, abs=1e-10)
    assert spec.lambdas[0] == pytest.approx(0.4, abs=1e-12)
    assert np.abs(spec.e - np.array([0.0, 1.0])).max() < 1e-10


def test_rho2_rejects_bad_ell():
    with pytest.raises(ValueError):
        rho2(3, 0)


def test_kernel_spec_invariants():
    for d, ell, n in ((3, 6, 1), (4, 9, 2), (5, 14, 3)):
        _, spec = rho_tilde(d, ell, n)
        assert np.linalg.norm(spec.e) == pytest.approx(1.0, abs=1e-12)
        assert np.all(spec.lambdas > 0.0)
        assert np.all(spec.lambdas <= 1.0 + 1e-10)
        recomputed = float(np.sum(np.abs(1.0 / spec.lambdas - 1.0)))
        assert abs(recomputed - spec.rho_value) <= 1e-12
        # canonical sign: largest-magnitude entry positive
        assert spec.e[int(np.argmax(np.abs(spec.e)))] > 0


def test_rho_tilde_small_case():
    value, _ = rho_tilde(3, 1, 1)
    assert value == pytest.approx(0.6, abs=1e-12)


def test_rho_tilde_nonnegative():
    for d, ell, n in ((3, 2, 1), (4, 8, 2), (6, 10, 3)):
        value, _ = rho_tilde(d, ell, n)
        assert value >= 0.0


def test_rho_from_tilde():
    assert rho_from_tilde(0.0) == 0.0
    assert rho_from_tilde(0.5) == pytest.approx(1.0, abs=1e-15)
    for t in (0.05, 0.2, 0.5):
        assert rho_from_tilde(t) <= 2.0 * t + 1e-15
    with pytest.raises(ValueError):
        rho_from_tilde(1.0)
    with pytest.raises(ValueError):
        rho_from_tilde(-0.1)


def test_rho4_dominates_rho2():
    for d, ell in ((3, 8), (4, 12)):
        v2, _ = rho2(d, ell)
        v4, _ = rho4(d, ell)
        assert v4 >= v2 - 1e-12


def test_rho4_vs_tilde_surrogate():
    for d, ell in ((3, 12), (5, 20)):
        v4, _ = rho4(d, ell)
        t4, _ = rho_tilde(d, ell, 2)
        assert t4 < 1.0
        assert v4 <= rho_from_tilde(t4) + 1e-10


def test_rho4_sweep_dominance():
    # rho4 is at least as good as the objective at the rho_tilde-optimal
    # e, which is one feasible point of the range
    for d, ell in ((3, 10), (4, 14)):
        v4, _ = rho4(d, ell)
        _, tilde_spec = rho_tilde(d, ell, 2)
        obj_at_tilde = float(np.sum(np.abs(1.0 / tilde_spec.lambdas - 1.0)))
        assert v4 <= obj_at_tilde + 1e-10


def test_rho4_boundary_optimum():
    # rho4 finds the root of the optimality condition of min 1/a + 1/b - 2
    # along the boundary curve u(theta) by an Illinois search over banded
    # top-eigenpair solves; a dense theta grid over the same curve must
    # not beat it, and its kernel must be the top eigenvector at the angle
    # theta* = atan2(lambda_2^2, lambda_4^2) that the condition names
    thetas = np.linspace(0.0, np.pi / 2, 2001)
    for d, ell in ((2, 2), (2, 5), (3, 12), (5, 30), (8, 80)):
        value, spec = rho4(d, ell)
        basis = GegenbauerBasis(d, ell + 4)
        A = tz.build_single_gegenbauer(basis, ell, 2).matrix
        B = tz.build_single_gegenbauer(basis, ell, 4).matrix
        grid_min = np.inf
        for theta in thetas:
            u = np.linalg.eigh(np.cos(theta) * A + np.sin(theta) * B)[1][:, -1]
            a, b = u @ A @ u, u @ B @ u
            if a > 0 and b > 0:
                grid_min = min(grid_min, 1.0 / a + 1.0 / b - 2.0)
        assert value <= grid_min * (1.0 + 1e-12), (d, ell)

        lam2, lam4 = spec.lambdas
        theta_star = np.arctan2(lam2**2, lam4**2)
        M = np.cos(theta_star) * A + np.sin(theta_star) * B
        mu = spec.e @ M @ spec.e
        assert np.linalg.norm(M @ spec.e - mu * spec.e) <= 1e-9, (d, ell)
        assert mu >= np.linalg.eigvalsh(M)[-1] - 1e-9, (d, ell)
        if d == 2:
            assert spec.skipped_directions >= 1, ell


def _rho4_dense_bisection(d, ell):
    # the former rho4: dense eigh at every probe, plain bisection of
    # g(theta) = theta - atan2(a^2, b^2) to width 1e-10
    basis = GegenbauerBasis(d, ell + 4)
    A = tz.build_single_gegenbauer(basis, ell, 2).matrix
    B = tz.build_single_gegenbauer(basis, ell, 4).matrix

    def g(theta):
        u = np.linalg.eigh(math.cos(theta) * A + math.sin(theta) * B)[1][:, -1]
        a, b = float(u @ A @ u), float(u @ B @ u)
        if b <= 0 or a <= 0:
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
    u = u / np.linalg.norm(u)
    return 1.0 / float(u @ A @ u) + 1.0 / float(u @ B @ u) - 2.0


def test_rho4_matches_dense_bisection(monkeypatch):
    calls = []
    solver = tz.eig_banded

    def counting(*args, **kwargs):
        calls.append(1)
        return solver(*args, **kwargs)

    monkeypatch.setattr(tz, "eig_banded", counting)
    for d in range(2, 9):
        for ell in (2, 3, 5, 12, 30, 80):
            calls.clear()
            value, _ = rho4(d, ell)
            assert len(calls) <= 16, (d, ell, len(calls))
            oracle = _rho4_dense_bisection(d, ell)
            assert value == pytest.approx(oracle, rel=1e-12), (d, ell)


def test_banded_top_eigenpair_matches_dense(monkeypatch):
    for d, ell in ((2, 3), (3, 12), (5, 30), (8, 80)):
        basis = GegenbauerBasis(d, ell + 4)
        A = tz.build_single_gegenbauer(basis, ell, 2).matrix
        B = tz.build_single_gegenbauer(basis, ell, 4).matrix
        for M in (A, B, *(math.cos(t) * A + math.sin(t) * B for t in (0.3, 0.9, 1.4))):
            lam, u = tz.top_eigenpair(tz.upper_band(M, 4))
            w, V = np.linalg.eigh(M)
            assert lam == pytest.approx(w[-1], abs=1e-13), (d, ell)
            assert abs(float(u @ V[:, -1])) >= 1.0 - 1e-12, (d, ell)

    # lambda_max solves T[h] from its band with one eig_banded call: on
    # rho_tilde's multipliers (n = 1..3) and on a monomial multiplier of
    # mixed parity.
    calls = []
    solver = tz.eig_banded

    def counting(*args, **kwargs):
        calls.append(1)
        return solver(*args, **kwargs)

    monkeypatch.setattr(tz, "eig_banded", counting)
    for d in (3, 5):
        for ell in (1, 3, 12, 30, 80):
            basis = GegenbauerBasis(d, ell + 6)
            ops = []
            for n in (1, 2, 3):
                coeffs = np.zeros(2 * n + 1)
                coeffs[2 : 2 * n + 1 : 2] = 1.0 / n
                ops.append(tz.build(basis, ell, coeffs, kind="gegenbauer"))
            ops.append(tz.build(basis, ell, [0.5, -0.2, 1.0, 0.3]))
            for op in ops:
                calls.clear()
                lam, u = tz.lambda_max(op)
                assert len(calls) == 1
                w, V = np.linalg.eigh(op.matrix)
                key = (d, ell, op.h_descriptor)
                assert lam == pytest.approx(w[-1], abs=1e-13), key
                assert abs(float(u @ V[:, -1])) >= 1.0 - 1e-12, key
                assert u[int(np.argmax(np.abs(u)))] > 0, key


def test_cached_toeplitz_is_fresh_build_and_read_only():
    for d, ell, k in ((2, 3, 4), (3, 12, 2), (5, 30, 6), (8, 80, 4)):
        op = rho_mod._gegenbauer_toeplitz(d, ell, rho_mod._harmonic(k))
        fresh = tz.build_single_gegenbauer(GegenbauerBasis(d, ell + k), ell, k)
        assert np.array_equal(op.matrix, fresh.matrix), (d, ell, k)
        with pytest.raises(ValueError):
            op.matrix[0, 0] = 1.0
    # bases are shared between max_degrees of one power-of-two block
    assert rho_mod._cached_basis(3, 5) is rho_mod._cached_basis(3, 8)


def test_rate_table_solves_each_n1_cell_once(monkeypatch):
    calls = []
    solve = rho_mod.rho_tilde

    def counting(d, ell, n):
        calls.append((d, ell, n))
        return solve(d, ell, n)

    monkeypatch.setattr(rho_mod, "rho_tilde", counting)
    rows = rate_table([3, 4], [4, 6], [1])
    assert sorted(calls) == [(3, 4, 1), (3, 6, 1), (4, 4, 1), (4, 6, 1)]
    for r in rows:
        assert r["rho_tilde"] == solve(r["d"], r["ell"], 1)[0]
        assert r["rho2"] == rho2(r["d"], r["ell"])[0]


def _pattern_search_oracle(A: np.ndarray, e0: np.ndarray, iters: int = 2000):
    # derivative-free refinement of min |1/(e^T A e) - 1| over the unit
    # sphere; independent of any eigendecomposition
    def obj(e):
        lam = float(e @ A @ e)
        return np.inf if lam <= 0 else abs(1.0 / lam - 1.0)

    e = e0 / np.linalg.norm(e0)
    best = obj(e)
    step = 0.1
    n = len(e)
    for _ in range(iters):
        improved = False
        for i in range(n):
            for sgn in (1.0, -1.0):
                trial = e.copy()
                trial[i] += sgn * step
                trial /= np.linalg.norm(trial)
                val = obj(trial)
                if val < best:
                    e, best, improved = trial, val, True
        if not improved:
            step *= 0.5
            if step < 1e-10:
                break
    return best, e


def test_rho2_brute_force_equivalence():
    # dense random sampling plus pattern-search refinement as the oracle
    rng = np.random.default_rng(3)
    for ell in (1, 2, 3):
        value, spec = rho2(3, ell)
        basis = GegenbauerBasis(3, ell + 2)
        A = tz.build_single_gegenbauer(basis, ell, 2).matrix
        E = rng.standard_normal((100_000, ell + 1))
        E /= np.linalg.norm(E, axis=1)[:, None]
        lams = np.einsum("ni,ij,nj->n", E, A, E)
        objs = np.where(lams > 0, np.abs(1.0 / np.where(lams > 0, lams, 1.0) - 1.0), np.inf)
        # no sampled e beats the eigenvector answer
        assert objs.min() >= value - 1e-10
        oracle, _ = _pattern_search_oracle(A, E[int(np.argmin(objs))])
        assert oracle == pytest.approx(value, abs=1e-4)


def test_rho2_monotone_in_ell():
    for d in (3, 5):
        prev = np.inf
        for ell in range(1, 12):
            value, _ = rho2(d, ell)
            assert value <= prev + 1e-10
            prev = value


def test_unreachable_harmonic_gives_infinite_rho():
    # a constant q has lambda_2 = 0: the kernel spec records rho_value = inf and
    # certificate construction refuses it downstream
    from spheresos.rho import kernel_spec_from_e

    basis = GegenbauerBasis(3, 4)
    spec = kernel_spec_from_e(3, 1, 1, np.array([1.0, 0.0]))
    assert spec.lambdas[0] == pytest.approx(0.0, abs=1e-14)
    assert spec.rho_value == np.inf
    # ell = 1 cannot reach the 4th harmonic either: rho_tilde still returns
    # the finite proxy value n - n lambda_max
    value, spec2 = rho_tilde(3, 1, 2)
    assert value == pytest.approx(1.6, abs=1e-12)
    assert spec2.rho_value == np.inf


def test_rate_table_rows():
    rows = rate_table([3], [1, 2], [1, 2])
    assert [(r["d"], r["ell"], r["n"]) for r in rows] == [
        (3, 1, 1), (3, 1, 2), (3, 2, 1), (3, 2, 2),
    ]
    first = rows[0]
    assert first["rho2"] == pytest.approx(1.5, abs=1e-10)
    assert first["rho4"] is None
    # ell = 1 cannot reach the 4th harmonic: exact quartic quantity is inf
    assert rows[1]["rho4"] == np.inf
    # bound column is the best certified value available
    for r in rows:
        candidates = [v for v in (r["rho2"], r["rho4"]) if v is not None]
        if r["rho_tilde"] < 1.0:
            candidates.append(r["rho_tilde"] / (1.0 - r["rho_tilde"]))
        if np.isfinite(min(candidates)):
            assert r["rho_bound"] == pytest.approx(min(candidates), abs=1e-12)
        else:
            assert r["rho_bound"] == np.inf


def test_exposed_rate_constants_hold_on_sample_grid():
    from spheresos.rho import RATE_CONSTANTS, RATE_LEVEL_MULTIPLIER

    for d in (3, 6, 10):
        for n in (1, 2):
            for mult in (RATE_LEVEL_MULTIPLIER * n, 8, 16):
                ell = mult * d
                value = rho2(d, ell)[0] if n == 1 else rho4(d, ell)[0]
                assert value * (ell / d) ** 2 <= RATE_CONSTANTS[n], (d, n, ell)
