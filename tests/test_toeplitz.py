"""Generalized Toeplitz matrices: assembly, eigenstructure, root identities."""

import math

import numpy as np
import pytest
import sympy as sp

from spheresos import toeplitz as tz
from spheresos.gegenbauer import GegenbauerBasis

from _bessel import first_bessel_zero


def _symbolic_t2_matrix(ell: int):
    # Exact d=3 oracle: T[C2/C2(1)] entries via Legendre integrals with sympy.
    t = sp.symbols("t")
    polys = [sp.legendre(i, t) for i in range(ell + 1)]
    mult = (3 * t**2 - 1) / 2
    M = np.zeros((ell + 1, ell + 1))
    for i in range(ell + 1):
        for j in range(i, min(i + 2, ell) + 1):
            val = sp.integrate(
                sp.sqrt(sp.Integer(2 * i + 1))
                * sp.sqrt(sp.Integer(2 * j + 1))
                * polys[i] * polys[j] * mult,
                (t, -1, 1),
            ) / 2
            M[i, j] = M[j, i] = float(val)
    return M


def test_t_of_one_is_identity():
    for d in (2, 3, 7):
        basis = GegenbauerBasis(d, 9)
        op = tz.build(basis, 9, [1.0])
        assert np.abs(op.matrix - np.eye(10)).max() < 1e-13


def test_c2_multiplier_small_case():
    basis = GegenbauerBasis(3, 3)
    op = tz.build_single_gegenbauer(basis, 1, 2)
    expected = np.array([[0.0, 0.0], [0.0, 0.4]])
    assert np.abs(op.matrix - expected).max() < 1e-13


def test_c2_multiplier_symbolic_oracle():
    basis = GegenbauerBasis(3, 8)
    op = tz.build_single_gegenbauer(basis, 6, 2)
    assert np.abs(op.matrix - _symbolic_t2_matrix(6)).max() < 1e-12


def test_linear_multiplier_is_jacobi_matrix():
    basis = GegenbauerBasis(3, 3)
    op = tz.build(basis, 1, [0.0, 1.0])
    off = 1.0 / math.sqrt(3)
    assert op.matrix[0, 1] == pytest.approx(off, abs=1e-13)
    assert abs(op.matrix[0, 0]) < 1e-13 and abs(op.matrix[1, 1]) < 1e-13


def test_lambda_max_identity_and_c2():
    basis = GegenbauerBasis(3, 6)
    lam, vec = tz.lambda_max(tz.build(basis, 4, [1.0]))
    assert lam == pytest.approx(1.0, abs=1e-12)
    lam, vec = tz.lambda_max(tz.build_single_gegenbauer(basis, 1, 2))
    assert lam == pytest.approx(0.4, abs=1e-12)
    assert np.abs(vec - np.array([0.0, 1.0])).max() < 1e-10


def test_lambda_max_power_iteration_cross_check():
    # independent eigensolver route: shifted power method accelerated by
    # repeated squaring (A^(2^40) applied to a random vector)
    rng = np.random.default_rng(0)
    basis = GegenbauerBasis(4, 20)
    op = tz.build_single_gegenbauer(basis, 16, 2)
    lam, vec = tz.lambda_max(op)
    shift = np.abs(op.matrix).sum(axis=1).max()
    B = op.matrix + shift * np.eye(op.size)
    for _ in range(40):
        B = B @ B
        B /= np.linalg.norm(B)
    v = B @ rng.standard_normal(op.size)
    v /= np.linalg.norm(v)
    lam_pi = float(v @ op.matrix @ v)
    assert lam == pytest.approx(lam_pi, abs=1e-10)
    assert abs(abs(float(v @ vec)) - 1.0) < 1e-8


def test_linear_multiplier_eigenvalues_are_roots():
    # Eigenvalues of T[t] (size ell+1) are the roots of C_{ell+1}:
    # the Jacobi-matrix route and the quadrature-built matrix must agree.
    for d in range(3, 9):
        basis = GegenbauerBasis(d, 41)
        for ell in (1, 7, 25, 40):
            op = tz.build(basis, ell, [0.0, 1.0])
            eigs = np.sort(np.linalg.eigvalsh(op.matrix))
            roots = tz.gegenbauer_roots(basis, ell + 1)
            assert np.abs(eigs - roots).max() < 1e-9, (d, ell)


def test_gegenbauer_roots_small_case():
    basis = GegenbauerBasis(3, 2)
    roots = tz.gegenbauer_roots(basis, 2)
    assert np.abs(roots - np.array([-1, 1]) / math.sqrt(3)).max() < 1e-14


def test_gegenbauer_roots_are_the_gauss_nodes():
    # the roots of C_m are the m-point Gauss rule's nodes: one solve, one
    # shared read-only array
    for d in range(2, 11):
        basis = GegenbauerBasis(d, 2)
        for m in range(1, 90):
            roots = tz.gegenbauer_roots(basis, m)
            assert roots is basis.gauss_rule(m)[0], (d, m)
            assert not roots.flags.writeable


def test_gegenbauer_roots_interval_and_symmetry():
    for d in (2, 3, 6):
        basis = GegenbauerBasis(d, 2)
        for m in (1, 4, 9, 24):
            roots = tz.gegenbauer_roots(basis, m)
            assert roots.min() > -1.0 and roots.max() < 1.0
            assert np.abs(roots + roots[::-1]).max() < 1e-13


def test_largest_root_claimed_lower_bound():
    # The claimed estimate x_{l+1,l+1} >= 1 - d^2/(4 l^2), tested for the
    # roots of C_m with the conservative substitution l = m - 1, is FALSE
    # for small d.  The true scaling is 1 - x ~ j_{nu,1}^2/(2 m^2) with
    # nu = (d-3)/2, and j_{0,1}^2/2 ~ 2.89 > 9/4 at d = 3; the claimed
    # constant only holds once j_{nu,1}^2/2 < d^2/4 (d >= 6).
    #
    # Asserted instead: 1 - x_max(C_m) <= j_{nu,1}^2 / (2 (m-1)^2).  This is
    # the Bessel asymptotic theta_{m,1} ~ j_{nu,1}/(m + (d-2)/2) with the
    # weaker m - 1 in place of m + (d-2)/2.  No theorem cited here covers
    # that finite-m step, so it is a checked estimate: on this grid the
    # largest (1 - x)/bound per d is 0.83-0.93, close enough to 1 that a
    # wrong root would break it.  The claimed constant is kept as an
    # assertion that it fails at d = 3, the defect the README documents.
    assert first_bessel_zero(0.5) == pytest.approx(math.pi, abs=1e-12)
    failures = []
    claimed_failures_d3 = 0
    for d in range(3, 9):
        basis = GegenbauerBasis(d, 2)
        j = first_bessel_zero((d - 3) / 2)
        for m in range(d, 42):
            gap = 1.0 - tz.gegenbauer_roots(basis, m)[-1]
            if gap > j * j / (2.0 * (m - 1) * (m - 1)) + 1e-12:
                failures.append((d, m, gap))
            if d == 3 and gap > d * d / (4.0 * (m - 1) * (m - 1)) + 1e-12:
                claimed_failures_d3 += 1
    assert not failures, f"{len(failures)} cells violate the Bessel-zero root bound, e.g. {failures[:3]}"
    assert claimed_failures_d3 > 0, "claimed root constant d^2/4 unexpectedly holds at d = 3"


def test_single_gegenbauer_structural_zero():
    # p_i p_j has degree i + j <= 2 ell < 2k, so by orthogonality
    # T[C_2k/C_2k(1)] is exactly the zero matrix for ell < k; the first
    # entry outside that triangle, (k, k) at ell = k, is not zero.
    for d in range(3, 9):
        basis = GegenbauerBasis(d, 12)
        for k in (1, 2, 3, 4):
            for ell in range(k):
                op = tz.build_single_gegenbauer(basis, ell, 2 * k)
                assert np.all(op.matrix == 0), (d, k, ell)
            assert tz.build_single_gegenbauer(basis, k, 2 * k).matrix[k, k] > 0, (d, k)


def test_band_and_parity_structural_zero():
    # Entries outside the band |i - j| <= deg(h), and, for h of one parity,
    # entries whose i + j has the other parity, vanish by degree or oddness
    # and are stored as exact zeros; the outermost band diagonal is not zero.
    cases = [
        ("gegenbauer", [0, 1]), ("gegenbauer", [0, 0, 1]), ("gegenbauer", [0, 0, 0, 1]),
        ("gegenbauer", [0, 0, 0, 0, 1]), ("gegenbauer", [1, 0, 0.5]),
        ("gegenbauer", [0, 1, 0.5]), ("monomial", [0, 1]), ("monomial", [0, 0, 1]),
        ("monomial", [1, 0, 0, 1]),
    ]
    for d in (3, 5, 8):
        basis = GegenbauerBasis(d, 84)
        for ell in (10, 40, 80):
            i, j = np.indices((ell + 1, ell + 1))
            for kind, h in cases:
                T = tz.build(basis, ell, h, kind=kind).matrix
                deg = len(h) - 1
                assert np.all(T[np.abs(i - j) > deg] == 0), (d, ell, kind, h)
                assert np.all(np.diagonal(T, deg) != 0), (d, ell, kind, h)
                parities = {k % 2 for k, c in enumerate(h) if c}
                if len(parities) == 1:
                    odd = (i + j + parities.pop()) % 2 == 1
                    assert np.all(T[odd] == 0), (d, ell, kind, h)


def test_stacked_build_matches_rows():
    # a 2-D h builds one matrix per row on one shared rule: each equals the
    # row's own 1-D build up to the quadrature's rounding and keeps the row's
    # exact band, parity and i + j < lowest-harmonic zeros
    stacks = {
        "gegenbauer": [[0, 0, 1], [0, 0, 0, 0, 1], [0, 0, 0, 0, 0, 0, 1],
                       [1, 0, 0.5], [0, 1, 0.5], [0, 1]],
        "monomial": [[0, 1], [0, 0, 1], [1, 0, 0, 1], [0.5, -0.2, 1, 0.3]],
    }
    for d in (2, 3, 8):
        for ell in (1, 5, 40, 80):
            basis = GegenbauerBasis(d, ell + 6)
            i, j = np.indices((ell + 1, ell + 1))
            for kind, rows in stacks.items():
                H = np.zeros((len(rows), 7))
                for r, h in zip(H, rows):
                    r[: len(h)] = h
                ops = tz.build(basis, ell, H, kind=kind)
                assert len(ops) == len(rows)
                for op, h in zip(ops, rows):
                    key = (d, ell, kind, h)
                    ref = tz.build(basis, ell, h, kind=kind)
                    T = op.matrix
                    assert op.bandwidth == ref.bandwidth == len(h) - 1, key
                    assert op.h_descriptor == ref.h_descriptor, key
                    assert np.abs(T - ref.matrix).max() <= 1e-13 * np.abs(ref.matrix).max(), key
                    assert np.array_equal(T, T.T), key
                    assert np.all(T[np.abs(i - j) > op.bandwidth] == 0), key
                    nz = [k for k, c in enumerate(h) if c]
                    if len({k % 2 for k in nz}) == 1:
                        assert np.all(T[(i + j + nz[0]) % 2 == 1] == 0), key
                    if kind == "gegenbauer":
                        assert np.all(T[i + j < nz[0]] == 0), key
                    assert np.array_equal(T == 0, ref.matrix == 0), key


def test_order_preservation():
    # h1 >= h2 pointwise implies lambda_max(T[h1]) >= lambda_max(T[h2])
    rng = np.random.default_rng(1)
    basis = GegenbauerBasis(4, 14)
    grid = np.linspace(-1, 1, 1000)
    for _ in range(10):
        h1 = rng.standard_normal(4)
        h2 = rng.standard_normal(4)
        v1 = np.polynomial.polynomial.polyval(grid, h1)
        v2 = np.polynomial.polynomial.polyval(grid, h2)
        if not np.all(v1 >= v2):
            shift = (v2 - v1).max()
            h1 = h1.copy()
            h1[0] += shift + 0.01
        l1, _ = tz.lambda_max(tz.build(basis, 10, h1))
        l2, _ = tz.lambda_max(tz.build(basis, 10, h2))
        assert l1 >= l2 - 1e-10


def test_linearity_entrywise():
    basis = GegenbauerBasis(3, 12)
    h1 = np.array([0.3, -1.0, 0.25])
    h2 = np.array([1.0, 0.5, 0.0, 2.0])
    a, b = 1.75, -0.5
    combo = a * np.pad(h1, (0, 1)) + b * h2
    lhs = tz.build(basis, 8, combo).matrix
    rhs = a * tz.build(basis, 8, h1).matrix + b * tz.build(basis, 8, h2).matrix
    assert np.abs(lhs - rhs).max() < 1e-12


def test_bandedness():
    basis = GegenbauerBasis(5, 16)
    op = tz.build_single_gegenbauer(basis, 12, 4)
    assert op.bandwidth == 4
    for i in range(op.size):
        for j in range(op.size):
            if abs(i - j) > 4:
                assert abs(op.matrix[i, j]) < 1e-12


def test_symmetry_exact():
    basis = GegenbauerBasis(3, 10)
    op = tz.build(basis, 8, [0.1, 0.2, 0.3])
    assert np.array_equal(op.matrix, op.matrix.T)


def test_truncated_product_relation():
    # top-left l x l block of T_{l+2}[t]^2 equals the same block of T[t^2]
    for d in (3, 5):
        for ell in (4, 9):
            basis = GegenbauerBasis(d, ell + 5)
            T_big = tz.build(basis, ell + 2, [0.0, 1.0]).matrix
            T_sq = tz.build(basis, ell, [0.0, 0.0, 1.0]).matrix
            block = (T_big @ T_big)[:ell, :ell]
            assert np.abs(block - T_sq[:ell, :ell]).max() < 1e-10


def test_degree_overflow_rejected():
    basis = GegenbauerBasis(3, 5)
    with pytest.raises(ValueError):
        tz.build(basis, 5, [0.0, 0.0, 1.0])
    with pytest.raises(ValueError):
        tz.build_single_gegenbauer(basis, 4, 2)
    with pytest.raises(ValueError):
        tz.build_single_gegenbauer(basis, 5, 2)
