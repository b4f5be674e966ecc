"""Bipartite operators, separability structure, gap certificates, witnesses."""

import math

import numpy as np
import pytest

from spheresos.quantum import (
    QOperator,
    bss_gap_certificate,
    check_dps_conditions,
    hermform_value,
    hsep_lower,
    partial_trace,
    partial_transpose,
    product_extension,
    realify,
    sym_projector,
    verify_rsos_witness,
)


def _unit(rng, d):
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def _rand_psd(rng, n, scale=1.0):
    Z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * (Z @ Z.conj().T)


def _maxent(d=2):
    psi = np.zeros(d * d, dtype=complex)
    for i in range(d):
        psi[i * d + i] = 1.0 / math.sqrt(d)
    return QOperator.bipartite(np.outer(psi, psi.conj()), d, d)


def _swap(d):
    swap = np.zeros((d * d, d * d))
    for i in range(d):
        for j in range(d):
            swap[i * d + j, j * d + i] = 1.0
    return swap


def _separable(rng, d_a, d_b, terms):
    mat = np.zeros((d_a * d_b, d_a * d_b), dtype=complex)
    pairs = []
    for _ in range(terms):
        x, y = _unit(rng, d_a), _unit(rng, d_b)
        p = rng.uniform(0.2, 1.0)
        mat += p * np.kron(np.outer(x, x.conj()), np.outer(y, y.conj()))
        pairs.append((p, x, y))
    return QOperator.bipartite(mat, d_a, d_b), pairs


def test_qoperator_rejects_non_hermitian():
    with pytest.raises(ValueError):
        QOperator.bipartite(np.array([[0.0, 1.0], [0.0, 0.0]]), 1, 2)


def test_qoperator_json_round_trip():
    rng = np.random.default_rng(0)
    M = QOperator.bipartite(_rand_psd(rng, 6), 2, 3)
    clone = QOperator.from_dict(M.to_dict())
    assert clone.dims == [2, 3]
    assert np.abs(clone.mat - M.mat).max() == 0.0


def test_product_extension_basic():
    rng = np.random.default_rng(1)
    x, y = _unit(rng, 2), _unit(rng, 3)
    ext = product_extension(x, y, 1)
    direct = np.kron(np.outer(x, x.conj()), np.outer(y, y.conj()))
    assert np.abs(ext.mat - direct).max() < 1e-14
    assert ext.trace() == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        product_extension(2.0 * x, y, 1)


def test_product_extension_reduces_to_state():
    rng = np.random.default_rng(2)
    x, y = _unit(rng, 2), _unit(rng, 2)
    ext = product_extension(x, y, 4)
    red = partial_trace(ext, ["A", "B1"])
    direct = np.kron(np.outer(x, x.conj()), np.outer(y, y.conj()))
    assert np.abs(red.mat - direct).max() < 1e-12
    single = partial_trace(ext, ["A"])
    assert np.abs(single.mat - np.outer(x, x.conj())).max() < 1e-12


def test_partial_trace_product_property_and_trace():
    rng = np.random.default_rng(3)
    A = _rand_psd(rng, 2)
    B = _rand_psd(rng, 3)
    op = QOperator.bipartite(np.kron(A, B), 2, 3)
    tr = partial_trace(op, ["A"])
    assert np.abs(tr.mat - np.trace(B) * A).max() < 1e-10
    assert partial_trace(op, ["B1"]).trace() == pytest.approx(op.trace(), abs=1e-10)
    with pytest.raises(ValueError):
        partial_trace(op, ["C"])


def test_partial_transpose_separable_stays_psd():
    rng = np.random.default_rng(4)
    rho, _ = _separable(rng, 2, 2, 5)
    pt = partial_transpose(rho, ["B1"])
    assert pt.min_eigenvalue() >= -1e-10


def test_partial_transpose_maxent_spectrum():
    pt = partial_transpose(_maxent(2), ["B1"])
    spec = np.sort(np.linalg.eigvalsh(pt.mat))
    assert np.abs(spec - np.array([-0.5, 0.5, 0.5, 0.5])).max() < 1e-10


def test_partial_transpose_involution():
    rng = np.random.default_rng(5)
    M = QOperator.bipartite(_rand_psd(rng, 6), 2, 3)
    twice = partial_transpose(partial_transpose(M, ["B1"]), ["B1"])
    assert np.abs(twice.mat - M.mat).max() == 0.0


def test_sym_projector_properties():
    for d, ell in ((2, 2), (2, 3), (3, 2), (3, 4)):
        P = sym_projector(d, ell)
        assert np.abs(P.mat @ P.mat - P.mat).max() < 1e-12
        assert np.abs(P.mat - P.mat.conj().T).max() < 1e-12
        assert round(np.trace(P.mat).real) == math.comb(ell + d - 1, ell)
    ident = sym_projector(4, 1)
    assert np.abs(ident.mat - np.eye(4)).max() == 0.0
    with pytest.raises(ValueError):
        sym_projector(10, 5)


def test_sym_projector_fixes_power_vectors():
    rng = np.random.default_rng(6)
    P = sym_projector(3, 3)
    y = _unit(rng, 3)
    yl = np.kron(np.kron(y, y), y)
    assert np.abs(P.mat @ yl - yl).max() < 1e-12


def test_dps_conditions_pass_for_separable_extension():
    rng = np.random.default_rng(7)
    for ell in (2, 3):
        mat = None
        pairs = []
        for _ in range(4):
            x, y = _unit(rng, 2), _unit(rng, 2)
            p = rng.uniform(0.2, 1.0)
            e = product_extension(x, y, ell)
            mat = p * e.mat if mat is None else mat + p * e.mat
            pairs.append((p, x, y))
        ext = QOperator(dims=[2] + [2] * ell,
                        labels=["A"] + [f"B{i}" for i in range(1, ell + 1)], mat=mat)
        rho = partial_trace(ext, ["A", "B1"])
        report = check_dps_conditions(ext, rho)
        assert report["passed"]
        assert report["positivity"]["margin"] >= -1e-9
        assert all(entry["margin"] >= -1e-9 for entry in report["ppt"])


def test_dps_conditions_detect_broken_reduction():
    rng = np.random.default_rng(8)
    x, y1, y2 = _unit(rng, 2), _unit(rng, 2), _unit(rng, 2)
    ext = product_extension(x, y1, 2)
    other = product_extension(x, y2, 1)
    report = check_dps_conditions(ext, other)
    assert not report["reduction"]["ok"]
    assert not report["passed"]


def test_dps_conditions_detect_asymmetry():
    rng = np.random.default_rng(9)
    x, y1, y2 = _unit(rng, 2), _unit(rng, 2), _unit(rng, 2)
    vec = np.kron(np.kron(x, y1), y2)
    ext = QOperator(dims=[2, 2, 2], labels=["A", "B1", "B2"],
                    mat=np.outer(vec, vec.conj()))
    rho = partial_trace(ext, ["A", "B1"])
    report = check_dps_conditions(ext, rho)
    assert not report["symmetry"]["ok"]


def test_hsep_identity():
    M = QOperator.bipartite(np.eye(6, dtype=complex), 2, 3)
    val, _, _ = hsep_lower(M, restarts=4, seed=0)
    assert val == pytest.approx(1.0, abs=1e-12)


def test_hsep_lower_rejects_zero_restarts():
    M = QOperator.bipartite(np.eye(4, dtype=complex), 2, 2)
    with pytest.raises(ValueError, match="restarts must be >= 1"):
        hsep_lower(M, restarts=0)


def test_hsep_maximally_entangled():
    val, x, y = hsep_lower(_maxent(2), restarts=8, seed=1)
    assert val == pytest.approx(0.5, abs=1e-9)
    # random product-state oracle never beats it
    rng = np.random.default_rng(2)
    M = _maxent(2)
    best = max(
        hermform_value(M, _unit(rng, 2), _unit(rng, 2)) for _ in range(20_000)
    )
    assert best <= val + 1e-9


def test_hsep_rank_one_product_alignment():
    rng = np.random.default_rng(3)
    x0, y0 = _unit(rng, 2), _unit(rng, 2)
    M = QOperator.bipartite(
        np.kron(np.outer(x0, x0.conj()), np.outer(y0, y0.conj())), 2, 2
    )
    val, x, y = hsep_lower(M, restarts=8, seed=4)
    assert val == pytest.approx(1.0, abs=1e-10)
    assert abs(abs(x.conj() @ x0) - 1.0) < 1e-6
    assert abs(abs(y.conj() @ y0) - 1.0) < 1e-6


def _hsep_lower_loop(M, restarts, seed):
    # the former one-restart-at-a-time loop, kept as the oracle
    T = M.mat.reshape(M.dims[0], M.dims[1], M.dims[0], M.dims[1])
    d_b = M.dims[1]
    rng = np.random.default_rng(seed)
    best_val, best_x, best_y = -np.inf, None, None
    for _ in range(max(restarts, 1)):
        y = rng.standard_normal(d_b) + 1j * rng.standard_normal(d_b)
        y /= np.linalg.norm(y)
        val_prev = -np.inf
        for _ in range(500):
            A = np.einsum("j,ijkl,l->ik", y.conj(), T, y)
            w, V = np.linalg.eigh(A)
            x = V[:, -1]
            B = np.einsum("i,ijkl,k->jl", x.conj(), T, x)
            w, V = np.linalg.eigh(B)
            y = V[:, -1]
            val = float(w[-1].real)
            if val - val_prev <= 1e-12 * max(1.0, abs(val)):
                break
            val_prev = val
        if val > best_val:
            best_val, best_x, best_y = val, x, y
    return best_val, best_x, best_y


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
@pytest.mark.parametrize("kind", ["psd", "witness"])
def test_hsep_lower_batch_matches_restart_loop(dims, kind):
    d_a, d_b = dims
    rng = np.random.default_rng(10 * d_a + d_b)
    n = d_a * d_b
    for trial in range(3):
        mat = _rand_psd(rng, n)
        if kind == "witness":  # block-positive, not PSD: P + Q^{T_B}
            Q = QOperator.bipartite(_rand_psd(rng, n), d_a, d_b)
            mat = mat + partial_transpose(Q, ["B1"]).mat
        M = QOperator.bipartite(mat, d_a, d_b)
        for restarts in (1, 5, 32):
            val, x, y = hsep_lower(M, restarts=restarts, seed=trial)
            ref, _, _ = _hsep_lower_loop(M, restarts, trial)
            assert val == pytest.approx(ref, rel=1e-12, abs=0.0)
            assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.norm(y) == pytest.approx(1.0, abs=1e-12)
            assert hermform_value(M, x, y) == pytest.approx(val, rel=1e-12, abs=0.0)


def test_hermitian_form_is_real():
    # the bihomogeneous form of a Hermitian operator takes real values
    rng = np.random.default_rng(4)
    Z = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    M = QOperator.bipartite(Z + Z.conj().T, 2, 3)
    for _ in range(50):
        x = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        y = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        u = np.kron(x, y)
        assert abs(np.imag(u.conj() @ M.mat @ u)) < 1e-10


def test_gap_slack_monotone_in_gamma():
    # the certificate of (gamma I - P)/gamma fails witness positivity for a
    # gamma below h_Sep and verifies for one above it
    from spheresos.certificate import build_certificate
    from spheresos.poly import MatPoly

    M = _maxent(2)  # h_Sep = 1/2
    P = realify(M)
    for gamma, expected in ((0.4, False), (0.6, True)):
        F = (MatPoly.identity(4, 4, 2, gamma) - P) * (1.0 / gamma)
        cert = build_certificate(F, ell=16, bounds=(0.0, 1.0), restarts=16, seed=5)
        assert cert.verification.passed is expected, gamma


def test_realify_identity_at_random_points():
    rng = np.random.default_rng(5)
    M = QOperator.bipartite(_rand_psd(rng, 6, 0.5), 2, 3)
    P = realify(M)
    assert P.d == 6 and P.k == 4 and P.degree == 2
    for _ in range(100):
        x = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        y = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        xt = np.concatenate([x.real, x.imag])
        yt = np.concatenate([y.real, y.imag])
        u = np.kron(x, y)
        lhs = float(np.real(u.conj() @ M.mat @ u))
        assert lhs == pytest.approx(xt @ P.eval(yt) @ xt, abs=1e-10 * max(1, abs(lhs)))


def test_realify_of_identity_operator():
    P = realify(QOperator.bipartite(np.eye(6, dtype=complex), 2, 3))
    nsq_terms = {}
    for i in range(6):
        e = [0] * 6
        e[i] = 2
        nsq_terms[tuple(e)] = 1.0
    for i in range(4):
        assert P.entry(i, i).terms == nsq_terms
        for j in range(i + 1, 4):
            assert P.entry(i, j).terms == {}


def test_realify_block_positive_nonpsd():
    # I + t * swap for t > 1 is block-positive (the product form is
    # 1 + t |<x, y>|^2 >= 1) but not PSD (antisymmetric eigenvalue 1 - t);
    # the realified polynomial stays nonnegative as a quadratic form on
    # unit vectors even though the matrix has negative eigenvalues
    rng = np.random.default_rng(6)
    d = 2
    M = QOperator.bipartite(np.eye(4) + 2.0 * _swap(d), 2, 2)
    assert M.min_eigenvalue() < -0.5
    P = realify(M)
    for _ in range(50):
        x, y = _unit(rng, d), _unit(rng, d)
        xt = np.concatenate([x.real, x.imag])
        yt = np.concatenate([y.real, y.imag])
        assert xt @ P.eval(yt) @ xt >= 1.0 - 1e-10


def test_bss_gap_maxent_contains_true_value():
    out = bss_gap_certificate(_maxent(2), ell=16, restarts=8, seed=0)
    assert out["cert"].verification.passed
    assert out["h_lower"] - 1e-6 <= 0.5 <= out["h_certified_upper"] + 1e-6
    assert out["h_lower"] <= out["h_certified_upper"]


def _underestimated_hsep(monkeypatch, factor):
    # scale every value hsep_lower returns, which bss_gap_certificate reports
    # as h_lower
    from spheresos import quantum

    true_lower = quantum.hsep_lower

    def lower(M, restarts=32, seed=0):
        val, x, y = true_lower(M, restarts=restarts, seed=seed)
        return factor * val, x, y

    monkeypatch.setattr(quantum, "hsep_lower", lower)


def _record_attempts(monkeypatch, fail_all=False):
    from spheresos import quantum

    passed = []
    build = quantum.build_certificate

    def attempt(*args, **kwargs):
        cert = build(*args, **kwargs)
        if fail_all:
            cert.verification.passed = False
        passed.append(cert.verification.passed)
        return cert

    monkeypatch.setattr(quantum, "build_certificate", attempt)
    return passed


def test_bss_gap_bound_does_not_depend_on_h_lower(monkeypatch):
    # gamma is lambda_max(M), not a value read off h_lower: an
    # underestimated h_lower leaves the bound's bits alone, and one
    # certificate is built
    M = _maxent(2)
    ref = bss_gap_certificate(M, ell=16, restarts=8, seed=0)
    _underestimated_hsep(monkeypatch, 0.8)
    passed = _record_attempts(monkeypatch)
    out = bss_gap_certificate(M, ell=16, restarts=8, seed=0)
    assert out["h_lower"] == pytest.approx(0.4)
    assert passed == [True]
    assert out["gamma"] == pytest.approx(1.0)
    assert out["h_certified_upper"] == ref["h_certified_upper"]
    assert out["h_certified_upper"] >= 0.5


def test_bss_gap_failed_bracket_end_returns_failed_certificate(monkeypatch):
    # when the certificate at gamma = lambda_max(M) fails, it comes back
    # instead of an exception, and no other gamma is tried
    _underestimated_hsep(monkeypatch, 0.8)
    passed = _record_attempts(monkeypatch, fail_all=True)
    out = bss_gap_certificate(_maxent(2), ell=8, restarts=4, seed=0)
    assert passed == [False]
    assert not out["cert"].verification.passed
    assert out["gamma"] == pytest.approx(1.0)


def test_bss_gap_identity_trivial():
    out = bss_gap_certificate(
        QOperator.bipartite(np.eye(4, dtype=complex), 2, 2), ell=8, restarts=4, seed=1
    )
    assert out["h_lower"] == pytest.approx(1.0, abs=1e-9)
    # K^{-1} fixes |y|^2 I, so the node bound is h_Sep = 1 itself; the
    # theorem's slack rho2(4, 8) no longer enters
    assert out["h_certified_upper"] == 1.0


def test_bss_gap_upper_is_node_maximum():
    # within the node budget the bound is max_i lambda_max(K^{-1} P(y_i)) on
    # the rule exact to degree 2 ell + 2 = 18, computed here without the
    # certificate
    from spheresos.certificate import sphere_quadrature
    from spheresos.harmonic import decompose
    from spheresos.rho import kernel_for

    rng = np.random.default_rng(21)
    M = QOperator.bipartite(_rand_psd(rng, 4), 2, 2)
    out = bss_gap_certificate(M, ell=8, restarts=8, seed=0)
    assert out["cert"].verification.witness_check == "cubature"
    inverse = decompose(realify(M))
    inverse.parts[1] = inverse.parts[1] * (1.0 / kernel_for(4, 8, 1).lambdas[0])
    nodes, _ = sphere_quadrature(4, 18)
    values = inverse.reconstruct().eval_many(nodes)
    expected = float(np.linalg.eigvalsh(values)[:, -1].max())
    assert out["h_certified_upper"] == pytest.approx(expected, rel=1e-12, abs=0.0)
    assert hsep_lower(M, restarts=512, seed=1)[0] <= out["h_certified_upper"]


def _sampled_product_max(M, rng, samples=20_000):
    d_a, d_b = M.dims
    x = rng.standard_normal((samples, d_a)) + 1j * rng.standard_normal((samples, d_a))
    y = rng.standard_normal((samples, d_b)) + 1j * rng.standard_normal((samples, d_b))
    x /= np.linalg.norm(x, axis=1)[:, None]
    y /= np.linalg.norm(y, axis=1)[:, None]
    u = (x[:, :, None] * y[:, None, :]).reshape(samples, -1)
    return float(np.real(np.einsum("ni,ij,nj->n", u.conj(), M.mat, u)).max())


def test_bss_gap_bounds_any_hermitian():
    # operators that are negative on some product states: -I (lambda_max < 0,
    # so gamma is floored), I - 2 swap (product form 1 - 2|<x, y>|^2) and a
    # random indefinite Hermitian.  h_lower is the value of a product pair,
    # and where the witness is read on the rule the bound is an explicit SOS,
    # so it holds above every sampled product value whatever passed says
    rng = np.random.default_rng(23)
    Z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    cases = [(-np.eye(4), 4), (np.eye(4) - 2.0 * _swap(2), 8),
             (np.eye(4) - 2.0 * _swap(2), 16), (Z + Z.conj().T, 8)]
    for mat, ell in cases:
        M = QOperator.bipartite(mat.astype(complex), 2, 2)
        assert M.min_eigenvalue() < 0
        out = bss_gap_certificate(M, ell=ell, restarts=8, seed=1)
        low, up = out["h_lower"], out["h_certified_upper"]
        assert hermform_value(M, *out["argmax"]) == pytest.approx(low, abs=1e-12)
        check = out["cert"].verification.witness_check
        assert check == ("multistart" if ell == 16 else "cubature"), ell
        if check == "cubature":
            top = max(low, _sampled_product_max(M, rng))
            assert top <= up + 1e-12 * max(1.0, abs(up)), ell
        assert low <= up, ell


def test_bss_gap_makes_one_hsep_lower_call(monkeypatch):
    from spheresos import quantum

    calls = []
    true_lower = quantum.hsep_lower

    def lower(M, **kwargs):
        calls.append(M)
        return true_lower(M, **kwargs)

    monkeypatch.setattr(quantum, "hsep_lower", lower)
    M = _maxent(2)
    bss_gap_certificate(M, ell=8, restarts=4, seed=0)
    assert len(calls) == 1 and calls[0] is M


def test_exposed_gap_constant_holds():
    from spheresos.quantum import GAP_RATE_CONSTANT

    rng = np.random.default_rng(19)
    for d_b, ell in ((2, 8), (3, 16)):
        Z = rng.standard_normal((2 * d_b, 2 * d_b)) + 1j * rng.standard_normal((2 * d_b, 2 * d_b))
        M = QOperator.bipartite(Z @ Z.conj().T, 2, d_b)
        out = bss_gap_certificate(M, ell=ell, restarts=8, seed=4)
        ratio = out["h_certified_upper"] / out["h_lower"]
        assert ratio <= 1.0 + GAP_RATE_CONSTANT * (d_b / ell) ** 2


def test_bss_gap_rank_one_product_contains_known_value():
    # h_Sep of a rank-one product projector is exactly 1
    rng = np.random.default_rng(20)
    x0, y0 = _unit(rng, 2), _unit(rng, 2)
    M = QOperator.bipartite(
        np.kron(np.outer(x0, x0.conj()), np.outer(y0, y0.conj())), 2, 2
    )
    out = bss_gap_certificate(M, ell=12, restarts=8, seed=3)
    assert out["cert"].verification.passed
    assert out["h_lower"] - 1e-6 <= 1.0 <= out["h_certified_upper"] + 1e-6


def test_rsos_witness_ppt_decomposition():
    # M = P + Q^{T_B} with P, Q PSD is certified by W_0 = P, W_1 = Q at l = 1
    rng = np.random.default_rng(8)
    P = _rand_psd(rng, 4, 0.5)
    Q = _rand_psd(rng, 4, 0.5)
    Qt = partial_transpose(QOperator.bipartite(Q, 2, 2), ["B1"]).mat
    M = QOperator.bipartite(P + Qt, 2, 2)
    report = verify_rsos_witness(
        M, [QOperator.bipartite(P, 2, 2), QOperator.bipartite(Q, 2, 2)],
        samples=160, seed=9,
    )
    assert report["passed"]
    assert report["max_discrepancy"] <= 1e-9 * max(1.0, float(np.abs(M.mat).max()))
    assert report["samples"] >= 10 * 4  # 10x the bihomogeneous monomial basis


def test_rsos_witness_zero_witnesses():
    rng = np.random.default_rng(10)
    zero = QOperator.bipartite(np.zeros((4, 4)), 2, 2)
    M0 = QOperator.bipartite(np.zeros((4, 4)), 2, 2)
    assert verify_rsos_witness(M0, [zero, zero], samples=50, seed=11)["passed"]
    M1 = QOperator.bipartite(np.eye(4, dtype=complex), 2, 2)
    assert not verify_rsos_witness(M1, [zero, zero], samples=50, seed=12)["passed"]


def test_csos_special_case_single_witness():
    # single PSD W with no conjugated slots: at l = 1 the identity forces M = W
    rng = np.random.default_rng(13)
    v = _unit(rng, 4)
    W = QOperator.bipartite(np.outer(v, v.conj()), 2, 2)
    zero = QOperator.bipartite(np.zeros((4, 4)), 2, 2)
    report = verify_rsos_witness(W, [W, zero], samples=160, seed=14)
    assert report["passed"]


def test_rsos_witness_non_psd_flagged():
    rng = np.random.default_rng(15)
    P = _rand_psd(rng, 4)
    bad = QOperator.bipartite(P - 2.0 * np.trace(P).real / 4 * np.eye(4), 2, 2)
    M = QOperator.bipartite(P + partial_transpose(
        QOperator.bipartite(np.zeros((4, 4)), 2, 2), ["B1"]).mat, 2, 2)
    report = verify_rsos_witness(M, [bad, QOperator.bipartite(np.zeros((4, 4)), 2, 2)],
                                 samples=40, seed=16)
    assert not report["psd_ok"]
    assert not report["passed"]


def test_duality_sanity_witnessed_operator_vs_separable():
    # any operator passing the witness check pairs nonnegatively with
    # separable states
    rng = np.random.default_rng(17)
    P = _rand_psd(rng, 4, 0.3)
    Q = _rand_psd(rng, 4, 0.3)
    Qt = partial_transpose(QOperator.bipartite(Q, 2, 2), ["B1"]).mat
    M = QOperator.bipartite(P + Qt, 2, 2)
    assert verify_rsos_witness(
        M, [QOperator.bipartite(P, 2, 2), QOperator.bipartite(Q, 2, 2)],
        samples=160, seed=18,
    )["passed"]
    for _ in range(10):
        rho, _ = _separable(rng, 2, 2, rng.integers(1, 10))
        assert float(np.real(np.trace(M.mat @ rho.mat))) >= -1e-8
