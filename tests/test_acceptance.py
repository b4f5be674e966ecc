"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  Frozen empirical constants (criteria 5, 9, 10c) were measured on
this implementation and are recorded next to each test.

Criterion 3 checks the rate bound with constants derived from the
largest root of C_{l+1} rather than the claimed 7n^2/12, which is false
for small dimensions (see the README); the claimed constant is asserted to
fail at d = 3.
"""

import itertools
import math
import time

import numpy as np

from spheresos.certificate import build_certificate, reznick_lambdas
from spheresos.gegenbauer import GegenbauerBasis
from spheresos.harmonic import b_constant, decompose
from spheresos.poly import MatPoly, Poly, sample_sphere_array
from spheresos.quantum import (
    QOperator,
    bss_gap_certificate,
    check_dps_conditions,
    hsep_lower,
    partial_transpose,
    product_extension,
    sym_projector,
    verify_rsos_witness,
)
from spheresos.rho import rho2, rho4, rho_from_tilde, rho_tilde
from spheresos import toeplitz as tz

from _bessel import first_bessel_zero

# Frozen regression constants, measured once on this implementation.
RHO2_BAND = (0.35, 1.00)        # measured range [0.4186, 0.8898]
SLOPE_OPT = (1.7, 2.3)          # measured 1.82 .. 1.86
SLOPE_REZNICK = (0.7, 1.3)      # measured 0.944 .. 0.945
DPS_GAP_CONSTANT = 1.62         # measured max C = 1.09 on the 10(c) grid, 1.28 on random PSD


def _report(num: int, passed: bool, elapsed: float, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {num:>2}] {status}  ({elapsed:6.2f}s)  {detail}")


def _rand_homog(d, degree, rng):
    exps = [e for e in itertools.product(range(degree + 1), repeat=d) if sum(e) == degree]
    return Poly(d, degree, {e: rng.standard_normal() for e in exps})


def test_criterion_1_exact_small_value():
    t0 = time.monotonic()
    value, _ = rho2(3, 1)
    ok = abs(value - 1.5) <= 1e-10
    elapsed = time.monotonic() - t0
    _report(1, ok and elapsed < 1.0, elapsed, f"rho2(3,1) = {value:.12f}")
    assert ok
    assert elapsed < 1.0


def test_criterion_2_toeplitz_root_identity():
    t0 = time.monotonic()
    worst = 0.0
    for d in range(3, 9):
        basis = GegenbauerBasis(d, 41)
        for ell in range(1, 41):
            op = tz.build(basis, ell, [0.0, 1.0])
            eigs = np.sort(np.linalg.eigvalsh(op.matrix))
            roots = tz.gegenbauer_roots(basis, ell + 1)
            worst = max(worst, float(np.abs(eigs - roots).max()))
    elapsed = time.monotonic() - t0
    ok = worst < 1e-9
    _report(2, ok and elapsed < 10.0, elapsed, f"max eigenvalue/root gap = {worst:.2e}")
    assert ok
    assert elapsed < 10.0


def test_criterion_3_rate_bound_claimed_constant():
    # Derived bound, on every cell of the grid:
    #   rho_tilde_{2n}(d,l) <= S_n(d) (1 - x_max(C_{l+1}))        (a)
    #                       <= S_n(d) j_{nu,1}^2 / (2 l^2)          (b)
    # with S_n(d) = sum_{k=1..n} C'_{2k}(1)/C_{2k}(1) and nu = (d-3)/2.
    # (a) is rigorous: take e the top eigenvector of the Jacobi matrix
    # T[t], so e^T T[t] e = x_max(C_{l+1}) (criterion 2); then
    # rho_tilde <= n - e^T T[sum_k C_2k/C_2k(1)] e, and 1 - g(t) <=
    # g'(1)(1 - t) on [-1, 1] for each normalized Gegenbauer g.
    # (b) is the checked Bessel-zero root estimate of
    # test_toeplitz.py::test_largest_root_claimed_lower_bound.
    # The claimed (7n^2/12)(d/l)^2 is this chain with d^2/4 as the root
    # constant and S_n(d) replaced by large-d values (n = 1, d = 7:
    # S_1 d^2/4 = d^3/(2(d-1)) = (7/12) d^2).  It is false for small d,
    # and is kept as an assertion that it fails at d = 3.
    t0 = time.monotonic()
    violations = []
    claimed_violations = []
    worst_a = worst_b = 0.0
    for d in range(3, 9):
        basis = GegenbauerBasis(d, 6)
        j = first_bessel_zero((d - 3) / 2)
        for n in (1, 2, 3):
            if n > d:
                continue
            s_n = sum(
                basis.derivative_at_one(2 * k) / basis.endpoint_values[2 * k]
                for k in range(1, n + 1)
            )
            for ell in range(2 * n * d, 10 * d + 1):
                value, _ = rho_tilde(d, ell, n)
                bound_a = s_n * (1.0 - tz.gegenbauer_roots(basis, ell + 1)[-1])
                bound_b = s_n * j * j / (2.0 * ell * ell)
                worst_a = max(worst_a, value / bound_a)
                worst_b = max(worst_b, bound_a / bound_b)
                if value > bound_a + 1e-12 or bound_a > bound_b + 1e-12:
                    violations.append((d, n, ell, value, bound_a, bound_b))
                if value > (7.0 * n * n / 12.0) * (d / ell) ** 2 + 1e-6:
                    claimed_violations.append((d, n, ell))
    elapsed = time.monotonic() - t0
    claimed_fails_d3 = any(cell[0] == 3 for cell in claimed_violations)
    ok = not violations and claimed_fails_d3
    detail = (
        f"max ratios (a) {worst_a:.3f}, (b) {worst_b:.3f}; claimed 7n^2/12 "
        f"fails on {len(claimed_violations)} cells"
        if not violations else
        f"{len(violations)} grid cells exceed the derived bound, "
        f"e.g. (d,n,ell,value,bound_a,bound_b) = {violations[0]}"
    )
    _report(3, ok and elapsed < 60.0, elapsed, detail)
    assert elapsed < 60.0
    assert not violations, detail
    assert claimed_fails_d3, "claimed constant 7n^2/12 unexpectedly holds at d = 3"


def test_criterion_4_quadratic_rate_upper_bound():
    t0 = time.monotonic()
    worst_ratio = 0.0
    for d in range(3, 9):
        for n in (1, 2, 3):
            if n > d:
                continue
            for ell in range(2 * n * d, 10 * d + 1):
                if n == 1:
                    value, _ = rho2(d, ell)
                elif n == 2:
                    value, _ = rho4(d, ell)
                else:
                    tilde, _ = rho_tilde(d, ell, n)
                    value = rho_from_tilde(tilde)
                bound = 2.0 * n * n * (d / ell) ** 2
                worst_ratio = max(worst_ratio, value / bound)
    elapsed = time.monotonic() - t0
    ok = worst_ratio <= 1.0
    _report(4, ok and elapsed < 60.0, elapsed, f"max value/bound ratio = {worst_ratio:.4f}")
    assert ok
    assert elapsed < 60.0


def test_criterion_5_tightness_band():
    t0 = time.monotonic()
    lo, hi = math.inf, -math.inf
    for d in range(3, 11):
        for mult in range(4, 21):
            value, _ = rho2(d, mult * d)
            scaled = value * mult * mult
            lo, hi = min(lo, scaled), max(hi, scaled)
    elapsed = time.monotonic() - t0
    ok = RHO2_BAND[0] <= lo and hi <= RHO2_BAND[1] and RHO2_BAND[0] > 0
    _report(5, ok, elapsed,
            f"rho2*(l/d)^2 in [{lo:.4f}, {hi:.4f}], frozen band {RHO2_BAND}")
    assert ok


def test_criterion_6_harmonic_round_trip():
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    worst_recon, worst_harm = 0.0, 0.0
    for _ in range(200):
        d = int(rng.integers(2, 7))
        n = int(rng.integers(1, 5))
        f = _rand_homog(d, 2 * n, rng)
        dec = decompose(f)
        scale = max(f.max_abs_coef(), 1.0)
        worst_recon = max(worst_recon, (dec.reconstruct() - f).max_abs_coef() / scale)
        for part in dec.parts:
            worst_harm = max(worst_harm, part.laplacian().max_abs_coef() / scale)
    elapsed = time.monotonic() - t0
    ok = worst_recon < 1e-9 and worst_harm < 1e-9
    _report(6, ok and elapsed < 30.0, elapsed,
            f"reconstruction {worst_recon:.2e}, harmonicity {worst_harm:.2e}")
    assert ok
    assert elapsed < 30.0


def test_criterion_7_projection_norm_bounds():
    t0 = time.monotonic()
    rng = np.random.default_rng(77)
    worst = {1: 0.0, 2: 0.0}
    for n in (1, 2):
        for _ in range(100):
            d = int(rng.integers(2, 7))
            X = sample_sphere_array(d, 10_000, seed=int(rng.integers(1 << 30)))
            f = _rand_homog(d, 2 * n, rng)
            sup_f = np.abs(f.eval_many(X)).max()
            for part in decompose(f).parts:
                sup_p = np.abs(part.eval_many(X)).max() if part.terms else 0.0
                worst[n] = max(worst[n], sup_p / sup_f)
    elapsed = time.monotonic() - t0
    ok = worst[1] <= b_constant(1) and worst[2] <= b_constant(2)
    _report(7, ok and elapsed < 60.0, elapsed,
            f"max ratios: n=1 {worst[1]:.3f} (<= 2), n=2 {worst[2]:.3f} (<= 10)")
    assert ok
    assert elapsed < 60.0


def test_criterion_8_certificate_closure():
    t0 = time.monotonic()
    rng = np.random.default_rng(88)
    failures = []
    for i in range(50):
        F = _rand_homog(3, 4, rng)
        cert = build_certificate(F, ell=12, restarts=32, seed=1000 + i)
        rep = cert.verification
        if not (rep.passed and rep.eq15_margin >= 0.0 and rep.witness_min >= -1e-8):
            failures.append(("scalar", i))
    for i in range(50):
        k = 2 if i % 2 == 0 else 5
        entries = {
            (a, b): _rand_homog(3, 2, rng)
            for a in range(k) for b in range(a, k)
        }
        F = MatPoly(3, k, 2, entries)
        cert = build_certificate(F, ell=8, restarts=32, seed=2000 + i)
        rep = cert.verification
        if not (rep.passed and rep.eq15_margin >= 0.0 and rep.witness_min >= -1e-8):
            failures.append(("matrix", k, i))
    elapsed = time.monotonic() - t0
    ok = not failures
    _report(8, ok and elapsed < 120.0, elapsed,
            "all 100 certificates verified" if ok else f"failures: {failures}")
    assert ok, failures
    assert elapsed < 120.0


def test_criterion_9_kernel_decay_slopes():
    t0 = time.monotonic()
    slopes_opt, slopes_rez = [], []
    for d in range(3, 9):
        xs, y_opt, y_rez = [], [], []
        for mult in range(4, 21, 2):
            ell = mult * d
            basis = GegenbauerBasis(d, ell + 2)
            lam_opt, _ = tz.lambda_max(tz.build_single_gegenbauer(basis, ell, 2))
            lam_rez = reznick_lambdas(d, ell, 1)[1]
            xs.append(math.log(d / ell))
            y_opt.append(math.log(1.0 - lam_opt))
            y_rez.append(math.log(1.0 - lam_rez))
        slopes_opt.append(float(np.polyfit(xs, y_opt, 1)[0]))
        slopes_rez.append(float(np.polyfit(xs, y_rez, 1)[0]))
    elapsed = time.monotonic() - t0
    ok = all(SLOPE_OPT[0] <= s <= SLOPE_OPT[1] for s in slopes_opt) and all(
        SLOPE_REZNICK[0] <= s <= SLOPE_REZNICK[1] for s in slopes_rez
    )
    _report(9, ok, elapsed,
            f"optimized slopes {min(slopes_opt):.3f}..{max(slopes_opt):.3f}, "
            f"baseline {min(slopes_rez):.3f}..{max(slopes_rez):.3f}")
    assert ok


def _unit(rng, d):
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def test_criterion_10_quantum():
    t0 = time.monotonic()
    rng = np.random.default_rng(1010)
    details = []

    # (a) maximally entangled
    psi = np.zeros(4, dtype=complex)
    psi[0] = psi[3] = 1.0 / math.sqrt(2)
    M = QOperator.bipartite(np.outer(psi, psi.conj()), 2, 2)
    val, _, _ = hsep_lower(M, restarts=8, seed=0)
    spec = np.sort(np.linalg.eigvalsh(partial_transpose(M, ["B1"]).mat))
    ok_a = abs(val - 0.5) <= 1e-6 and np.abs(
        spec - np.array([-0.5, 0.5, 0.5, 0.5])
    ).max() <= 1e-10
    details.append(f"(a) hsep={val:.9f}")

    # (b) 50 random separable states pass the extension conditions
    ok_b = True
    for i in range(50):
        ell = 2 if i % 2 == 0 else 3
        terms = int(rng.integers(1, 6))
        mat = None
        for _ in range(terms):
            x, y = _unit(rng, 2), _unit(rng, 2)
            p = float(rng.uniform(0.2, 1.0))
            e = product_extension(x, y, ell)
            mat = p * e.mat if mat is None else mat + p * e.mat
        ext = QOperator(dims=[2] + [2] * ell,
                        labels=["A"] + [f"B{j}" for j in range(1, ell + 1)], mat=mat)
        from spheresos.quantum import partial_trace

        rho = partial_trace(ext, ["A", "B1"])
        report = check_dps_conditions(ext, rho, tol=1e-9)
        if not report["passed"]:
            ok_b = False
            break
    details.append(f"(b) 50 separable extensions {'ok' if ok_b else 'FAILED'}")

    # (c) certified gap ratios with the frozen constant
    ok_c = True
    worst_c = 0.0
    for d_b in (2, 3):
        for ell in (8, 16, 32):
            Z = rng.standard_normal((2 * d_b, 2 * d_b)) + 1j * rng.standard_normal((2 * d_b, 2 * d_b))
            Mi = QOperator.bipartite(Z @ Z.conj().T, 2, d_b)
            out = bss_gap_certificate(Mi, ell=ell, restarts=16, seed=int(rng.integers(1 << 30)))
            ratio = out["h_certified_upper"] / out["h_lower"]
            needed = (ratio - 1.0) * (ell / d_b) ** 2
            worst_c = max(worst_c, needed)
            if ratio > 1.0 + DPS_GAP_CONSTANT * d_b * d_b / (ell * ell):
                ok_c = False
    details.append(f"(c) max gap constant {worst_c:.3f} (frozen {DPS_GAP_CONSTANT})")

    # (d) symmetric projector ranks
    ok_d = True
    for d in (2, 3):
        for ell in (1, 2, 3, 4):
            rank = round(float(np.trace(sym_projector(d, ell).mat).real))
            if rank != math.comb(ell + d - 1, ell):
                ok_d = False
    details.append("(d) ranks exact")

    elapsed = time.monotonic() - t0
    ok = ok_a and ok_b and ok_c and ok_d
    _report(10, ok and elapsed < 120.0, elapsed, "; ".join(details))
    assert ok_a and ok_b and ok_c and ok_d
    assert elapsed < 120.0


def test_criterion_11_witness_verification():
    t0 = time.monotonic()
    rng = np.random.default_rng(1111)
    monomials = (2 * 2) ** 2
    samples = 10 * monomials
    worst = 0.0
    for i in range(20):
        Za = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        Zb = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        P = Za @ Za.conj().T
        Q = Zb @ Zb.conj().T
        Qt = partial_transpose(QOperator.bipartite(Q, 2, 2), ["B1"]).mat
        M = QOperator.bipartite(P + Qt, 2, 2)
        report = verify_rsos_witness(
            M,
            [QOperator.bipartite(P, 2, 2), QOperator.bipartite(Q, 2, 2)],
            samples=samples,
            seed=3000 + i,
        )
        scale = max(1.0, float(np.abs(M.mat).max()))
        worst = max(worst, report["max_discrepancy"] / scale)
        assert report["psd_ok"]
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-9
    _report(11, ok and elapsed < 30.0, elapsed,
            f"max relative discrepancy {worst:.2e} at {samples} samples")
    assert ok
    assert elapsed < 30.0
