"""Workload definitions: generated inputs, CLI calls and their checks.

Each workload is a closed loop with one client.  Its calls come in cycles:
a cycle is a fixed mix of input families, so every whole cycle does the
same kind of work and a run's metrics do not depend on where the clock
stopped.  Inputs are drawn from ``numpy.random.default_rng((seed, cycle))``
and written as JSON files; the program sees only those files.

Checks test invariants, not golden values, except for the rate table, which
is compared against ``reference_rho.csv`` (written by ``make_reference.py``).
Every check returns an error string, or None when the artifact is sound.
"""

from __future__ import annotations

import csv
import functools
import itertools
import json
import math
import os
from dataclasses import dataclass, field

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REFERENCE_CSV = os.path.join(BENCH_DIR, "reference_rho.csv")

# Relative tolerance of rate-table rows against the stored reference.  The
# rows come from dense symmetric eigensolves and a golden-section search to
# width 1e-8 in angle, which agree far below this across BLAS builds.
RHO_RTOL = 1e-6
WITNESS_TOL = 1e-8  # the library's default witness tolerance
SAMPLE_POINTS = 2048  # sphere points for the sampled upper-bound checks


@dataclass
class Item:
    """One CLI call of a cycle."""

    argv: list
    kind: str  # "certify", "verify", "rho-table" or "qsep"
    family: str
    out: str
    check: object  # callable() -> error string or None
    info: dict = field(default_factory=dict)  # filled by check


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return path


def _load_artifact(path):
    with open(path) as fh:
        return json.load(fh)


def _monomial_input(d, degree):
    exps = [degree] + [0] * (d - 1)
    return {"d": d, "degree": degree, "terms": [{"exp": exps, "coef": 1.0}]}


def _dense_terms(rng, d, degree):
    exps = [e for e in itertools.product(range(degree + 1), repeat=d) if sum(e) == degree]
    coefs = rng.standard_normal(len(exps))
    return [{"exp": list(e), "coef": float(c)} for e, c in zip(exps, coefs)]


def _sphere_points(rng, d, count):
    import numpy as np

    X = rng.standard_normal((count, d))
    return X / np.linalg.norm(X, axis=1)[:, None]


def _report_errors(rep, what):
    if not rep.get("passed"):
        return f"{what}: verification not passed: {rep.get('checks')}"
    if not rep["eq15_margin"] >= 0.0:
        return f"{what}: eq15_margin {rep['eq15_margin']!r} < 0"
    if not rep["witness_min"] >= -WITNESS_TOL:
        return f"{what}: witness_min {rep['witness_min']!r} < -{WITNESS_TOL}"
    return None


# ---------------------------------------------------------------------------
# certify_qsep, part 1: certify then verify each input, CLI defaults
# (--restarts 64)
# ---------------------------------------------------------------------------

# (family, d, degree, ell, matrix size k or None).  Most inputs are small,
# criterion 8's families on S^2; one d=8 quartic (330 terms) and one d=5
# sextic (210 terms, n=3) per cycle carry the arithmetic-bound load.  With
# the four qsep calls a cycle has 28 calls; the eight d=3 quartic certify
# calls are its 10th to 17th cheapest, so the median call lies in the
# middle of that family and not at its edge.
CERTIFY_CYCLE = [
    ("quartic_d3", 3, 4, 12, None),
    ("quadratic_k2", 3, 2, 8, 2),
    ("quartic_d3", 3, 4, 12, None),
    ("quartic_d3", 3, 4, 12, None),
    ("quartic_d8", 8, 4, 32, None),
    ("quartic_d3", 3, 4, 12, None),
    ("quartic_d3", 3, 4, 12, None),
    ("quadratic_k5", 3, 2, 8, 5),
    ("quartic_d3", 3, 4, 12, None),
    ("quartic_d3", 3, 4, 12, None),
    ("quartic_d3", 3, 4, 12, None),
    ("sextic_d5", 5, 6, 30, None),
]


def _certify_input(rng, d, degree, k):
    if k is None:
        return {"d": d, "degree": degree, "terms": _dense_terms(rng, d, degree)}
    entries = [{"i": i, "j": j, "terms": _dense_terms(rng, d, degree)}
               for i in range(k) for j in range(i, k)]
    return {"d": d, "k": k, "degree": degree, "entries": entries}


def _check_certify(item, input_path, matrix, seed):
    import numpy as np
    from spheresos.certificate import Certificate
    from spheresos.poly import MatPoly, Poly

    payload = _load_artifact(item.out)
    cert = Certificate.from_dict(payload["certificate"])
    err = _report_errors(payload["certificate"]["verification"], "certify")
    if err:
        return err
    F = (MatPoly if matrix else Poly).from_dict(_load_artifact(input_path))
    X = _sphere_points(np.random.default_rng(seed), F.d, SAMPLE_POINTS)
    values = F.eval_many(X)
    sampled_max = float(np.linalg.eigvalsh(values)[:, -1].max() if matrix else values.max())
    upper = cert.certified_upper_bound()
    if not upper >= sampled_max - 1e-9 * max(1.0, abs(sampled_max)):
        return f"certified upper bound {upper!r} below sampled maximum {sampled_max!r}"
    return None


def _check_verify(item):
    payload = _load_artifact(item.out)
    return _report_errors(payload["verification"], "verify")


def certify_cycle(seed, cycle, workdir, tag):
    import numpy as np

    rng = np.random.default_rng((seed, cycle))
    items = []
    for i, (family, d, degree, ell, k) in enumerate(CERTIFY_CYCLE):
        stem = os.path.join(workdir, f"{tag}c{cycle}-{i}")
        data = _certify_input(rng, d, degree, k)
        inp = _write_json(stem + ".in.json", data)
        call_seed = int(rng.integers(2**31))
        matrix = ["--matrix"] if k is not None else []
        cert_out, ver_out = stem + ".cert.json", stem + ".verify.json"
        cert_item = Item(
            ["--seed", str(call_seed), "certify", "--input", inp, "--ell", str(ell),
             "--out", cert_out] + matrix,
            "certify", family, cert_out, None)
        cert_item.check = (lambda it=cert_item, p=inp, m=k is not None, s=call_seed:
                           _check_certify(it, p, m, s))
        ver_item = Item(
            ["--seed", str(call_seed), "verify", "--input", inp, "--cert", cert_out,
             "--out", ver_out] + matrix,
            "verify", family, ver_out, None)
        ver_item.check = lambda it=ver_item: _check_verify(it)
        items += [cert_item, ver_item]
    return items


def certify_warmup(workdir):
    # One cheap call per (d, ell, n) the workload uses fills the in-process
    # kernel caches through the same public path the timed calls take.
    calls = []
    for d, degree, ell in sorted({(d, deg, ell) for _, d, deg, ell, _ in CERTIFY_CYCLE}):
        inp = _write_json(os.path.join(workdir, f"warm-{d}-{degree}-{ell}.json"),
                          _monomial_input(d, degree))
        calls.append(["certify", "--input", inp, "--ell", str(ell), "--restarts", "1",
                      "--out", inp + ".cert.json"])
    return calls


# ---------------------------------------------------------------------------
# rate_table: rho-table over d=3..8, n=1..3, a dense ell range up to 80
# ---------------------------------------------------------------------------

RATE_D = range(3, 9)
RATE_N = (1, 2, 3)
ELL_MIN, ELL_MAX, ELL_STRIDE = 8, 80, 4
# rho-table runs serially.  With --jobs 2 on a 2-vCPU VM the pool's two
# threads need both CPUs, and the host at times grants the VM about one:
# throughput then halved for minutes (2.2-4.1 instead of ~5 calls/s), a
# 50 % spread across ten seeds.  The serial path does the same work.
RATE_JOBS = 1


def rate_ells(rng):
    """One ell from each stride-4 block of [8, 80), plus 80 itself: a dense
    range whose cost hardly depends on the draw."""
    blocks = range(ELL_MIN, ELL_MAX, ELL_STRIDE)
    return [b + int(rng.integers(ELL_STRIDE)) for b in blocks] + [ELL_MAX]


@functools.lru_cache(maxsize=1)
def load_reference():
    with open(REFERENCE_CSV) as fh:
        rows = csv.DictReader(line for line in fh if not line.startswith("#"))
        return {(int(r["d"]), int(r["ell"]), int(r["n"])): r for r in rows}


def _check_rho_table(item, d, n, ells):
    ref = load_reference()
    with open(item.out) as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    got = [(int(r["d"]), int(r["ell"]), int(r["n"])) for r in rows]
    want = [(d, ell, n) for ell in sorted(ells)]
    if got != want:
        return f"rho-table rows {got[:3]}... do not match the requested grid"
    for row, key in zip(rows, got):
        expected = ref.get(key)
        if expected is None:
            return f"no reference row for {key}"
        for col in ("rho2", "rho4", "rho_tilde", "rho_bound"):
            a, b = row[col], expected[col]
            if (a == "") != (b == ""):
                return f"{key} {col}: {a!r} vs reference {b!r}"
            if a and not math.isclose(float(a), float(b), rel_tol=RHO_RTOL):
                return f"{key} {col}: {a} vs reference {b} (rtol {RHO_RTOL})"
        ell = key[1]
        # Criterion 4's bound on its own domain, ell >= 2nd.
        if n <= d and ell >= 2 * n * d and row["rho_bound"]:
            bound = 2.0 * n * n * (d / ell) ** 2
            if not float(row["rho_bound"]) <= bound:
                return f"{key} rho_bound {row['rho_bound']} exceeds 2n^2(d/ell)^2 = {bound}"
    return None


def rate_table_cycle(seed, cycle, workdir, tag):
    import numpy as np

    rng = np.random.default_rng((seed, cycle))
    items = []
    for d in RATE_D:
        ells = rate_ells(rng)
        for n in RATE_N:
            out = os.path.join(workdir, f"{tag}c{cycle}-d{d}-n{n}.csv")
            item = Item(
                ["--jobs", str(RATE_JOBS), "--seed", str(seed), "rho-table", "--d", str(d),
                 "--ell", ",".join(map(str, ells)), "--n", str(n), "--format", "csv",
                 "--out", out],
                "rho-table", f"n{n}", out, None)
            item.check = lambda it=item, d=d, n=n, e=ells: _check_rho_table(it, d, n, e)
            items.append(item)
    return items


def rate_table_warmup(workdir):
    out = os.path.join(workdir, "warm-rho.csv")
    return [["--jobs", str(RATE_JOBS), "rho-table", "--d", f"{RATE_D[0]}:{RATE_D[-1]}",
             "--ell", str(ELL_MIN), "--n", f"{RATE_N[0]}:{RATE_N[-1]}", "--out", out]]


# ---------------------------------------------------------------------------
# certify_qsep, part 2: Best Separable State sandwich on random
# block-positive operators
# ---------------------------------------------------------------------------

QSEP_ELLS = (8, 16, 32)
# (d_A, d_B) per cycle; operator i of cycle c runs at ell
# QSEP_ELLS[(i + c) % 3], so three cycles cover every (dims, ell) pair.
# (3, 4) is left out: one call takes 2.4-7.8 s depending on whether its
# witness search hits the iteration cap, so the few that fit in a run would
# set the tail.  (3, 3) still reaches k = 6.
QSEP_CYCLE = [(2, 2), (2, 3), (3, 3), (2, 3)]
QSEP_MIN_CYCLES = len(QSEP_ELLS)


def _random_psd(rng, n):
    import numpy as np

    G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return G @ G.conj().T / n


def _block_positive(rng, d_a, d_b, witness):
    """A PSD operator, or a decomposable witness P + Q^{T_B}, which is
    block-positive but in general not PSD."""
    n = d_a * d_b
    M = _random_psd(rng, n)
    if witness:
        Q = _random_psd(rng, n).reshape(d_a, d_b, d_a, d_b)
        M = M + Q.transpose(0, 3, 2, 1).reshape(n, n)
    M = 0.5 * (M + M.conj().T)
    return {"dims": [d_a, d_b], "labels": ["A", "B1"],
            "re": M.real.tolist(), "im": M.imag.tolist()}


def _check_qsep(item, op_path, seed):
    import numpy as np
    from spheresos.certificate import Certificate
    from spheresos.quantum import QOperator

    payload = _load_artifact(item.out)
    Certificate.from_dict(payload["certificate"])
    err = _report_errors(payload["certificate"]["verification"], "qsep")
    if err:
        return err
    low, up = payload["h_lower"], payload["h_certified_upper"]
    if not low <= up:
        return f"h_lower {low!r} > h_certified_upper {up!r}"
    M = QOperator.from_dict(_load_artifact(op_path))
    d_a, d_b = M.dims
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((SAMPLE_POINTS, d_a)) + 1j * rng.standard_normal((SAMPLE_POINTS, d_a))
    y = rng.standard_normal((SAMPLE_POINTS, d_b)) + 1j * rng.standard_normal((SAMPLE_POINTS, d_b))
    x /= np.linalg.norm(x, axis=1)[:, None]
    y /= np.linalg.norm(y, axis=1)[:, None]
    u = (x[:, :, None] * y[:, None, :]).reshape(SAMPLE_POINTS, -1)
    sampled = float(np.real(np.einsum("ni,ij,nj->n", u.conj(), M.mat, u)).max())
    if not sampled <= up * (1 + 1e-9):
        return f"product-state value {sampled!r} above h_certified_upper {up!r}"
    item.info["gap"] = up / low - 1.0
    return None


def qsep_cycle(seed, cycle, workdir, tag):
    import numpy as np

    rng = np.random.default_rng((seed, cycle, 1))  # a stream apart from certify's
    items = []
    for i, (d_a, d_b) in enumerate(QSEP_CYCLE):
        ell = QSEP_ELLS[(i + cycle) % len(QSEP_ELLS)]
        stem = os.path.join(workdir, f"{tag}c{cycle}-q{i}")
        op = _write_json(stem + ".op.json", _block_positive(rng, d_a, d_b, witness=(i + cycle) % 2 == 1))
        call_seed = int(rng.integers(2**31))
        out = stem + ".qsep.json"
        item = Item(["--seed", str(call_seed), "qsep", "--op", op, "--ell", str(ell),
                     "--out", out],
                    "qsep", f"{d_a}x{d_b}-ell{ell}", out, None)
        item.check = lambda it=item, p=op, s=call_seed: _check_qsep(it, p, s)
        items.append(item)
    return items


def qsep_warmup(workdir):
    calls = []
    for d_b in sorted({d_b for _, d_b in QSEP_CYCLE}):
        eye = [[float(i == j) for j in range(d_b)] for i in range(d_b)]
        op = _write_json(os.path.join(workdir, f"warm-op-{d_b}.json"),
                         {"dims": [1, d_b], "labels": ["A", "B1"], "re": eye,
                          "im": [[0.0] * d_b for _ in range(d_b)]})
        for ell in QSEP_ELLS:
            calls.append(["qsep", "--op", op, "--ell", str(ell), "--restarts", "1",
                          "--out", f"{op}.{ell}.qsep.json"])
    return calls


def certify_qsep_cycle(seed, cycle, workdir, tag):
    return (certify_cycle(seed, cycle, workdir, tag)
            + qsep_cycle(seed, cycle, workdir, tag))


def certify_qsep_warmup(workdir):
    return certify_warmup(workdir) + qsep_warmup(workdir)


@dataclass
class Workload:
    cycle: object  # (seed, cycle, workdir, tag) -> list[Item]
    warmup: object  # (workdir) -> list of argv
    min_cycles: int
    trace_cycles: int
    tail_pct: float
    expected_spans: tuple


WORKLOADS = {
    "certify_qsep": Workload(
        certify_qsep_cycle,
        certify_qsep_warmup,
        min_cycles=QSEP_MIN_CYCLES, trace_cycles=1, tail_pct=85.0,
        expected_spans=(
            "poly.eval_many", "poly.matpoly_eval_many", "poly.gradient_many",
            "poly.sup_norm_sphere", "harmonic.decompose", "harmonic.decompose_matrix",
            "harmonic.reconstruct", "gegenbauer.gauss_rule",
            "gegenbauer.orthonormal_values", "toeplitz.build",
            "certificate.build_certificate", "certificate.verify_certificate",
            "quantum.bss_gap_certificate", "quantum.hsep_lower", "quantum.realify",
            "cli.main",
        ),
    ),
    "rate_table": Workload(
        rate_table_cycle,
        rate_table_warmup,
        min_cycles=1, trace_cycles=2, tail_pct=90.0,
        expected_spans=(
            "gegenbauer.gauss_rule", "gegenbauer.orthonormal_values", "toeplitz.build",
            "toeplitz.lambda_max", "rho.rho2", "rho.rho4", "rho.rho_tilde",
            "rho.kernel_spec_from_e", "rho.rate_table", "cli.main",
        ),
    ),
}
