"""CLI surface: subcommands, schemas, exit codes, determinism."""

import csv
import io
import itertools
import json
import math

import numpy as np
import pytest

from spheresos.certificate import Certificate
from spheresos.cli import main
from spheresos.poly import MatPoly, Poly


def _quartic_file(path, d, seed):
    rng = np.random.default_rng(seed)
    exps = [e for e in itertools.product(range(5), repeat=d) if sum(e) == 4]
    p = Poly(d, 4, {e: rng.standard_normal() for e in exps})
    path.write_text(json.dumps(p.to_dict()))
    return path, p


@pytest.fixture
def quartic_file(tmp_path):
    return _quartic_file(tmp_path / "quartic.json", 3, 21)


@pytest.fixture
def quartic_d5_file(tmp_path):
    # a quartic on S^4, where no cubature rule fits and the witness is searched
    return _quartic_file(tmp_path / "quartic_d5.json", 5, 22)


@pytest.fixture
def maxent_file(tmp_path):
    psi = np.zeros(4)
    psi[0] = psi[3] = 1.0 / math.sqrt(2)
    mat = np.outer(psi, psi)
    payload = {
        "dims": [2, 2],
        "labels": ["A", "B1"],
        "re": mat.tolist(),
        "im": (0.0 * mat).tolist(),
    }
    path = tmp_path / "maxent.json"
    path.write_text(json.dumps(payload))
    return path


def _read_csv(text):
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    return list(csv.DictReader(io.StringIO("\n".join(lines))))


def test_rho_table_csv_grid(tmp_path, capsys):
    out = tmp_path / "table.csv"
    rc = main(["rho-table", "--d", "3:4", "--ell-mult", "2:4", "--n", "1,2",
               "--format", "csv", "--out", str(out)])
    assert rc == 0
    text = out.read_text()
    assert text.startswith("# seed=0\n")  # reproducibility header
    rows = _read_csv(text)
    assert len(rows) == 2 * 3 * 2
    assert rows[0]["d"] == "3" and rows[0]["ell"] == "6"
    first_n1 = [r for r in rows if r["n"] == "1"][0]
    assert float(first_n1["rho2"]) > 0
    assert first_n1["rho4"] == ""
    # sidecar holds the timestamp, primary artifact does not
    assert (tmp_path / "table.csv.meta.json").exists()
    assert "written_at" not in text


def test_rho_table_explicit_ell(tmp_path):
    out = tmp_path / "t.csv"
    rc = main(["rho-table", "--d", "3", "--ell", "1", "--n", "1", "--out", str(out)])
    assert rc == 0
    row = _read_csv(out.read_text())[0]
    assert float(row["rho2"]) == pytest.approx(1.5, abs=1e-10)


def test_rho_table_deterministic_with_embedded_kernels(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    args = ["rho-table", "--d", "3", "--ell-mult", "2:5", "--n", "1:2", "--format", "json"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    payload = json.loads(a.read_text())
    assert payload["seed"] == 0
    assert {row["n"] for row in payload["rows"]} == {1, 2}
    for row in payload["rows"]:
        kernel = row["kernel"]
        assert len(kernel["e"]) == row["ell"] + 1
        assert np.linalg.norm(kernel["e"]) == pytest.approx(1.0, abs=1e-12)
        assert len(kernel["lambdas"]) == row["n"]
        # the embedded kernel is the one whose value the row reports
        value = row["rho2"] if row["n"] == 1 else row["rho4"]
        lambdas = np.asarray(kernel["lambdas"])
        assert np.sum(np.abs(1.0 / lambdas - 1.0)) == pytest.approx(value, rel=1e-12)
    # ell = 1 cannot reach the 4th harmonic: rho4 is inf, written as null in
    # strict JSON, and there is no kernel
    assert main(["rho-table", "--d", "3", "--ell", "1", "--n", "2", "--format", "json",
                 "--out", str(a)]) == 0

    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    (row,) = json.loads(a.read_text(), parse_constant=reject)["rows"]
    assert row["rho4"] is None and row["rho_bound"] is None and row["kernel"] is None
    # the CSV keeps its inf
    assert main(["rho-table", "--d", "3", "--ell", "1", "--n", "2", "--out", str(a)]) == 0
    (row,) = _read_csv(a.read_text())
    assert float(row["rho4"]) == math.inf and float(row["rho_bound"]) == math.inf


def test_rho_table_json_solves_each_kernel_once(tmp_path, monkeypatch):
    from spheresos import rho as rho_mod

    # the former JSON path: rate_table for the values, kernel_for per row
    rho_mod.kernel_for.cache_clear()
    specs = []
    for r in rho_mod.rate_table([3], [8, 12], [1, 2]):
        spec = rho_mod.kernel_for(r["d"], r["ell"], r["n"])
        specs.append({
            **{k: r[k] for k in ("d", "ell", "n", "rho2", "rho4", "rho_tilde", "rho_bound")},
            "kernel": {"e": list(map(float, spec.e)),
                       "lambdas": list(map(float, spec.lambdas))},
        })
    expected = json.dumps({"seed": 0, "rows": specs}, sort_keys=True) + "\n"

    rho_mod.kernel_for.cache_clear()
    calls = {"rho2": 0, "rho4": 0}
    for name in calls:
        solve = getattr(rho_mod, name)

        def counted(d, ell, _solve=solve, _name=name):
            calls[_name] += 1
            return _solve(d, ell)

        monkeypatch.setattr(rho_mod, name, counted)
    out = tmp_path / "t.json"
    assert main(["rho-table", "--d", "3", "--ell", "8,12", "--n", "1,2", "--format", "json",
                 "--out", str(out)]) == 0
    assert calls == {"rho2": 2, "rho4": 2}
    assert out.read_text() == expected


def test_certify_and_verify_round_trip(tmp_path, quartic_file, capsys):
    path, p = quartic_file
    cert_path = tmp_path / "cert.json"
    rc = main(["certify", "--input", str(path), "--ell", "12", "--out", str(cert_path)])
    assert rc == 0
    payload = json.loads(cert_path.read_text())
    assert payload["seed"] == 0
    cert = Certificate.from_dict(payload["certificate"])
    assert cert.spec.ell == 12
    assert payload["certificate"]["verification"]["passed"]
    rc = main(["verify", "--input", str(path), "--cert", str(cert_path)])
    assert rc == 0


def test_matrix_json_certifies_without_flag(tmp_path):
    # the JSON's "entries" key marks a matrix polynomial; --matrix changes
    # nothing, and its artifact bytes are those of the run without it
    rng = np.random.default_rng(22)
    import itertools

    exps = [e for e in itertools.product(range(3), repeat=3) if sum(e) == 2]
    entries = {key: Poly(3, 2, {e: 0.5 * rng.standard_normal() for e in exps})
               for key in ((0, 0), (0, 1), (1, 1))}
    path = tmp_path / "mat.json"
    path.write_text(json.dumps(MatPoly(3, 2, 2, entries).to_dict()))
    texts = []
    for flag in ([], ["--matrix"]):
        cert_path = tmp_path / f"cert{len(flag)}.json"
        ver_path = tmp_path / f"ver{len(flag)}.json"
        argv = ["certify", "--input", str(path), "--ell", "8", "--out", str(cert_path)]
        assert main(argv + flag) == 0
        assert main(["verify", "--input", str(path), "--cert", str(cert_path),
                     "--out", str(ver_path)] + flag) == 0
        texts.append((cert_path.read_text(), ver_path.read_text()))
    parts = json.loads(texts[0][0])["certificate"]["H"]["parts"]
    assert all("entries" in part for part in parts)
    assert texts[0] == texts[1]


def test_scalar_json_with_matrix_flag_certifies_as_scalar(tmp_path, quartic_file):
    path, _ = quartic_file
    texts = []
    for flag in ([], ["--matrix"]):
        out = tmp_path / f"cert{len(flag)}.json"
        assert main(["certify", "--input", str(path), "--ell", "8", "--out", str(out)]
                    + flag) == 0
        texts.append(out.read_text())
    parts = json.loads(texts[1])["certificate"]["H"]["parts"]
    assert not any("entries" in part for part in parts)
    assert texts[0] == texts[1]


@pytest.mark.parametrize("text", ["[1, 2]", "5"])
def test_non_object_polynomial_json_exits_1(tmp_path, capsys, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    assert main(["certify", "--input", str(bad), "--ell", "4"]) == 1
    assert "malformed polynomial JSON" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["[1, 2]", "5"])
def test_non_object_certificate_json_exits_1(tmp_path, capsys, quartic_file, text):
    path, _ = quartic_file
    bad = tmp_path / "bad_cert.json"
    bad.write_text(text)
    assert main(["verify", "--input", str(path), "--cert", str(bad)]) == 1
    assert "malformed certificate JSON" in capsys.readouterr().err


@pytest.mark.parametrize("edit", [
    lambda c: c["spec"].update(lambdas=c["spec"]["lambdas"][:1]),
    lambda c: c["spec"].update(e=c["spec"]["e"][:-1]),
    lambda c: c["spec"].update(ell=12),
    lambda c: c["normalization"].update(M=c["normalization"]["m"]),
], ids=["short_lambdas", "short_e", "raised_ell", "empty_range"])
def test_mismatched_certificate_json_exits_1(tmp_path, capsys, quartic_file, monkeypatch, edit):
    # parts of a certificate that disagree are refused when it is read,
    # before any check runs
    import spheresos.certificate as cert_mod

    path, _ = quartic_file
    cert_path = tmp_path / "cert.json"
    assert main(["certify", "--input", str(path), "--ell", "8", "--out", str(cert_path)]) == 0
    payload = json.loads(cert_path.read_text())
    edit(payload["certificate"])
    cert_path.write_text(json.dumps(payload))
    capsys.readouterr()
    monkeypatch.setattr(cert_mod, "_check", lambda *a, **k: pytest.fail("checks ran"))
    assert main(["verify", "--input", str(path), "--cert", str(cert_path)]) == 1
    assert "malformed certificate JSON" in capsys.readouterr().err


def _count_calls(monkeypatch, names):
    import spheresos.certificate as cert_mod

    calls = dict.fromkeys(names, 0)
    for name in calls:
        func = getattr(cert_mod, name)

        def counted(*args, _func=func, _name=name, **kwargs):
            calls[_name] += 1
            return _func(*args, **kwargs)

        monkeypatch.setattr(cert_mod, name, counted)
    return calls


def test_certify_tolerance_checks_witness_once(tmp_path, quartic_d5_file, monkeypatch, capsys):
    # --tol goes to build_certificate's own checks: one decomposition, one
    # range search and, with no cubature rule at d = 5, one witness search,
    # as without it
    path, _ = quartic_d5_file
    calls = _count_calls(monkeypatch, ("decompose", "sup_norm_sphere", "min_sphere"))
    out = tmp_path / "cert.json"
    assert main(["--tol", "1e-6", "certify", "--input", str(path), "--ell", "12",
                 "--out", str(out)]) == 0
    assert calls == {"decompose": 1, "sup_norm_sphere": 1, "min_sphere": 1}
    err = capsys.readouterr().err
    low = json.loads(out.read_text())["certificate"]["verification"]["lower_bound"]
    assert "range=multistart(" in err and f" bounds=[{low:.6g}, n/a] " in err


def test_certify_within_budget_searches_only_the_range(tmp_path, quartic_file, monkeypatch,
                                                       capsys):
    # at d = 3 the witness is read on a 480-node rule, and the range is the
    # input's extremes at the same nodes: no ascent runs
    import spheresos.poly as poly_mod

    path, _ = quartic_file
    calls = _count_calls(monkeypatch, ("decompose", "sup_norm_sphere", "min_sphere"))
    monkeypatch.setattr(poly_mod, "_multistart", lambda *a, **k: pytest.fail("ascent ran"))
    out = tmp_path / "cert.json"
    assert main(["--tol", "1e-6", "certify", "--input", str(path), "--ell", "12",
                 "--out", str(out)]) == 0
    assert calls == {"decompose": 1, "sup_norm_sphere": 0, "min_sphere": 0}
    err = capsys.readouterr().err
    assert "witness_check=cubature(480 nodes, degree 28)" in err
    verification = json.loads(out.read_text())["certificate"]["verification"]
    assert verification["witness_check"] == "cubature"
    assert verification["witness_rule"] == {"nodes": 480, "degree": 28}
    low, up = verification["lower_bound"], verification["upper_bound"]
    assert f"range=nodes(480) bounds=[{low:.6g}, {up:.6g}] passed=True" in err


def test_certify_reconstructs_the_witness_once(tmp_path, quartic_file, monkeypatch):
    # the cubature check sums the witness parts once; decompose keeps no
    # reconstruction of its own
    from spheresos.harmonic import HarmonicDecomp

    calls = []
    reconstruct = HarmonicDecomp.reconstruct

    def counted(self):
        calls.append(self)
        return reconstruct(self)

    monkeypatch.setattr(HarmonicDecomp, "reconstruct", counted)
    path, _ = quartic_file
    assert main(["certify", "--input", str(path), "--ell", "12",
                 "--out", str(tmp_path / "cert.json")]) == 0
    assert len(calls) == 1


def test_verify_within_budget_ignores_seed_and_restarts(tmp_path, quartic_file):
    path, _ = quartic_file
    cert_path = tmp_path / "cert.json"
    assert main(["certify", "--input", str(path), "--ell", "12", "--out", str(cert_path)]) == 0
    texts = set()
    for seed, restarts in (("0", "64"), ("7", "64"), ("0", "2")):
        out = tmp_path / f"verify-{seed}-{restarts}.json"
        assert main(["--seed", seed, "verify", "--input", str(path), "--cert", str(cert_path),
                     "--restarts", restarts, "--out", str(out)]) == 0
        # the artifact records the seed it was given; the report is the same
        texts.add(json.dumps(json.loads(out.read_text())["verification"], sort_keys=True))
    assert len(texts) == 1


def test_certify_within_budget_range_ignores_seed_and_restarts(tmp_path, quartic_file):
    path, _ = quartic_file
    ranges = set()
    for seed, restarts in itertools.product(range(5), ("1", "64")):
        out = tmp_path / f"cert-{seed}-{restarts}.json"
        assert main(["--seed", str(seed), "certify", "--input", str(path), "--ell", "12",
                     "--restarts", restarts, "--out", str(out)]) == 0
        norm = json.loads(out.read_text())["certificate"]["normalization"]
        ranges.add((norm["m"], norm["M"]))
    assert len(ranges) == 1


def test_verify_refuses_nonpositive_stored_lambda(tmp_path, capsys, quartic_file):
    # a stored lambda of 0 would make the slack infinite and the margin
    # -Infinity, which strict JSON cannot hold; the certificate is refused
    path, _ = quartic_file
    cert_path, out = tmp_path / "cert.json", tmp_path / "verify.json"
    assert main(["certify", "--input", str(path), "--ell", "12", "--out", str(cert_path)]) == 0
    payload = json.loads(cert_path.read_text())
    payload["certificate"]["spec"]["lambdas"][1] = 0.0
    cert_path.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["verify", "--input", str(path), "--cert", str(cert_path),
                 "--out", str(out)]) == 1
    assert "lambdas[1] = 0.0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("which", ["quartic_file", "quartic_d5_file"])
def test_zero_restarts_exit_1(tmp_path, capsys, request, which):
    # rejected on the cubature path (d = 3) as on the search path (d = 5)
    path, _ = request.getfixturevalue(which)
    cert_path = tmp_path / "cert.json"
    assert main(["certify", "--input", str(path), "--ell", "12", "--restarts", "0"]) == 1
    assert "restarts must be >= 1" in capsys.readouterr().err
    assert main(["certify", "--input", str(path), "--ell", "12", "--out", str(cert_path)]) == 0
    capsys.readouterr()
    assert main(["verify", "--input", str(path), "--cert", str(cert_path),
                 "--restarts", "0"]) == 1
    assert "restarts must be >= 1" in capsys.readouterr().err


def test_sidecars_record_every_setting(tmp_path, quartic_file):
    path, _ = quartic_file
    cert_path, ver_path, basis_path = (tmp_path / n for n in ("c.json", "v.json", "b.json"))
    assert main(["--tol", "1e-6", "certify", "--input", str(path), "--ell", "8",
                 "--restarts", "7", "--out", str(cert_path)]) == 0
    assert main(["--tol", "1e-6", "verify", "--input", str(path), "--cert", str(cert_path),
                 "--restarts", "5", "--out", str(ver_path)]) == 0
    assert main(["basis-debug", "--d", "3", "--max-degree", "6", "--nodes", "3",
                 "--out", str(basis_path)]) == 0

    def config(out):
        return json.loads((tmp_path / (out.name + ".meta.json")).read_text())["config"]

    for out, restarts in ((cert_path, 7), (ver_path, 5)):
        assert config(out)["restarts"] == restarts
        assert config(out)["tol"] == 1e-6
    assert config(cert_path)["command"] == "certify"
    assert config(basis_path)["max_degree"] == 6
    assert config(basis_path)["nodes"] == 3


def test_certify_underfunded_delta_exits_2(tmp_path, quartic_file):
    path, _ = quartic_file
    rc = main(["certify", "--input", str(path), "--ell", "12",
               "--delta", "1e-6", "--out", str(tmp_path / "c.json")])
    assert rc == 2


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_certify_non_finite_delta_exits_1(tmp_path, capsys, quartic_file, value):
    path, _ = quartic_file
    out = tmp_path / "c.json"
    assert main(["certify", "--input", str(path), "--ell", "12", "--delta", value,
                 "--out", str(out)]) == 1
    assert f"delta must be finite, got {value}" in capsys.readouterr().err
    assert not out.exists()


def test_certify_non_finite_coefficient_exits_1(tmp_path, capsys):
    path = tmp_path / "nan.json"
    terms = [{"exp": [4, 0, 0], "coef": 1.0}, {"exp": [0, 2, 2], "coef": math.nan}]
    path.write_text(json.dumps({"d": 3, "degree": 4, "terms": terms}))
    assert main(["certify", "--input", str(path), "--ell", "12",
                 "--out", str(tmp_path / "c.json")]) == 1
    assert "coefficient nan of (0, 2, 2) is not finite" in capsys.readouterr().err


def test_certify_repeated_exponent_exits_1(tmp_path, capsys):
    path, out = tmp_path / "twice.json", tmp_path / "c.json"
    terms = [{"exp": [2, 0], "coef": 1.0}, {"exp": [0, 2], "coef": 1.0},
             {"exp": [2, 0], "coef": 2.0}]
    path.write_text(json.dumps({"d": 2, "degree": 2, "terms": terms}))
    assert main(["certify", "--input", str(path), "--ell", "4", "--out", str(out)]) == 1
    assert "exponent [2, 0] listed twice" in capsys.readouterr().err
    assert not out.exists()


def test_certify_repeated_matrix_entry_exits_1(tmp_path, capsys):
    path, out = tmp_path / "twice.json", tmp_path / "c.json"
    terms = [{"exp": [2, 0], "coef": 1.0}, {"exp": [0, 2], "coef": 1.0}]
    entries = [{"i": 0, "j": 0, "terms": terms}, {"i": 0, "j": 1, "terms": terms},
               {"i": 0, "j": 1, "terms": terms}]
    path.write_text(json.dumps({"d": 2, "k": 2, "degree": 2, "entries": entries}))
    assert main(["certify", "--input", str(path), "--ell", "4", "--out", str(out)]) == 1
    assert "entry (0, 1) listed twice" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("case, value, message", [
    ("exponent", 2.7, "multi-index [2.7, 0] has an entry"),
    ("beside", 2.5, "multi-index [2.5, 0] has an entry"),
    ("d", 2.5, "(d, degree) [2.5, 2] has an entry"),
    ("entry", 0.5, "entry (i, j) [0, 0.5] has an entry"),
    ("k", 2.5, "(d, k, degree) [2, 2.5, 2] has an entry"),
    ("ell", 4.5, "spec (d, ell, n) [2, 4.5, 1] has an entry"),
])
def test_non_integral_json_integer_exits_1(tmp_path, capsys, case, value, message):
    # int() would truncate each of these (and sum [2.5, 0] into [2, 0]);
    # every one is refused, naming it
    terms = [{"exp": [2, 0], "coef": 1.0}, {"exp": [0, 2], "coef": 1.0}]
    data = {"d": 2, "degree": 2, "terms": terms}
    if case == "exponent":
        terms[0]["exp"] = [value, 0]
    elif case == "beside":
        terms.append({"exp": [value, 0], "coef": 1.0})
    elif case == "d":
        data["d"] = value
    elif case in ("entry", "k"):
        data = {"d": 2, "k": value if case == "k" else 2, "degree": 2,
                "entries": [{"i": 0, "j": value if case == "entry" else 1, "terms": terms}]}
    path, out = tmp_path / "in.json", tmp_path / "out.json"
    path.write_text(json.dumps(data))
    if case == "ell":
        assert main(["certify", "--input", str(path), "--ell", "4", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        payload["certificate"]["spec"]["ell"] = value
        out.write_text(json.dumps(payload))
        argv = ["verify", "--input", str(path), "--cert", str(out)]
    else:
        argv = ["certify", "--input", str(path), "--ell", "4", "--out", str(out)]
    capsys.readouterr()
    assert main(argv) == 1
    assert message + " that is not an integer" in capsys.readouterr().err
    assert case == "ell" or not out.exists()


def test_qsep_non_finite_operator_exits_1(tmp_path, capsys, maxent_file):
    payload = json.loads(maxent_file.read_text())
    payload["re"][1][2] = math.nan
    path = tmp_path / "nan_op.json"
    path.write_text(json.dumps(payload))
    assert main(["qsep", "--op", str(path), "--ell", "8"]) == 1
    assert "matrix entry (1, 2) = (nan+0j) is not finite" in capsys.readouterr().err


@pytest.mark.parametrize("dims, message", [
    ([2.5, 2], "dims [2.5, 2] has an entry that is not an integer"),
    ([-2, -2], "dims [-2, -2] has an entry below 1"),
])
def test_qsep_bad_dims_exit_1(tmp_path, capsys, maxent_file, dims, message):
    # int() truncated [2.5, 2] to (2, 2) and ran; [-2, -2] has the 4 x 4 product
    payload = json.loads(maxent_file.read_text())
    payload["dims"] = dims
    path, out = tmp_path / "op.json", tmp_path / "gap.json"
    path.write_text(json.dumps(payload))
    assert main(["qsep", "--op", str(path), "--ell", "8", "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_qsep_non_block_positive_operator_writes_its_bound(tmp_path, maxent_file):
    # I - 2 swap is -1 on product states with x = y: no refusal, the artifact
    # is written and the exit code is the witness sign's
    swap = np.eye(4)[[0, 2, 1, 3]]
    payload = json.loads(maxent_file.read_text())
    payload["re"] = (np.eye(4) - 2.0 * swap).tolist()
    path, out = tmp_path / "op.json", tmp_path / "gap.json"
    path.write_text(json.dumps(payload))
    assert main(["qsep", "--op", str(path), "--ell", "8", "--out", str(out)]) in (0, 2)
    payload = json.loads(out.read_text())
    assert payload["h_lower"] <= payload["h_certified_upper"]
    Certificate.from_dict(payload["certificate"])


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("command", ["certify", "verify", "check-extension"])
def test_non_finite_tolerance_exits_1(tmp_path, capsys, quartic_file, maxent_file,
                                      command, value):
    # nan fails every comparison and inf passes every one, so either would
    # decide the verdict instead of the checks
    path, _ = quartic_file
    cert_path, out = tmp_path / "cert.json", tmp_path / "out.json"
    if command == "certify":
        argv = ["certify", "--input", str(path), "--ell", "12", "--out", str(out)]
    elif command == "verify":
        assert main(["certify", "--input", str(path), "--ell", "12", "--out", str(cert_path)]) == 0
        argv = ["verify", "--input", str(path), "--cert", str(cert_path), "--out", str(out)]
    else:
        argv = ["qsep", "--check-extension", str(maxent_file), str(maxent_file), "--out", str(out)]
    capsys.readouterr()
    assert main(["--tol", value, *argv]) == 1
    assert f"must be finite, got {value}" in capsys.readouterr().err
    assert not out.exists()


def test_tolerance_override_flag(tmp_path, quartic_file):
    # an absurdly lax witness tolerance turns a margin-sound certificate's
    # positivity check into a pass even with a slightly negative witness
    path, _ = quartic_file
    cert_path = tmp_path / "cert.json"
    rc = main(["certify", "--input", str(path), "--ell", "12", "--out", str(cert_path)])
    assert rc == 0
    rc = main(["--tol", "1e-2", "verify", "--input", str(path), "--cert", str(cert_path)])
    assert rc == 0


def test_certify_tolerance_override(tmp_path, quartic_file):
    # --tol reaches certify's own report: an underfunded slack leaves a
    # witness minimum near -0.03, which fails the default tolerance but not
    # 0.1; the margin check keeps its fixed threshold, so both runs exit 2
    path, _ = quartic_file
    checks = {}
    for tol in (None, "0.1"):
        out = tmp_path / f"cert_{tol}.json"
        argv = ["certify", "--input", str(path), "--ell", "12", "--delta", "1e-6",
                "--out", str(out)]
        assert main(argv if tol is None else ["--tol", tol, *argv]) == 2
        checks[tol] = json.loads(out.read_text())["certificate"]["verification"]["checks"]
    assert checks[None]["witness_positive"] is False
    assert checks["0.1"]["witness_positive"] is True
    assert checks["0.1"]["margin"] is False


def test_certify_missing_file_exits_1(tmp_path, capsys):
    rc = main(["certify", "--input", str(tmp_path / "nope.json"), "--ell", "4"])
    assert rc == 1
    assert "no such file" in capsys.readouterr().err


def test_certify_malformed_json_reports_position(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"d": 3,\n  broken')
    rc = main(["certify", "--input", str(bad), "--ell", "4"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "line 2" in err and "column" in err


def test_certify_schema_violation_exits_1(tmp_path, capsys):
    bad = tmp_path / "schema.json"
    bad.write_text(json.dumps({"d": 2, "degree": 3, "terms": [{"exp": [1, 1], "coef": 1.0}]}))
    rc = main(["certify", "--input", str(bad), "--ell", "4"])
    assert rc == 1


def test_qsep_maxent(tmp_path, maxent_file):
    out = tmp_path / "gap.json"
    rc = main(["qsep", "--op", str(maxent_file), "--ell", "16", "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["h_lower"] == pytest.approx(0.5, abs=1e-6)
    assert payload["h_certified_upper"] >= 0.5
    assert payload["certificate"]["verification"]["passed"]


def test_qsep_prints_sandwich_and_witness_check(tmp_path, maxent_file, capsys):
    out = tmp_path / "gap.json"
    assert main(["qsep", "--op", str(maxent_file), "--ell", "8", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    low, up = payload["h_lower"], payload["h_certified_upper"]
    err = capsys.readouterr().err
    assert err.startswith(f"qsep: h_lower={low:.9g} h_certified_upper={up:.9g} "
                          f"gap={up / low - 1.0:.3e} ")
    assert "witness_check=cubature(2420 nodes, degree 18) passed=True" in err


def test_qsep_check_extension(tmp_path):
    rng = np.random.default_rng(31)
    from spheresos.quantum import partial_trace, product_extension

    x = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    y = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    x /= np.linalg.norm(x)
    y /= np.linalg.norm(y)
    ext = product_extension(x, y, 2)
    rho = partial_trace(ext, ["A", "B1"])
    ext_path = tmp_path / "ext.json"
    rho_path = tmp_path / "rho.json"
    ext_path.write_text(json.dumps(ext.to_dict()))
    rho_path.write_text(json.dumps(rho.to_dict()))
    out = tmp_path / "report.json"
    rc = main(["qsep", "--check-extension", str(ext_path), str(rho_path), "--out", str(out)])
    assert rc == 0
    assert json.loads(out.read_text())["report"]["passed"]


def test_basis_debug(tmp_path):
    out = tmp_path / "basis.json"
    rc = main(["basis-debug", "--d", "3", "--max-degree", "4", "--nodes", "2",
               "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["endpoint_values"] == [1.0, 3.0, 5.0, 7.0, 9.0]
    assert payload["gauss_nodes"] == pytest.approx(
        [-1 / math.sqrt(3), 1 / math.sqrt(3)], abs=1e-12
    )
    assert payload["weight_ratio"] == pytest.approx(0.5, abs=1e-12)


def test_env_degree_cap(tmp_path, monkeypatch, quartic_file, capsys):
    path, _ = quartic_file
    cert_path = tmp_path / "cert.json"
    monkeypatch.delenv("SPHERESOS_MAX_DEGREE", raising=False)
    assert main(["certify", "--input", str(path), "--ell", "8", "--out", str(cert_path)]) == 0
    capsys.readouterr()
    monkeypatch.setenv("SPHERESOS_MAX_DEGREE", "10")
    rc = main(["certify", "--input", str(path), "--ell", "12"])
    assert rc == 1
    assert "SPHERESOS_MAX_DEGREE" in capsys.readouterr().err
    # verify needs ell + deg(F) = 12 for the same certificate
    rc = main(["verify", "--input", str(path), "--cert", str(cert_path)])
    assert rc == 1
    assert "SPHERESOS_MAX_DEGREE" in capsys.readouterr().err


def test_emitted_json_reparses(tmp_path, quartic_file):
    path, p = quartic_file
    cert_path = tmp_path / "cert.json"
    main(["certify", "--input", str(path), "--ell", "8", "--out", str(cert_path)])
    cert = Certificate.from_dict(json.loads(cert_path.read_text())["certificate"])
    # round trip again through to_dict
    again = Certificate.from_dict(cert.to_dict())
    assert np.array_equal(again.spec.e, cert.spec.e)
    assert again.H.parts[0].terms == cert.H.parts[0].terms
