"""CLI surface: subcommands, schemas, exit codes, determinism."""

import csv
import io
import json
import math

import numpy as np
import pytest

from spheresos.certificate import Certificate
from spheresos.cli import main
from spheresos.poly import Poly


@pytest.fixture
def quartic_file(tmp_path):
    rng = np.random.default_rng(21)
    import itertools

    exps = [e for e in itertools.product(range(5), repeat=3) if sum(e) == 4]
    p = Poly(3, 4, {e: rng.standard_normal() for e in exps})
    path = tmp_path / "quartic.json"
    path.write_text(json.dumps(p.to_dict()))
    return path, p


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
    # ell = 1 cannot reach the 4th harmonic: rho4 is inf and there is no kernel
    assert main(["rho-table", "--d", "3", "--ell", "1", "--n", "2", "--format", "json",
                 "--out", str(a)]) == 0
    (row,) = json.loads(a.read_text())["rows"]
    assert row["rho4"] == math.inf and row["kernel"] is None


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


def test_certify_underfunded_delta_exits_2(tmp_path, quartic_file):
    path, _ = quartic_file
    rc = main(["certify", "--input", str(path), "--ell", "12",
               "--delta", "1e-6", "--out", str(tmp_path / "c.json")])
    assert rc == 2


def test_tolerance_override_flag(tmp_path, quartic_file):
    # an absurdly lax witness tolerance turns a margin-sound certificate's
    # positivity check into a pass even with a slightly negative witness
    path, _ = quartic_file
    cert_path = tmp_path / "cert.json"
    rc = main(["certify", "--input", str(path), "--ell", "12", "--out", str(cert_path)])
    assert rc == 0
    rc = main(["--tol", "1e-2", "verify", "--input", str(path), "--cert", str(cert_path)])
    assert rc == 0


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
    monkeypatch.setenv("SPHERESOS_MAX_DEGREE", "10")
    rc = main(["certify", "--input", str(path), "--ell", "12"])
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
