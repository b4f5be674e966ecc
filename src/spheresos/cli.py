"""Command-line entry point.

Subcommands: rho-table (rate quantities over a grid, CSV or JSON), certify /
verify (build and re-check sphere certificates from polynomial JSON), qsep
(Best Separable State gap certificates and extension-condition reports), and
basis-debug (Gegenbauer recurrence and quadrature dumps).

Exit codes: 0 success, 1 input or usage error, 2 computed but failed
verification.  Primary artifacts are byte-deterministic for a fixed config;
timestamps go to a ``<out>.meta.json`` sidecar.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time

from . import certificate as cert_mod
from . import quantum as q_mod
from . import rho as rho_mod
from .poly import MatPoly, Poly

_MAX_DEGREE_ENV = "SPHERESOS_MAX_DEGREE"


def _degree_cap() -> int | None:
    raw = os.environ.get(_MAX_DEGREE_ENV)
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise SystemExit(f"invalid {_MAX_DEGREE_ENV}={raw!r}: expected an integer")


def _check_cap(needed: int):
    cap = _degree_cap()
    if cap is not None and needed > cap:
        raise _InputError(
            f"requested basis degree {needed} exceeds {_MAX_DEGREE_ENV}={cap}"
        )


class _InputError(Exception):
    pass


def _parse_int_spec(spec: str) -> list[int]:
    """Parse '3:8' as an inclusive range and '1,2,5' as a list."""
    out = []
    for piece in spec.split(","):
        piece = piece.strip()
        if ":" in piece:
            lo, hi = piece.split(":", 1)
            out.extend(range(int(lo), int(hi) + 1))
        elif piece:
            out.append(int(piece))
    if not out:
        raise _InputError(f"empty integer spec: {spec!r}")
    return out


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise _InputError(f"no such file: {path}")
    except json.JSONDecodeError as exc:
        raise _InputError(
            f"malformed JSON in {path}: line {exc.lineno} column {exc.colno}: {exc.msg}"
        )


def _write_artifact(path: str | None, text: str, config: dict):
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w") as fh:
        fh.write(text)
    meta = {"written_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"), "config": config}
    with open(path + ".meta.json", "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _cmd_rho_table(args) -> int:
    d_list = _parse_int_spec(args.d)
    n_list = _parse_int_spec(args.n)
    rows = []
    for d in d_list:
        if args.ell is not None:
            ells = _parse_int_spec(args.ell)
        else:
            ells = [m * d for m in _parse_int_spec(args.ell_mult)]
        _check_cap(max(ells) + 2 * max(n_list))
        rows.extend(rho_mod.rate_table([d], ells, n_list))
    rows.sort(key=lambda r: (r["d"], r["ell"], r["n"]))
    config = {"command": "rho-table", "seed": args.seed, "d": args.d,
              "ell": args.ell, "ell_mult": args.ell_mult, "n": args.n}
    if args.format == "csv":
        buf = io.StringIO()
        buf.write(f"# seed={args.seed}\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["d", "ell", "n", "rho2", "rho4", "rho_tilde", "rho_bound"])
        for r in rows:
            writer.writerow([
                r["d"], r["ell"], r["n"],
                "" if r["rho2"] is None else repr(r["rho2"]),
                "" if r["rho4"] is None else repr(r["rho4"]),
                repr(r["rho_tilde"]),
                "" if r["rho_bound"] is None else repr(r["rho_bound"]),
            ])
        _write_artifact(args.out, buf.getvalue(), config)
    else:
        specs = []
        for r in rows:
            try:
                spec = rho_mod.kernel_for(r["d"], r["ell"], r["n"])
                kernel = {"e": list(map(float, spec.e)),
                          "lambdas": list(map(float, spec.lambdas))}
            except rho_mod.DegenerateKernelError:
                kernel = None  # rho4 is inf: no kernel reaches the 4th harmonic
            specs.append({
                **{k: r[k] for k in ("d", "ell", "n", "rho2", "rho4", "rho_tilde", "rho_bound")},
                "kernel": kernel,
            })
        _write_artifact(args.out, _json_text({"seed": args.seed, "rows": specs}), config)
    return 0


def _load_polynomial(path: str, matrix: bool):
    data = _load_json(path)
    try:
        return MatPoly.from_dict(data) if matrix else Poly.from_dict(data)
    except ValueError as exc:
        raise _InputError(str(exc))


def _cmd_certify(args) -> int:
    F = _load_polynomial(args.input, args.matrix)
    _check_cap(args.ell + F.degree)
    cert = cert_mod.build_certificate(
        F, ell=args.ell, delta=args.delta, restarts=args.restarts, seed=args.seed
    )
    if args.tol is not None:
        cert.verification = cert_mod.verify_certificate(
            F, cert, restarts=args.restarts, seed=args.seed, tol_witness=args.tol
        )
    payload = {"seed": args.seed, "ell": args.ell, "certificate": cert.to_dict()}
    config = {"command": "certify", "input": args.input, "ell": args.ell,
              "seed": args.seed, "matrix": args.matrix, "delta": args.delta}
    _write_artifact(args.out, _json_text(payload), config)
    rep = cert.verification
    print(
        f"certify: n={cert.spec.n} ell={cert.spec.ell} delta={cert.delta:.6g} "
        f"witness_min={rep.witness_min:.3e} margin={rep.eq15_margin:.3e} "
        f"passed={rep.passed}",
        file=sys.stderr,
    )
    return 0 if rep.passed else 2


def _cmd_verify(args) -> int:
    F = _load_polynomial(args.input, args.matrix)
    payload = _load_json(args.cert)
    cert = cert_mod.Certificate.from_dict(payload.get("certificate", payload))
    kwargs = {} if args.tol is None else {"tol_witness": args.tol}
    rep = cert_mod.verify_certificate(F, cert, restarts=args.restarts, seed=args.seed, **kwargs)
    text = _json_text({"seed": args.seed, "verification": rep.to_dict()})
    _write_artifact(args.out, text, {"command": "verify", "seed": args.seed})
    return 0 if rep.passed else 2


def _cmd_qsep(args) -> int:
    if args.check_extension:
        ext = q_mod.QOperator.from_dict(_load_json(args.check_extension[0]))
        rho = q_mod.QOperator.from_dict(_load_json(args.check_extension[1]))
        kwargs = {} if args.tol is None else {"tol": args.tol}
        report = q_mod.check_dps_conditions(ext, rho, **kwargs)
        _write_artifact(args.out, _json_text({"seed": args.seed, "report": report}),
                        {"command": "qsep-check-extension", "seed": args.seed})
        return 0 if report["passed"] else 2
    if args.op is None:
        raise _InputError("qsep requires --op or --check-extension")
    M = q_mod.QOperator.from_dict(_load_json(args.op))
    _check_cap(args.ell + 2)
    out = q_mod.bss_gap_certificate(M, ell=args.ell, restarts=args.restarts, seed=args.seed)
    payload = {
        "seed": args.seed,
        "h_lower": out["h_lower"],
        "h_certified_upper": out["h_certified_upper"],
        "gamma": out["gamma"],
        "certificate": out["cert"].to_dict(),
    }
    _write_artifact(args.out, _json_text(payload),
                    {"command": "qsep", "op": args.op, "ell": args.ell, "seed": args.seed})
    return 0 if out["cert"].verification.passed else 2


def _cmd_basis_debug(args) -> int:
    from .gegenbauer import GegenbauerBasis

    _check_cap(args.max_degree)
    basis = GegenbauerBasis(args.d, args.max_degree)
    nodes, weights = basis.gauss_rule(args.nodes)
    payload = {
        "d": args.d,
        "max_degree": args.max_degree,
        "endpoint_values": basis.endpoint_values.tolist(),
        "recurrence": basis.recurrence.tolist(),
        "weight_ratio": basis.weight_ratio,
        "gauss_nodes": nodes.tolist(),
        "gauss_weights": weights.tolist(),
        "seed": args.seed,
    }
    _write_artifact(args.out, _json_text(payload),
                    {"command": "basis-debug", "d": args.d, "seed": args.seed})
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spheresos",
        description="Sum-of-squares certificates on the sphere: rate tables, "
        "certificate construction and verification, Best Separable State bounds.",
    )
    parser.add_argument("--seed", type=int, default=0, help="RNG seed recorded in artifacts")
    parser.add_argument("--jobs", type=int, default=None,
                        help="accepted for compatibility and ignored: grid sweeps run serially")
    parser.add_argument("--tol", type=float, default=None,
                        help="override the witness-positivity / margin tolerance")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rho-table", help="rate quantities over a (d, ell, n) grid")
    p.add_argument("--d", required=True, help="dimensions, e.g. 3:8 or 3,5")
    p.add_argument("--ell", default=None, help="explicit ell values, e.g. 8,16")
    p.add_argument("--ell-mult", default="2:10", help="ell as multiples of d")
    p.add_argument("--n", default="1", help="half-degrees, e.g. 1,2")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_rho_table)

    p = sub.add_parser("certify", help="build a certificate for a polynomial JSON file")
    p.add_argument("--input", required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--matrix", action="store_true", help="input is a matrix polynomial")
    p.add_argument("--delta", type=float, default=None, help="override the theorem slack")
    p.add_argument("--restarts", type=int, default=64)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("verify", help="re-verify a certificate against its input")
    p.add_argument("--input", required=True)
    p.add_argument("--cert", required=True)
    p.add_argument("--matrix", action="store_true")
    p.add_argument("--restarts", type=int, default=64)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("qsep", help="Best Separable State gap certificate / extension check")
    p.add_argument("--op", default=None, help="bipartite Hermitian operator JSON")
    p.add_argument("--ell", type=int, default=8)
    p.add_argument("--restarts", type=int, default=32)
    p.add_argument("--check-extension", nargs=2, metavar=("EXT", "RHO"), default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_qsep)

    p = sub.add_parser("basis-debug", help="dump recurrence and quadrature data")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--max-degree", type=int, default=12)
    p.add_argument("--nodes", type=int, default=16)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_basis_debug)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
