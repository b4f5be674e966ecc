"""Command-line entry point.

Subcommands: rho-table (rate quantities over a grid, CSV or JSON), certify /
verify (build and re-check sphere certificates from polynomial JSON), qsep
(Best Separable State gap certificates and extension-condition reports), and
basis-debug (Gegenbauer recurrence and quadrature dumps).

Exit codes: 0 success, 1 input or usage error, 2 computed but failed
verification.  Primary artifacts are byte-deterministic for a fixed config;
timestamps go to a ``<out>.meta.json`` sidecar, with every parsed setting.
A polynomial JSON is scalar or matrix-valued by its own keys (poly.from_dict);
``--matrix`` is accepted for compatibility and ignored.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys
import time

from . import certificate as cert_mod
from . import quantum as q_mod
from . import rho as rho_mod
from . import poly as poly_mod

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


def _write_artifact(args, text: str):
    """Write text to args.out (stdout without one) and, beside it, the
    ``.meta.json`` sidecar with the time and every parsed setting."""
    if args.out is None:
        sys.stdout.write(text)
        return
    with open(args.out, "w") as fh:
        fh.write(text)
    config = {k: v for k, v in vars(args).items() if k != "func"}
    meta = {"written_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"), "config": config}
    with open(args.out + ".meta.json", "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _json_text(obj, allow_nan: bool = True) -> str:
    # No indent: json.dumps then takes its C encoder, about 6x faster on the
    # certify and qsep artifacts.
    return json.dumps(obj, sort_keys=True, allow_nan=allow_nan) + "\n"


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
        _write_artifact(args, buf.getvalue())
    else:
        specs = []
        for r in rows:
            spec = r["kernel"]  # None when rho4 is inf
            specs.append({
                # strict JSON has no inf: an unreachable rho4 is written as null
                **{k: None if r[k] == math.inf else r[k]
                   for k in ("d", "ell", "n", "rho2", "rho4", "rho_tilde", "rho_bound")},
                "kernel": None if spec is None else {
                    "e": list(map(float, spec.e)), "lambdas": list(map(float, spec.lambdas))},
            })
        _write_artifact(args, _json_text({"seed": args.seed, "rows": specs}, allow_nan=False))
    return 0


def _cmd_certify(args) -> int:
    F = poly_mod.from_dict(_load_json(args.input))
    _check_cap(args.ell + F.degree)
    kwargs = {} if args.tol is None else {"tol_witness": args.tol}
    cert = cert_mod.build_certificate(
        F, ell=args.ell, delta=args.delta, restarts=args.restarts, seed=args.seed, **kwargs
    )
    payload = {"seed": args.seed, "ell": args.ell, "certificate": cert.to_dict()}
    _write_artifact(args, _json_text(payload))
    rep = cert.verification
    upper = "n/a" if rep.upper_bound is None else f"{rep.upper_bound:.6g}"
    print(
        f"certify: n={cert.spec.n} ell={cert.spec.ell} delta={cert.delta:.6g} "
        f"witness_min={rep.witness_min:.3e} witness_check={_witness_how(rep)} "
        f"margin={rep.eq15_margin:.3e} range={cert.range_search} "
        f"bounds=[{rep.lower_bound:.6g}, {upper}] passed={rep.passed}",
        file=sys.stderr,
    )
    return 0 if rep.passed else 2


def _witness_how(rep) -> str:
    """How a report decided witness positivity, for the stderr summaries."""
    if rep.witness_check == "cubature":
        return "cubature({nodes} nodes, degree {degree})".format(**rep.witness_rule)
    return "multistart({converged}/{restarts} converged)".format(**rep.witness_search)


def _cmd_verify(args) -> int:
    F = poly_mod.from_dict(_load_json(args.input))
    payload = _load_json(args.cert)
    if isinstance(payload, dict):
        payload = payload.get("certificate", payload)
    cert = cert_mod.Certificate.from_dict(payload)
    _check_cap(cert.spec.ell + F.degree)
    kwargs = {} if args.tol is None else {"tol_witness": args.tol}
    rep = cert_mod.verify_certificate(F, cert, restarts=args.restarts, seed=args.seed, **kwargs)
    text = _json_text({"seed": args.seed, "verification": rep.to_dict()})
    _write_artifact(args, text)
    return 0 if rep.passed else 2


def _cmd_qsep(args) -> int:
    if args.check_extension:
        ext = q_mod.QOperator.from_dict(_load_json(args.check_extension[0]))
        rho = q_mod.QOperator.from_dict(_load_json(args.check_extension[1]))
        kwargs = {} if args.tol is None else {"tol": args.tol}
        report = q_mod.check_dps_conditions(ext, rho, **kwargs)
        _write_artifact(args, _json_text({"seed": args.seed, "report": report}))
        return 0 if report["passed"] else 2
    if args.op is None:
        raise _InputError("qsep requires --op or --check-extension")
    M = q_mod.QOperator.from_dict(_load_json(args.op))
    _check_cap(args.ell + 2)
    out = q_mod.bss_gap_certificate(M, ell=args.ell, restarts=args.restarts, seed=args.seed)
    low, up, rep = out["h_lower"], out["h_certified_upper"], out["cert"].verification
    _write_artifact(args, _json_text({"seed": args.seed, "h_lower": low, "h_certified_upper": up,
                                      "gamma": out["gamma"], "certificate": out["cert"].to_dict()}))
    gap = up / low - 1.0 if low > 0 else math.inf
    print(f"qsep: h_lower={low:.9g} h_certified_upper={up:.9g} gap={gap:.3e} "
          f"witness_check={_witness_how(rep)} passed={rep.passed}", file=sys.stderr)
    return 0 if rep.passed else 2


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
    _write_artifact(args, _json_text(payload))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process (parsing keeps no state
    in it)."""
    parser = argparse.ArgumentParser(
        prog="spheresos",
        description="Sum-of-squares certificates on the sphere: rate tables, "
        "certificate construction and verification, Best Separable State bounds.",
    )
    parser.add_argument("--seed", type=int, default=0, help="RNG seed recorded in artifacts")
    parser.add_argument("--jobs", type=int, default=None,
                        help="accepted for compatibility and ignored: grid sweeps run serially")
    parser.add_argument("--tol", type=float, default=None,
                        help="override the witness-positivity tolerance of certify and "
                        "verify (the other checks keep fixed thresholds) and the "
                        "tolerance of qsep --check-extension")
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
    p.add_argument("--matrix", action="store_true",
                   help="accepted for compatibility and ignored: a matrix polynomial "
                   "is recognized by the \"entries\" key of its JSON")
    p.add_argument("--delta", type=float, default=None, help="override the theorem slack")
    p.add_argument("--restarts", type=int, default=64,
                   help="restarts of the range and witness positivity searches, used "
                   "only where no cubature rule fits the node budget (d > 4 or a large "
                   "ell); within it the range is read at the rule's nodes")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("verify", help="re-verify a certificate against its input")
    p.add_argument("--input", required=True)
    p.add_argument("--cert", required=True)
    p.add_argument("--matrix", action="store_true", help="accepted and ignored, as for certify")
    p.add_argument("--restarts", type=int, default=64,
                   help="restarts of the witness positivity search, used only where "
                   "no cubature rule fits the node budget (d > 4 or a large ell)")
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
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (_InputError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
