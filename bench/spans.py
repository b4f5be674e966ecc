"""Span tracing for the benchmark's traced run.

The tracer wraps public functions of the spheresos modules from outside the
library: each call becomes a span (name, start, end, parent span, item id)
kept in memory and summarised or written out when the run ends.  A wrapped
function is patched in every spheresos namespace that holds it by name
(``certificate`` imports ``sup_norm_sphere`` and the ``rho*`` functions,
``quantum`` imports ``build_certificate``), so calls are seen whichever
name they go through.  A target that no longer exists is reported as
missing rather than patched.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import itertools
import json
import sys
from collections import defaultdict
from time import perf_counter


def _rows_terms(args, kwargs, result):
    poly, X = args[0], args[1] if len(args) > 1 else kwargs["X"]
    rows = len(X)
    return (rows, rows * len(poly.terms))


def _converged(args, kwargs, result):
    return bool(result.converged)


def _skipped(args, kwargs, result):
    return int(result[1].skipped_directions)


def _report_passed(args, kwargs, result):
    return bool(result.passed)


def _cert_passed(args, kwargs, result):
    return bool(result.verification.passed)


# (span name, module, attribute path, per-call info extractor or None)
TARGETS = [
    ("poly.eval_many", "spheresos.poly", "Poly.eval_many", _rows_terms),
    ("poly.matpoly_eval_many", "spheresos.poly", "MatPoly.eval_many", None),
    ("poly.gradient_many", "spheresos.poly", "Poly.gradient_many", None),
    ("poly.sup_norm_sphere", "spheresos.poly", "sup_norm_sphere", _converged),
    ("harmonic.decompose", "spheresos.harmonic", "decompose", None),
    ("harmonic.decompose_matrix", "spheresos.harmonic", "decompose_matrix", None),
    ("harmonic.reconstruct", "spheresos.harmonic", "HarmonicDecomp.reconstruct", None),
    ("gegenbauer.gauss_rule", "spheresos.gegenbauer", "GegenbauerBasis.gauss_rule", None),
    ("gegenbauer.orthonormal_values", "spheresos.gegenbauer",
     "GegenbauerBasis.orthonormal_values", None),
    ("toeplitz.build", "spheresos.toeplitz", "build", None),
    ("toeplitz.lambda_max", "spheresos.toeplitz", "lambda_max", None),
    ("rho.rho2", "spheresos.rho", "rho2", None),
    ("rho.rho4", "spheresos.rho", "rho4", _skipped),
    ("rho.rho_tilde", "spheresos.rho", "rho_tilde", None),
    ("rho.kernel_spec_from_e", "spheresos.rho", "kernel_spec_from_e", None),
    ("rho.rate_table", "spheresos.rho", "rate_table", None),
    ("certificate.build_certificate", "spheresos.certificate", "build_certificate",
     _cert_passed),
    ("certificate.verify_certificate", "spheresos.certificate", "verify_certificate",
     _report_passed),
    ("quantum.bss_gap_certificate", "spheresos.quantum", "bss_gap_certificate", None),
    ("quantum.hsep_lower", "spheresos.quantum", "hsep_lower", None),
    ("quantum.realify", "spheresos.quantum", "realify", None),
    ("cli.main", "spheresos.cli", "main", None),
]

_KERNEL_SPANS = ("rho.rho2", "rho.rho4", "rho.rho_tilde")


class Tracer:
    """Install wrappers, record spans, restore the originals on exit."""

    def __init__(self):
        self.spans = []  # (id, name, start, end, parent id or -1, item, info)
        self.item = None
        self.missing = []
        self._ids = itertools.count()
        self._stack = []  # ids of the open spans; every run is single-threaded
        self._patches = []  # (owner, attribute, original)

    def _wrap(self, name, fn, info):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else -1
            sid = next(tracer._ids)
            stack.append(sid)
            result = extra = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                if info is not None and result is not None:
                    extra = info(args, kwargs, result)
                tracer.spans.append((sid, name, t0, t1, parent, tracer.item, extra))

        return wrapper

    def install(self):
        package = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "spheresos" or n.startswith("spheresos."))]
        for name, module_name, path, info in TARGETS:
            module = importlib.import_module(module_name)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = vars(owner).get(attr) if owner is not None else None
            if not callable(original):
                self.missing.append(name)
                continue
            wrapped = self._wrap(name, original, info)
            if owner_name:
                self._patch(owner, attr, original, wrapped)
                continue
            for mod in package:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapped)

    def _patch(self, owner, attr, original, wrapped):
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def fired(self) -> set:
        return {s[1] for s in self.spans}

    def summary(self) -> dict:
        """Per-name aggregates plus the counters derived from the span tree.

        Self time is a span's duration minus its children's durations
        (children of one span run one after another)."""
        by_id = {s[0]: s for s in self.spans}
        covered = defaultdict(float)
        for s in self.spans:
            covered[s[4]] += s[3] - s[2]
        agg = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0, "info": []})
        self_sum = 0.0
        for sid, name, t0, t1, _, _, extra in self.spans:
            own = (t1 - t0) - covered[sid]
            a = agg[name]
            a["calls"] += 1
            a["self_s"] += own
            a["total_s"] += t1 - t0
            if extra is not None:
                a["info"].append(extra)
            self_sum += own

        def has_ancestor(span, name):
            parent = by_id.get(span[4])
            while parent is not None:
                if parent[1] == name:
                    return True
                parent = by_id.get(parent[4])
            return False

        kernel_misses = sum(
            1 for s in self.spans
            if s[1] in _KERNEL_SPANS and has_ancestor(s, "certificate.build_certificate")
        )
        gamma = [s[6] for s in self.spans
                 if s[1] == "certificate.build_certificate"
                 and has_ancestor(s, "quantum.bss_gap_certificate")]
        return {
            "names": dict(agg),
            "self_sum_s": self_sum,
            "kernel_misses": kernel_misses,
            "gamma_attempts": len(gamma),
            "gamma_passed": sum(1 for g in gamma if g),
        }

    def write(self, path, header: dict):
        """Write every span as gzipped JSON (written once, when the run ends)."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump({
                **header,
                "fields": ["id", "name", "start", "end", "parent", "item", "info"],
                "spans": self.spans,
            }, fh)
