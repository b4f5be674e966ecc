"""The benchmark's span targets name functions that exist and fire.

bench/spans.py wraps library functions by module and attribute path, and
reports a target it cannot find as missing rather than failing; each
workload in bench/workloads.py lists the spans its traced run expects.
These tests read both files, without writing bytecode next to them, so a
renamed or deleted function cannot silently drop a traced layer, and run
one cycle of each workload under the tracer, so a code path that bypasses
a traced function fails here rather than in the benchmark's traced run.
"""

import contextlib
import importlib
import io
import importlib.util
import os
import sys

import pytest

from spheresos import cli

BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def _load(name, monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(
        f"_bench_{name}", os.path.join(BENCH_DIR, f"{name}.py")
    )
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the body runs
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def targets(monkeypatch):
    return _load("spans", monkeypatch).TARGETS


def test_span_targets_resolve(targets):
    assert targets
    for name, module_name, path, _ in targets:
        assert module_name == "spheresos" or module_name.startswith("spheresos."), name
        owner = importlib.import_module(module_name)
        for attr in path.split("."):
            assert hasattr(owner, attr), f"{name}: {module_name}.{path} does not exist"
            owner = getattr(owner, attr)
        assert callable(owner), name


def test_expected_spans_are_targets(targets, monkeypatch):
    names = {t[0] for t in targets}
    workloads = _load("workloads", monkeypatch).WORKLOADS
    assert workloads
    for workload_name, workload in workloads.items():
        unknown = set(workload.expected_spans) - names
        assert not unknown, f"{workload_name} expects untraced spans {sorted(unknown)}"


@pytest.mark.parametrize("name", ["rate_table", "certify_qsep"])
def test_expected_spans_fire(name, tmp_path, monkeypatch):
    # the benchmark's traced order: warm-up calls, the workload's trace
    # cycles untraced, then the same cycles traced, so a span that only a
    # cold cache reaches fails here as it does in the benchmark
    spans = _load("spans", monkeypatch)
    workload = _load("workloads", monkeypatch).WORKLOADS[name]
    workdir = str(tmp_path)

    def call(argv):
        with contextlib.redirect_stderr(io.StringIO()) as err:
            assert cli.main(argv) == 0, (argv, err.getvalue())

    def cycles(tag):
        return [item for c in range(workload.trace_cycles)
                for item in workload.cycle(1, c, workdir, tag)]

    for argv in workload.warmup(workdir):
        call(argv)
    for item in cycles("a"):
        call(item.argv)
    items = cycles("b")
    with spans.Tracer() as tracer:
        for item in items:
            call(item.argv)
    assert not tracer.missing
    unfired = set(workload.expected_spans) - tracer.fired()
    assert not unfired, f"{name}: expected spans never fired: {sorted(unfired)}"
    for item in items:
        assert item.check() is None, item.argv
