"""The benchmark tracer (perfbench/tracing.py) finds every name it wraps.

The tracer replaces each ``(owner, attr)`` of its ``TARGETS`` while a traced
benchmark runs, so a name that only the tracer uses must not disappear from
the package.  These tests read perfbench/ and write nothing there.
"""

import importlib.util
import sys
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "perfbench_tracing", Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
)
tracing = importlib.util.module_from_spec(_spec)
_write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # leave no cache in perfbench/
try:
    _spec.loader.exec_module(tracing)
finally:
    sys.dont_write_bytecode = _write_bytecode


def _current():
    return [owner.__dict__[attr] for _, owner, attr in tracing.TARGETS]


def test_every_trace_target_is_defined_on_its_owner():
    missing = [(name, attr) for name, owner, attr in tracing.TARGETS if attr not in owner.__dict__]
    assert not missing


def test_tracer_wraps_and_restores_every_target():
    before = _current()
    with tracing.Tracer().installed():
        during = _current()
        assert all(wrapped is not fn and wrapped.__wrapped__ is fn for wrapped, fn in zip(during, before))
    assert all(fn is original for fn, original in zip(_current(), before))


def test_one_traced_operation_reads_every_exercised_layer(tmp_path, monkeypatch):
    # ``run.py --trace 1`` fails its self-test when a per-layer metric that
    # PER_LAYER marks as exercised on a workload reads 0 there; one traced
    # operation of each workload, in ``tmp_path``, must pass it
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    monkeypatch.setattr(sys, "path", [str(perfbench), *sys.path])
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.setenv("FUSION_THREADS", "1")  # the client sets it per call
    spec = importlib.util.spec_from_file_location("perfbench_run", perfbench / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    from tracing import Tracer  # the module that run.layer_metrics reads spans with

    cli = run.import_package()
    for workload in run.WORKLOADS:
        workdir = tmp_path / workload
        workdir.mkdir()
        ctx = run.prepare(workload, 1, "order", workdir)
        op = run.Client(cli, workload, ctx, workdir, clock=None).run(tracer=Tracer())
        assert op["ok"], workload
        metrics = run.layer_metrics(op["spans"])[0]
        quiet = [name for name, value in metrics.items() if workload in run.PER_LAYER[name][1] and not value > 0]
        assert not quiet, (workload, quiet)
