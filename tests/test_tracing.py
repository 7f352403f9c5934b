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
