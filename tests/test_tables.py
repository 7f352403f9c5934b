"""Building a finite table's dense tensor is its structural scan.

``structure_tensor`` and ``action_tensor`` read the rows in row-major
order and raise at the first faulty pair: missing, then negative, then
leaving the basis.  The verifiers report that fault; the reference scans
in ``conftest`` are plain loops over the stored rows that share no code
with the builder.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusionrings import (
    BasedModuleTable,
    BasedRingTable,
    StructuralError,
    cyclic_group_ring,
    fibonacci,
    standard_module,
    verify_based_ring,
    verify_module,
)
from fusionrings.rings import frobenius_perron_dims, require_sound
from fusionrings.verification import VerificationReport

from conftest import module_scan_reference, ring_scan_reference

# targets outside every basis below: "!" sorts before all basis labels, "zz" after
ESCAPES = ["!", "zz"]
FAULTS = ["missing", "negative", "escape", "both"]


@st.composite
def row_tables(draw, sources, targets):
    """Rows over ``sources`` x ``targets`` with coefficients 0..2; a pair is
    missing, has a negative coefficient, escapes the targets, or both, at a
    rate drawn per table."""
    kinds = [None] * draw(st.sampled_from([1, 4, 30])) + FAULTS
    rows = {}
    for a in sources:
        for b in targets:
            fault = draw(st.sampled_from(kinds))
            if fault == "missing":
                continue
            row = {c: draw(st.integers(0, 2)) for c in targets}
            if fault in ("negative", "both"):
                row[draw(st.sampled_from(targets))] = -draw(st.integers(1, 2))
            if fault in ("escape", "both"):
                for c in draw(st.lists(st.sampled_from(ESCAPES), min_size=1, unique=True)):
                    row[c] = draw(st.sampled_from([-1, 1, 2]))
            rows[a, b] = row
    return rows


@st.composite
def ring_tables(draw):
    """Rings on 1..4 of the labels a..d, with the identity involution or a
    drawn permutation (not always an involution)."""
    labels = draw(st.lists(st.sampled_from("abcd"), min_size=1, max_size=4, unique=True))
    images = draw(st.permutations(labels)) if draw(st.booleans()) else labels
    basis = sorted(labels)
    return BasedRingTable(labels, labels[0], dict(zip(labels, images)), draw(row_tables(basis, basis)))


@st.composite
def module_tables(draw):
    """Modules on 1..3 labels in a drawn order over a sound ring or a drawn
    ring with the identity involution."""
    ring = draw(st.sampled_from([cyclic_group_ring(1), cyclic_group_ring(2), fibonacci(), None]))
    if ring is None:
        labels = draw(st.lists(st.sampled_from("abc"), min_size=1, max_size=3, unique=True))
        basis = sorted(labels)
        ring = BasedRingTable(labels, labels[0], {x: x for x in labels}, draw(row_tables(basis, basis)))
    basis = draw(st.permutations(["m0", "m1", "m2"][: draw(st.integers(1, 3))]))
    return BasedModuleTable(ring, basis, draw(row_tables(list(ring.basis), list(basis))))


def _structural_lines(subject, errors):
    return VerificationReport(subject, structural_errors=errors).lines()


@settings(max_examples=300, deadline=None)
@given(ring_tables())
def test_ring_report_names_the_reference_structural_error(table):
    expected = ring_scan_reference(table)
    report = verify_based_ring(table)
    assert report.structural_errors == expected
    if expected:
        assert report.lines() == _structural_lines(report.subject, expected)


@settings(max_examples=300, deadline=None)
@given(module_tables())
def test_module_report_names_the_reference_structural_error(module):
    expected = module_scan_reference(module)
    report = verify_module(module)
    assert report.structural_errors == expected
    if expected:
        assert report.lines() == _structural_lines(report.subject, expected)


def _ring(rows, labels="ab"):
    full = {(a, b): {a if b == labels[0] else b: 1} for a in labels for b in labels}
    full.update(rows)
    return BasedRingTable(labels, labels[0], {x: x for x in labels}, full)


@pytest.mark.parametrize(
    "rows, error",
    [
        ({("b", "b"): {"b": -1, "zz": 1}}, "negative structure constant in 'b'*'b'"),
        ({("a", "b"): {"b": 1, "!": 1, "zz": 1}}, "product 'a'*'b' leaves the basis at '!'"),
        ({("a", "b"): {"b": -1}, ("b", "a"): {"zz": 1}}, "negative structure constant in 'a'*'b'"),
        ({("a", "b"): {"a": 1, "b": -1}, ("b", "b"): {"zz": -1}}, "negative structure constant in 'a'*'b'"),
        ({("a", "b"): {"zz": 1}, ("b", "a"): {"a": -1}}, "product 'a'*'b' leaves the basis at 'zz'"),
    ],
)
def test_ring_faults_in_row_major_order(rows, error):
    table = _ring(rows)
    assert verify_based_ring(table).structural_errors == [error] == ring_scan_reference(table)
    with pytest.raises(StructuralError, match=re.escape(error)):
        table.structure_tensor()


def test_a_missing_pair_comes_before_a_later_negative_one():
    table = _ring({("b", "b"): {"a": -1}})
    del table._products["a", "b"]
    assert verify_based_ring(table).structural_errors == ["missing product entry ('a', 'b')"]


@pytest.mark.parametrize(
    "action, error",
    [
        ({("1", "n"): {"n": -1, "zz": 1}}, "negative action constant at ('1', 'n')"),
        ({("0", "n"): {"m": -1}, ("1", "m"): {"zz": 1}}, "negative action constant at ('0', 'n')"),
        ({("0", "n"): {"!": 1}, ("1", "m"): {"m": -2}}, "action ('0', 'n') leaves the module basis at '!'"),
    ],
)
def test_module_faults_in_row_major_order(action, error):
    # module labels in the order n, m: row-major order follows the basis, not the sort
    ring = cyclic_group_ring(2)
    rows = {(g, b): {b if g == "0" else {"n": "m", "m": "n"}[b]: 1} for g in ring.basis for b in "nm"}
    rows.update(action)
    module = BasedModuleTable(ring, ["n", "m"], rows)
    assert verify_module(module).structural_errors == [error] == module_scan_reference(module)
    for build in (module.action_tensor, lambda: module.matrix("0")):
        with pytest.raises(StructuralError, match=re.escape(error)):
            build()


def test_a_module_over_a_ring_with_a_negative_constant_is_structurally_broken():
    # the module is the regular Z2 action; only its ring has b*b = a - b
    ring = _ring({("b", "b"): {"a": 1, "b": -1}})
    action = {(g, v): {v if g == "a" else "xy".replace(v, ""): 1} for g in "ab" for v in "xy"}
    module = BasedModuleTable(ring, "xy", action)
    report = verify_module(module)
    assert report.structural_errors == ["negative structure constant in 'b'*'b'"] == module_scan_reference(module)
    assert not report.checks
    for build in (ring.structure_tensor, lambda: ring.left_matrix("a")):
        with pytest.raises(StructuralError, match="negative"):
            build()


def test_the_scan_builds_the_tensor_once():
    ring = cyclic_group_ring(5)
    products = {(a, b): ring.product(a, b) for a in ring.basis for b in ring.basis}
    fresh = BasedRingTable(ring.basis, ring.unit, ring.involution, products)
    reads = []
    product = fresh.product
    fresh.product = lambda a, b: reads.append((a, b)) or product(a, b)
    assert verify_based_ring(fresh).ok
    require_sound(fresh)
    frobenius_perron_dims(fresh)
    assert len(reads) == 25
    assert fresh.structure_tensor() is fresh.structure_tensor()


def test_entries_past_int64_take_python_ints():
    ring = cyclic_group_ring(1)
    module = BasedModuleTable(ring, ["m"], {("0", "m"): {"m": 2**63}})
    A = module.action_tensor()
    assert A.dtype == object and A[0, 0, 0] == 2**63
    assert standard_module(ring).action_tensor().dtype == np.int64
