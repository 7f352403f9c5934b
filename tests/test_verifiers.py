"""Exactness, memory and witness order of the axiom verifiers.

The pinned reports below were derived with the per-entry loop and float64
versions of the verifiers, the lazy-module ones with hand-written
flag-and-break loops; the array versions and the shared witness search
must reproduce every line, witness and check order.  The exception is a
product or action that leaves the ring or module, which those versions
raised on and which is now a structural error.  The per-label
associativity check is compared with a pure-Python triple-sum oracle that
shares no code with it, and the ring and module verifiers' checks on a
few middle labels with that oracle and a pairing-compatibility one.
"""

import hashlib
import itertools
import os
import random
import subprocess
import sys
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fusionrings import (
    BasedModuleTable,
    BasedRingTable,
    LazyBasedModule,
    LazyBasedRing,
    RingElement,
    StructuralError,
    UnknownLabelError,
    cyclic_group_ring,
    fibonacci,
    group_ring,
    permutation_group_ring,
    standard_module,
    su2_level,
    su2_ring,
    tensor_product,
    twisted_tensor_module,
    verify_based_ring,
    verify_lazy_ring,
    verify_module,
)
from fusionrings import cli, modules
from fusionrings.constructors import _is_canonical_nat, _su2_product
from fusionrings.documents import resolve_ring, ring_to_document, write_document
from fusionrings.rings import (
    _SPAN_PRIME,
    _middle_labels,
    associativity_check,
    associativity_witnesses,
    exact_dtype,
    fuse,
    per_label_failures,
)
from fusionrings.verification import CheckResult, VerificationReport

from conftest import exact_rank, first_associativity_witness, left_closure_vectors

SRC = Path(__file__).resolve().parents[1] / "src"


# -- deliberately broken inputs, one per check ---------------------------------------


def _retabled(ring, changes=None, involution=None):
    products = {(a, b): ring.product(a, b) for a in ring.basis for b in ring.basis}
    products.update({key: RingElement(value) for key, value in (changes or {}).items()})
    return BasedRingTable(ring.basis, ring.unit, involution or ring.involution, products, name="broken")


def _remoduled(module, changes=None):
    action = {(a, b): module.action_row(a, b) for a in module.ring.basis for b in module.basis}
    action.update({key: RingElement(value) for key, value in (changes or {}).items()})
    return BasedModuleTable(module.ring, module.basis, action, name="broken module")


def _rank3(xxx, xxy, xyy, yyy):
    """Self-dual rank-3 ring on {1, x, y} with fully symmetric constants."""
    n = {("x", "x", "x"): xxx, ("x", "x", "y"): xxy, ("x", "y", "y"): xyy, ("y", "y", "y"): yyy}

    def const(a, b, c):
        return n[tuple(sorted((a, b, c)))]

    products = {("1", b): {b: 1} for b in "1xy"} | {(b, "1"): {b: 1} for b in "xy"}
    for a in "xy":
        for b in "xy":
            products[(a, b)] = {"1": int(a == b)} | {c: const(a, b, c) for c in "xy"}
    return BasedRingTable("1xy", "1", {b: b for b in "1xy"}, products, name="rank3")


def _lazy_su2(changes=None, involution=lambda a: a, level=int):
    def product(a, b):
        if (a, b) in (changes or {}):
            return RingElement(changes[(a, b)])
        return _su2_product(a, b)

    return LazyBasedRing(
        name="broken su2",
        unit="0",
        product_fn=product,
        involution_fn=involution,
        level_fn=level,
        enumerate_level_fn=lambda n: [str(n)],
        contains_fn=_is_canonical_nat,
    )


S3 = permutation_group_ring(3)
Z4 = cyclic_group_ring(4)
SU3 = su2_level(3)

BROKEN_RINGS = {
    "unit law (left)": lambda: _retabled(S3, {("012", "120"): {"201": 1}}),
    "unit law (right)": lambda: _retabled(S3, {("201", "012"): {"120": 1}}),
    "dual pairing": lambda: _retabled(Z4, involution={b: b for b in Z4.basis}),
    "duality symmetry": lambda: _retabled(SU3, {("2", "3"): {"1": 1, "3": 1}}),
    "involution anti-multiplicative": lambda: _retabled(S3, {("102", "120"): {"021": 1, "210": 1}}),
    "associativity": lambda: _rank3(1, 1, 1, 1),
    "structural": lambda: _retabled(Z4, {("2", "3"): {"1": -1}}),
}

S3_STD = standard_module(S3)
Z4_STD = standard_module(Z4)
SU3_STD = standard_module(SU3)
SU2_2 = su2_level(2)

BROKEN_MODULES = {
    "unit law": lambda: _remoduled(Z4_STD, {("0", "2"): {"1": 1}}),
    "Frobenius reciprocity": lambda: _remoduled(Z4_STD, {("1", "0"): {"2": 1}}),
    "associativity": lambda: BasedModuleTable(
        SU2_2,
        ["p", "q"],
        {("0", "p"): {"p": 1}, ("0", "q"): {"q": 1}, ("1", "p"): {"p": 1, "q": 1},
         ("1", "q"): {"p": 1, "q": 1}, ("2", "p"): {"q": 1}, ("2", "q"): {"p": 1}},
        name="broken module",
    ),
    "actions never vanish": lambda: _remoduled(S3_STD, {("120", "021"): {}}),
    "pairing normalization and symmetry": lambda: standard_module(
        _retabled(Z4, involution={"0": "0", "1": "0", "2": "0", "3": "0"})
    ),
    "pairing compatibility with the action": lambda: _remoduled(SU3_STD, {("3", "2"): {"1": 1, "3": 1}}),
    "structural": lambda: _remoduled(Z4_STD, {("2", "3"): {"x": 1}}),
    "product leaves the basis": lambda: BasedModuleTable(
        _retabled(Z4, {("2", "3"): {"x": 1}}),
        Z4_STD.basis,
        {(a, b): Z4_STD.action_row(a, b) for a in Z4.basis for b in Z4.basis},
        name="broken module",
    ),
}

BROKEN_LAZY = {
    "nonnegative structure constants": lambda: _lazy_su2({("1", "2"): {"1": 1, "3": -1}}),
    "unit law": lambda: _lazy_su2({("0", "2"): {"2": 1, "4": 1}}),
    "dual pairing": lambda: _lazy_su2(involution=lambda a: {"1": "3", "3": "1"}.get(a, a)),
    "involution anti-multiplicative": lambda: _lazy_su2({("2", "1"): {"1": 1, "3": 2}}),
    "duality symmetry": lambda: _lazy_su2({("2", "3"): {"1": 1, "3": 1, "5": 2}}),
    "associativity": lambda: _lazy_su2({("2", "2"): {"0": 1, "2": 1, "4": 1, "6": 1}}),
    "structural": lambda: _lazy_su2(involution=lambda a: "x" if a == "2" else a),
    "product leaves the ring": lambda: _lazy_su2({("1", "1"): {"0": 1, "x": 1}}),
}

A1 = su2_ring()


def _lazy_su2_module(changes=None, anchor="0"):
    """The standard su2 module with the action rows in ``changes`` replaced."""

    def act(alpha, b):
        if (alpha, b) in (changes or {}):
            return RingElement(changes[(alpha, b)])
        return A1.product(alpha, b)

    return LazyBasedModule(
        A1, act, int, lambda n: [str(n)], name="broken su2 module", dims=A1.dim, anchor=anchor, contains_fn=_is_canonical_nat
    )


BROKEN_LAZY_MODULES = {
    "negative row": lambda: _lazy_su2_module({("1", "2"): {"1": 1, "3": -1}}),
    "vanishing row": lambda: _lazy_su2_module({("2", "1"): {}}),
    "unit law": lambda: _lazy_su2_module({("0", "2"): {"2": 1, "4": 1}}),
    "Frobenius reciprocity": lambda: _lazy_su2_module({("1", "2"): {"1": 1, "3": 2}}),
    "associativity": lambda: _lazy_su2_module({("2", "2"): {"0": 1, "2": 2, "4": 1}}),
    "not cofinite": lambda: _lazy_su2_module(anchor="1"),  # the budget d(1) = 2 is met by 0 and overshot by 2
    "action leaves the module": lambda: _lazy_su2_module({("1", "1"): {"0": 1, "x": 1}}),
    "product leaves the ring": lambda: standard_module(BROKEN_LAZY["product leaves the ring"]()),
}


def _report_lines(kind, name):
    if kind == "ring":
        return verify_based_ring(BROKEN_RINGS[name]()).lines()
    if kind == "module":
        return verify_module(BROKEN_MODULES[name]()).lines()
    if kind == "lazy module":
        return verify_module(BROKEN_LAZY_MODULES[name](), depth=4).lines()
    if kind == "truncated module":
        return verify_module(BROKEN_LAZY_MODULES[name]().truncate(3)).lines()
    return verify_lazy_ring(BROKEN_LAZY[name](), 4).lines()


PINNED_REPORTS = {
    ("ring", "unit law (left)"): [
        "verification of broken",
        "FAIL  unit law (left)  [120, 120]",
        "pass  unit law (right)",
        "pass  dual pairing",
        "pass  finite support  [automatic for a finite table]",
        "FAIL  duality symmetry  [012, 120, 120]",
        "FAIL  involution anti-multiplicative  [012, 120, 120]",
        "FAIL  associativity  [012, 021]",
        "result: failed",
    ],
    ("ring", "unit law (right)"): [
        "verification of broken",
        "pass  unit law (left)",
        "FAIL  unit law (right)  [201, 120]",
        "pass  dual pairing",
        "pass  finite support  [automatic for a finite table]",
        "FAIL  duality symmetry  [120, 201, 012]",
        "FAIL  involution anti-multiplicative  [012, 120, 120]",
        "FAIL  associativity  [012, 201]",
        "result: failed",
    ],
    ("ring", "dual pairing"): [
        "verification of broken",
        "pass  unit law (left)",
        "pass  unit law (right)",
        "FAIL  dual pairing  [1, 1]",
        "pass  finite support  [automatic for a finite table]",
        "FAIL  duality symmetry  [0, 1, 1]",
        "pass  involution anti-multiplicative",
        "pass  associativity",
        "result: failed",
    ],
    ("ring", "duality symmetry"): [
        "verification of broken",
        "pass  unit law (left)",
        "pass  unit law (right)",
        "pass  dual pairing",
        "pass  finite support  [automatic for a finite table]",
        "FAIL  duality symmetry  [2, 3, 3]",
        "FAIL  involution anti-multiplicative  [2, 3, 3]",
        "FAIL  associativity  [1, 1]",
        "result: failed",
    ],
    ("ring", "involution anti-multiplicative"): [
        "verification of broken",
        "pass  unit law (left)",
        "pass  unit law (right)",
        "pass  dual pairing",
        "pass  finite support  [automatic for a finite table]",
        "FAIL  duality symmetry  [102, 120, 210]",
        "FAIL  involution anti-multiplicative  [102, 120, 210]",
        "FAIL  associativity  [021, 102]",
        "result: failed",
    ],
    ("ring", "associativity"): [
        "verification of rank3",
        "pass  unit law (left)",
        "pass  unit law (right)",
        "pass  dual pairing",
        "pass  finite support  [automatic for a finite table]",
        "pass  duality symmetry",
        "pass  involution anti-multiplicative",
        "FAIL  associativity  [x, x]",
        "result: failed",
    ],
    ("ring", "structural"): [
        "verification of broken",
        "STRUCTURAL  negative structure constant in '2'*'3'",
        "result: failed",
    ],
    ("module", "unit law"): [
        "verification of broken module",
        "pass  row finiteness  [automatic for a finite table]",
        "FAIL  unit law  [2, 1]",
        "FAIL  Frobenius reciprocity  [0, 1, 2]",
        "FAIL  associativity  [0, 1]",
        "pass  actions never vanish",
        "pass  cofinite  [finite module over a finite ring]",
        "FAIL  pairing normalization and symmetry  [1, 2]",
        "FAIL  pairing compatibility with the action  [0, 2, 0]",
        "result: failed",
    ],
    ("module", "Frobenius reciprocity"): [
        "verification of broken module",
        "pass  row finiteness  [automatic for a finite table]",
        "pass  unit law",
        "FAIL  Frobenius reciprocity  [1, 0, 1]",
        "FAIL  associativity  [1, 1]",
        "pass  actions never vanish",
        "pass  cofinite  [finite module over a finite ring]",
        "FAIL  pairing normalization and symmetry  [0, 1]",
        "FAIL  pairing compatibility with the action  [1, 0, 0]",
        "result: failed",
    ],
    ("module", "associativity"): [
        "verification of broken module",
        "pass  row finiteness  [automatic for a finite table]",
        "pass  unit law",
        "pass  Frobenius reciprocity",
        "FAIL  associativity  [1, 1]",
        "pass  actions never vanish",
        "pass  cofinite  [finite module over a finite ring]",
        "pass  pairing normalization and symmetry",
        "FAIL  pairing compatibility with the action  [1, p, p]",
        "result: failed",
    ],
    ("module", "actions never vanish"): [
        "verification of broken module",
        "pass  row finiteness  [automatic for a finite table]",
        "pass  unit law",
        "FAIL  Frobenius reciprocity  [120, 021, 102]",
        "FAIL  associativity  [021, 120]",
        "FAIL  actions never vanish  [120, 021]",
        "pass  cofinite  [finite module over a finite ring]",
        "FAIL  pairing normalization and symmetry  [021, 102]",
        "FAIL  pairing compatibility with the action  [021, 012, 102]",
        "result: failed",
    ],
    ("module", "pairing normalization and symmetry"): [
        "verification of standard(broken)",
        "STRUCTURAL  involution is not a bijection of the basis",
        "result: failed",
    ],
    ("module", "pairing compatibility with the action"): [
        "verification of broken module",
        "pass  row finiteness  [automatic for a finite table]",
        "pass  unit law",
        "FAIL  Frobenius reciprocity  [3, 2, 3]",
        "FAIL  associativity  [1, 2]",
        "pass  actions never vanish",
        "pass  cofinite  [finite module over a finite ring]",
        "FAIL  pairing normalization and symmetry  [2, 3]",
        "FAIL  pairing compatibility with the action  [1, 1, 3]",
        "result: failed",
    ],
    ("module", "structural"): [
        "verification of broken module",
        "STRUCTURAL  action ('2', '3') leaves the module basis at 'x'",
        "result: failed",
    ],
    ("module", "product leaves the basis"): [
        "verification of broken module",
        "STRUCTURAL  product '2'*'3' leaves the basis at 'x'",
        "result: failed",
    ],
    ("lazy", "nonnegative structure constants"): [
        "verification of broken su2 (depth 4)",
        "FAIL  nonnegative structure constants  [1, 2]",
        "pass  unit law",
        "pass  dual pairing",
        "FAIL  involution anti-multiplicative  [1, 2]",
        "pass  finite support  [every single product is a finite combination]",
        "FAIL  duality symmetry  [1, 2, 3]",
        "FAIL  associativity  [1, 1, 1]",
        "result: failed",
    ],
    ("lazy", "unit law"): [
        "verification of broken su2 (depth 4)",
        "pass  nonnegative structure constants",
        "FAIL  unit law  [2]",
        "pass  dual pairing",
        "FAIL  involution anti-multiplicative  [0, 2]",
        "pass  finite support  [every single product is a finite combination]",
        "FAIL  duality symmetry  [0, 2, 4]",
        "FAIL  associativity  [0, 0, 2]",
        "result: failed",
    ],
    ("lazy", "dual pairing"): [
        "verification of broken su2 (depth 4)",
        "pass  nonnegative structure constants",
        "pass  unit law",
        "FAIL  dual pairing  [1, 1]",
        "FAIL  involution anti-multiplicative  [1, 1]",
        "pass  finite support  [every single product is a finite combination]",
        "FAIL  duality symmetry  [0, 1, 1]",
        "pass  associativity",
        "result: failed",
    ],
    ("lazy", "involution anti-multiplicative"): [
        "verification of broken su2 (depth 4)",
        "pass  nonnegative structure constants",
        "pass  unit law",
        "pass  dual pairing",
        "FAIL  involution anti-multiplicative  [1, 2]",
        "pass  finite support  [every single product is a finite combination]",
        "FAIL  duality symmetry  [1, 2, 3]",
        "FAIL  associativity  [1, 1, 1]",
        "result: failed",
    ],
    ("lazy", "duality symmetry"): [
        "verification of broken su2 (depth 4)",
        "pass  nonnegative structure constants",
        "pass  unit law",
        "pass  dual pairing",
        "FAIL  involution anti-multiplicative  [2, 3]",
        "pass  finite support  [every single product is a finite combination]",
        "FAIL  duality symmetry  [2, 3, 5]",
        "FAIL  associativity  [1, 1, 3]",
        "result: failed",
    ],
    ("lazy", "associativity"): [
        "verification of broken su2 (depth 4)",
        "pass  nonnegative structure constants",
        "pass  unit law",
        "pass  dual pairing",
        "pass  involution anti-multiplicative",
        "pass  finite support  [every single product is a finite combination]",
        "FAIL  duality symmetry  [2, 2, 6]",
        "FAIL  associativity  [1, 1, 2]",
        "result: failed",
    ],
    ("lazy", "structural"): [
        "verification of broken su2 (depth 4)",
        "STRUCTURAL  involution leaves the ring at '2'",
        "result: failed",
    ],
    ("lazy", "product leaves the ring"): [
        "verification of broken su2 (depth 4)",
        "STRUCTURAL  product '1'*'1' leaves the ring at 'x'",
        "result: failed",
    ],
    ("lazy module", "action leaves the module"): [
        "verification of broken su2 module (depth 4) (ring depth 4)",
        "STRUCTURAL  action ('1', '1') leaves the module at 'x'",
        "result: failed",
    ],
    ("truncated module", "action leaves the module"): [
        "verification of broken su2 module (depth 3) (ring depth 3)",
        "STRUCTURAL  action ('1', '1') leaves the module at 'x'",
        "result: failed",
    ],
    ("lazy module", "product leaves the ring"): [
        "verification of standard(broken su2) (depth 4) (ring depth 4)",
        "STRUCTURAL  product '1'*'1' leaves the ring at 'x'",
        "STRUCTURAL  action ('1', '1') leaves the module at 'x'",
        "result: failed",
    ],
    ("truncated module", "product leaves the ring"): [
        "verification of standard(broken su2) (depth 3) (ring depth 3)",
        "STRUCTURAL  product '1'*'1' leaves the ring at 'x'",
        "STRUCTURAL  action ('1', '1') leaves the module at 'x'",
        "result: failed",
    ],
    ("lazy module", "negative row"): [
        "verification of broken su2 module (depth 4) (ring depth 4)",
        "FAIL  nonnegative, never-vanishing actions  [1, 2]",
        "pass  unit law",
        "FAIL  Frobenius reciprocity  [1, 2, 3]",
        "FAIL  associativity  [1, 1, 1]",
        "pass  cofinite (cofinite)  [anchor pairing mass met the budget at level 0]",
        "result: failed",
    ],
    ("truncated module", "negative row"): [
        "verification of broken su2 module (depth 3) (ring depth 3)",
        "FAIL  nonnegative, never-vanishing actions  [1, 2]",
        "pass  unit law",
        "FAIL  Frobenius reciprocity  [1, 2, 3]",
        "FAIL  associativity  [1, 1, 1]",
        "pass  cofinite (cofinite)  [anchor pairing mass met the budget at level 0]",
        "result: failed",
    ],
    ("lazy module", "vanishing row"): [
        "verification of broken su2 module (depth 4) (ring depth 4)",
        "FAIL  nonnegative, never-vanishing actions  [2, 1 (vanishing action)]",
        "pass  unit law",
        "FAIL  Frobenius reciprocity  [2, 1, 3]",
        "FAIL  associativity  [1, 1, 1]",
        "pass  cofinite (cofinite)  [anchor pairing mass met the budget at level 0]",
        "result: failed",
    ],
    ("truncated module", "vanishing row"): [
        "verification of broken su2 module (depth 3) (ring depth 3)",
        "FAIL  nonnegative, never-vanishing actions  [2, 1 (vanishing action)]",
        "pass  unit law",
        "FAIL  Frobenius reciprocity  [2, 1, 3]",
        "FAIL  associativity  [1, 1, 1]",
        "pass  cofinite (cofinite)  [anchor pairing mass met the budget at level 0]",
        "result: failed",
    ],
    ("lazy module", "unit law"): [
        "verification of broken su2 module (depth 4) (ring depth 4)",
        "pass  nonnegative, never-vanishing actions",
        "FAIL  unit law  [2]",
        "FAIL  Frobenius reciprocity  [0, 2, 4]",
        "FAIL  associativity  [0, 0, 2]",
        "pass  cofinite (cofinite)  [anchor pairing mass met the budget at level 0]",
        "result: failed",
    ],
    ("truncated module", "unit law"): [
        "verification of broken su2 module (depth 3) (ring depth 3)",
        "pass  nonnegative, never-vanishing actions",
        "FAIL  unit law  [2]",
        "pass  Frobenius reciprocity",
        "FAIL  associativity  [0, 0, 2]",
        "pass  cofinite (cofinite)  [anchor pairing mass met the budget at level 0]",
        "result: failed",
    ],
    ("lazy module", "Frobenius reciprocity"): [
        "verification of broken su2 module (depth 4) (ring depth 4)",
        "pass  nonnegative, never-vanishing actions",
        "pass  unit law",
        "FAIL  Frobenius reciprocity  [1, 2, 3]",
        "FAIL  associativity  [1, 1, 1]",
        "pass  cofinite (cofinite)  [anchor pairing mass met the budget at level 0]",
        "result: failed",
    ],
    ("truncated module", "Frobenius reciprocity"): [
        "verification of broken su2 module (depth 3) (ring depth 3)",
        "pass  nonnegative, never-vanishing actions",
        "pass  unit law",
        "FAIL  Frobenius reciprocity  [1, 2, 3]",
        "FAIL  associativity  [1, 1, 1]",
        "pass  cofinite (cofinite)  [anchor pairing mass met the budget at level 0]",
        "result: failed",
    ],
    ("lazy module", "associativity"): [
        "verification of broken su2 module (depth 4) (ring depth 4)",
        "pass  nonnegative, never-vanishing actions",
        "pass  unit law",
        "pass  Frobenius reciprocity",
        "FAIL  associativity  [1, 1, 2]",
        "pass  cofinite (cofinite)  [anchor pairing mass met the budget at level 0]",
        "result: failed",
    ],
    ("truncated module", "associativity"): [
        "verification of broken su2 module (depth 3) (ring depth 3)",
        "pass  nonnegative, never-vanishing actions",
        "pass  unit law",
        "pass  Frobenius reciprocity",
        "FAIL  associativity  [1, 1, 2]",
        "pass  cofinite (cofinite)  [anchor pairing mass met the budget at level 0]",
        "result: failed",
    ],
    ("lazy module", "not cofinite"): [
        "verification of broken su2 module (depth 4) (ring depth 4)",
        "pass  nonnegative, never-vanishing actions",
        "pass  unit law",
        "pass  Frobenius reciprocity",
        "pass  associativity",
        "FAIL  cofinite (not_cofinite)  [anchor pairing mass 4.0 exceeds the dimension budget 2.0]",
        "result: failed",
    ],
    ("truncated module", "not cofinite"): [
        "verification of broken su2 module (depth 3) (ring depth 3)",
        "pass  nonnegative, never-vanishing actions",
        "pass  unit law",
        "pass  Frobenius reciprocity",
        "pass  associativity",
        "FAIL  cofinite (not_cofinite)  [anchor pairing mass 4.0 exceeds the dimension budget 2.0]",
        "result: failed",
    ],
}


@pytest.mark.parametrize("kind, name", list(PINNED_REPORTS), ids=[f"{k}: {n}" for k, n in PINNED_REPORTS])
def test_broken_input_reports_are_pinned(kind, name):
    assert _report_lines(kind, name) == PINNED_REPORTS[(kind, name)]



@pytest.mark.parametrize("ring,error", [
    (_lazy_su2(level=lambda a: int(a) + 1), "unit is not at level 0"),
    (_lazy_su2(involution=lambda a: {"1": "2"}.get(a, a)), "involution is not involutive at '1'"),
    (_lazy_su2(involution=lambda a: {"0": "1", "1": "0"}.get(a, a)), "involution does not fix the unit"),
], ids=["unit level", "not involutive", "unit not fixed"])
def test_lazy_ring_structural_errors(ring, error):
    assert verify_lazy_ring(ring, 2).structural_errors == [error]


def test_involution_missing_a_label_is_structural():
    z2 = cyclic_group_ring(2)
    products = {(a, b): z2.product(a, b) for a in z2.basis for b in z2.basis}
    report = verify_based_ring(BasedRingTable(z2.basis, "0", {"0": "0"}, products))
    assert report.structural_errors == ["involution is not defined on exactly the basis"]


def test_report_names_the_first_witness():
    seen = []

    def witnesses():
        for w in ["a, b", "c, d"]:
            seen.append(w)
            yield w

    bad = np.zeros((2, 3), dtype=bool)
    bad[1, 2] = bad[1, 0] = True
    report = VerificationReport("toy")
    report.first("lazy", witnesses())
    report.first("none", iter(()))
    report.first_index("array", bad, ["r0", "r1"], ["c0", "c1", "c2"])
    report.first_index("clean", bad[:, 1:2], ["r0", "r1"], ["c1"])
    assert seen == ["a, b"]  # consumed only up to the first witness
    assert report.lines() == [
        "verification of toy",
        "FAIL  lazy  [a, b]",
        "pass  none",
        "FAIL  array  [r1, c0]",
        "pass  clean",
        "result: failed",
    ]


def test_group_ring_names_the_first_nonassociative_triple():
    # a loop of order 5 (every element self-inverse) that is not a group
    rows = {"e": "eabcd", "a": "aecdb", "b": "bdeac", "c": "cbdea", "d": "dcabe"}
    mul = {(x, y): rows[x][i] for x in rows for i, y in enumerate("eabcd")}
    with pytest.raises(StructuralError, match=r"not associative at \('a', 'a', 'b'\)"):
        group_ring(list("eabcd"), mul)


def test_lazy_ring_memo_still_rejects_unknown_labels():
    ring = _lazy_su2()
    for _ in range(2):
        assert ring.product("1", "1") == RingElement({"0": 1, "2": 1})
        with pytest.raises(UnknownLabelError):
            ring.product("1", "01")
        assert not ring.contains("01")


# -- exactness at large multiplicities -------------------------------------------------


def _rank2(n):
    """The ring {1, x} with x*x = 1 + n*x, associative for every n."""
    products = {("1", "1"): {"1": 1}, ("1", "x"): {"x": 1}, ("x", "1"): {"x": 1}, ("x", "x"): {"1": 1, "x": n}}
    return BasedRingTable(["1", "x"], "1", {"1": "1", "x": "x"}, products)


@pytest.mark.parametrize("n", [2**26 + 1, 2**27 + 1, 2**40 + 1])
def test_tensor_squares_with_large_multiplicities_verify(n):
    # the dense float64 check gave a false associativity FAIL at 2**27 + 1;
    # at 2**40 + 1 the coefficients (about 2**80) no longer fit int64
    square = tensor_product(_rank2(n), _rank2(n))
    assert verify_based_ring(square).ok
    assert verify_module(standard_module(square)).ok


def test_off_by_one_past_float64_resolution_is_caught():
    # N**2 + 1 rounds to N**2 in float64, so only exact sums see the change
    square = tensor_product(_rank2(2**40 + 1), _rank2(2**40 + 1))
    products = {(a, b): square.product(a, b) for a in square.basis for b in square.basis}
    products[("x|x", "x|x")] = products[("x|x", "x|x")] + RingElement.basis("x|x")
    broken = BasedRingTable(square.basis, square.unit, square.involution, products)
    assert [c.name for c in verify_based_ring(broken).failed_checks()] == ["associativity"]


def test_cli_verify_past_int64(tmp_path, capsys):
    n = 2**40 + 1
    square = tensor_product(_rank2(n), _rank2(n))
    assert square.product("x|x", "x|x").coefficient("x|x") > 2**63
    path = str(tmp_path / "square.json")
    write_document(path, ring_to_document(square))
    assert cli.main(["verify", path]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "result: ok"
    assert not any(line.startswith("FAIL") for line in lines)


@pytest.mark.parametrize(
    "big, dtype",
    [(2**26 - 1, np.float64), (2**26, np.int64), (-(2**26), np.int64), (2**31 - 1, np.int64), (2**31, object)],
)
def test_exact_dtype_bounds(big, dtype):
    # two terms: 2 * big**2 against 2**53 and 2**63
    assert exact_dtype(2, np.array([[0, big]], dtype=np.int64)) is dtype


# -- the associativity helper against a triple-sum oracle ----------------------------

VALUES = [0, 1, 2, 2**26 + 1, 2**40 + 1]


def _oracle_failures(T, A):
    """F[a][b]: whether some (a*b).v differs from a.(b.v), by direct Python-int sums."""
    n, m = len(A), len(A[0])
    return [
        [
            any(
                sum(A[b][v][x] * A[a][x][w] for x in range(m)) != sum(T[a][b][e] * A[e][v][w] for e in range(n))
                for v in range(m)
                for w in range(m)
            )
            for b in range(n)
        ]
        for a in range(n)
    ]


def _cube(draw, n, m, values=st.sampled_from(VALUES)):
    return [[[draw(values) for _ in range(m)] for _ in range(m)] for _ in range(n)]


@st.composite
def ring_and_module(draw):
    """Random tables, or associative rings (x*x = p + q*x; scaled orthogonal
    idempotents), each acting on itself or on a random module table."""
    kind = draw(st.sampled_from(["random", "rank2", "idempotents"]))
    if kind == "rank2":
        T = [[[1, 0], [0, 1]], [[0, 1], [draw(st.sampled_from(VALUES)), draw(st.sampled_from(VALUES))]]]
    elif kind == "idempotents":
        scale = [draw(st.sampled_from(VALUES)) for _ in range(draw(st.integers(1, 4)))]
        T = [[[s if a == b == c else 0 for c in range(len(scale))] for b in range(len(scale))] for a, s in enumerate(scale)]
    else:
        n = draw(st.integers(1, 4))
        T = _cube(draw, n, n)
    A = T if draw(st.booleans()) else _cube(draw, len(T), draw(st.integers(1, 4)))
    return kind, T, A


@settings(max_examples=300, deadline=None)
@given(ring_and_module())
def test_associativity_helper_matches_the_oracle(case):
    kind, T, A = case
    expected = _oracle_failures(T, A)
    if kind != "random" and A is T:
        assert not any(map(any, expected))
    n = len(T)
    check = associativity_check(np.array(T, dtype=np.int64), np.array(A, dtype=np.int64))
    assert np.stack([check(b) for b in range(n)], axis=1).tolist() == expected
    F = per_label_failures(check, range(n), n).T
    first = next(((a, b) for a, row in enumerate(expected) for b, bad in enumerate(row) if bad), None)
    assert (tuple(int(i) for i in np.argwhere(F)[0]) if F.any() else None) == first


# -- packed associativity on lazy rings and modules ---------------------------------


def _associativity_witness(report):
    return next(c.witness for c in report.checks if c.name == "associativity")


_SU2_PAIRS = st.tuples(st.sampled_from("01234"), st.sampled_from("01234"))
_SU2_ROWS = st.dictionaries(
    st.sampled_from("01234567"), st.integers(-3, 3) | st.integers(-(2**70), 2**70), max_size=3
)


@settings(max_examples=150, deadline=None)
@given(st.dictionaries(_SU2_PAIRS, _SU2_ROWS, max_size=2), st.integers(0, 4), st.booleans())
def test_packed_associativity_names_the_oracle_witness(changes, depth, module):
    """The su2 ring or its standard module truncated at ``depth``, with up to
    two rows replaced (negative and huge coefficients included): the report
    names the first witness of the per-triple oracle, or passes with it."""
    if module:
        window = _lazy_su2_module(changes).truncate(depth)
        labels = A1.labels_up_to(depth)
        expected = first_associativity_witness(A1.product, window.parent.action_row, labels, window.basis)
        assert _associativity_witness(verify_module(window)) == expected
    else:
        ring = _lazy_su2(changes)
        labels = ring.labels_up_to(depth)
        expected = first_associativity_witness(ring.product, ring.product, labels, labels)
        assert _associativity_witness(verify_lazy_ring(ring, depth)) == expected
        assert next(associativity_witnesses(ring, labels, labels, ring.product, partial(fuse, ring)), None) == expected


# Two nonassociative pairs whose digit differences at one target are
# (2^64, -1) and (2^125, -1) on adjacent basis labels: packed with digits of
# 64 bits (from the largest coefficient 2^62 alone) the first pair cancels,
# with 125 bits (from the bound 2^124 on one side, not on the difference)
# the second; every other triple is associative.
_N = 2**62
_BIG_PRODUCTS = {
    ("a", "b"): {"x": 4},  # (a*b).c = 2^64 t, a.(b.c) = 0
    ("x", "c"): {"t": _N},
    ("b", "d"): {"y": 1},  # (a*b).d = 0, a.(b.d) = t
    ("a", "y"): {"t": 1},
    ("p", "q"): {"u": _N},  # (p*q).r = 2^124 z, p.(q.r) = -2^124 z
    ("u", "r"): {"z": _N},
    ("q", "r"): {"v": _N},
    ("p", "v"): {"z": -_N},
    ("q", "s"): {"w": 1},  # (p*q).s = 0, p.(q.s) = z
    ("p", "w"): {"z": 1},
}
_BIG_LABELS = sorted({label for pair, row in _BIG_PRODUCTS.items() for label in (*pair, *row)})


def test_packed_associativity_with_coefficients_past_int64():
    ring = LazyBasedRing(
        name="big",
        unit="a",
        product_fn=lambda a, b: RingElement(_BIG_PRODUCTS.get((a, b), {})),
        involution_fn=lambda a: a,
        level_fn=lambda a: 0,
        enumerate_level_fn=lambda n: _BIG_LABELS if n == 0 else [],
        contains_fn=_BIG_LABELS.__contains__,
    )
    labels = ring.labels_up_to(0)
    witnesses = list(associativity_witnesses(ring, labels, labels, ring.product, partial(fuse, ring)))
    assert witnesses == ["a, b, c", "a, b, d", "p, q, r", "p, q, s"]
    assert witnesses[0] == first_associativity_witness(ring.product, ring.product, labels, labels)
    assert _associativity_witness(verify_lazy_ring(ring, 0)) == "a, b, c"


# -- associativity on middle labels -------------------------------------------------


def _table(T, swap=False):
    """The ring with constants ``T`` (nested lists) on labels 00, 01, ...,
    unit 00 and the identity involution, or with ``swap`` the one that
    exchanges 01 and 02."""
    labels = [f"{i:02d}" for i in range(len(T))]
    products = {
        (labels[a], labels[b]): {labels[c]: x for c, x in enumerate(T[a][b]) if x}
        for a in range(len(T))
        for b in range(len(T))
    }
    involution = {b: b for b in labels} | ({"01": "02", "02": "01"} if swap else {})
    return BasedRingTable(labels, labels[0], involution, products, name="table")


def _reference_lines(table, report):
    """``report`` on ``table`` with its associativity line from the oracle:
    the pair (a, b) is named when (b*a).c != b.(a.c) for some c."""
    if report.structural_errors:
        return report.lines()
    T, labels = table.structure_tensor().tolist(), table.basis
    oracle = _oracle_failures(T, T)
    witness = next((f"{x}, {y}" for a, x in enumerate(labels) for b, y in enumerate(labels) if oracle[b][a]), None)
    line = CheckResult("associativity", witness is None, witness)
    checks = [line if c.name == "associativity" else c for c in report.checks]
    return VerificationReport(report.subject, checks).lines()


def _associative(table):
    return next(c.passed for c in verify_based_ring(table).checks if c.name == "associativity")


def _check_against_references(T):
    """The report equals the reference one, its verdict the oracle's, the
    middle labels and their products span Q^n, and the middle labels see a
    failure exactly when the oracle has one."""
    oracle = _oracle_failures(T, T)
    middles = _middle_labels(np.array(T, dtype=object))
    assert exact_rank(left_closure_vectors(T, middles)) == len(T)
    assert any(oracle[a][s] for a in range(len(T)) for s in middles) == any(map(any, oracle))
    table = _table(T)
    report = verify_based_ring(table)
    assert report.lines() == _reference_lines(table, report)
    if not report.structural_errors:
        assert ("pass  associativity" in report.lines()) == (not any(map(any, oracle)))


def _perturbed_group(draw, ring):
    T = ring.structure_tensor().tolist()
    n = len(T)
    a, b, c = (draw(st.integers(0, n - 1)) for _ in range(3))
    T[a][b][c] = draw(st.integers(0, 2))
    return T


@st.composite
def small_tables(draw):
    """Random tables (n <= 5, entries -1..2, or 0..2 so that the structural
    scan passes), group rings of Z_n and S3 with one entry redrawn, and
    all-zero tables."""
    kind = draw(st.sampled_from(["random", "nonnegative", "cyclic", "S3", "zero"]))
    n = draw(st.integers(1, 5))
    if kind == "cyclic":
        return _perturbed_group(draw, cyclic_group_ring(draw(st.integers(1, 6))))
    if kind == "S3":
        return _perturbed_group(draw, S3)
    low, high = {"random": (-1, 2), "nonnegative": (0, 2), "zero": (0, 0)}[kind]
    return [[[draw(st.integers(low, high)) for _ in range(n)] for _ in range(n)] for _ in range(n)]


@settings(max_examples=300, deadline=None)
@given(small_tables())
def test_middle_label_check_matches_the_all_pairs_report(T):
    _check_against_references(T)


@pytest.mark.parametrize("n", [1, 2, 5])
def test_every_label_of_the_zero_table_is_a_middle(n):
    T = [[[0] * n for _ in range(n)] for _ in range(n)]
    assert _middle_labels(np.zeros((n, n, n), dtype=np.int64)) == list(range(n))
    _check_against_references(T)


def test_a_label_in_the_support_of_the_span_may_still_be_a_middle():
    # 0*0 = 1 + 2 and every other product is zero: the span of 0 and 0*0
    # has entries at labels 1 and 2 but holds neither basis vector
    T = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    T[0][0] = [0, 1, 1]
    assert _middle_labels(np.array(T)) == [0, 1]
    _check_against_references(T)


@pytest.mark.parametrize("square", [[[[1]]], [[[2]]], [[[0]]]])
def test_one_label_tables(square):
    assert _middle_labels(np.array(square)) == [0]
    _check_against_references(square)


@pytest.mark.parametrize("extra", [0, 1])
def test_middle_label_check_in_object_dtype(extra):
    # x*x = 1 + 2**63 x takes Python ints; x*1 = extra + x breaks the unit
    # law and associativity when extra = 1
    T = [[[1, 0], [0, 1]], [[extra, 1], [1, 2**63]]]
    assert _table(T).structure_tensor().dtype == object
    _check_against_references(T)
    assert _associative(_table(T)) == (extra == 0)


@pytest.mark.parametrize("st_", [0, 1])
def test_a_rank_lost_mod_the_span_prime_adds_a_middle(st_):
    # on {1, s, t}: s*s = p*t is zero mod p, so t is not in the span of
    # 1, s and s*s mod p although it is over Q; s*t = st_ * t
    p = _SPAN_PRIME
    T = [[[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[0, 1, 0], [0, 0, p], [0, 0, st_]], [[0, 0, 1], [0, 0, 0], [0, 0, 0]]]
    assert _middle_labels(np.array(T, dtype=np.int64)) == [0, 1, 2]
    _check_against_references(T)
    assert _associative(_table(T)) == (st_ == 0)


MIDDLE_BOUNDS = (
    [("builtin:cyclic?n=64", 2), ("builtin:symmetric?n=5", 5)]
    + [(f"builtin:su2?level={k}", 2) for k in range(1, 21)]
)


@pytest.mark.parametrize("source, bound", MIDDLE_BOUNDS)
def test_few_middles_span_the_ring(source, bound):
    ring = resolve_ring(source)
    T = ring.structure_tensor()
    middles = _middle_labels(T)
    assert len(middles) <= bound
    assert exact_rank(left_closure_vectors(T.tolist(), middles)) == ring.size


def _relabelled(table, seed):
    """``table`` under a seeded random permutation of its basis order."""
    order = list(range(table.size))
    random.Random(seed).shuffle(order)
    name = {label: f"r{order[i]:03d}" for i, label in enumerate(table.basis)}
    products = {
        (name[a], name[b]): {name[c]: x for c, x in table.product(a, b).items()}
        for a in table.basis
        for b in table.basis
    }
    involution = {name[a]: name[b] for a, b in table.involution.items()}
    return BasedRingTable(name.values(), name[table.unit], involution, products, name=table.name)


RELABELLED = {
    "cyclic?n=64": lambda: resolve_ring("builtin:cyclic?n=64"),
    "symmetric?n=4": lambda: resolve_ring("builtin:symmetric?n=4"),
    "su2?level=7": lambda: resolve_ring("builtin:su2?level=7"),
    "pinned associativity": BROKEN_RINGS["associativity"],
    "pinned anti-multiplicative": BROKEN_RINGS["involution anti-multiplicative"],
}


@pytest.mark.parametrize("name", list(RELABELLED))
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_associativity_verdict_ignores_the_basis_order(name, seed):
    table = RELABELLED[name]()
    assert _associative(_relabelled(table, seed)) == _associative(table) == name.startswith(("cyclic", "symmetric", "su2"))


# -- module associativity and pairing compatibility on middle labels ---------------


def _module_table(ring, A):
    """The module over ``ring`` acting by ``A`` (nested lists) on p0, p1, ..."""
    points = [f"p{i}" for i in range(len(A[0]))]
    action = {
        (alpha, points[v]): {points[w]: x for w, x in enumerate(A[a][v]) if x}
        for a, alpha in enumerate(ring.basis)
        for v in range(len(points))
    }
    return BasedModuleTable(ring, points, action, name="module")


def _oracle_module_lines(ring, module):
    """The associativity and pairing-compatibility lines of ``module``, by
    Python-int sums over the table entries; inner(b, c) has coefficient
    N_{a* b}^c at the ring label a."""
    T, A = ring.structure_tensor().tolist(), module.action_tensor().tolist()
    n, m = len(A), len(A[0])
    inv = [ring.index[ring.involution[a]] for a in ring.basis]
    R, M = ring.basis, module.basis
    assoc = _oracle_failures(T, A)
    witness = next((f"{R[a]}, {R[b]}" for a in range(n) for b in range(n) if assoc[a][b]), None)
    inner = [[[A[inv[k]][b][c] for k in range(n)] for c in range(m)] for b in range(m)]
    pairing = (
        f"{R[a]}, {M[b]}, {M[c]}"
        for a in range(n)
        for b in range(m)
        for c in range(m)
        if [sum(inner[b][c][j] * T[a][j][k] for j in range(n)) for k in range(n)]
        != [sum(A[a][b][e] * inner[e][c][k] for e in range(m)) for k in range(n)]
    )
    compatible = next(pairing, None)
    return [
        CheckResult("associativity", witness is None, witness).line(),
        CheckResult("pairing compatibility with the action", compatible is None, compatible).line(),
    ]


def _module_lines(module):
    names = ("associativity", "pairing compatibility with the action")
    return [c.line() for c in verify_module(module).checks if c.name in names]


# The ring gate: this ring fails associativity on its middles 00 and 01, and
# the action on one point pt (00 by 1, 01 and 02 by 0) passes on them; yet
# (02*02).pt = (00 + 01 + 02).pt = pt while 02.(02.pt) = 0
GATE_RING = [[[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[0, 1, 0], [0, 0, 1], [0, 0, 0]], [[0, 0, 0], [0, 1, 1], [1, 1, 1]]]
GATE_ACTION = [[[1]], [[0]], [[0]]]


@st.composite
def modules_over_rings(draw):
    """(a) Random tables (n, m <= 3, entries 0..2, the identity involution or
    one swapping 01 and 02), which mostly fail their middles, acting by
    random tables.  (b) The rank-2 ring x*x = q + p*x acting on two points
    by the companion matrix of t^2 - p*t - q or its transpose: associative
    actions that mostly fail pairing compatibility.  (c) Standard modules of
    cyclic group rings and S3.  Cases (b) and (c) may get one action entry
    redrawn."""
    kind = draw(st.sampled_from(["random", "companion", "standard"]))
    if kind == "random":
        n, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        T = _cube(draw, n, n, st.integers(0, 2))
        ring = _table(T, swap=n == 3 and draw(st.booleans()))
        return ring, _cube(draw, n, m, st.integers(0, 2))
    if kind == "companion":
        p, q = draw(st.integers(0, 3)), draw(st.integers(0, 3))
        M = [[0, 1], [q, p]] if draw(st.booleans()) else [[0, q], [1, p]]
        ring, A = _table([[[1, 0], [0, 1]], [[0, 1], [q, p]]]), [[[1, 0], [0, 1]], M]
    else:
        ring = draw(st.sampled_from([cyclic_group_ring(k) for k in range(1, 5)] + [S3]))
        A = standard_module(ring).action_tensor().tolist()
    if draw(st.booleans()):
        a, v, w = (draw(st.integers(0, size - 1)) for size in (len(A), len(A[0]), len(A[0])))
        A[a][v][w] = draw(st.integers(0, 2))
    return ring, A


@settings(max_examples=300, deadline=None)
@given(modules_over_rings())
@example((_table(GATE_RING), GATE_ACTION))
def test_module_checks_match_the_oracles(case):
    ring, A = case
    module = _module_table(ring, A)
    assert _module_lines(module) == _oracle_module_lines(ring, module)


def test_a_ring_failing_its_middles_is_checked_on_every_label():
    ring = _table(GATE_RING)
    module = _module_table(ring, GATE_ACTION)
    T, A = ring.structure_tensor(), module.action_tensor()
    assert _middle_labels(T) == [0, 1]
    assert per_label_failures(associativity_check(T, T), [0, 1], 3).any()
    assert per_label_failures(associativity_check(T, A), [0, 1], 3).size == 0
    assert "FAIL  associativity  [02, 02]" in verify_module(module).lines()


def test_module_checks_run_on_the_middles_only(monkeypatch):
    """On the S4 standard module each per-label check runs on the ring's
    middle labels only, and the ring's own middle columns once."""
    ring = permutation_group_ring(4)
    middles = _middle_labels(ring.structure_tensor())
    assert len(middles) < ring.size
    calls = []

    def counted(kind, check):
        def run(i):
            calls.append((kind, i))
            return check(i)

        return run

    check, decide = modules.associativity_check, modules.per_label_failures
    kind = lambda T, A: "ring" if A is T else "action"
    monkeypatch.setattr(modules, "associativity_check", lambda T, A: counted(kind(T, A), check(T, A)))
    monkeypatch.setattr(modules, "per_label_failures", lambda c, labels, n: decide(counted("decided", c), labels, n))
    assert verify_module(standard_module(ring)).ok
    assert calls == (
        [("ring", s) for s in middles]
        + [call for s in middles for call in (("decided", s), ("action", s))]
        + [("decided", s) for s in middles]
    )


# -- a pinned replay of the finite verifiers' reports ------------------------------


def _perturbed_actions(module, rng, count):
    """``module`` and ``count`` copies with one action entry redrawn in 0..2."""
    yield module
    for _ in range(count):
        alpha, b, c = rng.choice(module.ring.basis), rng.choice(module.basis), rng.choice(module.basis)
        yield _remoduled(module, {(alpha, b): dict(module.action_row(alpha, b).items()) | {c: rng.randrange(3)}})


def _cubic(a, b, c):
    """Z[x]/(x^3 - a x^2 - b x - c) on 1, x, x^2 with the identity
    involution: associative, but without duality symmetry."""
    power = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    while len(power) < 5:  # x^(k+1) = x * x^k, with x^3 = c + b x + a x^2
        p = power[-1]
        power.append([c * p[2], p[0] + b * p[2], p[1] + a * p[2]])
    return _table([[power[i + j] for j in range(3)] for i in range(3)])


def _verifier_corpus():
    """(ring, modules) pairs: random tables (n, m <= 3, entries 0..2, either
    involution), companion rings x*x = q + p*x on two points, cubic rings
    on one point and on themselves, and standard and twisted modules of
    small fusion rings, each with seeded one-entry perturbations."""
    rng = random.Random(20151)
    for _ in range(400):
        n, m = rng.randint(1, 3), rng.randint(1, 3)
        T = [[[rng.randrange(3) for _ in range(n)] for _ in range(n)] for _ in range(n)]
        ring = _table(T, swap=n == 3 and rng.random() < 0.5)
        yield ring, [_module_table(ring, [[[rng.randrange(3) for _ in range(m)] for _ in range(m)] for _ in range(n)])]
    for p in range(4):
        for q in range(4):
            ring = _table([[[1, 0], [0, 1]], [[0, 1], [q, p]]])
            yield ring, [
                module
                for M in ([[0, 1], [q, p]], [[0, q], [1, p]])
                for module in _perturbed_actions(_module_table(ring, [[[1, 0], [0, 1]], M]), rng, 3)
            ]
    for a, b, c in itertools.product(range(3), repeat=3):
        ring = _cubic(a, b, c)
        points = [_module_table(ring, [[[1]], [[s]], [[t]]]) for s in range(3) for t in range(3)]
        yield ring, points + list(_perturbed_actions(_module_table(ring, ring.structure_tensor().tolist()), rng, 3))
    fib = fibonacci()
    for ring in [*map(cyclic_group_ring, range(1, 5)), S3, fib, su2_level(2), SU3, tensor_product(fib, fib)]:
        yield ring, list(_perturbed_actions(standard_module(ring), rng, 12))
        twist = twisted_tensor_module(ring)
        yield twist.ring, list(_perturbed_actions(twist, rng, 12))


def _verifier_lines():
    for ring, modules_ in _verifier_corpus():
        yield repr(verify_based_ring(ring).lines())
        for module in modules_:
            yield repr(verify_module(module).lines())


VERIFIER_DIGEST = "05b923f5618fb9cec60653b9bd2e25daaf7eabd149063dd94871aa86fea685c4"


def test_verifier_reports_pinned():
    """Every line of the ring and module reports on the seeded corpus."""
    assert hashlib.sha256(repr(sorted(_verifier_lines())).encode()).hexdigest() == VERIFIER_DIGEST


def test_an_asymmetric_ring_is_checked_on_every_label(monkeypatch):
    """Z[x]/(x^3 - x^2 - x - 1) is associative with middles 1 and x, but
    without duality symmetry pairing compatibility need not fail where
    associativity does, so both checks run on every label.  The point
    acted on by 1, 1, 2 fails associativity at x."""
    ring = _cubic(1, 1, 1)
    module = _module_table(ring, [[[1]], [[1]], [[2]]])
    assert _middle_labels(ring.structure_tensor()) == [0, 1]

    def spy(check, labels, n):
        decided.append(list(labels))
        return decide(check, labels, n)

    decided, decide = [], modules.per_label_failures
    monkeypatch.setattr(modules, "per_label_failures", spy)
    assert _module_lines(module) == _oracle_module_lines(ring, module)
    assert decided == [[0, 1, 2], [0, 1, 2]]


# -- memory -----------------------------------------------------------------------------


def test_symmetric5_verifies_in_bounded_memory():
    # dense n^4 temporaries for S5 (n = 120) would need about 3.5 GB
    code = (
        "import resource, sys\n"
        "from fusionrings import cli\n"
        "rc = cli.main(['verify', 'builtin:symmetric?n=5'])\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
        "sys.exit(rc)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=600
    )
    lines = proc.stdout.splitlines()
    assert proc.returncode == 0, proc.stderr
    assert lines[-2] == "result: ok"
    maxrss_mb = int(lines[-1]) / (1024 * 1024 if sys.platform == "darwin" else 1024)
    assert maxrss_mb < 400
