"""Based ring axioms, Frobenius-Perron data, and the unit group."""

import math

import numpy as np
import pytest

from fusionrings import (
    BasedRingTable,
    LazyBasedRing,
    NoDimensionFunctionError,
    RingElement,
    UnitGroupError,
    UnknownLabelError,
    cyclic_group_ring,
    dual,
    fibonacci,
    frobenius_perron_dims,
    fuse,
    group_of_units,
    permutation_group_ring,
    ring_dims,
    structure_constant,
    su2_level,
    su2_ring,
    unit_coefficient,
    verify_based_ring,
    verify_lazy_ring,
)

GOLDEN = (1 + math.sqrt(5)) / 2


@pytest.fixture(scope="module")
def fib():
    return fibonacci()


def test_fuse_unit_law(fib):
    x = RingElement({"phi": 3, "1": 1})
    assert fuse(fib, RingElement.basis("1"), x) == x


def test_fuse_unknown_label(fib):
    with pytest.raises(UnknownLabelError):
        fuse(fib, RingElement.basis("zeta"), RingElement.basis("phi"))


def test_fuse_names_the_least_unknown_label(fib):
    with pytest.raises(UnknownLabelError, match="'aa'"):
        fuse(fib, RingElement({"zz": 1, "phi": 1, "aa": 1}), RingElement.basis("phi"))


def test_fuse_drops_cancelled_terms(fib):
    phi, one = RingElement.basis("phi"), RingElement.basis("1")
    product = fuse(fib, phi - one, phi + one)  # phi^2 - 1 = phi
    assert product == phi and len(product) == 1
    a1 = su2_ring()
    x, y = RingElement.basis("1"), RingElement.basis("0")
    product = fuse(a1, x - y, x + y)  # 1*1 - 0 = 2
    assert product == RingElement.basis("2") and len(product) == 1


def test_tau_values(fib):
    assert unit_coefficient(fib, RingElement.basis("1")) == 1
    phi = RingElement.basis("phi")
    # phi * phi = 1 + phi, so the unit coefficient is 1
    assert unit_coefficient(fib, fuse(fib, phi, phi)) == 1


def test_dual_examples(fib):
    assert dual(fib, RingElement.basis("phi")) == RingElement.basis("phi")
    z3 = cyclic_group_ring(3)
    assert dual(z3, RingElement.basis("1")) == RingElement.basis("2")


def test_structure_constants(fib):
    phi = RingElement.basis("phi")
    assert structure_constant(fib, phi, phi, phi) == 1
    assert structure_constant(fib, phi, phi, RingElement.basis("1")) == 1
    one = RingElement.basis("1")
    assert structure_constant(fib, one, phi, one) == 0


def test_structure_constant_unit_row():
    ring = su2_level(3)
    for a in ring.basis:
        for b in ring.basis:
            expected = 1 if a == b else 0
            assert structure_constant(
                ring, RingElement.basis(ring.unit), RingElement.basis(a), RingElement.basis(b)
            ) == expected


@pytest.mark.parametrize(
    "ring",
    [fibonacci(), cyclic_group_ring(1), cyclic_group_ring(3), cyclic_group_ring(4),
     permutation_group_ring(3)] + [su2_level(n) for n in range(1, 7)],
    ids=lambda r: r.name,
)
def test_verify_passes_on_builtins(ring):
    report = verify_based_ring(ring)
    assert report.ok, report.text()


def test_verify_catches_broken_unit_law(fib):
    products = {
        ("1", "1"): RingElement.basis("1"),
        ("1", "phi"): RingElement.basis("1"),  # broken: should be phi
        ("phi", "1"): RingElement.basis("phi"),
        ("phi", "phi"): RingElement({"1": 1, "phi": 1}),
    }
    bad = BasedRingTable(["1", "phi"], "1", {"1": "1", "phi": "phi"}, products)
    report = verify_based_ring(bad)
    assert not report.ok
    failed = {c.name for c in report.failed_checks()}
    assert "unit law (left)" in failed


def test_verify_reports_structural_gap():
    products = {("1", "1"): RingElement.basis("1")}
    broken = BasedRingTable(["1", "x"], "1", {"1": "1", "x": "x"}, products)
    report = verify_based_ring(broken)
    assert not report.structurally_sound
    assert any("missing product" in e for e in report.structural_errors)


def test_verify_catches_broken_duality():
    # z3 with the identity involution: dual pairing must fail
    z3 = cyclic_group_ring(3)
    products = {(a, b): z3.product(a, b) for a in z3.basis for b in z3.basis}
    bad = BasedRingTable(z3.basis, "0", {b: b for b in z3.basis}, products)
    report = verify_based_ring(bad)
    assert not report.ok
    failed = {c.name for c in report.failed_checks()}
    assert "dual pairing" in failed or "duality symmetry" in failed


def test_fp_dims_fibonacci(fib):
    dims = frobenius_perron_dims(fib)
    assert dims("phi") == pytest.approx(GOLDEN, abs=1e-9)
    assert dims("1") == pytest.approx(1.0, abs=1e-12)


def test_fp_dims_group_ring_all_one():
    dims = frobenius_perron_dims(cyclic_group_ring(4))
    assert dims.exactness == "integer"
    assert all(v == pytest.approx(1.0, abs=1e-12) for v in dims.values.values())


def test_fp_dims_su2_level2_sqrt2():
    dims = frobenius_perron_dims(su2_level(2))
    assert dims("1") == pytest.approx(math.sqrt(2), abs=1e-9)
    assert dims("0") == pytest.approx(1.0, abs=1e-9)
    assert dims("2") == pytest.approx(1.0, abs=1e-9)


def test_fp_dims_match_eigvalsh_oracle():
    # independent oracle: dense symmetric eigensolver on the left matrices
    for ring in (fibonacci(), su2_level(4)):
        dims = frobenius_perron_dims(ring)
        for label in ring.basis:
            M = ring.left_matrix(label).astype(float)
            expected = max(abs(np.linalg.eigvals(M)))
            assert dims(label) == pytest.approx(expected, abs=1e-8)


def test_fp_dims_invariant_under_relabeling(fib):
    # same table with basis labels renamed: values follow the labels
    mapping = {"1": "u", "phi": "g"}
    products = {
        (mapping[a], mapping[b]): fib.product(a, b).map_labels(mapping.get)
        for a in fib.basis
        for b in fib.basis
    }
    renamed = BasedRingTable(["g", "u"], "u", {"u": "u", "g": "g"}, products)
    dims = frobenius_perron_dims(renamed)
    assert dims("g") == pytest.approx(GOLDEN, abs=1e-9)


def test_fp_dims_rejects_non_fusion_table():
    # phi*phi = phi only: no unit in the product, duality fails structurally
    products = {
        ("1", "1"): RingElement.basis("1"),
        ("1", "phi"): RingElement.basis("phi"),
        ("phi", "1"): RingElement.basis("phi"),
        ("phi", "phi"): RingElement.basis("phi"),
    }
    bad = BasedRingTable(["1", "phi"], "1", {"1": "1", "phi": "phi"}, products)
    with pytest.raises(NoDimensionFunctionError):
        frobenius_perron_dims(bad)


def test_dimension_multiplicativity_property():
    for ring in (fibonacci(), su2_level(3), permutation_group_ring(3)):
        dims = frobenius_perron_dims(ring)
        for a in ring.basis:
            for b in ring.basis:
                product_dim = dims.of(ring.product(a, b))
                expected = dims(a) * dims(b)
                assert abs(product_dim - expected) <= 1e-6 * expected


def test_group_of_units():
    fibr = fibonacci()
    assert group_of_units(fibr, frobenius_perron_dims(fibr)) == ["1"]
    z4 = cyclic_group_ring(4)
    assert group_of_units(z4, frobenius_perron_dims(z4)) == ["0", "1", "2", "3"]
    su3 = su2_level(3)
    assert group_of_units(su3, frobenius_perron_dims(su3)) == ["0", "3"]


def test_group_of_units_closure_failure():
    su3 = su2_level(3)
    dims = frobenius_perron_dims(su3)
    # tamper with the dimension data so a non-invertible label looks like a unit
    fake = dims.values | {"1": 1.0}
    from fusionrings import DimensionFunction

    with pytest.raises(UnitGroupError):
        group_of_units(su3, DimensionFunction(fake))


def test_dual_pairing_invariant():
    for ring in (fibonacci(), su2_level(2), cyclic_group_ring(4)):
        for a in ring.basis:
            for b in ring.basis:
                pairing = unit_coefficient(
                    ring, fuse(ring, dual(ring, RingElement.basis(a)), RingElement.basis(b))
                )
                assert pairing == (1 if a == b else 0)


def test_duality_antihomomorphism_invariant():
    ring = permutation_group_ring(3)
    for a in ring.basis:
        for b in ring.basis:
            ea, eb = RingElement.basis(a), RingElement.basis(b)
            assert dual(ring, fuse(ring, ea, eb)) == fuse(ring, dual(ring, eb), dual(ring, ea))


# -- lazy ring verification -----------------------------------------------------------


def test_verify_lazy_su2_ring_depth_20():
    report = verify_lazy_ring(su2_ring(), 20)
    assert report.ok, report.text()


def test_verify_lazy_corrupted_involution():
    from fusionrings import LazyBasedRing
    from fusionrings.constructors import _word_product, _parse_word

    broken = LazyBasedRing(
        name="broken words",
        unit="e",
        product_fn=_word_product,
        involution_fn=lambda a: a,  # corrupt: fixes p+ instead of swapping
        level_fn=lambda a: len(_parse_word(a)),
        enumerate_level_fn=lambda n: [
            "".join("p" + s for s in w) or "e"
            for w in __import__("itertools").product("+-", repeat=n)
        ],
    )
    report = verify_lazy_ring(broken, 2)
    assert not report.ok
    failed = {c.name for c in report.failed_checks()}
    assert failed & {"dual pairing", "involution anti-multiplicative"}


def test_su2_ring_products():
    a1 = su2_ring()
    assert a1.product("1", "1") == RingElement({"0": 1, "2": 1})
    assert a1.product("1", "2") == RingElement({"1": 1, "3": 1})
    assert a1.dim("3") == 4.0


def test_structure_constant_linear_in_all_slots():
    fib = fibonacci()
    phi = RingElement.basis("phi")
    one = RingElement.basis("1")
    x = 2 * phi + one
    # unit coefficient of (phi * phi) * dual(2 phi + 1): coefficients add up
    expected = 2 * structure_constant(fib, phi, phi, phi) + structure_constant(fib, phi, phi, one)
    assert structure_constant(fib, phi, phi, x) == expected


def test_ring_dims_rejects_lazy_rings():
    with pytest.raises(NoDimensionFunctionError, match="lazy rings expose dimensions per label"):
        ring_dims(su2_ring())
    bare = LazyBasedRing("bare", "0", lambda a, b: RingElement.basis("0"), lambda a: a, lambda a: 0)
    with pytest.raises(NoDimensionFunctionError, match="ring bare carries no dimension data"):
        ring_dims(bare)
