"""Based modules: actions, pairings, verification, named constructions."""

import numpy as np
import pytest

from fusionrings import (
    BasedModuleTable,
    FusionError,
    IncompatibleDimensionsError,
    InfiniteInnerProductError,
    NonIntegerDimensionError,
    RingElement,
    UnitGroupError,
    act,
    connected_components,
    cyclic_group_ring,
    dim_vector,
    fibonacci,
    free_unitary_ring,
    induced_module,
    inner,
    is_cofinite,
    is_connected,
    is_divisible,
    quotient_module,
    ring_dims,
    singleton_module,
    standard_module,
    su2_level,
    su2_ring,
    subring_generated,
    tensor_product,
    twisted_tensor_module,
    unit_coefficient,
    verify_module,
)


@pytest.fixture(scope="module")
def fib():
    return fibonacci()


@pytest.fixture(scope="module")
def fib_std(fib):
    return standard_module(fib)


def test_act_unit_law(fib_std):
    for b in fib_std.basis:
        eb = RingElement.basis(b)
        assert act(fib_std, RingElement.basis("1"), eb) == eb


def test_act_standard_is_left_multiplication(fib_std):
    phi = RingElement.basis("phi")
    assert act(fib_std, phi, phi) == RingElement({"1": 1, "phi": 1})


def test_quotient_action_example():
    z4 = cyclic_group_ring(4)
    q = quotient_module(z4, ["0", "2"])
    assert q.basis == ("0", "1")
    assert act(q, RingElement.basis("1"), RingElement.basis("0")) == RingElement.basis("1")


def test_inner_standard_is_twisted_product(fib, fib_std):
    # <a, b> = a * dual(b) on the standard module
    from fusionrings import dual, fuse

    for a in fib.basis:
        for b in fib.basis:
            expected = fuse(fib, RingElement.basis(a), dual(fib, RingElement.basis(b)))
            assert inner(fib_std, a, b) == expected


def test_inner_normalization(fib_std):
    for b in fib_std.basis:
        assert unit_coefficient(fib_std.ring, inner(fib_std, b, b)) == 1


def test_inner_singleton_sums_group():
    z2 = cyclic_group_ring(2)
    s = singleton_module(z2)
    assert inner(s, "pt", "pt") == RingElement({"0": 1, "1": 1})


def test_verify_standard_modules():
    for ring in (fibonacci(), cyclic_group_ring(4), su2_level(3)):
        report = verify_module(standard_module(ring))
        assert report.ok, report.text()


def test_verify_twisted_tensor_module(fib):
    tw = twisted_tensor_module(fib)
    report = verify_module(tw)
    assert report.ok, report.text()
    assert tw.size == 2
    assert tw.ring.size == 4
    assert act(tw, RingElement.basis("phi|1"), RingElement.basis("phi")) == RingElement(
        {"1": 1, "phi": 1}
    )


def test_verify_catches_planted_reciprocity_failure():
    z4 = cyclic_group_ring(4)
    std = standard_module(z4)
    action = {(a, b): std.action_row(a, b) for a in z4.basis for b in std.basis}
    action[("1", "0")] = RingElement.basis("2")  # plant N_{1,0}^2 = 1 instead of ^1
    bad = BasedModuleTable(z4, std.basis, action)
    report = verify_module(bad)
    assert not report.ok
    failed = {c.name for c in report.failed_checks()}
    assert failed & {"Frobenius reciprocity", "associativity"}


def test_frobenius_reciprocity_invariant(fib_std):
    ring = fib_std.ring
    A = fib_std.action_tensor()
    inv = np.array([ring.index[ring.involution_of(a)] for a in ring.basis])
    assert np.array_equal(A, A[inv].transpose(0, 2, 1))


def test_action_nonvanishing_invariant():
    for module in (
        standard_module(su2_level(2)),
        quotient_module(cyclic_group_ring(4), ["0", "2"]),
        twisted_tensor_module(fibonacci()),
    ):
        A = module.action_tensor()
        assert not np.any(A.sum(axis=2) == 0)


def test_connectivity():
    fibm = standard_module(fibonacci())
    assert is_connected(fibm)
    q = quotient_module(cyclic_group_ring(4), ["0", "2"])
    assert is_connected(q)


def test_disjoint_union_has_two_components(fib):
    std = standard_module(fib)
    labels = ["a1", "aphi", "b1", "bphi"]
    rename = {"1": "a1", "phi": "aphi"}
    rename2 = {"1": "b1", "phi": "bphi"}
    action = {}
    for alpha in fib.basis:
        for b in fib.basis:
            row = std.action_row(alpha, b)
            action[(alpha, rename[b])] = row.map_labels(rename.get)
            action[(alpha, rename2[b])] = row.map_labels(rename2.get)
    double = BasedModuleTable(fib, labels, action)
    assert connected_components(double) == [["a1", "aphi"], ["b1", "bphi"]]
    assert not is_connected(double)


def test_dim_vector_standard_matches_ring(fib, fib_std):
    dims = ring_dims(fib)
    vector = dim_vector(fib_std, dims, "1")
    for b in fib.basis:
        assert vector(b) == pytest.approx(dims(b), abs=1e-9)


def test_dim_vector_quotient_is_two():
    z4 = cyclic_group_ring(4)
    q = quotient_module(z4, ["0", "2"])
    vector = dim_vector(q)
    assert vector.values == {"0": 2.0, "1": 2.0}


def test_dim_vector_singleton_is_group_order():
    s = singleton_module(cyclic_group_ring(2))
    vector = dim_vector(s)
    assert vector("pt") == pytest.approx(2.0)


def test_dim_vector_rejects_bad_dims(fib, fib_std):
    from fusionrings import DimensionFunction

    bogus = DimensionFunction({"1": 1.0, "phi": 3.0})
    with pytest.raises(IncompatibleDimensionsError):
        dim_vector(fib_std, bogus, "1")


def test_module_eigen_relation_invariant():
    # M(a) D = d(a) D on connected finite modules with compatible dims
    z4 = cyclic_group_ring(4)
    q = quotient_module(z4, ["0", "2"])
    dims = ring_dims(z4)
    vector = dim_vector(q)
    D = np.array([vector(b) for b in q.basis])
    for a in z4.basis:
        assert np.allclose(q.matrix(a) @ D, dims(a) * D, rtol=1e-6)


# -- quotient modules ------------------------------------------------------------------


def test_quotient_by_whole_group_is_singleton():
    z2 = cyclic_group_ring(2)
    q = quotient_module(z2, ["0", "1"])
    assert q.size == 1
    assert verify_module(q).ok


def test_quotient_su2_level3_by_units():
    su3 = su2_level(3)
    q = quotient_module(su3, ["0", "3"])
    assert q.basis == ("0", "1")
    assert q.matrix("1").tolist() == [[0, 1], [1, 1]]
    assert verify_module(q).ok


def test_quotient_rejects_non_units():
    with pytest.raises(UnitGroupError):
        quotient_module(su2_level(3), ["0", "1"])
    with pytest.raises(UnitGroupError):
        quotient_module(cyclic_group_ring(4), ["0", "1"])  # not closed


# -- induced modules --------------------------------------------------------------------


def test_induced_singleton_reproduces_quotient():
    z4 = cyclic_group_ring(4)
    witness = is_divisible(z4, ["0", "2"])
    sub = subring_generated(z4, "2").as_table()
    induced = induced_module(z4, witness, singleton_module(sub))
    q = quotient_module(z4, ["0", "2"])
    assert induced.size == q.size
    for a in z4.basis:
        assert np.array_equal(induced.matrix(a), q.matrix(a))
    assert verify_module(induced).ok


def test_induced_standard_is_standard():
    z4 = cyclic_group_ring(4)
    witness = is_divisible(z4, ["0", "2"])
    sub = subring_generated(z4, "2").as_table()
    induced = induced_module(z4, witness, standard_module(sub))
    std = standard_module(z4)
    from fusionrings import canonical_key

    assert canonical_key(induced) == canonical_key(std)


def test_induced_from_trivial_subring_is_standard(fib):
    witness = is_divisible(fib, ["1"])
    sub = subring_generated(fib, "1").as_table()
    point = singleton_module(sub)
    induced = induced_module(fib, witness, point)
    std = standard_module(fib)
    from fusionrings import canonical_key

    assert canonical_key(induced) == canonical_key(std)


# -- singleton modules --------------------------------------------------------------------


def test_singleton_rejects_fibonacci(fib):
    with pytest.raises(NonIntegerDimensionError):
        singleton_module(fib)


def test_singleton_z4_verifies():
    s = singleton_module(cyclic_group_ring(4))
    assert verify_module(s).ok
    for g in "0123":
        assert act(s, RingElement.basis(g), RingElement.basis("pt")) == RingElement.basis("pt")


# -- lazy modules: cofiniteness and truncation ------------------------------------------------


def test_standard_su2_ring_module_cofinite():
    std = standard_module(su2_ring())
    result = is_cofinite(std, depth=8)
    assert result.status == "cofinite"


def test_standard_word_module_cofinite():
    std = standard_module(free_unitary_ring())
    assert is_cofinite(std, depth=6).status == "cofinite"


def test_planted_loop_refutes_cofiniteness():
    from fusionrings import LazyBasedModule

    a2 = free_unitary_ring()
    std = standard_module(a2)

    def looped(alpha, b):
        row = std.action_row(alpha, b)
        if alpha == "p+" and b == "e":
            row = row + RingElement.basis("e")
        return row

    bad = LazyBasedModule(a2, looped, std.level, std.enumerate_level, dims=a2.dim, anchor="e")
    assert is_cofinite(bad, depth=4).status == "not_cofinite"


def test_cofinite_undecided_without_budget():
    from fusionrings import LazyBasedModule

    a1 = su2_ring()
    std = standard_module(a1)
    blind = LazyBasedModule(a1, std.action_row, std.level, std.enumerate_level)
    assert is_cofinite(blind, depth=4).status == "undecided"


def test_finite_modules_always_cofinite(fib_std):
    assert is_cofinite(fib_std).status == "cofinite"


def test_inner_over_lazy_ring_with_certificate():
    std = standard_module(su2_ring())
    assert inner(std, "3", "0") == RingElement.basis("3")
    with pytest.raises(InfiniteInnerProductError):
        inner(std, "3", "2")  # off-anchor pairing carries no budget


def _shifted_standard(shift):
    """The standard module of the su2 ring with every dimension moved by ``shift``."""
    from fusionrings import LazyBasedModule

    a1 = su2_ring()
    std = standard_module(a1)
    dims = lambda b: a1.dim(b) + shift
    return LazyBasedModule(a1, std.action_row, std.level, std.enumerate_level, dims=dims, anchor="0")


def test_inner_over_lazy_ring_rejects_mass_over_budget():
    # <3, 0> is the single term 3, of mass d(3) = 4
    with pytest.raises(IncompatibleDimensionsError, match="accumulated mass 4.0 exceeds the dimension budget 3.5"):
        inner(_shifted_standard(-0.5), "3", "0")


def test_inner_over_lazy_ring_uncertified_within_depth():
    with pytest.raises(InfiniteInnerProductError, match="not certified complete at depth 32: mass 4.0 of budget 4.5"):
        inner(_shifted_standard(0.5), "3", "0")


def test_cofinite_budget_verdicts_at_the_anchor():
    # <0, 0> is the single term 0, of mass 1
    over = is_cofinite(_shifted_standard(-0.5), depth=8)
    assert (over.status, over.detail) == ("not_cofinite", "anchor pairing mass 1.0 exceeds the dimension budget 0.5")
    short = is_cofinite(_shifted_standard(0.5), depth=8)
    assert (short.status, short.detail) == ("undecided", "budget not met within depth 8")
    met = is_cofinite(_shifted_standard(0.0), depth=8)
    assert (met.status, met.detail) == ("cofinite", "anchor pairing mass met the budget at level 0")


def _anchor_stub(mass, budget):
    """A module over the su2 ring whose anchor pairing is the single term
    ``mass`` * 0 (dimension 1), against the dimension budget ``budget``."""
    from fusionrings import LazyBasedModule

    a1 = su2_ring()
    row = lambda alpha, b: RingElement({"0": mass if alpha == "0" else 0})
    return LazyBasedModule(a1, row, int, lambda n: ["0"] if n == 0 else [], dims=lambda b: budget, anchor="0")


def test_anchored_mass_slack_stays_below_one_term():
    # a relative slack of 1e-6 of 10^7 is 10, so mass 10^7 - 2 once read as
    # met, though a further term (at least 1) would fit under the budget
    with pytest.raises(InfiniteInnerProductError, match="depth 32: mass 9999998.0 of budget 10000000.0"):
        inner(_anchor_stub(10**7 - 2, 1e7), "0", "0")
    assert inner(_anchor_stub(10**7, 1e7), "0", "0") == RingElement({"0": 10**7})
    with pytest.raises(IncompatibleDimensionsError, match="mass 10000001.0 exceeds"):
        inner(_anchor_stub(10**7 + 1, 1e7), "0", "0")
    # 10^17 - 2 rounds to 10^17 as a float, so a float sum once read the
    # budget as met; the mass is summed exactly
    with pytest.raises(InfiniteInnerProductError, match=r"depth 32: mass 1e\+17 of budget 1e\+17"):
        inner(_anchor_stub(10**17 - 2, 1e17), "0", "0")
    assert inner(_anchor_stub(10**17, 1e17), "0", "0") == RingElement({"0": 10**17})


def test_anchored_mass_stops_at_a_label_cap_on_the_word_ring():
    # the free unitary word ring has 2^n words at level n, so level 32 is
    # out of reach; the sum stops at level 14, before 2^15 labels
    import time

    from fusionrings import LazyBasedModule

    a2 = free_unitary_ring()
    std = standard_module(a2)
    raised = LazyBasedModule(a2, std.action_row, std.level, std.enumerate_level, dims=lambda b: a2.dim(b) + 0.5,
                             anchor="e")
    start = time.process_time()
    with pytest.raises(InfiniteInnerProductError, match="not certified complete at depth 14"):
        inner(raised, "p+", "e")
    short = is_cofinite(raised)
    assert (short.status, short.detail) == ("undecided", "budget not met within depth 14")
    assert time.process_time() - start < 10.0


def test_components_of_a_lazy_module_need_a_truncation():
    std = standard_module(su2_ring())
    with pytest.raises(FusionError, match="truncate it first"):
        is_connected(std)
    window = std.truncate(3)
    assert connected_components(window) == [["0", "1", "2", "3"]]
    assert is_connected(window)


def test_truncated_module_rows():
    std = standard_module(su2_ring())
    window = std.truncate(5)
    assert window.basis == tuple(str(n) for n in range(6))
    assert window.row_complete("1", "3")
    assert not window.row_complete("1", "5")
    assert window.boundary_labels() == ("5",)
    report = verify_module(window, depth=3)
    assert report.ok, report.text()


def test_subring_restriction_module_cofinite():
    # the even-label subring acting on the odd labels inside the full su2
    # ring: the pairing mass certificate fires at the anchor "1", where
    # d(<2k+1, 1>) = d(2k) + d(2k+2) = 4(k+1)
    from fusionrings import LazyBasedModule

    a1 = su2_ring()
    odd_orbit = LazyBasedModule(
        ring=_even_subring(),
        act_fn=lambda alpha, b: a1.product(alpha, b),
        level_fn=lambda b: int(b) // 2,
        enumerate_level_fn=lambda n: [str(2 * n + 1)],
        dims=lambda b: 2.0 * (int(b) + 1),
        anchor="1",
        name="odd labels over the even subring",
    )
    result = is_cofinite(odd_orbit, depth=8)
    assert result.status == "cofinite"


def _even_subring():
    from fusionrings import LazyBasedRing

    a1 = su2_ring()
    return LazyBasedRing(
        name="even su2 labels",
        unit="0",
        product_fn=a1.product,
        involution_fn=lambda a: a,
        level_fn=lambda a: int(a) // 2,
        enumerate_level_fn=lambda n: [str(2 * n)],
        contains_fn=lambda a: a.isdigit() and int(a) % 2 == 0,
        dims=lambda a: float(int(a) + 1),
    )


def test_quotient_rejects_non_free_action():
    # the top label of the level-2 ring fixes the middle one, so the
    # orbit sums would break reciprocity
    with pytest.raises(UnitGroupError):
        quotient_module(su2_level(2), ["0", "2"])


def test_induced_su2_level3_by_units():
    su3 = su2_level(3)
    witness = is_divisible(su3, ["0", "3"])
    assert witness.divisible
    sub = subring_generated(su3, "3").as_table()
    induced = induced_module(su3, witness, singleton_module(sub))
    assert verify_module(induced).ok
    q = quotient_module(su3, ["0", "3"])
    from fusionrings import canonical_key

    assert canonical_key(induced) == canonical_key(q)
