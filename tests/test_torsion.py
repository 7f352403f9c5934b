"""Enumeration, canonical forms, torsion verdicts, and proof-replay probes."""

import functools
import gc
import hashlib
import itertools
import math
import re

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusionrings import (
    BasedModuleTable,
    ModuleSearchConfig,
    RingElement,
    canonical_form,
    canonical_key,
    chebyshev_coeffs,
    cyclic_group_ring,
    dimension_bound,
    enumerate_modules,
    fibonacci,
    free_product,
    free_product_module_probe,
    free_unitary_ring,
    fuse,
    integer_dim_shortcut,
    is_cofinite,
    is_connected,
    is_divisible,
    is_torsion_free,
    permutation_group_ring,
    quotient_module,
    singleton_module,
    standard_module,
    su2_level,
    su2_ring,
    tensor_obstruction_probe,
    tensor_product,
    twisted_tensor_module,
    unfold_word_module,
    verify_based_ring,
    verify_lazy_ring,
    verify_module,
    word_module_structure_check,
    a_infinity_check,
)
from fusionrings import torsion
from fusionrings.errors import StructuralError
from fusionrings.modules import LazyBasedModule
from fusionrings.rings import BasedRingTable, DimensionFunction
from fusionrings.torsion import FreeProductProbeReport


# -- enumeration against the independent subgroup oracle -------------------------------

from conftest import (
    cyclic_group_data,
    dihedral_data,
    elementary_abelian2_data,
    fusion_subrings,
    klein_four_data,
    subgroup_indices_two_generated,
    subgroups_up_to_conjugacy,
    symmetric3_data,
    symmetric_data,
)
from fusionrings import group_ring


def test_subgroup_oracle_sanity():
    assert subgroups_up_to_conjugacy(*cyclic_group_data(2)) == 2
    assert subgroups_up_to_conjugacy(*cyclic_group_data(3)) == 2
    assert subgroups_up_to_conjugacy(*cyclic_group_data(4)) == 3
    assert subgroups_up_to_conjugacy(*cyclic_group_data(6)) == 4
    assert subgroups_up_to_conjugacy(*symmetric3_data()) == 4
    assert subgroups_up_to_conjugacy(*klein_four_data()) == 5
    assert subgroups_up_to_conjugacy(*dihedral_data(4)) == 8


GROUP_CASES = [
    (cyclic_group_ring(2), cyclic_group_data(2)),
    (cyclic_group_ring(3), cyclic_group_data(3)),
    (cyclic_group_ring(4), cyclic_group_data(4)),
    (cyclic_group_ring(6), cyclic_group_data(6)),
    (cyclic_group_ring(8), cyclic_group_data(8)),
    (tensor_product(cyclic_group_ring(2), cyclic_group_ring(2)), klein_four_data()),
    (tensor_product(tensor_product(cyclic_group_ring(2), cyclic_group_ring(2)), cyclic_group_ring(2)),
     elementary_abelian2_data(3)),
    (permutation_group_ring(3), symmetric3_data()),
    (group_ring(*dihedral_data(4)[:2], name="dihedral8"), dihedral_data(4)),
]


@pytest.mark.parametrize("ring,group", GROUP_CASES, ids=lambda x: getattr(x, "name", "data"))
def test_group_ring_class_counts_match_subgroup_oracle(ring, group):
    bound = dimension_bound(ring)
    result = enumerate_modules(ring, ModuleSearchConfig(max_basis_size=bound))
    assert result.complete
    assert len(result.classes) == subgroups_up_to_conjugacy(*group)


def test_symmetric4_classes_are_its_subgroup_classes():
    # a connected based module over a group ring is a transitive G-set G/H,
    # of size [G:H]; every subgroup of S4 is 2-generated, so closing pairs
    # of elements finds all 11 conjugacy classes of subgroups
    ring = permutation_group_ring(4)
    result = enumerate_modules(ring, ModuleSearchConfig(max_basis_size=dimension_bound(ring)))
    assert result.complete and result.certified_bound == 24
    assert result.nodes_explored == 406
    sizes = sorted(module.size for module in result.classes)
    assert sizes == subgroup_indices_two_generated(*symmetric_data(4)) == [1, 2, 3, 4, 6, 6, 6, 8, 12, 12, 24]


# The node counts pin the order of revisions too: propagation stops within
# a change threshold, so another order can reach another fixpoint.
@pytest.mark.parametrize(
    "make,nodes,sizes",
    [
        (lambda: tensor_product(tensor_product(fibonacci(), fibonacci()), fibonacci()), 81, [2, 4, 4, 4, 8]),
        (lambda: tensor_product(su2_level(3), fibonacci()), 73, [2, 4, 4, 8]),
        (lambda: tensor_product(su2_level(4), cyclic_group_ring(2)), 129, [4, 4, 5, 5, 8, 10]),
    ],
    ids=["fib_cubed", "su2_level3xfib", "su2_level4xZ2"],
)
def test_frontier_searches_complete_at_the_bound(make, nodes, sizes):
    ring = make()
    result = enumerate_modules(ring, ModuleSearchConfig(max_basis_size=dimension_bound(ring)))
    assert result.complete and result.nodes_explored == nodes
    assert sorted(module.size for module in result.classes) == sizes


def test_rep_a5_to_size_5_pinned():
    # the closure reads only the middle rules, so an interior node can
    # outlive a rule that would refute it: 2,656 nodes here, where a
    # closure over every rule takes 2,423 for the same classes
    result = enumerate_modules(_rep_a5_ring(), ModuleSearchConfig(max_basis_size=5))
    assert result.complete and result.nodes_explored == 2656
    assert sorted(module.size for module in result.classes) == [1, 2, 3, 3, 4, 4, 4, 4, 5, 5]


def test_enumerated_modules_are_verified_connected_cofinite():
    ring = su2_level(3)
    result = enumerate_modules(ring, ModuleSearchConfig(max_basis_size=dimension_bound(ring)))
    assert result.classes, "the standard module must always appear"
    keys = [canonical_key(m) for m in result.classes]
    assert canonical_key(standard_module(ring)) in keys
    for module in result.classes:
        assert verify_module(module).ok
        assert is_connected(module)
        assert is_cofinite(module).status == "cofinite"


def _representation_ring(name, basis, duals, rules):
    """A commutative fusion ring with unit ``basis[0]``, from the products
    of non-unit labels, each a space-separated multiset of labels; ``duals``
    pairs the labels that are not self-dual."""
    unit = basis[0]
    products = {(x, unit): {x: 1} for x in basis}
    products.update({(unit, x): {x: 1} for x in basis})
    for (x, y), terms in rules.items():
        expansion = {c: terms.split().count(c) for c in terms.split()}
        products[(x, y)] = products[(y, x)] = expansion
    involution = {x: x for x in basis} | duals | {y: x for x, y in duals.items()}
    return BasedRingTable(basis, unit, involution, products, name=name)


def _rep_a5_ring():
    """The representation ring of A5."""
    return _representation_ring("rep(A5)", ["1", "3a", "3b", "4", "5"], {}, {
        ("3a", "3a"): "1 3a 5", ("3a", "3b"): "4 5", ("3a", "4"): "3b 4 5",
        ("3a", "5"): "3a 3b 4 5", ("3b", "3b"): "1 3b 5", ("3b", "4"): "3a 4 5",
        ("3b", "5"): "3a 3b 4 5", ("4", "4"): "1 3a 3b 4 5", ("4", "5"): "3a 3b 4 5 5",
        ("5", "5"): "1 3a 3b 4 4 5 5",
    })


def _rep_psl27_ring():
    """The representation ring of PSL(2, 7).  Its one generator 3 has
    3*3 = 3b + 6, so no matrix but its own follows from M_3 by fusion
    expansion alone: leaf completion must first transpose M_3 into M_3b."""
    return _representation_ring("rep(PSL(2,7))", ["1", "3", "3b", "6", "7", "8"], {"3": "3b"}, {
        ("3", "3"): "3b 6", ("3", "3b"): "1 8", ("3", "6"): "3b 7 8", ("3", "7"): "6 7 8",
        ("3", "8"): "3 6 7 8", ("3b", "3b"): "3 6", ("3b", "6"): "3 7 8", ("3b", "7"): "6 7 8",
        ("3b", "8"): "3b 6 7 8", ("6", "6"): "1 6 6 7 8 8", ("6", "7"): "3 3b 6 7 7 8 8",
        ("6", "8"): "3 3b 6 6 7 7 8 8", ("7", "7"): "1 3 3b 6 6 7 7 8 8",
        ("7", "8"): "3 3b 6 6 7 7 8 8 8", ("8", "8"): "1 3 3b 6 6 7 7 7 8 8 8",
    })


@functools.cache
def _oracle_plan(ring, gens):
    """The order in which the non-generator matrices follow from the
    generator matrices ``gens`` (a tuple) by fusion expansion, each step
    ``("product", target, x, y, coeff, rest)`` or ``("dual", target,
    source)``: a label is derived when it is the only unknown member of the
    expansion of two known labels.  Written apart from the search, which
    derives rows, not labels; the plan must reach every label."""
    known = {ring.unit}
    for g in gens:
        known |= {g, ring.involution_of(g)}
    steps = []
    changed = True
    while changed and len(known) < ring.size:
        changed = False
        for x in sorted(known):
            for y in sorted(known):
                expansion = ring.product(x, y)
                unknown = [c for c in expansion.support() if c not in known]
                if len(unknown) != 1:
                    continue
                target = unknown[0]
                rest = [(c, m) for c, m in expansion.items() if c != target]
                steps.append(("product", target, x, y, expansion.coefficient(target), tuple(rest)))
                known.add(target)
                bar = ring.involution_of(target)
                if bar not in known:
                    steps.append(("dual", bar, target))
                    known.add(bar)
                changed = True
    assert len(known) == ring.size, f"{gens} do not generate {ring.name}"
    return steps


def test_generating_set_extends_a_stalled_derivation():
    # 3a alone generates rep(A5), but deriving the other matrices one
    # unknown at a time stalls at {1, 3a, 5}, so the least underivable
    # label 3b joins the generators
    ring = _rep_a5_ring()
    assert verify_based_ring(ring).ok
    gens = torsion.generating_set(ring)
    assert gens == ("3a", "3b")
    assert [step[1] for step in _oracle_plan(ring, gens)] == ["5", "4"]
    assert torsion._derivable(ring, ["3a"]) == {"1", "3a", "5"}


def test_generating_set_derives_through_a_dual():
    ring = _rep_psl27_ring()
    assert verify_based_ring(ring).ok
    assert torsion.generating_set(ring) == ("3",)
    assert ring.product("3", "3") == RingElement({"3b": 1, "6": 1})
    assert _oracle_plan(ring, ("3",))[0][:2] == ("product", "6")


def _multiplicity_two_ring():
    """The rank-3 fusion ring x*x = 1 + 2y, x*y = 2x + y, y*y = 1 + x + 2y:
    its derivation plan divides by 2 (y = (x*x - 1) / 2)."""
    basis = ["1", "x", "y"]
    rules = {("x", "x"): {"1": 1, "y": 2}, ("x", "y"): {"x": 2, "y": 1},
             ("y", "y"): {"1": 1, "x": 1, "y": 2}}
    products = {(a, "1"): {a: 1} for a in basis}
    products.update({("1", a): {a: 1} for a in basis})
    for (a, b), expansion in rules.items():
        products[(a, b)] = products[(b, a)] = expansion
    return BasedRingTable(basis, "1", {a: a for a in basis}, products, name="x2=1+2y")


def test_generating_sets_pinned():
    # canonical keys read the generator matrices, so this pins key bytes
    # before any search runs
    rings = (
        [cyclic_group_ring(n) for n in range(1, 13)]
        + [permutation_group_ring(n) for n in (3, 4, 5)]
        + [su2_level(k) for k in range(1, 17)]
        + [
            tensor_product(fibonacci(), fibonacci()),
            tensor_product(tensor_product(fibonacci(), fibonacci()), fibonacci()),
            tensor_product(su2_level(2), cyclic_group_ring(2)),
            tensor_product(su2_level(4), cyclic_group_ring(2)),
            _rep_a5_ring(),
            _multiplicity_two_ring(),
        ]
    )
    gens = [torsion.generating_set(ring) for ring in rings]
    assert hashlib.sha256(repr(gens).encode()).hexdigest() == (
        "7b0963010d5642094f30fd5e990bea6d433c4eece13540e5c9bb4e26aa3f9fea"
    )


def _derivable_through_every_pair(ring, gens):
    """The labels that the expansions of any two known labels reach from
    ``gens``, with their duals: ``_derivable`` without its restriction to
    the expansions x*s with s a generator or its dual."""
    known = {ring.unit, *gens, *map(ring.involution_of, gens)}
    while True:
        found = set()
        for x, y in itertools.product(known, repeat=2):
            unknown = set(ring.product(x, y).support()) - known
            if len(unknown) == 1:
                found |= unknown
        if not found:
            return known
        known |= found | set(map(ring.involution_of, found))


def test_middle_rules_pick_the_generators_that_every_rule_picks(monkeypatch):
    # leaf completion derives rows through the middle rules x*s alone, s a
    # generator or its dual; on rings whose generating sets are not pinned
    # that derivation still reaches every label that an expansion of any
    # two known labels reaches, so no ring gains a generator
    rings = [
        *(su2_level(k) for k in (17, 21, 28)),
        tensor_product(su2_level(3), su2_level(3)),
        tensor_product(su2_level(2), su2_level(3)),
        tensor_product(fibonacci(), su2_level(4)),
        tensor_product(cyclic_group_ring(2), cyclic_group_ring(4)),
        group_ring(*dihedral_data(5)[:2], name="dihedral10"),
        _rep_psl27_ring(),
    ]
    picked = [torsion.generating_set(ring) for ring in rings]
    monkeypatch.setattr(torsion, "_derivable", _derivable_through_every_pair)
    for ring in rings:
        monkeypatch.setattr(ring, "_generators", None)
    assert [torsion.generating_set(ring) for ring in rings] == picked


def _failures(ring):
    """The failed checks of the ring's axiom report, as a message tail."""
    return "; ".join(f"{c.name} fails at {c.witness}" for c in verify_based_ring(ring).failed_checks())


def test_a_nonassociative_ring_is_rejected_before_the_search():
    # su2 level 3 with 2*2 = 0 + 1 in place of 0 + 2, its dimensions kept:
    # not associative (its duality symmetry fails first), so neither the
    # exhaustiveness bound nor leaf completion holds for it.  Searched, it
    # listed a class of size 2 whose module report failed pairing
    # compatibility.
    base = su2_level(3)
    products = {(a, b): base.product(a, b) for a in base.basis for b in base.basis}
    products["2", "2"] = {"0": 1, "1": 1}
    ring = BasedRingTable(base.basis, base.unit, base.involution, products, dims=base.dims)
    failures = _failures(ring)
    assert failures.startswith("duality symmetry fails at 1, 2, 2; ") and "; associativity fails at " in failures
    with pytest.raises(StructuralError, match=re.escape(f"module enumeration requires a based ring: {failures}")):
        enumerate_modules(ring, ModuleSearchConfig(max_basis_size=4))


def test_an_involution_that_keeps_products_is_rejected_before_the_search():
    # with the duals of 0|1 and 1|0 swapped and nothing else, su2_3 x su2_3
    # stays associative but its involution no longer reverses products,
    # which the dual step of _derivable needs; the dual pairing fails first
    base = tensor_product(su2_level(3), su2_level(3))
    products = {(a, b): base.product(a, b) for a in base.basis for b in base.basis}
    involution = {**base.involution, "0|1": "1|0", "1|0": "0|1"}
    ring = BasedRingTable(base.basis, base.unit, involution, products, dims=base.dims)
    failures = _failures(ring)
    assert failures.startswith("dual pairing fails at ") and "; involution anti-multiplicative fails at " in failures
    with pytest.raises(StructuralError, match=re.escape(failures)):
        enumerate_modules(ring, ModuleSearchConfig(max_basis_size=4))


def test_a_torsion_verdict_rejects_a_ring_that_fails_an_axiom():
    # Z4 with 2*2 = 2 and integer dimensions attached: the singleton
    # shortcut once answered not_torsion_free with a witness whose module
    # report failed pairing compatibility
    z4 = cyclic_group_ring(4)
    products = {(a, b): z4.product(a, b) for a in z4.basis for b in z4.basis}
    products["2", "2"] = {"2": 1}
    dims = DimensionFunction({b: 1.0 for b in z4.basis}, "integer")
    ring = BasedRingTable(z4.basis, "0", z4.involution, products, dims=dims)
    with pytest.raises(StructuralError, match=re.escape(f"a torsion verdict requires a based ring: {_failures(ring)}")):
        is_torsion_free(ring)


def _perturbed_tables():
    """su2 level 3 and Z3 with one structure constant raised by one, every
    pair and term in turn: nonnegative tables the axiom check rejects."""
    for base in (su2_level(3), cyclic_group_ring(3)):
        for a, b, c in itertools.product(base.basis, repeat=3):
            products = {(x, y): base.product(x, y) for x in base.basis for y in base.basis}
            products[a, b] = products[a, b] + RingElement.basis(c)
            yield BasedRingTable(base.basis, base.unit, base.involution, products, dims=base.dims)


def test_every_table_the_axiom_check_fails_is_refused_by_both_entry_points():
    for ring in _perturbed_tables():
        assert not verify_based_ring(ring).ok
        for call in (lambda: enumerate_modules(ring, ModuleSearchConfig(max_basis_size=2)), lambda: is_torsion_free(ring)):
            with pytest.raises(StructuralError, match=re.escape(_failures(ring))):
                call()


def test_the_axiom_check_runs_once_per_table(monkeypatch):
    calls = []

    def counted(ring):
        calls.append(ring)
        return verify_based_ring(ring)

    monkeypatch.setattr(torsion, "verify_based_ring", counted)
    config = ModuleSearchConfig(max_basis_size=2)
    # searched, and answered by the singleton shortcut
    for make in (lambda: su2_level(3), lambda: cyclic_group_ring(3)):
        for call in (lambda ring: enumerate_modules(ring, config), is_torsion_free):
            ring = make()
            calls.clear()
            call(ring)
            call(ring)
            assert calls == [ring]


# Search nodes and the sha256 of the sorted canonical class keys at the
# dimension bound.  The class keys never depend on propagation or on the
# exact-row cut; the node counts move only when their pruning power does.
PINNED_SEARCHES = [
    ("su2_level3", lambda: su2_level(3), 15,
     "901ff75f2ec0a1ac097d93bc317d3e8b1dfafd3c219a857f20995da56b8be044"),
    ("su2_level4", lambda: su2_level(4), 23,
     "01e71a3c9502aee6f0e5bdb13ddf77e923cac1b319c1c8509bcbe8ab3345d092"),
    ("sym3", lambda: permutation_group_ring(3), 28,
     "d0c38461d3c32d36c1037f802810c4c47336c710ea915767c8b2db0c5cc101f6"),
    ("cyclic6", lambda: cyclic_group_ring(6), 10,
     "11314bf1fbb6cf3a7f5cf07316b4150f7d0b2cf5bd343247a7087c20a35d6cda"),
    ("fib_squared", lambda: tensor_product(fibonacci(), fibonacci()), 14,
     "fed0a4680173cfdc30589460e73545f166993e31fe9c56fe7c85991f56cc3a5c"),
    ("su2_level2xZ2", lambda: tensor_product(su2_level(2), cyclic_group_ring(2)), 47,
     "ad73f4fc4fb4494bf0f5a7f361a226380e0eff7919c609b5c1603d8e079f50a2"),
    ("su2_level5", lambda: su2_level(5), 28,
     "1b76480a9ffe1e3007bf0fcaf045ff02d5ca9ffa78fa20751293205fa3935c9d"),
    ("dihedral8", lambda: group_ring(*dihedral_data(4)[:2], name="dihedral8"), 48,
     "d7708374a9e56509d167e352396d79097c15a1f311521f7c30b624a2e225713d"),
    ("rank3_mult2", _multiplicity_two_ring, 18,
     "9db67209017aa8c40f0c10f18da6556e39cb55942fe86e4743c7efad0e3e7943"),
]


# Node counts of the same searches without the exact-row cut: no row is
# exact then, so row options are forward-checked by the symmetry of a
# self-dual generator alone.
NODES_WITHOUT_CUT = {
    "su2_level3": 74, "su2_level4": 287, "sym3": 74, "cyclic6": 12, "fib_squared": 348,
    "su2_level2xZ2": 2019, "su2_level5": 3728, "dihedral8": 14040, "rank3_mult2": 927,
}


def _keys_digest(classes):
    keys = sorted(canonical_key(m) for m in classes)
    return hashlib.sha256(repr(keys).encode()).hexdigest()


@pytest.mark.parametrize("make,nodes,digest", [case[1:] for case in PINNED_SEARCHES],
                         ids=[case[0] for case in PINNED_SEARCHES])
def test_search_nodes_and_classes_pinned(make, nodes, digest):
    ring = make()
    result = enumerate_modules(ring, ModuleSearchConfig(max_basis_size=dimension_bound(ring)))
    assert result.complete
    assert (result.nodes_explored, _keys_digest(result.classes)) == (nodes, digest)


@pytest.mark.parametrize("make", [case[1] for case in PINNED_SEARCHES],
                         ids=[case[0] for case in PINNED_SEARCHES])
def test_recorded_canonical_key_matches_fresh_key(make):
    ring = make()
    result = enumerate_modules(ring, ModuleSearchConfig(max_basis_size=dimension_bound(ring)))
    for table in result.classes:
        action = {(a, b): table.action_row(a, b) for a in ring.basis for b in table.basis}
        fresh = BasedModuleTable(ring, table.basis, action)
        assert not hasattr(fresh, "_canonical_key")
        assert canonical_key(fresh) == table._canonical_key


@pytest.mark.parametrize("make", [case[1] for case in PINNED_SEARCHES] + [lambda: permutation_group_ring(4)],
                         ids=[case[0] for case in PINNED_SEARCHES] + ["sym4"])
def test_reciprocity_lookup_finds_what_the_scan_finds(make, monkeypatch):
    # at every new exact row b, the exact rows of the middles whose support
    # holds b, read through row b of each middle's dual, are those that a
    # scan of every exact row of the middles finds
    holding = torsion._Searcher._holding
    looked_up = []

    def checked(searcher, exact, b):
        found = holding(searcher, exact, b)
        scan = {(y, w) for y in searcher.middles for w, row in exact.get(y, {}).items() if b in row}
        assert len(found) == len(set(found)) and set(found) == scan, b
        looked_up.extend(b in exact.get(searcher.dual_label[y], {}) for y in searcher.middles if exact.get(y))
        return found

    monkeypatch.setattr(torsion._Searcher, "_holding", checked)
    ring = make()
    assert enumerate_modules(ring, ModuleSearchConfig(max_basis_size=dimension_bound(ring))).complete
    assert any(looked_up)


def test_emitted_documents_pinned():
    # one sha256 over the module document of every class of every pinned
    # search, in class order: the search order may move node counts, never
    # a byte of what is written
    from fusionrings.documents import emit_document, module_to_document

    digest = hashlib.sha256()
    for _, make, _, _ in PINNED_SEARCHES:
        ring = make()
        for table in enumerate_modules(ring, ModuleSearchConfig(max_basis_size=dimension_bound(ring))).classes:
            digest.update(emit_document(module_to_document(table)).encode())
    assert digest.hexdigest() == "6fd7b3cf29b45edf9c6ae83b75c057ce1e04d4b02b8d897a235459b33048545f"


def _assert_closed(searcher, state):
    """One from-scratch pass over every row and column equation of ``state``
    must neither refute it nor move an interval by more than the change
    threshold ``_MOVE`` of ``_Searcher._propagate``."""
    eps, threshold = torsion._EPS, torsion._MOVE

    def check(v, lo, hi):
        cur_lo, cur_hi = state.dims[v]
        new_lo, new_hi = max(cur_lo, lo - eps), min(cur_hi, hi + eps)
        assert new_lo <= new_hi + eps, f"vertex {v} refuted"
        assert new_lo <= cur_lo + threshold and new_hi >= cur_hi - threshold, (
            f"vertex {v}: {(cur_lo, cur_hi)} narrows to {(new_lo, new_hi)}"
        )

    columns = {}
    for (gi, b), row in state.rows.items():
        d_g = searcher.d_gen[gi]
        lo_b, hi_b = state.dims[b]
        sum_lo = sum(m * state.dims[c][0] for c, m in row)
        sum_hi = sum(m * state.dims[c][1] for c, m in row)
        check(b, sum_lo / d_g, sum_hi / d_g)
        for c, m in row:
            lo_c, hi_c = state.dims[c]
            check(c, (d_g * lo_b - (sum_hi - m * hi_c)) / m, (d_g * hi_b - (sum_lo - m * lo_c)) / m)
            columns[(gi, c)] = columns.get((gi, c), 0.0) + m * lo_b
    for (gi, c), total in columns.items():
        check(c, total / searcher.d_gen[gi], math.inf)


@pytest.mark.parametrize(
    "make",
    [
        lambda: su2_level(4),
        lambda: tensor_product(su2_level(2), cyclic_group_ring(2)),
        # of the three, the only one where a risen lower bound tightens a column bound
        lambda: tensor_product(fibonacci(), fibonacci()),
    ],
    ids=["su2_level4", "su2_level2xZ2", "fib_squared"],
)
def test_propagation_reaches_the_fixpoint(make, monkeypatch):
    propagate = torsion._Searcher._propagate
    exact_rows = torsion._Searcher._exact_rows
    closed = []
    refuted = []

    def checked(searcher, state):
        if not propagate(searcher, state):
            return False
        _assert_closed(searcher, state)
        closed.append(len(state.rows))
        return True

    def counted(searcher, state):
        if exact_rows(searcher, state):
            return True
        refuted.append(len(state.rows))
        return False

    monkeypatch.setattr(torsion._Searcher, "_propagate", checked)
    monkeypatch.setattr(torsion._Searcher, "_exact_rows", counted)
    ring = make()
    result = enumerate_modules(ring, ModuleSearchConfig(max_basis_size=dimension_bound(ring)))
    assert result.complete
    # every closed state is a node, except those the exact-row cut refutes
    assert refuted
    assert len(closed) == result.nodes_explored - 1 + len(refuted)


@pytest.mark.parametrize("make", [case[1] for case in PINNED_SEARCHES],
                         ids=[case[0] for case in PINNED_SEARCHES])
def test_propagation_indices_match_the_fixed_rows(make, monkeypatch):
    # at every node, rebuilt from ``rows`` alone: a row is watched by its
    # row vertex and its participants, a column by the row vertices feeding
    # it and its own vertex, and a column lists its entries in fixing order
    dfs = torsion._Searcher._dfs
    nodes = []

    def checked(searcher, state):
        watch = [set() for _ in range(state.nvert)]
        cols = {}
        for (gi, b), row in state.rows.items():
            watch[b].add((gi, b, True))
            for c, mult in row:
                watch[c] |= {(gi, b, True), (gi, c, False)}
                watch[b].add((gi, c, False))
                cols[(gi, c)] = cols.get((gi, c), ()) + ((b, mult),)
        assert [set(keys) for keys in state.watch] == watch
        assert state.cols == cols
        nodes.append(state.nvert)
        return dfs(searcher, state)

    monkeypatch.setattr(torsion._Searcher, "_dfs", checked)
    ring = make()
    result = enumerate_modules(ring, ModuleSearchConfig(max_basis_size=dimension_bound(ring)))
    assert result.complete and len(nodes) == result.nodes_explored


@pytest.mark.parametrize("make", [case[1] for case in PINNED_SEARCHES],
                         ids=[case[0] for case in PINNED_SEARCHES])
def test_row_options_withhold_only_refuted_rows(make, monkeypatch):
    # at every node, the next cell comes with all its row options, and each
    # row that it gains when the row vertex's upper dimension bound is
    # raised by 1 is one that ``_child`` refutes at the real interval
    dfs = torsion._Searcher._dfs
    withheld = []

    def checked(searcher, state):
        cell = searcher._next_cell(state)
        if cell is not None:
            gi, b, options = cell
            assert options == list(searcher._row_options(state, gi, b))
            raised = state.clone()
            lo, hi = raised.dims[b]
            raised.dims[b] = (lo, hi + 1.0)
            more = list(searcher._row_options(raised, gi, b))
            assert all(row in more for row in options)
            for row in more:
                if row not in options:
                    assert searcher._child(state, gi, b, row) is None, (gi, b, row)
                    withheld.append(row)
        return dfs(searcher, state)

    monkeypatch.setattr(torsion._Searcher, "_dfs", checked)
    ring = make()
    result = enumerate_modules(ring, ModuleSearchConfig(max_basis_size=dimension_bound(ring)))
    assert result.complete and withheld


@pytest.mark.parametrize("name,make", [case[:2] for case in PINNED_SEARCHES],
                         ids=[case[0] for case in PINNED_SEARCHES])
def test_forward_check_withholds_only_refuted_rows(name, make, monkeypatch):
    # at every node and open cell, the options with ``state.exact`` hidden
    # hold the forward-checked options in the same order, and each row that
    # only they hold is one that ``_child`` refutes
    dfs = torsion._Searcher._dfs
    withheld = []

    def checked(searcher, state):
        hidden = state.clone()
        hidden.exact = {}
        for gi, b in itertools.product(range(searcher.kgen), range(state.nvert)):
            if (gi, b) in state.rows:
                continue
            options = list(searcher._row_options(state, gi, b))
            unchecked = list(searcher._row_options(hidden, gi, b))
            rest = iter(unchecked)
            assert all(row in rest for row in options), (gi, b)  # an in-order subsequence
            for row in unchecked:
                if row not in options:
                    assert searcher._child(state, gi, b, row) is None, (gi, b, row)
                    withheld.append(row)
        return dfs(searcher, state)

    monkeypatch.setattr(torsion._Searcher, "_dfs", checked)
    ring = make()
    result = enumerate_modules(ring, ModuleSearchConfig(max_basis_size=dimension_bound(ring)))
    assert result.complete
    # these two have only self-dual generators, whose rows turn exact only
    # when they are fixed: there the symmetry fixes what the exact rows do
    assert bool(withheld) == (name not in ("fib_squared", "rank3_mult2"))


# the pinned searches, then six of them again without the exact-row cut,
# which reaches more cells and so asks for more rows
ROW_OPTION_SEARCHES = [(case[1], True) for case in PINNED_SEARCHES] + [
    (case[1], False) for case in PINNED_SEARCHES
    if case[0] in ("su2_level3", "su2_level4", "sym3", "cyclic6", "fib_squared", "su2_level2xZ2")
]


def test_row_options_pinned(monkeypatch):
    # one sha256 over every call of ``_row_options`` in these searches: the
    # number of rows fixed so far, the cell, and all the rows it offers in
    # order, of which ``_next_cell`` may take only the first few
    row_options = torsion._Searcher._row_options
    exact_rows = torsion._Searcher._exact_rows
    calls = []

    def recorded(searcher, state, gi, b):
        options = list(row_options(searcher, state, gi, b))
        calls.append((len(state.rows), gi, b, options))
        return iter(options)

    monkeypatch.setattr(torsion._Searcher, "_row_options", recorded)
    for make, cut in ROW_OPTION_SEARCHES:
        monkeypatch.setattr(torsion._Searcher, "_exact_rows",
                            exact_rows if cut else lambda searcher, state: True)
        ring = make()
        assert enumerate_modules(ring, ModuleSearchConfig(max_basis_size=dimension_bound(ring))).complete
    digest = hashlib.sha256(repr(calls).encode()).hexdigest()
    assert digest == "d2eb20b323dc73d71120da3bb5b4858a8284af76a3b17204baeae197a8ed0fa3"


def test_deadline_is_read_between_counted_cells(monkeypatch):
    # the root of the D8 search has two open cells, (0, 0) and (1, 0); a
    # clock that passes the deadline while the first is counted stops
    # ``_next_cell`` before it counts the second
    from types import SimpleNamespace

    now, step = [0.0], 0.0
    monkeypatch.setattr(torsion, "time", SimpleNamespace(monotonic=lambda: now[0]))
    row_options = torsion._Searcher._row_options
    counted = []

    def counting(searcher, state, gi, b):
        counted.append((gi, b))
        now[0] += step
        yield from row_options(searcher, state, gi, b)

    monkeypatch.setattr(torsion._Searcher, "_row_options", counting)
    ring = group_ring(*dihedral_data(4)[:2], name="dihedral8")
    searcher = torsion._Searcher(ring, ModuleSearchConfig(max_basis_size=8, time_budget=1.0))
    assert searcher._next_cell(torsion._SearchState.root())[:2] == (0, 0)
    assert counted == [(0, 0), (1, 0)]
    counted.clear()
    step = 2.0
    with pytest.raises(torsion._Budget):
        searcher._next_cell(torsion._SearchState.root())
    assert counted == [(0, 0)]


@pytest.mark.parametrize("make", [case[1] for case in PINNED_SEARCHES],
                         ids=[case[0] for case in PINNED_SEARCHES])
def test_next_cell_counts_in_lockstep(make, monkeypatch):
    # at every node, the chosen cell has the fewest row options and is the
    # first of the fewest in vertex-major order, and no open cell gave more
    # than one option past the fewest before the choice was made
    row_options = torsion._Searcher._row_options
    next_cell = torsion._Searcher._next_cell
    drawn = {}
    choices = []

    def counted(searcher, state, gi, b):
        for row in row_options(searcher, state, gi, b):
            drawn[gi, b] = drawn.get((gi, b), 0) + 1
            yield row

    def checked(searcher, state):
        drawn.clear()
        cell = next_cell(searcher, state)
        cells = [(gi, b) for b in range(state.nvert) for gi in range(searcher.kgen) if (gi, b) not in state.rows]
        counts = {c: sum(1 for _ in row_options(searcher, state, *c)) for c in cells}
        if cell is None:
            assert not cells
        else:
            gi, b, options = cell
            fewest = min(counts.values())
            assert options == list(row_options(searcher, state, gi, b))
            assert len(options) == fewest and (gi, b) == next(c for c in cells if counts[c] == fewest)
            assert all(n <= fewest + 1 for n in drawn.values()), (drawn, fewest)
        choices.append(cell)
        return cell

    monkeypatch.setattr(torsion._Searcher, "_row_options", counted)
    monkeypatch.setattr(torsion._Searcher, "_next_cell", checked)
    ring = make()
    result = enumerate_modules(ring, ModuleSearchConfig(max_basis_size=dimension_bound(ring)))
    assert result.complete and len(choices) == result.nodes_explored


def _rows_oracle(columns, room, weight_hi):
    """The rows of ``torsion._rows`` by brute force: every entry on the
    existing columns times every non-increasing block of new-vertex
    multiplicities, kept when the weighted sum is at most ``weight_hi`` and
    the row is not empty, sorted by the existing entries ascending, then by
    the block in preorder with larger multiplicities first."""
    n = len(columns)
    entries = [fixed if fixed is not None else range(int(weight_hi / weight) + 1) for weight, fixed in columns]
    blocks = [block for k in range(room + 1) for block in itertools.product(range(1, int(weight_hi) + 1), repeat=k)
              if all(x >= y for x, y in zip(block, block[1:]))]
    found = []
    for prefix, block in itertools.product(itertools.product(*entries), blocks):
        if sum(m * weight for m, (weight, _) in zip(prefix, columns)) + sum(block) <= weight_hi:
            row = [(c, m) for c, m in enumerate(prefix) if m] + [(n + i, m) for i, m in enumerate(block)]
            if row:
                found.append(((prefix, tuple(-m for m in block)), row))
    return [row for _, row in sorted(found)]


@settings(max_examples=300, deadline=None)
@given(
    # dyadic weights keep every weighted sum exact, so the oracle's sum and
    # the generator's running sum meet the bound alike
    st.lists(st.tuples(st.sampled_from([1.0, 1.5, 2.0, 2.5, 3.0]),
                       st.one_of(st.none(), st.integers(0, 3).map(lambda m: (m,)))), max_size=3),
    st.integers(0, 3),
    st.floats(0.0, 12.0),
)
def test_rows_match_a_brute_force_oracle(columns, room, weight_hi):
    assert list(torsion._rows(columns, room, weight_hi)) == _rows_oracle(columns, room, weight_hi)


@pytest.mark.parametrize("name,make,digest", [(case[0], case[1], case[3]) for case in PINNED_SEARCHES],
                         ids=[case[0] for case in PINNED_SEARCHES])
def test_exact_row_cut_keeps_the_classes(name, make, digest, monkeypatch):
    ring = make()
    config = ModuleSearchConfig(max_basis_size=dimension_bound(ring))
    with_cut = enumerate_modules(ring, config)
    monkeypatch.setattr(torsion._Searcher, "_exact_rows", lambda searcher, state: True)
    without_cut = enumerate_modules(ring, config)
    assert without_cut.complete
    assert _keys_digest(without_cut.classes) == _keys_digest(with_cut.classes) == digest
    assert with_cut.nodes_explored <= without_cut.nodes_explored == NODES_WITHOUT_CUT[name]


def _first_open(searcher, state, cells):
    """The first open cell of ``cells`` with its row options, as ``_next_cell`` returns it."""
    cell = next(((gi, b) for gi, b in cells if (gi, b) not in state.rows), None)
    return cell and (*cell, list(searcher._row_options(state, *cell)))


def _generator_major(searcher, state):
    return _first_open(searcher, state, ((gi, b) for gi in range(searcher.kgen) for b in range(state.nvert)))


def _newest_vertex_first(searcher, state):
    return _first_open(searcher, state, ((gi, b) for b in reversed(range(state.nvert))
                                         for gi in reversed(range(searcher.kgen))))


CELL_ORDERS = pytest.mark.parametrize("order", [_generator_major, _newest_vertex_first],
                                      ids=["generator_major", "newest_vertex_first"])


@CELL_ORDERS
@pytest.mark.parametrize("name,make,digest", [(case[0], case[1], case[3]) for case in PINNED_SEARCHES],
                         ids=[case[0] for case in PINNED_SEARCHES])
def test_any_cell_order_finds_the_pinned_classes(name, make, digest, order, monkeypatch):
    # only ``_next_cell`` knows the order in which cells are filled: another
    # valid order moves the node count, never the classes
    monkeypatch.setattr(torsion._Searcher, "_next_cell", order)
    ring = make()
    result = enumerate_modules(ring, ModuleSearchConfig(max_basis_size=dimension_bound(ring)))
    assert result.complete
    assert _keys_digest(result.classes) == digest


@CELL_ORDERS
def test_each_cell_order_is_followed(order, monkeypatch):
    # each order visits another number of nodes than fail-first on some
    # pinned search, so the test above cannot pass by ignoring it
    monkeypatch.setattr(torsion._Searcher, "_next_cell", order)

    def nodes(make):
        ring = make()
        return enumerate_modules(ring, ModuleSearchConfig(max_basis_size=dimension_bound(ring))).nodes_explored

    assert any(nodes(make) != pinned for _, make, pinned, _ in PINNED_SEARCHES)


def _middle_indices(ring):
    """The label indices of the generators and their duals."""
    return {ring.index[a] for g in torsion.generating_set(ring) for a in (g, ring.involution_of(g))}


def _closure_oracle(ring, gens, state):
    """The exact rows that the fixed generator rows of ``state`` force
    through the rules the search reads, as ``{(label index, row): {column:
    entry}}``, or None when one breaks a rule.  A from-scratch fixpoint:
    seed every generator row, then sweep every fusion rule x*y = sum_c
    N_xy^c c with x not the unit and y a generator or its dual on every row
    w until a sweep adds nothing.  A rule whose row w of M_y, rows of M_x on
    its support and all term rows are known must hold as an equation; with
    one term row unknown, it is solved for that term, which must come out
    nonzero, nonnegative and divisible by the term's multiplicity.  Rows
    are checked at the end: none is zero, and each pair keeps reciprocity
    M_abar[b, c] = M_a[c, b]."""
    index = {a: i for i, a in enumerate(ring.basis)}
    unit = index[ring.unit]
    dual = [index[ring.involution_of(a)] for a in ring.basis]
    middles = _middle_indices(ring)
    rules = [(index[x], index[y], [(index[c], m) for c, m in ring.product(x, y).items()])
             for x in ring.basis for y in ring.basis if x != ring.unit and index[y] in middles]
    exact = {}

    def known(a, w):
        return {w: 1} if a == unit else exact.get((a, w))

    for (gi, b), row in state.rows.items():
        exact[(index[gens[gi]], b)] = dict(row)
    added = True
    while added:
        added = False
        for (x, y, terms), w in itertools.product(rules, range(state.nvert)):
            row_y = known(y, w)
            rows_x = None if row_y is None else [known(x, c) for c in row_y]
            if rows_x is None or None in rows_x:
                continue
            lhs = {}
            for c, m in row_y.items():
                for d, n in known(x, c).items():
                    lhs[d] = lhs.get(d, 0) + m * n
            missing = [(a, m) for a, m in terms if known(a, w) is None]
            if len(missing) > 1:
                continue
            rest = {}
            for a, m in terms:
                for d, n in (known(a, w) or {}).items():
                    rest[d] = rest.get(d, 0) + m * n
            diff = {d: lhs.get(d, 0) - rest.get(d, 0) for d in lhs.keys() | rest.keys()}
            if not missing:
                if any(diff.values()):
                    return None
                continue
            a, m = missing[0]
            if any(n < 0 or n % m for n in diff.values()) or not any(diff.values()):
                return None
            exact[(a, w)] = {d: n // m for d, n in diff.items() if n}
            added = True
    for (a, b), row in exact.items():
        if not row:
            return None
        for c in range(state.nvert):
            other = exact.get((dual[a], c))
            if other is not None and row.get(c, 0) != other.get(b, 0):
                return None
    return exact


CLOSURE_SEARCHES = [(case[0], case[1], None) for case in PINNED_SEARCHES
                    if case[0] in ("dihedral8", "rank3_mult2", "su2_level5", "fib_squared")] + [
    # multi-term middle rules, whose cells a term row can complete
    ("su2_level3_squared", lambda: tensor_product(su2_level(3), su2_level(3)), None),
    # a rule outside the middles refutes interior nodes here, so the
    # closures above the leaves differ from a fixpoint over every rule
    ("repA5_to_4", _rep_a5_ring, 4),
]


@pytest.mark.parametrize("make,size", [case[1:] for case in CLOSURE_SEARCHES], ids=[case[0] for case in CLOSURE_SEARCHES])
def test_closure_matches_a_from_scratch_fixpoint(make, size, monkeypatch):
    # at every node the search closes, two closures agree with the oracle:
    # the search's own, one row per call, and one call that closes every
    # generator row of the node at once from no exact rows, which reaches
    # many cells before they are ready.  Both give the oracle's verdict,
    # and on a kept node its exact rows, unit rows left implicit.
    exact_rows = torsion._Searcher._exact_rows
    verdicts = []

    def checked(searcher, state):
        oracle = _closure_oracle(searcher.ring, searcher.gens, state)
        fresh = torsion._SearchState(state.nvert, state.rows, state.dims, state.watch, state.cols, {})
        seeds = [(searcher.gen_label[gi], b, dict(row)) for (gi, b), row in state.rows.items()]
        verdict = exact_rows(searcher, state)
        for closed, kept in ((state, verdict), (fresh, searcher._close(fresh, seeds))):
            assert kept == (oracle is not None)
            if kept:
                rows = {(a, b): row for a, by_row in closed.exact.items() for b, row in by_row.items()}
                assert rows == oracle
        verdicts.append(verdict)
        return verdict

    monkeypatch.setattr(torsion._Searcher, "_exact_rows", checked)
    ring = make()
    assert enumerate_modules(ring, ModuleSearchConfig(max_basis_size=size or dimension_bound(ring))).complete
    # both verdicts occur
    assert True in verdicts and False in verdicts


@pytest.mark.parametrize("make", [case[1] for case in PINNED_SEARCHES],
                         ids=[case[0] for case in PINNED_SEARCHES])
def test_leaves_are_unital_and_connected(make, monkeypatch):
    # Leaf completion checks neither the unit law nor connectedness.  This
    # oracle checks both outside the search, at every leaf: no step of the
    # oracle's plan and no generator dual targets the unit (so the assembled
    # A[unit] stays the identity), the fixed generator rows alone link every
    # vertex, and every accepted leaf has the identity at the unit and a
    # connected union graph.
    complete = torsion._Searcher._complete
    leaves, accepted = [], []

    def checked(searcher, state):
        ring = searcher.ring
        targets = {step[1] for step in _oracle_plan(ring, tuple(searcher.gens))}
        targets |= {ring.involution_of(g) for g in searcher.gens}
        assert ring.unit not in targets
        rows = nx.Graph()
        rows.add_nodes_from(range(state.nvert))
        rows.add_edges_from((b, c) for (_, b), row in state.rows.items() for c, _ in row)
        assert nx.is_connected(rows)
        leaves.append(state.nvert)
        tensor = complete(searcher, state)
        if tensor is not None:
            assert np.array_equal(tensor[ring.index[ring.unit]], np.eye(state.nvert, dtype=np.int64))
            assert nx.is_connected(nx.from_numpy_array(tensor.sum(axis=0)))
            accepted.append(state.nvert)
        return tensor

    monkeypatch.setattr(torsion._Searcher, "_complete", checked)
    ring = make()
    result = enumerate_modules(ring, ModuleSearchConfig(max_basis_size=dimension_bound(ring)))
    assert result.complete and leaves and len(accepted) >= len(result.classes)


def _replayed_leaf(searcher, state):
    """Leaf completion as a numpy replay of ``_oracle_plan``, kept as an
    oracle that shares no code with ``_Searcher._close``: ``(matrices,
    None)``, or ``(None, check)`` with the first check that rejects."""
    ring = searcher.ring
    m = state.nvert
    mats = {ring.unit: np.eye(m, dtype=np.int64)}
    for gi, g in enumerate(searcher.gens):
        M = np.zeros((m, m), dtype=np.int64)
        for b in range(m):
            for c, mult in state.rows[(gi, b)]:
                M[b, c] = mult
        mats[g] = M
        mats[ring.involution_of(g)] = M.T
    for step in _oracle_plan(ring, tuple(searcher.gens)):
        if step[0] == "dual":
            _, target, source = step
            mats[target] = mats[source].T
            continue
        _, target, x, y, coeff, rest = step
        acc = mats[y] @ mats[x]
        for label, mult in rest:
            acc = acc - mult * mats[label]
        if np.any(acc % coeff) or np.any(acc < 0):
            return None, "plan"
        mats[target] = acc // coeff
    A = np.stack([mats[a] for a in ring.basis])
    inv = [ring.index[ring.involution_of(a)] for a in ring.basis]
    if not np.array_equal(A, A[inv].transpose(0, 2, 1)):
        return None, "reciprocity"
    if np.any(A.sum(axis=2) == 0):
        return None, "nonvanishing"
    # (a*b).v = a.(b.v): A[b] A[a] = sum_e T[a, b, e] A[e]
    T = ring.structure_tensor()
    if not np.array_equal(np.einsum("bvw,awx->abvx", A, A), np.einsum("abe,evx->abvx", T, A)):
        return None, "associativity"
    return mats, None


def _assert_leaf_matches_replay(searcher, state, complete=None):
    """``_close`` on the leaf and ``_complete`` each reject exactly when the
    replay rejects, associativity included, and ``_complete`` otherwise
    returns the replay's matrices stacked in basis order; returns what
    ``_complete`` returned."""
    expected, check = _replayed_leaf(searcher, state)
    closed = state.clone()
    assert searcher._close(closed, searcher._leaf_seeds(closed)) == (check is None), check
    tensor = (complete or torsion._Searcher._complete)(searcher, state)
    assert (tensor is None) == (expected is None), check
    if tensor is not None:
        assert expected.keys() == set(searcher.ring.basis)
        assert np.array_equal(tensor, np.stack([expected[a] for a in searcher.ring.basis]))
    return tensor


LEAF_SEARCHES = [(case[0], case[1], None) for case in PINNED_SEARCHES] + [
    ("cyclic12", lambda: cyclic_group_ring(12), None),
    ("sym4_to_6", lambda: permutation_group_ring(4), 6),
    ("psl27_to_3", _rep_psl27_ring, 3),
    ("repA5_to_5", _rep_a5_ring, 5),
]


@pytest.mark.parametrize("make,size", [case[1:] for case in LEAF_SEARCHES], ids=[case[0] for case in LEAF_SEARCHES])
def test_leaf_completion_matches_the_plan_replay(make, size, monkeypatch):
    complete = torsion._Searcher._complete
    leaves = []

    def checked(searcher, state):
        tensor = _assert_leaf_matches_replay(searcher, state, complete)
        leaves.append(tensor is not None)
        return tensor

    monkeypatch.setattr(torsion._Searcher, "_complete", checked)
    ring = make()
    result = enumerate_modules(ring, ModuleSearchConfig(max_basis_size=size or dimension_bound(ring)))
    assert result.complete and sum(leaves) >= len(result.classes)


def _leaf(searcher, rows):
    """A leaf state with the generator rows ``rows[gi][b]`` and no exact row."""
    m = len(rows[0])
    fixed = {(gi, b): tuple((c, n) for c, n in enumerate(row) if n) for gi, matrix in enumerate(rows)
             for b, row in enumerate(matrix)}
    return torsion._SearchState(nvert=m, rows=fixed, dims=[(1.0, 1.0)] * m, watch=[], cols={}, exact={})


def test_leaf_completion_rejects_a_zero_column_of_a_generator():
    # M_1 over Z3 with column 0 zero: the transposed M_2 has a zero row 0,
    # which the replay rejects as nonvanishing before associativity
    searcher = torsion._Searcher(cyclic_group_ring(3), ModuleSearchConfig(max_basis_size=2))
    assert searcher.gens == ["1"] and not searcher.self_dual[0]
    state = _leaf(searcher, [[[0, 1], [0, 1]]])
    assert _replayed_leaf(searcher, state)[1] == "nonvanishing"
    assert _assert_leaf_matches_replay(searcher, state) is None


def test_random_leaves_match_the_plan_replay():
    # leaves no search reaches: every generator row fixed at random and no
    # row exact yet, so the closure meets every check of the replay
    rings = [cyclic_group_ring(3), cyclic_group_ring(6), permutation_group_ring(3), su2_level(3),
             tensor_product(fibonacci(), fibonacci()), _multiplicity_two_ring(), _rep_psl27_ring(), _rep_a5_ring()]
    rng = np.random.default_rng(5)
    checks = {}
    for ring in rings:
        searcher = torsion._Searcher(ring, ModuleSearchConfig(max_basis_size=4))
        for _ in range(300):
            m = int(rng.integers(1, 5))
            rows = rng.choice(3, size=(searcher.kgen, m, m), p=[0.6, 0.3, 0.1]).tolist()
            state = _leaf(searcher, rows)
            check = _replayed_leaf(searcher, state)[1]
            checks[check] = checks.get(check, 0) + 1
            _assert_leaf_matches_replay(searcher, state)
    assert checks.keys() == {"plan", "reciprocity", "nonvanishing", "associativity", None}, checks


def test_random_rows_close_to_the_oracle_in_any_order():
    # generator rows no search offers, on at most 4 vertices, closed one
    # row per ``_close`` call in a shuffled order: whatever the order, the
    # verdict and, on a kept state, the exact rows are the oracle's
    rings = [cyclic_group_ring(3), cyclic_group_ring(6), permutation_group_ring(3), su2_level(3),
             tensor_product(fibonacci(), fibonacci()), _multiplicity_two_ring(), _rep_psl27_ring(), _rep_a5_ring()]
    rng = np.random.default_rng(11)
    verdicts = []
    for ring in rings:
        searcher = torsion._Searcher(ring, ModuleSearchConfig(max_basis_size=4))
        for _ in range(300):
            m = int(rng.integers(1, 5))
            state = _leaf(searcher, rng.choice(3, size=(searcher.kgen, m, m), p=[0.6, 0.3, 0.1]).tolist())
            oracle = _closure_oracle(ring, searcher.gens, state)
            seeds = [(searcher.gen_label[gi], b, dict(row)) for (gi, b), row in state.rows.items()]
            kept = all(searcher._close(state, [seeds[i]]) for i in rng.permutation(len(seeds)))
            assert kept == (oracle is not None)
            if kept:
                assert {(a, b): row for a, by_row in state.exact.items() for b, row in by_row.items()} == oracle
            verdicts.append(kept)
    assert 0 < sum(verdicts) < len(verdicts)


def test_perron_dimensions_are_computed_once_per_ring(monkeypatch):
    from fusionrings import spectra
    from fusionrings.documents import ring_from_document, ring_to_document

    ring = ring_from_document(ring_to_document(su2_level(5)))
    assert ring.dims is None
    radius = spectra.spectral_radius
    calls = []
    monkeypatch.setattr(spectra, "spectral_radius", lambda M: calls.append(M) or radius(M))
    assert is_torsion_free(ring).status == "not_torsion_free"
    # one call for the whole structure tensor, where each caller of
    # ring_dims once made its own and each label once had its own call
    assert [np.shape(M) for M in calls] == [(6, 6, 6)]
    assert ring.dims is None


def test_enumeration_rejects_a_structurally_broken_ring():
    # supplied dimensions skip the Perron computation and its structural
    # scan, so the search's own axiom check names the fault
    z4 = cyclic_group_ring(4)
    products = {(a, b): z4.product(a, b) for a in z4.basis for b in z4.basis}
    involution = {"0": "0", "1": "2", "2": "3", "3": "1"}
    dims = DimensionFunction({b: 1.0 for b in z4.basis}, "integer")
    ring = BasedRingTable(z4.basis, "0", involution, products, dims=dims)
    with pytest.raises(StructuralError, match="not involutive at '1'"):
        enumerate_modules(ring, ModuleSearchConfig(max_basis_size=4))


PERRON_RINGS = [case[:2] for case in PINNED_SEARCHES] + [
    (f"su2_level{level}", lambda level=level: su2_level(level)) for level in range(6, 13)
]


@pytest.mark.parametrize("make", [case[1] for case in PERRON_RINGS],
                         ids=[case[0] for case in PERRON_RINGS])
def test_harvested_classes_have_a_joint_perron_vector(make):
    # Leaf completion does not test the eigen equations M_a D = d(a) D:
    # by Frobenius-Perron they hold on every connected based module.  The
    # oracle here shares no code with the search: d(a) is the spectral
    # radius of left multiplication by a, and D the Perron vector of the
    # sum of the action matrices, unique up to scale since the module is
    # connected, so a common positive eigenvector exists only if D is one.
    ring = make()
    result = enumerate_modules(ring, ModuleSearchConfig(max_basis_size=dimension_bound(ring)))
    assert result.complete and result.classes
    T = ring.structure_tensor().astype(float)
    d = [max(abs(np.linalg.eigvals(T[a]))) for a in range(ring.size)]
    for module in result.classes:
        mats = [module.matrix(a).astype(float) for a in ring.basis]
        values, vectors = np.linalg.eig(sum(mats))
        v = np.real(vectors[:, np.argmax(np.real(values))])
        v = v / v.sum()
        assert v.min() > 0
        for a, M in enumerate(mats):
            assert np.allclose(M @ v, d[a] * v, rtol=1e-9, atol=1e-12)


def test_budget_exhaustion_flags_incomplete():
    ring = tensor_product(fibonacci(), fibonacci())
    result = enumerate_modules(
        ring, ModuleSearchConfig(max_basis_size=6, time_budget=0.0)
    )
    assert not result.complete


# -- canonical forms ----------------------------------------------------------------------------


def _relabel(module, mapping):
    ring = module.ring
    action = {}
    for alpha in ring.basis:
        for b in module.basis:
            action[(alpha, mapping[b])] = module.action_row(alpha, b).map_labels(mapping.get)
    return BasedModuleTable(ring, [mapping[b] for b in module.basis], action)


@settings(max_examples=20, deadline=None)
@given(st.permutations(["0", "1", "2", "3"]))
def test_canonical_form_invariant_under_relabeling(perm):
    ring = cyclic_group_ring(4)
    std = standard_module(ring)
    mapping = dict(zip(std.basis, [f"x{p}" for p in perm]))
    renamed = _relabel(std, mapping)
    assert canonical_key(renamed) == canonical_key(std)
    one = canonical_form(renamed)
    two = canonical_form(std)
    for alpha in ring.basis:
        assert np.array_equal(one.matrix(alpha), two.matrix(alpha))


def test_canonical_form_swapped_quotient():
    ring = cyclic_group_ring(4)
    q = quotient_module(ring, ["0", "2"])
    swapped = _relabel(q, {"0": "b", "1": "a"})
    assert canonical_key(swapped) == canonical_key(q)


def test_canonical_forms_distinguish_sizes():
    ring = cyclic_group_ring(4)
    assert canonical_key(standard_module(ring)) != canonical_key(
        quotient_module(ring, ["0", "2"])
    )


def test_canonical_form_detects_nonstandard_twist():
    fib = fibonacci()
    square = tensor_product(fib, fib)
    tw = twisted_tensor_module(fib)
    assert canonical_key(tw) != canonical_key(standard_module(square))


# -- torsion verdicts -----------------------------------------------------------------------------


def test_fibonacci_certified_with_tadpole_class():
    verdict = is_torsion_free(fibonacci())
    assert verdict.status == "torsion_free_certified"
    assert verdict.class_count == 1
    only = verdict.enumeration.classes[0]
    m = only.matrix("phi")
    assert sorted(map(tuple, m.tolist())) in (
        [(0, 1), (1, 1)],
        [(1, 1), (1, 0)],
    )


def test_group_rings_not_torsion_free():
    for ring in (cyclic_group_ring(2), cyclic_group_ring(3), permutation_group_ring(3)):
        verdict = is_torsion_free(ring)
        assert verdict.status == "not_torsion_free"
        assert verdict.witnesses


def test_trivial_ring_is_torsion_free():
    verdict = is_torsion_free(cyclic_group_ring(1))
    assert verdict.status == "torsion_free_certified"


@pytest.mark.parametrize("config,bound", [
    (ModuleSearchConfig(max_basis_size=2), 2),  # complete, below the dimension bound
    (ModuleSearchConfig(max_basis_size=10, time_budget=0), 0),  # cut before any class
])
def test_verdict_inconclusive_without_a_witness(config, bound):
    verdict = is_torsion_free(su2_level(5), config)
    assert verdict.status == "inconclusive"
    assert (verdict.certified_bound, verdict.class_count, verdict.witnesses) == (bound, 0, [])


@pytest.mark.parametrize("size,budget", [
    (2.5, None), (True, None), ("3", None), (0, None), (np.int64(0), None),
    (3, True), (3, -1.0), (3, math.nan), (3, "1"),
])
def test_search_config_rejects_bad_values(size, budget):
    with pytest.raises(ValueError):
        ModuleSearchConfig(max_basis_size=size, time_budget=budget)


@pytest.mark.parametrize("size,budget", [(1, None), (np.int64(3), 0), (3, 0.5), (3, np.float64(2.0))])
def test_search_config_accepts_integer_sizes_and_real_budgets(size, budget):
    assert ModuleSearchConfig(max_basis_size=size, time_budget=budget).max_basis_size == size


def test_su2_level3_quotient_witness():
    verdict = is_torsion_free(su2_level(3))
    assert verdict.status == "not_torsion_free"
    q = quotient_module(su2_level(3), ["0", "3"])
    assert canonical_key(q) in {canonical_key(w) for w in verdict.witnesses}


def test_integer_dim_shortcut():
    witness = integer_dim_shortcut(su2_level(1))
    assert witness is not None
    assert witness.size == 1
    assert integer_dim_shortcut(cyclic_group_ring(1)) is None
    assert integer_dim_shortcut(fibonacci()) is None


# -- tensor power coefficients -------------------------------------------------------------------


def test_chebyshev_small_values():
    assert chebyshev_coeffs(0) == [1]
    assert chebyshev_coeffs(1) == [0, 1]
    assert chebyshev_coeffs(2) == [-1, 0, 1]
    assert chebyshev_coeffs(3) == [0, -2, 0, 1]


@pytest.mark.parametrize("n", range(17))
def test_chebyshev_reexpansion_identity(n):
    ring = su2_ring()
    coeffs = chebyshev_coeffs(n)
    one = RingElement.basis("1")
    power = RingElement.basis("0")
    total = coeffs[0] * power
    for k in range(1, n + 1):
        power = fuse(ring, power, one)
        total = total + coeffs[k] * power
    assert total == RingElement.basis(str(n))


# -- unfolding and word module checks ---------------------------------------------------------------


def test_unfold_standard_word_module():
    std = standard_module(free_unitary_ring())
    for depth in range(1, 7):
        unfolded = unfold_word_module(std, depth)
        assert len(unfolded.vertices) == 2 * sum(2**k for k in range(depth + 1))
        assert all(a_infinity_check(c) for c in unfolded.components)


def test_unfold_singleton_has_two_vertices():
    from fusionrings import LazyBasedModule

    a2 = free_unitary_ring()
    point = LazyBasedModule(
        a2,
        act_fn=lambda alpha, b: RingElement.basis("pt") * max(1, int(a2.dim(alpha))),
        level_fn=lambda b: 0,
        enumerate_level_fn=lambda n: ["pt"] if n == 0 else [],
    )
    unfolded = unfold_word_module(point, 0)
    assert len(unfolded.vertices) == 2


def _planted_word_module(at, extra):
    """The standard word-ring module with ``extra`` added to the action of
    p+ on ``at``; the other rows stay standard."""
    from fusionrings import LazyBasedModule

    a2 = free_unitary_ring()
    std = standard_module(a2)

    def act(alpha, b):
        row = std.action_row(alpha, b)
        if alpha == "p+" and b == at:
            row = row + RingElement.basis(extra)
        return row

    return LazyBasedModule(a2, act, std.level, std.enumerate_level, dims=a2.dim, anchor="e")


def test_unfold_detects_planted_loop():
    # a loop at an interior vertex: its minus copy gains a third edge
    unfolded = unfold_word_module(_planted_word_module("p+", "p+"), 3)
    assert not all(a_infinity_check(c) for c in unfolded.components)


def test_word_structure_check_standard():
    std = standard_module(free_unitary_ring())
    report = word_module_structure_check(std, 5)
    assert report.ok, report.violations


def test_word_structure_depth_one_shape():
    std = standard_module(free_unitary_ring())
    report = word_module_structure_check(std, 1)
    assert report.ok
    window = std.truncate(1)
    M = window.matrix("p+")
    # around the minimal vertex: one incoming and one outgoing edge
    root = window.index["e"]
    assert M[root].sum() == 1 and M[:, root].sum() == 1


def test_word_structure_flags_planted_loop():
    report = word_module_structure_check(_planted_word_module("p+", "p+"), 3)
    assert not report.loop_free
    assert any("loop" in v for v in report.violations)


def test_word_structure_flags_planted_cycle():
    # p+ also sends p+ to p-, closing the triangle e, p+, p-
    report = word_module_structure_check(_planted_word_module("p+", "p-"), 2)
    assert not report.is_tree and report.violations == ["underlying graph is not a tree"]


@pytest.mark.parametrize(
    "dims,field,violation",
    [
        (None, "dims_increasing", "no dimension data to order the tree"),
        (lambda b: 1.0, "dims_increasing", "dimension does not increase at p+"),
        # p+ is least, so it roots the tree: e and its two children make three
        (lambda b: 0.5 if b == "p+" else free_unitary_ring().dim(b), "branching_ok",
         "vertex p+ does not branch in two"),
    ],
    ids=["no_dims", "flat_dims", "misplaced_root"],
)
def test_word_structure_flags_dimension_data(dims, field, violation):
    std = standard_module(free_unitary_ring())
    module = LazyBasedModule(std.ring, std.action_row, std.level, std.enumerate_level, dims=dims)
    report = word_module_structure_check(module, 2)
    assert not getattr(report, field) and report.violations == [violation]


# -- free product probe ------------------------------------------------------------------------------


def test_probe_standard_fib_free_square():
    ring = free_product([fibonacci(), fibonacci()])
    report = free_product_module_probe(ring, standard_module(ring), 3)
    assert report.ok
    assert report.base_vertex == "e"
    assert report.identification_ok


def test_probe_standard_z2_z3():
    ring = free_product([cyclic_group_ring(2), cyclic_group_ring(3)])
    report = free_product_module_probe(ring, standard_module(ring), 3)
    assert report.ok, report.obstructions


def test_probe_descends_to_the_unit():
    # with every dimension 1 the descent starts at the least label, 0:phi,
    # on which 0:phi does not act irreducibly, and must walk to e; without
    # dimensions it starts at the first label, e itself
    ring = free_product([fibonacci(), fibonacci()])
    expected = FreeProductProbeReport(
        vacuous=False, base_vertex="e", identification_ok=True, obstructions=[], submodules_checked=6
    )
    assert min(standard_module(ring).truncate(3).basis) == "0:phi"
    for dims in (lambda b: 1.0, None):
        module = LazyBasedModule(
            ring, ring.product, ring.level, ring.enumerate_level, dims=dims, anchor="e", contains_fn=ring.contains
        )
        report = free_product_module_probe(ring, module, 3)
        assert report == expected and report.ok


def test_probe_depth_zero_vacuous():
    ring = free_product([fibonacci(), fibonacci()])
    report = free_product_module_probe(ring, standard_module(ring), 0)
    assert report.vacuous and report.ok


def _coset_module():
    """Z2 * Z3 acting on the cosets of its order-two factor: a torsion module."""
    from fusionrings import LazyBasedModule

    ring = free_product([cyclic_group_ring(2), cyclic_group_ring(3)])
    orders = {0: 2, 1: 3}

    def parse(label):
        if label == "e":
            return ()
        return tuple(
            (int(c.split(":")[0]), int(c.split(":")[1])) for c in label.split(".")
        )

    def fmt(word):
        return ".".join(f"{f}:{p}" for f, p in word) or "e"

    def reduce(word):
        out = []
        for f, p in word:
            p %= orders[f]
            if not p:
                continue
            if out and out[-1][0] == f:
                q = (out[-1][1] + p) % orders[f]
                out.pop()
                if q:
                    out.append((f, q))
            else:
                out.append((f, p))
        return tuple(out)

    def rep(word):
        w1 = reduce(word)
        w2 = reduce(word + ((0, 1),))
        return min(fmt(w1), fmt(w2), key=lambda l: (len(parse(l)), l))

    def coset_act(alpha, b):
        return RingElement.basis(rep(reduce(parse(alpha) + parse(b))))

    def enum(n):
        reps = set()

        def gen(word, last):
            if len(word) == n:
                reps.add(rep(word))
                return
            for f in (0, 1):
                if f == last:
                    continue
                powers = (1,) if f == 0 else (1, 2)
                for p in powers:
                    gen(word + ((f, p),), f)

        gen((), None)
        return sorted(l for l in reps if len(parse(l)) == n)

    return LazyBasedModule(
        ring, coset_act, lambda b: len(parse(b)), enum,
        dims=lambda b: 2.0, anchor="e", name="cosets by the order-two factor",
    )


def test_probe_detects_torsion_coset_module():
    coset = _coset_module()
    report = free_product_module_probe(coset.ring, coset, 3)
    assert not report.ok
    assert any("factor 0" in o or "collide" in o for o in report.obstructions)


def test_probe_needs_a_free_product_of_finite_rings():
    with pytest.raises(StructuralError, match="needs a free product ring"):
        free_product_module_probe(free_unitary_ring(), standard_module(free_unitary_ring()), 2)
    ring = free_product([free_unitary_ring(), fibonacci()])
    with pytest.raises(StructuralError, match="needs finite factor tables"):
        free_product_module_probe(ring, standard_module(ring), 2)


def _planted_free_module(extra):
    """The standard module of fib * fib with ``extra`` added to the action
    of 0:phi on e; the other rows stay standard."""
    ring = free_product([fibonacci(), fibonacci()])
    std = standard_module(ring)

    def act(alpha, b):
        row = std.action_row(alpha, b)
        return row + RingElement.basis(extra) if (alpha, b) == ("0:phi", "e") else row

    return LazyBasedModule(ring, act, std.level, std.enumerate_level, dims=ring.dim, anchor="e")


@pytest.mark.parametrize(
    "extra,obstructions",
    [
        # 0:phi sends e to 2 * 0:phi, so no element of {e, 0:phi} plays the unit
        ("0:phi", ["factor 0 submodule at e is not a standard copy (size 2 vs 2)",
                   "factor 0 submodule at e admits no unit anchor"]),
        # 0:phi also sends e to level 2, and on from there past the window
        ("1:phi.0:phi", ["descent left the truncation window at e (factor 0)"]),
    ],
    ids=["no_unit_anchor", "left_the_window"],
)
def test_probe_flags_planted_descent_obstructions(extra, obstructions):
    module = _planted_free_module(extra)
    report = free_product_module_probe(module.ring, module, 2)
    assert (report.base_vertex, report.identification_ok, report.obstructions) == (None, False, obstructions)
    assert not report.ok


def test_probe_flags_a_reducible_label_at_the_base():
    # dimensions that make 1:1.0:phi least: every letter acts on it
    # irreducibly, so the descent stops there, but 0:phi.1:1 does not
    ring = free_product([fibonacci(), cyclic_group_ring(2)])
    module = LazyBasedModule(ring, ring.product, ring.level, ring.enumerate_level,
                             dims=lambda b: 0.5 if b == "1:1.0:phi" else 1.0, anchor="e", contains_fn=ring.contains)
    report = free_product_module_probe(ring, module, 2)
    assert (report.base_vertex, report.identification_ok) == ("1:1.0:phi", False)
    assert report.obstructions == ["0:phi.1:1 does not act irreducibly on 1:1.0:phi"] and not report.ok


def test_word_structure_check_takes_a_truncated_module():
    std = standard_module(free_unitary_ring())
    assert word_module_structure_check(std.truncate(3), 3) == word_module_structure_check(std, 3)


# -- tensor obstruction probe ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def fib_square_probe():
    return tensor_obstruction_probe(fibonacci(), fibonacci())


def test_tensor_probe_finds_isomorphic_subrings(fib_square_probe):
    report = fib_square_probe
    assert not report.torsion_free
    assert report.witness_reports
    for wr in report.witness_reports:
        assert wr.matched_pair == ("phi", "phi")
        assert wr.subring_left == ("1", "phi")
        assert wr.subring_right == ("1", "phi")
        assert wr.nontrivial and wr.finite and wr.isomorphic
    assert report.ok


def test_tensor_probe_trivial_factor_is_torsion_free():
    report = tensor_obstruction_probe(cyclic_group_ring(1), fibonacci())
    assert report.torsion_free
    assert report.ok


def test_tensor_probe_reports_a_witness_without_a_matched_pair():
    report = tensor_obstruction_probe(cyclic_group_ring(2), fibonacci())
    assert not report.torsion_free
    [witness_report] = report.witness_reports
    assert witness_report.matched_pair is None
    assert not witness_report.ok


def test_tensor_probe_splits_labels_that_hold_the_separator():
    # the labels of fib x fib hold "|", so a label of (fib x fib) x fib does
    # not split at its first separator
    report = tensor_obstruction_probe(tensor_product(fibonacci(), fibonacci()), fibonacci())
    assert not report.torsion_free
    matched = sorted(wr.matched_pair for wr in report.witness_reports if wr.matched_pair)
    assert matched == [("1|phi", "phi"), ("phi|1", "phi")]
    assert all(wr.isomorphic for wr in report.witness_reports if wr.matched_pair)


@pytest.mark.parametrize(
    "r1,r2",
    [
        (cyclic_group_ring(2), cyclic_group_ring(3)),
        # each of the next pairs agrees on everything the check before reads;
        # no check reads dimensions, so the product check rejects this pair,
        # whose dimensions differ because its products do
        (fibonacci(), cyclic_group_ring(2)),
        (cyclic_group_ring(4), tensor_product(cyclic_group_ring(2), cyclic_group_ring(2))),
        # some bijections keep the duality pairs, none the products
        (cyclic_group_ring(9), tensor_product(cyclic_group_ring(3), cyclic_group_ring(3))),
    ],
    ids=["size", "dimension", "involution", "product"],
)
def test_ring_isomorphism_rejects_each_mismatch(r1, r2):
    assert not torsion._ring_isomorphic(r1, r2) and not torsion._ring_isomorphic(r2, r1)
    assert torsion._ring_isomorphic(r1, r1) and torsion._ring_isomorphic(r2, r2)


# -- Verlinde module classification ------------------------------------------------

# Connected based modules over the level-N truncation are the A-D-E-T graphs
# whose Coxeter number is N+2: A_{N+1} always, T_{(N+1)/2} at odd levels,
# D_{N/2+2} at even levels >= 4, and E types only at levels 10, 16, 28.
VERLINDE_EXPECTED = {
    1: [("tadpole", 1), ("A_n", 2)],
    2: [("A_n", 3)],
    3: [("tadpole", 2), ("A_n", 4)],
    4: [("A_n", 5), ("D_n", 4)],
    5: [("tadpole", 3), ("A_n", 6)],
    6: [("A_n", 7), ("D_n", 5)],
    7: [("tadpole", 4), ("A_n", 8)],
    8: [("A_n", 9), ("D_n", 6)],
    9: [("tadpole", 5), ("A_n", 10)],
    10: [("A_n", 11), ("D_n", 7), ("E6", 6)],
    11: [("tadpole", 6), ("A_n", 12)],
    12: [("A_n", 13), ("D_n", 8)],
    16: [("A_n", 17), ("D_n", 10), ("E7", 7)],
}

# Search nodes with the exact-row cut from level 6 on (level 6 took 54,805
# nodes without it); its sign test prunes at each of these levels.
VERLINDE_NODES = {6: 38, 7: 67, 8: 77, 9: 79, 10: 123, 11: 118, 12: 128, 16: 201}


@pytest.mark.parametrize("level", sorted(VERLINDE_EXPECTED))
def test_su2_level_module_classification(level):
    from fusionrings import dynkin_classify, module_graph, symmetrize

    ring = su2_level(level)
    result = enumerate_modules(ring, ModuleSearchConfig(max_basis_size=dimension_bound(ring)))
    assert result.complete
    found = []
    for module in result.classes:
        verdict = dynkin_classify(symmetrize(module_graph(module, "1")))
        found.append((verdict.kind, module.size))
    assert sorted(found) == sorted(
        (kind, size) for kind, size in VERLINDE_EXPECTED[level]
    )
    if level in VERLINDE_NODES:
        assert result.nodes_explored == VERLINDE_NODES[level]


# -- brute-force cross-validation of the search ---------------------------------------

def _count_classes_brute(matrices_by_size):
    """Count permutation-isomorphism classes from explicit matrix lists."""
    classes = set()
    for size, matrix_list in matrices_by_size:
        for mats in matrix_list:
            best = None
            for perm in itertools.permutations(range(size)):
                idx = np.array(perm)
                key = tuple(m[np.ix_(idx, idx)].tobytes() for m in mats)
                if best is None or key < best:
                    best = key
            classes.add((size, best))
    return len(classes)


def _connected(mats, size):
    union = sum((m + m.T for m in mats), np.zeros((size, size), dtype=np.int64))
    seen, stack = {0}, [0]
    while stack:
        v = stack.pop()
        for w in np.nonzero(union[v])[0]:
            if int(w) not in seen:
                seen.add(int(w))
                stack.append(int(w))
    return len(seen) == size


def _all_matrices(size, cap):
    cells = size * size
    for values in itertools.product(range(cap + 1), repeat=cells):
        yield np.array(values, dtype=np.int64).reshape(size, size)


def test_search_matches_brute_force_fibonacci():
    # direct iteration over M(phi): symmetric, M^2 = I + M, no zero rows
    found = []
    for size in (1, 2):
        per_size = []
        for X in _all_matrices(size, 2):
            if not np.array_equal(X, X.T):
                continue
            if not np.array_equal(X @ X, np.eye(size, dtype=np.int64) + X):
                continue
            if np.any(X.sum(axis=1) == 0) or not _connected([X], size):
                continue
            per_size.append([X])
        found.append((size, per_size))
    brute = _count_classes_brute(found)
    result = enumerate_modules(fibonacci(), ModuleSearchConfig(max_basis_size=2))
    assert len(result.classes) == brute == 1


def test_search_matches_brute_force_z3():
    # M(1) with M(1) M(1)^T = I (inverse tie) and M(1)^2 = M(1)^T (1+1=2)
    found = []
    for size in (1, 2, 3):
        per_size = []
        for X in _all_matrices(size, 1):
            if not np.array_equal(X @ X.T, np.eye(size, dtype=np.int64)):
                continue
            if not np.array_equal(X @ X, X.T):
                continue
            if not _connected([X], size):
                continue
            per_size.append([X])
        found.append((size, per_size))
    brute = _count_classes_brute(found)
    result = enumerate_modules(cyclic_group_ring(3), ModuleSearchConfig(max_basis_size=3))
    assert len(result.classes) == brute == 2


def test_search_matches_brute_force_su2_level2():
    # generator X = M(1), derived M(2) = X^2 - I: the full condition list,
    # written out independently of the search machinery
    found = []
    for size in (1, 2, 3):
        per_size = []
        for X in _all_matrices(size, 2):
            if not np.array_equal(X, X.T):
                continue
            M2 = X @ X - np.eye(size, dtype=np.int64)
            if np.any(M2 < 0) or not np.array_equal(M2, M2.T):
                continue
            # 1 x 2 = 1 and 2 x 2 = 0
            if not np.array_equal(M2 @ X, X) or not np.array_equal(M2 @ M2, np.eye(size, dtype=np.int64)):
                continue
            if np.any(X.sum(axis=1) == 0) or np.any(M2.sum(axis=1) == 0):
                continue
            if not _connected([X, M2], size):
                continue
            per_size.append([X, M2])
        found.append((size, per_size))
    brute = _count_classes_brute(found)
    result = enumerate_modules(su2_level(2), ModuleSearchConfig(max_basis_size=3))
    assert len(result.classes) == brute == 1


def test_witnesses_satisfy_the_verdict_contract():
    # every witness is a verified, connected, cofinite module that is not
    # isomorphic to the standard one
    from fusionrings import is_cofinite, verify_module

    for ring in (cyclic_group_ring(2), su2_level(3), tensor_product(fibonacci(), fibonacci())):
        verdict = is_torsion_free(ring)
        assert verdict.status == "not_torsion_free"
        standard_key = canonical_key(standard_module(ring))
        assert verdict.witnesses
        for witness in verdict.witnesses:
            assert verify_module(witness).ok
            assert is_connected(witness)
            assert is_cofinite(witness).status == "cofinite"
            assert canonical_key(witness) != standard_key


def test_word_structure_flags_double_arrow():
    # p+ appears twice in p+ acting on e
    report = word_module_structure_check(_planted_word_module("e", "p+"), 2)
    assert not report.multi_edge_free
    assert any("double arrow" in v for v in report.violations)


def test_word_structure_flags_two_way_pair():
    # e -> p+ already exists
    report = word_module_structure_check(_planted_word_module("p+", "e"), 2)
    assert not report.two_way_free
    assert any("opposed" in v for v in report.violations)


# -- pinned replay outputs ---------------------------------------------------------------------
#
# The sha256 of the sorted ``repr`` lines of every output field of the
# divisibility test and the word-ring and free-product replays over the
# inputs below, dict order included.  The component and standard-copy
# matching behind them may change its code, never these lines.

DIVISIBILITY_RINGS = [
    *(cyclic_group_ring(n) for n in range(1, 7)),
    group_ring(*klein_four_data()[:2], name="klein4"),
    permutation_group_ring(3),
    group_ring(*dihedral_data(4)[:2], name="dihedral8"),
    fibonacci(),
    *(su2_level(k) for k in range(1, 6)),
    tensor_product(fibonacci(), fibonacci()),
    tensor_product(su2_level(2), cyclic_group_ring(2)),
    tensor_product(su2_level(3), cyclic_group_ring(2)),
]


def _divisibility_lines():
    for ring in DIVISIBILITY_RINGS:
        for sub in fusion_subrings(ring):
            r = is_divisible(ring, sub)
            yield repr((ring.name, r.subring, r.divisible, r.components, r.anchors, r.bijections, r.reason))


def _free_product_probe_lines():
    for factors in ([fibonacci(), fibonacci()], [cyclic_group_ring(2), cyclic_group_ring(3)],
                    [cyclic_group_ring(2), cyclic_group_ring(2)], [fibonacci(), cyclic_group_ring(2)]):
        ring = free_product(factors)
        for depth in range(4):
            yield repr((ring.name, depth, free_product_module_probe(ring, standard_module(ring), depth)))
    coset = _coset_module()
    for depth in range(1, 4):
        yield repr(("cosets", depth, free_product_module_probe(coset.ring, coset, depth)))


def _word_modules():
    yield "standard", standard_module(free_unitary_ring())
    for at, extra in (("p+", "p+"), ("e", "p+"), ("p+", "e")):
        yield f"planted {extra} at {at}", _planted_word_module(at, extra)


def _word_structure_lines():
    for name, module in _word_modules():
        for depth in range(6):
            yield repr((name, depth, word_module_structure_check(module, depth)))


def _unfold_lines():
    for name, module in _word_modules():
        for depth in range(6):
            unfolded = unfold_word_module(module, depth)
            yield repr((name, depth, [c.vertices for c in unfolded.components]))


PINNED_REPLAYS = [
    ("divisibility", _divisibility_lines,
     "7896a7fd998c4027b475f22673a787e6956b99ff730df5a4589536fc51b01472"),
    ("free_product_probe", _free_product_probe_lines,
     "2ef221c5e5f48a1ddb8542bf2688cb95c53d6b622a220bcc5cc1f1c3adac0326"),
    ("word_structure", _word_structure_lines,
     "21e9fc489d0d36eb328309246abe2a671e129567a31395e423859160c627766c"),
    ("unfold_components", _unfold_lines,
     "016870a959a94d761e054b0b94a97bf7c202b03a0cdd0a36cbdd0713402622fe"),
]


@pytest.mark.parametrize("lines,digest", [case[1:] for case in PINNED_REPLAYS],
                         ids=[case[0] for case in PINNED_REPLAYS])
def test_replay_outputs_pinned(lines, digest):
    assert hashlib.sha256(repr(sorted(lines())).encode()).hexdigest() == digest


def test_recursive_closures_leave_no_cycles():
    """A search (labelling and row generation), a free product's word
    listing and a lazy verification leave nothing to the cyclic collector:
    reference counting alone frees everything they made."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        ring = group_ring(*dihedral_data(4)[:2], name="dihedral8")
        assert enumerate_modules(ring, ModuleSearchConfig(max_basis_size=8)).complete
        product = free_product([fibonacci(), cyclic_group_ring(3)])
        for n in range(6):
            product.enumerate_level(n)
        assert verify_lazy_ring(product, 3).ok
        freed = gc.collect()
    finally:
        if enabled:
            gc.enable()
    assert freed == 0


def test_searches_leave_no_cyclic_garbage():
    # a complete search and one cut by its budget (possibly inside a
    # labelling) free everything they made by reference counting alone;
    # su2 level 28 takes over a second to its bound 182
    dihedral8 = group_ring(*dihedral_data(4)[:2], name="dihedral8")
    level28 = su2_level(28)
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        assert enumerate_modules(dihedral8, ModuleSearchConfig(max_basis_size=8)).complete
        cut = enumerate_modules(level28, ModuleSearchConfig(max_basis_size=dimension_bound(level28), time_budget=0.05))
        freed = gc.collect()
    finally:
        if enabled:
            gc.enable()
    assert not cut.complete
    assert freed == 0


def test_cut_search_certifies_no_bound():
    # a search the budget cut certifies nothing, as is_torsion_free reports
    result = enumerate_modules(su2_level(5), ModuleSearchConfig(max_basis_size=10, time_budget=0))
    assert (result.complete, result.nodes_explored, result.certified_bound) == (False, 0, 0)
