"""Built-in rings, products and combinators, with independent oracles."""

import functools
import hashlib
import itertools
import math

import networkx as nx
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fusionrings import (
    BasedRingTable,
    NotAFusionSubringError,
    RingElement,
    StructuralError,
    cyclic_group_ring,
    fibonacci,
    free_product,
    free_unitary_ring,
    fuse,
    group_ring,
    is_divisible,
    permutation_group_ring,
    ring_dims,
    subring_generated,
    su2_level,
    su2_ring,
    tensor_product,
    unit_coefficient,
    verify_based_ring,
    verify_lazy_ring,
)
from fusionrings.constructors import match_standard_copy

from conftest import fusion_subrings, klein_four_data, parse_word_oracle


# -- group rings ------------------------------------------------------------------


def test_group_ring_rejects_non_group():
    mul = {("e", "e"): "e", ("e", "x"): "x", ("x", "e"): "x", ("x", "x"): "x"}
    with pytest.raises(StructuralError):
        group_ring(["e", "x"], mul)


def test_trivial_group_ring():
    ring = cyclic_group_ring(1)
    assert ring.size == 1
    assert verify_based_ring(ring).ok


def test_s3_is_noncommutative_but_based():
    s3 = permutation_group_ring(3)
    assert verify_based_ring(s3).ok
    a, b = "102", "120"  # a transposition and a 3-cycle
    ab = s3.product(a, b)
    ba = s3.product(b, a)
    assert ab != ba


# -- the golden ratio ring ----------------------------------------------------------


def test_fibonacci_table():
    fib = fibonacci()
    assert verify_based_ring(fib).ok
    assert fib.left_matrix("phi").tolist() == [[0, 1], [1, 1]]
    assert ring_dims(fib)("phi") == pytest.approx((1 + math.sqrt(5)) / 2, abs=1e-9)


# -- su2 tensor ring -------------------------------------------------------------------


def test_su2_ring_rule_examples():
    a1 = su2_ring()
    assert a1.product("1", "1") == RingElement({"0": 1, "2": 1})
    assert a1.product("2", "2") == RingElement({"0": 1, "2": 1, "4": 1})
    assert a1.dim("3") == 4


def test_su2_ring_rejects_bad_labels():
    a1 = su2_ring()
    assert not a1.contains("01")
    assert not a1.contains("-1")
    assert a1.contains("10")


# -- free unitary word ring --------------------------------------------------------------


def _word_product_oracle(w, z):
    """Brute-force expansion: sum over all middle words u with w = x u and
    z = dual(u) y, checked by direct enumeration of u."""
    flip = {"+": "-", "-": "+"}

    def dual(u):
        return tuple(flip[s] for s in reversed(u))

    terms = {}
    for k in range(min(len(w), len(z)) + 1):
        for u in itertools.product("+-", repeat=k):
            if w[len(w) - k:] == u and z[:k] == dual(u):
                word = w[: len(w) - k] + z[k:]
                label = "".join("p" + s for s in word) or "e"
                terms[label] = terms.get(label, 0) + 1
    return RingElement(terms)


def test_word_products_match_oracle():
    a2 = free_unitary_ring()
    words = [()]
    for n in range(1, 7):
        words.extend(itertools.product("+-", repeat=n))
    # the shapes the depth-4 associativity check multiplies
    for w in words:
        for z in words[: 2**5 - 1]:
            label_w = "".join("p" + s for s in w) or "e"
            label_z = "".join("p" + s for s in z) or "e"
            assert a2.product(label_w, label_z) == _word_product_oracle(w, z), (w, z)


@settings(max_examples=500, deadline=None)
@given(st.text(alphabet="p+-eq*", max_size=10))
@example("")
@example("p+p-p-p+p+")
@example("p+p-p")
@example("p+e")
@example("pp+-")
def test_word_labels_match_the_parser_loop(label):
    try:
        parse_word_oracle(label)
        valid = True
    except ValueError:
        valid = False
    assert free_unitary_ring().contains(label) == valid


def test_word_level_involution_and_dim_match_tuple_formulas():
    flip = {"+": "-", "-": "+"}

    @functools.cache
    def dim(w):  # d(s w) = 2 d(w) - [w starts with the opposite of s] d(tail w)
        if len(w) < 2:
            return 1 + len(w)
        return 2 * dim(w[1:]) - (dim(w[2:]) if w[1] == flip[w[0]] else 0)

    a2 = free_unitary_ring()
    for n in range(7):
        for w in itertools.product("+-", repeat=n):
            label = "".join("p" + s for s in w) or "e"
            dual = "".join("p" + flip[s] for s in reversed(w)) or "e"
            assert a2.level(label) == n
            assert a2.involution_of(label) == dual
            assert a2.dim(label) == dim(w)


def test_word_ring_spec_values():
    a2 = free_unitary_ring()
    assert a2.product("p+", "p+") == RingElement.basis("p+p+")
    assert a2.product("p+", "p-") == RingElement({"e": 1, "p+p-": 1})
    assert a2.involution_of("p+p-") == "p+p-"
    assert a2.involution_of("p+p+") == "p-p-"
    assert a2.dim("p+p-") == 3.0
    assert a2.dim("p+p+") == 4.0


def test_word_ring_axioms_to_depth_4():
    report = verify_lazy_ring(free_unitary_ring(), 4)
    assert report.ok, report.text()


# -- Verlinde rings ------------------------------------------------------------------------


@pytest.mark.parametrize("level", range(1, 7))
def test_su2_level_axioms(level):
    assert verify_based_ring(su2_level(level)).ok


def test_su2_level_truncation_examples():
    assert su2_level(1).product("1", "1") == RingElement.basis("0")
    assert su2_level(3).product("3", "3") == RingElement.basis("0")
    assert su2_level(2).product("1", "1") == RingElement({"0": 1, "2": 1})


def test_su2_level_self_duality_invariant():
    for level in range(1, 7):
        ring = su2_level(level)
        for k in ring.basis:
            assert ring.involution_of(k) == k
            ek = RingElement.basis(k)
            assert unit_coefficient(ring, fuse(ring, ek, ek)) == 1


def test_su2_level_dims_match_fp():
    from fusionrings import frobenius_perron_dims

    for level in (2, 3, 5):
        ring = su2_level(level)
        fp = frobenius_perron_dims(ring)
        for k in ring.basis:
            assert ring.dims(k) == pytest.approx(fp(k), abs=1e-9)


# -- tensor products --------------------------------------------------------------------------


def test_tensor_product_componentwise():
    fib = fibonacci()
    square = tensor_product(fib, fib)
    assert square.product("phi|1", "phi|1") == RingElement({"1|1": 1, "phi|1": 1})
    assert square.product("1|1", "phi|phi") == RingElement.basis("phi|phi")
    dims = ring_dims(square)
    assert dims("phi|phi") == pytest.approx(2.6180339887, abs=1e-9)


def test_tensor_product_of_group_rings_is_group_ring():
    z2z2 = tensor_product(cyclic_group_ring(2), cyclic_group_ring(2))
    assert verify_based_ring(z2z2).ok
    assert ring_dims(z2z2).all_integer()


def test_tensor_product_rejects_lazy():
    with pytest.raises(StructuralError):
        tensor_product(fibonacci(), su2_ring())


# -- free products ----------------------------------------------------------------------------


def test_free_product_concatenation_and_boundary():
    fp = free_product([fibonacci(), fibonacci()])
    assert fp.product("0:phi", "1:phi") == RingElement.basis("0:phi.1:phi")
    assert fp.product("0:phi", "0:phi") == RingElement({"e": 1, "0:phi": 1})
    # collapse through the junction: g * (g h) = h in Z/2 * Z/2
    zz = free_product([cyclic_group_ring(2), cyclic_group_ring(2)])
    assert zz.product("0:1", "0:1.1:1") == RingElement.basis("1:1")


def _reduced_word_oracle(nfactors_orders, w, z):
    """Multiply reduced words in a free product of cyclic groups."""

    def reduce(word):
        out = []
        for f, p in word:
            p = p % nfactors_orders[f]
            if p == 0:
                continue
            if out and out[-1][0] == f:
                q = (out[-1][1] + p) % nfactors_orders[f]
                out.pop()
                if q:
                    out.append((f, q))
            else:
                out.append((f, p))
        return tuple(out)

    return reduce(tuple(w) + tuple(z))


def test_free_product_of_group_rings_matches_word_oracle():
    orders = (2, 3)
    ring = free_product([cyclic_group_ring(2), cyclic_group_ring(3)])

    def label(word):
        return ".".join(f"{f}:{p}" for f, p in word) or "e"

    words = [()]
    for n in (1, 2, 3):
        words.extend(
            w
            for w in itertools.product(
                [(0, 1), (1, 1), (1, 2)], repeat=n
            )
            if all(w[i][0] != w[i + 1][0] for i in range(len(w) - 1))
        )
    for w in words:
        for z in words:
            expected = RingElement.basis(label(_reduced_word_oracle(orders, w, z)))
            assert ring.product(label(w), label(z)) == expected, (w, z)


def test_free_product_axioms_depth_3():
    report = verify_lazy_ring(free_product([fibonacci(), fibonacci()]), 3)
    assert report.ok, report.text()


def test_free_product_dims_multiply_over_letters():
    fp = free_product([fibonacci(), fibonacci()])
    phi = (1 + math.sqrt(5)) / 2
    assert fp.dim("0:phi.1:phi") == pytest.approx(phi * phi, abs=1e-9)
    assert fp.dim("e") == 1.0


def test_free_product_enumerate_levels():
    fp = free_product([fibonacci(), fibonacci()])
    assert fp.enumerate_level(0) == ["e"]
    assert fp.enumerate_level(1) == ["0:phi", "1:phi"]
    assert len(fp.enumerate_level(3)) == 2


def test_free_product_with_lazy_factor_cannot_enumerate():
    fp = free_product([su2_ring(), cyclic_group_ring(2)])
    # products still work lazily
    assert fp.product("0:2", "0:2") == RingElement({"e": 1, "0:2": 1, "0:4": 1})
    with pytest.raises(StructuralError):
        fp.enumerate_level(1)


def test_free_product_reads_a_lazy_factor_dimension():
    # a word's dimension multiplies its letters' dimensions, read from the
    # lazy su2 factor's own dimension function
    fp = free_product([su2_ring(), cyclic_group_ring(2)])
    assert fp.dim("0:2.1:1") == 3.0


# sha256 over each label a of ``labels_up_to(depth)``: (a, dual, level,
# dimension), then ``product(a, b).items()`` for every label b; then the
# levels 0..depth as ``enumerate_level`` lists them
FREE_PRODUCT_TABLES = [
    ("fib*fib", lambda: [fibonacci(), fibonacci()], 4, "149e819bfa578886"),
    ("Z2*Z3", lambda: [cyclic_group_ring(2), cyclic_group_ring(3)], 4, "058cf80d6669b319"),
    ("fib*Z2*Z3", lambda: [fibonacci(), cyclic_group_ring(2), cyclic_group_ring(3)], 3, "0bc4223f86dbc53a"),
    ("su2_2*fib", lambda: [su2_level(2), fibonacci()], 3, "5971369176ea0063"),
]


@pytest.mark.parametrize("factors,depth,digest", [case[1:] for case in FREE_PRODUCT_TABLES],
                         ids=[case[0] for case in FREE_PRODUCT_TABLES])
def test_free_product_tables_pinned(factors, depth, digest):
    ring = free_product(factors())
    h = hashlib.sha256()
    labels = ring.labels_up_to(depth)
    for a in labels:
        h.update(repr((a, ring.involution_of(a), ring.level(a), ring.dim(a))).encode())
        for b in labels:
            h.update(repr(ring.product(a, b).items()).encode())
    h.update(repr([ring.enumerate_level(n) for n in range(depth + 1)]).encode())
    assert h.hexdigest()[:16] == digest


def test_free_product_names_each_word_one_way():
    # "01:1" would read as letter 1:1, and "" as the empty word; only the
    # spelling the product writes names a word
    ring = free_product([cyclic_group_ring(2), cyclic_group_ring(3)])
    for label in ("01:1", "0:1.01:1", "", "1:", "x:1", "2:1", "0:0", "0:1.0:1", "1:1."):
        assert not ring.contains(label), label
    for label in ("e", "1:1", "0:1.1:2"):
        assert ring.contains(label), label


def test_word_ring_rejects_the_empty_label():
    ring = free_unitary_ring()
    assert not ring.contains("")
    assert ring.contains("e")


# -- generated subrings --------------------------------------------------------------------------


def test_subring_generated_even_labels_of_su2_ring():
    closure = subring_generated(su2_ring(), "2", depth=6)
    assert not closure.stabilized
    assert closure.labels[:5] == ["0", "2", "4", "6", "8"]
    assert all(int(l) % 2 == 0 for l in closure.labels)


def test_subring_generated_su2_level_2():
    closure = subring_generated(su2_level(2), "2")
    assert closure.stabilized
    assert closure.labels == ["0", "2"]
    table = closure.as_table()
    assert verify_based_ring(table).ok


def test_subring_generated_whole_fibonacci():
    closure = subring_generated(fibonacci(), "phi")
    assert closure.stabilized
    assert closure.labels == ["1", "phi"]


def test_subring_condition_invariant():
    closure = subring_generated(su2_level(4), "2")
    inside = set(closure.labels)
    ring = su2_level(4)
    for a in inside:
        for b in inside:
            assert set(ring.product(a, b).support()) <= inside


# -- divisibility -----------------------------------------------------------------------------------


def test_divisible_z4():
    result = is_divisible(cyclic_group_ring(4), ["0", "2"])
    assert result.divisible
    assert result.components == [["0", "2"], ["1", "3"]]
    assert result.anchors == ["0", "1"]
    # bijections transport the right action onto the subring table
    assert result.bijections[1]["1"] == "0"
    assert result.bijections[1]["3"] == "2"


def test_not_divisible_su2_level_2():
    result = is_divisible(su2_level(2), ["0", "2"])
    assert not result.divisible
    assert "size 1" in result.reason


def test_trivial_subring_always_divides():
    for ring in (fibonacci(), su2_level(3)):
        result = is_divisible(ring, [ring.unit])
        assert result.divisible
        assert all(len(c) == 1 for c in result.components)


SMALL_RINGS = [
    *(cyclic_group_ring(n) for n in range(1, 7)),
    group_ring(*klein_four_data()[:2], name="klein4"),
    permutation_group_ring(3),
    fibonacci(),
    *(su2_level(k) for k in range(1, 6)),
    tensor_product(fibonacci(), fibonacci()),
    tensor_product(su2_level(2), cyclic_group_ring(2)),
]


def _right_module_copies(ring, sub):
    """Components of the right action of ``sub`` (by networkx) and, for each,
    whether some bijection onto ``sub`` carries it to the standard right
    module; every bijection is tried."""
    graph = nx.Graph()
    graph.add_nodes_from(ring.basis)
    graph.add_edges_from((b, c) for b in ring.basis for beta in sub for c in ring.product(b, beta).support())
    comps = sorted(sorted(c) for c in nx.connected_components(graph))
    found = [
        len(comp) == len(sub)
        and any(_is_right_isomorphism(ring, sub, dict(zip(comp, perm))) for perm in itertools.permutations(sub))
        for comp in comps
    ]
    return comps, found


def _is_right_isomorphism(ring, sub, f):
    return all(ring.product(c, beta).map_labels(f.get) == ring.product(f[c], beta) for c in f for beta in sub)


@pytest.mark.parametrize("ring", SMALL_RINGS, ids=lambda r: r.name)
def test_is_divisible_matches_brute_force_bijections(ring):
    for sub in fusion_subrings(ring):
        result = is_divisible(ring, sub)
        comps, found = _right_module_copies(ring, sub)
        assert sorted(result.components) == comps
        assert result.divisible == all(found), sub
        for anchor, f in zip(result.anchors, result.bijections):
            assert f[anchor] == ring.unit and sorted(f.values()) == list(sub)
            assert _is_right_isomorphism(ring, sub, f)


def test_match_standard_copy_checks_every_row():
    z3 = cyclic_group_ring(3)
    cycle = {"a": "b", "b": "c", "c": "a"}
    regular = {"1": cycle, "2": {v: cycle[cycle[v]] for v in cycle}}
    swaps = {"1": {"a": "b", "b": "a", "c": "c"}, "2": {"a": "c", "c": "a", "b": "b"}}
    pairs = [("1", "1"), ("2", "2")]
    for table, expected in ((regular, {"a": "0", "b": "1", "c": "2"}), (swaps, None)):
        # anchor a forces b -> 1 and c -> 2 in both tables; only the rows of b and c differ
        match = match_standard_copy(
            ["a", "b", "c"], pairs, "0", lambda label, v: RingElement.basis(table[label][v]), z3.product
        )
        assert match == expected


def test_is_divisible_rejects_non_subring():
    with pytest.raises(NotAFusionSubringError):
        is_divisible(su2_level(2), ["0", "1"])
    with pytest.raises(NotAFusionSubringError):
        is_divisible(cyclic_group_ring(4), ["1", "3"])


def test_free_product_single_factor_mirrors_the_factor():
    fp = free_product([fibonacci()])
    assert verify_lazy_ring(fp, 1).ok
    # the single-letter algebra is the factor algebra in word clothing
    assert fp.product("0:phi", "0:phi") == RingElement({"e": 1, "0:phi": 1})
    assert fp.enumerate_level(1) == ["0:phi"]
    assert fp.enumerate_level(2) == []


def test_three_factor_free_product():
    rings = [fibonacci(), cyclic_group_ring(2), cyclic_group_ring(3)]
    fp = free_product(rings)
    assert verify_lazy_ring(fp, 2).ok
    # letters from all three factors concatenate freely
    word = fp.product("0:phi", "1:1")
    assert word == RingElement.basis("0:phi.1:1")
    threaded = fp.product("0:phi.1:1", "2:1")
    assert threaded == RingElement.basis("0:phi.1:1.2:1")
    assert fp.dim("0:phi.1:1.2:1") == pytest.approx(fp.dim("0:phi"), abs=1e-9)


def test_free_product_refuses_factors_whose_letters_hold_the_word_separator():
    # a nested free product yielded 1*0:0:phi.1:phi from a product, a word
    # its own contains() rejected: the inner word split as the outer one
    with pytest.raises(StructuralError, match="word separator"):
        free_product([free_product([fibonacci(), fibonacci()]), cyclic_group_ring(2)])
    z2 = cyclic_group_ring(2)
    dotted = BasedRingTable(
        ["0", "g.1"],
        "0",
        {"0": "0", "g.1": "g.1"},
        {(a, b): RingElement.basis("0" if a == b else "g.1") for a in ("0", "g.1") for b in ("0", "g.1")},
    )
    assert verify_based_ring(dotted).ok
    with pytest.raises(StructuralError, match="word separator"):
        free_product([z2, dotted])
    # a lazy factor whose letters hold no '.' is still taken
    assert free_product([z2, su2_ring()]).contains("0:1.1:2")
