"""Spectral radii, Dynkin recognition, graph exports."""

import hashlib
import itertools
import math
import warnings

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fusionrings import (
    FusionGraph,
    a_infinity_check,
    cyclic_group_ring,
    dynkin_classify,
    export_dot,
    fibonacci,
    matrix_homomorphism_check,
    module_graph,
    module_matrix,
    quotient_module,
    ring_dims,
    schur_norm_check,
    spectral_radius,
    standard_module,
    su2_level,
    su2_ring,
    symmetrize,
    free_unitary_ring,
)
from fusionrings.spectra import _norm_class, components

from conftest import _norm_two_exact, norm_class_dense

GOLDEN = (1 + math.sqrt(5)) / 2


def path(n):
    m = np.zeros((n, n), dtype=np.int64)
    for i in range(n - 1):
        m[i, i + 1] = m[i + 1, i] = 1
    return m


def cycle(n):
    m = path(n)
    m[0, n - 1] = m[n - 1, 0] = 1
    return m


def tadpole(n):
    m = path(n)
    m[n - 1, n - 1] = 1
    return m


def star(legs):
    n = 1 + sum(legs)
    m = np.zeros((n, n), dtype=np.int64)
    idx = 1
    for leg in legs:
        prev = 0
        for _ in range(leg):
            m[prev, idx] = m[idx, prev] = 1
            prev = idx
            idx += 1
    return m


def extended_d(n):
    """n+1 vertices: a central path with two-leaf forks at both ends."""
    assert n >= 5
    inner = n - 3  # path of n-3 vertices between the forks
    m = np.zeros((n + 1, n + 1), dtype=np.int64)
    chain = list(range(2, 2 + inner))
    for a, b in zip(chain, chain[1:]):
        m[a, b] = m[b, a] = 1
    m[0, chain[0]] = m[chain[0], 0] = 1
    m[1, chain[0]] = m[chain[0], 1] = 1
    m[n - 1, chain[-1]] = m[chain[-1], n - 1] = 1
    m[n, chain[-1]] = m[chain[-1], n] = 1
    return m


def graph_of(matrix, boundary=()):
    n = matrix.shape[0]
    return FusionGraph(
        tuple(f"v{i}" for i in range(n)), matrix, directed=False, boundary=frozenset(boundary)
    )


# -- module matrices -------------------------------------------------------------------


def test_module_matrix_fibonacci_tadpole():
    std = standard_module(fibonacci())
    assert module_matrix(std, "phi").tolist() == [[0, 1], [1, 1]]
    assert module_matrix(std, "1").tolist() == [[1, 0], [0, 1]]


def test_module_matrix_quotient_swap():
    q = quotient_module(cyclic_group_ring(4), ["0", "2"])
    assert module_matrix(q, "1").tolist() == [[0, 1], [1, 0]]


def test_matrix_homomorphism_check():
    std = standard_module(fibonacci())
    assert matrix_homomorphism_check(std, "phi", "phi")
    assert matrix_homomorphism_check(std, "1", "phi")
    s3 = standard_module(__import__("fusionrings").permutation_group_ring(3))
    for a in ("102", "120"):
        for b in ("201", "012"):
            assert matrix_homomorphism_check(s3, a, b)


def test_matrix_homomorphism_fails_on_mutation():
    from fusionrings import BasedModuleTable, RingElement

    z4 = cyclic_group_ring(4)
    std = standard_module(z4)
    action = {(a, b): std.action_row(a, b) for a in z4.basis for b in std.basis}
    action[("1", "0")] = RingElement.basis("2")
    bad = BasedModuleTable(z4, std.basis, action)
    assert not matrix_homomorphism_check(bad, "1", "1")


# -- spectral radius -------------------------------------------------------------------


def test_spectral_radius_golden():
    assert spectral_radius(np.array([[0, 1], [1, 1]])) == pytest.approx(GOLDEN, abs=1e-9)


def test_spectral_radius_identity_and_zero():
    assert spectral_radius(np.eye(4, dtype=np.int64)) == pytest.approx(1.0, abs=1e-12)
    assert spectral_radius(np.zeros((3, 3), dtype=np.int64)) == pytest.approx(0.0, abs=1e-12)


def test_spectral_radius_four_cycle_is_two():
    assert spectral_radius(cycle(4)) == pytest.approx(2.0, abs=1e-9)


def test_spectral_radius_bipartite_path():
    # the value that naive Rayleigh iteration misses (it stalls at 4/3)
    assert spectral_radius(path(3)) == pytest.approx(math.sqrt(2), abs=1e-9)


@pytest.mark.parametrize("n", [2, 3, 5, 8, 13])
def test_spectral_radius_matches_eigvalsh_oracle(n):
    rng = np.random.default_rng(n)
    m = rng.integers(0, 3, size=(n, n))
    m = m + m.T  # symmetric nonnegative
    expected = float(np.max(np.abs(np.linalg.eigvalsh(m.astype(float)))))
    assert spectral_radius(m) == pytest.approx(expected, abs=1e-8)


def test_spectral_radius_nonsymmetric_is_operator_norm():
    m = np.array([[0, 2], [1, 0]])
    # singular value bound: sqrt of the top eigenvalue of M M^T
    expected = float(np.sqrt(np.max(np.linalg.eigvalsh((m @ m.T).astype(float)))))
    assert spectral_radius(m) == pytest.approx(expected, abs=1e-9)


def test_spectral_radius_exact_on_a_large_disjoint_union():
    # path(100) has a tiny spectral gap, which an iterative method converges on slowly
    m = np.zeros((104, 104), dtype=np.int64)
    m[:4, :4] = cycle(4)
    m[4:, 4:] = path(100)
    assert spectral_radius(m) == pytest.approx(2.0, abs=1e-12)


# -- Dynkin recognition ------------------------------------------------------------------


@pytest.mark.parametrize("n", range(1, 13))
def test_paths_classify_as_A(n):
    verdict = dynkin_classify(graph_of(path(n)))
    assert verdict.kind == "A_n" and verdict.size == n
    assert verdict.norm_class == "lt2"


@pytest.mark.parametrize("n", range(2, 13))
def test_cycles_classify_extended_A(n):
    verdict = dynkin_classify(graph_of(cycle(n + 1)))
    assert verdict.kind == "extended_A" and verdict.size == n
    assert verdict.norm_class == "eq2"
    assert spectral_radius(cycle(n + 1)) == pytest.approx(2.0, abs=1e-8)


def test_double_edge_is_extended_A1():
    m = np.array([[0, 2], [2, 0]])
    verdict = dynkin_classify(graph_of(m))
    assert verdict.kind == "extended_A" and verdict.size == 1
    assert spectral_radius(m) == pytest.approx(2.0, abs=1e-8)


@pytest.mark.parametrize("n", range(1, 13))
def test_tadpoles_classify(n):
    verdict = dynkin_classify(graph_of(tadpole(n)))
    assert verdict.kind == "tadpole" and verdict.size == n
    assert verdict.norm_class == "lt2"
    assert spectral_radius(tadpole(n)) < 2.0


@pytest.mark.parametrize("n", range(4, 13))
def test_D_series(n):
    legs = [1, 1, n - 3]
    verdict = dynkin_classify(graph_of(star(legs)))
    assert verdict.kind == "D_n" and verdict.size == n
    assert verdict.norm_class == "lt2"


@pytest.mark.parametrize("legs,kind", [([1, 2, 2], "E6"), ([1, 2, 3], "E7"), ([1, 2, 4], "E8")])
def test_E_series(legs, kind):
    verdict = dynkin_classify(graph_of(star(legs)))
    assert verdict.kind == kind and verdict.norm_class == "lt2"


@pytest.mark.parametrize(
    "legs,kind",
    [([2, 2, 2], "extended_E6"), ([1, 3, 3], "extended_E7"), ([1, 2, 5], "extended_E8")],
)
def test_extended_E_series(legs, kind):
    verdict = dynkin_classify(graph_of(star(legs)))
    assert verdict.kind == kind and verdict.norm_class == "eq2"
    assert spectral_radius(star(legs)) == pytest.approx(2.0, abs=1e-8)


def test_extended_D4_star():
    verdict = dynkin_classify(graph_of(star([1, 1, 1, 1])))
    assert verdict.kind == "extended_D" and verdict.size == 4
    assert spectral_radius(star([1, 1, 1, 1])) == pytest.approx(2.0, abs=1e-8)


@pytest.mark.parametrize("n", range(5, 13))
def test_extended_D_series(n):
    m = extended_d(n)
    verdict = dynkin_classify(graph_of(m))
    assert verdict.kind == "extended_D" and verdict.size == n
    assert spectral_radius(m) == pytest.approx(2.0, abs=1e-8)


def test_norm_two_loop_degenerations():
    both_ends = path(3)
    both_ends[0, 0] = both_ends[2, 2] = 1
    verdict = dynkin_classify(graph_of(both_ends))
    assert verdict.kind == "loop_norm2" and verdict.norm_class == "eq2"
    assert spectral_radius(both_ends) == pytest.approx(2.0, abs=1e-8)

    double_loop = np.array([[2]])
    verdict = dynkin_classify(graph_of(double_loop))
    assert verdict.norm_class == "eq2"

    center_loop = path(3)
    center_loop[1, 1] = 1
    verdict = dynkin_classify(graph_of(center_loop))
    assert verdict.kind == "loop_norm2"
    assert spectral_radius(center_loop) == pytest.approx(2.0, abs=1e-8)


def test_loop_norm2_sizes():
    # the size is the vertex count for the double loop and the path looped
    # at both ends, and None for every other loop-type graph of norm 2
    both_ends = path(4)
    both_ends[0, 0] = both_ends[3, 3] = 1
    center_loop = path(3)
    center_loop[1, 1] = 1
    for m, size in ((np.array([[2]]), 1), (both_ends, 4), (center_loop, None)):
        verdict = dynkin_classify(graph_of(m))
        assert (verdict.kind, verdict.size, verdict.norm_class) == ("loop_norm2", size, "eq2")


def test_supercritical_certificates():
    verdict = dynkin_classify(graph_of(star([1, 1, 1, 1, 1])))
    assert verdict.kind == "norm_exceeds_2" and verdict.norm_class == "gt2"
    assert verdict.certificate is not None
    m = star([1, 1, 1, 1, 1])
    v = np.array(verdict.certificate)
    support = v > 1e-12
    assert np.all((m @ v)[support] > 2 * v[support])

    verdict = dynkin_classify(graph_of(star([1, 2, 6])))
    assert verdict.kind == "norm_exceeds_2"


def test_supercritical_certificate_on_a_long_tree():
    # legs 1, 2 and 142 off one branch vertex: norm just above 2
    m = np.zeros((146, 146), dtype=np.int64)
    m[:145, :145] = path(145)
    m[2, 145] = m[145, 2] = 1
    verdict = dynkin_classify(graph_of(m))
    assert verdict.norm_class == "gt2"
    assert verdict.certificate is not None
    v = np.array(verdict.certificate)
    support = v > 1e-12
    assert np.all((m @ v)[support] / v[support] > 2.0)


def test_classifier_rejects_bad_input():
    with pytest.raises(ValueError):
        dynkin_classify(graph_of(np.zeros((0, 0), dtype=np.int64)))
    disconnected = np.zeros((2, 2), dtype=np.int64)
    with pytest.raises(ValueError):
        dynkin_classify(graph_of(disconnected))
    directed = FusionGraph(("a", "b"), np.array([[0, 1], [0, 0]]), directed=True)
    with pytest.raises(ValueError):
        dynkin_classify(directed)


def test_fusion_graph_rejects_non_integer_entries():
    with pytest.raises(ValueError, match="integers"):
        FusionGraph(("a", "b"), [[0, 1.5], [1.5, 0]], directed=False)
    # past int64 and NaN: a ValueError, with no warning on the way
    for entry in (2**70, float("nan")):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="integers"):
                FusionGraph(("a",), [[entry]])
    assert FusionGraph(("a", "b"), [[0, 1.0], [1.0, 0]]).matrix.dtype == np.int64


# -- A-infinity truncations ------------------------------------------------------------------


def test_a_infinity_on_truncated_half_line():
    window = standard_module(su2_ring()).truncate(10)
    graph = module_graph(window, "1")
    sym = symmetrize(graph)
    assert a_infinity_check(sym)
    verdict = dynkin_classify(sym)
    assert verdict.kind == "a_infinity"


def test_a_infinity_rejects_tadpole_and_cycle():
    assert not a_infinity_check(graph_of(tadpole(2)))
    assert not a_infinity_check(graph_of(cycle(5)))


def test_a_infinity_needs_marked_boundary():
    # a bare path with two unmarked ends is not a half-line truncation
    assert not a_infinity_check(graph_of(path(5)))
    assert a_infinity_check(graph_of(path(5), boundary=("v4",)))


def test_a_infinity_rejects_a_branch_vertex():
    # n - 1 edges and every end marked, but a vertex of degree 3
    assert not a_infinity_check(graph_of(star([1, 1, 2]), boundary=("v1", "v2", "v4")))


# -- Schur bound ---------------------------------------------------------------------------


def test_schur_on_standard_modules():
    for ring in (fibonacci(), su2_level(3)):
        std = standard_module(ring)
        dims = ring_dims(ring)
        for label in ring.basis:
            check = schur_norm_check(std, dims, label)
            assert check.ok, check.line()


def test_schur_truncated_su2_ring():
    window = standard_module(su2_ring()).truncate(12)
    check = schur_norm_check(window, window.dims, "1")
    assert check.ok
    assert check.rows_checked == 12  # all but the boundary row
    assert check.radius <= 2.0 + 1e-6


def test_schur_truncated_word_ring():
    window = standard_module(free_unitary_ring()).truncate(4)
    for label in ("p+", "p-"):
        check = schur_norm_check(window, window.dims, label)
        assert check.ok
        assert check.radius <= 2.0 + 1e-6


# -- DOT export ---------------------------------------------------------------------------------


def test_export_dot_tadpole_directed():
    std = standard_module(fibonacci())
    graph = module_graph(std, "phi")
    text = export_dot(graph)
    assert text == (
        'digraph fusion {\n'
        '  "1";\n'
        '  "phi";\n'
        '  "1" -> "phi";\n'
        '  "phi" -> "1";\n'
        '  "phi" -> "phi";\n'
        '}\n'
    )


def test_export_dot_empty_graph():
    empty = FusionGraph((), np.zeros((0, 0), dtype=np.int64), directed=False)
    assert export_dot(empty) == "graph fusion {\n}\n"


def test_export_dot_undirected_with_weights():
    q = quotient_module(cyclic_group_ring(4), ["0", "2"])
    graph = module_graph(q, "1", dims=lambda b: 2.0)
    sym = symmetrize(graph)
    text = export_dot(sym)
    assert '"0" -- "1";' in text
    assert 'd=2' in text


def test_export_dot_deterministic():
    std = standard_module(su2_level(4))
    one = export_dot(module_graph(std, "2"))
    two = export_dot(module_graph(std, "2"))
    assert one == two
    assert "\r" not in one and one.endswith("}\n")


@st.composite
def _connected_symmetric(draw):
    """Connected symmetric matrices on at most 8 vertices, entries 0-3 with
    loops and multi-edges, in any vertex order (so a leading block of the
    matrix need not be connected)."""
    n = draw(st.integers(1, 8))
    m = np.zeros((n, n), dtype=np.int64)
    cells = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(0, 3))
    for i, j, x in draw(st.lists(cells, max_size=n * (n + 1) // 2)):
        m[i, j] = m[j, i] = x
    for i in range(1, n):  # a spanning tree keeps the graph connected
        j = draw(st.integers(0, i - 1))
        m[i, j] = m[j, i] = max(m[i, j], 1)
    order = draw(st.permutations(range(n)))
    return m[np.ix_(order, order)]


@settings(max_examples=600, deadline=None)
@given(_connected_symmetric())
@example(star([1, 1, 1, 1, 1]))  # the leading 5x5 block is D~4, of norm 2
@example(star([1, 1, 1, 1])[::-1, ::-1])
@example(cycle(7)[np.ix_([0, 3, 5, 1, 6, 2, 4], [0, 3, 5, 1, 6, 2, 4])])
@example(np.array([[1, 1, 0], [1, 0, 1], [0, 1, 1]]))
@example(np.array([[0, 3], [3, 0]]))
def test_classifier_norm_class_matches_eigensolver_on_random_graphs(m):
    # the verdict agrees with the dense eigensolver, and the integer
    # elimination finds norm 2 exactly when the rational kernel oracle does
    verdict = dynkin_classify(graph_of(m))
    rho = float(np.max(np.abs(np.linalg.eigvalsh(m.astype(float)))))
    if verdict.norm_class == "lt2":
        assert rho < 2.0 + 1e-9
    elif verdict.norm_class == "eq2":
        assert abs(rho - 2.0) <= 1e-8
    else:
        assert rho > 2.0 - 1e-9
    norm_class = _norm_class(m)
    assert (norm_class == "eq2") == _norm_two_exact(m)
    if abs(rho - 2.0) > 1e-6:
        assert norm_class == ("lt2" if rho < 2.0 else "gt2")


LT2_FAMILIES = {"A_n", "D_n", "E6", "E7", "E8", "tadpole"}


@st.composite
def _sparse_connected(draw):
    """A random tree on at most 12 vertices plus up to two extra loops or
    edges of multiplicity 1 or 2 (an extra edge on a tree edge doubles it),
    in any vertex order."""
    n = draw(st.integers(1, 12))
    m = np.zeros((n, n), dtype=np.int64)
    for i in range(1, n):
        j = draw(st.integers(0, i - 1))
        m[i, j] = m[j, i] = 1
    extras = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(1, 2))
    for i, j, x in draw(st.lists(extras, max_size=2)):
        m[i, j] = m[j, i] = x
    order = draw(st.permutations(range(n)))
    return m[np.ix_(order, order)]


@settings(max_examples=600, deadline=None)
@given(_sparse_connected())
@example(star([1, 1, 5]))  # D_8
@example(star([1, 2, 2])[::-1, ::-1])
@example(star([1, 2, 3])[::-1, ::-1])
@example(star([1, 2, 4])[::-1, ::-1])
@example(tadpole(6)[::-1, ::-1])
def test_norm_below_two_is_matched_by_shape(m):
    # Goodman, de la Harpe and Jones: a connected graph of norm < 2 is A, D,
    # E or a tadpole, so whenever the elimination finds norm < 2 the shape
    # names one of them (leg lengths that name no E would raise KeyError)
    if _norm_class(m) != "lt2":
        return
    verdict = dynkin_classify(graph_of(m))
    assert verdict.kind in LT2_FAMILIES and verdict.norm_class == "lt2"


def _small_connected_graphs():
    """Every connected symmetric matrix on 1-3 vertices with entries 0-2 and
    on 4-5 vertices with entries 0-1, loops included, in a fixed order."""
    for n, top in ((1, 2), (2, 2), (3, 2), (4, 1), (5, 1)):
        cells = [(i, j) for i in range(n) for j in range(i, n)]
        for values in itertools.product(range(top + 1), repeat=len(cells)):
            if len(components(range(n), [c for c, x in zip(cells, values) if x])) != 1:
                continue
            m = np.zeros((n, n), dtype=np.int64)
            for (i, j), x in zip(cells, values):
                m[i, j] = m[j, i] = x
            yield m


# sha256 of the verdicts on _small_connected_graphs: a change to any kind,
# size, norm class or certificate presence among them changes it
SMALL_GRAPH_VERDICTS = "00d9c1d1c73d34e2769b6a7976fe31214cf1067d3bc390171e9e468dcf299d82"


def test_verdicts_pinned_on_every_small_graph():
    digest = hashlib.sha256()
    count = 0
    for m in _small_connected_graphs():
        v = dynkin_classify(graph_of(m))
        digest.update(repr((v.kind, v.size, v.norm_class, v.certificate is not None)).encode())
        count += 1
    assert count == 24465
    assert digest.hexdigest() == SMALL_GRAPH_VERDICTS


@st.composite
def _large_connected(draw):
    """A random tree on at most 60 vertices (about half the vertices hang
    within three of their predecessor, so long paths are common) plus a few
    extra loops and edges of multiplicity 1-2, in any vertex order."""
    n = draw(st.integers(1, 60))
    m = np.zeros((n, n), dtype=np.int64)
    for i in range(1, n):
        j = draw(st.integers(max(0, i - 3), i - 1)) if draw(st.booleans()) else draw(st.integers(0, i - 1))
        m[i, j] = m[j, i] = 1
    extras = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(1, 2))
    for i, j, x in draw(st.lists(extras, max_size=4)):
        m[i, j] = m[j, i] = x
    order = draw(st.permutations(range(n)))
    return m[np.ix_(order, order)]


@settings(max_examples=300, deadline=None)
@given(_large_connected())
@example(path(60))
@example(cycle(60))
@example(star([1, 2, 56]))
@example(star([1, 2, 5]))
def test_sparse_norm_class_matches_the_dense_elimination(m):
    assert _norm_class(m) == norm_class_dense(m)


def test_symmetrize_rules():
    m = np.array([[0, 2], [1, 0]])
    graph = FusionGraph(("a", "b"), m, directed=True)
    summed = symmetrize(graph)
    assert summed.matrix.tolist() == [[0, 3], [3, 0]]


def test_matrix_homomorphism_all_pairs_on_verified_modules():
    modules = [
        standard_module(fibonacci()),
        standard_module(su2_level(3)),
        quotient_module(cyclic_group_ring(4), ["0", "2"]),
    ]
    for module in modules:
        for a in module.ring.basis:
            for b in module.ring.basis:
                assert matrix_homomorphism_check(module, a, b), (module.name, a, b)


# -- the components helper against networkx ----------------------------------------------------


@st.composite
def _graphs(draw):
    label = draw(st.sampled_from([st.integers(-3, 30), st.text("abc|", max_size=3)]))
    vertices = draw(st.lists(label, unique=True, max_size=12))
    if not vertices:
        return vertices, []
    edges = draw(st.lists(st.tuples(st.sampled_from(vertices), st.sampled_from(vertices)), max_size=20))
    return vertices, edges


@settings(max_examples=300, deadline=None)
@given(_graphs())
@example(([], []))
@example((["b", "a"], []))
@example(([2, 0, 1], [(1, 1), (1, 2)]))
def test_components_match_networkx(graph):
    vertices, edges = graph
    reference = nx.Graph()
    reference.add_nodes_from(vertices)
    reference.add_edges_from(edges)  # self-loops included
    comps = components(vertices, edges)
    assert sorted(comps) == sorted(sorted(c) for c in nx.connected_components(reference))
    assert all(c == sorted(c) for c in comps)
    position = {v: i for i, v in enumerate(vertices)}
    firsts = [min(position[v] for v in c) for c in comps]
    assert firsts == sorted(firsts)



def _looped_path(n):
    m = np.zeros((n, n), dtype=np.int64)
    for i in range(n - 1):
        m[i, i + 1] = m[i + 1, i] = 1
    m[0, 0] = m[n - 1, n - 1] = 1
    return m


@pytest.mark.parametrize("matrix,text", [
    (star([1, 1, 2]), "D_5 (norm < 2)"),
    (star([1, 2, 2]), "E6 (norm < 2)"),
    (star([1, 2, 3]), "E7 (norm < 2)"),
    (star([1, 2, 4]), "E8 (norm < 2)"),
    (extended_d(5), "extended Dynkin D~5 (norm = 2)"),
    (star([2, 2, 2]), "extended Dynkin E6~ (norm = 2)"),
    (star([1, 3, 3]), "extended Dynkin E7~ (norm = 2)"),
    (star([1, 2, 5]), "extended Dynkin E8~ (norm = 2)"),
    (_looped_path(3), "loop-type norm-2 graph (norm = 2)"),
    (star([1, 1, 1, 1, 1]), "norm exceeds 2"),
], ids=["D5", "E6", "E7", "E8", "extended_D5", "extended_E6", "extended_E7", "extended_E8", "loop", "gt2"])
def test_describe_names_each_shape(matrix, text):
    assert dynkin_classify(graph_of(matrix)).describe() == text
