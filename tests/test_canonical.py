"""Canonical labelling against a brute-force oracle, and the inputs it
makes reachable.

``conftest.brute_force_canonical_data`` runs its own colour refinement,
tries every relabeling that keeps the refined cells and shares no code with
the search in ``torsion._canonical_data``.  Both must return the same key
bytes and permutation, and the search must compare no more complete
permutations than the brute force tries.  The automorphisms the search
records, by which it prunes, must generate the group networkx counts.  Two
keys must be equal exactly when networkx finds an isomorphism between the
stacks.
"""

import contextlib
import hashlib
import io
import os
import random
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusionrings import (
    ModuleSearchConfig,
    canonical_form,
    canonical_key,
    cyclic_group_ring,
    dimension_bound,
    enumerate_modules,
    group_ring,
    permutation_group_ring,
    standard_module,
    su2_level,
)
from fusionrings import torsion
from fusionrings.cli import main
from fusionrings.documents import emit_document, load_document, ring_to_document, write_document
from fusionrings.modules import BasedModuleTable

from conftest import (
    automorphism_count,
    brute_force_canonical_data,
    color_preserving_count,
    cyclic_group_data,
    dihedral_data,
    stacks_isomorphic,
    subgroups_up_to_conjugacy,
)


def _relabeled(matrices, perm):
    idx = np.array(perm, dtype=np.intp)
    return [M[np.ix_(idx, idx)] for M in matrices]


def _assert_matches_oracle(matrices, size):
    key, perm, leaves = torsion._canonical_data(matrices, size)
    assert (key, perm) == brute_force_canonical_data(matrices, size)
    assert leaves <= color_preserving_count(matrices, size)
    return key


# entries on both sides of 256, where little-endian byte order and numeric
# order part ways
ENTRIES = [0, 1, 2, 3, 255, 256, 257, 511]


@st.composite
def _stacks(draw, max_size=7):
    m = draw(st.integers(1, max_size))
    # few distinct entries, at least half of them zero, so colour refinement
    # leaves cells to search and in-rows tell apart what out-rows do not
    values = draw(st.lists(st.sampled_from(ENTRIES), min_size=1, max_size=3, unique=True))
    cells = st.lists(st.sampled_from([0] * len(values) + values), min_size=m * m, max_size=m * m)
    matrices = [
        np.array(draw(cells), dtype=np.int64).reshape(m, m) for _ in range(draw(st.integers(0, 3)))
    ]
    return matrices, m


@settings(max_examples=150, deadline=None)
@given(_stacks(), st.randoms(use_true_random=False))
def test_search_matches_brute_force_on_synthetic_stacks(case, rnd):
    matrices, m = case
    key = _assert_matches_oracle(matrices, m)
    perm = list(range(m))
    rnd.shuffle(perm)
    assert _assert_matches_oracle(_relabeled(matrices, perm), m) == key


def _recorded_automorphisms(matrices, m):
    """The automorphisms that ``torsion._descend`` records on a stack, each
    checked to fix it."""
    T = np.stack(matrices, axis=-1) if matrices else np.zeros((m, m, 0), dtype=np.int64)
    entry = [[tuple(e) for e in row] for row in T.tolist()]
    recorded = []
    torsion._descend(entry, None, [], [], torsion._refined_cells(entry), (None, [], 0), recorded)
    for g in recorded:
        image = np.array([g[v] for v in range(m)], dtype=np.intp)
        assert all((M[np.ix_(image, image)] == M).all() for M in matrices)
    return recorded


def _group_order(generators, m):
    """The order of the group of permutations of range(m) that the dicts
    ``generators`` generate, by closing the identity under them."""
    gens = [[g[v] for v in range(m)] for g in generators]
    group = {tuple(range(m))}
    stack = list(group)
    while stack:
        p = stack.pop()
        for g in gens:
            q = tuple(g[v] for v in p)
            if q not in group:
                group.add(q)
                stack.append(q)
    return len(group)


@settings(max_examples=150, deadline=None)
@given(_stacks())
def test_recorded_automorphisms_generate_the_group(case):
    # orbit pruning skips the branches these automorphisms map onto
    # searched ones, so they must generate every automorphism of the stack
    matrices, m = case
    assert _group_order(_recorded_automorphisms(matrices, m), m) == automorphism_count(matrices, m)


# a 4-regular graph on 9 vertices with 8 automorphisms, one refined cell:
# pruning by recorded automorphisms that move a placed vertex would give
# relabelings of it different keys
GRAPH9 = np.array(
    [[int(x) for x in row] for row in
     ["001010011", "000101101", "100001101", "010010110", "100101001",
      "011010010", "011100010", "100101100", "111010000"]],
    dtype=np.int64,
)


def test_pruning_keeps_the_key_of_every_relabeling():
    keys = set()
    for seed in range(8):
        perm = list(range(9))
        random.Random(seed).shuffle(perm)
        keys.add(torsion._canonical_data(_relabeled([GRAPH9], perm), 9)[0])
    assert len(keys) == 1
    assert _group_order(_recorded_automorphisms([GRAPH9], 9), 9) == automorphism_count([GRAPH9], 9) == 8


@st.composite
def _stack_pairs(draw):
    """Two stacks of one size: the first with the entries of each matrix
    shuffled, or the first relabeled with at most one entry changed, so
    that both outcomes are common."""
    one, m = draw(_stacks(max_size=6))
    if not one:
        return (one, m), (one, m)
    if draw(st.booleans()):
        two = [np.array(M) for M in one]
        for M in two:
            M[...] = np.array(draw(st.permutations(M.ravel().tolist()))).reshape(m, m)
    else:
        two = _relabeled(one, draw(st.permutations(range(m))))
        if draw(st.booleans()):
            k, v, w = draw(st.integers(0, len(two) - 1)), draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
            two[k][v, w] = draw(st.sampled_from(ENTRIES))
    return (one, m), (two, m)


@settings(max_examples=300, deadline=None)
@given(_stack_pairs())
def test_equal_keys_exactly_when_isomorphic(pair):
    one, two = pair
    same = torsion._canonical_data(*one)[0] == torsion._canonical_data(*two)[0]
    assert same == stacks_isomorphic(one, two)


def test_entries_compare_numerically():
    # 256 is 00 01 00 .. and 1 is 01 00 00 .. in little-endian bytes; the
    # key compares entries as numbers, and its big-endian bytes sort the same way
    A = np.array([[0, 256], [1, 0]], dtype=np.int64)
    key, perm, leaves = torsion._canonical_data([A], 2)
    assert (perm, leaves) == ([1, 0], 1)
    assert key == b"2|" + np.array([[0, 1], [256, 0]], dtype=">i8").tobytes()
    assert (key, perm) == brute_force_canonical_data([A], 2)


def _involution(m):
    """The fixed-point-free involution (0 1)(2 3)... as a matrix."""
    A = np.zeros((m, m), dtype=np.int64)
    for v in range(m):
        A[v, v ^ 1] = 1
    return A


@pytest.mark.parametrize("first", [np.eye(7, dtype=np.int64), _involution(8)], ids=["identity7", "involution8"])
def test_high_symmetry_first_generator(first):
    # a first generator with a large centralizer (7! and 2^4 * 4!
    # permutations) no longer drives the search: it completes one
    # permutation per automorphism of the whole stack
    m = first.shape[0]
    rng = np.random.default_rng(5)
    second = rng.integers(0, 2, size=(m, m)).astype(np.int64)
    matrices = [first, second]
    key, perm, leaves = torsion._canonical_data(matrices, m)
    assert (key, perm) == brute_force_canonical_data(matrices, m)
    assert leaves == automorphism_count(matrices, m)


def _shuffled(module, seed):
    """``module`` with its basis labels permuted."""
    labels = list(module.basis)
    random.Random(seed).shuffle(labels)
    name = dict(zip(module.basis, labels))
    action = {
        (a, name[b]): module.action_row(a, b).map_labels(lambda c: name[c])
        for a in module.ring.basis
        for b in module.basis
    }
    return BasedModuleTable(module.ring, sorted(labels), action)


def test_symmetric4_regular_module():
    # 24 vertices in one refinement cell; the S4 automorphisms of the
    # regular module are the 24 right translations
    ring = permutation_group_ring(4)
    module = standard_module(ring)
    start = time.process_time()
    form = canonical_form(module)
    assert time.process_time() - start < 1.0
    assert canonical_key(_shuffled(module, 4)) == form._canonical_key
    matrices = [module.matrix(g) for g in torsion.generating_set(ring)]
    # automorphism pruning completes 4 of the 24 tying permutations, and
    # the automorphisms it records still generate all 24
    assert torsion._canonical_data(matrices, module.size)[2] == 4
    recorded = _recorded_automorphisms(matrices, module.size)
    assert _group_order(recorded, module.size) == automorphism_count(matrices, module.size) == 24


def test_expired_deadline_stops_the_labelling():
    matrices = [_involution(8)]
    with pytest.raises(torsion._Budget):
        torsion._canonical_data(matrices, 8, deadline=time.monotonic() - 1.0)


HARVESTED = {
    "dihedral8": lambda: group_ring(*dihedral_data(4)[:2], name="dihedral8"),
    "cyclic6": lambda: cyclic_group_ring(6),
    "sym3": lambda: permutation_group_ring(3),
    "su2_level2": lambda: su2_level(2),
    "su2_level3": lambda: su2_level(3),
    "su2_level4": lambda: su2_level(4),
    "su2_level5": lambda: su2_level(5),
}


@pytest.mark.parametrize("make", list(HARVESTED.values()), ids=list(HARVESTED))
def test_search_matches_brute_force_on_harvested_classes(make):
    ring = make()
    gens = torsion.generating_set(ring)
    result = enumerate_modules(ring, ModuleSearchConfig(max_basis_size=dimension_bound(ring)))
    rng = random.Random(11)
    for table in result.classes:
        matrices = [table.matrix(g) for g in gens]
        perm = list(range(table.size))
        rng.shuffle(perm)
        shuffled = _assert_matches_oracle(_relabeled(matrices, perm), table.size)
        assert torsion._canonical_data(matrices, table.size)[0] == shuffled


# -- cyclic groups past the reach of the brute force --------------------------------------


def _enumerate(uri, out_dir) -> list[bytes]:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["enumerate", uri, "--out", str(out_dir)]) == 0
    return [(out_dir / name).read_bytes() for name in sorted(os.listdir(out_dir))]


@pytest.mark.parametrize("n", [9, 10, 12])
def test_enumerate_cyclic_classes_are_the_subgroups(n, tmp_path):
    docs = _enumerate(f"builtin:cyclic?n={n}", tmp_path)
    sizes = sorted(len(load_document(str(tmp_path / name))["basis"]) for name in os.listdir(tmp_path))
    # one transitive module Z_n / H of size n / |H| per subgroup H
    assert sizes == [d for d in range(1, n + 1) if n % d == 0]
    assert len(docs) == subgroups_up_to_conjugacy(*cyclic_group_data(n))


def _renamed_ring(doc, names):
    out = dict(doc, unit=names[doc["unit"]])
    out["basis"] = sorted(
        (dict(e, id=names[e["id"]], dual=names[e["dual"]]) for e in doc["basis"]), key=lambda e: e["id"]
    )
    out["products"] = sorted([names[a], names[b], names[c], k] for a, b, c, k in doc["products"])
    return out


@pytest.mark.parametrize("n", [9, 10, 12])
def test_enumerate_cyclic_documents_survive_a_shuffled_relabeling(n, tmp_path):
    """Shuffling the names of every label but the unit and the generator 1
    gives the same ring with the same generator matrix; the documents, with
    the ring labels renamed back, must be the same bytes."""
    ring_doc = ring_to_document(cyclic_group_ring(n))
    labels = [e["id"] for e in ring_doc["basis"]]
    moved = [b for b in labels if b not in ("0", "1")]
    shuffled = moved[:]
    random.Random(n).shuffle(shuffled)
    names = dict(zip(moved, shuffled), **{"0": "0", "1": "1"})
    back = {new: old for old, new in names.items()}
    for name, doc in (("plain", ring_doc), ("shuffled", _renamed_ring(ring_doc, names))):
        write_document(str(tmp_path / f"{name}.json"), doc)
        (tmp_path / name).mkdir()
    plain = _enumerate(str(tmp_path / "plain.json"), tmp_path / "plain")
    _enumerate(str(tmp_path / "shuffled.json"), tmp_path / "shuffled")
    assert sorted(os.listdir(tmp_path / "shuffled")) == sorted(os.listdir(tmp_path / "plain"))
    renamed = []
    for name in sorted(os.listdir(tmp_path / "plain")):
        doc = load_document(str(tmp_path / "shuffled" / name))
        doc["ring"] = _renamed_ring(doc["ring"], back)
        doc["action"] = sorted([back[a], b, c, k] for a, b, c, k in doc["action"])
        renamed.append(emit_document(doc).encode())
    assert renamed == plain


def test_enumerate_cyclic9_documents_pinned(tmp_path):
    # sha256 of the concatenated class documents, as the brute-force
    # labelling wrote them
    docs = _enumerate("builtin:cyclic?n=9", tmp_path)
    digest = hashlib.sha256(b"".join(docs)).hexdigest()
    assert digest == "3a6e209e09c43ea42f3d6eef29bf54dae427bc79275fc07ac90752ffb7bac3f5"


def test_enumerate_cyclic12_documents_pinned(tmp_path):
    # sha256 of the concatenated class documents, as the labelling without
    # automorphism pruning wrote them; each class Z12 / H has the
    # automorphism group Z12 / H, so pruning skips most of its branches
    docs = _enumerate("builtin:cyclic?n=12", tmp_path)
    digest = hashlib.sha256(b"".join(docs)).hexdigest()
    assert digest == "3a16cb59f1b19c2a893b485d1c6c6794f60b5f7a6f08c1bf027d04f226a55478"


def test_cyclic12_regular_module_permutations_pinned():
    # the search without pruning completes 15 permutations, 12 of them the
    # automorphisms; pruning completes 5, and the automorphisms it records
    # still generate all 12
    module = standard_module(cyclic_group_ring(12))
    matrices = [module.matrix(g) for g in torsion.generating_set(module.ring)]
    assert torsion._canonical_data(matrices, module.size)[2] == 5
    assert _group_order(_recorded_automorphisms(matrices, module.size), module.size) == 12


def _digest_stack(seed):
    """One seeded stack for the labelling digest: sparse random entries,
    permutation matrices (regular actions, large automorphism groups), or
    a random quotient pattern blown up so that whole rows tie."""
    rnd = random.Random(seed)
    kind = seed % 3
    if kind == 0:
        m = rnd.randint(1, 8)
        values = rnd.sample(ENTRIES, rnd.randint(1, 3))
        pool = [0] * len(values) + values
        matrices = [np.array([rnd.choice(pool) for _ in range(m * m)], dtype=np.int64).reshape(m, m)
                    for _ in range(rnd.randint(0, 3))]
    elif kind == 1:
        m = rnd.randint(1, 9)
        matrices = []
        for _ in range(rnd.randint(1, 3)):
            image = list(range(m))
            rnd.shuffle(image)
            matrices.append(np.eye(m, dtype=np.int64)[image])
        if rnd.random() < 0.5:
            matrices.append(sum(matrices[1:], matrices[0]))
    else:
        k = rnd.randint(1, 4)
        cls = [rnd.randrange(k) for _ in range(rnd.randint(1, 8))]
        m = len(cls)
        matrices = []
        for _ in range(rnd.randint(1, 2)):
            pattern = [[rnd.choice([0, 0, 1, 2]) for _ in range(k)] for _ in range(k)]
            matrices.append(np.array([[pattern[cls[v]][cls[w]] for w in range(m)] for v in range(m)],
                                     dtype=np.int64))
    return matrices, m


def test_canonical_labelling_digest_pinned():
    # sha256 over the refined cells, key, permutation and complete
    # permutations compared of 2,100 seeded stacks: the labelling's inner
    # loops may change how they build rows and cells, never what they return
    digest = hashlib.sha256()
    for seed in range(2100):
        matrices, m = _digest_stack(seed)
        T = np.stack(matrices, axis=-1) if matrices else np.zeros((m, m, 0), dtype=np.int64)
        entry = [[tuple(e) for e in row] for row in T.tolist()]
        cells = torsion._refined_cells(entry)
        key, perm, leaves = torsion._canonical_data(matrices, m)
        digest.update(repr((cells, key, perm, leaves)).encode())
    assert digest.hexdigest() == "155945843ac9f2b863f586601f81fccfd9950430bef0b5c428ecd52e542f8504"
