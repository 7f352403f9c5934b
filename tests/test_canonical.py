"""Canonical labelling against a brute-force oracle, and the inputs it
makes reachable.

``conftest.brute_force_canonical_data`` tries every color-preserving
permutation and shares no code with the search in
``torsion._canonical_data``.  Both must return the same color key, key
bytes and permutation, and the search must compare no more complete
permutations than the brute force tries.
"""

import contextlib
import hashlib
import io
import math
import os
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusionrings import (
    ModuleSearchConfig,
    cyclic_group_ring,
    dimension_bound,
    enumerate_modules,
    group_ring,
    permutation_group_ring,
    su2_level,
)
from fusionrings import torsion
from fusionrings.cli import main
from fusionrings.documents import emit_document, load_document, ring_to_document, write_document

from conftest import (
    brute_force_canonical_data,
    color_preserving_count,
    cyclic_group_data,
    dihedral_data,
    subgroups_up_to_conjugacy,
)


def _counted(monkeypatch) -> list:
    """Record every complete permutation the search compares."""
    seen = []
    stack_key = torsion._stack_key

    def counted(matrices, perm):
        seen.append(tuple(perm))
        return stack_key(matrices, perm)

    monkeypatch.setattr(torsion, "_stack_key", counted)
    return seen


def _relabeled(matrices, dims, perm):
    idx = np.array(perm)
    return [M[np.ix_(idx, idx)] for M in matrices], dims[idx]


def _assert_matches_oracle(matrices, dims):
    with pytest.MonkeyPatch.context() as patch:
        seen = _counted(patch)
        found = torsion._canonical_data(matrices, dims)
    assert found == brute_force_canonical_data(matrices, dims)
    assert len(seen) <= color_preserving_count(dims)
    return found


# entries on both sides of 256, where little-endian byte order and numeric
# order part ways
ENTRIES = [0, 1, 2, 3, 255, 256, 257, 511]


@st.composite
def _stacks(draw):
    m = draw(st.integers(1, 7))
    values = draw(st.lists(st.sampled_from(ENTRIES), min_size=1, max_size=4, unique=True))
    cells = st.lists(st.sampled_from(values), min_size=m * m, max_size=m * m)
    matrices = [
        np.array(draw(cells), dtype=np.int64).reshape(m, m) for _ in range(draw(st.integers(0, 3)))
    ]
    # few colors, so most vertices tie on color
    dims = np.array(draw(st.lists(st.sampled_from([1.0, 1.0, 2.0, math.sqrt(2)]), min_size=m, max_size=m)))
    return matrices, dims, draw(st.permutations(range(m)))


@settings(max_examples=150, deadline=None)
@given(_stacks())
def test_search_matches_brute_force_on_synthetic_stacks(case):
    matrices, dims, perm = case
    found = _assert_matches_oracle(matrices, dims)
    again = _assert_matches_oracle(*_relabeled(matrices, dims, perm))
    assert again[:2] == found[:2]


def test_entries_compare_in_byte_order():
    # 256 is 00 01 00 .. and 1 is 01 00 00 .. in little-endian bytes, so the
    # least key puts 256 first although 1 < 256
    A = np.array([[0, 1], [256, 0]], dtype=np.int64)
    color_key, key, perm = torsion._canonical_data([A], np.ones(2))
    assert perm == [1, 0]
    assert key == np.array([[0, 256], [1, 0]], dtype=np.int64).tobytes()
    assert (color_key, key, perm) == brute_force_canonical_data([A], np.ones(2))


def _involution(m):
    """The fixed-point-free involution (0 1)(2 3)... as a matrix."""
    A = np.zeros((m, m), dtype=np.int64)
    for v in range(m):
        A[v, v ^ 1] = 1
    return A


@pytest.mark.parametrize(
    "first, ties",
    [
        (np.eye(7, dtype=np.int64), math.factorial(7)),
        # its centralizer in S8 has 2^4 * 4! elements
        (_involution(8), 2**4 * math.factorial(4)),
    ],
    ids=["identity7", "involution8"],
)
def test_high_symmetry_first_generator(first, ties, monkeypatch):
    m = first.shape[0]
    rng = np.random.default_rng(5)
    second = rng.integers(0, 2, size=(m, m)).astype(np.int64)
    matrices, dims = [first, second], np.ones(m)
    seen = _counted(monkeypatch)
    found = torsion._canonical_data(matrices, dims)
    monkeypatch.undo()
    assert found == brute_force_canonical_data(matrices, dims)
    # the search completes each permutation once, and all of them tie on
    # the first matrix
    assert len(seen) == len(set(seen)) == ties
    assert len({_relabeled([first], dims, p)[0][0].tobytes() for p in seen}) == 1


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
    gens, _ = torsion.generating_set(ring)
    result = enumerate_modules(ring, ModuleSearchConfig(max_basis_size=dimension_bound(ring)))
    rng = random.Random(11)
    for table in result.classes:
        matrices = [table.matrix(g) for g in gens]
        dims = torsion._joint_perron(matrices, table.size)
        perm = list(range(table.size))
        rng.shuffle(perm)
        shuffled = _assert_matches_oracle(*_relabeled(matrices, dims, perm))
        assert torsion._canonical_data(matrices, dims)[:2] == shuffled[:2]


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
