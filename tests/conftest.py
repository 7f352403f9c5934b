"""Shared fixtures and independent oracles for the test suite."""

import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest


def subgroups_up_to_conjugacy(elements, mul, unit) -> int:
    """Brute-force subgroup count up to conjugacy for a finite group table.

    Deliberately independent of the module enumeration machinery: subsets
    closed under multiplication are found by exhaustion, then identified
    under conjugation by every group element.
    """
    elems = list(elements)
    subgroups = []
    for r in range(1, len(elems) + 1):
        for subset in itertools.combinations(elems, r):
            sset = set(subset)
            if unit not in sset:
                continue
            if all(mul[(a, b)] in sset for a in subset for b in subset):
                subgroups.append(frozenset(sset))
    inverse = {}
    for g in elems:
        inverse[g] = next(h for h in elems if mul[(g, h)] == unit)
    classes = set()
    for H in subgroups:
        orbit = frozenset(
            frozenset(mul[(mul[(g, h)], inverse[g])] for h in H) for g in elems
        )
        classes.add(orbit)
    return len(classes)


@pytest.fixture(scope="session")
def subgroup_oracle():
    return subgroups_up_to_conjugacy


def cyclic_group_data(n):
    elems = [str(i) for i in range(n)]
    mul = {(str(a), str(b)): str((a + b) % n) for a in range(n) for b in range(n)}
    return elems, mul, "0"


def klein_four_data():
    elems = []
    mul = {}
    for a in itertools.product("01", repeat=2):
        elems.append("|".join(a))
    for a in itertools.product("01", repeat=2):
        for b in itertools.product("01", repeat=2):
            c = tuple(str((int(x) + int(y)) % 2) for x, y in zip(a, b))
            mul[("|".join(a), "|".join(b))] = "|".join(c)
    return elems, mul, "0|0"


def symmetric3_data():
    perms = sorted(itertools.permutations(range(3)))
    label = {p: "".join(map(str, p)) for p in perms}
    mul = {}
    for p in perms:
        for q in perms:
            composed = tuple(p[q[i]] for i in range(3))
            mul[(label[p], label[q])] = label[composed]
    return [label[p] for p in perms], mul, "012"


def dihedral_data(n):
    def label(i, j):
        return f"r{i}" + ("s" if j else "")

    elems = [label(i, j) for i in range(n) for j in (0, 1)]
    mul = {}
    for i1 in range(n):
        for j1 in (0, 1):
            for i2 in range(n):
                for j2 in (0, 1):
                    i = (i1 + (i2 if j1 == 0 else -i2)) % n
                    mul[(label(i1, j1), label(i2, j2))] = label(i, (j1 + j2) % 2)
    return elems, mul, "r0"


def fusion_subrings(ring) -> list[tuple[str, ...]]:
    """Every fusion subring of a finite ring, by exhaustion over basis subsets.

    Independent of the library's saturation loop: a subset qualifies when it
    holds the unit and is closed under the involution and under products.
    """
    others = [a for a in ring.basis if a != ring.unit]
    found = []
    for r in range(len(others) + 1):
        for extra in itertools.combinations(others, r):
            sset = {ring.unit, *extra}
            if all(ring.involution_of(a) in sset for a in sset) and all(
                set(ring.product(a, b).support()) <= sset for a in sset for b in sset
            ):
                found.append(tuple(sorted(sset)))
    return sorted(found)


def _color_bucket(value: float) -> int:
    return int(math.floor(value * 1e6 + 0.5))


def brute_force_canonical_data(matrices: list[np.ndarray], dims: np.ndarray):
    """Minimal (colors, stacked bytes, permutation) over color-preserving
    relabelings; vertices are pre-sorted by dimension color.

    The brute force that ``torsion._canonical_data`` once was, kept as an
    oracle for the search that replaced it: it tries every color-preserving
    permutation and keeps the first one with the least stacked bytes.
    """
    m = dims.shape[0]
    colors = [_color_bucket(v) for v in dims]
    order = sorted(range(m), key=lambda i: (colors[i], i))
    groups: list[list[int]] = []
    for i in order:
        if groups and colors[groups[-1][0]] == colors[i]:
            groups[-1].append(i)
        else:
            groups.append([i])
    best_key: bytes | None = None
    best_perm: list[int] | None = None
    for pieces in itertools.product(*(itertools.permutations(g) for g in groups)):
        perm = [i for piece in pieces for i in piece]
        idx = np.array(perm)
        key = b"".join(M[np.ix_(idx, idx)].tobytes() for M in matrices)
        if best_key is None or key < best_key:
            best_key, best_perm = key, perm
    color_key = tuple(colors[i] for i in (best_perm or []))
    return color_key, best_key or b"", best_perm or []


def color_preserving_count(dims: np.ndarray) -> int:
    """How many permutations the brute force tries for these dimensions."""
    sizes = Counter(_color_bucket(v) for v in dims)
    return math.prod(math.factorial(k) for k in sizes.values())


# The exact test at eigenvalue 2 that ``spectra`` used before its integer
# elimination, kept as an independent oracle for the eq2 class.

def _kernel_at_two(matrix: np.ndarray) -> list[Fraction] | None:
    """A nonzero rational kernel vector of (M - 2I), or None when trivial."""
    n = matrix.shape[0]
    A = [[Fraction(int(matrix[i, j])) - (2 if i == j else 0) for j in range(n)] for i in range(n)]
    # Gauss-Jordan over the rationals.
    pivots: list[int] = []
    row = 0
    for col in range(n):
        pivot = next((r for r in range(row, n) if A[r][col] != 0), None)
        if pivot is None:
            continue
        A[row], A[pivot] = A[pivot], A[row]
        scale = A[row][col]
        A[row] = [x / scale for x in A[row]]
        for r in range(n):
            if r != row and A[r][col] != 0:
                factor = A[r][col]
                A[r] = [a - factor * b for a, b in zip(A[r], A[row])]
        pivots.append(col)
        row += 1
        if row == n:
            break
    free = [c for c in range(n) if c not in pivots]
    if not free:
        return None
    # back-substitute with the first free variable set to 1
    fcol = free[0]
    vec = [Fraction(0)] * n
    vec[fcol] = Fraction(1)
    for r, col in enumerate(pivots):
        vec[col] = -A[r][fcol]
    return vec


def _norm_two_exact(matrix: np.ndarray) -> bool:
    """True iff the connected nonnegative symmetric matrix has norm exactly 2."""
    vec = _kernel_at_two(matrix)
    if vec is None:
        return False
    # For an irreducible matrix the eigenspace at the Perron value is spanned
    # by a positive vector; any other eigenvector at 2 must change sign.
    if all(x > 0 for x in vec) or all(x < 0 for x in vec):
        return True
    return False
