"""Shared fixtures and independent oracles for the test suite."""

import itertools
import math
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


def subgroup_indices_two_generated(elements, mul, unit) -> list[int]:
    """Sorted indices of the subgroups generated by at most two elements,
    one per conjugacy class: every subgroup's when each is 2-generated.

    Closes each pair of elements under multiplication instead of trying
    every subset, so it reaches groups that ``subgroups_up_to_conjugacy``
    cannot, such as S4.
    """
    elems = list(elements)
    inverse = {g: next(h for h in elems if mul[(g, h)] == unit) for g in elems}
    classes = set()
    for a in elems:
        for b in elems:
            H = {unit}
            queue = [unit]
            while queue:
                h = queue.pop()
                for k in (mul[(h, a)], mul[(h, b)]):
                    if k not in H:
                        H.add(k)
                        queue.append(k)
            classes.add(frozenset(frozenset(mul[(mul[(g, h)], inverse[g])] for h in H) for g in elems))
    return sorted(len(elems) // len(next(iter(orbit))) for orbit in classes)


def elementary_abelian2_data(rank):
    elems = ["|".join(a) for a in itertools.product("01", repeat=rank)]
    mul = {}
    for a in itertools.product("01", repeat=rank):
        for b in itertools.product("01", repeat=rank):
            c = tuple(str((int(x) + int(y)) % 2) for x, y in zip(a, b))
            mul[("|".join(a), "|".join(b))] = "|".join(c)
    return elems, mul, "|".join("0" * rank)


def klein_four_data():
    return elementary_abelian2_data(2)


def symmetric_data(n):
    perms = sorted(itertools.permutations(range(n)))
    label = {p: "".join(map(str, p)) for p in perms}
    mul = {}
    for p in perms:
        for q in perms:
            composed = tuple(p[q[i]] for i in range(n))
            mul[(label[p], label[q])] = label[composed]
    return [label[p] for p in perms], mul, label[tuple(range(n))]


def symmetric3_data():
    return symmetric_data(3)


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


def parse_word_oracle(label: str) -> tuple[str, ...]:
    """The word ring's label parser as a letter-by-letter loop: the tuple of
    signs of ``label``, or ValueError when it is no word label.  Only ``e``
    names the empty word; the empty string is no label."""
    if label == "e":
        return ()
    if not label:
        raise ValueError("the empty string is no word label")
    letters = []
    i = 0
    while i < len(label):
        if label[i] != "p" or i + 1 >= len(label) or label[i + 1] not in "+-":
            raise ValueError(f"bad word label {label!r}")
        letters.append(label[i + 1])
        i += 2
    return tuple(letters)


def _entry_tuples(matrices: list[np.ndarray], size: int) -> dict:
    """(v, w) -> the tuple of every matrix's entry there, as Python ints."""
    return {
        (v, w): tuple(int(M[v][w]) for M in matrices) for v in range(size) for w in range(size)
    }


def refinement_cells(matrices: list[np.ndarray], size: int) -> list[list[int]]:
    """Colour classes of 1-dimensional Weisfeiler-Leman refinement on the
    digraph whose edges carry the entry tuples, in the order of their
    signatures.

    Written apart from ``torsion``: a vertex starts with its diagonal tuple
    as colour; a round gives it the triple (colour index, sorted
    (out-entry, colour index) pairs, sorted (in-entry, colour index) pairs),
    and a colour's index is its position in the sorted list of colours.
    Rounds go on while the number of colours grows.
    """
    e = _entry_tuples(matrices, size)
    colors = [e[v, v] for v in range(size)]
    while True:
        palette = sorted(set(colors))
        index = [palette.index(c) for c in colors]
        out_pairs = [tuple(sorted((e[v, w], index[w]) for w in range(size))) for v in range(size)]
        in_pairs = [tuple(sorted((e[w, v], index[w]) for w in range(size))) for v in range(size)]
        refined = [(index[v], out_pairs[v], in_pairs[v]) for v in range(size)]
        if len(set(refined)) == len(palette):
            break
        colors = refined
    return [[v for v in range(size) if index[v] == k] for k in range(len(palette))]


def brute_force_canonical_data(matrices: list[np.ndarray], size: int):
    """(key, permutation): the least tuple rows over every cell-preserving
    relabeling, by exhaustion.

    Entry (v, w) is the tuple of the matrices' entries; positions are
    filled cell by cell, in the order of ``refinement_cells``.  Relabelings
    are tried in lexicographic order and the first with the least rows is
    kept.  The key is the size, ``|`` and every entry of those rows as
    8-byte big-endian signed integers.
    """
    e = _entry_tuples(matrices, size)
    cells = refinement_cells(matrices, size)
    best_rows, best_perm = None, []
    for pieces in itertools.product(*(itertools.permutations(cell) for cell in cells)):
        perm = [v for piece in pieces for v in piece]
        rows = [[e[v, w] for w in perm] for v in perm]
        if best_rows is None or rows < best_rows:
            best_rows, best_perm = rows, perm
    body = b"".join(
        x.to_bytes(8, "big", signed=True) for row in best_rows or [] for entry in row for x in entry
    )
    return f"{size}|".encode() + body, best_perm


def color_preserving_count(matrices: list[np.ndarray], size: int) -> int:
    """How many relabelings the brute force tries: those keeping every
    refinement cell."""
    return math.prod(math.factorial(len(cell)) for cell in refinement_cells(matrices, size))


def tuple_digraph(matrices: list[np.ndarray], size: int):
    """The networkx DiGraph of a stack: node v carries its diagonal tuple,
    and an edge v -> w (v != w) its nonzero entry tuple."""
    import networkx as nx

    e = _entry_tuples(matrices, size)
    zero = (0,) * len(matrices)
    G = nx.DiGraph()
    for v in range(size):
        G.add_node(v, loop=e[v, v])
    G.add_edges_from((v, w, {"entry": e[v, w]}) for (v, w) in e if v != w and e[v, w] != zero)
    return G


def _stack_matcher(one, two):
    from networkx.algorithms.isomorphism import DiGraphMatcher

    return DiGraphMatcher(
        one, two, node_match=lambda a, b: a["loop"] == b["loop"], edge_match=lambda a, b: a["entry"] == b["entry"]
    )


def stacks_isomorphic(one: tuple, two: tuple) -> bool:
    """Whether two (matrices, size) stacks differ by a relabeling, by networkx."""
    return _stack_matcher(tuple_digraph(*one), tuple_digraph(*two)).is_isomorphic()


def automorphism_count(matrices: list[np.ndarray], size: int) -> int:
    """The number of relabelings that fix the stack, by networkx."""
    G = tuple_digraph(matrices, size)
    return sum(1 for _ in _stack_matcher(G, G).isomorphisms_iter())


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


# The dense fraction-free elimination that ``spectra._norm_class`` ran
# before it kept its rows sparse, kept as a reference for the sparse one.

def norm_class_dense(m: np.ndarray) -> str:
    """``lt2``, ``eq2`` or ``gt2`` for a connected nonnegative symmetric
    integer matrix: Bareiss elimination of 2I - M on dense Python-int rows."""
    n = m.shape[0]
    a = [[(2 if i == j else 0) - x for j, x in enumerate(row)] for i, row in enumerate(m.tolist())]
    prev = 1
    for k in range(n - 1):
        pivot = a[k][k]
        if pivot <= 0:
            return "gt2"
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (pivot * a[i][j] - a[i][k] * a[k][j]) // prev
        prev = pivot
    det = a[n - 1][n - 1]
    return "lt2" if det > 0 else "eq2" if det == 0 else "gt2"


# Exact rational span, independent of ``rings``, for the middle labels of
# the associativity check.

def _reduced(pivots: dict, vector: dict) -> dict:
    """``vector`` (index -> Fraction, no zeros) minus its part in the span of
    the rows ``pivots`` (pivot index -> row with 1 there), in the order they
    were added: each row is zero at the pivots added before it."""
    vector = dict(vector)
    for col in pivots:
        coeff = vector.get(col)
        if coeff:
            for j, x in pivots[col].items():
                vector[j] = vector.get(j, 0) - coeff * x
            vector = {j: x for j, x in vector.items() if x}
    return vector


def exact_rank(vectors) -> int:
    """Rank over Q of integer vectors given as sequences, by Fraction elimination."""
    pivots: dict = {}
    for vector in vectors:
        rest = _reduced(pivots, {j: Fraction(x) for j, x in enumerate(vector) if x})
        if rest:
            col = min(rest)
            pivots[col] = {j: x / rest[col] for j, x in rest.items()}
    return len(pivots)


def left_closure_vectors(T: list, middles: list[int]) -> list[list[int]]:
    """A basis of the Q-span of the basis vectors of ``middles`` closed under
    left multiplication by them, as integer vectors; ``T[a][b][c]`` is the
    coefficient of c in a*b, as nested lists of Python ints."""
    n = len(T)
    kept: list[list[int]] = []
    pivots: dict = {}
    queue = [[int(i == s) for i in range(n)] for s in middles]
    while queue:
        vector = queue.pop()
        rest = _reduced(pivots, {j: Fraction(x) for j, x in enumerate(vector) if x})
        if not rest:
            continue
        col = min(rest)
        pivots[col] = {j: x / rest[col] for j, x in rest.items()}
        kept.append(vector)
        for s in middles:
            queue.append([sum(vector[b] * T[s][b][c] for b in range(n) if vector[b]) for c in range(n)])
    return kept


def _product_faults(table) -> list[str]:
    """The first faulty product pair of a ring table in row-major order, by
    a plain loop over its stored products."""
    basis = set(table.basis)
    for a in table.basis:
        for b in table.basis:
            elem = table._products.get((a, b))
            if elem is None:
                return [f"missing product entry ({a!r}, {b!r})"]
            if not elem.is_zero and not elem.is_nonnegative():
                return [f"negative structure constant in {a!r}*{b!r}"]
            outside = [c for c in elem.support() if c not in basis]
            if outside:
                return [f"product {a!r}*{b!r} leaves the basis at {outside[0]!r}"]
    return []


def ring_scan_reference(table) -> list[str]:
    """The structural errors of a finite ring table: the faults of its
    involution, then its first faulty product pair.  Shares no code with
    the tensor builder of ``fusionrings.rings``."""
    errors: list[str] = []
    basis = set(table.basis)
    inv = table.involution
    if set(inv) != basis:
        errors.append("involution is not defined on exactly the basis")
    else:
        if sorted(inv.values()) != sorted(basis):
            errors.append("involution is not a bijection of the basis")
        else:
            noninv = [a for a in table.basis if inv.get(inv[a]) != a]
            if noninv:
                errors.append(f"involution is not involutive at {noninv[0]!r}")
        if inv.get(table.unit) != table.unit:
            errors.append("involution does not fix the unit")
    return errors + _product_faults(table)


def module_scan_reference(module) -> list[str]:
    """The structural error of a finite module table: its first faulty
    action pair in row-major order (ring labels, then module labels in
    basis order), else the first faulty product pair of its ring."""
    mset = set(module.basis)
    for alpha in module.ring.basis:
        for b in module.basis:
            row = module._action.get((alpha, b))
            if row is None:
                return [f"missing action entry ({alpha!r}, {b!r})"]
            if not row.is_zero and not row.is_nonnegative():
                return [f"negative action constant at ({alpha!r}, {b!r})"]
            outside = [c for c in row.support() if c not in mset]
            if outside:
                return [f"action ({alpha!r}, {b!r}) leaves the module basis at {outside[0]!r}"]
    return _product_faults(module.ring)


def first_associativity_witness(product, row, labels, basis) -> str | None:
    """The first ``"a, b, c"`` in (a, b, c) loop order over ``labels`` x
    ``labels`` x ``basis`` with (a*b).c != a.(b.c), or None.  ``product(a, b)``
    is the ring product and ``row(x, c)`` the basis product or action row
    x.c; both sides are summed one triple at a time into plain dicts, so the
    check shares no code with ``fusionrings.rings``."""
    for a in labels:
        for b in labels:
            ab = product(a, b).items()
            for c in basis:
                lhs: dict = {}
                rhs: dict = {}
                for x, n in ab:
                    for t, m in row(x, c).items():
                        lhs[t] = lhs.get(t, 0) + n * m
                for y, n in row(b, c).items():
                    for t, m in row(a, y).items():
                        rhs[t] = rhs.get(t, 0) + n * m
                if {t: v for t, v in lhs.items() if v} != {t: v for t, v in rhs.items() if v}:
                    return f"{a}, {b}, {c}"
    return None
