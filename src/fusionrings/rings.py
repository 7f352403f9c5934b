"""Based rings and fusion rings with exact integer structure constants.

A finite based ring is a table of products over an involutive pointed basis;
a lazy based ring computes single products on demand over a countable basis
graded by levels.  Dimension functions are Perron data of the multiplication
matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, partial
from itertools import chain
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .elements import RingElement, check_label
from .errors import (
    NoDimensionFunctionError,
    StructuralError,
    UnitGroupError,
    UnknownLabelError,
)
from .verification import VerificationReport

# Comparison tolerances.
DIM_TOL = 1e-9
REL_TOL = 1e-6


@dataclass(frozen=True)
class DimensionFunction:
    """Positive values per basis label plus an exactness tag.

    The tag is one of ``integer`` (provably integer-valued), ``quadratic``
    (known closed form in a quadratic irrational) or ``numeric``.
    """

    values: Mapping[str, float]
    exactness: str = "numeric"

    def __call__(self, label: str) -> float:
        try:
            return self.values[label]
        except KeyError:
            raise UnknownLabelError(f"no dimension recorded for label {label!r}") from None

    def of(self, element: RingElement) -> float:
        return sum(coeff * self(label) for label, coeff in element.items())

    @property
    def max_value(self) -> float:
        return max(self.values.values())

    def all_integer(self) -> bool:
        return all(abs(v - round(v)) <= DIM_TOL for v in self.values.values())

    def as_integers(self) -> dict[str, int]:
        out = {}
        for label, v in self.values.items():
            if abs(v - round(v)) > DIM_TOL:
                raise NoDimensionFunctionError(f"dimension of {label!r} is not integral: {v}")
            out[label] = int(round(v))
        return out


def table_tensor(
    labels: Mapping[str, int],
    targets: Mapping[str, int],
    row: Callable[[str, str], RingElement],
    negative: str,
    outside: str,
) -> np.ndarray:
    """The dense array ``X[a, b, c]`` of coefficients of c in ``row(a, b)``,
    for a in ``labels`` and b, c in ``targets`` (label -> index maps).

    Building the array is the structural scan of the table: pairs are read
    in row-major index order, and at the first faulty pair a
    :class:`StructuralError` is raised, by ``row`` on a missing entry, else
    with ``negative.format(a, b)`` when a coefficient is negative, else with
    ``outside.format(a, b, c)`` at the least target c outside ``targets``.
    The array is int64 when every entry fits, else Python ints (object
    dtype), so no coefficient wraps.
    """
    m = len(targets)
    flat: list[int] = []
    values: list[int] = []
    for a, ai in labels.items():
        for b, bi in targets.items():
            terms = row(a, b)._terms
            if terms and min(terms.values()) < 0:
                raise StructuralError(negative.format(a, b))
            base = (ai * m + bi) * m
            for c, coeff in terms.items():
                ci = targets.get(c)
                if ci is None:
                    raise StructuralError(outside.format(a, b, min(c for c in terms if c not in targets)))
                flat.append(base + ci)
                values.append(coeff)
    out = np.zeros(len(labels) * m * m, dtype=np.int64 if max(values, default=0) < 2**63 else object)
    out[flat] = values
    return out.reshape(len(labels), m, m)


class BasedRingTable:
    """A finite based ring given by explicit structure constants.

    The constructor checks labels and shapes only; axioms are the business
    of :func:`verify_based_ring`, so deliberately broken tables can be built
    for testing.
    """

    is_lazy = False

    def __init__(
        self,
        basis: Iterable[str],
        unit: str,
        involution: Mapping[str, str],
        products: Mapping[tuple[str, str], RingElement | Mapping[str, int]],
        dims: DimensionFunction | None = None,
        name: str = "",
    ):
        self.basis: tuple[str, ...] = tuple(sorted(check_label(b) for b in basis))
        if len(set(self.basis)) != len(self.basis):
            raise StructuralError("duplicate basis labels")
        self.index = {label: i for i, label in enumerate(self.basis)}
        if unit not in self.index:
            raise StructuralError(f"unit {unit!r} is not a basis label")
        self.unit = unit
        self.involution = dict(involution)
        bad = set(self.involution) - set(self.basis) | set(self.involution.values()) - set(self.basis)
        if bad:
            raise StructuralError(f"involution mentions labels outside the basis: {sorted(bad)}")
        self._products: dict[tuple[str, str], RingElement] = {}
        for (a, b), value in products.items():
            if a not in self.index or b not in self.index:
                raise StructuralError(f"product entry ({a!r}, {b!r}) outside the basis")
            elem = value if isinstance(value, RingElement) else RingElement(value)
            self._products[(a, b)] = elem
        self.dims = dims
        self.name = name or f"table[{len(self.basis)}]"
        self._tensor: np.ndarray | None = None
        self._perron_dims: DimensionFunction | None = None

    @property
    def size(self) -> int:
        return len(self.basis)

    def contains(self, label: str) -> bool:
        return label in self.index

    def require(self, label: str) -> None:
        if label not in self.index:
            raise UnknownLabelError(f"label {label!r} is not in ring {self.name}")

    def product(self, a: str, b: str) -> RingElement:
        self.require(a)
        self.require(b)
        try:
            return self._products[(a, b)]
        except KeyError:
            raise StructuralError(f"missing product entry ({a!r}, {b!r})") from None

    def involution_of(self, label: str) -> str:
        self.require(label)
        try:
            return self.involution[label]
        except KeyError:
            raise StructuralError(f"involution undefined on {label!r}") from None

    def structure_tensor(self) -> np.ndarray:
        """The array ``T[a, b, c]`` of coefficients of c in a*b, built and
        checked by :func:`table_tensor` and then cached."""
        if self._tensor is None:
            negative = "negative structure constant in {!r}*{!r}"
            outside = "product {!r}*{!r} leaves the basis at {!r}"
            self._tensor = table_tensor(self.index, self.index, self.product, negative, outside)
        return self._tensor

    def left_matrix(self, label: str) -> np.ndarray:
        """Matrix ``M[b, c] = coefficient of c in label*b``."""
        self.require(label)
        return self.structure_tensor()[self.index[label]]

    def __repr__(self) -> str:
        return f"BasedRingTable({self.name}, size={self.size})"


class LazyBasedRing:
    """A countably based ring whose single products are computed on demand.

    Every basis product is a finite nonnegative combination; global
    quantifiers are truncated by the level grading.  Products are memoized,
    with behavior identical to recomputation.
    """

    is_lazy = True

    def __init__(
        self,
        name: str,
        unit: str,
        product_fn: Callable[[str, str], RingElement],
        involution_fn: Callable[[str], str],
        level_fn: Callable[[str], int],
        enumerate_level_fn: Callable[[int], list[str]] | None = None,
        contains_fn: Callable[[str], bool] | None = None,
        dims: Callable[[str], float] | None = None,
        iterated_power_fn: Callable[[str, int], str | None] | None = None,
        metadata: dict | None = None,
    ):
        self.name = name
        self.unit = unit
        self.metadata = dict(metadata or {})
        self._product_fn = product_fn
        self._involution_fn = involution_fn
        self._level_fn = level_fn
        self._enumerate_fn = enumerate_level_fn
        self._contains_fn = contains_fn
        self._dims_fn = dims
        self._iterated_power_fn = iterated_power_fn
        self._cache: dict[tuple[str, str], RingElement] = {}
        self._members: set[str] = set()

    def contains(self, label: str) -> bool:
        if label not in self._members:
            if self._contains_fn is not None and not self._contains_fn(label):
                return False
            self._members.add(label)
        return True

    def require(self, label: str) -> None:
        if not self.contains(label):
            raise UnknownLabelError(f"label {label!r} is not in ring {self.name}")

    def product(self, a: str, b: str) -> RingElement:
        key = (a, b)
        cached = self._cache.get(key)
        if cached is None:  # only validated pairs are memoized
            self.require(a)
            self.require(b)
            cached = self._cache[key] = self._product_fn(a, b)
        return cached

    def involution_of(self, label: str) -> str:
        self.require(label)
        return self._involution_fn(label)

    def level(self, label: str) -> int:
        self.require(label)
        return self._level_fn(label)

    def enumerate_level(self, n: int) -> list[str]:
        if self._enumerate_fn is None:
            raise StructuralError(f"ring {self.name} does not support level enumeration")
        return self._enumerate_fn(n)

    def labels_up_to(self, depth: int) -> list[str]:
        out: list[str] = []
        for n in range(depth + 1):
            out.extend(sorted(self.enumerate_level(n)))
        return out

    def dim(self, label: str) -> float:
        if self._dims_fn is None:
            raise NoDimensionFunctionError(f"ring {self.name} carries no dimension data")
        self.require(label)
        return self._dims_fn(label)

    @property
    def has_dims(self) -> bool:
        return self._dims_fn is not None

    def iterated_power(self, label: str, n: int) -> str | None:
        """Label of the n-th tensor power when it stays a single basis element."""
        if self._iterated_power_fn is None:
            return None
        return self._iterated_power_fn(label, n)

    def __repr__(self) -> str:
        return f"LazyBasedRing({self.name})"


Ring = BasedRingTable | LazyBasedRing


def _require_all(ring: Ring, x: RingElement) -> None:
    """Raise on the least label of x outside the ring, if any."""
    if not all(map(ring.contains, x._terms)):
        ring.require(min(label for label in x._terms if not ring.contains(label)))


def fuse(ring: Ring, x: RingElement, y: RingElement) -> RingElement:
    """Bilinear extension of the basis products; exact integer coefficients."""
    _require_all(ring, x)
    _require_all(ring, y)
    acc: dict[str, int] = {}  # in storage order; equality, hash and format sort
    y_terms = y._terms.items()
    for a, ca in x._terms.items():
        for b, cb in y_terms:
            for c, cc in ring.product(a, b)._terms.items():
                acc[c] = acc.get(c, 0) + ca * cb * cc
    return RingElement._of(acc)


def unit_coefficient(ring: Ring, x: RingElement) -> int:
    """Coefficient of the unit label in x (the counit-like linear functional)."""
    _require_all(ring, x)
    return x.coefficient(ring.unit)


def dual(ring: Ring, x: RingElement) -> RingElement:
    """Coefficientwise application of the basis involution."""
    _require_all(ring, x)
    return x.map_labels(ring.involution_of)


def structure_constant(ring: Ring, y: RingElement, z: RingElement, x: RingElement) -> int:
    """The multiplicity of x inside y*z, computed as the unit coefficient of y*z*dual(x)."""
    return unit_coefficient(ring, fuse(ring, fuse(ring, y, z), dual(ring, x)))


def _structural_scan(table: BasedRingTable) -> list[str]:
    """The structural faults of a finite table: those of its involution,
    then the first faulty product pair in row-major order, found by
    building (and so caching) :meth:`BasedRingTable.structure_tensor`."""
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
    try:
        table.structure_tensor()
    except StructuralError as exc:  # one totality or sign witness is enough
        errors.append(str(exc))
    return errors


def require_sound(table: BasedRingTable) -> None:
    """Raise :class:`StructuralError` naming every structural fault of the table."""
    errors = _structural_scan(table)
    if errors:
        raise StructuralError("; ".join(errors))


def exact_dtype(terms: int, *arrays: np.ndarray):
    """A dtype in which every sum of ``terms`` products of two entries of
    ``arrays`` is exact in any summation order: float64 (so matmuls use
    BLAS) while ``terms * max|entry|**2 < 2**53``, int64 below ``2**63``,
    Python ints (object dtype) past that."""
    big = max(int(np.abs(x).max(initial=0)) for x in arrays)
    bound = terms * big * big
    return np.float64 if bound < 2**53 else np.int64 if bound < 2**63 else object


def associativity_check(T: np.ndarray, A: np.ndarray) -> Callable[[int], np.ndarray]:
    """The per-label associativity check: for a ring label b, the boolean
    column over ring labels a, true when ``(a*b).v != a.(b.v)`` for some v.

    ``T[a, b, e]`` are ring structure constants and ``A[a, v, w]`` is the
    multiplicity of w in a.v; a ring is checked as its own module, A = T.
    A column costs one n x n by n x m^2 product and n m x m products.
    """
    n, m = A.shape[0], A.shape[1]
    A = A.astype(exact_dtype(max(n, m), T, A))
    flat = A.reshape(n, m * m)
    return lambda b: (T[:, b].astype(A.dtype) @ flat != (A[b] @ A).reshape(n, m * m)).any(axis=1)


def per_label_failures(check: Callable[[int], np.ndarray], labels: Iterable[int], n: int) -> np.ndarray:
    """Decide a per-label check on ``labels``: an all-false array when
    ``check(i)`` passes on each of them, else the rows ``check(i)`` of all
    n labels, whose first true entry in row-major order names the first
    witness.  Each label is checked at most once."""
    check = cache(check)
    if any(check(i).any() for i in labels):
        return np.stack([check(i) for i in range(n)])
    return np.zeros(0, dtype=bool)


# Prime for the span test of _middle_labels; n * p**2 < 2**63 for every n
# below 9 million, far past any n^3 table that fits in memory, so the int64
# dot products there never wrap.
_SPAN_PRIME = 1_000_003


def _middle_labels(T: np.ndarray) -> list[int]:
    """Middle labels for Light's associativity test: labels s, in basis
    order, such that the ring with constants ``T`` is associative once
    (x*s)*y == x*(s*y) holds for all x, y and every chosen s.

    The middle nucleus {b : (x*b)*y == x*(b*y) for all x, y} of any
    nonassociative ring is a subring: the Teichmüller identity
    (wx,y,z) - (w,xy,z) + (w,x,yz) = w(x,y,z) + (w,x,y)z at (x, b, c, y)
    leaves (x, bc, y) = 0 when b and c are in it.  So when the chosen labels
    pass, so do the products s_k*(...*(s_2*s_1)) of chosen labels, and once
    these span Q^n, every basis label passes (a nonzero integer multiple of
    it is an integer combination of them, and Z^n has no torsion).

    A label is chosen when its basis vector is not yet in the span; the
    span is then closed under left multiplication by every label chosen so
    far.  Spans are taken modulo ``_SPAN_PRIME``: full rank mod p implies
    full rank over Q, and a rank lost mod p only adds labels.  The basis
    vectors of all labels lie in the final span, so it is always full.
    """
    n, p = T.shape[0], _SPAN_PRIME
    L = np.asarray(T % p, dtype=np.int64)
    R = np.zeros((n, n), dtype=np.int64)  # reduced echelon rows mod p, 1 at their pivot
    pivots: list[int] = []
    middles: list[int] = []
    gens: list[np.ndarray] = []  # the rows as added, a basis of the span
    queue: list[tuple[np.ndarray, int]] = []  # (span vector, middle) products still to add

    def reduce(v: np.ndarray) -> np.ndarray:
        k = len(pivots)
        return (v - v[pivots] @ R[:k]) % p

    def add(v: np.ndarray) -> None:
        k, c = len(pivots), int(np.flatnonzero(v)[0])
        v = v * pow(int(v[c]), -1, p) % p
        R[:k] = (R[:k] - np.outer(R[:k, c], v)) % p
        R[k] = v
        pivots.append(c)
        gens.append(v)
        queue.extend((v, s) for s in middles)

    for label in range(n):
        if len(pivots) == n:
            break
        e = np.zeros(n, dtype=np.int64)
        e[label] = 1
        e = reduce(e)
        if not e.any():
            continue
        middles.append(label)
        queue.extend((g, label) for g in gens)
        add(e)
        while queue and len(pivots) < n:
            g, s = queue.pop()
            v = reduce(g @ L[s] % p)  # coefficients of s*g
            if v.any():
                add(v)
    return middles


def associativity_witnesses(
    ring: Ring,
    labels: list[str],
    basis: Sequence[str],
    row: Callable[[str, str], RingElement],
    act: Callable[[RingElement, RingElement], RingElement],
) -> Iterator[str]:
    """Witnesses ``"a, b, c"`` of (a*b).c != a.(b.c), for a, b in ``labels``
    and c in ``basis``, in that loop order.

    ``row(b, c)`` is the basis product b.c and ``act(x, v)`` its bilinear
    extension, which must read its basis products through ``row``: a lazy
    ring checks itself with ``ring.product`` and :func:`fuse`, a truncated
    module with the action rows of the whole module and
    :func:`fusionrings.modules.act` on it.

    Each pair (a, b) is decided at once for every c, by Kronecker
    substitution: with c_i the i-th label of ``basis``, Z = sum 2^(k i) c_i
    and Y_b = sum 2^(k i) b.c_i, the coefficient of a label t in
    (a*b).Z - a.Y_b is sum 2^(k i) D_i, where D_i is its coefficient in
    (a*b).c_i - a.(b.c_i).  Each side of D_i is a sum of products of an
    entry of a*b or b.c_i (absolute sum at most ``outer``) with an entry of
    a row x.c_i or a.y (absolute value at most ``inner``), so
    |D_i| <= 2 outer inner < 2^k.  The packed difference is then zero only
    when every D_i is: the least nonzero D_i would be divisible by 2^k.
    Only a pair whose packed sides differ is scanned label by label.

    The bound reads every row x.c (x in the support of a*b) and a.y (y in
    the support of b.c) before the first witness is yielded, so these
    products are all computed even when the first pair fails.
    """
    pairs = {(a, b): ring.product(a, b) for a in labels for b in labels}
    rows = {(b, c): row(b, c) for b in labels for c in basis}
    xs = dict.fromkeys(x for p in pairs.values() for x in p._terms)
    ys = dict.fromkeys(y for r in rows.values() for y in r._terms)
    outer = max((sum(map(abs, p._terms.values())) for p in chain(pairs.values(), rows.values())), default=0)
    # read lazily: a list of every row read at once raised the peak memory
    # of a verify-then-numpy process by about a tenth
    read = chain((row(x, c) for x in xs for c in basis), (row(a, y) for a in labels for y in ys))
    inner = max((abs(v) for r in read for v in r._terms.values()), default=0)
    k = (outer * inner).bit_length() + 1

    def packed(elements: Iterable[RingElement]) -> RingElement:
        acc: dict[str, int] = {}
        for i, x in enumerate(elements):
            for label, coeff in x._terms.items():
                acc[label] = acc.get(label, 0) + (coeff << k * i)
        return RingElement._of(acc)

    elems = {c: RingElement.basis(c) for c in (*labels, *basis)}
    z = packed(elems[c] for c in basis)
    y_packed = {b: packed(rows[b, c] for c in basis) for b in labels}
    for a in labels:
        for b in labels:
            ab = pairs[a, b]
            if act(ab, z) == act(elems[a], y_packed[b]):
                continue
            for c in basis:
                if act(ab, elems[c]) != act(elems[a], rows[b, c]):
                    yield f"{a}, {b}, {c}"


def verify_based_ring(table: BasedRingTable) -> VerificationReport:
    """Check the defining axioms of a finite based ring.

    Reported checks: unit laws, dual pairing (the unit coefficient of
    dual(a)*b is delta_{a,b}), the four-fold duality symmetry of the
    structure constants, anti-multiplicativity of the involution, and
    associativity.  Finite support is automatic for tables and recorded
    as such.  All comparisons are exact integer ones.

    Associativity is decided by :func:`per_label_failures` on the middle
    labels of :func:`_middle_labels`; only when one of them fails is every
    column checked, to name the first failing pair.
    """
    report = VerificationReport(subject=table.name)
    report.structural_errors = _structural_scan(table)
    if report.structural_errors:
        return report

    n = table.size
    T = table.structure_tensor()
    u = table.index[table.unit]
    inv = np.array([table.index[table.involution[b]] for b in table.basis])
    eye = np.eye(n, dtype=np.int64)
    labels = table.basis

    report.first_index("unit law (left)", T[u, :, :] != eye, labels, labels)
    report.first_index("unit law (right)", T[:, u, :] != eye, labels, labels)
    report.first_index("dual pairing", T[inv, :, u] != eye, labels, labels)

    report.add("finite support", True, "automatic for a finite table")

    # T[b, g, a] against T[g, inv a, inv b], T[inv a, b, inv g] and
    # T[inv g, inv b, inv a]; only the boolean differences are kept
    ar = np.arange(n)
    diffs = [
        T != T[np.ix_(ar, inv, inv)].transpose(2, 0, 1),
        T != T[np.ix_(inv, ar, inv)].transpose(1, 2, 0),
        T != T[np.ix_(inv, inv, inv)].transpose(1, 0, 2),
    ]
    bad = next((d for d in diffs if d.any()), diffs[0])
    report.first_index("duality symmetry", bad, labels, labels, labels)

    # dual(a*b) == dual(b)*dual(a)
    report.first_index("involution anti-multiplicative", diffs[2], labels, labels, labels)

    # the column of s stacked as row s: the pair (s, b) fails when (b*s).c != b.(s.c)
    F = per_label_failures(associativity_check(T, T), _middle_labels(T), n)
    report.first_index("associativity", F, labels, labels)
    return report


def window_products(
    ring: LazyBasedRing, labels: list[str]
) -> tuple[dict[tuple[str, str], RingElement], list[str]]:
    """The products a*b for a, b in ``labels``, in row-major order, and a
    structural error naming the first one that leaves the ring, if any."""
    window = {(a, b): ring.product(a, b) for a in labels for b in labels}
    outside = next(((a, b, c) for (a, b), p in window.items() for c in p.support() if not ring.contains(c)), None)
    return window, [] if outside is None else ["product {!r}*{!r} leaves the ring at {!r}".format(*outside)]


def verify_lazy_ring(ring: LazyBasedRing, depth: int) -> VerificationReport:
    """Check the based-ring axioms over all labels of level <= depth.

    Individual products are exact; only the quantifier is truncated.
    Associativity is checked for every triple within the depth.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    report = VerificationReport(subject=f"{ring.name} (depth {depth})")
    labels = ring.labels_up_to(depth)

    if ring.level(ring.unit) != 0:
        report.structural_errors.append("unit is not at level 0")
    for a in labels:
        ai = ring.involution_of(a)
        if not ring.contains(ai):
            report.structural_errors.append(f"involution leaves the ring at {a!r}")
            break
        if ring.involution_of(ai) != a:
            report.structural_errors.append(f"involution is not involutive at {a!r}")
            break
    if ring.involution_of(ring.unit) != ring.unit:
        report.structural_errors.append("involution does not fix the unit")
    window, errors = window_products(ring, labels)
    report.structural_errors += errors
    if report.structural_errors:
        return report
    pairs = list(window)

    negative = (f"{a}, {b}" for (a, b), p in window.items() if not p.is_nonnegative())
    report.first("nonnegative structure constants", negative)

    u, inv = ring.unit, ring.involution_of
    e = {a: RingElement.basis(a) for a in labels}
    report.first("unit law", (a for a in labels if ring.product(u, a) != e[a] or ring.product(a, u) != e[a]))
    pairing = (f"{a}, {b}" for a, b in pairs if ring.product(inv(a), b).coefficient(u) != int(a == b))
    report.first("dual pairing", pairing)
    anti = (f"{a}, {b}" for a, b in pairs if dual(ring, ring.product(a, b)) != ring.product(inv(b), inv(a)))
    report.first("involution anti-multiplicative", anti)

    report.add("finite support", True, "every single product is a finite combination")

    # four-fold symmetry of the structure constants, quantified over pairs
    # within the depth; the third index ranges over the full product support
    symmetry = (
        f"{b}, {g}, {a}"
        for b, g in pairs
        for a, coeff in ring.product(b, g).items()
        for a_bar, b_bar, g_bar in [(inv(a), inv(b), inv(g))]
        if ring.product(g, a_bar).coefficient(b_bar) != coeff
        or ring.product(a_bar, b).coefficient(g_bar) != coeff
        or ring.product(g_bar, b_bar).coefficient(a_bar) != coeff
    )
    report.first("duality symmetry", symmetry)

    fused = associativity_witnesses(ring, labels, labels, ring.product, partial(fuse, ring))
    report.first("associativity", fused)
    return report


def frobenius_perron_dims(table: BasedRingTable) -> DimensionFunction:
    """The dimension function of a finite fusion ring, from Perron data.

    Each label gets the spectral radius of its left-multiplication matrix;
    the result is validated (unit value 1, values >= 1, involution symmetry,
    multiplicativity) and an error is raised when any check fails, in which
    case the table admits no such dimension function candidate.
    """
    from .spectra import spectral_radius

    require_sound(table)
    T = table.structure_tensor()
    n = table.size
    values = np.array([spectral_radius(T[a]) for a in range(n)])

    unit_value = values[table.index[table.unit]]
    if abs(unit_value - 1.0) > REL_TOL:
        raise NoDimensionFunctionError(f"unit dimension is {unit_value}, not 1")
    if np.any(values < 1.0 - DIM_TOL):
        bad = table.basis[int(np.argmin(values))]
        raise NoDimensionFunctionError(f"dimension of {bad!r} is below 1: {values.min()}")
    inv = np.array([table.index[table.involution[b]] for b in table.basis])
    if np.any(np.abs(values - values[inv]) > REL_TOL * np.maximum(values, 1.0)):
        raise NoDimensionFunctionError("dimension is not involution-invariant")

    # multiplicativity: d(a*b) == d(a) d(b) within relative tolerance
    products = T.reshape(n * n, n).astype(np.float64) @ values
    expected = np.outer(values, values).reshape(n * n)
    err = np.abs(products - expected)
    if np.any(err > REL_TOL * np.maximum(expected, 1.0)):
        k = int(np.argmax(err / np.maximum(expected, 1.0)))
        a, b = table.basis[k // n], table.basis[k % n]
        raise NoDimensionFunctionError(f"multiplicativity fails at ({a!r}, {b!r})")

    exact = "integer" if np.all(np.abs(values - np.round(values)) <= DIM_TOL) else "numeric"
    if exact == "integer":
        values = np.round(values)
    return DimensionFunction(dict(zip(table.basis, (float(v) for v in values))), exactness=exact)


def ring_dims(ring: Ring) -> DimensionFunction:
    """Attached dimension data when present, else the Perron computation,
    made once per table and kept apart from ``ring.dims``."""
    if ring.is_lazy:
        if not ring.has_dims:
            raise NoDimensionFunctionError(f"ring {ring.name} carries no dimension data")
        raise NoDimensionFunctionError("lazy rings expose dimensions per label, not as a table")
    if ring.dims is not None:
        return ring.dims
    if ring._perron_dims is None:
        ring._perron_dims = frobenius_perron_dims(ring)
    return ring._perron_dims


def dim_of(ring: Ring, label: str) -> float:
    """Dimension of one basis label, for finite or lazy rings."""
    if ring.is_lazy:
        return ring.dim(label)
    return ring_dims(ring)(label)


def group_of_units(ring: BasedRingTable, dims: DimensionFunction) -> list[str]:
    """Basis labels of dimension 1; checked to close under product and involution."""
    units = [b for b in ring.basis if abs(dims(b) - 1.0) <= DIM_TOL]
    uset = set(units)
    for g in units:
        if ring.involution_of(g) not in uset:
            raise UnitGroupError(f"dual of {g!r} falls outside the dimension-one labels")
        for h in units:
            p = ring.product(g, h)
            if p.total() != 1 or p.support()[0] not in uset:
                raise UnitGroupError(f"product {g!r}*{h!r} leaves the dimension-one labels")
    return units
