"""Built-in rings and ring-building combinators.

Group rings, the golden-ratio ring, the two countably based rings driving
the classification arguments (here called the su2 tensor ring and the free
unitary word ring), truncated Verlinde rings, tensor and free products,
generated subrings and divisibility testing.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .elements import RingElement
from .errors import NotAFusionSubringError, StructuralError
from .rings import (
    BasedRingTable,
    DimensionFunction,
    LazyBasedRing,
    Ring,
    dim_of,
)
from .spectra import components

GOLDEN_RATIO = (1.0 + math.sqrt(5.0)) / 2.0


# -- group rings ---------------------------------------------------------------


def group_ring(elements: list[str], mul: dict[tuple[str, str], str], name: str = "") -> BasedRingTable:
    """The based ring of a finite group; the table is checked to be a group."""
    elems = list(elements)
    eset = set(elems)
    if len(eset) != len(elems):
        raise StructuralError("duplicate group elements")
    for (a, b), c in mul.items():
        if a not in eset or b not in eset or c not in eset:
            raise StructuralError(f"multiplication entry ({a!r}, {b!r}) -> {c!r} outside the element set")
    for a in elems:
        for b in elems:
            if (a, b) not in mul:
                raise StructuralError(f"missing multiplication entry ({a!r}, {b!r})")

    unit = next((e for e in elems if all(mul[(e, g)] == g and mul[(g, e)] == g for g in elems)), None)
    if unit is None:
        raise StructuralError("table has no two-sided unit")
    inverse: dict[str, str] = {}
    for g in elems:
        inv = next((h for h in elems if mul[(g, h)] == unit and mul[(h, g)] == unit), None)
        if inv is None:
            raise StructuralError(f"element {g!r} has no inverse")
        inverse[g] = inv
    pos = {g: i for i, g in enumerate(elems)}
    table = np.array([[pos[mul[(a, b)]] for b in elems] for a in elems])
    bad = np.argwhere(table[table] != table[:, table])  # (ab)c against a(bc)
    if bad.size:
        a, b, c = (elems[i] for i in bad[0])
        raise StructuralError(f"multiplication is not associative at ({a!r}, {b!r}, {c!r})")

    products = {(a, b): RingElement.basis(mul[(a, b)]) for a in elems for b in elems}
    dims = DimensionFunction({g: 1.0 for g in elems}, exactness="integer")
    return BasedRingTable(elems, unit, inverse, products, dims=dims, name=name or f"group[{len(elems)}]")


def cyclic_group_ring(n: int) -> BasedRingTable:
    """Group ring of Z/n with labels '0'..'n-1'."""
    if n < 1:
        raise ValueError("n must be positive")
    elems = [str(i) for i in range(n)]
    mul = {(str(a), str(b)): str((a + b) % n) for a in range(n) for b in range(n)}
    return group_ring(elems, mul, name=f"cyclic[{n}]")


def permutation_group_ring(n: int) -> BasedRingTable:
    """Group ring of the full symmetric group on n points (small n only)."""
    if not 1 <= n <= 5:
        raise ValueError("permutation_group_ring supports 1 <= n <= 5")
    perms = sorted(itertools.permutations(range(n)))
    label = {p: "".join(str(i) for i in p) for p in perms}
    elems = [label[p] for p in perms]
    mul = {}
    for p in perms:
        for q in perms:
            composed = tuple(p[q[i]] for i in range(n))
            mul[(label[p], label[q])] = label[composed]
    return group_ring(elems, mul, name=f"sym[{n}]")


# -- the golden ratio ring ------------------------------------------------------


def fibonacci() -> BasedRingTable:
    """Basis {1, phi} with trivial involution and phi*phi = 1 + phi."""
    products = {
        ("1", "1"): RingElement.basis("1"),
        ("1", "phi"): RingElement.basis("phi"),
        ("phi", "1"): RingElement.basis("phi"),
        ("phi", "phi"): RingElement((("1", 1), ("phi", 1))),
    }
    dims = DimensionFunction({"1": 1.0, "phi": GOLDEN_RATIO}, exactness="quadratic")
    return BasedRingTable(["1", "phi"], "1", {"1": "1", "phi": "phi"}, products, dims=dims, name="fibonacci")


# -- the su2 tensor ring on the natural numbers ----------------------------------


def _su2_product(a: str, b: str) -> RingElement:
    n, m = int(a), int(b)
    return RingElement((str(k), 1) for k in range(abs(n - m), n + m + 1, 2))


def _is_canonical_nat(label: str) -> bool:
    return label.isdigit() and (label == "0" or not label.startswith("0"))


def su2_ring() -> LazyBasedRing:
    """Clebsch-Gordan fusion on basis 0, 1, 2, ... with dimension n + 1."""
    return LazyBasedRing(
        name="su2",
        unit="0",
        product_fn=_su2_product,
        involution_fn=lambda a: a,
        level_fn=lambda a: int(a),
        enumerate_level_fn=lambda n: [str(n)],
        contains_fn=_is_canonical_nat,
        dims=lambda a: float(int(a) + 1),
        iterated_power_fn=None,
        metadata={"kind": "a1"},
    )


# -- the free unitary word ring ---------------------------------------------------

_WORD_UNIT = "e"


def _parse_word(label: str) -> str:
    """The signs of a word label (``"p+p-"`` gives ``"+-"``); letter i of the
    label is ``label[2i+1]``.  Raises ValueError on anything else."""
    if label == _WORD_UNIT:
        return ""
    letters = label[1::2]  # an odd length leaves one "p" more than letters
    if not letters or label[::2] != "p" * len(letters) or letters.strip("+-"):
        raise ValueError(f"bad word label {label!r}")
    return letters


def _format_word(letters: str) -> str:
    return "".join("p" + s for s in letters) or _WORD_UNIT


# the unit "e" has no odd-position characters, so a[1::2] (the letters) and
# a[:0:-2] (the letters reversed) need no case for it
_FLIP = str.maketrans("+-", "-+")


def _word_product(a: str, b: str) -> RingElement:
    # term k cancels the last k letters of a against the first k of b; the
    # shorter prefixes already matched, so only the k-th pair is compared
    a = "" if a == _WORD_UNIT else a
    b = "" if b == _WORD_UNIT else b
    terms = {a + b or _WORD_UNIT: 1}
    for k in range(1, min(len(a), len(b)) // 2 + 1):
        if a[1 - 2 * k] == b[2 * k - 1]:
            break  # equal signs do not cancel, and so for every longer k
        terms[a[: -2 * k] + b[2 * k :] or _WORD_UNIT] = 1
    return RingElement._of(terms)


@lru_cache(maxsize=None)
def _word_dim(letters: str) -> int:
    # d(s w) = 2 d(w) - [w starts with the opposite sign] d(tail w)
    if not letters:
        return 1
    if len(letters) == 1:
        return 2
    head, rest = letters[0], letters[1:]
    value = 2 * _word_dim(rest)
    if rest[0] != head:
        value -= _word_dim(rest[1:])
    return value


def _word_contains(label: str) -> bool:
    try:
        _parse_word(label)
        return True
    except ValueError:
        return False


def _word_power(label: str, n: int) -> str | None:
    """n-th power when it provably stays a single basis word (uniform sign)."""
    letters = _parse_word(label)
    if not letters or len(set(letters)) != 1:
        return None
    return label * n


def free_unitary_ring() -> LazyBasedRing:
    """Words in p+, p- with the common-subword fusion rule; d(p+) = 2.

    Products, involution, level and dimension all read the label string."""
    return LazyBasedRing(
        name="free_unitary",
        unit=_WORD_UNIT,
        product_fn=_word_product,
        involution_fn=lambda a: _format_word(a[:0:-2].translate(_FLIP)),
        level_fn=lambda a: len(a) // 2,
        enumerate_level_fn=lambda n: [_format_word(w) for w in itertools.product("+-", repeat=n)],
        contains_fn=_word_contains,
        dims=lambda a: float(_word_dim(a[1::2])),
        iterated_power_fn=_word_power,
        metadata={"kind": "a2"},
    )


# -- truncated Verlinde rings -----------------------------------------------------


def su2_level(level: int) -> BasedRingTable:
    """The level-N truncation on basis 0..N: k*m runs from |k-m| to min(k+m, 2N-k-m)."""
    if level < 1:
        raise ValueError("level must be at least 1")
    labels = [str(k) for k in range(level + 1)]
    products = {}
    for k in range(level + 1):
        for m in range(level + 1):
            top = min(k + m, 2 * level - k - m)
            products[(str(k), str(m))] = RingElement(
                (str(j), 1) for j in range(abs(k - m), top + 1, 2)
            )
    denom = math.sin(math.pi / (level + 2))
    dims = DimensionFunction(
        {str(k): math.sin((k + 1) * math.pi / (level + 2)) / denom for k in range(level + 1)},
        exactness="numeric",
    )
    return BasedRingTable(labels, "0", {l: l for l in labels}, products, dims=dims, name=f"su2_level[{level}]")


# -- tensor products ---------------------------------------------------------------

PAIR_SEP = "|"


def pair_label(a: str, b: str) -> str:
    return f"{a}{PAIR_SEP}{b}"


def split_pair_label(label: str) -> tuple[str, str]:
    left, sep, right = label.partition(PAIR_SEP)
    if not sep:
        raise ValueError(f"not a pair label: {label!r}")
    return left, right


def tensor_product(r1: BasedRingTable, r2: BasedRingTable) -> BasedRingTable:
    """Componentwise products on the pair basis; dimensions multiply."""
    if r1.is_lazy or r2.is_lazy:
        raise StructuralError("tensor products require finite tables")
    basis = [pair_label(a, b) for a in r1.basis for b in r2.basis]
    unit = pair_label(r1.unit, r2.unit)
    involution = {
        pair_label(a, b): pair_label(r1.involution_of(a), r2.involution_of(b))
        for a in r1.basis
        for b in r2.basis
    }
    products = {}
    for a1 in r1.basis:
        for a2 in r2.basis:
            for b1 in r1.basis:
                for b2 in r2.basis:
                    p1 = r1.product(a1, b1)
                    p2 = r2.product(a2, b2)
                    terms = []
                    for c1, m1 in p1.items():
                        for c2, m2 in p2.items():
                            terms.append((pair_label(c1, c2), m1 * m2))
                    products[(pair_label(a1, a2), pair_label(b1, b2))] = RingElement(terms)
    dims = None
    if r1.dims is not None and r2.dims is not None:
        exact = "integer" if (r1.dims.exactness == r2.dims.exactness == "integer") else "numeric"
        dims = DimensionFunction(
            {pair_label(a, b): r1.dims(a) * r2.dims(b) for a in r1.basis for b in r2.basis},
            exactness=exact,
        )
    return BasedRingTable(basis, unit, involution, products, dims=dims, name=f"({r1.name})x({r2.name})")


# -- free products ------------------------------------------------------------------

LETTER_SEP = ":"
WORD_SEP = "."
FREE_UNIT = "e"


def _free_format(letters) -> str:
    return WORD_SEP.join(f"{i}{LETTER_SEP}{a}" for i, a in letters) or FREE_UNIT


def free_product(factors: list[Ring]) -> LazyBasedRing:
    """Free product on alternating words in the non-unit letters of the factors.

    A word is its letters ``i:a`` (factor index, letter) joined by ``.``, or
    ``e``; no other spelling names it.  A same-factor junction expands by
    the factor's fusion, a unit term joining the outer words in turn.
    Always lazy: alternating words are unbounded even over finite tables.
    A factor whose labels can hold ``.``, as a free product's do, is refused.
    """
    factors = list(factors)
    if not factors:
        raise ValueError("free products need at least one factor")
    if any(f.metadata.get("kind") == "free_product" if f.is_lazy else WORD_SEP in "".join(f.basis) for f in factors):
        raise StructuralError(f"a free product factor has labels holding the word separator {WORD_SEP!r}")

    def letters(label: str) -> list[tuple[int, str]]:
        """The (factor index, letter) pairs of a word label, unchecked."""
        if label == FREE_UNIT:
            return []
        pairs = []
        for chunk in label.split(WORD_SEP):
            index, _, a = chunk.partition(LETTER_SEP)
            pairs.append((int(index), a))
        return pairs

    def contains_fn(label: str) -> bool:
        try:
            word = letters(label)
        except ValueError:  # an index that is not an integer
            return False
        last = None
        for i, a in word:
            if i == last or i not in range(len(factors)):
                return False
            if a == factors[i].unit or not factors[i].contains(a):
                return False
            last = i
        return _free_format(word) == label

    def product_fn(a: str, b: str) -> RingElement:
        terms: dict[str, int] = {}
        work = [(letters(a), letters(b), 1)]
        while work:
            w, z, coeff = work.pop()
            if not w or not z or w[-1][0] != z[0][0]:
                label = _free_format(w + z)
                terms[label] = terms.get(label, 0) + coeff
                continue
            i, x = w[-1]
            factor = factors[i]
            for gamma, m in factor.product(x, z[0][1]).items():
                # gamma replaces the junction; the unit leaves a new junction
                # of the outer words, a non-unit letter one between factors
                head = w[:-1] if gamma == factor.unit else w[:-1] + [(i, gamma)]
                work.append((head, z[1:], coeff * m))
        return RingElement._of(terms)

    def involution_fn(label: str) -> str:
        return _free_format([(i, factors[i].involution_of(a)) for i, a in reversed(letters(label))])

    def enumerate_level_fn(n: int) -> list[str]:  # handed over only when every factor is finite
        words: list[list[tuple[int, str]]] = [[]]
        for _ in range(n):
            longer = []
            for w in words:
                for i, factor in enumerate(factors):
                    if w and w[-1][0] == i:
                        continue
                    for a in factor.basis:
                        if a != factor.unit:
                            longer.append(w + [(i, a)])
            words = longer
        return sorted(_free_format(w) for w in words)

    def dims_fn(label: str) -> float:
        value = 1.0
        for i, a in letters(label):
            value *= dim_of(factors[i], a)
        return value

    return LazyBasedRing(
        name="free(" + ",".join(f.name for f in factors) + ")",
        unit=FREE_UNIT,
        product_fn=product_fn,
        involution_fn=involution_fn,
        level_fn=lambda label: len(letters(label)),
        enumerate_level_fn=None if any(f.is_lazy for f in factors) else enumerate_level_fn,
        contains_fn=contains_fn,
        dims=dims_fn if all(f.has_dims for f in factors if f.is_lazy) else None,
        metadata={"kind": "free_product", "factors": factors},
    )


# -- generated subrings ---------------------------------------------------------------


@dataclass
class SubringClosure:
    """Closure of {unit, a, dual(a)} under products, possibly truncated.

    ``stabilized`` records whether the closure stopped growing within the
    iteration budget; only a stabilized closure is a genuine fusion subring.
    """

    ring: Ring
    generator: str
    labels: list[str]
    stabilized: bool

    def as_table(self) -> BasedRingTable:
        if not self.stabilized:
            raise StructuralError("closure did not stabilize; no finite subring table")
        products = {}
        for a in self.labels:
            for b in self.labels:
                products[(a, b)] = self.ring.product(a, b)
        involution = {a: self.ring.involution_of(a) for a in self.labels}
        return BasedRingTable(
            self.labels,
            self.ring.unit,
            involution,
            products,
            name=f"subring<{self.generator}> of {self.ring.name}",
        )


def saturate(ring: Ring, seeds, rounds: int | None = None) -> tuple[set[str], bool]:
    """The unit, the seeds and their duals, closed under products and duals.

    Each round adds every product of two labels reached so far; after
    ``rounds`` rounds (None: no limit) the labels reached are returned with
    whether they stopped growing, i.e. form a fusion subring.
    """
    current = {ring.unit}
    for s in seeds:
        current.add(s)
        current.add(ring.involution_of(s))
    for _ in (itertools.count() if rounds is None else range(rounds)):
        new = set()
        for a in current:
            for b in current:
                for c in ring.product(a, b).support():
                    if c not in current:
                        new.add(c)
                        new.add(ring.involution_of(c))
        if not new:
            return current, True
        current |= new
    return current, False


def subring_generated(ring: Ring, generator: str, depth: int = 64) -> SubringClosure:
    """Smallest fusion subring containing one label, saturated up to depth rounds."""
    ring.require(generator)
    current, stabilized = saturate(ring, [generator], depth)
    if ring.is_lazy:
        labels = sorted(current, key=lambda l: (ring.level(l), l))
    else:
        labels = sorted(current)
    return SubringClosure(ring=ring, generator=generator, labels=labels, stabilized=stabilized)


# -- divisibility -----------------------------------------------------------------------


@dataclass
class DivisibilityResult:
    """Decomposition of a ring into copies of a subring as right modules."""

    divisible: bool
    subring: tuple[str, ...]
    components: list[list[str]]
    anchors: list[str]
    bijections: list[dict[str, str]]
    reason: str = ""


def check_fusion_subring(ring: BasedRingTable, subset) -> tuple[str, ...]:
    """Validate that a basis subset is a fusion subring; returns it sorted."""
    labels = tuple(sorted(set(subset)))
    lset = set(labels)
    for a in labels:
        ring.require(a)
    if ring.unit not in lset:
        raise NotAFusionSubringError("subset does not contain the unit")
    for a in labels:
        if ring.involution_of(a) not in lset:
            raise NotAFusionSubringError(f"subset is not involution-closed at {a!r}")
        for b in labels:
            outside = [c for c in ring.product(a, b).support() if c not in lset]
            if outside:
                raise NotAFusionSubringError(
                    f"product {a!r}*{b!r} leaves the subset at {outside[0]!r}"
                )
    return labels


def match_standard_copy(component, pairs, unit, act, product) -> dict | None:
    """A bijection from ``component`` onto a based ring's basis that carries
    an action on the component to the ring's standard action, or None.

    ``pairs`` lists (label, bare label) for every basis label of the ring,
    the unit optional: ``act(label, b)`` acts on a component element, and
    ``product(bare, x)`` is the standard action of the bare label on the
    ring label x.  Each element of the component in turn is the anchor that
    plays the unit; that forces the image of every bare label to be the
    single element its label sends the anchor to.  The forced mapping must
    then carry every row of the action to the standard one.  The anchor is
    the first key of the bijection returned.
    """
    members = set(component)
    for anchor in component:
        mapping = {anchor: unit}
        for label, bare in pairs:
            image = act(label, anchor)
            if image.total() != 1:
                break
            target = image.support()[0]
            if target not in members or mapping.setdefault(target, bare) != bare:
                break
        else:
            inverse = {bare: b for b, bare in mapping.items()}
            if len(mapping) == len(component) and all(
                act(label, b) == product(bare, mapping[b]).map_labels(inverse.__getitem__)
                for b in component
                for label, bare in pairs
            ):
                return mapping
    return None


def is_divisible(ring: BasedRingTable, subset) -> DivisibilityResult:
    """Test whether a fusion subring decomposes the ring as based right modules.

    The right multiplication action of the subring partitions the basis into
    connected components; each must be isomorphic to the standard right
    module of the subring, with the isomorphism anchored at a component
    element mapping to the subring unit.
    """
    if ring.is_lazy:
        raise StructuralError("divisibility testing requires a finite ring")
    sub = check_fusion_subring(ring, subset)

    edges = ((b, c) for b in ring.basis for beta in sub for c in ring.product(b, beta).support())
    parts = components(ring.basis, edges)
    anchors: list[str] = []
    bijections: list[dict[str, str]] = []
    for comp in parts:
        if len(comp) != len(sub):
            return DivisibilityResult(
                False, sub, parts, [], [],
                reason=f"component {comp} has size {len(comp)} != {len(sub)}",
            )
        found = match_standard_copy(
            comp,
            [(beta, beta) for beta in sub],
            ring.unit,
            lambda beta, b: ring.product(b, beta),
            lambda beta, x: ring.product(x, beta),
        )
        if found is None:
            return DivisibilityResult(
                False, sub, parts, [], [],
                reason=f"component {comp} is not a standard right module copy",
            )
        anchors.append(next(iter(found)))
        bijections.append(found)
    return DivisibilityResult(True, sub, parts, anchors, bijections)
