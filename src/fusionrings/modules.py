"""Based modules over based rings: actions, inner products, verification,
and the named module constructions (standard, quotient, induced, twisted
tensor, singleton).

Inner products are always reconstructed from the action constants, never
stored, so the reconstruction identity holds by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable, Iterable, Mapping

import numpy as np

from .constructors import pair_label, tensor_product
from .elements import RingElement, check_label
from .errors import (
    IncompatibleDimensionsError,
    InfiniteInnerProductError,
    NonIntegerDimensionError,
    StructuralError,
    UnitGroupError,
    UnknownLabelError,
)
from .rings import (
    BasedRingTable,
    DimensionFunction,
    LazyBasedRing,
    REL_TOL,
    Ring,
    _middle_labels,
    _structural_scan,
    associativity_check,
    associativity_witnesses,
    exact_dtype,
    fuse,  # unused here; perfbench/tracing.py wraps the name modules.fuse
    group_of_units,
    per_label_failures,
    ring_dims,
    table_tensor,
    window_products,
)
from .spectra import components
from .verification import VerificationReport


class BasedModuleTable:
    """A finite based module over a finite based ring, as explicit constants.

    ``action`` maps (ring label, module label) to a nonnegative combination
    of module labels.  As with ring tables, the constructor validates labels
    and shapes only; axioms belong to :func:`verify_module`.
    """

    is_lazy = False

    def __init__(
        self,
        ring: BasedRingTable,
        basis: Iterable[str],
        action: Mapping[tuple[str, str], RingElement | Mapping[str, int]],
        name: str = "",
        dims: Callable[[str], float] | None = None,
        anchor: str | None = None,
    ):
        if ring.is_lazy:
            raise StructuralError("finite module tables require a finite ring")
        self.ring = ring
        self.basis = tuple(check_label(b) for b in basis)
        if len(set(self.basis)) != len(self.basis):
            raise StructuralError("duplicate module labels")
        self.index = {b: i for i, b in enumerate(self.basis)}
        self._action: dict[tuple[str, str], RingElement] = {}
        for (alpha, b), value in action.items():
            elem = value if isinstance(value, RingElement) else RingElement(value)
            self._action[(alpha, b)] = elem
        self.name = name or f"module[{len(self.basis)}] over {ring.name}"
        self.dims = dims
        self.anchor = anchor
        self._tensor: np.ndarray | None = None

    @property
    def size(self) -> int:
        return len(self.basis)

    def require(self, label: str) -> None:
        if label not in self.index:
            raise UnknownLabelError(f"label {label!r} is not in module {self.name}")

    def action_row(self, alpha: str, b: str) -> RingElement:
        self.ring.require(alpha)
        self.require(b)
        try:
            return self._action[(alpha, b)]
        except KeyError:
            raise StructuralError(f"missing action entry ({alpha!r}, {b!r})") from None

    def row_complete(self, alpha: str, b: str) -> bool:
        return True

    def boundary_labels(self) -> tuple[str, ...]:
        return ()

    def action_tensor(self) -> np.ndarray:
        """Array ``A[a, b, c]``: multiplicity of module label c in (ring a) * b,
        built and checked by :func:`table_tensor` and then cached."""
        if self._tensor is None:
            negative = "negative action constant at ({!r}, {!r})"
            outside = "action ({!r}, {!r}) leaves the module basis at {!r}"
            self._tensor = table_tensor(self.ring.index, self.index, self.action_row, negative, outside)
        return self._tensor

    def matrix(self, alpha: str) -> np.ndarray:
        self.ring.require(alpha)
        return self.action_tensor()[self.ring.index[alpha]]

    def __repr__(self) -> str:
        return f"BasedModuleTable({self.name}, size={self.size})"


class LazyBasedModule:
    """A based module over a lazy ring, with exact on-demand action rows."""

    is_lazy = True

    def __init__(
        self,
        ring: LazyBasedRing,
        act_fn: Callable[[str, str], RingElement],
        level_fn: Callable[[str], int],
        enumerate_level_fn: Callable[[int], list[str]],
        name: str = "",
        dims: Callable[[str], float] | None = None,
        anchor: str | None = None,
        contains_fn: Callable[[str], bool] | None = None,
    ):
        self.ring = ring
        self._act_fn = act_fn
        self._level_fn = level_fn
        self._enumerate_fn = enumerate_level_fn
        self.name = name or f"lazy module over {ring.name}"
        self.dims = dims
        self.anchor = anchor
        self._contains_fn = contains_fn
        self._cache: dict[tuple[str, str], RingElement] = {}

    def contains(self, label: str) -> bool:
        if self._contains_fn is not None:
            return self._contains_fn(label)
        return True

    def require(self, label: str) -> None:
        if not self.contains(label):
            raise UnknownLabelError(f"label {label!r} is not in module {self.name}")

    def action_row(self, alpha: str, b: str) -> RingElement:
        self.ring.require(alpha)
        self.require(b)
        key = (alpha, b)
        if key not in self._cache:
            self._cache[key] = self._act_fn(alpha, b)
        return self._cache[key]

    def level(self, label: str) -> int:
        return self._level_fn(label)

    def enumerate_level(self, n: int) -> list[str]:
        return sorted(self._enumerate_fn(n))

    def labels_up_to(self, depth: int) -> list[str]:
        out: list[str] = []
        for n in range(depth + 1):
            out.extend(self.enumerate_level(n))
        return out

    def truncate(self, depth: int) -> "TruncatedModule":
        return TruncatedModule(self, depth)

    def __repr__(self) -> str:
        return f"LazyBasedModule({self.name})"


class TruncatedModule:
    """A finite window (module labels of level <= depth) onto a lazy module.

    Action rows stay exact; ``matrix`` restricts targets to the window and
    ``row_complete`` records whether anything was cut.
    """

    is_lazy = False

    def __init__(self, parent: LazyBasedModule, depth: int):
        if depth < 0:
            raise ValueError("depth must be nonnegative")
        self.parent = parent
        self.ring = parent.ring
        self.depth = depth
        self.basis = tuple(parent.labels_up_to(depth))
        self.index = {b: i for i, b in enumerate(self.basis)}
        self.name = f"{parent.name} (depth {depth})"
        self.dims = parent.dims
        self.anchor = parent.anchor
        self._matrices: dict[str, np.ndarray] = {}

    @property
    def size(self) -> int:
        return len(self.basis)

    def require(self, label: str) -> None:
        if label not in self.index:
            raise UnknownLabelError(f"label {label!r} is outside the truncation window")

    def level(self, label: str) -> int:
        return self.parent.level(label)

    def action_row(self, alpha: str, b: str) -> RingElement:
        self.require(b)
        return self.parent.action_row(alpha, b)

    def row_complete(self, alpha: str, b: str) -> bool:
        row = self.action_row(alpha, b)
        return all(c in self.index for c in row.support())

    def boundary_labels(self) -> tuple[str, ...]:
        return tuple(b for b in self.basis if self.parent.level(b) == self.depth)

    def matrix(self, alpha: str) -> np.ndarray:
        if alpha not in self._matrices:
            m = len(self.basis)
            M = np.zeros((m, m), dtype=np.int64)
            for b, bi in self.index.items():
                for c, coeff in self.action_row(alpha, b).items():
                    ci = self.index.get(c)
                    if ci is not None:
                        M[bi, ci] = coeff
            self._matrices[alpha] = M
        return self._matrices[alpha]

    def __repr__(self) -> str:
        return f"TruncatedModule({self.name}, size={self.size})"


Module = BasedModuleTable | LazyBasedModule | TruncatedModule


def act(module: Module, x: RingElement, v: RingElement) -> RingElement:
    """Bilinear extension of the action table."""
    acc: dict[str, int] = {}
    for alpha, ca in x.items():
        for b, cb in v.items():
            for c, cc in module.action_row(alpha, b)._terms.items():
                acc[c] = acc.get(c, 0) + ca * cb * cc
    return RingElement._of(acc)


# Most ring labels ``_anchored_mass`` sums: levels of a free product grow
# geometrically, so a depth alone does not bound the work.
_MASS_LABELS = 2**15


def _anchored_mass(module: Module, b: str, c: str, depth: int):
    """The terms (alpha, N_{alpha b}^c) over a lazy ring, summed level by
    level up to ``depth`` while their mass sum N d(alpha) is weighed against
    the anchored dimension budget d(b).

    Returns ``(verdict, terms, mass, budget, level)``: ``over`` when the
    mass passes the budget, ``met`` when it reaches it (any further term
    would contribute at least 1 and overshoot), ``short`` when neither
    happens by ``depth``, or by the last level before the labels summed
    would pass ``_MASS_LABELS``; ``level`` is the last level summed.  The
    mass is summed and compared exactly; both tests allow a slack of
    ``REL_TOL`` of the budget for rounded dimensions, capped at 0.5 so that
    a further term can never hide inside it.
    """
    ring = module.ring
    budget = float(module.dims(b))
    slack = Fraction(min(REL_TOL * budget, 0.5))
    over, met = Fraction(budget) + slack, Fraction(budget) - slack
    mass = Fraction(0)
    terms = []
    summed = 0
    for n in range(depth + 1):
        labels = ring.enumerate_level(n)
        summed += len(labels)
        if summed > _MASS_LABELS:
            return "short", terms, float(mass), budget, n - 1
        for alpha in labels:
            coeff = module.action_row(alpha, b).coefficient(c)
            if coeff:
                terms.append((alpha, coeff))
                mass += coeff * Fraction(ring.dim(alpha))
        if mass > over:
            return "over", terms, float(mass), budget, n
        if mass >= met:
            return "met", terms, float(mass), budget, n
    return "short", terms, float(mass), budget, depth


def inner(module: Module, b: str, c: str) -> RingElement:
    """The ring-valued pairing: the sum over ring labels a of N_{a b}^c dual(a).

    For finite rings the sum is finite.  Over a lazy ring the sum is
    accumulated by level, up to level 32 or ``_MASS_LABELS`` labels, and
    certified complete against the anchored dimension budget; without a
    certificate an error is raised, naming the last level summed, rather
    than returning a silently truncated value.
    """
    ring = module.ring
    if not ring.is_lazy:
        terms = []
        for alpha in ring.basis:
            coeff = module.action_row(alpha, b).coefficient(c)
            if coeff:
                terms.append((ring.involution_of(alpha), coeff))
        return RingElement(terms)

    if module.dims is None or module.anchor is None or c != module.anchor:
        raise InfiniteInnerProductError(
            "inner products over an infinite ring need the anchored dimension "
            "budget; pair the second argument with the module anchor"
        )
    verdict, terms, mass, budget, depth = _anchored_mass(module, b, c, 32)
    if verdict == "over":
        raise IncompatibleDimensionsError(f"accumulated mass {mass} exceeds the dimension budget {budget}")
    if verdict == "short":
        raise InfiniteInnerProductError(
            f"inner product not certified complete at depth {depth}: mass {mass} of budget {budget}"
        )
    return RingElement((ring.involution_of(alpha), coeff) for alpha, coeff in terms)


@dataclass(frozen=True)
class CofiniteResult:
    """Tri-state cofiniteness verdict: yes, no, or undecided at depth."""

    status: str  # "cofinite" | "not_cofinite" | "undecided"
    detail: str = ""

    def __bool__(self) -> bool:
        return self.status == "cofinite"


def is_cofinite(module: Module, depth: int = 32) -> CofiniteResult:
    """Cofiniteness of a based module.

    Finite modules over finite rings are cofinite by finiteness.  Over a
    lazy ring, the pairing mass at the anchor is accumulated by level, up
    to ``depth`` or ``_MASS_LABELS`` labels, and compared with the anchored
    dimension budget; convergence of the mass to the budget certifies
    finiteness of one pairing column, which propagates by connectedness.
    A diagonal action entry of a label whose tensor powers provably stay
    single basis words refutes cofiniteness; that scan is capped at level 6
    because level sizes may grow exponentially.
    """
    ring = module.ring
    if not ring.is_lazy:
        return CofiniteResult("cofinite", "finite module over a finite ring")

    # refutation scan first (it is unconditional, unlike the budget
    # certificate); capped separately since level sizes may grow fast
    refutation_depth = min(depth, 6)
    window = module if isinstance(module, TruncatedModule) else module.truncate(refutation_depth)
    for n in range(1, refutation_depth + 1):
        for alpha in ring.enumerate_level(n):
            if ring.iterated_power(alpha, 2) is None:
                continue
            for b in window.basis:
                if module.action_row(alpha, b).coefficient(b):
                    return CofiniteResult(
                        "not_cofinite",
                        f"label {alpha!r} fixes {b!r}; its powers give infinitely many pairings",
                    )

    if module.dims is None or module.anchor is None:
        return CofiniteResult("undecided", "no anchored dimension budget available")
    verdict, _, mass, budget, level = _anchored_mass(module, module.anchor, module.anchor, depth)
    if verdict == "over":
        return CofiniteResult("not_cofinite", f"anchor pairing mass {mass} exceeds the dimension budget {budget}")
    if verdict == "met":
        return CofiniteResult("cofinite", f"anchor pairing mass met the budget at level {level}")
    return CofiniteResult("undecided", f"budget not met within depth {level}")


def _component_partition(module: Module, ring_labels: list[str]) -> list[list[str]]:
    basis = list(module.basis)
    bset = set(basis)
    edges = (
        (b, c)
        for alpha in ring_labels
        for b in basis
        for c in module.action_row(alpha, b).support()
        if c in bset
    )
    return sorted(components(basis, edges), key=lambda c: c[0])


def _quantifier_labels(module: Module) -> list[str]:
    ring = module.ring
    if not ring.is_lazy:
        return list(ring.basis)
    if isinstance(module, LazyBasedModule):
        raise StructuralError("a module over a lazy ring has no finite basis; truncate it first")
    return ring.labels_up_to(module.depth)


def connected_components(module: Module) -> list[list[str]]:
    """Partition of the module basis by the linking relation; a truncated
    module is linked by the ring labels up to its own depth."""
    return _component_partition(module, _quantifier_labels(module))


def is_connected(module: Module) -> bool:
    return len(connected_components(module)) == 1


@dataclass(frozen=True)
class ModuleDimensionVector:
    """Per-label dimensions of a module, anchored at a fixed basis element."""

    values: Mapping[str, float]
    anchor: str

    def __call__(self, label: str) -> float:
        try:
            return self.values[label]
        except KeyError:
            raise UnknownLabelError(f"no module dimension recorded for {label!r}") from None


def dim_vector(
    module: BasedModuleTable,
    dims: DimensionFunction | None = None,
    anchor: str | None = None,
) -> ModuleDimensionVector:
    """Anchored dimension vector d(b) = d(<b, anchor>), validated for
    action multiplicativity within relative tolerance."""
    if module.is_lazy:
        raise StructuralError("dimension vectors are computed on finite modules")
    ring = module.ring
    if dims is None:
        dims = ring_dims(ring)
    if anchor is None:
        anchor = module.basis[0]
    module.require(anchor)
    values = {}
    for b in module.basis:
        pairing = inner(module, b, anchor)
        if pairing.is_zero:
            raise IncompatibleDimensionsError(
                f"<{b}, {anchor}> vanishes; the module is not connected to the anchor"
            )
        values[b] = dims.of(pairing)
    D = np.array([values[b] for b in module.basis])
    A = module.action_tensor().astype(np.float64)
    for alpha, ai in ring.index.items():
        lhs = A[ai] @ D
        rhs = dims(alpha) * D
        if np.any(np.abs(lhs - rhs) > REL_TOL * np.maximum(np.abs(rhs), 1.0)):
            raise IncompatibleDimensionsError(
                f"action multiplicativity fails for {alpha!r} at the anchored vector"
            )
    return ModuleDimensionVector(values, anchor)


# -- verification ----------------------------------------------------------------


def _verify_finite_module(module: BasedModuleTable) -> VerificationReport:
    """The module axioms on dense tensors.  Associativity and pairing
    compatibility are per-label checks, decided by :func:`per_label_failures`
    on the ring's middle labels once the ring passes associativity on them,
    and so is associative.  Then the labels y with (a*y).v == a.(y.v) for
    all a, v form a subring, as (a*(x*y)).v = ((a*x)*y).v = (a*x).(y.v) =
    a.(x.(y.v)) = a.((x*y).v); once the action passes too, so do those with
    y*inner(b, c) == inner(y.b, c) for all b, c, as (x*y)*inner(b, c) =
    x*inner(y.b, c) = inner(x.(y.b), c) = inner((x*y).b, c).  Both hold the
    middles, so every label passes, as in :func:`_middle_labels`.  Otherwise
    every label is checked."""
    report = VerificationReport(subject=module.name)
    ring = module.ring
    try:  # the module's first faulty pair, then the ring's faults
        A = module.action_tensor()
    except StructuralError as exc:
        report.structural_errors.append(str(exc))
        return report
    report.structural_errors = _structural_scan(ring)
    if report.structural_errors:
        return report
    T = ring.structure_tensor()

    n, m = ring.size, module.size
    labels_r, labels_m = ring.basis, module.basis
    u = ring.index[ring.unit]
    inv = np.array([ring.index[ring.involution_of(a)] for a in labels_r])
    middles = _middle_labels(T)
    labels = range(n) if any(col.any() for col in map(associativity_check(T, T), middles)) else middles

    report.add("row finiteness", True, "automatic for a finite table")
    report.first_index("unit law", A[u] != np.eye(m, dtype=np.int64), labels_m, labels_m)
    report.first_index("Frobenius reciprocity", A != A[inv].transpose(0, 2, 1), labels_r, labels_m, labels_m)
    F = per_label_failures(associativity_check(T, A), labels, n).T  # F[a, b]: the column of b
    report.first_index("associativity", F, labels_r, labels_r)
    report.first_index("actions never vanish", A.sum(axis=2) == 0, labels_r, labels_m)
    report.add("cofinite", True, "finite module over a finite ring")

    # P[b, c, k]: coefficient of ring label k in inner(b, c); the structural
    # scan made the involution a permutation of order 2
    P = A.transpose(1, 2, 0)[..., inv]
    d = (P[:, :, u] != np.eye(m, dtype=np.int64)) | (P != P.transpose(1, 0, 2)[..., inv]).any(axis=2)
    report.first_index("pairing normalization and symmetry", d, labels_m, labels_m)

    # the row of alpha: alpha*inner(b, c) against the sum over e of N_{alpha b}^e inner(e, c)
    P = P.astype(exact_dtype(max(n, m), A, P, T))

    def compatible(alpha: int) -> np.ndarray:
        lhs = A[alpha].astype(P.dtype) @ P.reshape(m, m * n)
        rhs = P.reshape(m * m, n) @ T[alpha].astype(P.dtype)
        return (lhs.reshape(m, m, n) != rhs.reshape(m, m, n)).any(axis=2)

    d = per_label_failures(compatible, range(n) if F.any() else labels, n)
    report.first_index("pairing compatibility with the action", d, labels_r, labels_m, labels_m)
    return report


def _verify_truncated_module(module: TruncatedModule, depth: int | None) -> VerificationReport:
    ring = module.ring
    if depth is None:
        depth = module.depth
    report = VerificationReport(subject=f"{module.name} (ring depth {depth})")
    ring_labels = ring.labels_up_to(depth)

    report.structural_errors += window_products(ring, ring_labels)[1]
    rows = {(alpha, b): module.action_row(alpha, b) for b in module.basis for alpha in ring_labels}
    contains = module.parent.contains
    outside = next(((alpha, b, c) for (alpha, b), row in rows.items() for c in row.support() if not contains(c)), None)
    if outside is not None:
        report.structural_errors.append("action ({!r}, {!r}) leaves the module at {!r}".format(*outside))
    if report.structural_errors:
        return report

    faults = (
        f"{alpha}, {b}" + (" (vanishing action)" if row.is_zero else "")
        for (alpha, b), row in rows.items()
        if row.is_zero or not row.is_nonnegative()
    )
    report.first("nonnegative, never-vanishing actions", faults)
    report.first("unit law", (b for b in module.basis if module.action_row(ring.unit, b) != RingElement.basis(b)))
    reciprocity = (
        f"{alpha}, {b}, {c}"
        for alpha in ring_labels
        for b in module.basis
        for c in module.basis
        if rows[alpha, b].coefficient(c) != module.action_row(ring.involution_of(alpha), c).coefficient(b)
    )
    report.first("Frobenius reciprocity", reciprocity)
    parent = module.parent  # the bound of the packed check reads rows past the window
    acted = associativity_witnesses(ring, ring_labels, module.basis, parent.action_row, partial(act, parent))
    report.first("associativity", acted)

    cof = is_cofinite(module, depth=max(depth, 8))
    report.add(f"cofinite ({cof.status})", cof.status != "not_cofinite", cof.detail or None)
    return report


def verify_module(module: Module, depth: int | None = None) -> VerificationReport:
    """Check the defining conditions of a (cofinite) based module.

    Finite modules over finite tables are checked in full; modules over a
    lazy ring are checked with ring quantifiers truncated by level, all
    individual rows exact.
    """
    if isinstance(module, BasedModuleTable):
        return _verify_finite_module(module)
    if isinstance(module, LazyBasedModule):
        if depth is None:
            raise ValueError("verifying a lazy module needs a depth")
        return _verify_truncated_module(module.truncate(depth), depth)
    return _verify_truncated_module(module, depth)


# -- constructions ----------------------------------------------------------------


def standard_module(ring: Ring):
    """The ring acting on itself by left multiplication."""
    if not ring.is_lazy:
        action = {
            (alpha, b): ring.product(alpha, b) for alpha in ring.basis for b in ring.basis
        }
        return BasedModuleTable(
            ring,
            ring.basis,
            action,
            name=f"standard({ring.name})",
            dims=ring.dims,
            anchor=ring.unit,
        )
    return LazyBasedModule(
        ring,
        act_fn=ring.product,
        level_fn=ring.level,
        enumerate_level_fn=ring.enumerate_level,
        name=f"standard({ring.name})",
        dims=ring.dim if ring.has_dims else None,
        anchor=ring.unit,
        contains_fn=ring.contains,
    )


def quotient_module(ring: BasedRingTable, subgroup: Iterable[str]) -> BasedModuleTable:
    """Quotient by a finite subgroup of the dimension-one units acting
    freely on the basis by right multiplication; orbits are labeled by
    their lexicographically least representative.

    Freeness matters: when some unit stabilizes a basis label, the orbit
    sums break Frobenius reciprocity and the quotient is not a based
    module, so such subgroups are rejected.
    """
    if ring.is_lazy:
        raise StructuralError("quotient modules require a finite ring")
    H = sorted(set(subgroup))
    dims = ring_dims(ring)
    units = set(group_of_units(ring, dims))
    for h in H:
        if h not in units:
            raise UnitGroupError(f"{h!r} is not a dimension-one unit")
    if ring.unit not in H:
        raise UnitGroupError("the subgroup must contain the ring unit")
    for g in H:
        for h in H:
            image = ring.product(g, h)
            if image.total() != 1 or image.support()[0] not in H:
                raise UnitGroupError(f"subset is not closed under product at ({g!r}, {h!r})")
        if ring.involution_of(g) not in H:
            raise UnitGroupError(f"subset is not closed under inverse at {g!r}")

    def orbit(b: str) -> tuple[str, ...]:
        out = set()
        for h in H:
            image = ring.product(b, h)
            assert image.total() == 1
            out.add(image.support()[0])
        if len(out) != len(H):
            raise UnitGroupError(
                f"the subgroup does not act freely: the orbit of {b!r} has size {len(out)}"
            )
        return tuple(sorted(out))

    orbits: dict[str, tuple[str, ...]] = {}
    rep_of: dict[str, str] = {}
    for b in ring.basis:
        orb = orbit(b)
        rep = orb[0]
        orbits[rep] = orb
        rep_of[b] = rep
    reps = sorted(orbits)

    action = {}
    for alpha in ring.basis:
        for rep in reps:
            terms: dict[str, int] = {}
            for c, coeff in ring.product(alpha, rep).items():
                target = rep_of[c]
                terms[target] = terms.get(target, 0) + coeff
            action[(alpha, rep)] = RingElement(terms)
    return BasedModuleTable(
        ring, reps, action, name=f"{ring.name}/[{','.join(H)}]"
    )


INDUCED_SEP = "~"


def induced_module(ring: BasedRingTable, witness, submodule: BasedModuleTable) -> BasedModuleTable:
    """Induce a module along a divisible subring.

    ``witness`` is a positive :class:`DivisibilityResult`; the induced basis
    is anchors x submodule labels, and the action transports each ambient
    product through the per-component right-module bijections.
    """
    if not witness.divisible:
        raise StructuralError("divisibility witness is negative")
    if tuple(sorted(submodule.ring.basis)) != tuple(witness.subring):
        raise StructuralError("submodule is not over the witnessed subring")
    comp_of: dict[str, int] = {}
    for i, comp in enumerate(witness.components):
        for label in comp:
            comp_of[label] = i

    def anchor_of(label: str) -> str:
        return witness.anchors[comp_of[label]]

    def sub_image(label: str) -> str:
        return witness.bijections[comp_of[label]][label]

    basis = [
        f"{a0}{INDUCED_SEP}{b}" for a0 in sorted(witness.anchors) for b in submodule.basis
    ]
    action: dict[tuple[str, str], RingElement] = {}
    for alpha in ring.basis:
        for a0 in witness.anchors:
            for b in submodule.basis:
                terms: dict[str, int] = {}
                for beta, coeff in ring.product(alpha, a0).items():
                    inner_row = submodule.action_row(sub_image(beta), b)
                    target_anchor = anchor_of(beta)
                    for c, coeff2 in inner_row.items():
                        key = f"{target_anchor}{INDUCED_SEP}{c}"
                        terms[key] = terms.get(key, 0) + coeff * coeff2
                action[(alpha, f"{a0}{INDUCED_SEP}{b}")] = RingElement(terms)
    return BasedModuleTable(
        ring, basis, action, name=f"induced({submodule.name} -> {ring.name})"
    )


def twisted_tensor_module(ring: BasedRingTable) -> BasedModuleTable:
    """The twist of a finite based ring over its tensor square.

    The tensor square acts on the ring basis through conjugation: the pair
    (a, b) sends c to a * c * dual(b).  For a non-trivial ring this module
    is smaller than the tensor square's standard module, hence non-standard.
    """
    if ring.is_lazy:
        raise StructuralError("the twisted tensor module requires a finite ring")
    square = tensor_product(ring, ring)
    action = {}
    for a in ring.basis:
        for b in ring.basis:
            pair = pair_label(a, b)
            b_bar = ring.involution_of(b)
            for c in ring.basis:
                left = ring.product(a, c)
                total = RingElement()
                for mid, coeff in left.items():
                    total = total + coeff * ring.product(mid, b_bar)
                action[(pair, c)] = total
    return BasedModuleTable(
        square, ring.basis, action, name=f"twist({ring.name})"
    )


def singleton_module(ring: BasedRingTable) -> BasedModuleTable:
    """One-point module where each label acts by its integer dimension."""
    if ring.is_lazy:
        raise StructuralError("singleton modules require a finite ring")
    dims = ring_dims(ring)
    try:
        int_dims = dims.as_integers()
    except Exception as exc:
        raise NonIntegerDimensionError(str(exc)) from None
    label = "pt"
    action = {
        (alpha, label): RingElement(((label, int_dims[alpha]),)) for alpha in ring.basis
    }
    return BasedModuleTable(ring, [label], action, name=f"singleton({ring.name})")
