"""Torsion-freeness engine.

Exhaustive enumeration of connected based modules over a finite fusion ring
up to basis-permutation isomorphism, torsion verdicts with witnesses, and
structural proof-replay probes for the infinite rings (the su2 tensor ring,
the free unitary word ring, free products), which validate the argument on
truncations without claiming verdicts over infinite index sets.

Exhaustiveness bound.  Anchor a connected cofinite module at a vertex of
minimal dimension and scale the compatible dimension vector D so that the
minimum is 1.  The eigen equation at the anchor row gives, for each ring
label a, sum_c N_{a,b0}^c D_c = d(a); since every D_c >= 1, at most d(a)
vertices are linked to the anchor through a, and connectedness makes these
sets cover the basis.  Hence |J| <= sum_a d(a).  The bound is this module's
own derivation (documented here for review), and the search certifies
exhaustiveness only when allowed to reach it.
"""

from __future__ import annotations

import itertools
import math
import time
from collections import deque
from dataclasses import dataclass, field
from numbers import Integral, Real
from typing import NamedTuple

import numpy as np

from .constructors import (
    match_standard_copy,
    pair_label,
    saturate,
    split_pair_label,
    subring_generated,
    tensor_product,
)
from .elements import RingElement
from .errors import FusionError, StructuralError
from .modules import (
    BasedModuleTable,
    LazyBasedModule,
    TruncatedModule,
    _component_partition,
    act,
    dim_vector,
    inner,
    singleton_module,
    standard_module,
)
from .rings import BasedRingTable, LazyBasedRing, fuse, ring_dims, verify_based_ring
from .spectra import FusionGraph, components


@dataclass(frozen=True)
class ModuleSearchConfig:
    """Controls for the module enumeration backtracking search.

    ``max_basis_size`` bounds the basis of the modules listed; the search
    certifies exhaustiveness only when it reaches ``dimension_bound``.
    ``time_budget`` (seconds, None for unlimited) cuts the search short and
    marks the result incomplete.
    """

    max_basis_size: int
    time_budget: float | None = None

    def __post_init__(self):
        if type(self.max_basis_size) is bool or not isinstance(self.max_basis_size, Integral):
            raise ValueError("max_basis_size must be an integer")
        if self.max_basis_size < 1:
            raise ValueError("max_basis_size must be at least 1")
        budget = self.time_budget
        if budget is not None and (type(budget) is bool or not isinstance(budget, Real) or not budget >= 0):
            raise ValueError("time_budget must be a nonnegative number of seconds")


@dataclass
class EnumerationResult:
    classes: list[BasedModuleTable]
    complete: bool
    certified_bound: int
    generators: tuple[str, ...]
    nodes_explored: int


@dataclass
class TorsionVerdict:
    """Outcome of the torsion-freeness decision for a finite fusion ring."""

    status: str  # torsion_free_certified | not_torsion_free | inconclusive
    witnesses: list[BasedModuleTable]
    certified_bound: int
    class_count: int
    enumeration: EnumerationResult | None = None


# -- generating sets ----------------------------------------------------------------


def _derivable(ring: BasedRingTable, gens: list[str]) -> set[str]:
    """The labels whose matrices follow from the generator matrices by
    fusion expansion through the middles (the unit, the generators and
    their duals), the rules that the search's closure reads: the middles,
    and the only unknown member of an expansion x*s with x known and s a
    middle, with its dual.  In a based ring, whose involution reverses
    products (``enumerate_modules`` searches no other ring), each label
    reached lies in the subring of R (x) Q that the middles generate, so
    reaching every label proves that they generate it, as
    ``_Searcher._complete`` needs.

    The rule is monotone, so the labels reached are its unique fixpoint,
    whatever order the expansions are read in; where they fall short of the
    basis the derivation stalls (every remaining expansion has two or more
    unknown members)."""
    known = {ring.unit, *gens, *map(ring.involution_of, gens)}
    middles = list(known)
    while True:
        found = set()
        for x, y in itertools.product(known, middles):
            unknown = set(ring.product(x, y).support()) - known
            if len(unknown) == 1:
                found |= unknown
        if not found:
            return known
        known |= found | set(map(ring.involution_of, found))


def generating_set(ring: BasedRingTable) -> tuple[str, ...]:
    """Greedy small generating set whose matrices determine every basis matrix.

    Candidates are tried in ascending dimension (their action rows are the
    most constrained, which keeps the module search tight), keeping one of
    each dual pair; the set is then augmented with the lexicographically
    least label that ``_derivable`` does not reach, until it reaches every
    label.  The result is recorded on the ring.
    """
    cached = getattr(ring, "_generators", None)
    if cached is not None:
        return cached
    dims = ring_dims(ring)
    # low-dimension generators first: their action rows are the most
    # constrained, which keeps the module search tight
    ordered = sorted(
        (b for b in ring.basis if b != ring.unit),
        key=lambda b: (round(dims(b) * 1e9), b),
    )
    gens: list[str] = []
    closure = {ring.unit}
    for cand in ordered:  # saturate keeps its seeds, so each new candidate grows the closure
        if cand not in closure:
            gens.append(cand)
            closure, _ = saturate(ring, gens)
    # the closure holds each generator's dual, so no two generators share a dual pair
    reduced = [min(g, ring.involution_of(g)) for g in gens]
    known = _derivable(ring, reduced)
    while len(known) < ring.size:
        reduced.append(min(set(ring.basis) - known))
        known = _derivable(ring, reduced)
    ring._generators = tuple(reduced)
    return ring._generators


# -- canonical forms ----------------------------------------------------------------


def _refined_cells(entry: list[list[tuple]]) -> list[list[int]]:
    """The ordered cells of colour refinement (1-dimensional Weisfeiler-Leman)
    of the digraph whose edge (v, w) is labelled by the tuple ``entry[v][w]``.

    Vertices start coloured by their diagonal tuple.  Each round recolours v
    by its colour, the sorted (entry[v][w], colour of w) over its out-row and
    the sorted (entry[w][v], colour of w) over its in-row, numbering the
    colours in the sorted order of these signatures; so the cells and their
    order do not depend on the labelling.  The old colour leads the
    signature, so a round only splits cells in place, and refinement stops
    at the first round that splits none.
    """
    m = len(entry)
    signatures: list = [entry[v][v] for v in range(m)]
    count = 0
    while True:
        rank = {s: r for r, s in enumerate(sorted(set(signatures)))}
        colour = [rank[s] for s in signatures]
        if len(rank) == count:
            break
        count = len(rank)
        signatures = [
            (
                colour[v],
                tuple(sorted((entry[v][w], colour[w]) for w in range(m))),
                tuple(sorted((entry[w][v], colour[w]) for w in range(m))),
            )
            for v in range(m)
        ]
    cells: list[list[int]] = [[] for _ in range(count)]
    for v in range(m):
        cells[colour[v]].append(v)
    return cells


def _canonical_data(matrices: list[np.ndarray], size: int, deadline: float | None = None):
    """(key, permutation, complete permutations compared) of the stacked
    ``size`` x ``size`` generator matrices.

    Entry (v, w) is the tuple of every matrix's entry there, compared
    numerically.  The key is the size and the least sequence of rows of the
    tuple matrix over the relabelings that keep the cells of
    ``_refined_cells`` in order (stored as big-endian int64 bytes, whose
    order is that of the rows); the permutation is the least one reaching
    it, as a brute force over those relabelings would find them.  Every
    automorphism keeps the cells, so keys are equal exactly for isomorphic
    stacks, and the relabelings reaching the key are the best one composed
    with each automorphism.  The search completes only some of them (and
    may complete worse ones on the way): the ties it meets are
    automorphisms, and it skips the branches they map onto searched ones.

    Positions are filled in order, each from the first of an ordered list
    of cells of candidate vertices (at first the refined cells).  A
    candidate v at position i fixes row i up to the order within each cell:
    the columns already placed, then entry (v, v), then the entries of row v
    over each remaining cell sorted.  Only candidates whose row is least go
    on, and every cell is split by row v in ascending order, so row i is
    the same for every completion.  Depth first, a branch stops where its
    rows exceed those of the best permutation found so far.  Past
    ``deadline`` (a ``time.monotonic`` reading) it raises ``_Budget``.
    """
    T = np.stack(matrices, axis=-1) if matrices else np.zeros((size, size, 0), dtype=np.int64)
    entry = [[tuple(e) for e in row] for row in T.tolist()]
    _, best_perm, leaves = _descend(entry, deadline, [], [], _refined_cells(entry), (None, [], 0), [])
    idx = np.array(best_perm, dtype=np.intp)
    key = f"{size}|".encode() + T[np.ix_(idx, idx)].astype(">i8").tobytes()
    return key, best_perm, leaves


def _descend(
    entry: list, deadline: float | None, prefix: list, rows: list, cells: list, best: tuple, automorphisms: list
) -> tuple:
    """The branch of ``_canonical_data``'s search below ``prefix`` and its
    ``rows``, filled from ``cells``: ``best`` (least rows or None, their
    permutation, complete permutations compared) updated by its leaves.

    A leaf whose rows tie the best appends to ``automorphisms`` the one
    sending the best permutation onto its own, as a dict.  A candidate is
    skipped when the recorded automorphisms that fix ``prefix`` pointwise
    generate a group carrying an already searched candidate onto it (McKay &
    Piperno 2014): its branch is the image of a searched one, with the same
    rows and later in depth-first order, so the key and the least
    permutation stay those of the full search.  The automorphisms recorded
    over the whole search generate every automorphism of the stack.
    """
    if deadline is not None and time.monotonic() > deadline:
        raise _Budget()
    best_rows, best_perm, leaves = best
    if not cells:
        if best_rows is None or rows < best_rows:
            best_rows, best_perm = rows, prefix
        elif rows == best_rows:
            automorphisms.append(dict(zip(best_perm, prefix)))
        return best_rows, best_perm, leaves + 1
    head, rest = cells[0], cells[1:]
    options = {}
    for v in head:
        Ev = entry[v]
        tail = [sorted(Ev[w] for w in head if w != v)] + [sorted(Ev[w] for w in c) for c in rest]
        options[v] = tuple(Ev[u] for u in prefix) + (Ev[v],) + tuple(x for part in tail for x in part)
    row = min(options.values())
    i = len(prefix)
    if best_rows is not None and rows == best_rows[:i] and row > best_rows[i]:
        return best
    searched: set[int] = set()  # the searched candidates and their orbits
    for v in head:
        if options[v] != row or v in searched:
            continue
        Ev = entry[v]
        split: list[list[int]] = []
        for cell in [[w for w in head if w != v]] + rest:
            parts: dict[tuple, list[int]] = {}
            for w in cell:
                parts.setdefault(Ev[w], []).append(w)
            split.extend(parts[value] for value in sorted(parts))
        best = _descend(entry, deadline, prefix + [v], rows + [row], split, best, automorphisms)
        fixing = [g for g in automorphisms if all(g[u] == u for u in prefix)]
        searched.add(v)
        stack = list(searched)
        while stack:
            u = stack.pop()
            for g in fixing:
                if g[u] not in searched:
                    searched.add(g[u])
                    stack.append(g[u])
    return best


def canonical_key(module: BasedModuleTable) -> bytes:
    """Isomorphism-invariant fingerprint of a finite based module; the key
    that ``canonical_form`` recorded on its result, when there is one."""
    cached = getattr(module, "_canonical_key", None)
    if cached is not None:
        return cached
    return _canonical_data([module.matrix(g) for g in generating_set(module.ring)], module.size)[0]


def canonical_form(module: BasedModuleTable, deadline: float | None = None) -> BasedModuleTable:
    """Relabel a module so isomorphic modules become identical tables.

    Vertices are ordered by exact colour refinement over the generator
    matrices, ties broken by the least rows of the stacked matrices over
    the relabelings that keep that order, found row by row without trying
    each one (see ``_canonical_data``; past ``deadline`` it raises
    ``_Budget``); no float enters.  The result uses labels ``v00``, ``v01``,
    ... and records the key.  Only ``ring``, ``name`` and ``action_tensor()``
    are read, so a search leaf (``_Leaf``) is labelled without a table of
    its own.
    """
    ring = module.ring
    A = module.action_tensor()
    m = A.shape[1]
    key, perm, _ = _canonical_data([A[ring.index[g]] for g in generating_set(ring)], m, deadline)
    rows = A[:, perm][:, :, perm].tolist()
    width = max(2, len(str(max(m - 1, 0))))
    labels = [f"v{i:0{width}d}" for i in range(m)]
    action = {
        (alpha, labels[b]): RingElement._of({labels[c]: n for c, n in enumerate(rows[a][b]) if n})
        for alpha, a in ring.index.items()
        for b in range(m)
    }
    form = BasedModuleTable(ring, labels, action, name=f"canonical({module.name})")
    form._canonical_key = key
    return form


# -- the backtracking enumeration ---------------------------------------------------


class _Budget(Exception):
    pass


class _Leaf(NamedTuple):
    """A completed search leaf, as ``canonical_form`` reads a module."""

    ring: BasedRingTable
    name: str
    tensor: np.ndarray

    def action_tensor(self) -> np.ndarray:
        return self.tensor


_EPS = 1e-9
# an interval move larger than this queues its watchers again
_MOVE = 1e-12


@dataclass
class _SearchState:
    """Partial assignment: rows of the generator matrices plus an interval
    for every vertex dimension, narrowed by bound propagation.

    ``rows[(gi, b)]`` is the fixed row b of generator gi, as ``(c, mult)``
    pairs, in the order the rows were fixed; ``cols[(gi, c)]`` is the
    partial column c of generator gi, as ``(b, mult)`` entries in that
    order.  Each is a weighted sum that propagation revises, and
    ``watch[v]`` lists the keys ``(gi, b, is_row)`` of the sums that read
    vertex v's interval: a row reads its row vertex and its participants,
    a column the lower bounds of the rows feeding it and its own vertex.
    ``watch`` and ``cols`` hold tuples that are replaced, never mutated, so
    ``clone`` copies only the outer containers.

    ``exact[label][b]`` is row b of a ring label's action matrix, as a
    ``{c: entry}`` dict of its nonzero entries, for every row that
    ``_Searcher._close`` found fixed by the generator rows (unit rows are
    implicit).  Rows are never mutated; ``clone`` shares ``exact`` with
    the parent, and ``_close`` copies the outer dict and each per-label
    dict before it first writes to it.  It is the closure's only state:
    ``_close`` tests the cells that a new exact row can complete against
    ``exact`` itself, so a node carries no counts between calls.
    """

    nvert: int
    rows: dict
    dims: list  # per vertex: (lo, hi)
    watch: list
    cols: dict
    exact: dict

    @classmethod
    def root(cls) -> "_SearchState":
        return cls(nvert=1, rows={}, dims=[(1.0, 1.0)], watch=[()], cols={}, exact={})

    def clone(self) -> "_SearchState":
        return _SearchState(self.nvert, dict(self.rows), list(self.dims), list(self.watch), dict(self.cols), self.exact)

    def add_row(self, gi: int, b: int, row: tuple, d_max: float) -> None:
        """Fix row (gi, b); its targets c >= ``nvert`` become new vertices seeded [1, d_max]."""
        new_count = sum(1 for c, _ in row if c >= self.nvert)
        self.nvert += new_count
        self.dims.extend([(1.0, d_max)] * new_count)
        self.watch.extend([()] * new_count)
        self.rows[(gi, b)] = row
        self.watch[b] += ((gi, b, True),) + tuple((gi, c, False) for c, _ in row)
        for c, mult in row:
            if c != b:
                self.watch[c] += ((gi, b, True),)
            if (gi, c) not in self.cols:
                self.cols[(gi, c)] = ()
                self.watch[c] += ((gi, c, False),)
            self.cols[(gi, c)] += ((b, mult),)


def _rows(columns: list, room: int, weight_hi: float):
    """The nonempty rows of one cell, in the order the search offers them,
    depth first, so that a caller who stops early pays only for what it
    took.  ``columns[c]`` is existing vertex c's (weight, fixed entry or
    None), and each entry m keeps the weighted row sum at most
    ``weight_hi``.  The existing vertices take ascending entries, vertex 0
    first; then up to ``room`` new vertices, new vertex i as column
    ``len(columns) + i``, each weighing 1, take non-increasing
    multiplicities (new vertices are interchangeable) in descending order,
    and a row comes before its extensions."""
    n = len(columns)
    stack = [(0, 0.0, [])]  # (next column, weighted sum, entries so far)
    while stack:
        c, lo, row = stack.pop()
        if c < n:
            weight, fixed = columns[c]
            entries = fixed or range(int((weight_hi - lo) / weight), -1, -1)  # pushed high to low, popped low to high
        else:
            if row:
                yield row
            if c == n + room:
                continue
            weight = 1
            entries = range(1, (row[-1][1] if c > n else int(weight_hi - lo)) + 1)  # popped high to low
        for m in entries:
            if lo + m * weight <= weight_hi:
                stack.append((c + 1, lo + m * weight, row + [(c, m)] if m else row))


class _Searcher:
    def __init__(self, ring: BasedRingTable, config: ModuleSearchConfig):
        self.ring = ring
        dims = ring_dims(ring)
        self.gens = list(generating_set(ring))
        self.kgen = len(self.gens)
        self.d_gen = [dims(g) for g in self.gens]
        self.d_max = dims.max_value
        self.self_dual = [ring.involution_of(g) == g for g in self.gens]
        self.max_size = config.max_basis_size
        self.deadline = None
        if config.time_budget is not None:
            self.deadline = time.monotonic() + config.time_budget
        self.nodes = 0
        self.found: dict[bytes, BasedModuleTable] = {}
        # every fusion rule x*y = sum_c N_xy^c c with x not the unit and y
        # a middle, on label indices: ``terms[x][y]`` its (c, N_xy^c), and
        # ``by_term[c][y]`` the x whose rule has c as one of two or more
        # non-unit terms.  The middles are the generators and their duals
        index = ring.index
        self.unit = index[ring.unit]
        self.gen_label = [index[g] for g in self.gens]
        self.dual_label = [index[ring.involution_of(a)] for a in ring.basis]
        T = ring.structure_tensor()
        self.middles = {*self.gen_label, *(self.dual_label[g] for g in self.gen_label)}
        self.terms = [[()] * ring.size for _ in ring.basis]
        self.by_term = [{} for _ in ring.basis]
        for x, y in itertools.product(range(ring.size), repeat=2):
            if x != self.unit and y in self.middles:
                self.terms[x][y] = tuple((int(c), int(T[x, y, c])) for c in np.flatnonzero(T[x, y]))
                labels = [c for c, _ in self.terms[x][y] if c != self.unit]
                for c in labels if len(labels) > 1 else ():
                    self.by_term[c].setdefault(y, []).append(x)

    # ---- dimension propagation

    def _propagate(self, state: _SearchState) -> bool:
        """Worklist bound propagation (AC-3) after the last row was fixed.

        Every vertex dimension lives in an interval, seeded [1, d_max] and
        pinned to 1 at the root.  Two kinds of weighted sum narrow them: the
        row equations sum_c m_c D_c = d(g) D_b of the fixed rows, and the
        column bounds: the transpose equation sum_b m_{b,c} D_b = d(g) D_c
        holds at completion, and with nonnegative future entries the partial
        column sum gives D_c >= partial_lo / d(g).  Each revision intersects
        the intervals it narrows, widened by ``_EPS``; an empty interval
        refutes the branch.

        The parent state is already closed, so the worklist starts from the
        new row and the columns it feeds.  When an interval moves by more
        than ``_MOVE``, every sum in its ``watch`` is queued again, and
        queued rows are revised before queued columns.  The loop stops when
        no queued sum is left: then one more revision of any sum moves no
        interval by more than ``_MOVE``.  Which fixpoint within that
        threshold it reaches depends on the order of revisions, and so can
        the node count.  Revisions are capped at 200 per sum; at the cap the
        branch is kept, since "not refuted" is always sound.
        """
        dims, watch, rows, cols, d_gen = state.dims, state.watch, state.rows, state.cols, self.d_gen
        gi_new, b_new = next(reversed(rows))
        row_queue = deque([(gi_new, b_new, True)])
        col_queue = deque((gi_new, c, False) for c, _ in rows[(gi_new, b_new)])
        queued = {*row_queue, *col_queue}

        def narrow(v: int, lo: float, hi: float) -> bool:
            """Intersect v's interval; False when it is empty."""
            cur_lo, cur_hi = dims[v]
            new_lo = max(cur_lo, lo - _EPS)
            new_hi = min(cur_hi, hi + _EPS)
            if new_lo > new_hi + _EPS:
                return False
            if new_lo > cur_lo + _MOVE or new_hi < cur_hi - _MOVE:
                dims[v] = (new_lo, new_hi)
                for key in watch[v]:
                    if key not in queued:
                        queued.add(key)
                        (row_queue if key[2] else col_queue).append(key)
            return True

        for _ in range(200 * (len(rows) + len(cols))):
            if not (row_queue or col_queue):
                return True
            key = (row_queue or col_queue).popleft()
            queued.discard(key)
            gi, b, is_row = key
            d_g = d_gen[gi]
            if not is_row:  # column b of generator gi
                col_lo = 0.0
                for a, mult in cols[(gi, b)]:
                    col_lo += mult * dims[a][0]
                if not narrow(b, col_lo / d_g, math.inf):
                    return False
                continue
            row = rows[(gi, b)]
            sum_lo = 0.0
            sum_hi = 0.0
            for c, mult in row:
                lo_c, hi_c = dims[c]
                sum_lo += mult * lo_c
                sum_hi += mult * hi_c
            # narrowing the row vertex through its equation refutes a sum that
            # leaves d(g) * [lo_b - 2 _EPS, hi_b + 2 _EPS], so the row needs no
            # test of its own; then each participant narrows against the rest
            if not narrow(b, sum_lo / d_g, sum_hi / d_g):
                return False
            for c, mult in row:
                lo_c, hi_c = dims[c]
                rest_lo = sum_lo - mult * lo_c
                rest_hi = sum_hi - mult * hi_c
                if not narrow(c, (d_g * dims[b][0] - rest_hi) / mult, (d_g * dims[b][1] - rest_lo) / mult):
                    return False
        return True

    # ---- refutation on exact derived rows

    def _exact_rows(self, state: _SearchState) -> bool:
        """Extend ``state.exact`` from the row just fixed; False refutes the node.

        Soundness: every leaf below the node keeps its exact rows, and
        ``_complete`` accepts a leaf only when ``_close`` makes every row of
        every label exact without breaking a rule, so a row that breaks one
        here breaks it at every leaf below.  Refuting the node removes only
        leaves that ``_complete`` would reject: the class list stays the
        same, and only node counts move.
        """
        (gi, b), row = next(reversed(state.rows.items()))
        return self._close(state, [(self.gen_label[gi], b, dict(row))])

    def _close(self, state: _SearchState, seeds) -> bool:
        """Add each seed row ``(label, b, row)`` to
        ``state.exact`` with the rows it makes exact, before reading the
        next seed; False when a row breaks a rule.

        A row of a label's action matrix is exact when the fixed generator
        rows determine it, the same in every completion of the node: unit
        rows (implicit), a generator row once fixed (the columns of a
        non-self-dual generator, its dual's rows, are seeded only at a
        leaf), and a row that a middle rule x*y = sum_c N_xy^c c, y a
        middle (a generator or its dual, see ``__init__``), forces:
        row w of M_y M_x = sum_c N_xy^c M_c, read once row w of M_y, the
        rows of M_x on its support and all but at most one term's row w are
        exact, and solved for that term (for the first when none is
        unknown).  A row breaks a rule when it is all zero, when a solved
        row is not divisible by the term's multiplicity, has a negative
        entry or differs from the term's exact row, or when two exact rows
        break reciprocity M_abar[b, c] = M_a[c, b] (checked once per pair,
        when its second row turns exact).  Integers only.

        Only the middle rules are read; at a leaf they imply the rest (see
        ``_complete``).  Above it a rule with y no middle could refute a
        branch sooner, so leaving it out can raise node counts, never lose
        a class.

        A cell, the middle rule x*y on row w, turns ready only when one of
        its inputs turns exact, so each new exact row (L, b) tests just the
        cells it can complete: as a row of M_x, L*y on each exact row w of a
        middle y whose support holds b; as a term row, x*y on row b when L
        leaves exactly one of its two or more non-unit terms unknown
        (``by_term``); as a row of M_y, when L is a middle, x*L on row b for
        every x.  A term row that arrives after a cell turned ready (the one
        its read solved, say) leaves none unknown and tests nothing, so each
        cell is read at most once per search path, and nothing but
        ``state.exact`` outlives the call.  The cells of the newest row are
        read first, each once however many ways the row reaches it.  The
        fixpoint, and so the verdict, does not depend on that order.
        """
        exact = state.exact = dict(state.exact)
        unit, terms_of, by_term = self.unit, self.terms, self.by_term
        copied: set[int] = set()
        pending: list[list[tuple[int, int, int]]] = []  # per new exact row, the cells it made ready

        def unknown(x: int, y: int, w: int) -> int:
            """The number of non-unit terms of x*y whose row w is not exact."""
            count = 0
            for a, _ in terms_of[x][y]:
                count += a != unit and w not in exact.get(a, ())
            return count

        def add(label: int, b: int, row: dict) -> bool:
            known = {b: 1} if label == unit else exact.get(label, {}).get(b)
            if known is not None or not row:  # an exact row never changes, and no row is zero
                return known == row
            for c, other in exact.get(self.dual_label[label], {}).items():
                if row.get(c, 0) != other.get(b, 0):
                    return False
            if label not in copied:
                copied.add(label)
                exact[label] = dict(exact.get(label, {}))
            exact[label][b] = row
            # the ready cells that row b of M_label completes: as a row of
            # M_x, as a term row, and as a row of M_y; a rule with one term
            # cannot lack two term rows, so its terms go uncounted
            rows_l = exact[label].keys()
            cells = [(label, y, w) for y in self.middles for w, row_y in exact.get(y, {}).items()
                     if b in row_y and row_y.keys() <= rows_l
                     and (len(terms_of[label][y]) < 2 or unknown(label, y, w) < 2)]
            for y, xs in by_term[label].items():
                row_y = exact.get(y, {}).get(b)
                if row_y is not None:
                    cells += [(x, y, b) for x in xs
                              if row_y.keys() <= exact.get(x, {}).keys() and unknown(x, y, b) == 1]
            if label in self.middles:
                cells += [(x, label, b) for x, rows_x in exact.items()  # the unit has no entry
                          if row.keys() <= rows_x.keys() and (len(terms_of[x][label]) < 2 or unknown(x, label, b) < 2)]
            pending.append(list(dict.fromkeys(cells)))
            return True

        for seed in seeds:
            if not add(*seed):
                return False
            while pending:
                for x, y, w in pending.pop():
                    terms = terms_of[x][y]
                    row_y = exact[y][w]
                    rows_x, term_rows, ex_x = [], [], exact[x]  # loops: cheaper than comprehensions here
                    for c in row_y:
                        rows_x.append(ex_x[c])
                    for a, _ in terms:
                        term_rows.append({w: 1} if a == unit else exact.get(a, {}).get(w))
                    # solve for the unknown term, or for the first one when
                    # none is unknown, which ``add`` compares with its row
                    i = term_rows.index(None) if None in term_rows else 0
                    target, coeff = terms[i]
                    term_rows[i] = {}
                    acc: dict[int, int] = {}
                    for m, row_x in zip(row_y.values(), rows_x):
                        for d, n in row_x.items():
                            acc[d] = acc.get(d, 0) + m * n
                    for (_, m), term in zip(terms, term_rows):
                        for d, n in term.items():
                            acc[d] = acc.get(d, 0) - m * n
                    derived = {}
                    for d, n in acc.items():
                        if n < 0 or n % coeff:
                            return False
                        if n:
                            derived[d] = n // coeff
                    if not add(target, w, derived):
                        return False
        return True

    # ---- row candidate generation

    def _row_options(self, state: _SearchState, gi: int, b: int):
        """The admissible contents for row (generator gi, vertex b), one at
        a time, under one bound: the row's entries times the lower dimension
        bounds, added in row order, sum to at most d(g) * (hi_b + 3 _EPS).
        The first revision of ``_propagate`` sums the same row in the same
        order and refutes any sum above d(g) * (hi_b + 2 _EPS).  A new
        vertex weighs its lower bound 1.

        Forward checking (Haralick & Elliott, 1980) fixes every entry that
        the node already determines: all of them when row b of g is in
        ``state.exact`` (and then no new vertex enters), entry c when row c
        of the dual label is (reciprocity M_g[b, c] = M_gbar[c, b]), and, for
        a self-dual generator, entry c when row (gi, c) is fixed (M_g is
        symmetric; this reads ``rows``, so it holds without the exact-row
        cut).  With the cut on, a fixed row of a self-dual generator is
        exact, so reciprocity already fixes what the symmetry does; the
        symmetry branch stays for the searches without the cut, which
        without it grow far past their pinned node counts (fib x fib from
        348 to 130,847 nodes; dihedral8 from 14,040 to beyond 579,193,
        unfinished after 60 s).  A row that the exact rows withhold breaks
        one of them, so ``_close`` refutes its child at its first seed: the
        surviving children stay the same.

        No entry and no row total is capped apart from the bound.  Every
        lower bound is at least 1, so the row total is at most the weighted
        sum, at most d(g) * (d_max + 3 _EPS): a cap floor(d(g) * d_max)
        could withhold more only where d(g) * d_max lies within 3 d(g) _EPS
        below an integer.  Dropping a prune only admits rows, so it never
        loses a class.
        """
        g = self.gen_label[gi]
        own = state.exact.get(g, {}).get(b)
        dual = state.exact.get(self.dual_label[g], {})
        columns = []  # per existing vertex c: (its weight, its fixed entry or None)
        for c in range(state.nvert):
            if own is not None:
                fixed = (own.get(c, 0),)
            elif c in dual:
                fixed = (dual[c].get(b, 0),)
            elif self.self_dual[gi] and (gi, c) in state.rows:
                fixed = (dict(state.rows[(gi, c)]).get(b, 0),)
            else:
                fixed = None
            columns.append((state.dims[c][0], fixed))  # a lower bound starts at 1 and only rises
        room = 0 if own is not None else self.max_size - state.nvert
        # largest weighted row sum that propagation does not refute
        weight_hi = self.d_gen[gi] * (state.dims[b][1] + 3 * _EPS)
        return _rows(columns, room, weight_hi)

    # ---- leaf completion

    def _leaf_seeds(self, state: _SearchState):
        """A leaf's generator rows, then, until none is left, the missing
        rows of the dual of a label whose rows the closure has all made
        exact: that label's columns.

        ``_exact_rows`` closed each generator row when the search fixed it;
        seeding them again (one comparison each) keeps completion
        independent of that node cut, which the tests switch off.  The
        labels made wholly exact are then closed under duals and under
        every middle rule x*s with one unknown term, the rule that
        ``_derivable`` reaches every label by for the generators that
        ``generating_set`` picks, so every row is exact unless a row broke
        a rule."""
        for (gi, b), row in state.rows.items():
            yield self.gen_label[gi], b, dict(row)
        m = state.nvert
        while True:
            exact = state.exact
            source = next((a for a, rows in exact.items()
                           if len(rows) == m and len(exact.get(self.dual_label[a], {})) < m), None)
            if source is None:
                return
            target = self.dual_label[source]
            columns = {c: {} for c in range(m) if c not in exact.get(target, {})}
            for b, row in exact[source].items():
                for c, n in row.items():
                    if c in columns:
                        columns[c][b] = n
            for c, column in columns.items():
                yield target, c, column

    def _complete(self, state: _SearchState):
        """The action tensor of a leaf, ``(n, m, m)`` in basis order, or
        None when it is not a module.

        ``_close`` from ``_leaf_seeds`` makes every row of every label exact
        or finds one that breaks a rule; with every row exact, every middle
        rule (x*s).w = x.(s.w) has been checked for every x and w.  With
        the middles the generators and their duals, that is associativity
        (Light's test, as in ``rings._middle_labels``): the y with
        (x*y).w = x.(y.w) for all x and w span a subring Y of R (x) Q, as
        for y, z in Y (x*(y*z)).w = ((x*y)*z).w = (x*y).(z.w) =
        x.(y.(z.w)) = x.((y*z).w) by ring associativity, and the unit,
        acting as the identity, is in Y.  Y holds the middles, which
        generate R (x) Q since ``_derivable`` reaches every label, so Y is
        all of it.  The ring axioms this uses hold, since
        ``enumerate_modules`` searches only a ring that
        ``verify_based_ring`` passes.  The unit acts as the identity: no
        rule writes it and no non-unit label has it as dual, in a based
        ring.  The module is connected: every vertex after the root enters
        as a new target of a generator row of an earlier vertex.  A leaf
        anchored at a vertex of non-minimal dimension can only repeat a
        class found from its minimal anchor, and the canonical key does not
        see the anchor.
        """
        if not self._close(state, self._leaf_seeds(state)):
            return None
        m = state.nvert
        rows = [(a * m + b, row) for a, by_row in state.exact.items() for b, row in by_row.items()]
        A = np.zeros((self.ring.size, m, m), dtype=np.int64)
        A.reshape(-1)[[ab * m + c for ab, row in rows for c in row]] = [n for _, row in rows for n in row.values()]
        A[self.unit] = np.eye(m, dtype=np.int64)
        return A

    def _harvest(self, state: _SearchState):
        tensor = self._complete(state)
        if tensor is not None:
            leaf = _Leaf(self.ring, f"module over {self.ring.name}", tensor)
            table = canonical_form(leaf, self.deadline)
            self.found.setdefault(canonical_key(table), table)

    # ---- depth-first search

    def _next_cell(self, state: _SearchState):
        """The open cell with the fewest row options, as ``(gi, b,
        options)``, or None at a leaf: fail-first (Haralick & Elliott,
        1980), ties in vertex-major order (vertex b, then generator).

        The cells are counted in lockstep: each round draws one more option
        from every open cell, in vertex-major order, and the first cell that
        runs out is the answer.  So no cell gives more than one option past
        the fewest.  The deadline is read before each draw.  The search
        order lives here alone."""
        cells = [(gi, b, self._row_options(state, gi, b), [])
                 for b in range(state.nvert) for gi in range(self.kgen) if (gi, b) not in state.rows]
        while cells:
            for gi, b, rows, taken in cells:
                if self.deadline is not None and time.monotonic() > self.deadline:
                    raise _Budget()
                row = next(rows, None)
                if row is None:
                    return gi, b, taken
                taken.append(row)
        return None

    def _child(self, state: _SearchState, gi: int, b: int, row) -> _SearchState | None:
        """``state`` with row (gi, b) fixed and propagated, or None when
        propagation refutes it or an exact derived row does."""
        child = state.clone()
        child.add_row(gi, b, tuple(row), self.d_max)
        return child if self._propagate(child) and self._exact_rows(child) else None

    def _dfs(self, state: _SearchState):
        """Count ``state`` as a search node; harvest it at a leaf, else
        descend into its children that survive propagation."""
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise _Budget()
        self.nodes += 1
        cell = self._next_cell(state)
        if cell is None:
            self._harvest(state)
            return
        gi, b, options = cell
        for row in options:
            child = self._child(state, gi, b, row)
            if child is not None:
                self._dfs(child)

    def run(self) -> EnumerationResult:
        root = _SearchState.root()
        complete = True
        try:
            if self.kgen == 0:
                self._harvest(root)
            else:
                self._dfs(root)
        except _Budget:
            complete = False
        classes = [self.found[k] for k in sorted(self.found)]
        return EnumerationResult(
            classes=classes,
            complete=complete,
            certified_bound=self.max_size if complete else 0,
            generators=tuple(self.gens),
            nodes_explored=self.nodes,
        )


def _require_based_ring(ring: BasedRingTable, task: str) -> None:
    """Raise :class:`StructuralError` unless ``ring`` is a finite table that
    :func:`verify_based_ring` passes, naming its structural faults or else
    its failed checks with their witnesses.  A pass is recorded on the ring,
    so ``is_torsion_free``, which calls ``enumerate_modules``, checks once."""
    if ring.is_lazy:
        raise StructuralError(f"{task} requires a finite ring")
    if getattr(ring, "_based", False):
        return
    report = verify_based_ring(ring)
    if report.structural_errors:
        raise StructuralError("; ".join(report.structural_errors))
    if not report.ok:
        failed = "; ".join(f"{c.name} fails at {c.witness}" for c in report.failed_checks())
        raise StructuralError(f"{task} requires a based ring: {failed}")
    ring._based = True


def dimension_bound(ring: BasedRingTable) -> int:
    """The derived exhaustiveness bound floor(sum of basis dimensions).
    Raises as :func:`enumerate_modules` does: the bound rests on the same
    axioms, so a table that fails one is rejected before its dimensions
    are read."""
    _require_based_ring(ring, "the dimension bound")
    dims = ring_dims(ring)
    return int(math.floor(sum(dims.values[b] for b in ring.basis) + _EPS))


def enumerate_modules(ring: BasedRingTable, config: ModuleSearchConfig) -> EnumerationResult:
    """All connected based modules with at most ``max_basis_size`` elements,
    up to basis-permutation isomorphism, in canonical order.  Raises
    :class:`StructuralError` on a ring that :func:`verify_based_ring` fails:
    the exhaustiveness bound and leaf completion both rest on its axioms."""
    _require_based_ring(ring, "module enumeration")
    return _Searcher(ring, config).run()


def integer_dim_shortcut(ring: BasedRingTable) -> BasedModuleTable | None:
    """Immediate non-standard witness for integer-dimension rings with more
    than one basis element: the singleton module."""
    dims = ring_dims(ring)
    if not dims.all_integer():
        return None
    if ring.size <= 1:
        return None
    return canonical_form(singleton_module(ring))


def is_torsion_free(ring: BasedRingTable, config: ModuleSearchConfig | None = None) -> TorsionVerdict:
    """Decide torsion-freeness of a finite fusion ring by exhaustive search.

    The verdict is certified only when the search completed and was allowed
    to reach the derived dimension bound; a budget cut yields inconclusive
    unless a witness already surfaced.  It raises as :func:`enumerate_modules`
    does, before the integer dimension shortcut.
    """
    _require_based_ring(ring, "a torsion verdict")
    shortcut = integer_dim_shortcut(ring)
    if shortcut is not None:
        return TorsionVerdict(
            status="not_torsion_free",
            witnesses=[shortcut],
            certified_bound=0,
            class_count=0,
            enumeration=None,
        )
    bound = dimension_bound(ring)
    if config is None:
        config = ModuleSearchConfig(max_basis_size=bound)
    result = enumerate_modules(ring, config)
    standard_key = canonical_key(standard_module(ring))
    witnesses = [
        table for table in result.classes if canonical_key(table) != standard_key
    ]
    if not result.complete:
        status = "not_torsion_free" if witnesses else "inconclusive"
    elif witnesses:
        status = "not_torsion_free"
    elif config.max_basis_size >= bound:
        status = "torsion_free_certified"
    else:
        status = "inconclusive"
    return TorsionVerdict(
        status=status,
        witnesses=witnesses,
        certified_bound=result.certified_bound,
        class_count=len(result.classes),
        enumeration=result,
    )


# -- the su2 tensor-power coefficients ------------------------------------------------


def chebyshev_coeffs(n: int) -> list[int]:
    """Integers expressing basis label n of the su2 tensor ring in tensor
    powers of the label 1; verified by re-expansion."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    from .constructors import su2_ring

    ring = su2_ring()
    one = RingElement.basis("1")
    powers = [RingElement.basis("0")]
    for _ in range(n):
        powers.append(fuse(ring, powers[-1], one))
    coeffs = [0] * (n + 1)
    remainder = RingElement.basis(str(n))
    for k in range(n, -1, -1):
        c = remainder.coefficient(str(k))
        coeffs[k] = c
        if c:
            remainder = remainder - c * powers[k]
    if not remainder.is_zero:
        raise FusionError("tensor power inversion failed to terminate")
    check = RingElement()
    for k, c in enumerate(coeffs):
        check = check + c * powers[k]
    if check != RingElement.basis(str(n)):
        raise FusionError("tensor power re-expansion mismatch")
    return coeffs


# -- unfolding word-ring modules into su2-ring modules ---------------------------------


@dataclass
class UnfoldedModule:
    """A word-ring module unfolded to a module over the su2 tensor ring.

    Vertices are the original labels doubled into plus/minus copies; the
    symmetric matrix is the action of the su2 label 1.
    """

    vertices: tuple[str, ...]
    matrix: np.ndarray
    graph: FusionGraph
    components: list[FusionGraph]


def _word_window(module, depth: int) -> TruncatedModule:
    if isinstance(module, TruncatedModule):
        return module
    if isinstance(module, LazyBasedModule):
        return module.truncate(depth)
    raise StructuralError("expected a module over the word ring")


def unfold_word_module(module, depth: int) -> UnfoldedModule:
    """Double the basis into signed copies tied by the letter actions.

    An edge joins b+ and c- with the multiplicity of c in p+ acting on b
    (the minus-letter contributions coincide by reciprocity on valid
    modules).  The components of the result are the half-line candidates.
    """
    window = _word_window(module, depth)
    m = window.size
    Mplus = window.matrix("p+")
    vertices = []
    for b in window.basis:
        vertices.append(f"{b}#+")
        vertices.append(f"{b}#-")
    big = np.zeros((2 * m, 2 * m), dtype=np.int64)
    big[0::2, 1::2] = Mplus
    big[1::2, 0::2] = Mplus.T
    boundary = frozenset(
        v
        for b in window.basis
        if window.level(b) == window.depth
        for v in (f"{b}#+", f"{b}#-")
    )
    weights = None
    if window.dims is not None:
        weights = tuple(float(window.dims(b)) for b in window.basis for _ in range(2))
    graph = FusionGraph(tuple(vertices), big, directed=False, weights=weights, boundary=boundary)
    return UnfoldedModule(
        vertices=tuple(vertices),
        matrix=big,
        graph=graph,
        components=graph.components(),
    )


@dataclass
class WordStructureReport:
    """Structural findings on a truncated word-ring module.

    Mirrors the combinatorial steps that force such a module to be standard:
    the plus-letter graph has no loops, no parallel or opposed double
    arrows, degrees at most two, a tree underneath, dimensions strictly
    increasing away from the minimal vertex, and the binary branching with
    one incoming and one outgoing child edge at every interior vertex.
    """

    loop_free: bool
    multi_edge_free: bool
    two_way_free: bool
    degree_bounds_ok: bool
    is_tree: bool
    dims_increasing: bool
    branching_ok: bool
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (
            self.loop_free
            and self.multi_edge_free
            and self.two_way_free
            and self.degree_bounds_ok
            and self.is_tree
            and self.dims_increasing
            and self.branching_ok
        )


def word_module_structure_check(module, depth: int) -> WordStructureReport:
    """Replay the structural argument on a truncation of a word-ring module."""
    window = _word_window(module, depth)
    m = window.size
    M = window.matrix("p+")
    violations: list[str] = []
    basis = window.basis
    boundary = set(window.boundary_labels())

    loop_free = not np.any(np.diag(M))
    if not loop_free:
        i = int(np.argwhere(np.diag(M))[0][0])
        violations.append(f"loop at {basis[i]}")

    multi_edge_free = not np.any(M > 1)
    if not multi_edge_free:
        i, j = np.argwhere(M > 1)[0]
        violations.append(f"double arrow {basis[i]} -> {basis[j]}")

    two_way = np.logical_and(M > 0, M.T > 0)
    np.fill_diagonal(two_way, False)
    two_way_free = not two_way.any()
    if not two_way_free:
        i, j = np.argwhere(two_way)[0]
        violations.append(f"opposed arrows between {basis[i]} and {basis[j]}")

    degree_bounds_ok = True
    out_deg = (M > 0).sum(axis=1)
    in_deg = (M > 0).sum(axis=0)
    for i in range(m):
        if out_deg[i] > 2 or in_deg[i] > 2:
            degree_bounds_ok = False
            violations.append(f"degree above two at {basis[i]}")
            break

    U = ((M + M.T) > 0).astype(np.int64)
    np.fill_diagonal(U, 0)
    edges = int(U.sum() // 2)
    connected = len(components(range(m), np.argwhere(U).tolist())) <= 1  # an empty window too
    is_tree = connected and edges == m - 1
    if not is_tree:
        violations.append("underlying graph is not a tree")

    dims_increasing = True
    branching_ok = True
    if window.dims is None:
        dims_increasing = False
        violations.append("no dimension data to order the tree")
    elif is_tree and m:
        D = [float(window.dims(b)) for b in basis]
        root = min(range(m), key=lambda i: (D[i], basis[i]))
        parent = {root: None}
        order = [root]
        queue = [root]
        while queue:
            v = queue.pop(0)
            for w in sorted(int(x) for x in np.nonzero(U[v])[0]):
                if w not in parent:
                    parent[w] = v
                    order.append(w)
                    queue.append(w)
        for v in order:
            p = parent[v]
            if p is not None and D[v] <= D[p] + _EPS:
                dims_increasing = False
                violations.append(f"dimension does not increase at {basis[v]}")
                break
        for v in order:
            if basis[v] in boundary:
                continue
            children = [w for w in np.nonzero(U[v])[0] if parent.get(int(w)) == v]
            if len(children) != 2:
                branching_ok = False
                violations.append(f"vertex {basis[v]} does not branch in two")
                break
            outgoing = sum(1 for w in children if M[v, int(w)])
            incoming = sum(1 for w in children if M[int(w), v])
            if outgoing != 1 or incoming != 1:
                branching_ok = False
                violations.append(f"child edges at {basis[v]} are not one in, one out")
                break
    return WordStructureReport(
        loop_free=loop_free,
        multi_edge_free=multi_edge_free,
        two_way_free=two_way_free,
        degree_bounds_ok=degree_bounds_ok,
        is_tree=is_tree,
        dims_increasing=dims_increasing,
        branching_ok=branching_ok,
        violations=violations,
    )


# -- free product probe -----------------------------------------------------------------


@dataclass
class FreeProductProbeReport:
    """Result of replaying the standard-module identification on a truncation."""

    vacuous: bool
    base_vertex: str | None
    identification_ok: bool
    obstructions: list[str]
    submodules_checked: int

    @property
    def ok(self) -> bool:
        return self.vacuous or (self.identification_ok and not self.obstructions)


def free_product_module_probe(ring: LazyBasedRing, module, depth: int) -> FreeProductProbeReport:
    """Replay the descent that identifies a module over a free product with
    the standard module, on a truncation.

    A factor's submodules are the components of the window under its
    letters, as ``connected_components`` reports them, so an input that
    breaks reciprocity gets those components too; on a based module every
    edge runs both ways (a letter's dual is a letter of the same factor).
    Complete submodules, from which no letter's row leaves the window, are
    matched against the factor rings; the descent walks to a vertex on
    which every letter acts irreducibly, and the resulting map from ring
    labels must be injective up to the requested depth.
    """
    factors = ring.metadata.get("factors")
    if factors is None:
        raise StructuralError("the probe needs a free product ring")
    if any(f.is_lazy for f in factors):
        raise StructuralError("the probe needs finite factor tables")
    if depth == 0:
        return FreeProductProbeReport(True, None, True, [], 0)

    window = _word_window(module, depth)
    letter_pairs_by_factor = [
        [(f"{i}:{a}", a) for a in f.basis if a != f.unit] for i, f in enumerate(factors)
    ]
    # per factor: each vertex's submodule and whether it is complete
    submodule_of = []
    for pairs in letter_pairs_by_factor:
        letters = [free for free, _ in pairs]
        parts = {}
        for part in _component_partition(window, letters):
            complete = all(window.row_complete(beta, v) for v in part for beta in letters)
            parts.update(dict.fromkeys(part, (part, complete)))
        submodule_of.append(parts)
    obstructions: list[str] = []

    # survey of the complete submodules, each named by its first vertex in window order
    checked = 0
    for s, factor in enumerate(factors):
        pairs = letter_pairs_by_factor[s]
        for b in window.basis:
            component, complete = submodule_of[s][b]
            if not complete or b != min(component, key=window.index.__getitem__):
                continue
            checked += 1
            if match_standard_copy(component, pairs, factor.unit, window.action_row, factor.product) is None:
                obstructions.append(
                    f"factor {s} submodule at {b} is not a standard copy "
                    f"(size {len(component)} vs {factor.size})"
                )
        if obstructions:
            break

    # descent to a base vertex on which every letter acts irreducibly
    base = None
    if window.dims is not None:
        current = min(window.basis, key=lambda b: (float(window.dims(b)), b))
    else:
        current = window.basis[0]
    for _ in range(64):
        bad_factor = None
        for s in range(len(factors)):
            for beta, _ in letter_pairs_by_factor[s]:
                row = window.action_row(beta, current)
                if row.total() != 1:
                    bad_factor = s
                    break
            if bad_factor is not None:
                break
        if bad_factor is None:
            base = current
            break
        pairs = letter_pairs_by_factor[bad_factor]
        component, complete = submodule_of[bad_factor][current]
        if not complete:
            obstructions.append(
                f"descent left the truncation window at {current} (factor {bad_factor})"
            )
            break
        factor = factors[bad_factor]
        match = match_standard_copy(component, pairs, factor.unit, window.action_row, factor.product)
        if match is None:
            obstructions.append(
                f"factor {bad_factor} submodule at {current} admits no unit anchor"
            )
            break
        current = next(iter(match))

    identification_ok = False
    if base is not None:
        image: dict[str, str] = {}
        identification_ok = True
        for label in ring.labels_up_to(depth):
            value = act(window.parent, RingElement.basis(label), RingElement.basis(base))
            if value.total() != 1:
                identification_ok = False
                obstructions.append(f"{label} does not act irreducibly on {base}")
                break
            target = value.support()[0]
            if target in image.values():
                clash = next(k for k, v in image.items() if v == target)
                identification_ok = False
                obstructions.append(
                    f"labels {clash} and {label} collide on {base}: standard identification fails"
                )
                break
            image[label] = target
    return FreeProductProbeReport(
        vacuous=False,
        base_vertex=base,
        identification_ok=identification_ok,
        obstructions=obstructions,
        submodules_checked=checked,
    )


# -- tensor product obstruction probe ------------------------------------------------


def _ring_isomorphic(r1: BasedRingTable, r2: BasedRingTable) -> bool:
    """Brute-force based-ring isomorphism for small tables.

    Dimensions are not compared: a label bijection that keeps every product
    maps each left-multiplication matrix to a permuted copy of its image's,
    and a dimension is that matrix's Perron eigenvalue."""
    if r1.size != r2.size:
        return False
    labels1 = [b for b in r1.basis if b != r1.unit]
    labels2 = [b for b in r2.basis if b != r2.unit]
    for perm in itertools.permutations(labels2):
        mapping = {r1.unit: r2.unit}
        mapping.update(dict(zip(labels1, perm)))
        if any(mapping[r1.involution_of(a)] != r2.involution_of(mapping[a]) for a in r1.basis):
            continue
        if all(r1.product(a, b).map_labels(mapping.__getitem__) == r2.product(mapping[a], mapping[b])
               for a in r1.basis for b in r1.basis):
            return True
    return False


@dataclass
class TensorWitnessReport:
    witness: BasedModuleTable
    base_vertex: str | None
    matched_pair: tuple[str, str] | None
    subring_left: tuple[str, ...]
    subring_right: tuple[str, ...]
    nontrivial: bool
    finite: bool
    isomorphic: bool

    @property
    def ok(self) -> bool:
        return (
            self.matched_pair is not None
            and self.nontrivial
            and self.finite
            and self.isomorphic
        )


@dataclass
class TensorObstructionReport:
    torsion_free: bool
    verdict: TorsionVerdict
    witness_reports: list[TensorWitnessReport]

    @property
    def ok(self) -> bool:
        return self.torsion_free or (
            bool(self.witness_reports) and all(r.ok for r in self.witness_reports)
        )


def tensor_obstruction_probe(r1: BasedRingTable, r2: BasedRingTable) -> TensorObstructionReport:
    """Run the torsion decision on a tensor product of two torsion-free
    rings and, when it fails, extract the matched pair of isomorphic finite
    fusion subrings from each witness."""
    square = tensor_product(r1, r2)
    verdict = is_torsion_free(square)
    if verdict.status == "torsion_free_certified":
        return TensorObstructionReport(True, verdict, [])
    reports: list[TensorWitnessReport] = []
    pure = [pair_label(a, r2.unit) for a in r1.basis if a != r1.unit]
    pure += [pair_label(r1.unit, b) for b in r2.basis if b != r2.unit]
    for witness in verdict.witnesses:
        D = dim_vector(witness)
        base = None
        for b in sorted(witness.basis, key=lambda b: (D(b), b)):
            if all(witness.action_row(alpha, b).total() == 1 for alpha in pure):
                base = b
                break
        matched = None
        if base is not None:
            pairing = inner(witness, base, base)
            for label in pairing.support():
                if label == square.unit:
                    continue
                gamma1, gamma2 = split_pair_label(label)
                alpha1 = gamma1
                alpha2 = r2.involution_of(gamma2) if gamma2 in r2.index else None
                if alpha1 == r1.unit or alpha2 in (None, r2.unit):
                    continue
                left = witness.action_row(pair_label(alpha1, r2.unit), base)
                right = witness.action_row(pair_label(r1.unit, alpha2), base)
                if left == right and left.total() == 1:
                    matched = (alpha1, alpha2)
                    break
        if matched is None:
            reports.append(
                TensorWitnessReport(witness, base, None, (), (), False, False, False)
            )
            continue
        closure1 = subring_generated(r1, matched[0])
        closure2 = subring_generated(r2, matched[1])
        sub1 = closure1.as_table()
        sub2 = closure2.as_table()
        reports.append(
            TensorWitnessReport(
                witness=witness,
                base_vertex=base,
                matched_pair=matched,
                subring_left=tuple(closure1.labels),
                subring_right=tuple(closure2.labels),
                nontrivial=sub1.size > 1 and sub2.size > 1,
                finite=closure1.stabilized and closure2.stabilized,
                isomorphic=_ring_isomorphic(sub1, sub2),
            )
        )
    return TensorObstructionReport(False, verdict, reports)
