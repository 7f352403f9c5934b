"""Fusion graphs, spectral radii, and the norm <= 2 classification.

Where a connected graph's norm lies against 2 (below, equal or above) is
decided exactly, for every graph, by one integer elimination of 2I - M;
the shape then only names the graph (Dynkin and extended Dynkin diagrams
and their loop/multi-edge degenerations).  Floating point only supplies
Perron vectors as certificates; it decides no norm class.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rings import REL_TOL, dim_of


def components(vertices, edges) -> list[list]:
    """Connected components of the undirected graph on ``vertices``.

    ``edges`` are pairs of vertices; self-loops and repeats are allowed.
    Each component is sorted, and the components are listed in the order
    of their first vertex in ``vertices``.  Union-find with path halving.
    """
    root = {v: v for v in vertices}

    def find(v):
        while root[v] != v:
            root[v] = root[root[v]]
            v = root[v]
        return v

    for a, b in edges:
        root[find(a)] = find(b)
    groups: dict = {}
    for v in vertices:
        groups.setdefault(find(v), []).append(v)
    return [sorted(group) for group in groups.values()]


@dataclass(frozen=True)
class FusionGraph:
    """A finite directed or symmetrized multigraph with integer adjacency.

    ``boundary`` marks vertices whose rows were cut by a truncation of an
    infinite module; shape checks treat those degrees as unreliable.
    """

    vertices: tuple[str, ...]
    matrix: np.ndarray
    directed: bool = True
    weights: tuple[float, ...] | None = None
    boundary: frozenset = frozenset()

    def __post_init__(self):
        raw = np.asarray(self.matrix)
        try:
            with np.errstate(invalid="ignore"):
                m = raw.astype(np.int64)
        except (OverflowError, TypeError, ValueError):
            m = None
        if m is None or not np.array_equal(m, raw):
            raise ValueError("adjacency entries must be integers that fit in int64")
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] != len(self.vertices):
            raise ValueError("adjacency matrix shape does not match the vertex list")
        if (m < 0).any():
            raise ValueError("adjacency entries must be nonnegative")
        object.__setattr__(self, "matrix", m)
        if self.weights is not None and len(self.weights) != len(self.vertices):
            raise ValueError("weights length does not match the vertex list")

    @property
    def size(self) -> int:
        return len(self.vertices)

    def is_symmetric(self) -> bool:
        return bool(np.array_equal(self.matrix, self.matrix.T))

    def undirected_components(self) -> list[list[int]]:
        return components(range(self.size), np.argwhere(self.matrix).tolist())

    def is_connected(self) -> bool:
        return self.size > 0 and len(self.undirected_components()) == 1

    def subgraph(self, indices: list[int]) -> "FusionGraph":
        verts = tuple(self.vertices[i] for i in indices)
        sub = self.matrix[np.ix_(indices, indices)]
        weights = tuple(self.weights[i] for i in indices) if self.weights else None
        boundary = frozenset(v for v in verts if v in self.boundary)
        return FusionGraph(verts, sub, self.directed, weights, boundary)

    def components(self) -> list["FusionGraph"]:
        return [self.subgraph(c) for c in self.undirected_components()]


def symmetrize(graph: FusionGraph) -> FusionGraph:
    """Symmetrized copy with matrix M + M^T.

    An already symmetric matrix is kept unchanged, so the multiplicities of
    a symmetric action matrix are preserved.
    """
    if graph.is_symmetric():
        if graph.directed:
            return FusionGraph(graph.vertices, graph.matrix, False, graph.weights, graph.boundary)
        return graph
    m = graph.matrix + graph.matrix.T
    return FusionGraph(graph.vertices, m, False, graph.weights, graph.boundary)


def module_matrix(module, alpha: str) -> np.ndarray:
    """Action matrix ``M[b, c]`` = multiplicity of c in alpha acting on b."""
    return module.matrix(alpha)


def module_graph(module, alpha: str, dims=None) -> FusionGraph:
    """The directed fusion graph of one ring label acting on a module."""
    weights = None
    if dims is not None:
        weights = tuple(float(dims(b)) for b in module.basis)
    boundary = frozenset(getattr(module, "boundary_labels", lambda: ())())
    return FusionGraph(tuple(module.basis), module.matrix(alpha), True, weights, boundary)


def matrix_homomorphism_check(module, alpha: str, beta: str) -> bool:
    """Exact check of the two matrix identities of a based module action.

    With rows indexed by the acted-on label, the product identity reads
    M(beta) @ M(alpha) == sum over the expansion of alpha*beta, and the
    involution identity reads M(dual alpha) == M(alpha)^T.
    """
    ring = module.ring
    Ma, Mb = module.matrix(alpha), module.matrix(beta)
    expansion = ring.product(alpha, beta)
    rhs = np.zeros_like(Ma)
    for label, coeff in expansion.items():
        rhs = rhs + coeff * module.matrix(label)
    if not np.array_equal(Mb @ Ma, rhs):
        return False
    for label, m in ((alpha, Ma), (beta, Mb)):
        if not np.array_equal(module.matrix(ring.involution_of(label)), m.T):
            return False
    return True


def spectral_radius(matrix: np.ndarray) -> float | np.ndarray:
    """The l2 operator norm of a nonnegative square matrix, by LAPACK's SVD;
    on a stack (..., n, n), an array of one norm per matrix, from one call.

    On symmetric input, and on the fusion and action matrices of verified
    rings and modules, this is the Perron radius.
    """
    M = np.asarray(matrix, dtype=np.float64)
    if M.ndim < 2 or M.shape[-2] != M.shape[-1]:
        raise ValueError("spectral_radius needs a square matrix")
    if (M < 0).any():
        raise ValueError("spectral_radius needs a nonnegative matrix")
    radii = np.linalg.norm(M, 2, axis=(-2, -1)) if M.shape[-1] else np.zeros(M.shape[:-2])
    return float(radii) if M.ndim == 2 else radii


def perron_vector(C: np.ndarray) -> np.ndarray:
    """Unit eigenvector of the top eigenvalue of the symmetric matrix ``C``,
    signed so that its entries sum to a nonnegative number."""
    _, V = np.linalg.eigh(C)
    v = V[:, -1]
    return -v if v.sum() < 0 else v


def _norm_class(m: np.ndarray) -> str:
    """``lt2``, ``eq2`` or ``gt2``: the Perron root of the connected
    nonnegative symmetric integer matrix ``m`` against 2, decided exactly.

    A fraction-free (Bareiss) elimination of 2I - M over Python ints, with
    no row swaps: its pivots are the leading principal minors of 2I - M,
    and by Sylvester's identity each division by the previous pivot is
    exact.  A proper principal submatrix of a connected nonnegative matrix
    has a strictly smaller Perron root, so a pivot <= 0 before the last
    means gt2; otherwise the sign of the last pivot (the determinant)
    decides.  Rows are dicts of their entries from the diagonal on: an
    absent entry a_ij with a_ik * a_kj = 0 stays zero, so the work grows
    with the nonzero entries (fill included), not with n^3.
    """
    n = m.shape[0]
    rows = [{} for _ in range(n)]
    for i, j in zip(*np.nonzero(m)):
        rows[i][int(j)] = -int(m[i, j])
    for i, row in enumerate(rows):
        row[i] = 2 + row.get(i, 0)
    prev = 1
    for k in range(n - 1):
        pivot_row = rows[k]
        pivot = pivot_row.pop(k)
        if pivot <= 0:
            return "gt2"
        for i in range(k + 1, n):
            row = rows[i]
            a_ik = row.pop(k, 0)
            for j in row:
                row[j] *= pivot
            if a_ik:
                for j, x in pivot_row.items():
                    row[j] = row.get(j, 0) - a_ik * x
            rows[i] = {j: x // prev for j, x in row.items()}
        prev = pivot
    det = rows[n - 1][n - 1]
    return "lt2" if det > 0 else "eq2" if det == 0 else "gt2"


@dataclass(frozen=True)
class DynkinVerdict:
    """Structural verdict on a connected symmetrized graph.

    ``kind`` names the matched family; ``size`` is the family parameter
    (subscript) when meaningful; ``norm_class`` is one of ``lt2``, ``eq2``,
    ``gt2``.  ``certificate`` carries a Collatz-Wielandt vector for a graph
    of norm > 2, when the float Perron vector confirms it.
    """

    kind: str
    size: int | None
    norm_class: str
    certificate: tuple[float, ...] | None = None

    def describe(self) -> str:
        cmp = {"lt2": "norm < 2", "eq2": "norm = 2", "gt2": "norm > 2"}[self.norm_class]
        if self.kind == "A_n":
            return f"A_{self.size} ({cmp})"
        if self.kind == "D_n":
            return f"D_{self.size} ({cmp})"
        if self.kind in ("E6", "E7", "E8"):
            return f"{self.kind} ({cmp})"
        if self.kind == "tadpole":
            return f"tadpole T_{self.size} ({cmp})"
        if self.kind == "extended_A":
            return f"extended Dynkin A~{self.size} cycle ({cmp})"
        if self.kind == "extended_D":
            return f"extended Dynkin D~{self.size} ({cmp})"
        if self.kind in ("extended_E6", "extended_E7", "extended_E8"):
            return f"extended Dynkin {self.kind[-2:].upper()}~ ({cmp})"
        if self.kind == "loop_norm2":
            return f"loop-type norm-2 graph ({cmp})"
        if self.kind == "a_infinity":
            return f"A-infinity truncation ({cmp})"
        return "norm exceeds 2"


def dynkin_classify(graph: FusionGraph) -> DynkinVerdict:
    """Recognize a connected symmetrized graph within the norm <= 2 landscape.

    The norm class always comes from :func:`_norm_class`, one integer
    elimination of 2I - M; the shape only names the graph.  Below 2 a
    connected graph is A, D, E or a tadpole, and at 2 a cycle, an extended
    D or E, the double edge or a loop-type graph (Goodman, de la Harpe and
    Jones, *Coxeter Graphs and Towers of Algebras*, 1989); a proper
    connected supergraph of a norm-2 graph has norm > 2, so at 2 two loops
    make the looped path and a multi-edge the double edge.  Above 2 a float
    Perron vector is attached as a Collatz-Wielandt certificate when it
    confirms the class.  A path whose ends are marked truncation boundary
    vertices, but for at most one, is named an A-infinity truncation first.
    """
    if graph.size == 0:
        raise ValueError("cannot classify the empty graph")
    if not graph.is_symmetric():
        raise ValueError("classification needs a symmetrized graph")
    if not graph.is_connected():
        raise ValueError("classification needs a connected graph")

    m = graph.matrix
    n = graph.size

    if graph.boundary and a_infinity_check(graph):
        return DynkinVerdict("a_infinity", n, "lt2")

    norm_class = _norm_class(m)
    if norm_class == "gt2":
        # Collatz-Wielandt from below: min over the support of (Mv)_i / v_i > 2
        v = perron_vector(m)
        support = v > 1e-12
        ratios = (m @ v)[support] / v[support]
        certificate = tuple(float(x) for x in v) if ratios.min() > 2.0 else None
        return DynkinVerdict("norm_exceeds_2", None, "gt2", certificate)

    loops = int(np.count_nonzero(np.diag(m)))
    off = m - np.diag(np.diag(m))
    branches = np.flatnonzero(np.count_nonzero(off, axis=1) >= 3).tolist()
    legs = ()
    if len(branches) == 1:
        rest = [v for v in range(n) if v != branches[0]]
        edges = [(i, j) for i, j in np.argwhere(off).tolist() if branches[0] not in (i, j)]
        legs = tuple(sorted(len(c) for c in components(rest, edges)))
    if norm_class == "lt2":
        if loops:
            return DynkinVerdict("tadpole", n, "lt2")
        if not branches:
            return DynkinVerdict("A_n", n, "lt2")
        if legs[:2] == (1, 1):
            return DynkinVerdict("D_n", n, "lt2")
        return DynkinVerdict({(1, 2, 2): "E6", (1, 2, 3): "E7", (1, 2, 4): "E8"}[legs], None, "lt2")
    if loops:
        return DynkinVerdict("loop_norm2", n if n == 1 or loops == 2 else None, "eq2")
    if off.max() > 1:
        return DynkinVerdict("extended_A", 1, "eq2")
    if not branches:
        return DynkinVerdict("extended_A", n - 1, "eq2")
    if len(branches) == 2 or len(legs) == 4:
        return DynkinVerdict("extended_D", n - 1, "eq2")
    kind = {(2, 2, 2): "extended_E6", (1, 3, 3): "extended_E7", (1, 2, 5): "extended_E8"}[legs]
    return DynkinVerdict(kind, None, "eq2")


def a_infinity_check(graph: FusionGraph) -> bool:
    """True when the graph is a truncated half-line.

    The symmetrized graph must be a simple path: connected, with no loops,
    no multi-edges, every degree at most 2 and n - 1 edges.  Its ends (the
    vertices of degree at most 1) must be marked truncation boundary
    vertices, except for at most one, the origin.
    """
    m = symmetrize(graph).matrix
    degree = m.sum(axis=1)
    if not graph.is_connected() or np.diag(m).any() or m.max() > 1 or degree.max() > 2:
        return False
    if degree.sum() != 2 * (graph.size - 1):
        return False
    return sum(graph.vertices[i] not in graph.boundary for i in np.flatnonzero(degree <= 1)) <= 1


def export_dot(graph: FusionGraph) -> str:
    """Deterministic DOT text: one edge statement per unit of multiplicity.

    Directed graphs emit a ``digraph`` with every matrix entry; symmetrized
    graphs emit a ``graph`` with each unordered pair once per multiplicity.
    UTF-8, LF line endings, two-space indent.
    """
    lines = []
    kind = "digraph" if graph.directed else "graph"
    arrow = "->" if graph.directed else "--"
    lines.append(f"{kind} fusion {{")
    for i, v in enumerate(graph.vertices):
        if graph.weights is not None:
            lines.append(f'  "{v}" [label="{v} d={graph.weights[i]:.10g}"];')
        else:
            lines.append(f'  "{v}";')
    m = graph.matrix
    n = graph.size
    for i in range(n):
        rng = range(n) if graph.directed else range(i, n)
        for j in rng:
            for _ in range(int(m[i, j])):
                lines.append(f'  "{graph.vertices[i]}" {arrow} "{graph.vertices[j]}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class SchurCheck:
    """Outcome of the eigenvector and norm-bound test for one ring label."""

    label: str
    dimension: float
    radius: float
    max_relative_error: float
    rows_checked: int
    eigen_ok: bool
    norm_ok: bool

    @property
    def ok(self) -> bool:
        return self.eigen_ok and self.norm_ok

    def line(self) -> str:
        status = "pass" if self.ok else "FAIL"
        return (
            f"{status}  schur[{self.label}]: radius={self.radius:.10g} "
            f"d={self.dimension:.10g} max_rel_err={self.max_relative_error:.3g} "
            f"rows={self.rows_checked}"
        )


def schur_norm_check(module, dims, alpha: str) -> SchurCheck:
    """Verify M D = d(alpha) D on complete rows and the norm bound.

    ``dims`` maps module labels to their dimension values; rows cut by a
    truncation are skipped for the eigen equation, while the radius bound
    uses the full truncated matrix (a compression, so still dominated).
    """
    M = module.matrix(alpha)
    D = np.array([float(dims(b)) for b in module.basis])
    d_alpha = float(dim_of(module.ring, alpha))
    rows = [i for i, b in enumerate(module.basis) if module.row_complete(alpha, b)]
    if rows:
        lhs = (M @ D)[rows]
        rhs = d_alpha * D[rows]
        rel = np.abs(lhs - rhs) / np.maximum(np.abs(rhs), 1.0)
        max_err = float(rel.max())
    else:
        max_err = 0.0
    radius = spectral_radius(M)
    return SchurCheck(
        label=alpha,
        dimension=d_alpha,
        radius=radius,
        max_relative_error=max_err,
        rows_checked=len(rows),
        eigen_ok=max_err <= REL_TOL,
        norm_ok=radius <= d_alpha + REL_TOL,
    )
