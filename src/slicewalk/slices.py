"""Slice distributions over independent sets and their local walk operators.

Three slice families share one vocabulary:

* ``TwoSidedSlice``: uniform over independent sets with exactly k_x vertices
  on the X side and k_y on the Y side of a bipartite graph.
* ``OneSidedSlice``: distribution over k-subsets S of X weighted by the total
  hardcore weight of independent sets whose X part is S, which collapses to
  the closed form fugacity^k * (1+fugacity)^{|Y \\ N[S]|}.
* ``RegularSlice``: uniform over independent sets of size k in an ordinary
  graph.

Each slice carries an optional pinned face: facets are restricted to supersets
of it and every operation conditions on it, which is how links are taken.
Weights are handled in log space with the (1+fugacity) exponent kept as an
integer, so nothing overflows at side sizes in the thousands.

All three share one core over the graph's global vertex ids (X, then Y
offset by the side size): a list of parts (lo, hi, quota), the pinned ids,
and the conversion between ids and the family's public facet format.  The
chains and estimators work on that core only; two-sided and regular slices
are both independent sets with per-part quotas, and the one-sided slice is a
single part with the coverage weight.

Local walk operators on codimension-2 links are built two independent ways:
by exhaustive enumeration (the oracle) and by closed forms (bipartite
complement of the survivor graph for the uniform slices; an explicit
entrywise formula with per-vertex normalizers for the one-sided slice).  The
two constructions are required to agree entrywise to 1e-12.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

from .graphs import BipartiteRegularGraph, RegularGraph, X, Y

ENUMERATION_CAP = 10 ** 6

TwoSidedFacet = tuple[tuple[int, ...], tuple[int, ...]]


class SliceError(ValueError):
    """Structurally invalid slice, face, or link."""


class EnumerationCapError(RuntimeError):
    """State space larger than the configured enumeration cap."""


def _sorted_tuple(items: Iterable[int]) -> tuple[int, ...]:
    return tuple(sorted(items))


def _check_pins(pins: frozenset[int], size: int) -> None:
    """Reject pinned ids outside ``range(size)`` before anything indexes by them."""
    if not all(0 <= v < size for v in pins):
        raise SliceError(f"pinned ids must lie in range({size})")


class _SliceCore:
    """Global-id views shared by the slice families.

    Vertex ids are those of ``graph.global_adj``.  ``parts`` lists each part
    as (lo, hi, quota): a facet holds exactly ``quota`` ids in ``range(lo,
    hi)``.  ``pinned_ids`` is the pinned face, and ``to_ids``/``from_ids``
    convert between a facet (or face) in the family's public format and
    global ids.  The defaults serve the single-set families, whose public
    format already is a tuple of ids.
    """

    @cached_property
    def parts(self) -> tuple[tuple[int, int, int], ...]:
        return ((0, self._part_size, self.k),)

    @cached_property
    def pinned_ids(self) -> frozenset[int]:
        return self.pinned

    @cached_property
    def part_of(self) -> tuple[int, ...]:
        """Index in ``parts`` of each global id that lies in a part."""
        return tuple(i for i, (lo, hi, _) in enumerate(self.parts) for _ in range(lo, hi))

    @property
    def free_size(self) -> int:
        return sum(quota for _, _, quota in self.parts) - len(self.pinned_ids)

    def to_ids(self, facet) -> tuple[int, ...]:
        return tuple(facet)

    def from_ids(self, ids: Iterable[int]):
        return _sorted_tuple(ids)

    def label(self, v: int):
        """Public name of global id ``v``, as used by link operators."""
        return v

    def with_face(self, face):
        """Same slice with ``face``, in the public format, added to the pins."""
        return replace(self, pinned=self.pinned | frozenset(face))


@dataclass(eq=False)
class TwoSidedSlice(_SliceCore):
    graph: BipartiteRegularGraph
    k_x: int
    k_y: int
    pinned_x: frozenset[int] = field(default_factory=frozenset)
    pinned_y: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if not (0 <= self.k_x <= self.graph.n_side and 0 <= self.k_y <= self.graph.n_side):
            raise SliceError("side sizes out of range")
        if len(self.pinned_x) > self.k_x or len(self.pinned_y) > self.k_y:
            raise SliceError("pinned face larger than the slice sizes")
        _check_pins(self.pinned_x | self.pinned_y, self.graph.n_side)
        if self.graph.neighbor_set(X, self.pinned_x) & self.pinned_y:
            raise SliceError("pinned face is not an independent set")

    @cached_property
    def parts(self) -> tuple[tuple[int, int, int], ...]:
        n = self.graph.n_side
        return ((0, n, self.k_x), (n, 2 * n, self.k_y))

    @cached_property
    def pinned_ids(self) -> frozenset[int]:
        return frozenset(self.to_ids((self.pinned_x, self.pinned_y)))

    def to_ids(self, facet) -> tuple[int, ...]:
        xs, ys = facet
        n = self.graph.n_side
        return tuple(xs) + tuple(n + j for j in ys)

    def from_ids(self, ids: Iterable[int]) -> TwoSidedFacet:
        n = self.graph.n_side
        ordered = sorted(ids)
        return (tuple(v for v in ordered if v < n), tuple(v - n for v in ordered if v >= n))

    def label(self, v: int) -> tuple[str, int]:
        n = self.graph.n_side
        return (X, v) if v < n else (Y, v - n)

    def with_face(self, face) -> "TwoSidedSlice":
        fx, fy = face
        return replace(self, pinned_x=self.pinned_x | frozenset(fx),
                       pinned_y=self.pinned_y | frozenset(fy))


@dataclass(eq=False)
class OneSidedSlice(_SliceCore):
    graph: BipartiteRegularGraph
    k: int
    fugacity: float
    pinned: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if not 0 <= self.k <= self.graph.n_side:
            raise SliceError("k out of range")
        if self.fugacity <= 0:
            raise SliceError("fugacity must be positive")
        if len(self.pinned) > self.k:
            raise SliceError("pinned face larger than k")
        _check_pins(self.pinned, self.graph.n_side)

    @property
    def _part_size(self) -> int:
        return self.graph.n_side

    @cached_property
    def class_weights(self) -> tuple[float, ...]:
        """(1+fugacity)^-e for e = 0..degree: the replacement weight of a
        vertex with e uncovered neighbours, relative to one with none."""
        base = 1.0 + self.fugacity
        return tuple(base ** (-e) for e in range(self.graph.degree + 1))


@dataclass(eq=False)
class RegularSlice(_SliceCore):
    graph: RegularGraph
    k: int
    pinned: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if not 0 <= self.k <= self.graph.n:
            raise SliceError("k out of range")
        if len(self.pinned) > self.k:
            raise SliceError("pinned face larger than k")
        _check_pins(self.pinned, self.graph.n)
        pins = sorted(self.pinned)
        for a, b in combinations(pins, 2):
            if b in self.graph.adj[a]:
                raise SliceError("pinned face is not an independent set")

    @property
    def _part_size(self) -> int:
        return self.graph.n


Slice = TwoSidedSlice | OneSidedSlice | RegularSlice


# -- weights ---------------------------------------------------------------------


def one_sided_log_weight(slc: OneSidedSlice, s: Iterable[int]) -> float:
    """log of fugacity^k * (1+fugacity)^{|Y \\ N[S]|} for a k-subset S of X.

    Equals the log of the exact sum of fugacity^{|I|} over independent sets I
    with I ∩ X = S: every subset of the uncovered Y vertices completes S.
    """
    s_set = frozenset(s)
    if len(s_set) != slc.k:
        raise SliceError(f"|S| = {len(s_set)} but the slice has k = {slc.k}")
    uncovered = slc.graph.n_side - len(slc.graph.neighbor_set(X, s_set))
    return slc.k * math.log(slc.fugacity) + uncovered * math.log1p(slc.fugacity)


def one_sided_weight(slc: OneSidedSlice, s: Iterable[int]) -> float:
    return math.exp(one_sided_log_weight(slc, s))


def facet_log_weight(slc: Slice, facet) -> float:
    if isinstance(slc, OneSidedSlice):
        return one_sided_log_weight(slc, facet)
    return 0.0  # uniform families


# -- enumeration -------------------------------------------------------------------


def enumerate_facets(slc: Slice, cap: int = ENUMERATION_CAP) -> list:
    """Exhaustive, duplicate-free, lexicographically ordered facet list."""
    if isinstance(slc, OneSidedSlice):
        free = sorted(set(range(slc.graph.n_side)) - slc.pinned)
        need = slc.free_size
        if math.comb(len(free), need) > cap:
            raise EnumerationCapError("one-sided slice exceeds the enumeration cap")
        base = _sorted_tuple(slc.pinned)
        return [_sorted_tuple(base + extra) for extra in combinations(free, need)]
    if isinstance(slc, TwoSidedSlice):
        return _two_sided_facets(slc, cap)
    return _regular_facets(slc, cap)


def _two_sided_facets(slc: TwoSidedSlice, cap: int) -> list[TwoSidedFacet]:
    g = slc.graph
    n = g.n_side
    need_x = slc.k_x - len(slc.pinned_x)
    need_y = slc.k_y - len(slc.pinned_y)
    blocked_x = g.neighbor_set(Y, slc.pinned_y)
    x_cands = [i for i in range(n) if i not in slc.pinned_x and i not in blocked_x]
    base_x = _sorted_tuple(slc.pinned_x)
    base_y = _sorted_tuple(slc.pinned_y)
    out: list[TwoSidedFacet] = []
    for extra_x in combinations(x_cands, need_x):
        xs = _sorted_tuple(base_x + extra_x)
        blocked_y = g.neighbor_set(X, xs)
        if blocked_y & slc.pinned_y:
            continue
        y_cands = [j for j in range(n) if j not in slc.pinned_y and j not in blocked_y]
        for extra_y in combinations(y_cands, need_y):
            out.append((xs, _sorted_tuple(base_y + extra_y)))
            if len(out) > cap:
                raise EnumerationCapError("two-sided slice exceeds the enumeration cap")
    return out


def _regular_facets(slc: RegularSlice, cap: int) -> list[tuple[int, ...]]:
    g = slc.graph
    masks = g.masks
    pin_mask = 0
    for v in slc.pinned:
        pin_mask |= 1 << v
    blocked = pin_mask
    for v in slc.pinned:
        blocked |= masks[v]
    out: list[tuple[int, ...]] = []
    base = _sorted_tuple(slc.pinned)
    need = slc.free_size

    def grow(start: int, chosen: tuple[int, ...], taboo: int) -> None:
        if len(chosen) == need:
            out.append(_sorted_tuple(base + chosen))
            if len(out) > cap:
                raise EnumerationCapError("regular slice exceeds the enumeration cap")
            return
        for v in range(start, g.n):
            if not (taboo >> v) & 1:
                grow(v + 1, chosen + (v,), taboo | (1 << v) | masks[v])

    grow(0, (), blocked)
    return out


def exact_distribution(slc: Slice, cap: int = ENUMERATION_CAP):
    """(facets, probabilities) with probabilities normalized in log space."""
    facets = enumerate_facets(slc, cap)
    if not facets:
        raise SliceError("slice has no facets (disconnected or infeasible parameters)")
    logw = np.array([facet_log_weight(slc, f) for f in facets])
    probs = np.exp(logw - logw.max())
    probs /= probs.sum()
    return facets, probs


# -- links -------------------------------------------------------------------------


def link(slc: Slice, face, *, check_nonempty: bool = True) -> Slice:
    """Same slice family with the pinned face extended by ``face``.

    Facet weights of the result are the conditionals of the parent slice.
    With ``check_nonempty``, a link that greedy search cannot complete is
    enumerated: SliceError when it has no facet, EnumerationCapError when it
    is too large to enumerate, so its emptiness is undecided.
    """
    out = slc.with_face(face)
    if check_nonempty and greedy_facet(out, np.random.Generator(np.random.PCG64(0))) is None:
        try:
            facets = enumerate_facets(out, ENUMERATION_CAP)
        except EnumerationCapError:
            raise EnumerationCapError(
                "greedy search found no facet and the link exceeds the enumeration "
                "cap, so whether it is empty is undecided") from None
        if not facets:
            raise SliceError("face does not extend to any facet (empty link)")
    return out


def greedy_facet(slc: Slice, rng: np.random.Generator, restarts: int = 64):
    """Randomized greedy completion of the pinned face to a facet, or None.

    One-sided slices always succeed in a single uniform draw; the independent
    set families shuffle the free vertices and insert each one whose part
    quota is unmet and which has no neighbor in the set, with restarts.
    """
    pinned = slc.pinned_ids
    if isinstance(slc, OneSidedSlice):
        free = [v for v in range(slc.graph.n_side) if v not in pinned]
        if len(free) < slc.free_size:
            return None
        pick = rng.choice(len(free), size=slc.free_size, replace=False) if slc.free_size else []
        return _sorted_tuple(set(pinned) | {free[int(i)] for i in pick})
    adj = slc.graph.global_adj
    verts = [(v, p) for p, (lo, hi, _) in enumerate(slc.parts)
             for v in range(lo, hi) if v not in pinned]
    quota = [q - sum(1 for v in pinned if lo <= v < hi) for lo, hi, q in slc.parts]
    size = len(pinned) + sum(quota)
    for _ in range(restarts):
        order = rng.permutation(len(verts))
        chosen = set(pinned)
        need = list(quota)
        for t in order:
            if len(chosen) == size:
                break
            v, p = verts[int(t)]
            if need[p] and chosen.isdisjoint(adj[v]):
                chosen.add(v)
                need[p] -= 1
        if len(chosen) == size:
            return slc.from_ids(chosen)
    return None


# -- local walk operators ------------------------------------------------------------


@dataclass(eq=False)
class LinkOperator:
    """Random walk on the 1-skeleton of a codimension-2 link.

    ``ground`` orders the link vertices; ``matrix`` is the row-stochastic walk,
    ``pi`` its stationary distribution.  For one-sided links the per-vertex
    normalizers ``z_vertex`` and their weighted total ``z_total`` are kept,
    since the spectral analysis is phrased in terms of them.  ``dropped``
    lists candidate vertices excluded because they are isolated in the link.
    """

    ground: tuple
    matrix: np.ndarray
    pi: np.ndarray
    z_total: float | None = None
    z_vertex: np.ndarray | None = None
    dropped: tuple = ()

    def validate(self, tol: float = 1e-12) -> None:
        m = len(self.ground)
        if self.matrix.shape != (m, m) or self.pi.shape != (m,):
            raise ValueError("shape mismatch")
        if np.max(np.abs(self.matrix.sum(axis=1) - 1.0)) > tol:
            raise ValueError("rows do not sum to 1")
        if np.any(self.pi <= 0) or abs(self.pi.sum() - 1.0) > tol:
            raise ValueError("pi is not a positive probability vector")
        flow = self.pi[:, None] * self.matrix
        if np.max(np.abs(flow - flow.T)) > tol:
            raise ValueError("detailed balance violated")


def local_walk_exact(slc: Slice, face=None, cap: int = ENUMERATION_CAP) -> LinkOperator:
    """Walk operator of a codimension-2 link built by exhaustive enumeration.

    Entries are P(u, v) = Pr[v in the facet | the face plus u is pinned], and
    pi(u) = Pr[u in the facet | the face is pinned] / 2.  This is the oracle
    the closed forms are checked against.
    """
    slc2 = link(slc, face, check_nonempty=False) if face is not None else slc
    if slc2.free_size != 2:
        raise SliceError("local walk operators are defined for codimension 2 only")
    facets = enumerate_facets(slc2, cap)
    if not facets:
        raise SliceError("empty link")
    pairs: dict[int, dict[int, float]] = {}
    logw = [facet_log_weight(slc2, f) for f in facets]
    shift = max(logw)
    for f, lw in zip(facets, logw):
        u, v = _free_pair(slc2, f)
        w = math.exp(lw - shift)
        pairs.setdefault(u, {})[v] = w
        pairs.setdefault(v, {})[u] = w
    ids = sorted(pairs)
    if len(ids) < 2:
        raise SliceError("singleton link")
    index = {u: i for i, u in enumerate(ids)}
    mat = np.zeros((len(ids), len(ids)))
    for u, row in pairs.items():
        for v, w in row.items():
            mat[index[u], index[v]] = w
    pi = mat.sum(axis=1)
    pi /= pi.sum()
    p = mat / mat.sum(axis=1, keepdims=True)
    return LinkOperator(tuple(slc2.label(u) for u in ids), p, pi)


def _free_pair(slc: Slice, facet) -> tuple[int, int]:
    """Global ids of the two non-pinned members of a codimension-2 facet."""
    free = [v for v in slc.to_ids(facet) if v not in slc.pinned_ids]
    if len(free) != 2:
        raise SliceError("facet does not have exactly two free elements")
    return free[0], free[1]


def _degree_walk(labels: Sequence, adjacency: np.ndarray) -> LinkOperator:
    """Simple random walk P = D^{-1} A on the non-isolated part of a graph."""
    deg = adjacency.sum(axis=1)
    keep = deg > 0
    dropped = tuple(lab for lab, k in zip(labels, keep) if not k)
    if int(keep.sum()) < 2:
        raise SliceError("empty link: all candidate vertices eliminated")
    sub = adjacency[np.ix_(keep, keep)]
    deg = sub.sum(axis=1)
    p = sub / deg[:, None]
    pi = deg / deg.sum()
    ground = tuple(lab for lab, k in zip(labels, keep) if k)
    return LinkOperator(ground, p, pi, dropped=dropped)


def two_sided_link_walk_closed_form(slc: TwoSidedSlice, tau_x: Iterable[int],
                                    tau_y: Iterable[int]) -> LinkOperator:
    """Cross-side codimension-2 walk from the survivor-complement construction.

    After deleting the face and its neighborhoods, the link skeleton is the
    bipartite complement of what is left of the graph, so the walk is the
    degree-normalized adjacency of that complement, up to empty rows and
    columns (isolated survivors are dropped and reported).
    """
    g = slc.graph
    tx, ty = frozenset(tau_x), frozenset(tau_y)
    if len(tx) != slc.k_x - 1 or len(ty) != slc.k_y - 1:
        raise SliceError("face must have k_x - 1 and k_y - 1 vertices per side")
    if g.neighbor_set(X, tx) & ty:
        raise SliceError("face is not an independent set")
    surv_x = sorted(set(range(g.n_side)) - tx - g.neighbor_set(Y, ty))
    surv_y = sorted(set(range(g.n_side)) - ty - g.neighbor_set(X, tx))
    labels = [(X, i) for i in surv_x] + [(Y, j) for j in surv_y]
    nx = len(surv_x)
    b = g.biadjacency()[np.ix_(surv_x, surv_y)]
    comp = 1.0 - b
    adjacency = np.zeros((len(labels), len(labels)))
    adjacency[:nx, nx:] = comp
    adjacency[nx:, :nx] = comp.T
    return _degree_walk(labels, adjacency)


def regular_link_walk_closed_form(slc: RegularSlice, tau: Iterable[int]) -> LinkOperator:
    """Codimension-2 walk for the uniform slice of an ordinary graph.

    The skeleton is the complement of the graph induced on the survivors
    V \\ (tau ∪ N[tau]), again up to empty rows and columns.
    """
    g = slc.graph
    t = frozenset(tau)
    if len(t) != slc.k - 2:
        raise SliceError("face must have k - 2 vertices")
    for a in t:
        if set(g.adj[a]) & t:
            raise SliceError("face is not an independent set")
    survivors = sorted(set(range(g.n)) - g.neighbor_set(t, closed=True))
    m = len(survivors)
    a_ind = g.adjacency()[np.ix_(survivors, survivors)]
    comp = np.ones((m, m)) - np.eye(m) - a_ind
    return _degree_walk(survivors, comp)


@dataclass(eq=False)
class NeighborGraph:
    """Common-survivor-neighbor counts |N_tau(u) ∩ N_tau(v)| on X \\ tau.

    Neighborhoods are taken outside N[tau]; the diagonal is zero by the
    convention of the entrywise weight exponential built from this matrix.
    """

    ground: tuple[int, ...]
    counts: np.ndarray  # integer entries, zero diagonal
    survivor_degrees: np.ndarray  # |N_tau(u)| per ground vertex

    def weight_exponential(self, fugacity: float) -> np.ndarray:
        """(1+fugacity) raised entrywise to the counts, with a zero diagonal."""
        e = np.power(1.0 + fugacity, self.counts.astype(float))
        np.fill_diagonal(e, 0.0)
        return e


def neighbor_graph(slc: OneSidedSlice, tau: Iterable[int]) -> NeighborGraph:
    g = slc.graph
    t = frozenset(tau)
    ground = tuple(sorted(set(range(g.n_side)) - t))
    free_y = sorted(set(range(g.n_side)) - g.neighbor_set(X, t))
    b = g.biadjacency()[np.ix_(ground, free_y)]
    counts = (b @ b.T).astype(np.int64)
    degs = np.diag(counts).copy()
    np.fill_diagonal(counts, 0)
    return NeighborGraph(ground, counts, degs)


def one_sided_link_walk_closed_form(slc: OneSidedSlice, tau: Iterable[int]) -> LinkOperator:
    """Entrywise closed form for codimension-2 links of the one-sided slice.

    With c = 1 + fugacity and survivor neighborhoods N_tau(.) = N(.) \\ N[tau]:

        P(u, v) = c^(-|N_tau(v)| + |N_tau(u) ∩ N_tau(v)|) / Z_u
        pi(u)   = c^(-|N_tau(u)|) * Z_u / Z

    where Z_u normalizes row u and Z = sum_u c^(-|N_tau(u)|) Z_u.  The ground
    set is all of X \\ tau: every entry is positive, so nothing is dropped.
    """
    t = frozenset(tau)
    if slc.k < 2 or len(t) != slc.k - 2:
        raise SliceError("face must have k - 2 vertices and k must be at least 2")
    nbr = neighbor_graph(slc, t)
    m = len(nbr.ground)
    if m < 2:
        raise SliceError("link has fewer than two vertices")
    c = 1.0 + slc.fugacity
    # Row u holds c^(-n_v + common(u, v)); exponents are bounded by the degree.
    expo = nbr.counts - nbr.survivor_degrees[None, :]
    w = np.power(c, expo.astype(float))
    np.fill_diagonal(w, 0.0)
    z_vertex = w.sum(axis=1)
    p = w / z_vertex[:, None]
    weights = np.power(c, -nbr.survivor_degrees.astype(float)) * z_vertex
    z_total = float(weights.sum())
    pi = weights / z_total
    return LinkOperator(nbr.ground, p, pi, z_total=z_total, z_vertex=z_vertex)
