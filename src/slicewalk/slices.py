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
offset by the side size): a list of parts (lo, hi, quota) and the pinned
ids.  Inside the package a facet or face is an ascending tuple of global
ids, enumerated by ``_facet_ids`` and pinned by ``pin``; the family's public
format (``(xs, ys)`` for the two-sided slice) is made only by the public
functions that take or hand out one: ``enumerate_facets``,
``exact_distribution``, ``greedy_facet``, ``with_face`` and ``link``.  Two-sided
and regular slices are both independent sets with per-part quotas, and the
one-sided slice is a single part with the coverage weight.

Local walk operators on codimension-2 links are built two independent ways:
by exhaustive enumeration (the oracle) and by closed forms.  One
survivor-complement construction on the global-id core serves both uniform
slices and every face kind (two-sided cross and same-side faces, regular
faces): the ids left in parts with quota left, minus the face and its
neighbors, joined wherever they are non-adjacent and fit the remaining
quotas.  The one-sided slice has an explicit entrywise formula with
per-vertex normalizers, read off the face's common-neighbor graph.  The two
constructions are required to agree entrywise to 1e-12.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

from .graphs import BipartiteRegularGraph, RegularGraph, X, Y

ENUMERATION_CAP = 10 ** 6
EMPTY_LINK = "empty link: all candidate vertices eliminated"
# Largest row-sum, normalization or detailed-balance error LinkOperator.validate accepts.
OPERATOR_TOL = 1e-12

TwoSidedFacet = tuple[tuple[int, ...], tuple[int, ...]]


class SliceError(ValueError):
    """Structurally invalid slice, face, or link."""


class EnumerationCapError(RuntimeError):
    """State space larger than the configured enumeration cap."""


def _check_pins(pins: frozenset[int], size: int) -> None:
    """Reject pinned ids outside ``range(size)`` before anything indexes by them."""
    if not all(0 <= v < size for v in pins):
        raise SliceError(f"pinned ids must lie in range({size})")


class _SliceCore:
    """Global-id views shared by the slice families.

    Vertex ids are those of ``graph.global_adj``.  ``parts`` lists each part
    as (lo, hi, quota): a facet holds exactly ``quota`` ids in ``range(lo,
    hi)``.  ``pinned_ids`` is the pinned face, ``pin`` adds ids to it, and
    ``to_ids``/``from_ids`` convert between a facet (or face) in the
    family's public format and global ids.  The defaults serve the
    single-set families, whose public format already is a tuple of ids.
    """

    coverage_weighted = False  # the chain kernel: uniform under part quotas
    stream_tags = ("v",)  # sample-stream tag of each equal block of global ids

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

    @cached_property
    def adjacency(self) -> np.ndarray:
        """``graph.adjacency()``: the dense 0/1 matrix over global ids."""
        return self.graph.adjacency()

    @property
    def free_size(self) -> int:
        return sum(quota for _, _, quota in self.parts) - len(self.pinned_ids)

    def to_ids(self, facet) -> tuple[int, ...]:
        return tuple(facet)

    def from_ids(self, ids: Iterable[int]):
        return tuple(sorted(ids))

    def label(self, v: int):
        """Public name of global id ``v``, as used by link operators."""
        return v

    def pin(self, ids: Iterable[int]):
        """Same slice with the global ids ``ids`` added to the pins."""
        return replace(self, pinned=self.pinned | frozenset(ids))

    def with_face(self, face):
        """Same slice with ``face``, in the public format, added to the pins."""
        return self.pin(self.to_ids(face))

    def log_weights(self, facets: Sequence[Sequence[int]]) -> np.ndarray:
        """Log weight of each facet (global ids), as one array: 0 for uniform families."""
        return np.zeros(len(facets))

    def greedy_order(self, rng: np.random.Generator, count: int):
        """Order in which greedy completion tries the ``count`` free ids."""
        return rng.permutation(count)


@dataclass(eq=False)
class TwoSidedSlice(_SliceCore):
    graph: BipartiteRegularGraph
    k_x: int
    k_y: int
    pinned_x: frozenset[int] = field(default_factory=frozenset)
    pinned_y: frozenset[int] = field(default_factory=frozenset)

    stream_tags = (X, Y)

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
        n = self.graph.n_side
        return self.pinned_x.union(n + j for j in self.pinned_y)

    def to_ids(self, facet) -> tuple[int, ...]:
        xs, ys = facet
        n = self.graph.n_side
        return tuple(xs) + tuple(n + j for j in ys)

    def from_ids(self, ids: Iterable[int]) -> TwoSidedFacet:
        n = self.graph.n_side
        ordered = sorted(ids)
        cut = bisect_left(ordered, n)
        return tuple(ordered[:cut]), tuple(v - n for v in ordered[cut:])

    def label(self, v: int) -> tuple[str, int]:
        n = self.graph.n_side
        return (X, v) if v < n else (Y, v - n)

    def pin(self, ids: Iterable[int]) -> "TwoSidedSlice":
        n = self.graph.n_side
        ids = frozenset(ids)
        return replace(self, pinned_x=self.pinned_x | {v for v in ids if v < n},
                       pinned_y=self.pinned_y | {v - n for v in ids if v >= n})


@dataclass(eq=False)
class OneSidedSlice(_SliceCore):
    graph: BipartiteRegularGraph
    k: int
    fugacity: float
    pinned: frozenset[int] = field(default_factory=frozenset)

    coverage_weighted = True
    stream_tags = (X, Y)  # a facet is an X part with an empty Y part

    def __post_init__(self) -> None:
        if not 0 <= self.k <= self.graph.n_side:
            raise SliceError("k out of range")
        if not (math.isfinite(self.fugacity) and self.fugacity > 0):
            raise SliceError(f"fugacity must be a positive finite number, got {self.fugacity}")
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

    @cached_property
    def powers(self) -> np.ndarray:
        """(1+fugacity)^e for e = -degree..degree, at index degree + e: every
        power the closed-form link walk and the weight exponential take.

        SliceError when (1+fugacity)^degree overflows float64, where the walk
        would hold inf and nan entries."""
        d = self.graph.degree
        with np.errstate(over="ignore"):
            table = np.power(1.0 + self.fugacity, np.arange(-d, d + 1, dtype=float))
        if not np.isfinite(table[-1]):
            raise SliceError(f"fugacity {self.fugacity} is too large for the closed-form link "
                             f"walk: (1 + fugacity)^{d} overflows float64")
        return table

    def log_weight(self, s: Iterable[int]) -> float:
        """log of fugacity^k * (1+fugacity)^{|Y \\ N[S]|} for a k-subset S of X.

        Equals the log of the exact sum of fugacity^{|I|} over independent sets
        I with I ∩ X = S: every subset of the uncovered Y vertices completes S.
        """
        s_set = frozenset(s)
        if len(s_set) != self.k:
            raise SliceError(f"|S| = {len(s_set)} but the slice has k = {self.k}")
        return float(self.log_weights([sorted(s_set)])[0])

    def log_weights(self, facets: Sequence[Sequence[int]]) -> np.ndarray:
        """``log_weight`` of each facet, from one array of their uncovered counts."""
        ids = np.array(facets, dtype=np.intp).reshape(len(facets), self.k)
        return self.k * math.log(self.fugacity) + self.uncovered(ids) * math.log1p(self.fugacity)

    def uncovered(self, sets: np.ndarray) -> np.ndarray:
        """|Y \\ N(S)| of each set S of X ids, one per row of ``sets``."""
        n = self.graph.n_side
        biadjacency = self.adjacency[:n, n:] > 0
        covered = np.zeros((len(sets), n), dtype=bool)
        for column in sets.T:
            covered |= biadjacency[column]
        return n - covered.sum(axis=1)

    def greedy_order(self, rng: np.random.Generator, count: int):
        """No two X ids conflict, so one uniform draw of the free size completes
        the face."""
        return rng.choice(count, size=self.free_size, replace=False) if self.free_size else ()


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


# -- enumeration -------------------------------------------------------------------


def enumerate_facets(slc: Slice) -> list:
    """Every facet in the family's public format, in ``_facet_ids`` order;
    EnumerationCapError past ``ENUMERATION_CAP`` facets."""
    return [slc.from_ids(ids) for ids in _facet_ids(slc, ENUMERATION_CAP)]


def _facet_ids(slc: Slice, cap: int) -> list[tuple[int, ...]]:
    """Every facet as a tuple of global ids in ascending order, the parts
    filled in order, each lexicographically; EnumerationCapError past ``cap``.

    The one-sided slice is its single X part: X has no internal edges, so
    every k-subset of it is independent.
    """
    pins = slc.pinned_ids
    parts = [(lo, hi, quota - sum(1 for v in pins if lo <= v < hi))
             for lo, hi, quota in slc.parts]
    sets = independent_sets(slc.graph.global_adj, parts, pins, cap)
    return [tuple(sorted(pins.union(ids))) for ids in sets] if pins else sets


def independent_sets(adj: Sequence[Sequence[int]], parts: Sequence[tuple[int, int, int]],
                     pins: Iterable[int], cap: int) -> list[tuple[int, ...]]:
    """Id sets, independent together with ``pins``, taking ``need`` ids from
    each part ``(lo, hi, need)`` of ``range(lo, hi)``.

    Parts are filled in the order given, each in lexicographic order;
    EnumerationCapError is raised past ``cap`` sets.
    """
    out: list[tuple[int, ...]] = []
    closed: dict[int, int] = {}  # bitmask of each visited id and its neighbors

    def grow(i: int, start: int, need: int, chosen: tuple[int, ...], taboo: int) -> None:
        if need == 0:
            if i + 1 < len(parts):
                grow(i + 1, parts[i + 1][0], parts[i + 1][2], chosen, taboo)
                return
            out.append(chosen)
            if len(out) > cap:
                raise EnumerationCapError("slice exceeds the enumeration cap")
            return
        for v in range(start, parts[i][1]):
            if not (taboo >> v) & 1:
                if v not in closed:
                    closed[v] = sum(1 << u for u in adj[v]) | 1 << v
                grow(i, v + 1, need - 1, chosen + (v,), taboo | closed[v])

    taboo = 0
    for v in pins:
        taboo |= sum(1 << u for u in adj[v]) | 1 << v
    grow(0, parts[0][0], parts[0][2], (), taboo)
    return out


def exact_distribution(slc: Slice):
    """(facets, probabilities) with probabilities normalized in log space."""
    facets, _, probs = _facet_weights(slc, ENUMERATION_CAP)
    return [slc.from_ids(f) for f in facets], probs


def _facet_weights(slc: Slice, cap: int):
    """(facets, log weights, probabilities): the facets of ``_facet_ids``,
    their log weights, and the weights relative to the heaviest, exp(log
    weight - max log weight), normalized."""
    facets = _facet_ids(slc, cap)
    if not facets:
        raise SliceError("slice has no facets (disconnected or infeasible parameters)")
    logw = slc.log_weights(facets)
    weights = np.exp(logw - logw.max())
    return facets, logw, weights / weights.sum()


def _free_ids(slc: Slice, facets: list[tuple[int, ...]]) -> np.ndarray:
    """(facets, free size) array of the free ids of each facet, given as
    ascending global ids."""
    ids = np.array(facets, np.intp)
    pinned = np.zeros(len(slc.graph.global_adj), bool)
    pinned[list(slc.pinned_ids)] = True
    return ids[~pinned[ids]].reshape(len(facets), slc.free_size)


def _open_ids(slc: Slice) -> list[tuple[list[int], int]]:
    """Each part's candidate ids, those neither pinned nor next to a pinned
    id, ascending, with the number of them a facet holds."""
    adj = slc.graph.global_adj
    pinned = slc.pinned_ids
    blocked = set(pinned).union(*(adj[v] for v in pinned))
    return [([v for v in range(lo, hi) if v not in blocked],
             quota - sum(1 for v in pinned if lo <= v < hi)) for lo, hi, quota in slc.parts]


def _facet_bound(slc: Slice) -> tuple[int, bool]:
    """(bound, exact): an upper bound on the facet count, the ways to fill
    each part's quota from its candidate ids (``_open_ids``), and whether it
    is the count itself, which it is when no two candidates are adjacent, as
    on a one-sided slice."""
    adj = slc.graph.global_adj
    opens = _open_ids(slc)
    cands = set().union(*(ids for ids, _ in opens))
    bound = math.prod(math.comb(len(ids), need) for ids, need in opens)
    return bound, not any(u in cands for v in cands for u in adj[v])


def _law_within(slc: Slice, cap: int):
    """``_facet_weights(slc, cap)``, or None past ``cap`` facets: a cap below 1 or
    an exact facet bound above it enumerates nothing, and otherwise the
    enumeration stops past the cap.  SliceError when the slice has no facet."""
    if cap <= 0:
        return None
    bound, exact = _facet_bound(slc)
    if exact and bound > cap:
        return None
    try:
        return _facet_weights(slc, cap)
    except EnumerationCapError:
        return None


# -- links -------------------------------------------------------------------------


def link(slc: Slice, face) -> Slice:
    """Same slice family with the pinned face extended by ``face``.

    Facet weights of the result are the conditionals of the parent slice.
    A link that greedy search cannot complete is enumerated: SliceError when
    it has no facet, EnumerationCapError when it is too large to enumerate,
    so its emptiness is undecided.
    """
    out = slc.with_face(face)
    if greedy_facet(out, np.random.Generator(np.random.PCG64(0))) is None:
        try:
            facets = enumerate_facets(out)
        except EnumerationCapError:
            raise EnumerationCapError(
                "greedy search found no facet and the link exceeds the enumeration "
                "cap, so whether it is empty is undecided") from None
        if not facets:
            raise SliceError("face does not extend to any facet (empty link)")
    return out


def greedy_facet(slc: Slice, rng: np.random.Generator, restarts: int = 64):
    """Randomized greedy completion of the pinned face to a facet, or None.

    Each restart tries the free vertices in the slice's ``greedy_order`` and
    inserts each one whose part quota is unmet and which has no neighbor in
    the set.
    """
    pinned = slc.pinned_ids
    adj = slc.graph.global_adj
    verts = [(v, p) for p, (lo, hi, _) in enumerate(slc.parts)
             for v in range(lo, hi) if v not in pinned]
    quota = [q - sum(1 for v in pinned if lo <= v < hi) for lo, hi, q in slc.parts]
    size = len(pinned) + sum(quota)
    for _ in range(restarts):
        order = slc.greedy_order(rng, len(verts))
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
    since the spectral analysis is phrased in terms of them.
    """

    ground: tuple
    matrix: np.ndarray
    pi: np.ndarray
    z_total: float | None = None
    z_vertex: np.ndarray | None = None

    def validate(self) -> None:
        m = len(self.ground)
        if self.matrix.shape != (m, m) or self.pi.shape != (m,):
            raise ValueError("shape mismatch")
        if np.max(np.abs(self.matrix.sum(axis=1) - 1.0)) > OPERATOR_TOL:
            raise ValueError("rows do not sum to 1")
        if np.any(self.pi <= 0) or abs(self.pi.sum() - 1.0) > OPERATOR_TOL:
            raise ValueError("pi is not a positive probability vector")
        flow = self.pi[:, None] * self.matrix
        if np.max(np.abs(flow - flow.T)) > OPERATOR_TOL:
            raise ValueError("detailed balance violated")


def local_walk_exact(slc: Slice, face=None) -> LinkOperator:
    """Walk operator of a codimension-2 link built by exhaustive enumeration.

    Entries are P(u, v) = Pr[v in the facet | the face plus u is pinned], and
    pi(u) = Pr[u in the facet | the face is pinned] / 2.  This is the oracle
    the closed forms are checked against.
    """
    slc2 = slc.with_face(face) if face is not None else slc
    if slc2.free_size != 2:
        raise SliceError("local walk operators are defined for codimension 2 only")
    facets, _, probs = _facet_weights(slc2, ENUMERATION_CAP)
    ids, at = np.unique(_free_ids(slc2, facets), return_inverse=True)
    u, v = at.reshape(-1, 2).T  # each facet's two free ids, as indices into ids
    mat = np.zeros((len(ids), len(ids)))
    mat[u, v] = mat[v, u] = probs
    pi = mat.sum(axis=1)
    pi /= pi.sum()
    p = mat / mat.sum(axis=1, keepdims=True)
    return LinkOperator(tuple(slc2.label(x) for x in ids.tolist()), p, pi)


# -- closed forms, built for many faces at once --------------------------------------
#
# Each builder takes a stack of faces of one size and returns stacked arrays
# with a leading face axis; the public per-face builders are its one-face
# case.


def _groups(keys: np.ndarray):
    """(key, rows) for each distinct key, a row of ``keys`` when it is 2-D."""
    distinct, inverse = np.unique(keys, axis=0, return_inverse=True)
    for i, key in enumerate(distinct.tolist()):
        yield key, np.flatnonzero(inverse.reshape(-1) == i)


def _members(mask: np.ndarray, size: int) -> np.ndarray:
    """Column indices of the true entries of a boolean (rows, columns) array
    that holds ``size`` of them in every row, ascending in each row."""
    return np.nonzero(mask)[1].reshape(len(mask), size)


def _zero_diagonal(a: np.ndarray) -> None:
    m = a.shape[-1]
    a[..., np.arange(m), np.arange(m)] = 0


def _link_survivors(slc: TwoSidedSlice | RegularSlice, faces: Sequence[Sequence[int]]):
    """Survivors of codimension-2 faces of one size, given as global ids.

    Returns (survivors, lefts, errors): a boolean (faces, ids) array of the
    ids of parts with quota left that are neither in the face nor next to it,
    the quota each part has left as a (faces, parts) array, and the
    SliceError of each row whose face is not a codimension-2 face of
    ``slc``; such a row has no survivors.
    """
    n = len(slc.graph.global_adj)
    ids = np.array(faces, dtype=int).reshape(len(faces), len(faces[0]))
    errors: dict[int, SliceError] = {}
    outside = ((ids < 0) | (ids >= n)).any(axis=1)
    for row in np.flatnonzero(outside).tolist():
        errors[row] = SliceError(f"pinned ids must lie in range({n})")
    face = np.zeros((len(faces), n))
    face[np.arange(len(faces))[:, None], np.where(outside[:, None], 0, ids)] = 1.0
    near = face @ slc.adjacency > 0
    face = face > 0
    for row in np.flatnonzero((face & near).any(axis=1)).tolist():
        errors.setdefault(row, SliceError("face is not an independent set"))
    lefts = np.array([quota for _, _, quota in slc.parts]) - np.stack(
        [face[:, lo:hi].sum(axis=1) for lo, hi, _ in slc.parts], axis=1)
    for row in np.flatnonzero((lefts.min(axis=1) < 0) | (lefts.sum(axis=1) != 2)).tolist():
        errors.setdefault(row, SliceError("face must leave exactly two elements free"))
    open_ids = np.zeros_like(face)
    for p, (lo, hi, _) in enumerate(slc.parts):
        open_ids[:, lo:hi] = (lefts[:, p] > 0)[:, None]
    survivors = open_ids & ~face & ~near
    survivors[list(errors)] = False
    return survivors, lefts, errors


def _skeleton_blocks(slc: TwoSidedSlice | RegularSlice, rows: np.ndarray, cols: np.ndarray,
                     lefts: np.ndarray) -> np.ndarray:
    """Blocks of link skeletons between two survivor lists of each face.

    ``rows`` (faces, r) and ``cols`` (faces, c) hold global ids and ``lefts``
    each face's remaining quotas.  Two survivors are joined where they are
    non-adjacent, distinct, and fit the remaining quotas: in two different
    parts, or in one part that still needs two.
    """
    sk = 1.0 - np.take_along_axis(slc.adjacency[rows], cols[:, None, :], axis=2)
    part = np.asarray(slc.part_of)
    part_r, part_c = part[rows], part[cols]
    single = np.take_along_axis(lefts, part_r, axis=1) < 2
    sk[(part_r[:, :, None] == part_c[:, None, :]) & single[:, :, None]] = 0.0
    sk[rows[:, :, None] == cols[:, None, :]] = 0.0
    return sk


def _uniform_link_walks(slc: TwoSidedSlice | RegularSlice, survivors: np.ndarray,
                        lefts: np.ndarray, errors: dict) -> list:
    """Survivor-complement walks of the faces behind ``_link_survivors``.

    Every survivor's skeleton row comes from ``_skeleton_blocks``; isolated
    survivors are dropped, and the simple random walk P = D^{-1} A runs on
    the rest.  Returns one (rows, ground, P, pi) stack per link size, ground
    holding the kept ids; the row of an empty link gets its SliceError in
    ``errors``.
    """
    walks = []
    for m, rows in _groups(survivors.sum(axis=1)):
        ids = _members(survivors[rows], m)
        skeleton = _skeleton_blocks(slc, ids, ids, lefts[rows])
        keep = skeleton.sum(axis=-1) > 0
        for size, sub in _groups(keep.sum(axis=1)):
            if size < 2:
                for row in rows[sub].tolist():
                    errors.setdefault(row, SliceError(EMPTY_LINK))
                continue
            adj, ground = skeleton[sub], ids[sub]
            if size < m:
                cols = _members(keep[sub], size)
                adj = adj[np.arange(len(sub))[:, None, None], cols[:, :, None], cols[:, None, :]]
                ground = np.take_along_axis(ground, cols, axis=1)
            deg = adj.sum(axis=-1)
            walks.append((rows[sub], ground, adj / deg[..., None],
                          deg / deg.sum(axis=-1, keepdims=True)))
    return walks


def _uniform_link_walk(slc: TwoSidedSlice | RegularSlice, face: Iterable[int]) -> LinkOperator:
    """Survivor-complement walk on the link of one codimension-2 face (global ids).

    The survivors are the ids of parts with quota left that are neither in
    the face nor next to it.  The skeleton joins two non-adjacent survivors
    that fit the remaining quotas (two different parts, or one part that
    still needs two); isolated survivors are dropped.
    """
    survivors, lefts, errors = _link_survivors(slc, [sorted(frozenset(face))])
    walks = _uniform_link_walks(slc, survivors, lefts, errors)
    if errors:
        raise errors[0]
    (_, ground, p, pi), = walks
    return LinkOperator(tuple(slc.label(v) for v in ground[0].tolist()), p[0], pi[0])


def two_sided_link_walk_closed_form(slc: TwoSidedSlice, tau_x: Iterable[int],
                                    tau_y: Iterable[int]) -> LinkOperator:
    """Codimension-2 walk of the two-sided slice, for a cross or same-side face.

    A cross face (one element missing per side) has the bipartite complement
    of the surviving graph as its skeleton; a same-side face (two missing on
    one side) has the complete graph on that side's survivors.
    """
    tx, ty = frozenset(tau_x), frozenset(tau_y)
    _check_pins(tx | ty, slc.graph.n_side)
    return _uniform_link_walk(slc, slc.to_ids((tx, ty)))


def regular_link_walk_closed_form(slc: RegularSlice, tau: Iterable[int]) -> LinkOperator:
    """Codimension-2 walk for the uniform slice of an ordinary graph.

    The skeleton is the complement of the graph induced on the survivors
    V \\ (tau ∪ N[tau]), again up to empty rows and columns.
    """
    return _uniform_link_walk(slc, tau)


@dataclass(eq=False)
class NeighborGraph:
    """Common-survivor-neighbor counts |N_tau(u) ∩ N_tau(v)| on X \\ tau.

    Neighborhoods are taken outside N[tau]; the diagonal is zero by the
    convention of the entrywise weight exponential built from this matrix.
    A stack of faces gives arrays with a leading face axis.
    """

    ground: tuple[int, ...] | np.ndarray
    counts: np.ndarray  # integer entries, zero diagonal
    survivor_degrees: np.ndarray  # |N_tau(u)| per ground vertex

    def weight_exponential(self, powers: np.ndarray) -> np.ndarray:
        """(1+fugacity) raised entrywise to the counts, with a zero diagonal,
        read from the slice's ``powers``."""
        e = _power_of(powers, self.counts)
        _zero_diagonal(e)
        return e


def _power_of(powers: np.ndarray, exponents: np.ndarray) -> np.ndarray:
    """(1+fugacity)^e entrywise for integer exponents within the degree, read
    from a slice's ``powers`` table rather than raised again."""
    return powers[exponents + len(powers) // 2]


def _neighbor_graphs(slc: OneSidedSlice, taus: Sequence[Sequence[int]]) -> NeighborGraph:
    """Neighbor graphs of faces of one size, each of distinct X ids, as one stack."""
    n = slc.graph.n_side
    t = np.array(taus, dtype=int).reshape(len(taus), len(taus[0]))
    face = np.zeros((len(taus), n))
    face[np.arange(len(taus))[:, None], t] = 1.0
    biadjacency = slc.adjacency[:n, n:]
    survivors = face @ biadjacency == 0  # the Y ids outside N(tau)
    ground = _members(face == 0, n - t.shape[1])
    b = biadjacency[ground] * survivors[:, None, :]
    counts = (b @ b.swapaxes(-1, -2)).astype(np.int64)
    degs = np.diagonal(counts, axis1=-2, axis2=-1).copy()
    _zero_diagonal(counts)
    return NeighborGraph(ground, counts, degs)


def neighbor_graph(slc: OneSidedSlice, tau: Iterable[int]) -> NeighborGraph:
    nbr = _neighbor_graphs(slc, [sorted(frozenset(tau))])
    return NeighborGraph(tuple(nbr.ground[0].tolist()), nbr.counts[0], nbr.survivor_degrees[0])


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
    return _one_sided_walk(slc, neighbor_graph(slc, t))


def _one_sided_walk(slc: OneSidedSlice, nbr: NeighborGraph) -> LinkOperator:
    """The one-sided closed form, read off the link's neighbor graph (or a
    stack of them, giving stacked arrays) and the slice's ``powers``.

    SliceError when every stationary weight c^(-|N_tau(u)|) Z_u of a link
    underflows float64, where pi would be 0/0."""
    powers = slc.powers
    # Row u holds c^(-n_v + common(u, v)); exponents are bounded by the degree.
    w = _power_of(powers, nbr.counts - nbr.survivor_degrees[..., None, :])
    _zero_diagonal(w)
    z_vertex = w.sum(axis=-1)
    p = w / z_vertex[..., None]
    weights = _power_of(powers, -nbr.survivor_degrees) * z_vertex
    z_total = weights.sum(axis=-1)
    if not np.all(z_total > 0):
        raise SliceError(f"fugacity {slc.fugacity} is too large for the closed-form link "
                         "walk: its stationary weights underflow float64")
    pi = weights / np.asarray(z_total)[..., None]
    return LinkOperator(nbr.ground, p, pi, z_total=z_total, z_vertex=z_vertex)
