"""Spectral verification sweeps over codimension-2 links.

Every sweep is the same loop over three family-specific parts: a face
source, the closed-form walk operators of the links, and a bound rule.  One
face source serves every face kind (two-sided cross, same-side X, same-side
Y, one-sided, regular, and the one-sided identities): it enumerates the
faces of a kind when their count bound is at most ``face_cap`` or
``sample_count``, and otherwise samples ``sample_count`` faces by truncating
the facets of one seeded down-up chain.  The loop takes the faces a chunk at
a time; the family builds the chunk's links as stacks of equal-sized
matrices and solves each stack with one LAPACK call.  Faces are id tuples
until a record is written.  Each link's second eigenvalue is compared
against the matching deterministic bound:

* two-sided cross links: lambda2(P) <= lambda2(A_G) / (min survivor side - d),
  with lambda2(P) the second singular value of the normalized half-size
  biadjacency block; same-side links are complete graphs on their m
  survivors, with lambda2 = -1/(m-1), verified as lambda2 <= 0;
* one-sided links (under the common-neighbor hypotheses):
  lambda2(P) <= (lam * lambda2(A_G)^2 + lam^2 - 1) * c^D / (|X| - |tau| - c^D)
  with c = 1 + lam and D the average survivor degree over the link;
* uniform-slice links of an ordinary graph:
  lambda2(P) <= (-lambda_min(A_G) - 1) / (|survivors| - d - 1).

The last denominator is min-degree exact: a survivor can keep all d of its
neighbors, so the complement degree is only |survivors| - 1 - d.  The looser
|survivors| - d form is falsified by the 6-cycle at k = 2 (lambda2 = 1/3 >
1/4) while the corrected bound is tight there.

These inequalities hold for every face, with no randomness assumption, so a
sweep failure beyond tolerance is a defect, not noise.  Bounds with a
nonpositive denominator are recorded as vacuous rather than failed.

A one-sided link gets its walk only when it meets the bound's
common-neighbor hypotheses; the others are recorded without one.  Every
power of 1 + lam the one-sided walks take is read from the slice's table of
(1 + lam)^e for e = -degree..degree.  A fugacity at which
(1 + lam)^degree overflows float64, or at which a link's stationary weights
underflow, is a SliceError, not a sweep of nan entries.

The one-sided slice additionally satisfies two exact matrix statements that
are verified entrywise and in the PSD order: the walk factorizes through the
common-neighbor weight matrix, and that weight matrix is dominated by an
affine function of the squared adjacency restricted to the link.  Each stack
builds one walk and one weight matrix, which both statements read.  The PSD
order is certified by a Cholesky factorization of each stack
(``spectra.psd_dominance``); eigenvalues are computed only for a stack the
factorization rejects, to name its failing links.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .graphs import BipartiteRegularGraph, RegularGraph, X, Y
from .rng import rng_stream
from .slices import (EMPTY_LINK, LinkOperator, NeighborGraph, OneSidedSlice, RegularSlice, Slice,
                     SliceError, TwoSidedSlice, _groups, _link_survivors, _members,
                     _neighbor_graphs, _one_sided_walk, _skeleton_blocks, _uniform_link_walks,
                     independent_sets)
from .spectra import adjacency_matrix, eigen_summary, psd_dominance
from .walks import ChainConfig, run_chain, spectral_gap

BOUND_TOL = 1e-9
IDENTITY_TOL = 1e-10
EXHAUSTIVE_FACE_CAP = 100_000
SAMPLED_FACES = 10_000
# Float64 elements in one stack of link matrices.  A sweep builds and solves
# its links a chunk of faces at a time, sized so that a stack of matrices
# over every global id stays within this budget, so memory stays flat in
# the number of faces.
STACK_ELEMENTS = 1 << 18


class LinkRecord(NamedTuple):
    face: tuple
    lambda2: float | None
    bound: float | None
    status: str  # pass | fail | vacuous | empty | hypothesis_not_met
    detail: str = ""


@dataclass
class VerificationReport:
    """Per-link comparison records plus aggregate pass statistics."""

    name: str
    records: list[LinkRecord] = field(default_factory=list)

    def add(self, face, lambda2, bound, status, detail="") -> None:
        self.records.append(LinkRecord(tuple(face), lambda2, bound, status, detail))

    @property
    def checked(self) -> int:
        return sum(1 for r in self.records if r.status in ("pass", "fail"))

    @property
    def failures(self) -> int:
        return sum(1 for r in self.records if r.status == "fail")

    @property
    def pass_rate(self) -> float:
        return 1.0 if self.checked == 0 else 1.0 - self.failures / self.checked

    @property
    def worst_margin(self) -> float | None:
        """Most negative (bound - lambda2) over compared links."""
        margins = [r.bound - r.lambda2 for r in self.records
                   if r.status in ("pass", "fail") and r.bound is not None]
        return min(margins) if margins else None

    def all_pass(self) -> bool:
        return self.failures == 0

    def summary(self) -> dict:
        by_status: dict[str, int] = {}
        for r in self.records:
            by_status[r.status] = by_status.get(r.status, 0) + 1
        return {"name": self.name, "records": len(self.records),
                "by_status": by_status, "pass_rate": self.pass_rate,
                "worst_margin": self.worst_margin}


class _Bound(NamedTuple):
    """A family's bound on one link, as its bound rule states it."""

    value: float | None  # None: nonpositive denominator, recorded vacuous
    detail: str = ""  # detail of the pass and fail records
    sign_only: bool = False  # nonpositive numerator: only lambda2 <= 0 is provable


def _chunks(slc: Slice, faces: list) -> list:
    step = max(1, STACK_ELEMENTS // len(slc.graph.global_adj) ** 2)
    return [faces[i:i + step] for i in range(0, len(faces), step)]


def _sweep(report: VerificationReport, slc: Slice, faces: list, links) -> VerificationReport:
    """The one sweep loop: each face becomes one record.

    ``links(chunk)`` builds and solves the links of a chunk of id faces as
    stacks.  It returns, per face, the link's second eigenvalue with the
    family's bound, None when the face fails the hypotheses of the bound, or
    the SliceError of an empty link.
    """
    for chunk in _chunks(slc, faces):
        for ids, got in zip(chunk, links(chunk)):
            face = slc.from_ids(ids)
            if isinstance(got, SliceError):
                report.add(face, None, None, "empty", str(got))
                continue
            if got is None:
                report.add(face, None, None, "hypothesis_not_met")
                continue
            lam2, bound = got
            if bound.value is None:
                report.add(face, lam2, None, "vacuous", "nonpositive denominator")
            elif lam2 <= bound.value + BOUND_TOL:
                report.add(face, lam2, bound.value, "pass", bound.detail)
            elif bound.sign_only:
                status = "fail" if lam2 > BOUND_TOL else "vacuous"
                report.add(face, lam2, bound.value, status, "nonpositive numerator")
            else:
                report.add(face, lam2, bound.value, "fail", bound.detail)
    return report


class _FaceSource:
    """Codimension-2 faces of an unpinned slice as id tuples, one kind at a time.

    A face kind says how many elements each part misses, two in all.  A kind
    whose count bound (the product over parts of the ways to choose its face
    elements) is at most ``face_cap`` is enumerated, lexicographically with
    the part that misses most taken first; so is a kind with at most
    ``sample_count`` faces, which sampling could not thin out.  Otherwise
    ``sample_count`` distinct faces are cut from the facets of one down-up
    chain seeded by ``seed``, which every sampled kind of the source shares,
    as it shares the stream that picks the deleted elements.
    """

    def __init__(self, slc: Slice, face_cap: int, sample_count: int, seed: int) -> None:
        if sample_count < 1:
            raise ValueError("sample_count must be positive")
        self.slc, self.face_cap = slc, face_cap
        self.sample_count, self.seed = sample_count, seed
        self._facets = self._rng = None

    def faces(self, missing: tuple[int, ...]) -> list:
        parts = self.slc.parts
        sizes = [quota - c for (_, _, quota), c in zip(parts, missing)]
        if min(sizes) < 0:
            return []
        bound = math.prod(math.comb(hi - lo, s) for (lo, hi, _), s in zip(parts, sizes))
        if bound <= max(self.face_cap, self.sample_count):
            order = sorted(range(len(parts)), key=lambda p: -missing[p])
            sets = independent_sets(self.slc.graph.global_adj,
                                    [(*parts[p][:2], sizes[p]) for p in order], (), bound)
            return sets if order == sorted(order) else [tuple(sorted(ids)) for ids in sets]
        return self._sampled(missing)

    def _sampled(self, missing: tuple[int, ...]) -> list:
        if self._facets is None:
            cfg = ChainConfig(steps=max(4000, 12 * self.sample_count), seed=self.seed,
                              lazy=False, burn_in=2000, thinning=3, oracle_cap=0, gap_cap=0)
            self._facets, _ = run_chain(self.slc, cfg)
            self._rng = rng_stream(self.seed, 99)
        faces: dict = {}  # distinct faces in the order first seen
        for facet in self._facets:
            ids = self.slc.to_ids(facet)
            kept: list[int] = []
            for (lo, hi, _), c in zip(self.slc.parts, missing):
                members = [v for v in ids if lo <= v < hi]
                drop = self._rng.choice(len(members), size=c, replace=False).tolist() if c else []
                kept += [v for i, v in enumerate(members) if i not in drop]
            faces[tuple(kept)] = None
            if len(faces) >= self.sample_count:
                break
        return list(faces)


# -- two-sided -----------------------------------------------------------------------

def two_sided_cross_bound(g: BipartiteRegularGraph, lam2_adj: float,
                          survivors_x: int, survivors_y: int) -> float | None:
    """Survivor-complement bound for a cross face from its survivor counts on
    each side, n - |tau_x| - |N(tau_y)| and n - |tau_y| - |N(tau_x)|; None
    when vacuous."""
    denom = min(survivors_x, survivors_y) - g.degree
    if denom <= 0:
        return None
    return lam2_adj / denom


def _cross_lambda2(c: np.ndarray) -> np.ndarray:
    """Second eigenvalue of the walks on bipartite skeletons [[0, C], [C^T, 0]]
    from a stack of blocks C, nan where the skeleton has no edge.

    The walk's eigenvalues are ±sigma_i of D_x^{-1/2} C D_y^{-1/2}, plus
    zeros, so lambda2 = sigma_2.  An isolated vertex, a zero row or column,
    adds only a zero singular value.  With one vertex left on a side the
    spectrum is {1, -1, 0, ...}: lambda2 is 0, or -1 when both sides have one.
    """
    dx, dy = c.sum(axis=-1), c.sum(axis=-2)
    nx, ny = (dx > 0).sum(axis=-1), (dy > 0).sum(axis=-1)
    lam2 = np.zeros(len(c))
    if min(c.shape[1:]) >= 2:
        rx, ry = (np.divide(1.0, np.sqrt(d), out=np.zeros_like(d), where=d > 0) for d in (dx, dy))
        scaled = c * rx[:, :, None] * ry[:, None, :]
        lam2 = np.where(np.minimum(nx, ny) >= 2,
                        np.linalg.svd(scaled, compute_uv=False)[:, 1], 0.0)
    lam2[(nx == 1) & (ny == 1)] = -1.0
    lam2[nx == 0] = np.nan
    return lam2


def verify_top_link_two_sided(g: BipartiteRegularGraph, k_x: int, k_y: int,
                              face_cap: int = EXHAUSTIVE_FACE_CAP,
                              sample_count: int = SAMPLED_FACES,
                              seed: int = 0) -> VerificationReport:
    """Sweep the codimension-2 faces of the two-sided slice.

    Cross faces get the eigenvalue bound, with lambda2 read off the
    singular values of the link's half-size biadjacency block.  Same-side
    faces (two missing elements on one side) have complete-graph links on
    their m survivors, whose lambda2 is -1/(m-1), and must satisfy
    lambda2 <= 0.  Each kind is exhaustive when its face count fits
    ``face_cap``, otherwise its faces are sampled by truncating down-up
    facets.
    """
    report = VerificationReport(f"two-sided k_x={k_x} k_y={k_y}")
    lam2_adj = eigen_summary(adjacency_matrix(g)).lambda2
    slc = TwoSidedSlice(g, k_x, k_y)
    source = _FaceSource(slc, face_cap, sample_count, seed)
    n = g.n_side

    def cross(chunk):
        survivors, lefts, errors = _link_survivors(slc, chunk)
        out: list = [errors.get(row) for row in range(len(chunk))]
        sides = np.stack([survivors[:, :n].sum(axis=1), survivors[:, n:].sum(axis=1)], axis=1)
        for (mx, my), rows in _groups(sides):
            blocks = _skeleton_blocks(slc, _members(survivors[rows, :n], mx),
                                      n + _members(survivors[rows, n:], my), lefts[rows])
            bound = _Bound(two_sided_cross_bound(g, lam2_adj, mx, my))
            for row, lam2 in zip(rows.tolist(), _cross_lambda2(blocks).tolist()):
                out[row] = out[row] or (SliceError(EMPTY_LINK) if math.isnan(lam2)
                                        else (lam2, bound))
        return out

    _sweep(report, slc, source.faces((1, 1)), cross)
    for missing, side in (((2, 0), X), ((0, 2), Y)):
        same = _Bound(0.0, f"same-side {side}")

        def complete(chunk):
            survivors, _, errors = _link_survivors(slc, chunk)
            return [errors.get(row) or (SliceError(EMPTY_LINK) if m < 2 else (-1.0 / (m - 1), same))
                    for row, m in enumerate(survivors.sum(axis=1).tolist())]

        _sweep(report, slc, source.faces(missing), complete)
    return report


# -- one-sided -----------------------------------------------------------------------


def one_sided_hypotheses_met(nbr: NeighborGraph):
    """Common-neighbor hypotheses checked inside the link (per link of a stack).

    Every pair shares at most 2 survivor neighbors, and no vertex shares
    exactly 2 with more than one partner; both are what the PSD dominations
    consume.
    """
    return ((nbr.counts.max(axis=(-2, -1), initial=0) <= 2)
            & np.all((nbr.counts == 2).sum(axis=-1) <= 1, axis=-1))


def one_sided_bound(g: BipartiteRegularGraph, lam2_adj: float, fugacity: float,
                    tau_size: int, avg_link_degree: float) -> float | None:
    """Stated bound, or None when the denominator is nonpositive or, at a
    huge fugacity, the bound saturates float64.

    For a nonpositive spectral numerator (lam * lambda2^2 + lam^2 - 1 <= 0)
    the bound is not derivable: the derivation divides the numerator by a
    lower bound on the row normalizers, which only preserves the inequality
    when the numerator is nonnegative.  The sweep therefore treats a violated
    bound as vacuous rather than failed in that regime (where only the sign
    statement lambda2 <= 0 is provable); in every intended regime the
    numerator is about 4 * fugacity * degree > 0.
    """
    try:
        c_pow = (1.0 + fugacity) ** avg_link_degree
    except OverflowError:  # c^D past float64 exceeds every denominator
        return None
    denom = g.n_side - tau_size - c_pow
    if denom <= 0:
        return None
    bound = _numerator(fugacity, lam2_adj) * c_pow / denom
    return bound if math.isfinite(bound) else None  # saturated: vacuous as well


def _numerator(fugacity: float, lam2_adj: float) -> float:
    """lam * lambda2(A_G)^2 + lam^2 - 1, saturating to inf where lam^2
    overflows float64."""
    try:
        return fugacity * lam2_adj ** 2 + fugacity ** 2 - 1.0
    except OverflowError:
        return math.inf


def verify_top_link_one_sided(g: BipartiteRegularGraph, k: int, fugacity: float,
                              face_cap: int = EXHAUSTIVE_FACE_CAP,
                              sample_count: int = SAMPLED_FACES,
                              seed: int = 0) -> VerificationReport:
    """Sweep codimension-2 faces of the one-sided slice against its bound.

    The hypothesis check precedes the bound check; links failing it are
    recorded separately and not counted as failures.
    """
    report = VerificationReport(f"one-sided k={k} fugacity={fugacity}")
    lam2_adj = eigen_summary(adjacency_matrix(g)).lambda2
    sign_only = _numerator(fugacity, lam2_adj) <= 0
    slc = OneSidedSlice(g, k, fugacity)
    slc.powers  # a fugacity whose powers overflow is refused before any face

    def links(chunk):
        nbr = _neighbor_graphs(slc, chunk)
        met = one_sided_hypotheses_met(nbr)
        # only the links under the hypotheses get a walk
        op = _one_sided_walk(slc, NeighborGraph(nbr.ground[met], nbr.counts[met],
                                                nbr.survivor_degrees[met]))
        out: list = [None] * len(chunk)
        if met.any():
            lam2, _, _ = spectral_gap(op.matrix, op.pi)
            avg_deg = nbr.survivor_degrees[met].mean(axis=-1)
            for row, l2, deg in zip(np.flatnonzero(met).tolist(), lam2.tolist(), avg_deg.tolist()):
                bound = one_sided_bound(g, lam2_adj, fugacity, len(chunk[row]), deg)
                out[row] = (l2, _Bound(bound, sign_only=sign_only))
        return out

    return _sweep(report, slc, _FaceSource(slc, face_cap, sample_count, seed).faces((2,)), links)


# -- regular -------------------------------------------------------------------------


def regular_bound(g: RegularGraph, lam_min_adj: float, survivors: int) -> float | None:
    denom = survivors - g.degree - 1
    if denom <= 0:
        return None
    return (-lam_min_adj - 1.0) / denom


def verify_top_link_regular(g: RegularGraph, k: int,
                            face_cap: int = EXHAUSTIVE_FACE_CAP,
                            sample_count: int = SAMPLED_FACES,
                            seed: int = 0) -> VerificationReport:
    """Sweep codimension-2 faces of the uniform slice of an ordinary graph."""
    report = VerificationReport(f"regular k={k}")
    lam_min = eigen_summary(adjacency_matrix(g)).lambda_min
    slc = RegularSlice(g, k)

    def links(chunk):
        survivors, lefts, errors = _link_survivors(slc, chunk)
        counts = survivors.sum(axis=1).tolist()
        out: list = [None] * len(chunk)
        for rows, _, p, pi in _uniform_link_walks(slc, survivors, lefts, errors):
            lam2, _, _ = spectral_gap(p, pi)
            for row, l2 in zip(rows.tolist(), lam2.tolist()):
                out[row] = (l2, _Bound(regular_bound(g, lam_min, counts[row])))
        for row, e in errors.items():
            out[row] = e
        return out

    return _sweep(report, slc, _FaceSource(slc, face_cap, sample_count, seed).faces((2,)), links)


# -- one-sided matrix identities -------------------------------------------------------


def _walk_factorization(op: LinkOperator, weight: np.ndarray):
    """(ok, max deviation) per link of a stack of one-sided link walks, for
    the entrywise identity between the stationary-weighted walk and the
    common-neighbor weight matrix ``weight``.

    With Pi half the stationary diagonal, Gamma(u,u) = Z_u / (2Z) and
    Pi~ = Gamma^{-1} Pi, the product Pi P must equal
    (1/(2Z)) Pi~ (1+lam)^{H} Pi~ exactly, where H is the neighbor graph and
    the exponential is entrywise off the diagonal.  The diagonal products are
    taken entrywise, in the order of the matrix products they stand for.
    """
    z = op.z_total[:, None]
    pi_half = op.pi / 2.0
    pi_tilde = ((2.0 * z) / op.z_vertex) * pi_half
    lhs = pi_half[:, :, None] * op.matrix
    rhs = (pi_tilde[:, :, None] * weight * pi_tilde[:, None, :]) / (2.0 * z)[:, :, None]
    deviation = np.abs(lhs - rhs).max(axis=(1, 2))
    return deviation <= IDENTITY_TOL, deviation


def _psd_chain(slc: OneSidedSlice, nbr: NeighborGraph, weight: np.ndarray):
    """(hypotheses met, H <= G2, E <= J + lam H + (lam^2 - 1) I,
    E <= J + lam G2 + (lam^2 - 1) I) per link of a stack of neighbor graphs.

    H is the neighbor graph, E = ``weight`` its entrywise (1+lam)
    exponential, J the all-ones matrix and G2 the squared-adjacency principal
    submatrix on the link.  The last two dominations need the common-neighbor
    hypotheses and are checked only where they hold, False elsewhere."""
    n = slc.graph.n_side
    lam = slc.fugacity
    h = nbr.counts.astype(float)
    biadjacency = slc.adjacency[:n, n:]
    sq = (biadjacency @ biadjacency.T)[nbr.ground[:, :, None], nbr.ground[:, None, :]]
    met = one_sided_hypotheses_met(nbr)
    neighbor_ok = psd_dominance(h, sq)
    affine_ok, squared_ok = np.zeros_like(met), np.zeros_like(met)
    if met.any():
        m = h.shape[-1]
        e = weight[met]
        j = np.ones((m, m))
        eye = np.eye(m)
        affine_ok[met] = psd_dominance(e, j + lam * h[met] + (lam * lam - 1.0) * eye)
        squared_ok[met] = psd_dominance(e, j + lam * sq[met] + (lam * lam - 1.0) * eye)
    return met, neighbor_ok, affine_ok, squared_ok


def verify_one_sided_identities(g: BipartiteRegularGraph, k: int, fugacity: float,
                                face_cap: int = EXHAUSTIVE_FACE_CAP,
                                sample_count: int = SAMPLED_FACES,
                                seed: int = 0) -> VerificationReport:
    """Factorization identity and PSD chain over the codimension-2 faces.

    The faces are those of ``verify_top_link_one_sided`` with the same
    arguments: every face when their count fits ``face_cap``, otherwise
    ``sample_count`` sampled ones.  A link whose stationary law underflows
    to 0 somewhere makes both sides of the factorization 0 there, so its
    factorization check is recorded vacuous.
    """
    report = VerificationReport(f"one-sided identities k={k} fugacity={fugacity}")
    slc = OneSidedSlice(g, k, fugacity)
    faces = _FaceSource(slc, face_cap, sample_count, seed).faces((2,))
    powers = slc.powers
    for chunk in _chunks(slc, faces):
        nbr = _neighbor_graphs(slc, chunk)
        weight = nbr.weight_exponential(powers)
        walk = _one_sided_walk(slc, nbr)
        ok, dev = _walk_factorization(walk, weight)
        underflow = (walk.pi == 0).any(1)
        met, neighbor_ok, affine_ok, squared_ok = _psd_chain(slc, nbr, weight)
        for i, ids in enumerate(chunk):
            tau = slc.from_ids(ids)
            if underflow[i]:
                report.add(tau, float(dev[i]), IDENTITY_TOL, "vacuous",
                           "factorization: stationary law underflows to 0")
            else:
                report.add(tau, float(dev[i]), IDENTITY_TOL, "pass" if ok[i] else "fail",
                           "factorization")
            report.add(tau, None, None, "pass" if neighbor_ok[i] else "fail",
                       "neighbor domination")
            if not met[i]:
                report.add(tau, None, None, "hypothesis_not_met", "affine dominations")
            else:
                both = affine_ok[i] and squared_ok[i]
                report.add(tau, None, None, "pass" if both else "fail", "affine dominations")
    return report
