"""Spectral verification sweeps over codimension-2 links.

Every sweep is the same loop over three family-specific parts: a face
source, the closed-form walk operator of each link, and a bound rule.  One
face source serves every face kind (two-sided cross, same-side X, same-side
Y, one-sided, regular, and the one-sided identities): it enumerates the
faces of a kind when their count bound is at most ``face_cap``, and
otherwise samples ``sample_count`` faces by truncating the facets of one
seeded down-up chain.  The loop computes each link's second eigenvalue and
compares it against the matching deterministic bound:

* two-sided cross links: lambda2(P) <= lambda2(A_G) / (min survivor side - d);
  same-side links are complete graphs, built by the same survivor-complement
  construction as the cross links, and are verified as lambda2 <= 0;
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

The one-sided slice additionally satisfies two exact matrix statements that
are verified entrywise and in the PSD order: the walk factorizes through the
common-neighbor weight matrix, and that weight matrix is dominated by an
affine function of the squared adjacency restricted to the link.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

import numpy as np

from .graphs import BipartiteRegularGraph, RegularGraph, X, Y
from .rng import rng_stream
from .slices import (NeighborGraph, OneSidedSlice, RegularSlice, Slice, SliceError,
                     TwoSidedSlice, _one_sided_walk, _y_rows, independent_sets,
                     neighbor_graph, regular_link_walk_closed_form,
                     two_sided_link_walk_closed_form)
from .spectra import adjacency_matrix, eigen_summary, psd_dominance
from .walks import ChainConfig, run_chain, spectral_gap

BOUND_TOL = 1e-9
IDENTITY_TOL = 1e-10
EXHAUSTIVE_FACE_CAP = 100_000
SAMPLED_FACES = 10_000


@dataclass(frozen=True)
class LinkRecord:
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


def _sweep(report: VerificationReport, faces, link) -> VerificationReport:
    """The one sweep loop: each face becomes one record.

    ``link(face)`` returns the link's walk operator with the family's bound,
    or None when the face fails the hypotheses of the bound; a SliceError
    records the link as empty.
    """
    for face in faces:
        try:
            built = link(face)
        except SliceError as e:
            report.add(face, None, None, "empty", str(e))
            continue
        if built is None:
            report.add(face, None, None, "hypothesis_not_met")
            continue
        op, bound = built
        lam2, _, _ = spectral_gap(op.matrix, op.pi)
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
    """Codimension-2 faces of an unpinned slice, one face kind at a time.

    A face kind says how many elements each part misses, two in all.  A kind
    whose count bound (the product over parts of the ways to choose its face
    elements) is at most ``face_cap`` is enumerated, lexicographically with
    the part that misses most taken first.  Otherwise ``sample_count``
    distinct faces are cut from the facets of one down-up chain seeded by
    ``seed``, which every sampled kind of the source shares, as it shares the
    stream that picks the deleted elements.
    """

    def __init__(self, slc: Slice, face_cap: int, sample_count: int, seed: int) -> None:
        self.slc, self.face_cap = slc, face_cap
        self.sample_count, self.seed = sample_count, seed
        self._facets = self._rng = None

    def faces(self, missing: tuple[int, ...]) -> list:
        parts = self.slc.parts
        sizes = [quota - c for (_, _, quota), c in zip(parts, missing)]
        if min(sizes) < 0:
            return []
        bound = math.prod(math.comb(hi - lo, s) for (lo, hi, _), s in zip(parts, sizes))
        if bound <= self.face_cap:
            order = sorted(range(len(parts)), key=lambda p: -missing[p])
            sets = independent_sets(self.slc.graph.global_adj,
                                    [(*parts[p][:2], sizes[p]) for p in order], (), bound)
            return [self.slc.from_ids(ids) for ids in sets]
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
            faces[self.slc.from_ids(kept)] = None
            if len(faces) >= self.sample_count:
                break
        return list(faces)


# -- two-sided -----------------------------------------------------------------------


def two_sided_cross_bound(g: BipartiteRegularGraph, lam2_adj: float,
                          tau_x: Iterable[int], tau_y: Iterable[int]) -> float | None:
    """Survivor-complement bound for a cross face; None when vacuous."""
    tx, ty = set(tau_x), set(tau_y)
    sx = g.n_side - len(tx) - len(g.neighbor_set(Y, ty))
    sy = g.n_side - len(ty) - len(g.neighbor_set(X, tx))
    denom = min(sx, sy) - g.degree
    if denom <= 0:
        return None
    return lam2_adj / denom


def verify_top_link_two_sided(g: BipartiteRegularGraph, k_x: int, k_y: int,
                              face_cap: int = EXHAUSTIVE_FACE_CAP,
                              sample_count: int = SAMPLED_FACES,
                              seed: int = 0) -> VerificationReport:
    """Sweep the codimension-2 faces of the two-sided slice.

    Cross faces get the eigenvalue bound; same-side faces (two missing
    elements on one side) have complete-graph links and must satisfy
    lambda2 <= 0.  Each kind is exhaustive when its face count fits
    ``face_cap``, otherwise its faces are sampled by truncating down-up
    facets.
    """
    report = VerificationReport(f"two-sided k_x={k_x} k_y={k_y}")
    lam2_adj = eigen_summary(adjacency_matrix(g)).lambda2
    slc = TwoSidedSlice(g, k_x, k_y)
    source = _FaceSource(slc, face_cap, sample_count, seed)

    def cross(face):
        bound = two_sided_cross_bound(g, lam2_adj, *face)
        return two_sided_link_walk_closed_form(slc, *face), _Bound(bound)

    _sweep(report, source.faces((1, 1)), cross)
    for missing, side in (((2, 0), X), ((0, 2), Y)):
        same = _Bound(0.0, f"same-side {side}")
        _sweep(report, source.faces(missing),
               lambda face: (two_sided_link_walk_closed_form(slc, *face), same))
    return report


# -- one-sided -----------------------------------------------------------------------


def one_sided_hypotheses_met(nbr: NeighborGraph) -> bool:
    """Common-neighbor hypotheses checked inside the link.

    Every pair shares at most 2 survivor neighbors, and no vertex shares
    exactly 2 with more than one partner; both are what the PSD dominations
    consume.
    """
    if nbr.counts.max(initial=0) > 2:
        return False
    return bool(np.all((nbr.counts == 2).sum(axis=1) <= 1))


def one_sided_bound(g: BipartiteRegularGraph, lam2_adj: float, fugacity: float,
                    tau_size: int, avg_link_degree: float) -> float | None:
    """Stated bound, or None when the denominator is nonpositive.

    For a nonpositive spectral numerator (lam * lambda2^2 + lam^2 - 1 <= 0)
    the bound is not derivable: the derivation divides the numerator by a
    lower bound on the row normalizers, which only preserves the inequality
    when the numerator is nonnegative.  The sweep therefore treats a violated
    bound as vacuous rather than failed in that regime (where only the sign
    statement lambda2 <= 0 is provable); in every intended regime the
    numerator is about 4 * fugacity * degree > 0.
    """
    c_pow = (1.0 + fugacity) ** avg_link_degree
    denom = g.n_side - tau_size - c_pow
    num = fugacity * lam2_adj ** 2 + fugacity ** 2 - 1.0
    if denom <= 0:
        return None
    return num * c_pow / denom


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
    sign_only = fugacity * lam2_adj ** 2 + fugacity ** 2 - 1.0 <= 0
    slc = OneSidedSlice(g, k, fugacity)

    def link(tau):
        nbr = neighbor_graph(slc, tau)
        if not one_sided_hypotheses_met(nbr):
            return None
        avg_deg = float(nbr.survivor_degrees.mean())
        bound = one_sided_bound(g, lam2_adj, fugacity, len(tau), avg_deg)
        return _one_sided_walk(nbr, fugacity), _Bound(bound, sign_only=sign_only)

    return _sweep(report, _FaceSource(slc, face_cap, sample_count, seed).faces((2,)), link)


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

    def link(tau):
        survivors = g.n - len(g.neighbor_set(tau, closed=True))
        return (regular_link_walk_closed_form(slc, tau),
                _Bound(regular_bound(g, lam_min, survivors)))

    return _sweep(report, _FaceSource(slc, face_cap, sample_count, seed).faces((2,)), link)


# -- one-sided matrix identities -------------------------------------------------------


def _walk_factorization(nbr: NeighborGraph, fugacity: float) -> tuple[bool, float]:
    op = _one_sided_walk(nbr, fugacity)
    weight = nbr.weight_exponential(fugacity)
    z, zu = op.z_total, op.z_vertex
    pi_half = np.diag(op.pi / 2.0)
    gamma_inv = np.diag((2.0 * z) / zu)
    pi_tilde = gamma_inv @ pi_half
    lhs = pi_half @ op.matrix
    rhs = (pi_tilde @ weight @ pi_tilde) / (2.0 * z)
    deviation = float(np.max(np.abs(lhs - rhs)))
    return deviation <= IDENTITY_TOL, deviation


def verify_walk_factorization(g: BipartiteRegularGraph, k: int, fugacity: float,
                              tau: Iterable[int]) -> tuple[bool, float]:
    """Entrywise identity between the stationary-weighted walk and the
    common-neighbor weight matrix.

    With Pi half the stationary diagonal, Gamma(u,u) = Z_u / (2Z) and
    Pi~ = Gamma^{-1} Pi, the product Pi P must equal
    (1/(2Z)) Pi~ (1+lam)^{H} Pi~ exactly, where H is the neighbor graph and
    the exponential is entrywise off the diagonal.  Returns
    (ok, max deviation).
    """
    return _walk_factorization(neighbor_graph(OneSidedSlice(g, k, fugacity), tau), fugacity)


def _psd_chain(slc: OneSidedSlice, nbr: NeighborGraph) -> dict:
    m = len(nbr.ground)
    h = nbr.counts.astype(float)
    lam = slc.fugacity
    e = nbr.weight_exponential(lam)
    rows = _y_rows(slc, nbr.ground)
    sq = rows @ rows.T
    j = np.ones((m, m))
    eye = np.eye(m)
    out: dict[str, object] = {"hypotheses_met": one_sided_hypotheses_met(nbr)}
    ok4, _ = psd_dominance(h, sq)
    out["neighbor_below_squared"] = ok4
    if not out["hypotheses_met"]:
        out["weight_below_affine"] = None
        out["weight_below_squared_affine"] = None
        return out
    ok3, _ = psd_dominance(e, j + lam * h + (lam * lam - 1.0) * eye)
    ok1, _ = psd_dominance(e, j + lam * sq + (lam * lam - 1.0) * eye)
    out["weight_below_affine"] = ok3
    out["weight_below_squared_affine"] = ok1
    return out


def verify_psd_chain(g: BipartiteRegularGraph, k: int, fugacity: float,
                     tau: Iterable[int]) -> dict:
    """Three PSD dominations tying the weight matrix to the squared adjacency.

    With H the neighbor graph, E its entrywise (1+lam) exponential, J the
    all-ones matrix, and G2 the squared-adjacency principal submatrix on the
    link:   E <= J + lam H + (lam^2 - 1) I   (needs the hypotheses),
            H <= G2,
            E <= J + lam G2 + (lam^2 - 1) I.
    The first and third are gated on the common-neighbor hypotheses and
    reported as skipped when they fail.
    """
    tau = tuple(sorted(tau))
    slc = OneSidedSlice(g, k, fugacity)
    return {"face": tau, **_psd_chain(slc, neighbor_graph(slc, tau))}


def verify_one_sided_identities(g: BipartiteRegularGraph, k: int, fugacity: float,
                                face_cap: int = EXHAUSTIVE_FACE_CAP,
                                sample_count: int = SAMPLED_FACES,
                                seed: int = 0) -> VerificationReport:
    """Factorization identity and PSD chain over the codimension-2 faces.

    The faces are those of ``verify_top_link_one_sided`` with the same
    arguments: every face when their count fits ``face_cap``, otherwise
    ``sample_count`` sampled ones.
    """
    report = VerificationReport(f"one-sided identities k={k} fugacity={fugacity}")
    slc = OneSidedSlice(g, k, fugacity)
    for tau in _FaceSource(slc, face_cap, sample_count, seed).faces((2,)):
        nbr = neighbor_graph(slc, tau)
        ok, dev = _walk_factorization(nbr, fugacity)
        report.add(tau, dev, IDENTITY_TOL, "pass" if ok else "fail", "factorization")
        psd = _psd_chain(slc, nbr)
        report.add(tau, None, None,
                   "pass" if psd["neighbor_below_squared"] else "fail",
                   "neighbor domination")
        if not psd["hypotheses_met"]:
            report.add(tau, None, None, "hypothesis_not_met", "affine dominations")
        else:
            both = psd["weight_below_affine"] and psd["weight_below_squared_affine"]
            report.add(tau, None, None, "pass" if both else "fail",
                       "affine dominations")
    return report
