"""Spectral verification sweeps over codimension-2 links.

Each verifier enumerates (or samples) the codimension-2 faces of a slice,
builds the closed-form walk operator of every link, computes its second
eigenvalue, and compares it against the matching deterministic bound:

* two-sided cross links: lambda2(P) <= lambda2(A_G) / (min survivor side - d);
  same-side links are complete graphs and are verified as lambda2 <= 0;
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
from itertools import combinations
from typing import Iterable

import numpy as np

from .graphs import BipartiteRegularGraph, RegularGraph, X, Y
from .rng import rng_stream
from .slices import (NeighborGraph, OneSidedSlice, RegularSlice, SliceError,
                     TwoSidedSlice, neighbor_graph, one_sided_link_walk_closed_form,
                     regular_link_walk_closed_form, two_sided_link_walk_closed_form)
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


def _lambda2_of_walk(op) -> float:
    lam2, _, _ = spectral_gap(op.matrix, op.pi)
    return lam2


def _sampled_truncations(slc, count: int, seed: int, splitter):
    """Faces from down-up samples with two free elements deleted.

    ``splitter(facet, rng)`` performs the deletion and returns a hashable face
    or None when the facet cannot be truncated in the requested pattern.
    """
    cfg = ChainConfig(steps=max(4000, 12 * count), seed=seed, lazy=False,
                      burn_in=2000, thinning=3, oracle_cap=0, gap_cap=0)
    samples, _ = run_chain(slc, cfg)
    rng = rng_stream(seed, 99)
    faces = []
    seen = set()
    for f in samples:
        face = splitter(f, rng)
        if face is None or face in seen:
            continue
        seen.add(face)
        faces.append(face)
        if len(faces) >= count:
            break
    return faces


def _drop_two(facet, rng):
    """Single-set facet with two uniformly chosen members deleted."""
    pick = rng.choice(len(facet), size=2, replace=False)
    drop = {facet[int(pick[0])], facet[int(pick[1])]}
    return tuple(v for v in facet if v not in drop)


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


def _cross_faces_exhaustive(g: BipartiteRegularGraph, k_x: int, k_y: int):
    n = g.n_side
    for tx in combinations(range(n), k_x - 1):
        blocked = g.neighbor_set(X, tx)
        pool = [j for j in range(n) if j not in blocked]
        for ty in combinations(pool, k_y - 1):
            yield tx, ty


def verify_top_link_two_sided(g: BipartiteRegularGraph, k_x: int, k_y: int,
                              face_cap: int = EXHAUSTIVE_FACE_CAP,
                              sample_count: int = SAMPLED_FACES,
                              seed: int = 0) -> VerificationReport:
    """Sweep the codimension-2 faces of the two-sided slice.

    Cross faces get the eigenvalue bound; same-side faces (two missing
    elements on one side) have complete-graph links and must satisfy
    lambda2 <= 0.  Exhaustive when the face count fits ``face_cap``, otherwise
    faces are sampled by truncating down-up facets.
    """
    report = VerificationReport(f"two-sided k_x={k_x} k_y={k_y}")
    lam2_adj = eigen_summary(adjacency_matrix(g)).lambda2
    n = g.n_side

    if k_x >= 1 and k_y >= 1:
        approx = math.comb(n, k_x - 1) * math.comb(n, k_y - 1)
        if approx <= face_cap:
            cross = list(_cross_faces_exhaustive(g, k_x, k_y))
        else:
            slc = TwoSidedSlice(g, k_x, k_y)

            def split(facet, rng):
                xs, ys = facet
                i = int(rng.integers(len(xs)))
                j = int(rng.integers(len(ys)))
                return (tuple(v for v in xs if v != xs[i]),
                        tuple(v for v in ys if v != ys[j]))

            cross = _sampled_truncations(slc, sample_count, seed, split)
        slc = TwoSidedSlice(g, k_x, k_y)
        for tx, ty in cross:
            try:
                op = two_sided_link_walk_closed_form(slc, tx, ty)
            except SliceError as e:
                report.add((tx, ty), None, None, "empty", str(e))
                continue
            lam2 = _lambda2_of_walk(op)
            bound = two_sided_cross_bound(g, lam2_adj, tx, ty)
            if bound is None:
                report.add((tx, ty), lam2, None, "vacuous", "nonpositive denominator")
            else:
                status = "pass" if lam2 <= bound + BOUND_TOL else "fail"
                report.add((tx, ty), lam2, bound, status)

    for same_is_x in (True, False):
        k_same, k_other = (k_x, k_y) if same_is_x else (k_y, k_x)
        if k_same < 2:
            continue
        same_side, other_side = (X, Y) if same_is_x else (Y, X)
        for t_same in combinations(range(n), k_same - 2):
            blocked_other = g.neighbor_set(same_side, t_same)
            pool = [j for j in range(n) if j not in blocked_other]
            for t_other in combinations(pool, k_other):
                blocked_same = g.neighbor_set(other_side, t_other)
                cands = [v for v in range(n)
                         if v not in t_same and v not in blocked_same]
                face = (t_same, t_other) if same_is_x else (t_other, t_same)
                m = len(cands)
                if m < 2:
                    report.add(face, None, None, "empty", "same-side link too small")
                    continue
                walk = (np.ones((m, m)) - np.eye(m)) / (m - 1)
                lam2, _, _ = spectral_gap(walk, np.full(m, 1.0 / m))
                status = "pass" if lam2 <= BOUND_TOL else "fail"
                report.add(face, lam2, 0.0, status, f"same-side {same_side}")
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
    if k < 2:
        return report
    lam2_adj = eigen_summary(adjacency_matrix(g)).lambda2
    slc = OneSidedSlice(g, k, fugacity)
    n = g.n_side
    if math.comb(n, k - 2) <= face_cap:
        faces = list(combinations(range(n), k - 2))
    else:
        faces = _sampled_truncations(slc, sample_count, seed, _drop_two)
    for tau in faces:
        nbr = neighbor_graph(slc, tau)
        if not one_sided_hypotheses_met(nbr):
            report.add(tau, None, None, "hypothesis_not_met")
            continue
        try:
            op = one_sided_link_walk_closed_form(slc, tau)
        except SliceError as e:
            report.add(tau, None, None, "empty", str(e))
            continue
        lam2 = _lambda2_of_walk(op)
        avg_deg = float(nbr.survivor_degrees.mean())
        bound = one_sided_bound(g, lam2_adj, fugacity, len(tau), avg_deg)
        num = fugacity * lam2_adj ** 2 + fugacity ** 2 - 1.0
        if bound is None:
            report.add(tau, lam2, None, "vacuous", "nonpositive denominator")
        elif lam2 <= bound + BOUND_TOL:
            report.add(tau, lam2, bound, "pass")
        elif num <= 0:
            # underivable regime; only the sign statement is provable
            status = "fail" if lam2 > BOUND_TOL else "vacuous"
            report.add(tau, lam2, bound, status, "nonpositive numerator")
        else:
            report.add(tau, lam2, bound, "fail")
    return report


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
    if k < 2:
        return report
    lam_min = eigen_summary(adjacency_matrix(g)).lambda_min
    slc = RegularSlice(g, k)

    def independent(tau) -> bool:
        return all(b not in g.adj[a] for a, b in combinations(tau, 2))

    if math.comb(g.n, k - 2) <= face_cap:
        faces = [t for t in combinations(range(g.n), k - 2) if independent(t)]
    else:
        faces = _sampled_truncations(slc, sample_count, seed, _drop_two)
    for tau in faces:
        try:
            op = regular_link_walk_closed_form(slc, tau)
        except SliceError as e:
            report.add(tau, None, None, "empty", str(e))
            continue
        lam2 = _lambda2_of_walk(op)
        survivors = g.n - len(g.neighbor_set(tau, closed=True))
        bound = regular_bound(g, lam_min, survivors)
        if bound is None:
            report.add(tau, lam2, None, "vacuous", "nonpositive denominator")
        else:
            status = "pass" if lam2 <= bound + BOUND_TOL else "fail"
            report.add(tau, lam2, bound, status)
    return report


# -- one-sided matrix identities -------------------------------------------------------


def verify_walk_factorization(g: BipartiteRegularGraph, k: int, fugacity: float,
                              tau: Iterable[int], tol: float = IDENTITY_TOL):
    """Entrywise identity between the stationary-weighted walk and the
    common-neighbor weight matrix.

    With Pi half the stationary diagonal, Gamma(u,u) = Z_u / (2Z) and
    Pi~ = Gamma^{-1} Pi, the product Pi P must equal
    (1/(2Z)) Pi~ (1+lam)^{H} Pi~ exactly, where H is the neighbor graph and
    the exponential is entrywise off the diagonal.  Returns
    (ok, max deviation).
    """
    slc = OneSidedSlice(g, k, fugacity)
    tau = tuple(sorted(tau))
    op = one_sided_link_walk_closed_form(slc, tau)
    nbr = neighbor_graph(slc, tau)
    weight = nbr.weight_exponential(fugacity)
    z, zu = op.z_total, op.z_vertex
    pi_half = np.diag(op.pi / 2.0)
    gamma_inv = np.diag((2.0 * z) / zu)
    pi_tilde = gamma_inv @ pi_half
    lhs = pi_half @ op.matrix
    rhs = (pi_tilde @ weight @ pi_tilde) / (2.0 * z)
    deviation = float(np.max(np.abs(lhs - rhs)))
    return deviation <= tol, deviation


def verify_psd_chain(g: BipartiteRegularGraph, k: int, fugacity: float,
                     tau: Iterable[int], tol: float = BOUND_TOL) -> dict:
    """Three PSD dominations tying the weight matrix to the squared adjacency.

    With H the neighbor graph, E its entrywise (1+lam) exponential, J the
    all-ones matrix, and G2 the squared-adjacency principal submatrix on the
    link:   E <= J + lam H + (lam^2 - 1) I   (needs the hypotheses),
            H <= G2,
            E <= J + lam G2 + (lam^2 - 1) I.
    The first and third are gated on the common-neighbor hypotheses and
    reported as skipped when they fail.
    """
    slc = OneSidedSlice(g, k, fugacity)
    tau = tuple(sorted(tau))
    nbr = neighbor_graph(slc, tau)
    m = len(nbr.ground)
    h = nbr.counts.astype(float)
    e = nbr.weight_exponential(fugacity)
    b = g.biadjacency()
    sq = (b @ b.T)[np.ix_(nbr.ground, nbr.ground)]
    j = np.ones((m, m))
    eye = np.eye(m)
    lam = fugacity
    out: dict[str, object] = {"face": tau, "hypotheses_met": one_sided_hypotheses_met(nbr)}
    ok4, wit4 = psd_dominance(h, sq, tol)
    out["neighbor_below_squared"] = ok4
    if not out["hypotheses_met"]:
        out["weight_below_affine"] = None
        out["weight_below_squared_affine"] = None
        return out
    ok3, _ = psd_dominance(e, j + lam * h + (lam * lam - 1.0) * eye, tol)
    ok1, _ = psd_dominance(e, j + lam * sq + (lam * lam - 1.0) * eye, tol)
    out["weight_below_affine"] = ok3
    out["weight_below_squared_affine"] = ok1
    return out


def verify_one_sided_identities(g: BipartiteRegularGraph, k: int, fugacity: float,
                                face_cap: int = EXHAUSTIVE_FACE_CAP,
                                seed: int = 0) -> VerificationReport:
    """Factorization identity and PSD chain swept over all codimension-2 faces."""
    report = VerificationReport(f"one-sided identities k={k} fugacity={fugacity}")
    n = g.n_side
    if k < 2 or math.comb(n, k - 2) > face_cap:
        return report
    for tau in combinations(range(n), k - 2):
        ok, dev = verify_walk_factorization(g, k, fugacity, tau)
        report.add(tau, dev, IDENTITY_TOL, "pass" if ok else "fail", "factorization")
        psd = verify_psd_chain(g, k, fugacity, tau)
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
