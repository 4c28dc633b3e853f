"""Graph substrate: pairing-model generators, neighborhoods, complements.

Vertices are referenced as (side, index) with sides ``"x"`` and ``"y"`` for
bipartite graphs, 0-based on each side; plain 0-based integers for ordinary
regular graphs.  Every graph also has one global vertex encoding, which the
slices, walks, counting and spectra share: ``global_adj`` lists the
neighbors of each global id, where a bipartite graph numbers X as
0..n_side-1 and Y as n_side..2*n_side-1, and an ordinary graph keeps its
own ids.  Graphs are immutable after construction and safe to share across
threads; generators are pure functions of (parameters, seed).

Random regular (bipartite) graphs come from the pairing model: a uniform
perfect matching on degree-many half-edge copies of every vertex, with
whole-sample rejection of any outcome containing a loop or multiedge, which
preserves exact uniformity over simple graphs.  Rejection is hopeless for
large degree (the acceptance rate decays like exp(-(d-1)^2/2)), so the raw
multigraph rows are exposed separately for experiments that are insensitive
to multiedges.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .rng import rng_stream

X = "x"
Y = "y"


class RejectionBudgetError(RuntimeError):
    """Pairing-model rejection failed to produce a simple graph in budget."""


def _adjacency(n: int, pairs: Iterable[tuple[int, int]]) -> tuple[tuple[int, ...], ...]:
    """n sorted rows, row u holding v for every pair (u, v)."""
    rows: list[list[int]] = [[] for _ in range(n)]
    for u, v in pairs:
        rows[u].append(v)
    return tuple(tuple(sorted(row)) for row in rows)


def _indicator(rows: Sequence[Sequence[int]], width: int) -> np.ndarray:
    """0/1 matrix with a one at (i, j) for every j in rows[i]."""
    m = np.zeros((len(rows), width), dtype=np.float64)
    for i, row in enumerate(rows):
        m[i, list(row)] = 1.0
    return m


@dataclass(eq=False)
class BipartiteRegularGraph:
    """Simple degree-regular bipartite graph on sides X and Y of equal size."""

    n_side: int
    degree: int
    adj_x: tuple[tuple[int, ...], ...]  # y-neighbors of each x, sorted
    adj_y: tuple[tuple[int, ...], ...]  # x-neighbors of each y, sorted

    def validate(self) -> None:
        if self.n_side < 1:
            raise ValueError("n_side must be positive")
        if not 0 <= self.degree <= self.n_side:
            raise ValueError("degree must lie in [0, n_side]")
        if len(self.adj_x) != self.n_side or len(self.adj_y) != self.n_side:
            raise ValueError("adjacency length mismatch")
        for adj in (self.adj_x, self.adj_y):
            for row in adj:
                if len(row) != self.degree:
                    raise ValueError("vertex degree differs from the declared degree")
                if len(set(row)) != len(row):
                    raise ValueError("repeated edge")
                if row and (row[0] < 0 or row[-1] >= self.n_side):
                    raise ValueError("neighbor index out of range")
        for i, row in enumerate(self.adj_x):
            for j in row:
                if i not in self.adj_y[j]:
                    raise ValueError("adjacency lists are not mutually consistent")

    # -- neighborhoods -------------------------------------------------------

    def neighbors(self, side: str, i: int) -> tuple[int, ...]:
        adj = self.adj_x if side == X else self.adj_y
        if not 0 <= i < self.n_side:
            raise IndexError(f"vertex {side}{i} out of range")
        return adj[i]

    def neighbor_set(self, side: str, vertices: Iterable[int]) -> frozenset[int]:
        """Open neighborhood on the opposite side of a same-side vertex set."""
        adj = self.adj_x if side == X else self.adj_y
        out: set[int] = set()
        for i in vertices:
            if not 0 <= i < self.n_side:
                raise IndexError(f"vertex {side}{i} out of range")
            out.update(adj[i])
        return frozenset(out)

    @cached_property
    def global_adj(self) -> tuple[tuple[int, ...], ...]:
        """X rows with Y ids offset by n_side, then the Y rows."""
        n = self.n_side
        return tuple(tuple(n + j for j in row) for row in self.adj_x) + self.adj_y

    def adjacency(self) -> np.ndarray:
        """0/1 adjacency over global ids: the [[0, B], [B^T, 0]] layout."""
        return _indicator(self.global_adj, 2 * self.n_side)

    def edges(self) -> list[tuple[int, int]]:
        return [(i, j) for i, row in enumerate(self.adj_x) for j in row]


@dataclass(eq=False)
class RegularGraph:
    """Simple degree-regular graph."""

    n: int
    degree: int
    adj: tuple[tuple[int, ...], ...]

    def validate(self) -> None:
        if self.n < 1:
            raise ValueError("n must be positive")
        if not 0 <= self.degree < self.n:
            raise ValueError("degree must lie in [0, n)")
        if (self.n * self.degree) % 2 != 0:
            raise ValueError("n * degree must be even")
        if len(self.adj) != self.n:
            raise ValueError("adjacency length mismatch")
        for v, row in enumerate(self.adj):
            if len(row) != self.degree:
                raise ValueError("vertex degree differs from the declared degree")
            if len(set(row)) != len(row):
                raise ValueError("repeated edge")
            if v in row:
                raise ValueError("self-loop")
            for u in row:
                if not 0 <= u < self.n:
                    raise ValueError("neighbor index out of range")
                if v not in self.adj[u]:
                    raise ValueError("adjacency lists are not mutually consistent")

    def neighbors(self, v: int) -> tuple[int, ...]:
        if not 0 <= v < self.n:
            raise IndexError(f"vertex {v} out of range")
        return self.adj[v]

    @property
    def global_adj(self) -> tuple[tuple[int, ...], ...]:
        return self.adj

    def adjacency(self) -> np.ndarray:
        return _indicator(self.adj, self.n)

    def edges(self) -> list[tuple[int, int]]:
        return [(v, u) for v, row in enumerate(self.adj) for u in row if v < u]


# -- pairing-model generators --------------------------------------------------


def pairing_bipartite_rows(n_side: int, degree: int, rng: np.random.Generator) -> np.ndarray:
    """One draw of the bipartite pairing model as an (n_side, degree) array.

    Row i holds the y-endpoints matched to the half-edge cloud of x_i; repeated
    entries within a row are multiedges.  Every multigraph neighborhood
    statistic can be read off these rows directly.
    """
    stubs = np.repeat(np.arange(n_side, dtype=np.int64), degree)
    rows = rng.permutation(stubs).reshape(n_side, degree)
    rows.sort(axis=1)
    return rows


def rows_are_simple(rows: np.ndarray) -> bool:
    """True iff no row of a sorted pairing-row array repeats an endpoint."""
    if rows.shape[1] <= 1:
        return True
    return bool(np.all(rows[:, 1:] != rows[:, :-1]))


def gen_bipartite_regular(n_side: int, degree: int, seed: int,
                          *, max_retries: int = 10_000) -> BipartiteRegularGraph:
    """Uniform simple degree-regular bipartite graph via pairing + rejection.

    K_{n,n} (degree n_side) and K_{n,n} less a uniform perfect matching
    (degree n_side - 1) are drawn directly.  Raises RejectionBudgetError
    when no simple outcome appears within ``max_retries`` attempts, which
    signals pathological parameters (degree close to n_side, or degree large
    enough that exp(-(d-1)^2/2) is negligible).
    """
    if n_side < 1:
        raise ValueError("n_side must be positive")
    if not 1 <= degree <= n_side:
        raise ValueError("degree must lie in [1, n_side]")
    rng = rng_stream(seed)
    if degree >= n_side - 1:
        # x_i misses y_p(i), and nothing at degree n_side
        missing = rng.permutation(n_side) if degree < n_side else np.full(n_side, n_side)
        ids = np.arange(n_side)
        rows = np.broadcast_to(ids, (n_side, n_side))[ids != missing[:, None]]
    else:
        for _ in range(max_retries):
            if rows_are_simple(rows := pairing_bipartite_rows(n_side, degree, rng)):
                break
        else:
            raise RejectionBudgetError(
                f"no simple bipartite graph in {max_retries} pairing attempts "
                f"(n_side={n_side}, degree={degree})")
    # a stable sort of the endpoints lists each y's neighbours in order
    cols = np.argsort(rows, axis=None, kind="stable") // degree
    adj_x, adj_y = (tuple(map(tuple, a.reshape(n_side, degree).tolist())) for a in (rows, cols))
    return BipartiteRegularGraph(n_side, degree, adj_x, adj_y)


def gen_regular(n: int, degree: int, seed: int,
                *, max_retries: int = 10_000) -> RegularGraph:
    """Uniform simple degree-regular graph via pairing + whole-sample rejection."""
    if n < 1:
        raise ValueError("n must be positive")
    if not 1 <= degree < n:
        raise ValueError("degree must lie in [1, n)")
    if (n * degree) % 2 != 0:
        raise ValueError("n * degree must be even")
    rng = rng_stream(seed)
    stubs = np.repeat(np.arange(n, dtype=np.int64), degree)
    for _ in range(max_retries):
        perm = rng.permutation(stubs)
        a, b = perm[0::2], perm[1::2]
        if np.any(a == b):
            continue  # self-loop
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        keys = lo * n + hi
        if np.unique(keys).size != keys.size:
            continue  # multiedge
        ends, others = np.concatenate([lo, hi]), np.concatenate([hi, lo])
        adj = others[np.lexsort((others, ends))].reshape(n, degree)
        return RegularGraph(n, degree, tuple(map(tuple, adj.tolist())))
    raise RejectionBudgetError(
        f"no simple regular graph in {max_retries} pairing attempts (n={n}, degree={degree})")


# -- complements ----------------------------------------------------------------


def bipartite_complement(g: BipartiteRegularGraph) -> BipartiteRegularGraph:
    """Flip exactly the crossing pairs; the result is (n_side - degree)-regular."""
    n = g.n_side
    full = frozenset(range(n))
    adj_x = tuple(tuple(sorted(full - set(row))) for row in g.adj_x)
    adj_y = tuple(tuple(sorted(full - set(row))) for row in g.adj_y)
    return BipartiteRegularGraph(n, n - g.degree, adj_x, adj_y)


def complement_regular(g: RegularGraph) -> RegularGraph:
    """Ordinary graph complement (no loops); (n - 1 - degree)-regular."""
    n = g.n
    full = set(range(n))
    adj = tuple(tuple(sorted(full - set(row) - {v})) for v, row in enumerate(g.adj))
    return RegularGraph(n, n - 1 - g.degree, adj)


# -- text format ----------------------------------------------------------------


def save_graph(g, path: str | Path) -> None:
    """Write the one-edge-per-line text format with a typed header."""
    lines = []
    if isinstance(g, BipartiteRegularGraph):
        lines.append(f"bipartite {g.n_side} {g.degree}")
        lines.extend(f"{u} {v}" for u, v in g.edges())
    elif isinstance(g, RegularGraph):
        lines.append(f"regular {g.n} {g.degree}")
        lines.extend(f"{u} {v}" for u, v in g.edges())
    else:
        raise TypeError(f"unsupported graph type {type(g).__name__}")
    Path(path).write_text("\n".join(lines) + "\n")


def load_graph(path: str | Path):
    """Load and validate a graph written by :func:`save_graph`."""
    text = Path(path).read_text().strip().splitlines()
    if not text:
        raise ValueError(f"{path}: empty graph file")
    header = text[0].split()
    if len(header) != 3 or header[0] not in ("bipartite", "regular"):
        raise ValueError(f"{path}: bad header {text[0]!r}")
    kind, n, degree = header[0], int(header[1]), int(header[2])
    edges = []
    for lineno, line in enumerate(text[1:], start=2):
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"{path}:{lineno}: expected 'u v'")
        edges.append((int(parts[0]), int(parts[1])))
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"{path}: edge ({u}, {v}) out of range")
    back = [(v, u) for u, v in edges]
    if kind == "bipartite":
        g = BipartiteRegularGraph(n, degree, _adjacency(n, edges), _adjacency(n, back))
    else:
        g = RegularGraph(n, degree, _adjacency(n, edges + back))
    g.validate()
    return g
