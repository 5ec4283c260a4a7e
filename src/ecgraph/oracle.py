"""Brute-force reference solvers for every decision made by this package.

These are definition-literal exhaustive searches.  They exist for truth,
not speed: the fast algorithms elsewhere are validated against them on
small instances.  Every oracle refuses inputs beyond its budget instead
of running unbounded.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from .core import (
    AlternatingCycle,
    AlternatingTrail,
    Colour,
    CycleFactor,
    EdgeColouredMultigraph,
    EulerianFactor,
    check_witness,
)


class BudgetExceeded(RuntimeError):
    pass


@dataclass(frozen=True)
class OracleBudget:
    max_vertices: int = 10
    max_edges: int = 22
    seconds: float = 30.0

    def admit(self, g: EdgeColouredMultigraph) -> None:
        if len(g.vertices) > self.max_vertices:
            raise BudgetExceeded(
                f"{len(g.vertices)} vertices exceeds budget {self.max_vertices}")
        if len(g.edges) > self.max_edges:
            raise BudgetExceeded(
                f"{len(g.edges)} edges exceeds budget {self.max_edges}")

    def deadline(self) -> float:
        return time.monotonic() + self.seconds


DEFAULT_BUDGET = OracleBudget()


class _Indexed:
    """Array view of a graph for the bitmask searches below."""

    def __init__(self, g: EdgeColouredMultigraph):
        self.g = g
        self.verts = list(g.vertices)
        self.vidx = {v: i for i, v in enumerate(self.verts)}
        self.edges = list(g.edges)
        self.eidx = {e.id: i for i, e in enumerate(self.edges)}
        self.adj: list[list[tuple[int, int, Colour]]] = [[] for _ in self.verts]
        for i, e in enumerate(self.edges):
            u, v = self.vidx[e.u], self.vidx[e.v]
            self.adj[u].append((i, v, e.colour))
            self.adj[v].append((i, u, e.colour))

    def full_vertex_mask(self) -> int:
        return (1 << len(self.verts)) - 1


def _tick(deadline: float, counter: list[int]) -> None:
    counter[0] += 1
    if counter[0] % 4096 == 0 and time.monotonic() > deadline:
        raise BudgetExceeded("time limit exceeded")


def oracle_supereulerian(g: EdgeColouredMultigraph,
                         budget: OracleBudget = DEFAULT_BUDGET
                         ) -> Optional[AlternatingTrail]:
    """Spanning closed alternating trail by exhaustive trail DFS."""
    budget.admit(g)
    if len(g.vertices) < 2:
        return None
    for v in g.vertices:
        if g.degree(v, Colour.RED) == 0 or g.degree(v, Colour.BLUE) == 0:
            return None
    ix = _Indexed(g)
    deadline = budget.deadline()
    counter = [0]
    root = 0
    n = len(ix.verts)
    failed: set[tuple[int, int, Colour, Colour]] = set()

    def covered(mask: int) -> int:
        vm = 1 << root
        for i, e in enumerate(ix.edges):
            if mask >> i & 1:
                vm |= 1 << ix.vidx[e.u]
                vm |= 1 << ix.vidx[e.v]
        return vm

    path: list[int] = []

    def dfs(cur: int, mask: int, last: Colour, first: Colour) -> bool:
        _tick(deadline, counter)
        key = (cur, mask, last, first)
        if key in failed:
            return False
        if cur == root and last is not first and covered(mask) == ix.full_vertex_mask():
            return True
        for ei, to, col in ix.adj[cur]:
            if mask >> ei & 1 or col is last:
                continue
            path.append(ei)
            if dfs(to, mask | (1 << ei), col, first):
                return True
            path.pop()
        failed.add(key)
        return False

    for ei, to, col in ix.adj[root]:
        path.append(ei)
        if dfs(to, 1 << ei, col, col):
            return check_witness(g, AlternatingTrail(
                ix.verts[root], tuple(ix.edges[i].id for i in path),
                closed=True), "oracle witness")
        path.pop()
    return None


def oracle_ham_alternating(g: EdgeColouredMultigraph,
                           budget: OracleBudget = DEFAULT_BUDGET
                           ) -> Optional[AlternatingCycle]:
    """Spanning alternating cycle by exhaustive simple-cycle DFS."""
    budget.admit(g)
    n = len(g.vertices)
    if n < 2:
        return None
    ix = _Indexed(g)
    deadline = budget.deadline()
    counter = [0]
    root = 0
    full = ix.full_vertex_mask()
    failed: set[tuple[int, int, Colour, Colour]] = set()
    path: list[int] = []

    def dfs(cur: int, vmask: int, last: Colour, first: Colour) -> bool:
        _tick(deadline, counter)
        key = (cur, vmask, last, first)
        if key in failed:
            return False
        if vmask == full:
            for ei, to, col in ix.adj[cur]:
                if to == root and col is not last and col is not first \
                        and ei not in path:
                    path.append(ei)
                    return True
            failed.add(key)
            return False
        for ei, to, col in ix.adj[cur]:
            if col is last or vmask >> to & 1:
                continue
            path.append(ei)
            if dfs(to, vmask | (1 << to), col, first):
                return True
            path.pop()
        failed.add(key)
        return False

    for ei, to, col in ix.adj[root]:
        if to == root:
            continue
        path.append(ei)
        if dfs(to, (1 << root) | (1 << to), col, col):
            return check_witness(g, AlternatingCycle(
                ix.verts[root], tuple(ix.edges[i].id for i in path)),
                "oracle witness")
        path.pop()
    return None


def _balanced_subsets(ix: _Indexed, deadline: float):
    """Yield edge masks where every vertex has red-deg = blue-deg >= 1."""
    n = len(ix.verts)
    m = len(ix.edges)
    counter = [0]
    # remaining red/blue edges per vertex among edges >= position k
    rem_red = [[0] * (m + 1) for _ in range(n)]
    rem_blue = [[0] * (m + 1) for _ in range(n)]
    for k in range(m - 1, -1, -1):
        e = ix.edges[k]
        for v in range(n):
            rem_red[v][k] = rem_red[v][k + 1]
            rem_blue[v][k] = rem_blue[v][k + 1]
        for v in (ix.vidx[e.u], ix.vidx[e.v]):
            if e.colour is Colour.RED:
                rem_red[v][k] += 1
            else:
                rem_blue[v][k] += 1

    bal = [0] * n       # selected red minus selected blue
    red_sel = [0] * n
    blue_sel = [0] * n

    def feasible(v: int, k: int) -> bool:
        # can vertex v still reach red=blue>=1 using edges from position k on?
        b = bal[v]
        if b > rem_blue[v][k] or -b > rem_red[v][k]:
            return False
        if red_sel[v] == 0 and rem_red[v][k] == 0:
            return False
        if blue_sel[v] == 0 and rem_blue[v][k] == 0:
            return False
        return True

    def rec(k: int, mask: int):
        _tick(deadline, counter)
        if k == m:
            if all(bal[v] == 0 and red_sel[v] >= 1 for v in range(n)):
                yield mask
            return
        e = ix.edges[k]
        eu, ev = ix.vidx[e.u], ix.vidx[e.v]
        d = 1 if e.colour is Colour.RED else -1
        # include
        for v in (eu, ev):
            bal[v] += d
            if d > 0:
                red_sel[v] += 1
            else:
                blue_sel[v] += 1
        if feasible(eu, k + 1) and feasible(ev, k + 1):
            yield from rec(k + 1, mask | (1 << k))
        for v in (eu, ev):
            bal[v] -= d
            if d > 0:
                red_sel[v] -= 1
            else:
                blue_sel[v] -= 1
        # exclude
        if feasible(eu, k + 1) and feasible(ev, k + 1):
            yield from rec(k + 1, mask)

    yield from rec(0, 0)


def oracle_eulerian_factor(g: EdgeColouredMultigraph,
                           budget: OracleBudget = DEFAULT_BUDGET
                           ) -> Optional[EulerianFactor]:
    """Edge-subset search for a colour-balanced spanning sub-multigraph."""
    budget.admit(g)
    if len(g.vertices) < 2:
        return None
    for v in g.vertices:
        if g.degree(v, Colour.RED) == 0 or g.degree(v, Colour.BLUE) == 0:
            return None
    from .factor import tour_factor_from_balanced_edges
    ix = _Indexed(g)
    deadline = budget.deadline()
    for mask in _balanced_subsets(ix, deadline):
        return check_witness(g, tour_factor_from_balanced_edges(
            g, [i for i in range(len(ix.edges)) if mask >> i & 1]),
            "oracle witness")
    return None


def oracle_cycle_factor(g: EdgeColouredMultigraph,
                        budget: OracleBudget = DEFAULT_BUDGET,
                        forbid_digons: bool = False
                        ) -> Optional[CycleFactor]:
    """Backtracking over alternating cycles through the lowest free vertex."""
    budget.admit(g)
    n = len(g.vertices)
    if n < 2:
        return None
    ix = _Indexed(g)
    deadline = budget.deadline()
    counter = [0]
    full = ix.full_vertex_mask()

    def cycles_through(root: int, free: int):
        """All alternating simple cycles on `free` vertices containing root."""
        path: list[int] = []

        def dfs(cur: int, vmask: int, last: Colour, first: Colour):
            _tick(deadline, counter)
            for ei, to, col in ix.adj[cur]:
                if col is last:
                    continue
                if to == root and col is not first and ei not in path \
                        and not (forbid_digons and len(path) == 1):
                    yield path + [ei]
                if to > root and free >> to & 1 and not vmask >> to & 1:
                    path.append(ei)
                    yield from dfs(to, vmask | (1 << to), col, first)
                    path.pop()

        for ei, to, col in ix.adj[root]:
            if to > root and free >> to & 1:
                path.append(ei)
                yield from dfs(to, (1 << root) | (1 << to), col, col)
                path.pop()

    def rec(free: int, acc: list[AlternatingCycle]) -> bool:
        if free == 0:
            return True
        root = (free & -free).bit_length() - 1
        for edge_path in cycles_through(root, free):
            used = 0
            for ei in edge_path:
                e = ix.edges[ei]
                used |= (1 << ix.vidx[e.u]) | (1 << ix.vidx[e.v])
            acc.append(AlternatingCycle(
                ix.verts[root], tuple(ix.edges[i].id for i in edge_path)))
            if rec(free & ~used, acc):
                return True
            acc.pop()
        return False

    acc: list[AlternatingCycle] = []
    if rec(full, acc):
        return check_witness(g, CycleFactor(tuple(acc)), "oracle witness")
    return None


def oracle_alternating_path(g: EdgeColouredMultigraph, x: str, y: str,
                            start: Colour, end: Optional[Colour] = None,
                            budget: OracleBudget = DEFAULT_BUDGET
                            ) -> Optional[AlternatingTrail]:
    """Simple alternating (x,y)-path, first edge `start`, last `end` if given."""
    budget.admit(g)
    if x == y:
        raise ValueError("endpoints must differ")
    ix = _Indexed(g)
    deadline = budget.deadline()
    counter = [0]
    xi, yi = ix.vidx[x], ix.vidx[y]
    path: list[int] = []

    def dfs(cur: int, vmask: int, last: Optional[Colour]) -> bool:
        _tick(deadline, counter)
        if cur == yi:
            return end is None or last is end
        for ei, to, col in ix.adj[cur]:
            if vmask >> to & 1:
                continue
            if last is None:
                if col is not start:
                    continue
            elif col is last:
                continue
            path.append(ei)
            if dfs(to, vmask | (1 << to), col):
                return True
            path.pop()
        return False

    if dfs(xi, 1 << xi, None):
        return check_witness(g, AlternatingTrail(
            x, tuple(ix.edges[i].id for i in path)),
            "oracle witness")
    return None


def oracle_alternating_trail(g: EdgeColouredMultigraph, x: str, y: str,
                             start: Colour, end: Optional[Colour] = None,
                             budget: OracleBudget = DEFAULT_BUDGET
                             ) -> Optional[AlternatingTrail]:
    """Edge-distinct alternating (x,y)-trail with prescribed colours."""
    budget.admit(g)
    if x == y:
        raise ValueError("endpoints must differ")
    ix = _Indexed(g)
    deadline = budget.deadline()
    counter = [0]
    xi, yi = ix.vidx[x], ix.vidx[y]
    path: list[int] = []
    failed: set[tuple[int, int, Optional[Colour]]] = set()

    def dfs(cur: int, emask: int, last: Optional[Colour]) -> bool:
        _tick(deadline, counter)
        if cur == yi and last is not None and (end is None or last is end):
            return True
        key = (cur, emask, last)
        if key in failed:
            return False
        for ei, to, col in ix.adj[cur]:
            if emask >> ei & 1:
                continue
            if last is None:
                if col is not start:
                    continue
            elif col is last:
                continue
            path.append(ei)
            if dfs(to, emask | (1 << ei), col):
                return True
            path.pop()
        failed.add(key)
        return False

    if dfs(xi, 0, None):
        return check_witness(g, AlternatingTrail(
            x, tuple(ix.edges[i].id for i in path)),
            "oracle witness")
    return None


def oracle_colour_connected(g: EdgeColouredMultigraph,
                            budget: OracleBudget = DEFAULT_BUDGET) -> bool:
    budget.admit(g)
    for u in g.vertices:
        for v in g.vertices:
            if u == v:
                continue
            for c in (Colour.RED, Colour.BLUE):
                if oracle_alternating_path(g, u, v, c, budget=budget) is None:
                    return False
    return True


def oracle_trail_colour_connected(g: EdgeColouredMultigraph,
                                  budget: OracleBudget = DEFAULT_BUDGET) -> bool:
    budget.admit(g)
    for u in g.vertices:
        for v in g.vertices:
            if u == v:
                continue
            for c in (Colour.RED, Colour.BLUE):
                if oracle_alternating_trail(g, u, v, c, budget=budget) is None:
                    return False
    return True
