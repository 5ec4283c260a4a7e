"""Brute-force reference solvers for every decision made by this package.

These are definition-literal exhaustive searches.  They exist for truth,
not speed: the fast algorithms elsewhere are validated against them on
small instances.  Every oracle refuses inputs beyond its budget instead
of running unbounded, and checks each witness it returns
(`check_witness`), once, before it returns it.
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
        if len(g.bit) > self.max_edges:
            raise BudgetExceeded(
                f"{len(g.bit)} edges exceeds budget {self.max_edges}")

    def deadline(self) -> float:
        return time.monotonic() + self.seconds


DEFAULT_BUDGET = OracleBudget()


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
    if any(0 in g.colour_degrees(i) for i in range(len(g.vertices))):
        return None
    eu, ev, bit, off, inc, far = g.eu, g.ev, g.bit, g.off, g.inc, g.far
    deadline = budget.deadline()
    counter = [0]
    root = 0
    full = (1 << len(g.vertices)) - 1
    failed: set[tuple[int, int, int, int]] = set()

    def covered(mask: int) -> int:
        vm = 1 << root
        for k in range(len(bit)):
            if mask >> k & 1:
                vm |= (1 << eu[k]) | (1 << ev[k])
        return vm

    path: list[int] = []

    def dfs(cur: int, mask: int, last: int, first: int) -> bool:
        _tick(deadline, counter)
        key = (cur, mask, last, first)
        if key in failed:
            return False
        if cur == root and last != first and covered(mask) == full:
            return True
        for t in range(off[cur], off[cur + 1]):
            ei = inc[t]
            if mask >> ei & 1 or bit[ei] == last:
                continue
            path.append(ei)
            if dfs(far[t], mask | (1 << ei), bit[ei], first):
                return True
            path.pop()
        failed.add(key)
        return False

    for t in range(off[root], off[root + 1]):
        ei = inc[t]
        path.append(ei)
        if dfs(far[t], 1 << ei, bit[ei], bit[ei]):
            return check_witness(g, AlternatingTrail(
                g.vertices[root], g.ids(path), closed=True),
                "oracle witness")
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
    bit, off, inc, far = g.bit, g.off, g.inc, g.far
    deadline = budget.deadline()
    counter = [0]
    root = 0
    full = (1 << n) - 1
    failed: set[tuple[int, int, int, int]] = set()
    path: list[int] = []

    def dfs(cur: int, vmask: int, last: int, first: int) -> bool:
        _tick(deadline, counter)
        key = (cur, vmask, last, first)
        if key in failed:
            return False
        if vmask == full:
            for t in range(off[cur], off[cur + 1]):
                ei = inc[t]
                if far[t] == root and bit[ei] != last \
                        and bit[ei] != first and ei not in path:
                    path.append(ei)
                    return True
            failed.add(key)
            return False
        for t in range(off[cur], off[cur + 1]):
            ei = inc[t]
            to = far[t]
            if bit[ei] == last or vmask >> to & 1:
                continue
            path.append(ei)
            if dfs(to, vmask | (1 << to), bit[ei], first):
                return True
            path.pop()
        failed.add(key)
        return False

    for t in range(off[root], off[root + 1]):
        ei = inc[t]
        path.append(ei)
        if dfs(far[t], (1 << root) | (1 << far[t]), bit[ei], bit[ei]):
            return check_witness(g, AlternatingCycle(
                g.vertices[root], g.ids(path)), "oracle witness")
        path.pop()
    return None


def _balanced_subsets(g: EdgeColouredMultigraph, deadline: float):
    """Yield edge masks where every vertex has red-deg = blue-deg >= 1."""
    eu, ev, bit = g.eu, g.ev, g.bit
    n = len(g.vertices)
    m = len(bit)
    counter = [0]
    # remaining red/blue edges per vertex among edges >= position k
    rem_red = [[0] * (m + 1) for _ in range(n)]
    rem_blue = [[0] * (m + 1) for _ in range(n)]
    for k in range(m - 1, -1, -1):
        for v in range(n):
            rem_red[v][k] = rem_red[v][k + 1]
            rem_blue[v][k] = rem_blue[v][k + 1]
        for v in (eu[k], ev[k]):
            if bit[k]:
                rem_blue[v][k] += 1
            else:
                rem_red[v][k] += 1

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
        u, w = eu[k], ev[k]
        d = -1 if bit[k] else 1
        # include
        for v in (u, w):
            bal[v] += d
            if d > 0:
                red_sel[v] += 1
            else:
                blue_sel[v] += 1
        if feasible(u, k + 1) and feasible(w, k + 1):
            yield from rec(k + 1, mask | (1 << k))
        for v in (u, w):
            bal[v] -= d
            if d > 0:
                red_sel[v] -= 1
            else:
                blue_sel[v] -= 1
        # exclude
        if feasible(u, k + 1) and feasible(w, k + 1):
            yield from rec(k + 1, mask)

    yield from rec(0, 0)


def oracle_eulerian_factor(g: EdgeColouredMultigraph,
                           budget: OracleBudget = DEFAULT_BUDGET
                           ) -> Optional[EulerianFactor]:
    """Edge-subset search for a colour-balanced spanning sub-multigraph."""
    budget.admit(g)
    if len(g.vertices) < 2:
        return None
    if any(0 in g.colour_degrees(i) for i in range(len(g.vertices))):
        return None
    from .factor import tour_factor_from_balanced_edges
    deadline = budget.deadline()
    for mask in _balanced_subsets(g, deadline):
        return check_witness(g, tour_factor_from_balanced_edges(
            g, [k for k in range(len(g.bit)) if mask >> k & 1]),
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
    eu, ev, bit, off, inc, far = g.eu, g.ev, g.bit, g.off, g.inc, g.far
    deadline = budget.deadline()
    counter = [0]
    full = (1 << n) - 1

    def cycles_through(root: int, free: int):
        """All alternating simple cycles on `free` vertices containing root."""
        path: list[int] = []

        def dfs(cur: int, vmask: int, last: int, first: int):
            _tick(deadline, counter)
            for t in range(off[cur], off[cur + 1]):
                ei = inc[t]
                to = far[t]
                col = bit[ei]
                if col == last:
                    continue
                if to == root and col != first and ei not in path \
                        and not (forbid_digons and len(path) == 1):
                    yield path + [ei]
                if to > root and free >> to & 1 and not vmask >> to & 1:
                    path.append(ei)
                    yield from dfs(to, vmask | (1 << to), col, first)
                    path.pop()

        for t in range(off[root], off[root + 1]):
            ei = inc[t]
            to = far[t]
            if to > root and free >> to & 1:
                path.append(ei)
                yield from dfs(to, (1 << root) | (1 << to), bit[ei], bit[ei])
                path.pop()

    def rec(free: int, acc: list[AlternatingCycle]) -> bool:
        if free == 0:
            return True
        root = (free & -free).bit_length() - 1
        for edge_path in cycles_through(root, free):
            used = 0
            for ei in edge_path:
                used |= (1 << eu[ei]) | (1 << ev[ei])
            acc.append(AlternatingCycle(g.vertices[root], g.ids(edge_path)))
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
    bit, off, inc, far = g.bit, g.off, g.inc, g.far
    deadline = budget.deadline()
    counter = [0]
    xi, yi = g.vertex_index(x), g.vertex_index(y)
    s = start.bit
    e = -1 if end is None else end.bit
    path: list[int] = []

    def dfs(cur: int, vmask: int, last: int) -> bool:
        _tick(deadline, counter)
        if cur == yi:
            return e < 0 or last == e
        for t in range(off[cur], off[cur + 1]):
            ei = inc[t]
            to = far[t]
            if vmask >> to & 1:
                continue
            if bit[ei] == last or last < 0 and bit[ei] != s:
                continue
            path.append(ei)
            if dfs(to, vmask | (1 << to), bit[ei]):
                return True
            path.pop()
        return False

    if dfs(xi, 1 << xi, -1):
        return check_witness(g, AlternatingTrail(x, g.ids(path)),
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
    bit, off, inc, far = g.bit, g.off, g.inc, g.far
    deadline = budget.deadline()
    counter = [0]
    xi, yi = g.vertex_index(x), g.vertex_index(y)
    s = start.bit
    e = -1 if end is None else end.bit
    path: list[int] = []
    failed: set[tuple[int, int, int]] = set()

    def dfs(cur: int, emask: int, last: int) -> bool:
        _tick(deadline, counter)
        if cur == yi and last >= 0 and (e < 0 or last == e):
            return True
        key = (cur, emask, last)
        if key in failed:
            return False
        for t in range(off[cur], off[cur + 1]):
            ei = inc[t]
            if emask >> ei & 1:
                continue
            if bit[ei] == last or last < 0 and bit[ei] != s:
                continue
            path.append(ei)
            if dfs(far[t], emask | (1 << ei), bit[ei]):
                return True
            path.pop()
        failed.add(key)
        return False

    if dfs(xi, 0, -1):
        return check_witness(g, AlternatingTrail(x, g.ids(path)),
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
