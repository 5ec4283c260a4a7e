"""Brute-force reference solvers for every decision made by this package.

These are definition-literal exhaustive searches.  They exist for truth,
not speed: the fast algorithms elsewhere are validated against them on
small instances.  Every oracle refuses inputs beyond its budget instead
of running unbounded, and checks each witness it returns
(`check_witness`, or `check_walk` for a path or trail), once, before it
returns it; a spanning walk's check includes its span.

One search per walk kind, `_path` (simple) and `_trail`
(edge-distinct), answers every walk oracle: the single queries and the
connectivity oracles ask it from x to y != x, and the spanning oracles
ask it from vertex 0 back to itself, which it answers only with a
closed walk through every vertex.

A budget's time limit holds for one oracle call as a whole: the call
arms one clock (`OracleBudget.clock`), ticks it at every search node,
and reads the time every 4096 ticks.  A connectivity oracle's queries
all tick the one clock of its call.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import permutations
from typing import Callable, Optional

from .core import (
    AlternatingCycle,
    AlternatingTrail,
    Colour,
    CycleFactor,
    EdgeColouredMultigraph,
    EulerianFactor,
    check_walk,
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

    def clock(self) -> Callable[[], None]:
        """The tick one oracle call makes at every search node.  It holds
        the call's deadline, `seconds` from now, and its count, and
        raises BudgetExceeded on every 4096th tick once the deadline has
        passed."""
        deadline = time.monotonic() + self.seconds
        left = 4096

        def tick() -> None:
            nonlocal left
            left -= 1
            if not left:
                left = 4096
                if time.monotonic() > deadline:
                    raise BudgetExceeded("time limit exceeded")
        return tick


DEFAULT_BUDGET = OracleBudget()


def _closed(g: EdgeColouredMultigraph, search, tick: Callable[[], None],
            kind: type) -> Optional[AlternatingTrail]:
    """The closed walk of type `kind` through every vertex that `search`
    finds from vertex 0 back to itself, checked, or None."""
    ks = search(g, 0, 0, -1, -1, tick)
    if ks is None:
        return None
    w = kind(g.vertices[0], g.ids(ks), closed=True)
    # a cycle on its own is checked to span g, and a spanning closed
    # trail is a one-part eulerian factor
    check_witness(g, w if kind is AlternatingCycle else
                  EulerianFactor(((frozenset(g.vertices), w),)),
                  "oracle witness")
    return w


def oracle_supereulerian(g: EdgeColouredMultigraph,
                         budget: OracleBudget = DEFAULT_BUDGET
                         ) -> Optional[AlternatingTrail]:
    """Spanning closed alternating trail: `_trail` from vertex 0 back to
    itself."""
    budget.admit(g)
    tick = budget.clock()
    n = len(g.vertices)
    if n < 2 or any(0 in g.colour_degrees(i) for i in range(n)):
        return None
    return _closed(g, _trail, tick, AlternatingTrail)


def oracle_ham_alternating(g: EdgeColouredMultigraph,
                           budget: OracleBudget = DEFAULT_BUDGET
                           ) -> Optional[AlternatingCycle]:
    """Spanning alternating cycle: `_path` from vertex 0 back to itself."""
    budget.admit(g)
    tick = budget.clock()
    if len(g.vertices) < 2:
        return None
    return _closed(g, _path, tick, AlternatingCycle)


def _balanced_subsets(g: EdgeColouredMultigraph, tick: Callable[[], None]):
    """Yield edge masks where every vertex has red-deg = blue-deg >= 1."""
    eu, ev, bit = g.eu, g.ev, g.bit
    n, m = len(g.vertices), len(bit)
    # at 2v + colour bit: v's selected edges of that colour, and its
    # undecided ones (positions after the edge being decided)
    sel = [0] * (2 * n)
    left = [d for v in range(n) for d in g.colour_degrees(v)]

    def feasible(v: int) -> bool:
        # can vertex v still reach red=blue>=1 using its undecided edges?
        i = 2 * v
        r, b, lr, lb = sel[i], sel[i + 1], left[i], left[i + 1]
        return r - b <= lb and b - r <= lr and r + lr > 0 and b + lb > 0

    def rec(k: int, mask: int):
        tick()
        if k == m:
            if all(sel[2 * v] == sel[2 * v + 1] >= 1 for v in range(n)):
                yield mask
            return
        u, w = eu[k], ev[k]
        a, b = 2 * u + bit[k], 2 * w + bit[k]
        left[a] -= 1
        left[b] -= 1
        # include
        sel[a] += 1
        sel[b] += 1
        if feasible(u) and feasible(w):
            yield from rec(k + 1, mask | (1 << k))
        sel[a] -= 1
        sel[b] -= 1
        # exclude
        if feasible(u) and feasible(w):
            yield from rec(k + 1, mask)
        left[a] += 1
        left[b] += 1

    yield from rec(0, 0)


def oracle_eulerian_factor(g: EdgeColouredMultigraph,
                           budget: OracleBudget = DEFAULT_BUDGET
                           ) -> Optional[EulerianFactor]:
    """Edge-subset search for a colour-balanced spanning sub-multigraph."""
    budget.admit(g)
    tick = budget.clock()
    if len(g.vertices) < 2:
        return None
    if any(0 in g.colour_degrees(i) for i in range(len(g.vertices))):
        return None
    from .factor import tour_factor_from_balanced_edges
    for mask in _balanced_subsets(g, tick):
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
    tick = budget.clock()
    n = len(g.vertices)
    if n < 2:
        return None
    eu, ev, bit, off, inc, far = g.eu, g.ev, g.bit, g.off, g.inc, g.far
    full = (1 << n) - 1

    def cycles_through(root: int, free: int):
        """All alternating simple cycles on `free` vertices containing root."""
        path: list[int] = []

        def dfs(cur: int, vmask: int, last: int, first: int):
            tick()
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


def _path(g: EdgeColouredMultigraph, x: int, y: int, s: int, e: int,
          tick: Callable[[], None]) -> Optional[list[int]]:
    """Positions of a simple alternating path from vertex index x to y,
    first colour bit s unless -1, last e unless -1, by exhaustive DFS;
    None if there is none.  With y == x (s = e = -1) the path closes:
    x stays barred until every vertex is visited, and the last colour
    differs from the first, so it is an alternating hamiltonian
    cycle."""
    bit, off, inc, far = g.bit, g.off, g.inc, g.far
    full = (1 << len(g.vertices)) - 1
    path: list[int] = []
    failed: set[tuple[int, int, int, int]] = set()

    def dfs(cur: int, vmask: int, last: int, first: int) -> bool:
        tick()
        if cur == y and last >= 0:
            return (e < 0 or last == e) and (x != y or last != first)
        key = (cur, vmask, last, first)
        if key in failed:
            return False
        for t in range(off[cur], off[cur + 1]):
            ei = inc[t]
            to = far[t]
            c = bit[ei]
            if vmask >> to & 1 and (to != y or vmask != full) \
                    or c == last or last < 0 <= s and c != s:
                continue
            path.append(ei)
            if dfs(to, vmask | (1 << to), c, first if last >= 0 else c):
                return True
            path.pop()
        failed.add(key)
        return False

    return path if dfs(x, 1 << x, -1, -1) else None


def _trail(g: EdgeColouredMultigraph, x: int, y: int, s: int, e: int,
           tick: Callable[[], None]) -> Optional[list[int]]:
    """`_path` for an edge-distinct alternating trail; with y == x a
    closed one through every vertex, a spanning closed alternating
    trail."""
    bit, off, inc, far = g.bit, g.off, g.inc, g.far
    full = (1 << len(g.vertices)) - 1
    path: list[int] = []
    # vmask, the vertices visited, follows from (emask, x), so the key
    # leaves it out
    failed: set[tuple[int, int, int, int]] = set()

    def dfs(cur: int, emask: int, vmask: int, last: int, first: int
            ) -> bool:
        tick()
        if cur == y and last >= 0 and (e < 0 or last == e) \
                and (x != y or last != first and vmask == full):
            return True
        key = (cur, emask, last, first)
        if key in failed:
            return False
        for t in range(off[cur], off[cur + 1]):
            ei = inc[t]
            c = bit[ei]
            if emask >> ei & 1 or c == last or last < 0 <= s and c != s:
                continue
            to = far[t]
            path.append(ei)
            if dfs(to, emask | (1 << ei), vmask | (1 << to), c,
                   first if last >= 0 else c):
                return True
            path.pop()
        failed.add(key)
        return False

    return path if dfs(x, 0, 1 << x, -1, -1) else None


def _query(g: EdgeColouredMultigraph, x: str, y: str, start: Colour,
           end: Optional[Colour], budget: OracleBudget, search,
           simple: bool) -> Optional[AlternatingTrail]:
    """One (x, y) query: admit g, arm one clock, search and check."""
    budget.admit(g)
    if x == y:
        raise ValueError("endpoints must differ")
    xi, yi = g.vertex_index(x), g.vertex_index(y)
    e = -1 if end is None else end.bit
    ks = search(g, xi, yi, start.bit, e, budget.clock())
    if ks is None:
        return None
    check_walk(g, xi, ks, yi, start.bit, e, simple)
    return AlternatingTrail(x, g.ids(ks))


def oracle_alternating_path(g: EdgeColouredMultigraph, x: str, y: str,
                            start: Colour, end: Optional[Colour] = None,
                            budget: OracleBudget = DEFAULT_BUDGET
                            ) -> Optional[AlternatingTrail]:
    """Simple alternating (x,y)-path, first edge `start`, last `end` if given."""
    return _query(g, x, y, start, end, budget, _path, True)


def oracle_alternating_trail(g: EdgeColouredMultigraph, x: str, y: str,
                             start: Colour, end: Optional[Colour] = None,
                             budget: OracleBudget = DEFAULT_BUDGET
                             ) -> Optional[AlternatingTrail]:
    """Edge-distinct alternating (x,y)-trail with prescribed colours."""
    return _query(g, x, y, start, end, budget, _trail, False)


def _connected(g: EdgeColouredMultigraph, budget: OracleBudget, search,
               simple: bool) -> bool:
    """Whether `search` finds a checked walk for every triple (u, v != u,
    start colour), asked in the sweeps' order on one clock."""
    budget.admit(g)
    tick = budget.clock()
    for u, v in permutations(range(len(g.vertices)), 2):
        for c in (0, 1):
            ks = search(g, u, v, c, -1, tick)
            if ks is None:
                return False
            check_walk(g, u, ks, v, c, -1, simple)
    return True


def oracle_colour_connected(g: EdgeColouredMultigraph,
                            budget: OracleBudget = DEFAULT_BUDGET) -> bool:
    return _connected(g, budget, _path, True)


def oracle_trail_colour_connected(g: EdgeColouredMultigraph,
                                  budget: OracleBudget = DEFAULT_BUDGET) -> bool:
    return _connected(g, budget, _trail, False)
