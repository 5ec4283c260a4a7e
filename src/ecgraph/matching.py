"""Maximum-cardinality matching in general (non-bipartite) plain graphs.

Augmenting-path search with blossom contraction, seeded by a greedy
matching.  This is the computational engine behind the matching
reductions used elsewhere: eulerian factors, alternating cycle factors
and alternating path queries all reduce to (perfect) matching in an
auxiliary plain graph that is not bipartite in general.

There is one engine, a blossom search over the fixed integer adjacency
lists of an `IndexedGraph`: `matching` grows a greedy matching, or one
its caller supplies, with it, and `search` runs it once from a single
root, for the connectivity sweeps, optionally stopped as soon as each
of a set of target pairs has an outer vertex (blossoms put aside until
the tree stops growing; see `search` for why the answers stay those of
the completed search).  Each root's search resets only the
vertices of that root's alternating tree, and each blossom contraction
touches only the blossom's vertices.
Every matching reduction in the package builds those lists straight
into integers, each pair joined once.  `maximum_matching` on a
string-named `PlainGraph` is a thin wrapper that the package does not
use; the tests keep it as a reference.

Vertices and edges are scanned in declaration order throughout, so the
result is deterministic for a fixed input.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence


class MatchingError(ValueError):
    pass


class PlainGraph:
    """Uncoloured multigraph; parallel edges allowed, self-loops not."""

    __slots__ = ("vertices", "edges", "_index")

    def __init__(self, vertices: Sequence[str],
                 edges: Sequence[tuple[str, str, str]]):
        self.vertices: tuple[str, ...] = tuple(vertices)
        self._index = {v: i for i, v in enumerate(self.vertices)}
        if len(self._index) != len(self.vertices):
            raise MatchingError("duplicate vertex id")
        seen: set[str] = set()
        for eid, u, v in edges:
            if eid in seen:
                raise MatchingError(f"duplicate edge id {eid!r}")
            seen.add(eid)
            if u == v:
                raise MatchingError(f"edge {eid!r}: self-loop")
            if u not in self._index or v not in self._index:
                raise MatchingError(f"edge {eid!r}: unknown endpoint")
        self.edges: tuple[tuple[str, str, str], ...] = tuple(edges)


@dataclass(frozen=True)
class Matching:
    """A set of pairwise vertex-disjoint edges, by id."""

    edge_ids: frozenset[str]
    pairs: tuple[tuple[str, str], ...]

    def __len__(self) -> int:
        return len(self.pairs)


class IndexedGraph:
    """A fixed plain graph on vertices 0..n-1, matched many times over,
    given by its adjacency lists, which its builder makes without
    parallel edges.  `matching` and `search` share one blossom search
    routine; the graph itself never changes.
    """

    __slots__ = ("adj", "_pairs")

    def __init__(self, adj: list[list[int]]):
        self.adj = adj
        # the matching i <-> i ^ 1 that every `search` starts from, made
        # on the first search and copied by each
        self._pairs: Optional[list[int]] = None

    def matching(self, match: Optional[list[int]] = None) -> list[int]:
        """match[] over vertex indices, -1 where unmatched: a maximum
        matching, grown in place from `match` if given, else from a
        greedy one.  One augmenting search from each exposed vertex
        suffices: a vertex with no augmenting path never gains one as
        the matching grows (Edmonds 1965)."""
        adj = self.adj
        n = len(adj)
        if match is None:
            match = [-1] * n
            for v in range(n):
                if match[v] == -1:
                    for u in adj[v]:
                        if match[u] == -1:
                            match[v] = u
                            match[u] = v
                            break
        self._search(match, [-1] * n, range(n))
        return match

    def search(self, root: int, pairs: int = 0, stride: int = 2
               ) -> tuple[list[bool], list[int], list[int]]:
        """(outer, p, match) of one search from `root`, in a graph that
        joins every i to i ^ 1, with root ^ 1 masked.

        It starts from the perfect matching i <-> i ^ 1 less root's
        pair, so no augmenting path exists, and by the Gallai-Edmonds
        structure theorem outer[b] holds exactly when the graph without
        root ^ 1 and b has a perfect matching.  For an outer b the chain
        b, match[b], p[match[b]], ... is an even alternating path to root.

        With `pairs`, the search stops as soon as each target pair
        (stride * y, stride * y + 1), y < pairs, has an outer vertex
        (stride a power of two), root's own pair from the start; until
        then an edge between two outer vertices is put aside, and its
        blossom contracted only when the tree stops growing.  A vertex
        that turns outer stays outer, and the completed search's outer
        set does not depend on the order edges are examined in, so the
        stopped search has an outer vertex in every target pair exactly
        when the completed one has; otherwise it runs to completion.
        Either way outer is a subset of the completed search's, and the
        chains above hold.  Without `pairs` the search runs to
        completion in edge order, as `matching` does.
        """
        n = len(self.adj)
        if self._pairs is None:
            self._pairs = [i ^ 1 for i in range(n)]
        match = self._pairs[:]
        match[root] = match[root ^ 1] = -1
        p = [-1] * n
        p[root ^ 1] = root ^ 1
        return self._search(match, p, (root,), pairs, stride), p, match

    def _search(self, match: list[int], p: list[int],
                roots: Iterable[int], pairs: int = 0, stride: int = 2
                ) -> list[bool]:
        """Augment match in place from each root still exposed in turn;
        return the last search's outer labels.  No search labels a
        vertex v with p[v] == v on entry.  `pairs` and `stride` give the
        stop rule of `search`."""
        adj = self.adj
        n = len(adj)
        base = list(range(n))
        used = [False] * n
        # vertices labelled by the current root's search; only these
        # have p, base or used to reset before the next root
        tree: list[int] = []
        # contracted base -> every vertex whose base it is, itself too.
        # Filtering the whole tree at each contraction instead made
        # analyze on 40-69-vertex M-closed blow-ups (gadgets of 5k+
        # vertices) 2.5 times slower
        members: dict[int, list[int]] = {}
        # a slot equal to `stamp` is marked for the current blossom, so
        # lca and contraction never clear these arrays
        on_path = [0] * n
        in_blossom = [0] * n
        stamp = 0
        q: deque[int] = deque()

        def lca(a: int, b: int) -> int:
            while True:
                a = base[a]
                on_path[a] = stamp
                if match[a] == -1:
                    break
                a = p[match[a]]
            while True:
                b = base[b]
                if on_path[b] == stamp:
                    return b
                b = p[match[b]]

        def mark_path(v: int, b: int, child: int, marked: list[int]) -> None:
            while base[v] != b:
                for bb in (base[v], base[match[v]]):
                    if in_blossom[bb] != stamp:
                        in_blossom[bb] = stamp
                        marked.append(bb)
                p[v] = child
                child = match[v]
                v = p[match[v]]

        # the stop rule: a vertex below limit whose bits `mask` are
        # clear is in a target pair; left counts the pairs not yet
        # reached, and limit 0 leaves the rule off
        limit = stride * pairs
        mask = stride - 2
        left = 0
        # the ends of each outer-outer edge put aside while the rule is
        # open, in the order found
        aside: list[int] = []

        def contract(v: int, to: int) -> None:
            nonlocal stamp, left
            stamp += 1
            curbase = lca(v, to)
            marked: list[int] = []
            mark_path(v, curbase, to, marked)
            mark_path(to, curbase, v, marked)
            # the vertices whose base is in the blossom, sorted so they
            # enter the queue in index order; curbase's own are already
            # labelled and keep their base
            inner: list[int] = []
            for bb in marked:
                if bb != curbase:
                    inner.extend(members.pop(bb, (bb,)))
            inner.sort()
            for i in inner:
                base[i] = curbase
                if not used[i]:
                    used[i] = True
                    q.append(i)
                    if i < limit and not i & mask and not used[i ^ 1]:
                        left -= 1
            members.setdefault(curbase, [curbase]).extend(inner)

        def find_augmenting(root: int) -> int:
            nonlocal left
            for i in tree:
                p[i] = -1
                base[i] = i
                used[i] = False
            tree.clear()
            members.clear()
            tree.append(root)
            used[root] = True
            q.clear()
            q.append(root)
            aside.clear()
            k = 0
            left = pairs - 1
            if not left:
                return -1
            while True:
                while q:
                    v = q.popleft()
                    for to in adj[v]:
                        if base[v] == base[to] or match[v] == to:
                            continue
                        # to is outer.  used marks the root, the mate w
                        # of each vertex labelled (its parent set in
                        # the same step) and every vertex a contraction
                        # makes outer, among them the mate of each
                        # vertex mark_path gives a parent.  No other
                        # step sets a parent (search's mask on root ^ 1
                        # is no vertex's mate), the reset clears both
                        # for the tree's vertices, and no exposed vertex
                        # but the root is ever used.  So used[to] is
                        # Edmonds' test, to == root or (match[to] != -1
                        # and p[match[to]] != -1)
                        if used[to]:
                            if limit:
                                aside.extend((v, to))
                            else:
                                contract(v, to)
                        elif p[to] == -1:
                            p[to] = v
                            tree.append(to)
                            if match[to] == -1:
                                return to
                            w = match[to]
                            used[w] = True
                            tree.append(w)
                            q.append(w)
                            if w < limit and not w & mask \
                                    and not used[w ^ 1]:
                                left -= 1
                                if not left:
                                    return -1
                # the tree stopped growing: contract the first blossom
                # put aside that is still one, then grow again
                while k < len(aside) and not q:
                    v, to = aside[k], aside[k + 1]
                    k += 2
                    if base[v] != base[to]:
                        contract(v, to)
                        if not left:
                            return -1
                if not q:
                    return -1

        for v in roots:
            if match[v] == -1:
                leaf = find_augmenting(v)
                if leaf == -1:
                    continue
                # flip matched/unmatched edges back along the parent chain
                while leaf != -1:
                    pv = p[leaf]
                    ppv = match[pv]
                    match[leaf] = pv
                    match[pv] = leaf
                    leaf = ppv
        return used


def maximum_matching(g: PlainGraph) -> Matching:
    """A maximum matching of g, each matched pair by the first edge
    declared between its ends."""
    index = g._index
    adj: list[list[int]] = [[] for _ in g.vertices]
    first: dict[tuple[int, int], str] = {}
    for eid, u, v in g.edges:
        i, j = sorted((index[u], index[v]))
        if first.setdefault((i, j), eid) == eid:
            adj[i].append(j)
            adj[j].append(i)
    ids: list[str] = []
    pairs: list[tuple[str, str]] = []
    for v, m in enumerate(IndexedGraph(adj).matching()):
        if m > v:
            ids.append(first[v, m])
            pairs.append((g.vertices[v], g.vertices[m]))
    return Matching(frozenset(ids), tuple(pairs))
