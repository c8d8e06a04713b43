"""Whitehead graphs of labeled graphs and of sets of conjugacy classes.

The Whitehead graph on rank n has the 2n letters as vertices, always all
of them, and a simple undirected edge {x, y} whenever the word x.y^-1 is
the label of a reduced two-edge path (graph version) or x.y^-1 occurs in
a power of a cyclically reduced representative (class version).  A letter
that never occurs is an isolated vertex, which makes the graph
disconnected; that convention is load-bearing for the tameness criterion.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import combinations

from .graphs import LabeledGraph, adjacency_components
from .words import LETTER_CHARS, _check_letters, _same_rank, class_rank, letter_key


@dataclass(frozen=True)
class WhiteheadGraph:
    rank: int
    edges: frozenset[frozenset[int]]

    def __post_init__(self) -> None:
        _check_letters([v for edge in self.edges for v in edge], self.rank)
        for edge in self.edges:
            if len(edge) != 2:
                raise ValueError(f"Whitehead edges join two distinct letters: {set(edge)}")

    def letters(self) -> list[int]:
        """The 2n letters in ``letter_key`` order: a, A, b, B, ..."""
        return [v for i in range(1, self.rank + 1) for v in (i, -i)]

    @functools.cached_property
    def adjacency(self) -> dict[int, set[int]]:
        """Letter -> the set of its neighbours, every letter a key.

        Built on first use and kept, so ``cut_vertices``, ``components``
        and the tameness decision and check all share one index; shared
        with the graph, so read only.
        """
        adj: dict[int, set[int]] = {v: set() for v in self.letters()}
        for edge in self.edges:
            u, v = edge
            adj[u].add(v)
            adj[v].add(u)
        return adj

    def sorted_edges(self) -> list[tuple[int, int]]:
        """The edges as letter pairs in ``letter_key`` order, sorted by the
        keys of both ends; two keys computed per edge."""
        keyed = []
        for u, v in self.edges:
            ku, kv = letter_key(u), letter_key(v)
            keyed.append((ku, kv, u, v) if ku < kv else (kv, ku, v, u))
        keyed.sort()
        return [(u, v) for _, _, u, v in keyed]


def whitehead_edge(u: int, v: int) -> frozenset[int]:
    if u == v:
        raise ValueError(f"no Whitehead self-loops: {u}")
    return frozenset((u, v))


def whitehead_of_graph(g: LabeledGraph) -> WhiteheadGraph:
    """Edges {x, y} for distinct labels x, y of two edges into a common vertex.

    Two parallel same-label edges meeting at a vertex contribute nothing:
    the corresponding two-edge path reads x.x^-1, which is not reduced.
    """
    edges: set[frozenset[int]] = set()
    for v in g.vertices:
        edges.update(whitehead_edge(x, y) for x, y in combinations(g.in_labels(v), 2))
    return WhiteheadGraph(g.rank, frozenset(edges))


def whitehead_of_classes(classes, rank: int | None = None) -> WhiteheadGraph:
    """Edges {u, v^-1} over cyclically consecutive letter pairs (u, v).

    The wrap-around pair realizes the "powers" clause; for a length-one
    class [x] it is the only contribution and yields the edge {x, x^-1}.
    The distinct pairs are collected first, so a long class builds one
    edge per distinct pair rather than one per letter.
    """
    classes = list(classes)
    rank = class_rank(classes, rank)
    pairs: set[tuple[int, int]] = set()
    for c in classes:
        letters = c.letters
        pairs.update(zip(letters, letters[1:] + letters[:1]))
    return WhiteheadGraph(rank, frozenset(whitehead_edge(u, -v) for u, v in pairs))


def components(w: WhiteheadGraph) -> list[tuple[int, ...]]:
    """Connected components as letter tuples, isolated letters included."""
    comps = adjacency_components(w.adjacency, w.letters())
    return [tuple(sorted(comp, key=letter_key)) for comp in comps]


def cut_vertices(w: WhiteheadGraph) -> set[int]:
    """Articulation points: removal disconnects the vertex's own component.

    Tarjan's search (SIAM J. Comput. 1, 1972), one loop over a stack of
    ``(vertex, iter(neighbours))``.  The edge back to a parent may lower
    ``low``; harmless, as the cut test is ``low[child] >= order[parent]``.
    A root passes that test with every child, so it is a cut vertex when
    it has a second child: one not numbered right after it."""
    adj = w.adjacency
    order: dict[int, int] = {}
    low: dict[int, int] = {}
    result: set[int] = set()
    for root in w.letters():
        if root in order:
            continue
        order[root] = low[root] = len(order)
        stack = [(root, iter(adj[root]))]
        while stack:
            v, todo = stack[-1]
            for x in todo:
                if x not in order:
                    order[x] = low[x] = len(order)
                    stack.append((x, iter(adj[x])))
                    break
                low[v] = min(low[v], order[x])
            else:
                stack.pop()
                if stack:
                    u = stack[-1][0]
                    low[u] = min(low[u], low[v])
                    if low[v] >= order[u] and (u != root or order[v] > order[u] + 1):
                        result.add(u)
    return result


def is_subgraph(w1: WhiteheadGraph, w2: WhiteheadGraph) -> bool:
    _same_rank(w1.rank, w2.rank)
    return w1.edges <= w2.edges


def whitehead_to_dot(w: WhiteheadGraph) -> str:
    cuts = cut_vertices(w)
    lines = ["graph wh {"]
    for i, comp in enumerate(components(w)):
        lines.append(f"  subgraph cluster_{i} {{")
        for v in comp:
            shape = "doublecircle" if v in cuts else "circle"
            lines.append(f'    l{abs(v)}_{"p" if v > 0 else "m"} [shape={shape} label="{LETTER_CHARS[v]}"];')
        lines.append("  }")
    for u, v in w.sorted_edges():
        lines.append(
            f'  l{abs(u)}_{"p" if u > 0 else "m"} -- l{abs(v)}_{"p" if v > 0 else "m"};'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
