"""Letter-labeled directed graphs with inverse edges.

Each edge pair is stored once, oriented so that its label is a positive
letter.  A *directed edge* is a signed edge id: ``+eid`` traverses the
stored orientation and reads the stored label, ``-eid`` traverses the
reverse and reads the inverse letter.  The involution is therefore
implicit and can never disagree with the labeling.

Graphs are immutable values; every operation builds a new graph.  Each
graph indexes itself once, when it is built: edge id -> ``Edge``, and
vertex -> its outgoing ``(directed edge, label, terminus)`` entries, so
every accessor is a lookup instead of a scan of the edge list.  An
``Edge`` is the row ``(eid, origin, terminus, label)`` itself, so the
morphism checks read ``edges`` and ``edge_map()`` as they are.  Two more
tables are built on first use and then kept: ``ascending_vertices``, the
order in which ``oracles.brute_force_morphism`` and ``is_label_isomorphic``
visit vertices, and ``id_by_ends`` (``(origin, terminus, label)`` -> the
least edge id with those ends), read only by the morphism search.  A
graph that is only folded or printed never builds them.

A graph reads a class when the class's circuit maps into it.  There is no
path search here: into an almost-rose the map is ``tameness.induced_morphism``,
and into any graph ``oracles.brute_force_morphism`` decides it.
"""

from __future__ import annotations

import functools
from collections.abc import Collection, Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

from .words import (
    LETTER_CHARS,
    CyclicWord,
    RankError,
    Word,
    WordSyntaxError,
    _bad_line,
    _int,
    _once,
    _text_lines,
    _valid_rank,
    class_rank,
    is_reduced,
    parse_letters,
)


class NotConnectedError(ValueError):
    """The operation requires a connected graph."""


class Edge(NamedTuple):
    """A stored edge pair; ``LabeledGraph`` checks that its id, ends and label
    are ints and its id and label positive."""

    eid: int
    origin: int
    terminus: int
    label: int  # always positive


def oriented_edge(eid: int, origin: int, terminus: int, label: int) -> Edge:
    """Build an edge from either orientation, normalizing to a positive label."""
    if label > 0:
        return Edge(eid, origin, terminus, label)
    return Edge(eid, terminus, origin, -label)


def _check_edge(e: Edge, vertices: Collection[int], rank: int) -> None:
    """The rules a stored edge keeps, apart from a distinct id: ``LabeledGraph``
    checks each edge with them, and the graph reader each edge line."""
    if type(e.eid) is not int:
        raise ValueError(f"edge id {e.eid!r} has type {type(e.eid).__name__}, not int")
    if e.eid <= 0:
        raise ValueError(f"edge id must be positive, got {e.eid}")
    if type(e.label) is not int:
        raise RankError(f"edge {e.eid} label {e.label!r} has type {type(e.label).__name__}, not int")
    if e.label <= 0:
        raise ValueError(f"stored edge label must be positive, got {e.label}")
    if type(e.origin) is not int or type(e.terminus) is not int:  # 0.0 in {0} is True
        end = e.terminus if type(e.origin) is int else e.origin
        raise ValueError(f"edge {e.eid} endpoint {end!r} has type {type(end).__name__}, not int")
    if e.origin not in vertices or e.terminus not in vertices:
        raise ValueError(f"edge {e.eid} endpoint outside vertex set")
    if e.label > rank:
        raise RankError(f"edge {e.eid} label {e.label} exceeds rank {rank}")


@dataclass(frozen=True)
class LabeledGraph:
    rank: int
    vertices: frozenset[int]
    edges: tuple[Edge, ...]
    # The index, built once in __post_init__; not part of the value.
    _by_id: dict[int, Edge] = field(init=False, repr=False, compare=False)
    _out: dict[int, list[tuple[int, int, int]]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _valid_rank(self.rank)
        if bad := [v for v in self.vertices if type(v) is not int]:
            raise ValueError(f"vertex {bad[0]!r} has type {type(bad[0]).__name__}, not int")
        object.__setattr__(self, "edges", tuple(sorted(self.edges, key=lambda e: e.eid)))
        by_id: dict[int, Edge] = {}
        out: dict[int, list[tuple[int, int, int]]] = {v: [] for v in self.vertices}
        for e in self.edges:
            _check_edge(e, out, self.rank)
            if e.eid in by_id:
                raise ValueError(f"duplicate edge id {e.eid}")
            by_id[e.eid] = e
            out[e.origin].append((e.eid, e.label, e.terminus))
            out[e.terminus].append((-e.eid, -e.label, e.origin))
        object.__setattr__(self, "_by_id", by_id)
        object.__setattr__(self, "_out", out)

    # -- directed-edge accessors ------------------------------------------

    def edge(self, eid: int) -> Edge:
        return self._by_id[eid]

    def edge_map(self) -> Mapping[int, Edge]:
        """Edge id -> ``Edge``; shared with the graph, so read only."""
        return self._by_id

    def dir_origin(self, d: int) -> int:
        e = self.edge(abs(d))
        return e.origin if d > 0 else e.terminus

    def dir_terminus(self, d: int) -> int:
        e = self.edge(abs(d))
        return e.terminus if d > 0 else e.origin

    def dir_label(self, d: int) -> int:
        e = self.edge(abs(d))
        return e.label if d > 0 else -e.label

    def directed_edges(self) -> list[int]:
        return [s * e.eid for e in self.edges for s in (1, -1)]

    def out_edges(self, v: int) -> list[tuple[int, int, int]]:
        """``(directed edge, label, terminus)`` per directed edge with origin
        ``v``, by edge id, the stored orientation first; shared, so read only."""
        return self._out.get(v, [])

    def out_map(self) -> Mapping[int, list[tuple[int, int, int]]]:
        """Vertex -> its ``out_edges``; shared with the graph, so read only."""
        return self._out

    def in_labels(self, v: int) -> set[int]:
        """Labels of directed edges terminating at ``v``: the inverses of
        the labels leaving it."""
        return {-label for _, label, _ in self.out_edges(v)}

    def valence(self, v: int) -> int:
        return len(self.out_edges(v))

    # -- tables for morphism searches, built on first use and kept ----------

    @functools.cached_property
    def ascending_vertices(self) -> tuple[int, ...]:
        """The vertices in ascending order, the order a morphism search or an
        isomorphism walk visits them in."""
        return tuple(sorted(self.vertices))

    @functools.cached_property
    def id_by_ends(self) -> dict[tuple[int, int, int], int]:
        """``(origin, terminus, label)`` -> the least id of an edge pair with
        those ends and that label; shared, so read only."""
        table: dict[tuple[int, int, int], int] = {}
        for e in self.edges:  # sorted by id, so the first one seen is the least
            table.setdefault((e.origin, e.terminus, e.label), e.eid)
        return table


@dataclass(frozen=True)
class BasedGraph:
    graph: LabeledGraph
    basepoint: int

    def __post_init__(self) -> None:
        if self.basepoint not in self.graph.vertices:
            raise ValueError(f"basepoint {self.basepoint} not a vertex")


@dataclass(frozen=True)
class GraphMorphism:
    """Vertex and edge-pair maps; directed edges map by ``d -> sign(d) * edge_map[|d|]``."""

    vertex_map: dict[int, int] = field(default_factory=dict)
    edge_map: dict[int, int] = field(default_factory=dict)


# -- builders --------------------------------------------------------------


def rose(n: int) -> LabeledGraph:
    """One vertex with one loop per generator; ``LabeledGraph`` checks ``n``."""
    return LabeledGraph(n, frozenset({0}), tuple(Edge(i, 0, 0, i) for i in range(1, n + 1)))


def circuit(c: CyclicWord) -> LabeledGraph:
    """A cycle of ``len(c)`` edges whose closed path reads ``c``."""
    return disjoint_circuits([c])


def _circuit_edges(classes) -> list[tuple[int, int, int, int]]:
    """``(edge id, origin, terminus, letter)`` for each letter of each class,
    in order: the edges of ``disjoint_circuits``, each in the direction its
    class reads it, so the letter may be negative.

    Class j's circuit takes the vertices and the edge ids after those of
    the classes before it; its i-th letter runs from its i-th vertex to the
    next one, and the last letter wraps around to the first vertex.  So
    the vertices are ``range(len(edges))`` and the edge ids run from 1.
    """
    edges: list[tuple[int, int, int, int]] = []
    for c in classes:
        off, k = len(edges), len(c)
        edges += [(off + i + 1, off + i, off + (i + 1) % k, x) for i, x in enumerate(c.letters)]
    return edges


def disjoint_circuits(classes, rank: int | None = None) -> LabeledGraph:
    """Disjoint union of one circuit per cyclic word, in the given order, none normalized."""
    classes = list(classes)
    rank = class_rank(classes, rank)
    edges = _circuit_edges(classes)
    return LabeledGraph(
        rank, frozenset(range(len(edges))), tuple(oriented_edge(*e) for e in edges)
    )


def wedge_of_words(ws: tuple[Word, ...], rank: int) -> BasedGraph:
    """Subdivided circles reading the given words, joined at basepoint 0."""
    class_rank(ws, rank)
    for w in ws:
        if len(w) == 0 or not is_reduced(w):
            raise ValueError(f"wedge words must be reduced and nonempty: {w!s}")
    vertices = {0}
    edges: list[Edge] = []
    next_v = 1
    next_e = 1
    for w in ws:
        k = len(w)
        stops = [0] + list(range(next_v, next_v + k - 1)) + [0]
        next_v += k - 1
        vertices.update(stops)
        for i in range(k):
            edges.append(oriented_edge(next_e, stops[i], stops[i + 1], w.letters[i]))
            next_e += 1
    return BasedGraph(LabeledGraph(rank, frozenset(vertices), tuple(edges)), 0)


# -- basic invariants ------------------------------------------------------


def adjacency_components(adj: dict[int, set[int]], order: Iterable[int]) -> list[set[int]]:
    """Connected components of the adjacency map ``adj``, one per vertex of
    ``order`` not already reached, in that order."""
    comps: list[set[int]] = []
    seen: set[int] = set()
    for v in order:
        if v in seen:
            continue
        comp = {v}
        stack = [v]
        while stack:
            for x in adj[stack.pop()]:
                if x not in comp:
                    comp.add(x)
                    stack.append(x)
        seen |= comp
        comps.append(comp)
    return comps


def _find(parent: dict[int, int], v: int) -> int:
    """Root of ``v``'s class in the union-find ``parent``, halving the path
    on the way: the fold state's vertex classes and the tree check of
    ``tameness.verify_certificate``."""
    while parent[v] != v:
        parent[v] = v = parent[parent[v]]
    return v


def connected_components(g: LabeledGraph) -> list[frozenset[int]]:
    adj = {v: {t for _, _, t in outs} for v, outs in g.out_map().items()}
    return [frozenset(c) for c in adjacency_components(adj, sorted(g.vertices))]


def is_connected(g: LabeledGraph) -> bool:
    return len(connected_components(g)) <= 1


def betti(g: LabeledGraph) -> int:
    """First Betti number: edge pairs - vertices + components."""
    return len(g.edges) - len(g.vertices) + len(connected_components(g))


def _prune(rank: int, vertices, edges: Sequence[Edge], keep: int | None = None) -> LabeledGraph:
    """Delete valence <= 1 vertices other than ``keep`` until none remain.

    A queue of the vertices to delete: deleting one lowers the valence of
    each neighbour still there, and a neighbour left with valence 1 joins
    the queue, so the prune is O(V + E).  A loop counts twice, as in
    ``valence``.
    """
    nbrs: dict[int, list[int]] = {v: [] for v in vertices}
    for e in edges:
        nbrs[e.origin].append(e.terminus)
        nbrs[e.terminus].append(e.origin)
    val = {v: len(ws) for v, ws in nbrs.items()}
    queue = [v for v, d in val.items() if d <= 1 and v != keep]
    gone = set(queue)
    for v in queue:  # grows while it is read
        for w in nbrs[v]:
            if w not in gone:
                val[w] -= 1
                if val[w] == 1 and w != keep:
                    gone.add(w)
                    queue.append(w)
    return LabeledGraph(
        rank,
        frozenset(nbrs.keys() - gone),
        tuple(e for e in edges if e.origin not in gone and e.terminus not in gone),
    )


def core(g: LabeledGraph) -> LabeledGraph:
    """Delete valence <= 1 vertices until none remain; may be empty."""
    return _prune(g.rank, g.vertices, g.edges)


def core_pair(b: BasedGraph) -> BasedGraph:
    """Based core: keep the basepoint component, then delete valence-1
    vertices other than the basepoint."""
    comp = next(c for c in connected_components(b.graph) if b.basepoint in c)
    edges = [e for e in b.graph.edges if e.origin in comp]
    return BasedGraph(_prune(b.graph.rank, comp, edges, b.basepoint), b.basepoint)


def is_folded(g: LabeledGraph) -> bool:
    """No two distinct directed edges share an origin and a label."""
    return all(
        len({label for _, label, _ in g.out_edges(v)}) == g.valence(v) for v in g.vertices
    )


def is_rose(g: LabeledGraph) -> bool:
    """Label-isomorphic to the rose: one vertex, each letter on exactly one
    loop.  The edge count is compared first, so a huge declared rank costs
    nothing."""
    return (
        len(g.vertices) == 1
        and len(g.edges) == g.rank
        and sorted(e.label for e in g.edges) == list(range(1, g.rank + 1))
    )


# -- morphisms -------------------------------------------------------------


def verify_morphism(m: GraphMorphism, src: LabeledGraph, dst: LabeledGraph) -> bool:
    """Check that ``m`` is a total label-preserving graph morphism.

    The ranks are compared here; the rest is ``_is_morphism_on`` over
    ``src.edges``, the check that ``verify_certificate`` runs over the
    circuit edges of a class set without building their graph.
    """
    if src.rank != dst.rank:
        return False
    return _is_morphism_on(m, src.vertices, src.edges, dst)


def _is_morphism_on(
    m: GraphMorphism,
    vertices: Collection[int],
    edges: Sequence[tuple[int, int, int, int]],
    dst: LabeledGraph,
) -> bool:
    """Check that ``m`` is a total label-preserving morphism into ``dst``
    from the graph with these vertices and ``(edge id, origin, terminus,
    letter)`` edges, whose ids are distinct: an ``Edge`` is such a row.
    The ranks are the caller's to compare.

    An edge reading a negative letter maps onto the reverse of its image,
    so its origin goes to the image's terminus: the image's row in
    ``dst.edge_map()`` must be the edge's row with the image's id.  On the
    edges of ``_circuit_edges`` this reads each class along the closed path
    that ``m`` names: every image carries the class's letter, consecutive
    images meet at the image of the vertex they share, and the last one
    returns to the image of the first vertex.
    """
    vmap, emap = m.vertex_map, m.edge_map
    if len(vmap) != len(vertices) or not all(map(vmap.__contains__, vertices)):
        return False
    if not dst.vertices.issuperset(vmap.values()) or len(emap) != len(edges):
        return False
    rows = dst.edge_map()
    for eid, origin, terminus, x in edges:
        image = emap.get(eid)
        if x > 0:
            wanted = (image, vmap[origin], vmap[terminus], x)
        else:
            wanted = (image, vmap[terminus], vmap[origin], -x)
        if rows.get(image) != wanted:
            return False
    return True


def is_label_isomorphic(g: LabeledGraph, h: LabeledGraph) -> bool:
    """Existence of a label-preserving graph isomorphism between two folded
    graphs; a graph that is not folded raises ``ValueError``.

    A folded graph is deterministic: each label leaves a vertex on at most
    one edge, so the image of one vertex fixes the map on its component.
    Each component of ``g`` is walked from its least vertex into ``h``,
    from each unused vertex of ``h`` in ascending order.  A walk follows
    equal labels and fails as soon as a vertex and its image have
    different outgoing labels or an image is hit twice.  Isomorphism is an
    equivalence, so the first walk that succeeds is kept and none is ever
    undone: O(V * (V + E)) in all.
    """
    if not (is_folded(g) and is_folded(h)):
        raise ValueError("label isomorphism is decided for folded graphs only")
    if g.rank != h.rank or len(g.vertices) != len(h.vertices) or len(g.edges) != len(h.edges):
        return False
    gout = g.out_map()
    # vertex of h -> label -> terminus; one terminus per label, as h is folded
    hnext = {w: {label: t for _, label, t in outs} for w, outs in h.out_map().items()}
    walked: set[int] = set()
    used: set[int] = set()
    for v in g.ascending_vertices:
        if v in walked:
            continue
        for w in h.ascending_vertices:
            if w not in used and (image := _walk(gout, hnext, v, w)) is not None:
                walked.update(image)
                used.update(image.values())
                break
        else:
            return False
    return True


def _walk(
    gout: Mapping[int, list[tuple[int, int, int]]],
    hnext: dict[int, dict[int, int]],
    v: int,
    w: int,
) -> dict[int, int] | None:
    """The label-preserving injection of ``v``'s component onto ``w``'s
    that sends ``v`` to ``w``, or None when there is none.

    Each vertex reached must have exactly its image's outgoing labels, and
    each label leads to the image's terminus on that label.  An image is
    never a vertex that an earlier walk used: those fill whole components
    of ``h``, and ``w`` is outside them.
    """
    image, back = {v: w}, {w: v}
    todo = [v]
    for a in todo:  # grows while it is read
        step = hnext[image[a]]
        if len(step) != len(gout[a]):
            return None
        for _, label, t in gout[a]:
            u = step.get(label)
            if u is None or image.get(t, u) != u or back.get(u, t) != t:
                return None
            if t not in image:
                image[t] = u
                back[u] = t
                todo.append(t)
    return image


# -- text formats ----------------------------------------------------------


def graph_to_text(g: LabeledGraph) -> str:
    lines = [f"rank {g.rank}"]
    lines += [f"vertex {v}" for v in sorted(g.vertices)]
    chars = LETTER_CHARS
    lines += [f"edge {e.eid} {e.origin} {e.terminus} {chars[e.label]}" for e in g.edges]
    return "\n".join(lines) + "\n"


def parse_graph_text(text: str) -> LabeledGraph:
    rank: int | None = None
    vertices: set[int] = set()
    edges: list[tuple[int, Edge]] = []  # (line number, edge)
    seen: set[str] = set()
    try:
        for lineno, keyword, fields in _text_lines(text):
            if keyword == "rank" and len(fields) == 1:
                _once(seen, "rank")
                rank = _valid_rank(_int(fields[0]))
            elif keyword == "vertex" and len(fields) == 1:
                v = _int(fields[0])
                _once(seen, f"vertex {v}")
                vertices.add(v)
            elif keyword == "edge" and len(fields) == 4:
                eid, origin, terminus = map(_int, fields[:3])
                _once(seen, f"edge {eid}")
                if len(fields[3]) != 1:
                    raise WordSyntaxError(f"invalid letter {fields[3]!r}")
                edges.append((lineno, oriented_edge(eid, origin, terminus, *parse_letters(fields[3]))))
            else:
                raise ValueError("expected 'rank N', 'vertex V' or 'edge ID ORIGIN TERMINUS LETTER'")
    except ValueError as exc:
        raise _bad_line("graph", text, lineno, exc) from exc
    if rank is None:
        raise ValueError("graph text missing a rank line")
    for lineno, e in edges:  # the rank and vertices may follow an edge line
        try:
            _check_edge(e, vertices, rank)
        except ValueError as exc:
            raise _bad_line("graph", text, lineno, exc) from exc
    return LabeledGraph(rank, frozenset(vertices), tuple(e for _, e in edges))


def _dot_lines(g: LabeledGraph, indent: str, prefix: str) -> list[str]:
    """The DOT vertex and edge lines of ``g``, each line led by ``indent``
    and each vertex named ``prefix`` followed by its number, or by ``m``
    and its absolute value when negative: DOT reads ``v-1`` as two nodes."""
    chars = LETTER_CHARS
    name = {v: f"{prefix}{v}" if v >= 0 else f"{prefix}m{-v}" for v in g.vertices}
    lines = [f'{indent}{name[v]} [shape=circle label="{v}"];' for v in sorted(g.vertices)]
    for e in g.edges:
        lines.append(f'{indent}{name[e.origin]} -> {name[e.terminus]} [label="{chars[e.label]}"];')
    return lines


def graph_to_dot(g: LabeledGraph) -> str:
    lines = ["digraph G {", "  rankdir=LR;", *_dot_lines(g, "  ", "v"), "}"]
    return "\n".join(lines) + "\n"
