"""Almost-roses and the certified tameness decision.

An *almost-rose* is a core graph of Betti number n that folds onto the
rank-n rose with a single fold.  It has two vertices u, v and n+1 edge
pairs: the wedge letter c labels a loop at u and an edge u->v, and every
other letter a loop or an edge.  It is named by c and *side one* P, the
letters other than c arriving at u: ``AlmostRose(n, c, P)``.  Its
Whitehead graph is K(P + c) u K(Q + c), Q the letters left, and each
such graph with P and Q nonempty comes from exactly one pair.

A set of conjugacy classes is *tame* when a single almost-rose reads all
of them.  This is decidable via the Whitehead graph: the set is tame
exactly when its Whitehead graph is disconnected or has a cut vertex.
``decide_tame`` returns a certificate for either outcome that
``verify_certificate`` can re-check from scratch.

Nothing here folds: this module imports no ``folding`` code.  Folding a
graph through an almost-rose, ``factor_through_almost_rose``, lives in
``oracles`` beside the pipelines that call it, and the union-find of the
verifier's tree check is ``graphs._find``, which the fold state shares.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Iterable, Sequence, Set
from dataclasses import dataclass, field

from .graphs import (
    Edge,
    GraphMorphism,
    LabeledGraph,
    _circuit_edges,
    _find,
    _is_morphism_on,
    adjacency_components,
    graph_to_text,
    oriented_edge,
)
from .whitehead import WhiteheadGraph, cut_vertices, whitehead_of_classes
from .words import (
    LETTER_CHARS,
    CyclicWord,
    _check_letters,
    _same_rank,
    _valid_rank,
    class_rank,
    letter_key,
    normalize_classes,
)


@dataclass(frozen=True)
class SignedRelabeling:
    """A permutation of the generators combined with a sign per letter.

    ``targets[i-1]`` is the (signed) image of generator ``i``; inverses
    map to inverses, so the action commutes with inversion.
    """

    targets: tuple[int, ...]

    def __post_init__(self) -> None:
        n = _valid_rank(len(self.targets))
        if sorted(abs(t) for t in self.targets) != list(range(1, n + 1)):
            raise ValueError(f"targets are not a signed permutation: {self.targets}")

    @classmethod
    def identity(cls, n: int) -> "SignedRelabeling":
        return cls(tuple(range(1, n + 1)))

    def apply_letter(self, v: int) -> int:
        t = self.targets[abs(v) - 1]
        return t if v > 0 else -t


def _rose_layout(n: int, c: int, side_one: Set[int]) -> tuple[tuple[int, ...], int, int]:
    """``(targets, k, l)``: edge pair j + 1 carries ``targets[j - 1]``, and
    pair 1 is the wedge letter's loop.  The wedge letter c comes first,
    then the k - 1 loops at u in ascending order, then the l - k
    connectors by index, each as its member on side two, then the loops
    at v in ascending order."""
    rest = [j for j in range(1, n + 1) if j != abs(c)]
    loops_u = [j for j in rest if j in side_one and -j in side_one]
    connectors = [-j if j in side_one else j for j in rest if (j in side_one) != (-j in side_one)]
    loops_v = [j for j in rest if j not in side_one and -j not in side_one]
    k = 1 + len(loops_u)
    return (c, *loops_u, *connectors, *loops_v), k, k + len(connectors)


@dataclass(frozen=True)
class AlmostRose:
    """The almost-rose with wedge letter ``wedge`` and side one
    ``side_one``, which holds the wedge letter's inverse and leaves another
    letter off.  Another letter j labels a loop at u when j and j^-1 are
    on side one, a loop at v when neither is, and an edge u->v otherwise.
    Roses are equal exactly when they are label-isomorphic.  ``graph``
    has u = 0 and v = 1, laid out by ``_rose_layout``, as are ``targets``
    and the shape (k, l)."""

    rank: int
    wedge: int
    side_one: frozenset[int]
    graph: LabeledGraph = field(init=False, compare=False, repr=False)
    _layout: tuple[tuple[int, ...], int, int] = field(init=False, compare=False, repr=False)

    targets = property(lambda self: self._layout[0])
    k = property(lambda self: self._layout[1])
    l = property(lambda self: self._layout[2])

    def __post_init__(self) -> None:
        n, c = self.rank, self.wedge
        _check_letters((c, *self.side_one), n)
        side_one = frozenset(self.side_one)
        if -c not in side_one:
            raise ValueError(f"side one must hold {-c}, the wedge letter's inverse")
        if c in side_one:
            raise ValueError(f"side one must not hold the wedge letter {c}")
        if len(side_one) == 2 * n - 1:
            raise ValueError("side one leaves no letter but the wedge letter to side two")
        layout = targets, k, l = _rose_layout(n, c, side_one)
        edges = [oriented_edge(1, 0, 0, c), oriented_edge(2, 0, 1, c)]
        for j, t in enumerate(targets[1:], start=2):
            ends = (0, 0) if j <= k else (0, 1) if j <= l else (1, 1)
            edges.append(oriented_edge(j + 1, *ends, t))
        graph = LabeledGraph(n, frozenset({0, 1}), tuple(edges))
        # frozen: set the normalized and derived fields past __setattr__
        vars(self).update(side_one=side_one, graph=graph, _layout=layout)

    @functools.cached_property
    def sides(self) -> tuple[frozenset[int], frozenset[int]]:
        """The two clique sides, the letters arriving at u and at v: side
        one with the wedge letter, and every letter off side one.  Built on
        first use and kept, so enumerating roses does not pay for it."""
        letters = {s * i for i in range(1, self.rank + 1) for s in (1, -1)}
        return self.side_one | {self.wedge}, frozenset(letters - self.side_one)

    @functools.cached_property
    def side_mask(self) -> dict[int, int]:
        """Letter -> the clique sides it lies on, as bits: 1 for the first,
        2 for the second, so 3 for the wedge letter.  Anding it over the
        letters arriving at a vertex gives the sides that vertex may map
        to, with no set built.  Built on first use and kept, like ``sides``.
        """
        side1, side2 = self.sides
        return {x: (x in side1) | ((x in side2) << 1) for x in side1 | side2}

    @functools.cached_property
    def pair_of(self) -> dict[int, int]:
        """Positive letter -> the id of the edge pair carrying it.  The wedge
        letter is on its loop, pair 1, and its connecting pair 2; the later
        one is kept.  Built on first use and kept, like ``sides``."""
        return {abs(t): j for j, t in enumerate(self.targets, start=2)}

    @functools.cached_property
    def whitehead(self) -> WhiteheadGraph:
        """The rose's Whitehead graph: the wedge at the wedge letter of the
        complete graphs on the two sides.  Built on first use and kept."""
        edges = {frozenset(p) for side in self.sides for p in itertools.combinations(side, 2)}
        return WhiteheadGraph(self.rank, frozenset(edges))


def almost_rose(n: int, k: int, l: int, relabeling: SignedRelabeling | None = None) -> AlmostRose:
    """The almost-rose of shape (k, l) with ``relabeling`` applied to its
    letters: letter 1 on the loop at u and the edge u->v, loops at u
    labeled 2..k, edges u->v labeled k+1..l and loops at v labeled l+1..n.
    It is laid out as every rose is, whatever order the relabeling puts
    the connectors in."""
    relabeling = relabeling or SignedRelabeling.identity(n)
    _same_rank(n, len(relabeling.targets))
    if not (1 <= k <= l <= n and k < n):
        raise ValueError(f"need 1 <= k <= l <= n and k < n, got k={k} l={l} n={n}")
    f = relabeling.apply_letter
    side_one = {-f(1)} | {s * f(j) for j in range(2, k + 1) for s in (1, -1)}
    side_one |= {-f(j) for j in range(k + 1, l + 1)}
    return AlmostRose(n, f(1), frozenset(side_one))


def whitehead_of_almost_rose(rose: AlmostRose) -> WhiteheadGraph:
    """``rose.whitehead``, under the name the benchmark workloads call."""
    return rose.whitehead


def _rose_parts(g: LabeledGraph) -> tuple[int, frozenset[int]] | None:
    """The pair ``(wedge, side_one)`` naming ``g`` up to label isomorphism,
    or None when ``g`` is not an almost-rose.

    A two-vertex graph with n + 1 edge pairs is an almost-rose exactly
    when: a single letter |y| lies on two edge pairs (labels lie in 1..n,
    so every letter then occurs); one is a loop at a vertex u and the
    other joins u to the other vertex v, giving the wedge letter c = +|y|
    when it is stored leaving u and -|y| otherwise; and v carries one more
    edge, so side one, c^-1 and the other letters arriving at u, leaves a
    letter off.  They also imply what recognizing by folding checked: the
    loop and the connector are the only foldable pair, the graph is
    connected, and each vertex has valence at least 2.  One pass over the
    edges finds the doubled letter, and the graph's index gives side one.
    """
    n = g.rank
    if len(g.vertices) != 2 or len(g.edges) != n + 1:
        return None
    first: dict[int, Edge] = {}
    doubled: tuple[Edge, Edge] | None = None
    for e in g.edges:
        seen = first.setdefault(e.label, e)
        if seen is not e:
            if doubled is not None:
                return None
            doubled = seen, e
    assert doubled is not None  # n + 1 labels in 1..n repeat one
    loop, conn = doubled if doubled[0].origin == doubled[0].terminus else doubled[::-1]
    if loop.origin != loop.terminus or conn.origin == conn.terminus:
        return None
    u = loop.origin
    c = conn.label if conn.origin == u else -conn.label
    side_one = g.in_labels(u) - {c}
    return None if len(side_one) == 2 * n - 1 else (c, frozenset(side_one))


def recognize_almost_rose(g: LabeledGraph) -> AlmostRose | None:
    """Identify ``g`` as an almost-rose, if it is one, up to label isomorphism.

    ``g`` is read straight off its edge rows (``_rose_parts``): exactly
    one letter on two edge pairs, one a loop at a vertex u and the other
    joining u to v, and one more edge at v.  Those are exactly the
    almost-roses, so no fold is run and no isomorphism is searched for;
    the only graph built is the returned rose's.
    """
    parts = _rose_parts(g)
    return None if parts is None else AlmostRose(g.rank, *parts)


def enumerate_almost_roses(n: int) -> list[AlmostRose]:
    """All almost-roses of rank ``n`` up to label isomorphism, deterministically.

    Every pair (c, P) with c^-1 in P, c not in P and a letter other than c
    off P names one rose, and no two pairs name label-isomorphic roses:
    ``recognize_almost_rose`` reads the pair back from the graph alone.
    Each generator other than |c| has both its letters on P, one of them
    or neither, so there are ``2n * (4^(n-1) - 1)`` roses.  They are
    listed by shape (k, l), then by wedge letter in letter order, then by
    the loops at u, the connectors' indices and their signs, positive first.
    """
    _valid_rank(n)
    roses: list[AlmostRose] = []
    for c in (s * i for i in range(1, n + 1) for s in (1, -1)):
        placings = [((j, -j), (j,), (-j,), ()) for j in range(1, n + 1) if j != abs(c)]
        for placed in itertools.product(*placings):
            side_one = frozenset((-c, *itertools.chain.from_iterable(placed)))
            if len(side_one) < 2 * n - 1:
                roses.append(AlmostRose(n, c, side_one))

    def order(r: AlmostRose) -> tuple:
        loops, conns = r.targets[1 : r.k], r.targets[r.k : r.l]
        return r.k, r.l, letter_key(r.wedge), loops, [abs(t) for t in conns], [t < 0 for t in conns]

    roses.sort(key=order)
    return roses


def induced_morphism(g: LabeledGraph, rose: AlmostRose) -> GraphMorphism | None:
    """The label-preserving morphism into the almost-rose induced by the
    Whitehead inclusion, or None when the inclusion fails.

    The rose's Whitehead graph is two complete graphs wedged at the wedge
    letter, so ``g``'s lies inside it exactly when, at every vertex, the
    incoming letters all lie on one of the two clique sides kept in
    ``rose.sides``.  One pass over ``g.edges`` tests this and picks each
    vertex's image (``_induced_map``, which ``_tame_certificate`` runs on
    the circuit edges read from the letters).  No Whitehead graph is built,
    and the map is returned as built: check it with ``verify_morphism``.
    """
    _same_rank(rose.rank, g.rank)
    return _induced_map(g.vertices, g.edges, rose)


def _induced_map(
    vertices: Iterable[int], edges: Sequence[tuple[int, int, int, int]], rose: AlmostRose
) -> GraphMorphism | None:
    """The maps of ``induced_morphism`` for the graph with these
    vertices and ``(edge id, origin, terminus, letter)`` edges (an ``Edge``
    is such a row, and so is a row of ``_circuit_edges``), or None when
    some vertex receives a letter of each clique side other than the
    wedge letter.

    An edge reading x brings x into its terminus and x^-1 into its origin.
    Each vertex ands the ``rose.side_mask`` bits of the letters it
    receives, so no per-vertex set is built; a vertex left with no bit
    fails.  A vertex maps to v when the first side's bit is gone, that
    is when it receives a second-side letter other than the wedge letter,
    and to u otherwise: u receives the first side, and v the second.  An
    edge whose letter is not the wedge letter or its inverse maps to the
    unique edge pair with that letter (``rose.pair_of``); a wedge-letter
    edge maps to the connecting edge when the end receiving the wedge
    letter maps to v, and to the loop at u otherwise.
    """
    mask = rose.side_mask
    sides = dict.fromkeys(vertices, 3)
    for _, origin, terminus, x in edges:
        sides[terminus] &= mask[x]
        sides[origin] &= mask[-x]
    if 0 in sides.values():
        return None
    vmap = {p: 0 if bits & 1 else 1 for p, bits in sides.items()}
    wedge = rose.wedge
    pair_of = rose.pair_of
    emap: dict[int, int] = {}
    for eid, origin, terminus, x in edges:
        if abs(x) != abs(wedge):
            emap[eid] = pair_of[abs(x)]
        else:
            emap[eid] = 2 if vmap[terminus if x == wedge else origin] else 1
    return GraphMorphism(vertex_map=vmap, edge_map=emap)


def build_rose_from_whitehead(w: WhiteheadGraph) -> AlmostRose | None:
    """An almost-rose whose Whitehead graph contains ``w``.

    Returns None exactly when ``w`` is connected and has no cut vertex:
    only then does removing any letter leave the rest in one component.
    That case is read off ``cut_vertices`` and one component count, with
    no letter tried.  Otherwise the wedge letter c is the first cut vertex
    in letter order, or, with none, the first letter whose removal leaves
    letters outside the component of its inverse: letter a, unless a is
    isolated in a graph of two components, and then A.  Side one is the
    component of c^-1 in ``w`` minus c.
    """
    adj = w.adjacency
    letters = w.letters()
    cuts = cut_vertices(w)
    if cuts:
        c = min(cuts, key=letter_key)
    else:
        comps = adjacency_components(adj, letters)
        if len(comps) == 1:
            return None
        c = letters[1] if len(comps) == 2 and not adj[letters[0]] else letters[0]
    punctured = {x: nbrs - {c} for x, nbrs in adj.items() if x != c}
    return AlmostRose(w.rank, c, frozenset(adjacency_components(punctured, [-c])[0]))


# -- certificates ------------------------------------------------------------


@dataclass(frozen=True)
class TamenessCertificate:
    tame: bool
    rank: int
    classes: tuple[CyclicWord, ...]
    rose: AlmostRose | None = None
    morphism: GraphMorphism | None = None
    whitehead_edges: tuple[tuple[int, int], ...] | None = None
    spanning_tree: tuple[tuple[int, int], ...] | None = None
    non_cut_witness: tuple[tuple[int, tuple[tuple[int, int], ...]], ...] | None = None


def _bfs_tree(
    nbrs: list[list[int]], letters: list[int], removed: int = -1
) -> tuple[tuple[int, int], ...]:
    """Breadth-first spanning tree of the letters other than the one at
    position ``removed``, from the first of them, as letter pairs in
    ``letter_key`` order, sorted.

    ``nbrs`` holds each letter's neighbours as positions in ``letters``,
    which is in ``letter_key`` order, so sorted neighbour lists are
    visited in letter order; a punctured tree grows over the same lists
    and steps over the removed letter.
    """
    root = 1 if removed == 0 else 0
    seen = bytearray(len(letters))
    seen[root] = 1
    if removed >= 0:
        seen[removed] = 1
    queue = [root]
    pairs: list[tuple[int, int]] = []
    for p in queue:  # grows while it is read
        for q in nbrs[p]:
            if not seen[q]:
                seen[q] = 1
                queue.append(q)
                pairs.append((p, q) if p < q else (q, p))
    pairs.sort()
    return tuple((letters[p], letters[q]) for p, q in pairs)


def _is_spanning_tree(
    tree: tuple[tuple[int, int], ...], vertices: Set[int], adj: dict[int, set[int]]
) -> bool:
    """Whether ``tree`` is a spanning tree of ``vertices`` in the graph with
    adjacency ``adj``: |V| - 1 edges, each an edge of the graph between two
    of the vertices, and no cycle, found with a union-find."""
    if len(tree) != len(vertices) - 1:
        return False
    parent = {v: v for v in vertices}
    for u, v in tree:
        if u not in parent or v not in parent or v not in adj[u]:
            return False
        ru, rv = _find(parent, u), _find(parent, v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


def _tame_certificate(norm: tuple[CyclicWord, ...], rose: AlmostRose) -> TamenessCertificate | None:
    """The tame certificate that ``rose`` reads every class of ``norm``
    (normalized, of the rose's rank), or None when it misses one.

    This is the one place that reads classes in a rose: the circuit edges
    read off the letters (``_circuit_edges``) go through ``_induced_map``,
    so a class is read only through the morphism of its circuit.  The
    certificate is returned unchecked; ``verify_certificate`` checks it.
    """
    edges = _circuit_edges(norm)
    morphism = _induced_map(range(len(edges)), edges, rose)
    if morphism is None:
        return None
    return TamenessCertificate(tame=True, rank=rose.rank, classes=norm, rose=rose, morphism=morphism)


def decide_tame(classes, rank: int | None = None) -> TamenessCertificate:
    """Decide tameness of a set of conjugacy classes with a checkable
    certificate for either verdict.

    The not-tame certificate names a breadth-first spanning tree of the
    Whitehead graph and one of each punctured graph.  They all grow over
    one copy of the graph's shared adjacency, sorted once into letter
    order, and a punctured tree is searched for only when the removed
    letter is the root or an inner vertex of the first tree.

    Neither certificate is checked here; ``verify_certificate`` checks
    it.  A built rose that reads no morphism of the classes is an
    internal error and raises ``RuntimeError``, so None is never returned.
    """
    norm = normalize_classes(classes)
    rank = class_rank(norm, rank)
    w = whitehead_of_classes(norm, rank)
    # None exactly when w is connected and has no cut vertex.
    rose = build_rose_from_whitehead(w)
    if rose is not None:
        cert = _tame_certificate(norm, rose)
        if cert is None:
            raise RuntimeError("internal error: a class is unreadable in the built almost-rose")
        return cert
    adj = w.adjacency
    letters = w.letters()
    # letter x sits at position letter_key(x) - 2: a at 0, A at 1, b at 2, ...
    nbrs = [sorted(letter_key(y) - 2 for y in adj[x]) for x in letters]
    tree = _bfs_tree(nbrs, letters)
    # A leaf of the tree other than its root discovers no letter, so the
    # search without it takes every other step as before: its punctured
    # tree is the tree without the leaf's edge.
    degree = dict.fromkeys(letters, 0)
    edge_at: dict[int, int] = {}
    for i, pair in enumerate(tree):
        for x in pair:
            degree[x] += 1
            edge_at[x] = i
    witness = []
    for p, v in enumerate(letters):
        if p and degree[v] == 1:
            i = edge_at[v]
            witness.append((v, tree[:i] + tree[i + 1 :]))
        else:
            witness.append((v, _bfs_tree(nbrs, letters, p)))
    return TamenessCertificate(
        tame=False,
        rank=rank,
        classes=norm,
        whitehead_edges=tuple(w.sorted_edges()),
        spanning_tree=tree,
        non_cut_witness=tuple(witness),
    )


def verify_certificate(classes, cert: TamenessCertificate, rank: int | None = None) -> bool:
    """Re-check a certificate from scratch; False on any discrepancy.

    A tame certificate's rose and its graph must have the classes' rank,
    and the graph must be the almost-rose the rose's pair names, read off
    its edge rows with ``_rose_parts``: no graph, fold state or second
    rose is built.  Its
    morphism is then checked over the circuit edges read straight from
    the letters (``_circuit_edges``), with no circuit graph built: this
    reads each class along the closed path the certificate names, so no
    search for a reading path is needed.  Every image edge carries the
    class's letter, consecutive image edges meet at the image of the
    vertex they share, and the last one returns to the first.

    A not-tame certificate must list the Whitehead edges of the classes,
    and its trees must span the graph and each punctured graph.  Their
    counts, 2n - 1 tree edges and 2n witnesses, are checked before the
    graph's 2n-letter index is built, so a huge declared rank costs
    nothing.
    """
    try:
        norm = normalize_classes(classes)
        rank = _valid_rank(class_rank(norm, cert.rank if rank is None else rank))
    except ValueError:
        return False
    if cert.rank != rank or cert.classes != norm:
        return False
    if cert.tame:
        if cert.rose is None or cert.morphism is None:
            return False
        rose = cert.rose
        if not rank == rose.rank == rose.graph.rank or _rose_parts(rose.graph) != (rose.wedge, rose.side_one):
            return False
        edges = _circuit_edges(norm)
        return _is_morphism_on(cert.morphism, range(len(edges)), edges, rose.graph)
    if (
        cert.whitehead_edges is None
        or cert.spanning_tree is None
        or cert.non_cut_witness is None
        or len(cert.spanning_tree) != 2 * rank - 1
        or len(cert.non_cut_witness) != 2 * rank
    ):
        return False
    w = whitehead_of_classes(norm, rank)
    if tuple(w.sorted_edges()) != cert.whitehead_edges:
        return False
    adj = w.adjacency
    letters = w.letters()
    if not _is_spanning_tree(cert.spanning_tree, adj.keys(), adj):
        return False
    if [v for v, _ in cert.non_cut_witness] != letters:
        return False
    # A witness tree naming its own letter fails: that end lies outside the vertex set.
    return all(
        _is_spanning_tree(tree, adj.keys() - {v}, adj) for v, tree in cert.non_cut_witness
    )


def _edge_token(pair: tuple[int, int]) -> str:
    return f"{LETTER_CHARS[pair[0]]}-{LETTER_CHARS[pair[1]]}"


def certificate_to_text(cert: TamenessCertificate) -> str:
    lines = [
        "tameness-certificate",
        f"rank: {cert.rank}",
        "words: " + " ".join(str(c) for c in cert.classes),
        f"verdict: {'tame' if cert.tame else 'not-tame'}",
    ]
    if cert.tame:
        assert cert.rose is not None and cert.morphism is not None
        lines.append(f"rose: k={cert.rose.k} l={cert.rose.l}")
        for i, t in enumerate(cert.rose.targets, start=1):
            lines.append(f"relabel {i} -> {t}")
        lines.append("rose-graph:")
        lines.append(graph_to_text(cert.rose.graph).rstrip("\n"))
        lines.append("end-graph")
        for v in sorted(cert.morphism.vertex_map):
            lines.append(f"vmap {v} -> {cert.morphism.vertex_map[v]}")
        for e in sorted(cert.morphism.edge_map):
            lines.append(f"emap {e} -> {cert.morphism.edge_map[e]}")
    else:
        assert cert.whitehead_edges is not None
        assert cert.spanning_tree is not None and cert.non_cut_witness is not None
        for pair in cert.whitehead_edges:
            lines.append(f"wh-edge {_edge_token(pair)}")
        lines.append("spanning-tree " + " ".join(map(_edge_token, cert.spanning_tree)))
        for v, tree in cert.non_cut_witness:
            lines.append(f"witness-tree {LETTER_CHARS[v]}: " + " ".join(map(_edge_token, tree)))
    return "\n".join(lines) + "\n"
