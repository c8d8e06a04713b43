import random
import sys

import pytest
from hypothesis import settings, strategies as st

import rosefold as rf
from rosefold import words
from rosefold.folding import FoldStep, NotFoldableError
from rosefold.graphs import Edge, GraphMorphism, LabeledGraph
from rosefold.oracles import random_labeled_graph

settings.register_profile("suite", deadline=None, max_examples=60)
settings.load_profile("suite")


def letter_st(rank: int):
    return st.integers(-rank, rank).filter(lambda v: v != 0)


def word_st(rank: int = 2, max_len: int = 10):
    return st.lists(letter_st(rank), max_size=max_len).map(
        lambda ls: rf.Word(tuple(ls), rank)
    )


def nontrivial_word_st(rank: int = 2, max_len: int = 10):
    return word_st(rank, max_len).filter(lambda w: len(rf.free_reduce(w)) > 0)


def class_st(rank: int = 2, max_len: int = 8):
    return nontrivial_word_st(rank, max_len).map(rf.conjugacy_class)


def class_set_st(rank: int = 2, max_classes: int = 4):
    return st.lists(class_st(rank), min_size=1, max_size=max_classes)


def reads(g, c) -> bool:
    """Whether ``g`` reads the class ``c``: its circuit maps into ``g``."""
    return rf.brute_force_morphism(rf.circuit(c), g) is not None


def relabeling_st(rank: int):
    return st.builds(
        lambda perm, signs: rf.SignedRelabeling(
            tuple(s * p for s, p in zip(signs, perm))
        ),
        st.permutations(list(range(1, rank + 1))),
        st.lists(st.sampled_from((1, -1)), min_size=rank, max_size=rank),
    )


def find_foldable_pair(g: LabeledGraph) -> tuple[int, int] | None:
    """The reference fold's pick: the first foldable pair by lowest vertex,
    then lowest directed edge ids."""
    for v in sorted(g.vertices):
        seen: dict[int, int] = {}
        for d, label, _ in g.out_edges(v):
            if label in seen:
                return (seen[label], d)
            seen[label] = d
    return None


def foldable_pairs_by_scan(g: LabeledGraph) -> list[tuple[int, int]]:
    """The pair lister that ``foldable_pairs`` replaced: every two directed
    edges with one origin and one label, by vertex, then in ``out_edges``
    order."""
    pairs = []
    for v in sorted(g.vertices):
        outs = g.out_edges(v)
        for i, (d, label, _) in enumerate(outs):
            for d2, label2, _ in outs[i + 1 :]:
                if label == label2:
                    pairs.append((d, d2))
    return pairs


def fold_once(g: LabeledGraph, pair: tuple[int, int]) -> tuple[LabeledGraph, FoldStep]:
    """The reference fold: fold one pair of a whole graph into a new graph,
    keeping the smaller edge id and the smaller terminus."""
    d1, d2 = pair
    ids = {abs(d1), abs(d2)}
    if len(ids) != 2 or not ids <= g.edge_map().keys():
        raise NotFoldableError(f"not a pair of distinct edges: {pair}")
    if g.dir_origin(d1) != g.dir_origin(d2) or g.dir_label(d1) != g.dir_label(d2):
        raise NotFoldableError(f"edges {pair} do not share origin and label")
    t1, t2 = g.dir_terminus(d1), g.dir_terminus(d2)
    keep_e, drop_e = min(ids), max(ids)
    betti_dropped = t1 == t2
    if betti_dropped:
        identified = None
        vmap = {v: v for v in g.vertices}
        vertices = set(g.vertices)
    else:
        kept_v, removed_v = min(t1, t2), max(t1, t2)
        identified = (kept_v, removed_v)
        vmap = {v: (kept_v if v == removed_v else v) for v in g.vertices}
        vertices = set(g.vertices) - {removed_v}
    edges = tuple(
        Edge(e.eid, vmap[e.origin], vmap[e.terminus], e.label)
        for e in g.edges
        if e.eid != drop_e
    )
    step = FoldStep(
        edge_a=d1,
        edge_b=d2,
        origin=g.dir_origin(d1),
        label=g.dir_label(d1),
        identified_vertices=identified,
        identified_edges=(keep_e, drop_e),
        betti_dropped=betti_dropped,
    )
    return LabeledGraph(g.rank, frozenset(vertices), edges), step


def fold_morphism(before: LabeledGraph, step: FoldStep) -> GraphMorphism:
    """The quotient morphism of a single fold."""
    kept_e, drop_e = step.identified_edges
    vmap = {v: v for v in before.vertices}
    if step.identified_vertices is not None:
        kept_v, removed_v = step.identified_vertices
        vmap[removed_v] = kept_v
    emap = {e.eid: (kept_e if e.eid == drop_e else e.eid) for e in before.edges}
    return GraphMorphism(vertex_map=vmap, edge_map=emap)


def is_pi1_surjective(g: LabeledGraph) -> bool:
    """Whether the labeling map sends the fundamental group onto the whole
    free group: the folded core image must be the rose itself."""
    if not rf.is_connected(g):
        raise rf.NotConnectedError("pi1-surjectivity is defined for connected graphs")
    return rf.is_rose(rf.core(rf.fold_to_completion(g).final))


def recursive_is_label_isomorphic(g, h):
    """Label isomorphism of any two graphs, folded or not: a recursive
    backtracking search over vertex bijections, one level of recursion per
    vertex, and every assigned vertex compared at each step.  The oracle
    for ``is_label_isomorphic`` on folded graphs, and the isomorphism test
    for graphs that are not folded, such as almost-roses."""
    if g.rank != h.rank or len(g.vertices) != len(h.vertices) or len(g.edges) != len(h.edges):
        return False

    def signature(gr, v):
        return tuple(sorted(label for _, label, _ in gr.out_edges(v)))

    gsigs = {v: signature(g, v) for v in g.vertices}
    hsigs = {v: signature(h, v) for v in h.vertices}
    if sorted(gsigs.values()) != sorted(hsigs.values()):
        return False

    def pair_labels(gr, a, b):
        return sorted(label for _, label, t in gr.out_edges(a) if t == b)

    gverts = sorted(g.vertices)
    hverts = sorted(h.vertices)
    assignment = {}
    used = set()

    def extend(i):
        if i == len(gverts):
            return True
        v = gverts[i]
        for w in hverts:
            if w in used or hsigs[w] != gsigs[v]:
                continue
            ok = pair_labels(g, v, v) == pair_labels(h, w, w)
            if ok:
                for u, x in assignment.items():
                    if pair_labels(g, v, u) != pair_labels(h, w, x):
                        ok = False
                        break
            if ok:
                assignment[v] = w
                used.add(w)
                if extend(i + 1):
                    return True
                del assignment[v]
                used.remove(w)
        return False

    return extend(0)


def graph_st(rank: int = 2, max_vertices: int = 6, max_edge_pairs: int = 10):
    return st.integers(0, 10**9).map(
        lambda seed: random_labeled_graph(
            random.Random(seed), rank, max_vertices, max_edge_pairs
        )
    )


@pytest.fixture
def rotation_calls(monkeypatch):
    """Every least-rotation scan the library makes, in order: the one
    routine behind ``canonical_rotation`` and ``normalize_classes``."""
    calls = []
    original = words._least_rotation

    def counting(c):
        calls.append(c)
        return original(c)

    monkeypatch.setattr(words, "_least_rotation", counting)
    return calls


@pytest.fixture
def letter_parse_calls(monkeypatch):
    """The text of every ``parse_letters`` call, through any rosefold module
    that imported it (the lazy package root reads it from ``words``)."""
    calls = []
    original = words.parse_letters

    def counting(text):
        calls.append(text)
        return original(text)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "rosefold" and vars(module).get("parse_letters") is original:
            monkeypatch.setattr(module, "parse_letters", counting)
    return calls


@pytest.fixture
def graphs_built(monkeypatch):
    """Every ``LabeledGraph`` the library builds, in order."""
    built = []
    original = rf.LabeledGraph.__post_init__

    def counting(g):
        original(g)
        built.append(g)

    monkeypatch.setattr(rf.LabeledGraph, "__post_init__", counting)
    return built


@pytest.fixture
def flipped_induced_map(monkeypatch):
    """``tameness._induced_map`` with the image of vertex 0 moved to the
    other rose vertex, so every tame certificate it builds is wrong."""
    original = rf.tameness._induced_map

    def flipped(vertices, edges, rose):
        m = original(vertices, edges, rose)
        vmap = dict(m.vertex_map)
        vmap[0] = 1 - vmap[0]
        return GraphMorphism(vertex_map=vmap, edge_map=m.edge_map)

    monkeypatch.setattr(rf.tameness, "_induced_map", flipped)
