import random
import re
from collections import Counter

import pytest
from hypothesis import given, strategies as st

import rosefold as rf
from rosefold.graphs import Edge, LabeledGraph, _prune, oriented_edge
from rosefold.oracles import random_labeled_graph
from rosefold.words import RankError

from conftest import (
    class_set_st,
    class_st,
    graph_st,
    is_pi1_surjective,
    letter_st,
    reads,
    recursive_is_label_isomorphic,
)


def cyc(text, rank=2):
    return rf.CyclicWord(rf.parse_letters(text), rank)


def word(text, rank=2):
    return rf.parse_word(text, rank)


def renamed(g, perm_seed):
    """``g`` with its vertices permuted and shifted, edge ids shifted."""
    vs = sorted(g.vertices)
    images = vs[:]
    random.Random(perm_seed).shuffle(images)
    to = {v: w + 100 for v, w in zip(vs, images)}
    return LabeledGraph(
        g.rank,
        frozenset(to.values()),
        tuple(Edge(e.eid + 50, to[e.origin], to[e.terminus], e.label) for e in g.edges),
    )


class TestRose:
    def test_rank_two(self):
        r = rf.rose(2)
        assert len(r.vertices) == 1
        assert sorted(e.label for e in r.edges) == [1, 2]
        assert all(e.origin == e.terminus for e in r.edges)

    def test_rank_three(self):
        assert len(rf.rose(3).edges) == 3

    def test_rank_one_rejected(self):
        with pytest.raises(RankError):
            rf.rose(1)

    def test_huge_declared_rank_is_not_a_rose(self):
        # two loops cannot be a rose of rank 10^18: decided from the edge
        # count, without listing the letters (which raised MemoryError)
        g = rf.parse_graph_text("rank 1000000000000000000\nvertex 0\nedge 1 0 0 a\nedge 2 0 0 b\n")
        assert not rf.is_rose(g)
        assert not is_pi1_surjective(g)


class TestCircuit:
    def test_two_cycle(self):
        g = rf.circuit(cyc("ab"))
        assert len(g.vertices) == 2 and len(g.edges) == 2
        assert reads(g, cyc("ab"))

    def test_single_loop(self):
        g = rf.circuit(cyc("a"))
        assert len(g.vertices) == 1
        assert g.edges[0].origin == g.edges[0].terminus

    def test_three_cycle_labels(self):
        g = rf.circuit(cyc("aab"))
        assert sorted(e.label for e in g.edges) == [1, 1, 2]

    def test_inverse_letters_store_positively(self):
        g = rf.circuit(cyc("aB"))
        assert all(e.label > 0 for e in g.edges)
        assert reads(g, cyc("aB"))


class TestDisjointCircuits:
    def test_singleton(self):
        g = rf.disjoint_circuits([cyc("ab")])
        assert len(g.vertices) == 2 and len(g.edges) == 2

    def test_two_loops(self):
        g = rf.disjoint_circuits([cyc("a"), cyc("b")])
        assert len(g.vertices) == 2 and rf.betti(g) == 2

    def test_two_cycles(self):
        g = rf.disjoint_circuits([cyc("aab"), cyc("abAB")])
        assert len(g.vertices) == 7 and len(g.edges) == 7

    def test_words_laid_out_as_given(self):
        # No canonical rotation and no deduplication: one circuit per word,
        # in order, each read from its first letter.
        g = rf.disjoint_circuits([cyc("ba"), cyc("ab"), cyc("ba")])
        assert [e.label for e in sorted(g.edges, key=lambda e: e.eid)] == [2, 1, 1, 2, 2, 1]
        assert len(g.vertices) == 6

    @given(class_set_st(rank=3))
    def test_every_class_readable(self, classes):
        g = rf.disjoint_circuits(classes, 3)
        for c in classes:
            assert reads(g, c)


@st.composite
def layout_class_sets(draw):
    """Rank and class sets with repeated and length-one classes, or none."""
    n = draw(st.integers(2, 4))
    classes = draw(st.lists(class_st(n), max_size=4))
    classes += [cyc(rf.words.LETTER_CHARS[x], n) for x in draw(st.lists(letter_st(n), max_size=2))]
    if classes:
        classes += draw(st.lists(st.sampled_from(classes), max_size=3))
    return n, draw(st.permutations(classes))


class TestCircuitEdges:
    """``_circuit_edges`` is the one circuit layout: ``disjoint_circuits``
    builds its graph from it, and the tame decision and verifier read it
    without building a graph."""

    @given(layout_class_sets())
    def test_matches_disjoint_circuits_edge_for_edge(self, drawn):
        n, classes = drawn
        edges = rf.graphs._circuit_edges(classes)
        g = rf.disjoint_circuits(classes, n)
        assert g.edges == tuple(oriented_edge(*e) for e in edges)
        assert g.vertices == frozenset(range(len(edges)))
        assert [eid for eid, _, _, _ in edges] == list(range(1, len(edges) + 1))
        # each class is a closed walk along its own edges, read in order
        start = 0
        for c in classes:
            own = edges[start : start + len(c)]
            assert [x for _, _, _, x in own] == list(c.letters)
            assert [o for _, o, _, _ in own] == list(range(start, start + len(c)))
            assert [t for _, _, t, _ in own] == [o for _, o, _, _ in own[1:]] + [start]
            start += len(c)

    def test_empty_set_with_rank(self):
        assert rf.graphs._circuit_edges([]) == []
        g = rf.disjoint_circuits([], 3)
        assert g.rank == 3 and not g.vertices and not g.edges


class TestWedgeOfWords:
    def test_two_words(self):
        b = rf.wedge_of_words((word("ab"), word("b")), 2)
        assert b.basepoint == 0
        assert len(b.graph.vertices) == 2 and len(b.graph.edges) == 3
        assert reads(b.graph, cyc("ab"))
        assert reads(b.graph, cyc("b"))

    def test_single_loop(self):
        b = rf.wedge_of_words((word("a"),), 2)
        assert len(b.graph.vertices) == 1 and len(b.graph.edges) == 1

    def test_two_two_letter_words(self):
        b = rf.wedge_of_words((word("ab"), word("ba")), 2)
        assert len(b.graph.vertices) == 3 and len(b.graph.edges) == 4

    def test_unreduced_rejected(self):
        with pytest.raises(ValueError):
            rf.wedge_of_words((word("aA"),), 2)
        with pytest.raises(ValueError):
            rf.wedge_of_words((word(""),), 2)


class TestBetti:
    def test_examples(self):
        assert rf.betti(rf.rose(2)) == 2
        assert rf.betti(rf.circuit(cyc("aab"))) == 1
        assert rf.betti(rf.disjoint_circuits([cyc("a"), cyc("b")])) == 2


def prune_by_rounds(rank, vertices, edges, keep=None):
    """The round-based prune that ``graphs._prune`` replaced: recount every
    valence, delete every valence <= 1 vertex other than ``keep``, repeat;
    quadratic on a long pendant path."""
    vertices = set(vertices)
    edges = list(edges)
    while True:
        val = Counter()
        for e in edges:
            val[e.origin] += 1
            val[e.terminus] += 1
        victims = {v for v in vertices if val[v] <= 1 and v != keep}
        if not victims:
            return LabeledGraph(rank, frozenset(vertices), tuple(edges))
        vertices -= victims
        edges = [e for e in edges if e.origin not in victims and e.terminus not in victims]


def tailed_circuit():
    """circuit('ab') with a one-edge tail hanging off vertex 0."""
    g = rf.circuit(cyc("ab"))
    return LabeledGraph(2, g.vertices | {9}, g.edges + (Edge(9, 0, 9, 1),))


class TestCore:
    def test_circuit_unchanged(self):
        g = rf.circuit(cyc("ab"))
        assert rf.core(g) == g

    def test_tail_stripped(self):
        assert rf.core(tailed_circuit()) == rf.circuit(cyc("ab"))

    def test_single_edge_becomes_empty(self):
        g = LabeledGraph(2, frozenset({0, 1}), (Edge(1, 0, 1, 1),))
        c = rf.core(g)
        assert not c.vertices and not c.edges

    def test_core_keeps_betti_of_connected_graph(self):
        g = tailed_circuit()
        assert rf.betti(rf.core(g)) == rf.betti(g)

    @given(graph_st(rank=3))
    def test_idempotent_and_min_valence(self, g):
        c = rf.core(g)
        assert rf.core(c) == c
        assert all(c.valence(v) >= 2 for v in c.vertices)

    def test_queue_prune_matches_the_round_based_prune(self):
        rng = random.Random(15)
        for _ in range(2000):
            g = random_labeled_graph(rng, 2, rng.randint(1, 9), rng.randint(0, 12))
            for keep in (None, rng.choice(sorted(g.vertices))):
                assert _prune(2, g.vertices, g.edges, keep) == prune_by_rounds(2, g.vertices, g.edges, keep)

    def test_long_pendant_path_is_peeled(self):
        # a loop at 0 with a path 0 - 1 - ... - n hanging off it
        n = 20000
        g = LabeledGraph(
            2, frozenset(range(n + 1)), (Edge(1, 0, 0, 1),) + tuple(Edge(i + 1, i - 1, i, 2) for i in range(1, n + 1))
        )
        assert rf.core(g) == LabeledGraph(2, frozenset({0}), (Edge(1, 0, 0, 1),))
        # based at the far end, the whole path stays
        assert rf.core_pair(rf.BasedGraph(g, n)).graph == g


class TestCorePair:
    def test_circuit_based_unchanged(self):
        b = rf.BasedGraph(rf.circuit(cyc("ab")), 0)
        assert rf.core_pair(b) == b

    def test_wedge_unchanged(self):
        b = rf.wedge_of_words((word("ab"), word("b")), 2)
        assert rf.core_pair(b) == b

    def test_basepoint_survives_and_remote_component_dropped(self):
        # basepoint 0 dangles off vertex 1; a loop component at 5 is
        # unreachable from the basepoint. The based core keeps only the
        # basepoint component, then deletes the dangling vertex.
        g = LabeledGraph(
            2, frozenset({0, 1, 5}), (Edge(1, 0, 1, 1), Edge(2, 5, 5, 2))
        )
        result = rf.core_pair(rf.BasedGraph(g, 0))
        assert result.graph.vertices == frozenset({0})
        assert result.graph.edges == ()
        assert result.basepoint == 0


class TestIsFolded:
    def test_examples(self):
        assert rf.is_folded(rf.rose(2))
        assert not rf.is_folded(rf.wedge_of_words((word("ab"), word("b")), 2).graph)
        assert rf.is_folded(rf.circuit(cyc("aab")))

    def test_parallel_edges_not_folded(self):
        g = LabeledGraph(2, frozenset({0, 1}), (Edge(1, 0, 1, 1), Edge(2, 0, 1, 1)))
        assert not rf.is_folded(g)


# The linear scans of the edge list that the per-graph index replaced,
# kept as oracles for it.


def scan_edge(g, eid):
    for e in g.edges:
        if e.eid == eid:
            return e
    raise KeyError(eid)


def scan_dir(g, d):
    """(origin, terminus, label) of a directed edge."""
    e = scan_edge(g, abs(d))
    return (e.origin, e.terminus, e.label) if d > 0 else (e.terminus, e.origin, -e.label)


def scan_out_edges(g, v):
    out = []
    for e in g.edges:
        if e.origin == v:
            out.append(e.eid)
        if e.terminus == v:
            out.append(-e.eid)
    out.sort(key=lambda d: (abs(d), 0 if d > 0 else 1))
    return out


def scan_in_labels(g, v):
    labels = set()
    for e in g.edges:
        if e.terminus == v:
            labels.add(e.label)
        if e.origin == v:
            labels.add(-e.label)
    return labels


def scan_valence(g, v):
    return sum((e.origin == v) + (e.terminus == v) for e in g.edges)


def scan_is_folded(g):
    out = {}
    for e in g.edges:
        out.setdefault((e.origin, e.label), []).append(e.eid)
        out.setdefault((e.terminus, -e.label), []).append(-e.eid)
    return all(len(ds) == 1 for ds in out.values())


def assert_index_matches_scan(g):
    for e in g.edges:
        assert g.edge(e.eid) == scan_edge(g, e.eid)
        for d in (e.eid, -e.eid):
            assert (g.dir_origin(d), g.dir_terminus(d), g.dir_label(d)) == scan_dir(g, d)
    missing = max((e.eid for e in g.edges), default=0) + 1
    for lookup in (g.edge, g.dir_origin, g.dir_terminus, g.dir_label):
        with pytest.raises(KeyError):
            lookup(missing)
    outside = max(g.vertices) + 1
    for v in sorted(g.vertices) + [outside]:
        expected = [(d, scan_dir(g, d)[2], scan_dir(g, d)[1]) for d in scan_out_edges(g, v)]
        assert g.out_edges(v) == expected
        assert g.out_map().get(v, []) == expected
        assert g.in_labels(v) == scan_in_labels(g, v)
        assert g.valence(v) == scan_valence(g, v)
    assert (g.out_edges(outside), g.in_labels(outside), g.valence(outside)) == ([], set(), 0)
    assert g.out_map().keys() == g.vertices
    assert rf.is_folded(g) == scan_is_folded(g)


class TestIndexMatchesScan:
    @pytest.mark.parametrize(
        "vertices,edges",
        [
            ({0}, ()),  # no edges
            ({0}, (Edge(1, 0, 0, 1), Edge(2, 0, 0, 1), Edge(3, 0, 0, 2))),  # loops
            ({0, 1}, (Edge(1, 0, 1, 1), Edge(2, 0, 1, 1), Edge(3, 1, 0, 1))),  # parallel
            ({0, 1, 2, 5}, (Edge(4, 2, 0, 2), Edge(1, 0, 0, 1))),  # isolated, ids unsorted
        ],
    )
    def test_examples(self, vertices, edges):
        assert_index_matches_scan(LabeledGraph(2, frozenset(vertices), edges))

    @given(graph_st(rank=3))
    def test_random_graphs(self, g):
        assert_index_matches_scan(g)


def doubled(g, seed):
    """``g`` with a parallel copy of every edge pair, and all edge ids
    shuffled, so the least id of a pair of ends may be either copy's."""
    ids = list(range(1, 2 * len(g.edges) + 1))
    random.Random(seed).shuffle(ids)
    ends = [(e.origin, e.terminus, e.label) for e in g.edges] * 2
    return LabeledGraph(g.rank, g.vertices, tuple(Edge(i, *end) for i, end in zip(ids, ends)))


class TestMorphismTables:
    def test_built_on_first_use_and_kept(self):
        rose = rf.almost_rose(2, 1, 1)
        h = rose.graph
        assert "id_by_ends" not in vars(h) and "pair_of" not in vars(rose)
        g = rf.circuit(cyc("abAB"))
        # a fold builds graphs that never read the table
        assert "id_by_ends" not in vars(rf.fold_to_completion(g).final)
        first = (rf.brute_force_morphism(g, h), rf.induced_morphism(g, rose))
        tables = (h.id_by_ends, rose.pair_of)
        assert "id_by_ends" in vars(h) and "pair_of" in vars(rose)
        assert (rf.brute_force_morphism(g, h), rf.induced_morphism(g, rose)) == first
        assert all(a is b for a, b in zip((h.id_by_ends, rose.pair_of), tables))

    def test_tables_are_not_part_of_the_value(self):
        g, h = rf.circuit(cyc("ab")), rf.circuit(cyc("ab"))
        assert g.id_by_ends
        assert g == h and hash(g) == hash(h) and repr(g) == repr(h)

    @given(graph_st(rank=3, max_vertices=4, max_edge_pairs=8), st.integers(0, 10**9))
    def test_tables_match_a_scan(self, g, seed):
        g = doubled(g, seed)
        # each edge is the (id, origin, terminus, label) row the morphism checks read
        assert all(g.edge_map()[eid] == (eid, o, t, label) for eid, o, t, label in g.edges)
        # the index brute_force_morphism used to build per call, and its least-id rule
        h_index = {}
        for e in g.edges:
            h_index.setdefault((e.origin, e.terminus, e.label), []).append(e.eid)
        assert g.id_by_ends == {ends: sorted(eids)[0] for ends, eids in h_index.items()}


class TestReadsCyclicWord:
    def test_rose_reads_everything(self):
        assert reads(rf.rose(2), cyc("abAB"))

    def test_circuit_reads_its_word(self):
        assert reads(rf.circuit(cyc("ab")), cyc("ab"))

    def test_circuit_rejects_other_word(self):
        assert not reads(rf.circuit(cyc("ab")), cyc("aab"))

    def test_rank_mismatch(self):
        with pytest.raises(RankError):
            reads(rf.rose(2), cyc("ab", rank=3))

    def test_rotation_invariant(self):
        g = rf.circuit(cyc("aab"))
        for rot in ("aab", "aba", "baa"):
            assert reads(g, cyc(rot))

    def test_unreduced_paths_allowed(self):
        # A single a-loop reads a^k for every k, including via backtracking
        # paths; readability does not require the path be reduced.
        g = rf.circuit(cyc("a"))
        assert reads(g, cyc("aa"))
        assert not reads(g, cyc("b"))


class TestMorphisms:
    def test_unique_morphism_to_rose(self):
        g = rf.circuit(cyc("ab"))
        m = rf.brute_force_morphism(g, rf.rose(2))
        assert m == rf.GraphMorphism(vertex_map={0: 0, 1: 0}, edge_map={1: 1, 2: 2})
        assert rf.verify_morphism(m, g, rf.rose(2))

    def test_identity_on_rose(self):
        r = rf.rose(2)
        assert rf.verify_morphism(rf.GraphMorphism(vertex_map={0: 0}, edge_map={1: 1, 2: 2}), r, r)

    def test_label_violation_rejected(self):
        g = rf.circuit(cyc("ab"))
        bad = rf.GraphMorphism(vertex_map={0: 0, 1: 0}, edge_map={1: 2, 2: 2})
        assert not rf.verify_morphism(bad, g, rf.rose(2))

    def test_partial_map_rejected(self):
        g = rf.circuit(cyc("ab"))
        partial = rf.GraphMorphism(vertex_map={0: 0}, edge_map={1: 1, 2: 2})
        assert not rf.verify_morphism(partial, g, rf.rose(2))

    @given(graph_st(rank=3))
    def test_rose_morphism_always_verifies(self, g):
        r = rf.rose(3)
        assert rf.verify_morphism(rf.brute_force_morphism(g, r), g, r)

    def test_rank_mismatch_rejected(self):
        # the morphism into rose(2), checked against rose(3)
        g = rf.circuit(cyc("ab"))
        m = rf.GraphMorphism(vertex_map={0: 0, 1: 0}, edge_map={1: 1, 2: 2})
        assert rf.verify_morphism(m, g, rf.rose(2))
        assert not rf.verify_morphism(m, g, rf.rose(3))

    @given(graph_st(rank=2, max_vertices=3), st.integers(0, 10**9))
    def test_matches_graph_form_oracle_under_tampering(self, g, seed):
        # The edge-list check, on the stored edges and on every edge read
        # backwards, agrees with the check written against the graph.
        rng = random.Random(seed)
        dst = rf.wedge_of_words((word("ab"), word("b")), 2).graph
        m = tampered(rng, induced_or_random(rng, g, dst), g, dst)
        expected = graph_form_verify_morphism(m, g, dst)
        assert rf.verify_morphism(m, g, dst) is expected
        backwards = [(e.eid, e.terminus, e.origin, -e.label) for e in g.edges]
        assert rf.graphs._is_morphism_on(m, g.vertices, backwards, dst) is expected


def graph_form_verify_morphism(m, src, dst):
    """``verify_morphism`` as written against the graphs, before the edge
    test moved to an edge list."""
    if src.rank != dst.rank:
        return False
    if set(m.vertex_map) != set(src.vertices):
        return False
    if any(img not in dst.vertices for img in m.vertex_map.values()):
        return False
    if set(m.edge_map) != {e.eid for e in src.edges}:
        return False
    for e in src.edges:
        img = dst.edge_map().get(m.edge_map[e.eid])
        if img is None or img.label != e.label:
            return False
        if m.vertex_map[e.origin] != img.origin or m.vertex_map[e.terminus] != img.terminus:
            return False
    return True


def induced_or_random(rng, g, dst):
    """A morphism into ``dst`` found by search when there is one, else
    random maps."""
    m = rf.brute_force_morphism(g, dst)
    if m is not None:
        return m
    return rf.GraphMorphism(
        {v: rng.choice(sorted(dst.vertices)) for v in g.vertices},
        {e.eid: rng.choice([x.eid for x in dst.edges]) for e in g.edges},
    )


def tampered(rng, m, g, dst):
    """``m`` unchanged, or with one value changed or one key dropped or added."""
    vmap, emap = dict(m.vertex_map), dict(m.edge_map)
    kind = rng.randrange(5)
    if kind == 1 and vmap:
        vmap[rng.choice(sorted(vmap))] = rng.choice(sorted(dst.vertices) + [max(dst.vertices) + 1])
    elif kind == 2 and emap:
        emap[rng.choice(sorted(emap))] = rng.choice([e.eid for e in dst.edges] + [0, -1])
    elif kind == 3:
        target = vmap if rng.random() < 0.5 else emap
        if target:
            del target[rng.choice(sorted(target))]
    elif kind == 4:
        if rng.random() < 0.5:
            vmap[max(g.vertices, default=0) + 1] = 0
        else:
            emap[max((e.eid for e in g.edges), default=0) + 1] = 1
    return rf.GraphMorphism(vmap, emap)


class TestLabelIsomorphism:
    def test_renamed_vertices(self):
        g = rf.circuit(cyc("ab"))
        h = LabeledGraph(2, frozenset({7, 9}), (Edge(3, 7, 9, 1), Edge(5, 9, 7, 2)))
        assert rf.is_label_isomorphic(g, h)

    def test_label_difference_detected(self):
        assert not rf.is_label_isomorphic(rf.circuit(cyc("ab")), rf.circuit(cyc("aa")))

    def test_direction_matters(self):
        a = LabeledGraph(2, frozenset({0, 1}), (Edge(1, 0, 1, 1), Edge(2, 0, 1, 2)))
        b = LabeledGraph(2, frozenset({0, 1}), (Edge(1, 0, 1, 1), Edge(2, 1, 0, 2)))
        assert not rf.is_label_isomorphic(a, b)

    @given(graph_st(rank=2))
    def test_reflexive_under_renaming(self, g):
        g = rf.fold_to_completion(g).final
        shifted = LabeledGraph(
            g.rank,
            frozenset(v + 100 for v in g.vertices),
            tuple(Edge(e.eid + 50, e.origin + 100, e.terminus + 100, e.label) for e in g.edges),
        )
        assert rf.is_label_isomorphic(g, shifted) == recursive_is_label_isomorphic(g, shifted) is True

    @given(graph_st(rank=2, max_vertices=6, max_edge_pairs=8), graph_st(rank=2, max_vertices=6, max_edge_pairs=8))
    def test_matches_recursive_search(self, g, h):
        g, h = rf.fold_to_completion(g).final, rf.fold_to_completion(h).final
        assert rf.is_label_isomorphic(g, h) == recursive_is_label_isomorphic(g, h)

    @given(graph_st(rank=3, max_vertices=7, max_edge_pairs=9), st.integers(0, 10**6))
    def test_matches_recursive_search_on_renamed_copies(self, g, perm_seed):
        g = rf.fold_to_completion(g).final
        h = renamed(g, perm_seed)
        assert rf.is_label_isomorphic(g, h) == recursive_is_label_isomorphic(g, h) is True

    def test_unfolded_graph_rejected(self):
        # two a-edges leave vertex 0: an almost-rose keeps one such pair
        unfolded = LabeledGraph(2, frozenset({0, 1}), (Edge(1, 0, 0, 1), Edge(2, 0, 1, 1), Edge(3, 1, 1, 2)))
        assert not rf.is_folded(unfolded)
        for g, h in ((unfolded, rf.rose(2)), (rf.rose(2), unfolded), (unfolded, unfolded)):
            with pytest.raises(ValueError, match="folded graphs only"):
                rf.is_label_isomorphic(g, h)

    def test_second_component_skips_the_first_ones_images(self):
        # both components of g have one shape, so the walk of the second
        # component from h's least vertex would succeed onto the first
        # component's images; it must move on to an unused vertex
        g = rf.disjoint_circuits([cyc("aab"), cyc("aab")])
        h = renamed(g, 7)
        other = rf.disjoint_circuits([cyc("aab"), cyc("abb")])
        assert len(rf.graphs.connected_components(g)) == 2
        assert rf.is_label_isomorphic(g, h) == recursive_is_label_isomorphic(g, h) is True
        assert rf.is_label_isomorphic(g, other) == recursive_is_label_isomorphic(g, other) is False
        assert rf.is_label_isomorphic(other, g) == recursive_is_label_isomorphic(other, g) is False

    def test_long_circuit_needs_no_recursion(self):
        # the recursive search raised RecursionError here: one frame per vertex
        c = cyc("abc" * 500, 3)
        g = rf.circuit(c)
        assert len(g.vertices) == 1500
        assert rf.is_label_isomorphic(g, rf.circuit(c))
        assert rf.is_label_isomorphic(g, renamed(g, 1500))
        assert not rf.is_label_isomorphic(g, rf.circuit(cyc("abc" * 499 + "acb", 3)))

    def test_fails_only_after_backtracking(self):
        # two a-triangles against one a-hexagon: the same outgoing labels at
        # every vertex and the same counts, so only the walk tells them
        # apart: each walk of a triangle closes up three steps too early
        g = rf.disjoint_circuits([cyc("aaa"), cyc("aaa")])
        h = rf.circuit(cyc("aaaaaa"))
        assert sorted(map(len, rf.graphs.connected_components(g))) == [3, 3]
        assert not rf.is_label_isomorphic(g, h)
        assert not rf.is_label_isomorphic(h, g)


class TestEdgeChecks:
    def test_nonpositive_edge_id_rejected(self):
        for eid in (0, -3):
            with pytest.raises(ValueError, match=f"edge id must be positive, got {eid}"):
                LabeledGraph(2, frozenset({0}), (Edge(1, 0, 0, 1), Edge(eid, 0, 0, 2)))

    def test_nonpositive_label_rejected(self):
        for label in (0, -2):
            with pytest.raises(ValueError, match=f"stored edge label must be positive, got {label}"):
                LabeledGraph(2, frozenset({0}), (Edge(1, 0, 0, label),))

    def test_duplicate_edge_id_rejected(self):
        with pytest.raises(ValueError, match="duplicate edge id 1"):
            LabeledGraph(2, frozenset({0}), (Edge(1, 0, 0, 1), Edge(1, 0, 0, 2)))

    @pytest.mark.parametrize("ends", [(0, 5), (5, 0)])
    def test_endpoint_outside_the_vertices_rejected(self, ends):
        with pytest.raises(ValueError, match="edge 1 endpoint outside vertex set"):
            LabeledGraph(2, frozenset({0}), (Edge(1, *ends, 1),))

    def test_label_above_the_rank_rejected(self):
        with pytest.raises(RankError, match="edge 1 label 3 exceeds rank 2"):
            LabeledGraph(2, frozenset({0}), (Edge(1, 0, 0, 3),))

    @pytest.mark.parametrize("label", [1.5, 1.0, True])
    def test_a_label_must_be_an_int(self, label):
        # a 1.5 label used to build, and whitehead_of_graph read it as a letter
        message = f"edge 1 label {label!r} has type {type(label).__name__}, not int"
        with pytest.raises(RankError, match=f"^{re.escape(message)}$"):
            LabeledGraph(2, frozenset({0}), (Edge(1, 0, 0, label), Edge(2, 0, 0, 2)))

    def test_basepoint_outside_the_vertices_rejected(self):
        with pytest.raises(ValueError, match="basepoint 1 not a vertex"):
            rf.BasedGraph(rf.rose(2), 1)

    def test_an_edge_is_its_row(self):
        e = Edge(3, 0, 1, 2)
        assert e == (3, 0, 1, 2) and e._replace(label=1) == Edge(3, 0, 1, 1)


class TestTextFormats:
    def test_round_trip(self):
        g = rf.wedge_of_words((word("ab"), word("b")), 2).graph
        assert rf.parse_graph_text(rf.graph_to_text(g)) == g

    def test_uppercase_label_normalizes(self):
        g = rf.parse_graph_text("rank 2\nvertex 0\nvertex 1\nedge 1 0 1 A\n")
        (e,) = g.edges
        assert (e.origin, e.terminus, e.label) == (1, 0, 1)

    def test_missing_rank_rejected(self):
        with pytest.raises(ValueError):
            rf.parse_graph_text("vertex 0\n")

    def test_nonpositive_edge_id_reported_with_its_line(self):
        with pytest.raises(ValueError, match="bad graph line 3"):
            rf.parse_graph_text("rank 2\nvertex 0\nedge 0 0 0 a\n")

    @pytest.mark.parametrize(
        "line, reason",
        [
            ("edge 1 0 0 1", "invalid letter '1'"),
            ("edge 1 0 x a", "invalid literal for int"),
            ("vertex 0 1", "expected 'rank N', 'vertex V' or 'edge ID ORIGIN TERMINUS LETTER'"),
            ("edge 1 0 0 ab", "invalid letter 'ab'"),
            ("edge 1 0 0 a1", "invalid letter 'a1'"),
            ("vertex 0", "repeats an earlier 'vertex 0' line"),
            ("edge 1 0 5 a", "edge 1 endpoint outside vertex set"),
            ("edge 1 0 0 c", "edge 1 label 3 exceeds rank 2"),
        ],
        ids=[
            "bad-letter",
            "bad-vertex",
            "wrong-word-count",
            "two-letters",
            "letter-and-digit",
            "repeated-vertex",
            "endpoint",
            "label",
        ],
    )
    def test_bad_line_names_its_reason(self, line, reason):
        with pytest.raises(ValueError) as info:
            rf.parse_graph_text(f"rank 2\nvertex 0\n{line}\n")
        assert str(info.value).startswith(f"bad graph line 3: {line!r}: {reason}")

    def test_edge_rules_are_checked_once_the_file_is_read(self):
        # the rank and the vertices may follow an edge line; the first edge
        # line that breaks a rule is named, and a label beyond the rank
        # stays a RankError
        g = rf.parse_graph_text("edge 1 0 0 b\nvertex 0\nrank 2\n")
        assert g == LabeledGraph(2, frozenset({0}), (Edge(1, 0, 0, 2),))
        message = "bad graph line 1: 'edge 1 0 0 c': edge 1 label 3 exceeds rank 2"
        with pytest.raises(RankError, match=f"^{re.escape(message)}$"):
            rf.parse_graph_text("edge 1 0 0 c\nedge 2 0 7 a\nvertex 0\nrank 2\n")

    def test_repeated_rank_line_rejected(self):
        # the last of two rank lines used to win
        with pytest.raises(ValueError, match="^bad graph line 2: 'rank 3': repeats an earlier 'rank' line$"):
            rf.parse_graph_text("rank 2\nrank 3\nvertex 0\nedge 1 0 0 a\n")

    def test_dot_contains_edges(self):
        dot = rf.graph_to_dot(rf.circuit(cyc("ab")))
        assert 'v0 -> v1 [label="a"]' in dot
