import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hyp_st

import rosefold as rf
from rosefold.graphs import Edge, LabeledGraph
from rosefold.whitehead import WhiteheadGraph, whitehead_edge
from rosefold.words import RankError

from conftest import class_set_st, class_st, graph_st, word_st


def cyc(text, rank=2):
    return rf.CyclicWord(rf.parse_letters(text), rank)


def wh_edges(*pairs):
    return frozenset(whitehead_edge(u, v) for u, v in pairs)


def brute_cut_vertices(w: WhiteheadGraph) -> set[int]:
    """Delete each vertex and recount the components of its component."""
    adj = w.adjacency
    comps = {frozenset(c) for c in rf.components(w)}
    cuts = set()
    for v in w.letters():
        comp = next(c for c in comps if v in c)
        rest = comp - {v}
        if not rest:
            continue
        seen = set()
        stack = [next(iter(sorted(rest)))]
        while stack:
            u = stack.pop()
            if u in seen:
                continue
            seen.add(u)
            stack.extend((adj[u] - {v}) - seen)
        if seen != rest:
            cuts.add(v)
    return cuts


def per_pair_whitehead_edges(classes) -> frozenset[frozenset[int]]:
    """Oracle: one Whitehead edge built per cyclic letter pair, the set
    dropping the repeats."""
    edges = set()
    for c in classes:
        k = len(c)
        for i in range(k):
            edges.add(whitehead_edge(c.letters[i], -c.letters[(i + 1) % k]))
    return frozenset(edges)


class TestWhOfGraph:
    def test_rose_is_complete(self):
        w = rf.whitehead_of_graph(rf.rose(2))
        assert len(w.edges) == 6  # C(4, 2)

    def test_circuit_ab(self):
        w = rf.whitehead_of_graph(rf.circuit(cyc("ab")))
        assert w.edges == wh_edges((1, -2), (2, -1))

    def test_almost_rose_312_wedge(self):
        w = rf.whitehead_of_graph(rf.almost_rose(3, 1, 2).graph)
        side1 = [1, -1, -2]
        side2 = [1, 2, 3, -3]
        expected = {frozenset(p) for p in itertools.combinations(side1, 2)}
        expected |= {frozenset(p) for p in itertools.combinations(side2, 2)}
        assert w.edges == frozenset(expected)

    def test_one_letter_edge_rejected(self):
        with pytest.raises(ValueError, match="Whitehead edges join two distinct letters"):
            WhiteheadGraph(2, frozenset({frozenset({1})}))

    @pytest.mark.parametrize("letter", [1.5, 1.0, True])
    def test_a_letter_must_be_an_int(self, letter):
        with pytest.raises(RankError, match=f"letter {letter!r} has type {type(letter).__name__}, not int"):
            WhiteheadGraph(2, frozenset({frozenset({letter, -2})}))

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="no Whitehead self-loops"):
            whitehead_edge(-2, -2)

    def test_parallel_same_label_edges_contribute_nothing(self):
        # exactly the foldable configuration: the two-edge path reads a
        # cancelling word, so no Whitehead edge appears
        g = LabeledGraph(2, frozenset({0, 1}), (Edge(1, 0, 1, 1), Edge(2, 0, 1, 1)))
        assert rf.whitehead_of_graph(g).edges == frozenset()


class TestWhOfClasses:
    def test_single_letter_power_edge(self):
        w = rf.whitehead_of_classes([cyc("a")], 2)
        assert w.edges == wh_edges((1, -1))

    def test_commutator_four_cycle(self):
        w = rf.whitehead_of_classes([cyc("abAB")], 2)
        assert w.edges == wh_edges((1, -2), (1, 2), (2, -1), (-1, -2))

    def test_aab(self):
        w = rf.whitehead_of_classes([cyc("aab")], 2)
        assert w.edges == wh_edges((1, -1), (1, -2), (2, -1))

    @given(class_st(rank=3), hyp_st.integers(0, 20), word_st(rank=3))
    def test_rotation_and_conjugation_invariance(self, c, shift, u):
        rotated = rf.CyclicWord(c.letters[shift % len(c):] + c.letters[: shift % len(c)], 3)
        assert rf.whitehead_of_classes([c], 3).edges == rf.whitehead_of_classes([rotated], 3).edges
        conjugated = rf.conjugacy_class(rf.conjugate(rf.Word(c.letters, 3), u))
        assert rf.whitehead_of_classes([c], 3).edges == rf.whitehead_of_classes([conjugated], 3).edges

    @given(hyp_st.integers(2, 4).flatmap(lambda n: hyp_st.tuples(hyp_st.just(n), class_set_st(n, 6))))
    def test_matches_per_pair_construction(self, case):
        n, classes = case
        assert rf.whitehead_of_classes(classes, n).edges == per_pair_whitehead_edges(classes)

    def test_long_class_matches_per_pair_construction(self):
        import random

        from rosefold.oracles import random_class

        rng = random.Random(12)
        classes = [random_class(rng, 4, 10**4) for _ in range(3)] + [cyc("c", 4), cyc("cc", 4)]
        assert rf.whitehead_of_classes(classes, 4).edges == per_pair_whitehead_edges(classes)

    @given(class_set_st(rank=3))
    def test_matches_disjoint_circuits(self, classes):
        direct = rf.whitehead_of_classes(classes, 3)
        via = rf.whitehead_of_graph(rf.disjoint_circuits(classes, 3))
        assert direct.edges == via.edges


class TestComponents:
    def test_single_letter(self):
        comps = rf.components(rf.whitehead_of_classes([cyc("a")], 2))
        assert comps == [(1, -1), (2,), (-2,)]

    def test_commutator_connected(self):
        comps = rf.components(rf.whitehead_of_classes([cyc("abAB")], 2))
        assert len(comps) == 1 and len(comps[0]) == 4

    def test_edgeless(self):
        comps = rf.components(WhiteheadGraph(3, frozenset()))
        assert len(comps) == 6


class TestCutVertices:
    def test_four_cycle_has_none(self):
        assert rf.cut_vertices(rf.whitehead_of_classes([cyc("abAB")], 2)) == set()

    def test_path_interior(self):
        # B - a - A - b is a path; both interior vertices are cut vertices
        assert rf.cut_vertices(rf.whitehead_of_classes([cyc("aab")], 2)) == {1, -1}

    def test_almost_rose_wedge_letter(self):
        rose = rf.almost_rose(3, 1, 2)
        assert rf.cut_vertices(rf.whitehead_of_graph(rose.graph)) == {1}

    @given(hyp_st.integers(2, 6), hyp_st.integers(0, 10**9))
    @settings(max_examples=200)
    def test_agrees_with_brute_force(self, rank, seed):
        import random

        rng = random.Random(seed)
        letters = [v for i in range(1, rank + 1) for v in (i, -i)]
        edges = set()
        for _ in range(rng.randint(0, 3 * rank)):
            u, v = rng.sample(letters, 2)
            edges.add(whitehead_edge(u, v))
        w = WhiteheadGraph(rank, frozenset(edges))
        assert rf.cut_vertices(w) == brute_cut_vertices(w)

    @pytest.mark.parametrize("rank, max_edges", [(2, 6), (3, 6)], ids=["rank-2-all", "rank-3-up-to-6-edges"])
    def test_agrees_with_brute_force_on_every_small_graph(self, rank, max_edges):
        # 64 graphs at rank 2, and 9,949 of the 32,768 at rank 3
        letters = [v for i in range(1, rank + 1) for v in (i, -i)]
        pairs = [frozenset(p) for p in itertools.combinations(letters, 2)]
        checked = 0
        for k in range(max_edges + 1):
            for edges in itertools.combinations(pairs, k):
                w = WhiteheadGraph(rank, frozenset(edges))
                assert rf.cut_vertices(w) == brute_cut_vertices(w), sorted(map(sorted, edges))
                checked += 1
        assert checked == {2: 64, 3: 9949}[rank]


class TestIsSubgraph:
    def test_everything_fits_the_rose(self):
        w = rf.whitehead_of_classes([cyc("abAB")], 2)
        assert rf.is_subgraph(w, rf.whitehead_of_graph(rf.rose(2)))

    def test_aab_fits_relabeled_rose(self):
        rose = rf.almost_rose(2, 1, 2, rf.SignedRelabeling((1, -2)))
        assert rf.is_subgraph(
            rf.whitehead_of_classes([cyc("aab")], 2), rf.whitehead_of_almost_rose(rose)
        )

    def test_commutator_fits_no_rank2_rose(self):
        w = rf.whitehead_of_classes([cyc("abAB")], 2)
        for rose in rf.enumerate_almost_roses(2):
            assert not rf.is_subgraph(w, rf.whitehead_of_almost_rose(rose))

    def test_rank_mismatch(self):
        with pytest.raises(RankError):
            rf.is_subgraph(
                WhiteheadGraph(2, frozenset()), WhiteheadGraph(3, frozenset())
            )


class TestMonotonicity:
    @given(graph_st(rank=3))
    @settings(max_examples=60)
    def test_folding_only_grows_whitehead(self, g):
        # each fold is a label-preserving morphism, so Whitehead edges only
        # accumulate along the sequence
        seq = rf.fold_to_completion(g)
        for before, after in zip(seq.snapshots, seq.snapshots[1:]):
            assert rf.is_subgraph(
                rf.whitehead_of_graph(before), rf.whitehead_of_graph(after)
            )

    @given(graph_st(rank=2))
    def test_morphism_implies_inclusion_into_rose(self, g):
        assert rf.is_subgraph(
            rf.whitehead_of_graph(g), rf.whitehead_of_graph(rf.rose(2))
        )


class TestDotExport:
    def test_cut_vertex_double_circled(self):
        w = rf.whitehead_of_graph(rf.almost_rose(3, 1, 2).graph)
        dot = rf.whitehead_to_dot(w)
        assert "doublecircle" in dot and 'label="a"' in dot
