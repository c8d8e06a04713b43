import dataclasses
import functools
import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hyp_st

import rosefold as rf
from rosefold import folding
from rosefold.graphs import Edge, LabeledGraph, adjacency_components, oriented_edge
from rosefold.oracles import FoldFactorError, random_class
from rosefold.whitehead import WhiteheadGraph
from rosefold.words import LETTER_CHARS, RankError, class_rank, letter_key, normalize_classes

from conftest import (
    class_set_st,
    fold_once,
    graph_st,
    is_pi1_surjective,
    reads,
    recursive_is_label_isomorphic,
    relabeling_st,
)


def cyc(text, rank=2):
    return rf.CyclicWord(rf.parse_letters(text), rank)


def word(text, rank=2):
    return rf.parse_word(text, rank)


def clique_sides(n, k, l):
    """The two clique sides of the standard almost-rose from its shape: the
    letters arriving at u are 1, 2..k and their inverses, and the inverses
    of the connectors k+1..l; those arriving at v are 1, the connectors,
    and l+1..n and their inverses."""
    side1 = {s * i for i in range(1, k + 1) for s in (1, -1)}
    side1 |= {-i for i in range(k + 1, l + 1)}
    side2 = {1} | set(range(k + 1, l + 1))
    side2 |= {s * i for i in range(l + 1, n + 1) for s in (1, -1)}
    return side1, side2


def relabeled_sides(rose):
    """``clique_sides`` with every letter taken to the rose's: the standard
    rose's letter j is ``rose.targets[j - 1]``."""
    f = rf.SignedRelabeling(rose.targets).apply_letter
    return tuple({f(x) for x in side} for side in clique_sides(rose.rank, rose.k, rose.l))


def standard_coordinates(g, s):
    """``g`` with every letter taken back through the signed relabeling
    ``s`` (or a rose's ``targets``): the relabeled copy that
    ``induced_map_oracle`` reads in the standard almost-rose's letters."""
    back = {}
    for i, t in enumerate(s.targets, start=1):
        back[t], back[-t] = i, -i
    edges = tuple(oriented_edge(e.eid, e.origin, e.terminus, back[e.label]) for e in g.edges)
    return LabeledGraph(g.rank, g.vertices, edges)


class TestSignedRelabeling:
    def test_identity(self):
        s = rf.SignedRelabeling.identity(3)
        assert s.targets == (1, 2, 3) and s.apply_letter(-2) == -2

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            rf.SignedRelabeling((1, 1))

    @given(relabeling_st(3))
    def test_commutes_with_inversion(self, s):
        for v in (1, -1, 2, -2, 3, -3):
            assert s.apply_letter(-v) == -s.apply_letter(v)

    @given(relabeling_st(3))
    def test_graph_action_preserves_structure(self, s):
        # a relabeled almost-rose's side one is the standard one's image, and
        # taking its letters back through its targets gives the standard rose
        for k, l in ((1, 1), (1, 3), (2, 2)):
            rose, standard = rf.almost_rose(3, k, l, s), rf.almost_rose(3, k, l)
            assert rose.side_one == {s.apply_letter(x) for x in standard.side_one}
            assert standard_coordinates(rose.graph, rose) == standard.graph


class TestStandardAlmostRose:
    def test_312_structure(self):
        rose = rf.almost_rose(3, 1, 2)
        g = rose.graph
        assert len(g.vertices) == 2 and len(g.edges) == 4
        loops_u = sorted(e.label for e in g.edges if e.origin == e.terminus == 0)
        conns = sorted(e.label for e in g.edges if e.origin != e.terminus)
        loops_v = sorted(e.label for e in g.edges if e.origin == e.terminus == 1)
        assert (loops_u, conns, loops_v) == ([1], [1, 2], [3])

    def test_211_structure(self):
        g = rf.almost_rose(2, 1, 1).graph
        assert sorted(e.label for e in g.edges) == [1, 1, 2]

    def test_constraint_violation(self):
        with pytest.raises(ValueError):
            rf.almost_rose(2, 2, 2)

    def test_defining_properties(self):
        for n, k, l in [(2, 1, 1), (3, 2, 3), (4, 1, 4), (5, 3, 3)]:
            rose = rf.almost_rose(n, k, l)
            g = rose.graph
            assert rf.betti(g) == n
            assert rf.core(g) == g
            assert len(rf.foldable_pairs(g)) == 1
            folded, step = fold_once(g, rf.foldable_pairs(g)[0])
            assert rf.is_rose(folded) and not step.betti_dropped


class TestWhiteheadClosedForm:
    @pytest.mark.parametrize(
        "shape,side1,side2",
        [
            ((3, 1, 2), (1, -1, -2), (1, 2, 3, -3)),
            ((2, 1, 1), (1, -1), (1, 2, -2)),
            ((2, 1, 2), (1, -1, -2), (1, 2)),
        ],
    )
    def test_wedge_of_cliques(self, shape, side1, side2):
        rose = rf.almost_rose(*shape)
        expected = {frozenset(p) for p in itertools.combinations(side1, 2)}
        expected |= {frozenset(p) for p in itertools.combinations(side2, 2)}
        assert rf.whitehead_of_almost_rose(rose).edges == frozenset(expected)

    def test_closed_form_matches_graph_up_to_rank_five(self):
        for n in range(2, 6):
            for k in range(1, n):
                for l in range(k, n + 1):
                    rose = rf.almost_rose(n, k, l)
                    assert (
                        rf.whitehead_of_almost_rose(rose).edges
                        == rf.whitehead_of_graph(rose.graph).edges
                    )
                    assert 1 in rf.cut_vertices(rf.whitehead_of_almost_rose(rose))

    @given(relabeling_st(3))
    def test_relabeled_closed_form(self, s):
        rose = rf.almost_rose(3, 1, 2, s)
        assert (
            rf.whitehead_of_almost_rose(rose).edges
            == rf.whitehead_of_graph(rose.graph).edges
        )


class TestRecognize:
    def test_round_trip_identity(self):
        rose = rf.almost_rose(3, 1, 2)
        found = rf.recognize_almost_rose(rose.graph)
        assert found is not None
        assert (found.k, found.l) == (1, 2)
        assert found.targets == (1, 2, 3) and found == rose

    def test_wedge_example(self):
        g = rf.wedge_of_words((word("ab"), word("b")), 2).graph
        found = rf.recognize_almost_rose(g)
        assert found is not None
        assert (found.k, found.l) == (1, 2)
        assert found.targets == (-2, 1)
        assert found == rf.AlmostRose(2, -2, {2, -1})

    def test_rose_not_recognized(self):
        assert rf.recognize_almost_rose(rf.rose(2)) is None

    def test_circuit_not_recognized(self):
        assert rf.recognize_almost_rose(rf.circuit(cyc("ab"))) is None

    def test_non_core_two_vertex_graph_rejected(self):
        # valence-one vertex: loop a at 0, connector a, loop b at 0
        g = LabeledGraph(
            2,
            frozenset({0, 1}),
            (Edge(1, 0, 0, 1), Edge(2, 0, 1, 1), Edge(3, 0, 0, 2)),
        )
        assert rf.recognize_almost_rose(g) is None

    @given(relabeling_st(3))
    def test_round_trip_relabeled(self, s):
        rose = rf.almost_rose(3, 2, 3, s)
        found = rf.recognize_almost_rose(rose.graph)
        assert found is not None
        assert (found.k, found.l) == (2, 3)
        assert recursive_is_label_isomorphic(found.graph, rose.graph)

    def test_out_of_order_relabeling(self):
        # the connectors 3 and -2 are laid out by index, so the rose built
        # and the rose recognized from its graph are one rose
        rose = rf.almost_rose(3, 1, 3, rf.SignedRelabeling((1, 3, -2)))
        assert rose.targets == (1, -2, 3)
        assert rf.recognize_almost_rose(rose.graph) == rose
        assert rose == rf.almost_rose(3, 1, 3, rf.SignedRelabeling((1, -2, 3)))

    @settings(max_examples=200)
    @given(hyp_st.data())
    def test_roses_compare_by_the_rose_they_name(self, data):
        # two roses are equal exactly when their Whitehead graphs are, and
        # recognizing a rose's graph gives the rose back
        n = data.draw(hyp_st.integers(2, 4))
        shapes = [(k, l) for k in range(1, n) for l in range(k, n + 1)]
        r1, r2 = (rf.almost_rose(n, *data.draw(hyp_st.sampled_from(shapes)), data.draw(relabeling_st(n))) for _ in "12")
        assert rf.recognize_almost_rose(r1.graph) == r1
        assert (r1 == r2) == (r1.whitehead == r2.whitehead)
        assert r1 != r2 or hash(r1) == hash(r2)


class TestAlmostRosePair:
    """An ``AlmostRose`` is its wedge letter and side one; a pair that names
    no rose is rejected with its reason."""

    @pytest.mark.parametrize(
        "rank, wedge, side_one, error, reason",
        [
            (3, 0, {0}, RankError, "letter 0 out of range for rank 3"),
            (3, 4, {-4}, RankError, "letter 4 out of range for rank 3"),
            (3, 1, {2, -2}, ValueError, "must hold -1, the wedge letter's inverse"),
            (3, 1, {-1, 1}, ValueError, "must not hold the wedge letter 1"),
            (2, 1, {-1, 2, -2}, ValueError, "leaves no letter but the wedge letter to side two"),
            (2, -1, {1, 3}, RankError, "letter 3 out of range for rank 2"),
            (1, 1, {-1}, RankError, "rank must be at least 2"),
        ],
        ids=["wedge-zero", "wedge-beyond-rank", "no-wedge-inverse", "holds-wedge", "no-side-two",
             "letter-beyond-rank", "rank-one"],
    )
    def test_bad_pair(self, rank, wedge, side_one, error, reason):
        with pytest.raises(error, match=reason):
            rf.AlmostRose(rank, wedge, side_one)

    def test_init_fields_and_derived_values(self):
        rose = rf.AlmostRose(3, -2, {2, 1, -1, -3})
        assert [f.name for f in dataclasses.fields(rose) if f.init] == ["rank", "wedge", "side_one"]
        assert rose.side_one == frozenset({2, 1, -1, -3})
        assert (rose.targets, rose.k, rose.l) == ((-2, 1, 3), 2, 3)
        assert rose.sides == ({2, 1, -1, -3, -2}, {-2, 3})
        assert rose == rf.recognize_almost_rose(rose.graph)


def brute_force_almost_roses(n):
    """Oracle: enumerate *all* two-vertex graphs with n+1 edge pairs that
    satisfy the almost-rose definition, classed up to label isomorphism."""
    found = []
    # each edge pair: placement in {loop@0, loop@1, 0->1, 1->0} x label
    placements = list(itertools.product(range(4), range(1, n + 1)))
    for combo in itertools.combinations_with_replacement(placements, n + 1):
        edges = []
        for i, (kind, label) in enumerate(combo, start=1):
            origin, terminus = [(0, 0), (1, 1), (0, 1), (1, 0)][kind]
            edges.append(Edge(i, origin, terminus, label))
        try:
            g = LabeledGraph(n, frozenset({0, 1}), tuple(edges))
        except ValueError:
            continue
        if rf.betti(g) != n or rf.core(g) != g:
            continue
        pairs = rf.foldable_pairs(g)
        if len(pairs) != 1:
            continue
        folded, _ = fold_once(g, pairs[0])
        if not rf.is_rose(folded):
            continue
        if not any(recursive_is_label_isomorphic(g, h) for h in found):
            found.append(g)
    return found


def maximal_cut_vertex_graphs(n):
    """The edge sets of the graphs K(P + c) u K(Q + c) on the 2n letters,
    one for each letter c and split of the other letters into nonempty P
    and Q, built from the letters alone."""
    letters = [s * i for i in range(1, n + 1) for s in (1, -1)]
    graphs = set()
    for c in letters:
        rest = [x for x in letters if x != c]
        for bits in range(1, 2 ** len(rest) - 1):
            p = {x for j, x in enumerate(rest) if bits >> j & 1}
            sides = (p | {c}, set(rest) - p | {c})
            graphs.add(frozenset(frozenset(e) for side in sides for e in itertools.combinations(side, 2)))
    return graphs


class TestEnumerate:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_whitehead_correspondence(self, n):
        # Wh maps the almost-roses one-to-one onto the maximal graphs with a
        # cut vertex, and each rose is rebuilt from its own Whitehead graph
        roses = rf.enumerate_almost_roses(n)
        graphs = {rose.whitehead.edges for rose in roses}
        assert len(roses) == len(graphs) == 2 * n * (4 ** (n - 1) - 1)
        assert graphs == maximal_cut_vertex_graphs(n)
        for rose in roses:
            assert rf.build_rose_from_whitehead(rose.whitehead) == rose

    def test_rank_two_count_against_brute_force(self):
        enumerated = rf.enumerate_almost_roses(2)
        assert len(enumerated) == 12
        brute = brute_force_almost_roses(2)
        assert len(brute) == len(enumerated)
        for g in brute:
            assert any(recursive_is_label_isomorphic(g, r.graph) for r in enumerated)

    @pytest.mark.parametrize("n, count", [(2, 12), (3, 90), (4, 504), (5, 2550)])
    def test_closed_form_count(self, n, count):
        by_shape = 2 * n * sum(
            math.comb(n - 1, k - 1) * math.comb(n - k, l - k) * 2 ** (l - k)
            for k in range(1, n)
            for l in range(k, n + 1)
        )
        assert by_shape == 2 * n * (4 ** (n - 1) - 1) == count
        assert len(rf.enumerate_almost_roses(n)) == count

    def test_small_stream(self):
        assert len(rf.enumerate_almost_roses(2)) < 50

    @pytest.mark.parametrize("n", [2, 3])
    def test_all_recognized_and_distinct(self, n):
        # The pairwise isomorphism check is the oracle for enumeration
        # without deduplication.
        roses = rf.enumerate_almost_roses(n)
        for r in roses:
            assert rf.recognize_almost_rose(r.graph) is not None
        for a, b in itertools.combinations(roses, 2):
            assert not recursive_is_label_isomorphic(a.graph, b.graph)


class TestInducedMorphism:
    def test_aab_into_relabeled_rose(self):
        rose = rf.almost_rose(2, 1, 2, rf.SignedRelabeling((1, -2)))
        m = rf.induced_morphism(rf.circuit(cyc("aab")), rose)
        assert m is not None
        assert rf.verify_morphism(m, rf.circuit(cyc("aab")), rose.graph)

    def test_commutator_has_no_morphism(self):
        g = rf.circuit(cyc("abAB"))
        for rose in rf.enumerate_almost_roses(2):
            assert rf.induced_morphism(g, rose) is None

    def test_built_rose_admits_morphism(self):
        w = rf.whitehead_of_classes([cyc("ab")], 2)
        rose = rf.build_rose_from_whitehead(w)
        m = rf.induced_morphism(rf.disjoint_circuits([cyc("ab")]), rose)
        assert m is not None


def tame_class_sets(seed, count):
    """Seeded tame class sets at ranks 2-5 with their ranks: random classes,
    some over a proper subset of the generators, with repeated and
    length-one classes mixed in."""
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        n = rng.randint(2, 5)
        gens = rng.sample(range(1, n + 1), rng.randint(1, n))
        letters = [s * i for i in gens for s in (1, -1)]
        classes = []
        for _ in range(rng.randint(1, 4)):
            w = rf.Word(tuple(rng.choice(letters) for _ in range(rng.randint(1, 9))), n)
            if rf.free_reduce(w).letters:
                classes.append(rf.conjugacy_class(w))
        if not classes:
            continue
        if rng.random() < 0.3:
            classes.append(classes[0])
        if rng.random() < 0.3:
            classes.append(cyc(LETTER_CHARS[rng.choice(letters)], n))
        if rf.decide_tame(classes, n).tame:
            found.append((classes, n))
    return found


def induced_map_oracle(g, rose):
    """The maps of ``induced_morphism`` computed on a relabeled copy of
    ``g``, as the morphism was built before ``_induced_map``."""
    gs = standard_coordinates(g, rose)
    v2_strict = clique_sides(rose.rank, rose.k, rose.l)[1] - {1}
    vmap = {p: (1 if gs.in_labels(p) & v2_strict else 0) for p in gs.vertices}
    emap = {}
    for e in gs.edges:
        if e.label != 1:
            emap[e.eid] = e.label + 1
        else:
            emap[e.eid] = 2 if vmap[e.terminus] == 1 else 1
    return vmap, emap


class TestInducedMap:
    """``decide_tame`` maps the circuit edge list with ``_induced_map``,
    which reads each label in standard coordinates; the relabeled-copy
    construction on the circuit graph is its oracle."""

    def test_matches_relabeled_copy_on_circuits(self):
        ranks = set()
        for classes, n in tame_class_sets(7, 1000):
            norm = normalize_classes(classes)
            rose = rf.build_rose_from_whitehead(rf.whitehead_of_classes(norm, n))
            gamma = rf.disjoint_circuits(norm, n)
            edges = rf.graphs._circuit_edges(norm)
            m = rf.tameness._induced_map(range(len(edges)), edges, rose)
            assert (m.vertex_map, m.edge_map) == induced_map_oracle(gamma, rose)
            assert rf.verify_morphism(m, gamma, rose.graph)
            ranks.add(n)
        assert ranks == {2, 3, 4, 5}

    @settings(max_examples=100, deadline=None)
    @given(graph_st(2))
    def test_matches_relabeled_copy_on_random_graphs(self, g):
        # every rank-2 almost-rose whose Whitehead graph contains g's
        for rose in rf.enumerate_almost_roses(2):
            m = rf.induced_morphism(g, rose)
            if m is not None:
                assert (m.vertex_map, m.edge_map) == induced_map_oracle(g, rose)

    def test_decide_builds_no_relabeled_graph(self, monkeypatch, graphs_built):
        calls = []

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)

            return wrapper

        for module in (rf.tameness, rf.whitehead):
            for name in ("whitehead_of_graph", "whitehead_of_almost_rose"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        sets = tame_class_sets(8, 50)
        graphs_built.clear()
        roses = [rf.decide_tame(classes, n).rose for classes, n in sets]
        # the only graph each decide builds is its rose's
        assert len(graphs_built) == len(roses)
        assert all(g is rose.graph for g, rose in zip(graphs_built, roses))
        # induced_morphism tests the inclusion in closed form, either way
        rose = rf.almost_rose(2, 1, 2, rf.SignedRelabeling((1, -2)))
        g, h = rf.circuit(cyc("aab")), rf.circuit(cyc("abAB"))
        graphs_built.clear()
        assert rf.induced_morphism(g, rose) is not None
        assert rf.induced_morphism(h, rose) is None
        assert calls == [] and graphs_built == []
        # the counters do see the oracles' calls
        assert rf.whitehead.is_subgraph(
            rf.whitehead.whitehead_of_graph(g), rf.tameness.whitehead_of_almost_rose(rose)
        )
        induced_map_oracle(g, rose)
        assert calls == ["whitehead_of_graph", "whitehead_of_almost_rose"]
        assert len(graphs_built) == 1  # the oracle's relabeled copy

    def test_flipped_vertex_is_rejected_by_the_verifier(self, flipped_induced_map):
        # decide does not re-check its certificate; the verifier does
        for classes, n in tame_class_sets(9, 20):
            cert = rf.decide_tame(classes, n)
            assert cert.tame and not rf.verify_certificate(classes, cert, n)


@functools.cache
def roses_with_whitehead(n):
    """Every almost-rose at ranks 2-3 and a seeded sample at rank 4, each
    with its Whitehead graph, for the inclusion oracle."""
    roses = rf.enumerate_almost_roses(n)
    if n == 4:
        roses = random.Random(4).sample(roses, 60)
    return [(rose, rf.whitehead_of_almost_rose(rose)) for rose in roses]


@hyp_st.composite
def wild_graph_st(draw):
    """Graphs at ranks 2-4 with loops, parallel same-label edges and isolated
    vertices, each edge drawn with a signed letter, so in either orientation."""
    n = draw(hyp_st.integers(2, 4))
    nv = draw(hyp_st.integers(1, 4))
    vertex = hyp_st.integers(0, nv - 1)
    letter = hyp_st.integers(-n, n).filter(bool)
    drawn = draw(hyp_st.lists(hyp_st.tuples(vertex, vertex, letter), max_size=7))
    if drawn:
        drawn += draw(hyp_st.lists(hyp_st.sampled_from(drawn), max_size=3))
    edges = tuple(oriented_edge(i, o, t, x) for i, (o, t, x) in enumerate(drawn, start=1))
    isolated = draw(hyp_st.integers(0, 2))
    return LabeledGraph(n, frozenset(range(nv + isolated)), edges)


class TestClosedFormInclusion:
    """``induced_morphism`` tests the Whitehead inclusion vertex by vertex
    against the rose's clique sides; comparing the Whitehead graphs
    themselves is the oracle."""

    @settings(max_examples=150, deadline=None)
    @given(wild_graph_st())
    def test_matches_the_inclusion_oracle(self, g):
        wg = rf.whitehead_of_graph(g)
        for rose, wr in roses_with_whitehead(g.rank):
            m = rf.induced_morphism(g, rose)
            assert (m is not None) == rf.is_subgraph(wg, wr)
            if m is not None:
                assert (m.vertex_map, m.edge_map) == induced_map_oracle(g, rose)
                assert rf.verify_morphism(m, g, rose.graph)

    def test_roses_cover_both_wedge_orientations(self):
        for n in (2, 3, 4):
            signs = {rose.wedge > 0 for rose, _ in roses_with_whitehead(n)}
            assert signs == {True, False}

    @pytest.mark.parametrize("n", [2, 3])
    def test_side_of_a_letter_pair_is_a_whitehead_edge(self, n):
        # two letters' side_mask bits share a side exactly when the pair is
        # an edge of the rose's Whitehead graph
        letters = [s * i for i in range(1, n + 1) for s in (1, -1)]
        for rose, wr in roses_with_whitehead(n):
            mask = rose.side_mask
            for x, y in itertools.combinations(letters, 2):
                assert bool(mask[x] & mask[y]) == (frozenset((x, y)) in wr.edges)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_sides_are_the_relabeled_clique_sides(self, n):
        # the sides, side_mask and pair_of are computed from the pair; the
        # shape formula and the rose's graph restate them
        for rose in rf.enumerate_almost_roses(n):
            side1, side2 = relabeled_sides(rose)
            assert rose.sides == (side1, side2)
            assert rose.side_mask == {x: (x in side1) | 2 * (x in side2) for x in side1 | side2}
            # pair j + 1 carries the image of letter j; the wedge letter's connector is pair 2
            assert rose.pair_of == {abs(t): j + 1 for j, t in enumerate(rose.targets, start=1)}
            # the letters arriving at u and at v
            assert rose.sides == (rose.graph.in_labels(0), rose.graph.in_labels(1))
            assert rf.whitehead_of_almost_rose(rose).edges == rf.whitehead_of_graph(rose.graph).edges
            # built once per rose and kept
            assert rf.whitehead_of_almost_rose(rose) is rf.whitehead_of_almost_rose(rose)

    def test_enumeration_builds_no_whitehead_graph(self, monkeypatch):
        built = []
        original = rf.WhiteheadGraph.__post_init__

        def counting(w):
            original(w)
            built.append(w)

        monkeypatch.setattr(rf.WhiteheadGraph, "__post_init__", counting)
        roses = rf.enumerate_almost_roses(3)
        assert built == []
        rf.whitehead_of_almost_rose(roses[5])
        assert len(built) == 1

    def test_sides_built_once_on_first_use(self, monkeypatch):
        # the sides come from the pair, so the rose's graph is never read
        calls = []
        original = LabeledGraph.in_labels

        def counting(g, v):
            calls.append((g, v))
            return original(g, v)

        monkeypatch.setattr(LabeledGraph, "in_labels", counting)
        roses = rf.enumerate_almost_roses(3)
        rose = roses[7]
        assert "sides" not in vars(rose)
        sides = []
        for text in ("abc", "aab", "abAB", "c"):
            rf.induced_morphism(rf.circuit(cyc(text, 3)), rose)
            sides.append(rose.sides)
        rf.whitehead_of_almost_rose(rose)
        assert all(s is sides[0] for s in sides) and rose.sides is sides[0]
        assert calls == []

    def test_rank_mismatch_raises(self):
        with pytest.raises(RankError):
            rf.induced_morphism(rf.circuit(cyc("aab")), rf.almost_rose(3, 1, 2))
        with pytest.raises(RankError):
            rf.induced_morphism(rf.circuit(cyc("abc", 3)), rf.almost_rose(2, 1, 1))

    def test_built_rose_missing_an_edge_raises_in_decide(self, monkeypatch):
        # aab has the Whitehead edge {b, A}, which the (2, 1, 2) rose lacks,
        # so no morphism reads aab in it and decide never returns None
        monkeypatch.setattr(
            rf.tameness, "build_rose_from_whitehead", lambda w: rf.almost_rose(2, 1, 2)
        )
        with pytest.raises(RuntimeError):
            rf.decide_tame([cyc("aab")])


class TestBuildRoseFromWhitehead:
    def test_aab_assignment(self):
        rose = rf.build_rose_from_whitehead(rf.whitehead_of_classes([cyc("aab")], 2))
        assert rose is not None
        assert (rose.k, rose.l) == (1, 2)
        assert rose.targets == (1, -2) and rose == rf.AlmostRose(2, 1, {-1, 2})

    def test_disconnected_ab(self):
        rose = rf.build_rose_from_whitehead(rf.whitehead_of_classes([cyc("ab")], 2))
        assert rose is not None
        assert rose.wedge == 1  # wedge letter is a
        assert rf.is_subgraph(
            rf.whitehead_of_classes([cyc("ab")], 2), rf.whitehead_of_almost_rose(rose)
        )

    def test_four_cycle_unusable(self):
        assert rf.build_rose_from_whitehead(rf.whitehead_of_classes([cyc("abAB")], 2)) is None

    def test_isolated_wedge_inverse(self):
        # an isolated letter can anchor side one on its own
        w = rf.whitehead_of_classes([cyc("a"), cyc("aa")], 2)
        rose = rf.build_rose_from_whitehead(w)
        assert rose is not None and rf.is_subgraph(w, rf.whitehead_of_almost_rose(rose))


class TestFactorThroughAlmostRose:
    def test_wedge_penultimate_is_start(self):
        g = rf.wedge_of_words((word("ab"), word("b")), 2).graph
        rose, seq = rf.factor_through_almost_rose(g)
        assert len(seq.steps) == 1
        assert seq.snapshots[-2] == g
        assert (rose.k, rose.l) == (1, 2)

    def test_swapped_basis(self):
        g = rf.wedge_of_words((word("ba"), word("a")), 2).graph
        rose, _ = rf.factor_through_almost_rose(g)
        assert (rose.k, rose.l) == (1, 2)

    def test_rose_rejected(self):
        with pytest.raises(ValueError):
            rf.factor_through_almost_rose(rf.rose(2))

    def test_non_surjective_rejected(self):
        with pytest.raises(ValueError):
            rf.factor_through_almost_rose(rf.circuit(cyc("ab")))

    def test_disconnected_rejected(self):
        g = LabeledGraph(2, frozenset({0, 1}), (Edge(1, 0, 0, 1), Edge(2, 1, 1, 2)))
        with pytest.raises(rf.NotConnectedError):
            rf.factor_through_almost_rose(g)

    def test_non_core_rejected(self):
        # the rose with a pendant a edge
        g = LabeledGraph(2, frozenset({0, 1}), (Edge(1, 0, 0, 1), Edge(2, 0, 0, 2), Edge(3, 0, 1, 1)))
        with pytest.raises(ValueError, match="requires a core graph"):
            rf.factor_through_almost_rose(g)

    def test_not_onto_the_free_group_rejected(self):
        # core, Betti 2 and already folded, but it reads only <aa, b>
        g = rf.wedge_of_words((word("aa"), word("b")), 2).graph
        with pytest.raises(ValueError, match="does not map onto the whole free group"):
            rf.factor_through_almost_rose(g)

    def test_betti_dropping_fold_rejected_as_not_onto(self):
        # a fold that drops the Betti number leaves less than the rose's n,
        # so the final graph is no rose and the graph is not onto
        g = rf.wedge_of_words((word("ab"), word("ab")), 2).graph
        assert any(step.betti_dropped for step in rf.fold_to_completion(g).steps)
        with pytest.raises(ValueError, match="does not map onto the whole free group"):
            rf.factor_through_almost_rose(g)

    @given(hyp_st.integers(0, 10**6))
    @settings(max_examples=30)
    def test_wedges_of_bases_stay_core_throughout(self, seed):
        # wedge constructions satisfy the stronger property that every
        # vertex is the terminus of two distinct-labeled edges, so every
        # fold snapshot is a core graph and the penultimate one is
        # recognized
        import random

        from rosefold.oracles import random_basis

        basis = random_basis(random.Random(seed), 2)
        g = rf.wedge_of_words(basis.images, 2).graph
        rose, seq = rf.factor_through_almost_rose(g)
        for snap in seq.snapshots:
            assert rf.core(snap) == snap
        assert rf.recognize_almost_rose(seq.snapshots[-2]) is not None

    def test_core_with_one_sided_vertex_can_fail(self):
        # Core, Betti 2, surjective, but vertex 0 is the terminus only of
        # inverse-a edges; the deterministic fold order loses core-ness and
        # the factorization honestly reports it.
        g = LabeledGraph(
            2,
            frozenset({0, 1, 2}),
            (Edge(1, 0, 1, 1), Edge(2, 0, 2, 1), Edge(3, 1, 2, 1), Edge(4, 1, 2, 2)),
        )
        assert rf.core(g) == g and rf.betti(g) == 2 and is_pi1_surjective(g)
        with pytest.raises(FoldFactorError):
            rf.factor_through_almost_rose(g)
        assert issubclass(FoldFactorError, ValueError)  # a rejected input, not an internal error


class TestDecideTame:
    @pytest.mark.parametrize(
        "texts,tame",
        [
            (("ab",), True),
            (("abAB",), False),
            (("aab",), True),
            (("aabb",), False),
            (("a", "b"), True),
            (("a", "aa"), True),
        ],
    )
    def test_examples(self, texts, tame):
        classes = [rf.conjugacy_class(word(t)) for t in texts]
        cert = rf.decide_tame(classes)
        assert cert.tame is tame
        assert rf.verify_certificate(classes, cert)

    def test_aab_certificate_shape(self):
        cert = rf.decide_tame([cyc("aab")])
        assert cert.tame
        assert (cert.rose.k, cert.rose.l) == (1, 2)
        assert cert.rose.targets == (1, -2)

    def test_tame_implies_readable(self):
        classes = [cyc("ab"), cyc("aab")]
        cert = rf.decide_tame(classes)
        assert cert.tame
        for c in classes:
            assert reads(cert.rose.graph, c)

    def test_empty_set_needs_rank(self):
        with pytest.raises(ValueError):
            rf.decide_tame([])
        cert = rf.decide_tame([], rank=2)
        assert cert.tame and rf.verify_certificate([], cert, rank=2)

    def test_one_rotation_per_class_per_pass(self, rotation_calls):
        classes = [cyc("aba")]
        cert = rf.decide_tame(classes)
        assert cert.tame and len(rotation_calls) == 1
        assert rf.verify_certificate(classes, cert)
        assert len(rotation_calls) == 2

    @pytest.mark.parametrize(
        "build",
        [rf.decide_tame, rf.disjoint_circuits, rf.whitehead_of_classes],
        ids=["decide_tame", "disjoint_circuits", "whitehead_of_classes"],
    )
    def test_class_set_rank_errors(self, build):
        with pytest.raises(ValueError) as info:
            build([])
        assert not isinstance(info.value, RankError)
        with pytest.raises(RankError):
            build([cyc("ab"), cyc("ab", 3)])
        with pytest.raises(RankError):
            build([cyc("ab")], 3)

    def test_verify_rejects_mixed_ranks(self):
        cert = rf.decide_tame([cyc("ab")])
        assert not rf.verify_certificate([cyc("ab"), cyc("ab", 3)], cert)
        assert not rf.verify_certificate([cyc("ab")], cert, rank=3)

    def test_verdict_matches_whitehead_criterion(self):
        # Oracle: the criterion itself, computed straight from the Whitehead
        # graph; decide_tame reads it off build_rose_from_whitehead instead.
        rng = random.Random(2018)
        verdicts = set()
        for n in (2, 3, 4):
            for _ in range(300):
                classes = [random_class(rng, n, 8) for _ in range(rng.randint(1, 4))]
                w = rf.whitehead_of_classes(classes, n)
                expected = len(rf.components(w)) > 1 or bool(rf.cut_vertices(w))
                assert rf.decide_tame(classes, n).tame is expected
                verdicts.add(expected)
        assert verdicts == {True, False}

    @given(class_set_st(rank=2))
    @settings(max_examples=80)
    def test_round_trip(self, classes):
        cert = rf.decide_tame(classes, 2)
        assert rf.verify_certificate(classes, cert, 2)

    @given(class_set_st(rank=3), relabeling_st(3))
    @settings(max_examples=60)
    def test_relabeling_equivariance(self, classes, s):
        before = rf.decide_tame(classes, 3).tame
        images = [rf.CyclicWord(tuple(map(s.apply_letter, c.letters)), 3) for c in classes]
        assert rf.decide_tame([rf.canonical_rotation(c) for c in images], 3).tame == before


def recognize_by_folding(g):
    """The recognizer that ``recognize_almost_rose`` replaced: the carrier
    vertex u is the one incident to the unique foldable pair, which must be
    a loop and a non-loop; the rose built from the parts read off ``g`` is
    compared with ``g`` by its sorted edge triples under the two vertex
    bijections."""
    n = g.rank
    if len(g.vertices) != 2 or len(g.edges) != n + 1:
        return None
    if not rf.is_connected(g):
        return None
    if any(g.valence(v) < 2 for v in g.vertices):
        return None
    pairs = rf.foldable_pairs(g)
    if len(pairs) != 1:
        return None
    d1, d2 = pairs[0]
    is_loop = [g.dir_origin(d) == g.dir_terminus(d) for d in (d1, d2)]
    if sum(is_loop) != 1:
        return None
    u = g.dir_origin(d1)
    y = g.dir_label(d1)
    v = next(x for x in g.vertices if x != u)
    loops_u, loops_v, connectors = [], [], []
    special = {abs(d1), abs(d2)}
    for e in g.edges:
        if e.eid in special:
            continue
        if e.origin == e.terminus == u:
            loops_u.append(e.label)
        elif e.origin == e.terminus == v:
            loops_v.append(e.label)
        else:
            connectors.append(e.label if e.origin == u else -e.label)
    unsigned = [abs(y)] + loops_u + [abs(z) for z in connectors] + loops_v
    if sorted(unsigned) != list(range(1, n + 1)):
        return None
    side_one = {-y} | {s * x for x in loops_u for s in (1, -1)} | {-z for z in connectors}
    rose = rf.AlmostRose(n, y, side_one)
    target = sorted((e.origin, e.terminus, e.label) for e in rose.graph.edges)
    for image in ({u: 0, v: 1}, {u: 1, v: 0}):
        if sorted((image[e.origin], image[e.terminus], e.label) for e in g.edges) == target:
            return rose
    return None


def graph_form_verify_certificate(classes, cert, rank=None):
    """``verify_certificate`` as written against the circuit graph: build
    ``disjoint_circuits``, check the morphism with ``verify_morphism``, then
    check by brute force that the rose reads each class.  The rose graph is
    recognized by folding, so this shares no code with ``_rose_parts``."""
    try:
        norm = normalize_classes(classes)
        rank = class_rank(norm, cert.rank if rank is None else rank)
    except ValueError:
        return False
    if cert.rank != rank or cert.classes != norm:
        return False
    if not cert.tame:
        return rf.verify_certificate(classes, cert, rank)
    if cert.rose is None or cert.morphism is None:
        return False
    if cert.rose.graph.rank != rank or recognize_by_folding(cert.rose.graph) is None:
        return False
    gamma = rf.disjoint_circuits(norm, rank)
    if not rf.verify_morphism(cert.morphism, gamma, cert.rose.graph):
        return False
    return all(reads(cert.rose.graph, c) for c in norm)


@functools.cache
def tame_certificates():
    return [(classes, n, rf.decide_tame(classes, n)) for classes, n in tame_class_sets(11, 60)]


@functools.cache
def all_roses(n):
    return rf.enumerate_almost_roses(n)


def with_maps(cert, vmap, emap):
    return dataclasses.replace(cert, morphism=rf.GraphMorphism(vmap, emap))


@hyp_st.composite
def mutated_tame_certificate(draw):
    """A tame certificate with one part changed: a vmap or emap value, a
    dropped or an extra key, or the rose."""
    classes, n, cert = draw(hyp_st.sampled_from(tame_certificates()))
    vmap, emap = dict(cert.morphism.vertex_map), dict(cert.morphism.edge_map)
    kind = draw(hyp_st.sampled_from(
        ["flip", "emap", "drop", "extra", "rose", "vmap-range", "emap-range"]
    ))
    if kind == "flip" and vmap:
        p = draw(hyp_st.sampled_from(sorted(vmap)))
        vmap[p] = 1 - vmap[p]
    elif kind == "emap" and emap:
        eid = draw(hyp_st.sampled_from(sorted(emap)))
        emap[eid] = draw(hyp_st.sampled_from([j for j in range(1, n + 2) if j != emap[eid]]))
    elif kind == "drop":
        target = draw(hyp_st.sampled_from([vmap, emap]))
        if target:
            del target[draw(hyp_st.sampled_from(sorted(target)))]
    elif kind == "extra":
        target = draw(hyp_st.sampled_from([vmap, emap]))
        target[draw(hyp_st.integers(-2, len(target) + 2))] = draw(hyp_st.integers(0, 1))
    elif kind == "rose":
        rank = draw(hyp_st.sampled_from([r for r in (n - 1, n, n + 1) if r >= 2]))
        rose = draw(hyp_st.sampled_from(all_roses(rank)))
        return classes, n, dataclasses.replace(cert, rose=rose)
    elif kind == "vmap-range" and vmap:
        vmap[draw(hyp_st.sampled_from(sorted(vmap)))] = draw(hyp_st.sampled_from([-1, 2, 5]))
    elif kind == "emap-range" and emap:
        emap[draw(hyp_st.sampled_from(sorted(emap)))] = draw(hyp_st.sampled_from([-1, 0, n + 2]))
    return classes, n, with_maps(cert, vmap, emap)


class TestVerifyAgainstGraphForm:
    """The tame branch of ``verify_certificate`` checks the morphism over
    the circuit edge list; the graph-form verifier is its oracle."""

    def test_accepts_every_decided_certificate(self):
        for classes, n, cert in tame_certificates():
            assert rf.verify_certificate(classes, cert, n)
            assert graph_form_verify_certificate(classes, cert, n)

    @settings(max_examples=300, deadline=None)
    @given(mutated_tame_certificate())
    def test_agrees_on_mutations(self, drawn):
        classes, n, cert = drawn
        assert rf.verify_certificate(classes, cert, n) == graph_form_verify_certificate(
            classes, cert, n
        )

    def test_wrap_around_edge_is_checked(self):
        # the last letter of each class returns to its first vertex
        for classes, n, cert in tame_certificates():
            end = 0
            for c in cert.classes:
                end += len(c)
                emap = dict(cert.morphism.edge_map)
                emap[end] = 1 if emap[end] != 1 else 2
                bad = with_maps(cert, dict(cert.morphism.vertex_map), emap)
                assert not rf.verify_certificate(classes, bad, n)
                assert not graph_form_verify_certificate(classes, bad, n)

    def test_extra_keys_rejected(self):
        for classes, n, cert in tame_certificates():
            vmap, emap = cert.morphism.vertex_map, cert.morphism.edge_map
            extra_vertex = with_maps(cert, vmap | {len(vmap): 0}, dict(emap))
            extra_edge = with_maps(cert, dict(vmap), emap | {len(emap) + 1: 1})
            for bad in (extra_vertex, extra_edge):
                assert not rf.verify_certificate(classes, bad, n)
                assert not graph_form_verify_certificate(classes, bad, n)

    def test_decide_and_verify_build_no_circuit_graph(self, graphs_built):
        rng = random.Random(12)
        c = cyc("".join(rng.choice("ab") for _ in range(10**4)), 3)
        cert = rf.decide_tame([c], 3)
        assert cert.tame and rf.verify_certificate([c], cert, 3)
        assert len(cert.morphism.edge_map) == len(c) == 10**4
        assert graphs_built and max(len(g.edges) for g in graphs_built) <= 3 + 1


class TestVerifyCertificate:
    def test_tampered_morphism_rejected(self):
        classes = [cyc("aab")]
        cert = rf.decide_tame(classes)
        emap = dict(cert.morphism.edge_map)
        emap[1] = 2  # remap the loop image onto the connecting edge
        bad = dataclasses.replace(
            cert, morphism=rf.GraphMorphism(dict(cert.morphism.vertex_map), emap)
        )
        assert not rf.verify_certificate(classes, bad)

    def test_tampered_witness_tree_rejected(self):
        classes = [cyc("abAB")]
        cert = rf.decide_tame(classes)
        letter, tree = cert.non_cut_witness[0]
        bad_tree = tree[:-1] + ((letter, tree[0][1]),)  # touches the removed letter
        bad = dataclasses.replace(
            cert,
            non_cut_witness=((letter, bad_tree),) + cert.non_cut_witness[1:],
        )
        assert not rf.verify_certificate(classes, bad)

    def test_rose_graph_of_another_rose_rejected(self):
        # the graph and the morphism are another rose's that reads ab, so
        # the certificate's rose lines and its rose graph disagree
        classes = normalize_classes([cyc("ab")])
        cert = rf.decide_tame(classes)
        other = next(
            r for r in all_roses(2) if r != cert.rose and rf.tameness._tame_certificate(classes, r)
        )
        rose = dataclasses.replace(cert.rose)  # a copy, given the other rose's graph
        object.__setattr__(rose, "graph", other.graph)
        morphism = rf.tameness._tame_certificate(classes, other).morphism
        assert rf.verify_certificate(classes, dataclasses.replace(cert, rose=other, morphism=morphism))
        assert not rf.verify_certificate(classes, dataclasses.replace(cert, rose=rose, morphism=morphism))

    @pytest.mark.parametrize("missing", ["rose", "morphism"])
    def test_tame_certificate_missing_a_part_rejected(self, missing):
        classes = [cyc("aab")]
        cert = rf.decide_tame(classes)
        assert not rf.verify_certificate(classes, dataclasses.replace(cert, **{missing: None}))

    def test_witness_letters_out_of_order_rejected(self):
        # every tree still spans its punctured graph; only the order is wrong
        classes = [cyc("abAB")]
        cert = rf.decide_tame(classes)
        bad = dataclasses.replace(cert, non_cut_witness=cert.non_cut_witness[::-1])
        assert not rf.verify_certificate(classes, bad)

    def test_wrong_words_rejected(self):
        cert = rf.decide_tame([cyc("aab")])
        assert not rf.verify_certificate([cyc("ab")], cert)

    def test_fabricated_whitehead_edges_rejected(self):
        classes = [cyc("abAB")]
        cert = rf.decide_tame(classes)
        bad = dataclasses.replace(cert, whitehead_edges=cert.whitehead_edges[:-1])
        assert not rf.verify_certificate(classes, bad)

    def test_huge_declared_rank_rejected_before_the_letter_index(self, monkeypatch):
        # 2n - 1 tree edges and 2n witnesses are counted before the 2n
        # letters are listed; listing them at rank 10^12 ran out of memory
        n = 10**12
        classes = normalize_classes([rf.CyclicWord((1, 2, -1, -2), n)])
        edges = tuple(rf.whitehead_of_classes(classes, n).sorted_edges())
        cert = rf.TamenessCertificate(
            False, n, classes, whitehead_edges=edges, spanning_tree=(), non_cut_witness=()
        )

        def no_letters(self):
            raise AssertionError("the 2n-letter index was built")

        monkeypatch.setattr(WhiteheadGraph, "letters", no_letters)
        assert not rf.verify_certificate(classes, cert)


class TestCertificateText:
    def test_tame_golden(self):
        cert = rf.decide_tame([cyc("aab")])
        assert rf.certificate_to_text(cert) == (
            "tameness-certificate\n"
            "rank: 2\n"
            "words: aab\n"
            "verdict: tame\n"
            "rose: k=1 l=2\n"
            "relabel 1 -> 1\n"
            "relabel 2 -> -2\n"
            "rose-graph:\n"
            "rank 2\n"
            "vertex 0\n"
            "vertex 1\n"
            "edge 1 0 0 a\n"
            "edge 2 0 1 a\n"
            "edge 3 1 0 b\n"
            "end-graph\n"
            "vmap 0 -> 0\n"
            "vmap 1 -> 0\n"
            "vmap 2 -> 1\n"
            "emap 1 -> 1\n"
            "emap 2 -> 2\n"
            "emap 3 -> 3\n"
        )

    def test_refutation_golden(self):
        cert = rf.decide_tame([cyc("abAB")])
        assert rf.certificate_to_text(cert) == (
            "tameness-certificate\n"
            "rank: 2\n"
            "words: abAB\n"
            "verdict: not-tame\n"
            "wh-edge a-b\n"
            "wh-edge a-B\n"
            "wh-edge A-b\n"
            "wh-edge A-B\n"
            "spanning-tree a-b a-B A-b\n"
            "witness-tree a: A-b A-B\n"
            "witness-tree A: a-b a-B\n"
            "witness-tree b: a-B A-B\n"
            "witness-tree B: a-b A-b\n"
        )

    def test_serialization_is_stable(self):
        classes = [cyc("aab"), cyc("ab")]
        a = rf.certificate_to_text(rf.decide_tame(classes))
        b = rf.certificate_to_text(rf.decide_tame(list(reversed(classes))))
        assert a == b


# -- the pipeline against the code it replaced -------------------------------


def adjacency_oracle(w):
    """A fresh adjacency of ``w``, built without ``WhiteheadGraph.adjacency``."""
    adj = {v: set() for i in range(1, w.rank + 1) for v in (i, -i)}
    for u, v in map(tuple, w.edges):
        adj[u].add(v)
        adj[v].add(u)
    return adj


def build_rose_oracle(w):
    """``build_rose_from_whitehead`` as the loop it was: try the cut vertices
    in letter order, then every other letter, each on a fresh punctured
    adjacency, until one leaves letters outside its inverse's component."""
    n = w.rank
    adj = adjacency_oracle(w)
    letters = sorted(adj, key=letter_key)
    cuts = sorted(rf.cut_vertices(w), key=letter_key)
    for c in cuts + [v for v in letters if v not in cuts]:
        sub_adj = {v: adj[v] - {c} for v in letters if v != c}
        (side1,) = adjacency_components(sub_adj, [-c])
        if not {v for v in letters if v != c} - side1:
            continue
        return rf.AlmostRose(n, c, side1)
    return None


def bfs_tree_oracle(adj, vertices):
    """The per-tree breadth-first tree that ``_bfs_tree`` replaced: it sorts
    each neighbour set as it visits it and pops its queue from the front."""
    root = vertices[0]
    seen = {root}
    queue = [root]
    edges = []
    while queue:
        u = queue.pop(0)
        for x in sorted(adj[u], key=letter_key):
            if x not in seen:
                seen.add(x)
                queue.append(x)
                edges.append(tuple(sorted((u, x), key=letter_key)))
    return tuple(sorted(edges, key=lambda p: (letter_key(p[0]), letter_key(p[1]))))


def decide_oracle(classes, rank=None):
    """``decide_tame`` from the oracles: the letter loop picks the rose, the
    relabeled copy maps the circuits, and each witness tree grows on its
    own punctured copy of the adjacency."""
    norm = normalize_classes(classes)
    rank = class_rank(norm, rank)
    w = rf.whitehead_of_classes(norm, rank)
    rose = build_rose_oracle(w)
    if rose is not None:
        vmap, emap = induced_map_oracle(rf.disjoint_circuits(norm, rank), rose)
        return rf.TamenessCertificate(
            tame=True, rank=rank, classes=norm, rose=rose, morphism=rf.GraphMorphism(vmap, emap)
        )
    adj = adjacency_oracle(w)
    letters = sorted(adj, key=letter_key)
    witness = []
    for v in letters:
        rest = [x for x in letters if x != v]
        witness.append((v, bfs_tree_oracle({x: adj[x] - {v} for x in rest}, rest)))
    return rf.TamenessCertificate(
        tame=False,
        rank=rank,
        classes=norm,
        whitehead_edges=tuple(w.sorted_edges()),
        spanning_tree=bfs_tree_oracle(adj, letters),
        non_cut_witness=tuple(witness),
    )


def random_class_sets(seed, count, ranks=(2, 8)):
    """Seeded sets of one to four random classes at the given ranks."""
    rng = random.Random(seed)
    sets = []
    for _ in range(count):
        n = rng.randint(*ranks)
        length = rng.choice((3, 6, 12, 4 * n))
        sets.append(([random_class(rng, n, length) for _ in range(rng.randint(1, 4))], n))
    return sets


def high_rank_class(n):
    """The seeded not-tame class of rank ``n`` and about 20n letters used to
    time decide against verify: ``random_class(Random(2), n, 20 * n)``."""
    return random_class(random.Random(2), n, 20 * n)


class TestDecideAgainstOracle:
    def test_certificate_bytes_on_random_sets(self):
        verdicts = set()
        for classes, n in random_class_sets(12, 1000):
            cert = rf.decide_tame(classes, n)
            assert rf.certificate_to_text(cert) == rf.certificate_to_text(decide_oracle(classes, n))
            verdicts.add((cert.tame, n))
        assert {tame for tame, _ in verdicts} == {True, False}
        assert {n for tame, n in verdicts if not tame} == set(range(2, 9))

    @pytest.mark.parametrize("n", [50, 100, 200])
    def test_high_rank_certificates(self, n):
        # Letters past rank 26 have no character form, so the certificates
        # themselves are compared; the text is a function of them.
        c = high_rank_class(n)
        drop_last = rf.conjugacy_class(rf.Word(tuple(x for x in c.letters if abs(x) != n), n))
        for classes in ([c], [drop_last], [drop_last, rf.CyclicWord((n, 1), n)]):
            cert = rf.decide_tame(classes, n)
            assert cert == decide_oracle(classes, n)
            assert rf.verify_certificate(classes, cert, n)
        assert not rf.decide_tame([c], n).tame
        assert rf.cut_vertices(rf.whitehead_of_classes([drop_last, rf.CyclicWord((n, 1), n)], n))

    def test_disconnected_without_cut_vertex(self):
        # A Whitehead graph of classes never isolates a without A, but a
        # graph's can: with two components the wedge letter is then A.
        triangle = [(-1, 2), (2, -2), (-2, -1)]
        graphs = [
            WhiteheadGraph(2, frozenset(map(frozenset, triangle))),
            WhiteheadGraph(3, frozenset(map(frozenset, triangle + [(3, -3)]))),
            rf.whitehead_of_classes([cyc("bcBC", 3)], 3),
            rf.whitehead_of_classes([cyc("abAB", 3), cyc("c", 3)], 3),
        ]
        for w in graphs:
            assert len(rf.components(w)) > 1 and not rf.cut_vertices(w)
            assert rf.build_rose_from_whitehead(w) == build_rose_oracle(w)
        assert [rf.build_rose_from_whitehead(w).wedge for w in graphs] == [-1, 1, 1, 1]
        for texts in (["bcBC"], ["abAB", "c"]):
            classes = [cyc(t, 3) for t in texts]
            assert rf.certificate_to_text(rf.decide_tame(classes, 3)) == rf.certificate_to_text(
                decide_oracle(classes, 3)
            )


def placed_graph(n, placements, names=(0, 1)):
    """A two-vertex graph with one edge per ``(kind, label)``: kind 0 a loop
    at the first vertex, 1 a loop at the second, 2 an edge from the first
    to the second, 3 one back."""
    ends = [(0, 0), (1, 1), (0, 1), (1, 0)]
    edges = tuple(
        Edge(i, names[ends[kind][0]], names[ends[kind][1]], label)
        for i, (kind, label) in enumerate(placements, start=1)
    )
    return LabeledGraph(n, frozenset(names), edges)


def is_almost_rose_oracle(g):
    return any(recursive_is_label_isomorphic(g, r.graph) for r in all_roses(g.rank))


class TestClosedFormRecognition:
    """``recognize_almost_rose`` compares edge triples under the two vertex
    bijections; label isomorphism to an enumerated rose is its oracle."""

    def test_every_rank_two_placement(self):
        placements = list(itertools.product(range(4), range(1, 3)))
        recognized = set()
        for count in (2, 3, 4):
            for combo in itertools.combinations_with_replacement(placements, count):
                for names in ((0, 1), (1, 0), (7, 3)):
                    g = placed_graph(2, combo, names)
                    found = rf.recognize_almost_rose(g)
                    assert (found is not None) == is_almost_rose_oracle(g)
                    if found is not None:
                        assert recursive_is_label_isomorphic(found.graph, g)
                        recognized.add(found)
        assert len(recognized) == len(all_roses(2))

    def test_random_rank_three_placements(self):
        rng = random.Random(3)
        placements = list(itertools.product(range(4), range(1, 4)))
        seen = set()
        for _ in range(400):
            g = placed_graph(3, [rng.choice(placements) for _ in range(4)], rng.choice(((0, 1), (1, 0))))
            found = rf.recognize_almost_rose(g)
            assert (found is not None) == is_almost_rose_oracle(g)
            seen.add(found is not None)
        assert seen == {True, False}

    @pytest.mark.parametrize("n", [2, 3])
    def test_edited_roses(self, n):
        for rose in all_roses(n):
            edges = rose.graph.edges
            swapped = LabeledGraph(
                n, frozenset({0, 1}), tuple(Edge(e.eid, 1 - e.origin, 1 - e.terminus, e.label) for e in edges)
            )
            # the second edge pair relabeled with the wedge letter: one letter thrice, one missing
            repeated = LabeledGraph(
                n, frozenset({0, 1}), edges[:2] + (edges[2]._replace(label=edges[0].label),) + edges[3:]
            )
            # the wedge loop made parallel to the wedge connector: a foldable pair at each end
            doubled = LabeledGraph(n, frozenset({0, 1}), (edges[1]._replace(eid=1),) + edges[1:])
            assert len(rf.foldable_pairs(doubled)) == 2
            for g in (swapped, repeated, doubled):
                assert (rf.recognize_almost_rose(g) is not None) == is_almost_rose_oracle(g)
            assert rf.recognize_almost_rose(swapped) is not None
            assert rf.recognize_almost_rose(repeated) is None
            assert rf.recognize_almost_rose(doubled) is None


def rose_edits(rose):
    """The three edits of ``test_edited_roses``: the vertices swapped (still
    an almost-rose), the second edge pair relabeled with the wedge letter,
    and the wedge loop made parallel to the wedge connector."""
    n, edges = rose.rank, rose.graph.edges
    swapped = LabeledGraph(
        n, frozenset({0, 1}), tuple(Edge(e.eid, 1 - e.origin, 1 - e.terminus, e.label) for e in edges)
    )
    repeated = LabeledGraph(
        n, frozenset({0, 1}), edges[:2] + (edges[2]._replace(label=edges[0].label),) + edges[3:]
    )
    doubled = LabeledGraph(n, frozenset({0, 1}), (edges[1]._replace(eid=1),) + edges[1:])
    return swapped, repeated, doubled


@hyp_st.composite
def two_vertex_graph_st(draw):
    """A two-vertex graph of rank 2-5 with loops and parallel edges at will,
    either vertex naming and shuffled edge ids.  Half the time its labels
    are every letter plus one repeat, as an almost-rose's are."""
    n = draw(hyp_st.integers(2, 5))
    if draw(hyp_st.booleans()):
        labels = draw(hyp_st.permutations(range(1, n + 1))) + [draw(hyp_st.integers(1, n))]
    else:
        labels = draw(hyp_st.lists(hyp_st.integers(1, n), min_size=n, max_size=n + 2))
    names = draw(hyp_st.sampled_from(((0, 1), (1, 0), (7, 3))))
    ids = draw(hyp_st.lists(hyp_st.integers(1, 30), min_size=len(labels), max_size=len(labels), unique=True))
    ends = [draw(hyp_st.sampled_from(names)) for _ in range(2 * len(labels))]
    edges = tuple(Edge(i, ends[2 * j], ends[2 * j + 1], x) for j, (i, x) in enumerate(zip(ids, labels)))
    return LabeledGraph(n, frozenset(names), edges)


class TestOnePassRecognition:
    """``recognize_almost_rose`` reads ``g`` in one pass over its edges; the
    fold-based recognizer it replaced is its oracle."""

    @settings(max_examples=400)
    @given(two_vertex_graph_st())
    def test_agrees_with_folding(self, g):
        assert rf.recognize_almost_rose(g) == recognize_by_folding(g)

    @pytest.mark.parametrize("n", [2, 3])
    def test_agrees_on_edited_roses(self, n):
        for rose in all_roses(n):
            for g in rose_edits(rose):
                assert rf.recognize_almost_rose(g) == recognize_by_folding(g)

    def test_verify_builds_no_graph_and_no_fold_state(self, monkeypatch, graphs_built):
        states = []
        original = folding._FoldState.__init__

        def counting(state, g):
            states.append(g)
            original(state, g)

        monkeypatch.setattr(folding._FoldState, "__init__", counting)
        for classes, n, cert in tame_certificates():
            graphs_built.clear()
            assert rf.verify_certificate(classes, cert, n)
            assert graphs_built == [] and states == []
        for rose in all_roses(3):
            graphs_built.clear()
            found = rf.recognize_almost_rose(rose.graph)
            assert len(graphs_built) == 1 and graphs_built[0] is found.graph
        assert states == []

    def test_tampered_rose_graph_rejected(self):
        for classes, n, cert in tame_certificates():
            _, repeated, doubled = rose_edits(cert.rose)
            wrong_rank = rf.almost_rose(n + 1, cert.rose.k, cert.rose.l).graph
            for graph in (repeated, doubled, wrong_rank):
                rose = dataclasses.replace(cert.rose)  # a copy: the certificates are cached
                object.__setattr__(rose, "graph", graph)
                assert not rf.verify_certificate(classes, dataclasses.replace(cert, rose=rose), n)


def spanning_tree_oracle(tree, vertices, allowed):
    """The tree check that the union-find replaced: build the tree's
    adjacency and count its components."""
    if len(tree) != len(vertices) - 1:
        return False
    adj = {v: set() for v in vertices}
    for u, v in tree:
        if u not in vertices or v not in vertices or frozenset((u, v)) not in allowed:
            return False
        adj[u].add(v)
        adj[v].add(u)
    return len(adjacency_components(adj, vertices)) <= 1


def verify_not_tame_oracle(classes, cert, rank):
    """The not-tame branch of ``verify_certificate`` with the oracle tree check."""
    norm = normalize_classes(classes)
    if cert.rank != rank or cert.classes != norm:
        return False
    w = rf.whitehead_of_classes(norm, rank)
    if tuple(w.sorted_edges()) != cert.whitehead_edges:
        return False
    letters = sorted(adjacency_oracle(w), key=letter_key)
    if not spanning_tree_oracle(cert.spanning_tree, set(letters), w.edges):
        return False
    if [v for v, _ in cert.non_cut_witness] != letters:
        return False
    return all(
        spanning_tree_oracle(tree, set(letters) - {v}, w.edges) for v, tree in cert.non_cut_witness
    )


@functools.cache
def not_tame_certificates():
    found = []
    for classes, n in random_class_sets(13, 400, ranks=(2, 4)):
        cert = rf.decide_tame(classes, n)
        if not cert.tame:
            found.append((classes, n, cert))
    return found


@hyp_st.composite
def mutated_not_tame_certificate(draw):
    """A not-tame certificate with one tree changed: an edge dropped, an
    edge duplicated (added, or in place of another), an edge swapped for
    another Whitehead edge (closing a cycle when one does) or for a pair
    that is no Whitehead edge, or an edge moved onto the punctured letter
    of its own witness tree."""
    classes, n, cert = draw(hyp_st.sampled_from(not_tame_certificates()))
    which = draw(hyp_st.integers(-1, len(cert.non_cut_witness) - 1))
    removed, tree = (None, cert.spanning_tree) if which < 0 else cert.non_cut_witness[which]
    tree = list(tree)
    i = draw(hyp_st.integers(0, len(tree) - 1))
    kind = draw(hyp_st.sampled_from(
        ["drop", "duplicate", "duplicate-in-place", "swap", "non-edge", "punctured"]
    ))
    if kind == "drop":
        del tree[i]
    elif kind == "duplicate":
        tree.insert(i, tree[i])
    elif kind == "duplicate-in-place":
        tree[i] = tree[(i + 1) % len(tree)]
    elif kind == "swap":
        rest = tree[:i] + tree[i + 1 :]
        reach = adjacency_components(
            {v: {b for a, b in rest if a == v} | {a for a, b in rest if b == v} for v in range(-n, n + 1)},
            [tree[i][0]],
        )[0]
        pairs = [p for p in cert.whitehead_edges if p not in tree and removed not in p]
        closing = [p for p in pairs if p[0] in reach and p[1] in reach]
        if pairs:
            tree[i] = draw(hyp_st.sampled_from(closing or pairs))
    elif kind == "non-edge":
        letters = [x for i in range(1, n + 1) for x in (i, -i) if x != removed]
        pairs = [p for p in itertools.combinations(letters, 2) if p not in cert.whitehead_edges]
        if pairs:
            tree[i] = draw(hyp_st.sampled_from(pairs))
    elif removed is not None:
        tree[i] = (removed, tree[i][1]) if draw(hyp_st.booleans()) else (tree[i][0], removed)
    tree = tuple(tree)
    if which < 0:
        return classes, n, dataclasses.replace(cert, spanning_tree=tree)
    witness = list(cert.non_cut_witness)
    witness[which] = (removed, tree)
    return classes, n, dataclasses.replace(cert, non_cut_witness=tuple(witness))


class TestNotTameVerifyAgainstOracle:
    """``verify_certificate`` checks each tree with a union-find; the
    adjacency-and-components check it replaced is its oracle."""

    def test_accepts_every_decided_certificate(self):
        assert len(not_tame_certificates()) > 50
        for classes, n, cert in not_tame_certificates():
            assert rf.verify_certificate(classes, cert, n)
            assert verify_not_tame_oracle(classes, cert, n)

    @settings(max_examples=400, deadline=None)
    @given(mutated_not_tame_certificate())
    def test_agrees_on_mutations(self, drawn):
        classes, n, cert = drawn
        assert rf.verify_certificate(classes, cert, n) == verify_not_tame_oracle(classes, cert, n)

    def test_cycle_with_the_right_edge_count_rejected(self):
        classes = [cyc("abAB")]
        cert = rf.decide_tame(classes)
        # a-b, a-B and A-b plus the fourth edge A-B close the 4-cycle; drop one tree edge
        cyclic = cert.spanning_tree[:2] + ((1, 2),)
        for tree in (cyclic, cert.spanning_tree[:2] + cert.spanning_tree[:1]):
            bad = dataclasses.replace(cert, spanning_tree=tree)
            assert not rf.verify_certificate(classes, bad)
            assert not verify_not_tame_oracle(classes, bad, 2)


class TestSentinelCounts:
    """Counters on the shared index: a not-tame decide indexes its
    Whitehead graph once and tries no letter, and a tame check runs no
    isomorphism search."""

    @pytest.fixture
    def adjacency_builds(self, monkeypatch):
        builds = []
        original = WhiteheadGraph.adjacency.func

        def counting(w):
            builds.append(w)
            return original(w)

        prop = functools.cached_property(counting)
        prop.__set_name__(WhiteheadGraph, "adjacency")
        monkeypatch.setattr(WhiteheadGraph, "adjacency", prop)
        return builds

    @staticmethod
    def count_calls(monkeypatch, name):
        """Every call of the graphs function ``name``, through any rosefold
        module that imported it (the lazy package root reads it from ``graphs``)."""
        import sys

        calls = []
        original = getattr(rf.graphs, name)

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] == "rosefold" and vars(module).get(name) is original:
                monkeypatch.setattr(module, name, counting)
        return calls

    def test_decide_builds_the_adjacency_once(self, adjacency_builds):
        c = high_rank_class(50)
        cert = rf.decide_tame([c], 50)
        assert not cert.tame and len(adjacency_builds) == 1
        assert rf.verify_certificate([c], cert, 50) and len(adjacency_builds) == 2
        adjacency_builds.clear()
        assert rf.decide_tame([cyc("abAB")]).non_cut_witness and len(adjacency_builds) == 1

    def test_no_letter_tried_without_a_cut_vertex(self, monkeypatch):
        calls = self.count_calls(monkeypatch, "adjacency_components")
        for w in (rf.whitehead_of_classes([high_rank_class(50)], 50), rf.whitehead_of_classes([cyc("abAB")], 2)):
            calls.clear()
            assert rf.build_rose_from_whitehead(w) is None
            assert len(calls) <= 1

    def test_tame_verify_runs_no_isomorphism_search(self, monkeypatch):
        calls = self.count_calls(monkeypatch, "is_label_isomorphic")
        for classes, n in tame_class_sets(14, 40):
            cert = rf.decide_tame(classes, n)
            assert rf.verify_certificate(classes, cert, n)
        assert calls == []
        # the counter does see a call
        rf.is_label_isomorphic(rf.rose(2), rf.rose(2))
        assert len(calls) == 1

    def test_side_mask_is_kept_and_matches_the_sides(self):
        for rose in all_roses(3):
            side1, side2 = rose.sides
            assert rose.side_mask is rose.side_mask
            assert rose.side_mask == {x: (x in side1) + 2 * (x in side2) for x in side1 | side2}
            assert sorted(rose.side_mask) == sorted((x for i in (1, 2, 3) for x in (i, -i)))
