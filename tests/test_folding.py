import heapq
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hyp_st

import rosefold as rf
from rosefold.folding import NotFoldableError, _FoldState, fold_report_lines, random_fold_pick
from rosefold.graphs import Edge, LabeledGraph, NotConnectedError, oriented_edge
from rosefold.oracles import random_labeled_graph

from conftest import (
    find_foldable_pair,
    fold_morphism,
    fold_once,
    foldable_pairs_by_scan,
    graph_st,
    is_pi1_surjective,
    letter_st,
    nontrivial_word_st,
    reads,
)


def gen_words_st():
    return (
        hyp_st.lists(nontrivial_word_st(rank=2, max_len=6), min_size=1, max_size=3)
        .map(lambda ws: tuple(rf.free_reduce(w) for w in ws))
    )


def cyc(text, rank=2):
    return rf.CyclicWord(rf.parse_letters(text), rank)


def word(text, rank=2):
    return rf.parse_word(text, rank)


def wedge(texts, rank=2):
    return rf.wedge_of_words(tuple(word(t, rank) for t in texts), rank).graph


def reference_fold(g, pick=None):
    """The graph-at-a-time loop that ``fold_to_completion`` replaced:
    ``find_foldable_pair`` (or ``pick`` over ``foldable_pairs_by_scan``), then
    ``fold_once``.  Returns the steps and every graph of the chain, the
    start first."""
    steps, graphs = [], [g]
    while True:
        if pick is None:
            pair = find_foldable_pair(graphs[-1])
        else:
            pairs = foldable_pairs_by_scan(graphs[-1])
            pair = pick(pairs) if pairs else None
        if pair is None:
            return tuple(steps), tuple(graphs)
        folded, step = fold_once(graphs[-1], pair)
        graphs.append(folded)
        steps.append(step)


@hyp_st.composite
def fold_graph_st(draw, rank=3, max_vertices=7, max_edge_pairs=14):
    """Graphs with loops, parallel edges, isolated vertices and several
    components; a repeated edge makes a later fold drop the Betti number."""
    n = draw(hyp_st.integers(1, max_vertices))
    vertex = hyp_st.integers(0, n - 1)
    ends = draw(
        hyp_st.lists(
            hyp_st.tuples(vertex, vertex, letter_st(rank), hyp_st.booleans()),
            max_size=max_edge_pairs,
        )
    )
    edges = []
    for o, t, letter, twin in ends:
        for _ in range(1 + twin):
            edges.append(oriented_edge(len(edges) + 1, o, t, letter))
    return LabeledGraph(rank, frozenset(range(n)), tuple(edges))


def transvection_basis(rank, letters, seed):
    """A positive basis grown by transvections x_i -> x_i x_j or x_j x_i
    until it has at least ``letters`` letters, as lists of letters."""
    rng = random.Random(seed)
    basis = [[i] for i in range(1, rank + 1)]
    while sum(map(len, basis)) < letters:
        i, j = rng.sample(range(rank), 2)
        basis[i] = basis[i] + basis[j] if rng.random() < 0.5 else basis[j] + basis[i]
    return basis


def transvection_wedge(rank, letters, seed):
    """The wedge of ``transvection_basis(rank, letters, seed)``."""
    basis = transvection_basis(rank, letters, seed)
    return rf.wedge_of_words(tuple(rf.Word(tuple(w), rank) for w in basis), rank).graph


class TestAgainstGraphAtATimeFolds:
    @given(fold_graph_st(), hyp_st.integers(0, 10**6))
    @settings(max_examples=150)
    def test_same_steps_and_graphs(self, g, seed):
        # every snapshot, and the kept penultimate and final graphs, with
        # the default pick and with a random one
        for make_pick in (lambda: None, lambda: random_fold_pick(random.Random(seed))):
            seq = rf.fold_to_completion(g, make_pick())
            steps, graphs = reference_fold(g, make_pick())
            assert seq.steps == steps
            assert seq.snapshots == graphs
            assert seq.final == graphs[-1]
            assert seq.penultimate == (graphs[-2] if steps else None)

    def test_mixed_shapes(self):
        # a loop, parallel edges, a Betti drop, an isolated vertex and two components
        g = LabeledGraph(
            2,
            frozenset(range(6)),
            (
                Edge(1, 0, 0, 1),
                Edge(2, 0, 1, 1),
                Edge(3, 0, 1, 1),
                Edge(4, 1, 2, 2),
                Edge(5, 0, 2, 2),
                Edge(6, 3, 4, 2),
                Edge(7, 4, 3, 2),
            ),
        )
        seq = rf.fold_to_completion(g)
        steps, graphs = reference_fold(g)
        assert (seq.steps, seq.snapshots) == (steps, graphs)
        assert (seq.penultimate, seq.final) == graphs[-2:]
        assert any(s.betti_dropped for s in seq.steps)
        assert 5 in seq.final.vertices

    def test_pick_must_return_a_listed_pair(self):
        with pytest.raises(NotFoldableError):
            rf.fold_to_completion(wedge(("ab", "b")), lambda pairs: (1, 2))


def heap_tops_live(state):
    """Whether no heap of the fold state has a folded-away edge on top."""
    return all(h[0] >> 1 not in state.dead for by_label in state.out.values() for h in by_label.values() if h)


class TopsCheckedOnFold(set):
    """A fold state's dead set that checks every heap top when an edge id
    joins it: in ``_FoldState.steps`` that is right after a pick, before
    the fold merges anything."""

    def __init__(self, state):
        super().__init__()
        self.state = state
        self.checks = 0

    def add(self, eid):
        assert heap_tops_live(self.state)
        self.checks += 1
        super().add(eid)


def assert_heap_tops_stay_live(g, pick=None):
    # A pick reads each heap's second key without a look at its top, and a
    # fold takes keys out at once: checked after every pick, when its fold
    # marks an edge dead, after every fold, when the loop yields its step,
    # and after the last pick, which finds no pair
    state = _FoldState(g)
    state.dead = TopsCheckedOnFold(state)
    folds = 0
    for _ in state.steps(pick):
        folds += 1
        assert heap_tops_live(state)
    assert heap_tops_live(state)
    assert state.dead.checks == folds == len(state.dead)


def picks_by_branch(g):
    """The steps of the default loop on ``g``, and how many of its picks
    read only live second keys and how many popped a dead one first.

    ``heapq.heappop`` is wrapped while the loop runs.  A fold pops the
    dropped edge's key at its terminus after marking it dead, so a dead
    key popped between two steps belongs to a pick unless it is a key of
    the edge the second step drops."""
    state = _FoldState(g)
    real_pop = heapq.heappop
    dead_popped = []

    def pop(h):
        k = real_pop(h)
        if h is not state.todo and k >> 1 in state.dead:
            dead_popped.append(k >> 1)
        return k

    steps, live, dead = [], 0, 0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(heapq, "heappop", pop)
        for step in state.steps():
            if any(e != step.identified_edges[1] for e in dead_popped):
                dead += 1
            else:
                live += 1
            dead_popped.clear()
            steps.append(step)
    return tuple(steps), live, dead


class TestFoldState:
    @given(fold_graph_st(), hyp_st.integers(0, 10**6))
    @settings(max_examples=150)
    def test_no_heap_top_is_dead(self, g, seed):
        assert_heap_tops_stay_live(g)
        assert_heap_tops_stay_live(g, random_fold_pick(random.Random(seed)))

    def test_no_heap_top_is_dead_in_a_large_wedge(self):
        # a positive rank-3 basis of 600+ letters plus the product of its
        # first two words, so some folds drop the Betti number
        rng = random.Random(6)
        basis = ["a", "b", "c"]
        while sum(map(len, basis)) < 600:
            i, j = rng.sample(range(3), 2)
            basis[i] = basis[i] + basis[j] if rng.random() < 0.5 else basis[j] + basis[i]
        g = wedge(basis + [basis[0] + basis[1]], 3)
        assert any(step.betti_dropped for step in rf.fold_to_completion(g).steps)
        assert_heap_tops_stay_live(g)

    def test_one_loop_agrees_with_the_reference_at_scale(self):
        # seeded positive bases of 100-220 letters, as in the fold-large
        # benchmark, and one with the product of its first two words
        # wedged in; the reference folds a whole graph per step
        wedges = [
            (transvection_wedge(rank, letters, seed), False)
            for rank, letters, seed in [(3, 100, 0), (4, 130, 1), (3, 160, 2), (4, 190, 0), (3, 220, 1)]
        ]
        basis = transvection_basis(3, 150, seed=2)
        words = tuple(rf.Word(tuple(w), 3) for w in basis + [basis[0] + basis[1]])
        wedges.append((rf.wedge_of_words(words, 3).graph, True))
        live = dead = 0
        for g, drops in wedges:
            steps, n_live, n_dead = picks_by_branch(g)
            assert steps == reference_fold(g)[0]
            assert any(s.betti_dropped for s in steps) == drops
            assert n_live + n_dead == len(steps) > 90
            live, dead = live + n_live, dead + n_dead
        # both ways of reading a heap's second key ran
        assert live > 0 and dead > 0


class TestFoldScale:
    def test_builds_at_most_two_graphs(self, graphs_built):
        g = transvection_wedge(3, 300, seed=6)
        graphs_built.clear()
        seq = rf.fold_to_completion(g)
        assert len(seq.steps) > 100
        assert len(graphs_built) <= 2

    def test_ten_thousand_letter_basis_folds_to_the_rose(self):
        n = 3
        g = transvection_wedge(n, 10_000, seed=6)
        seq = rf.fold_to_completion(g)
        assert len(seq.steps) == len(g.edges) - n
        assert not any(s.betti_dropped for s in seq.steps)
        assert rf.is_rose(seq.final)
        assert rf.recognize_almost_rose(seq.penultimate) is not None


class TestFindFoldablePair:
    def test_rose_has_none(self):
        assert find_foldable_pair(rf.rose(2)) is None

    def test_wedge_pair_is_the_b_inverses(self):
        g = wedge(("ab", "b"))
        pair = find_foldable_pair(g)
        assert pair == (-2, -3)
        assert g.dir_label(-2) == g.dir_label(-3) == -2

    def test_parallel_edges(self):
        g = LabeledGraph(2, frozenset({0, 1}), (Edge(1, 0, 1, 1), Edge(2, 0, 1, 1)))
        assert find_foldable_pair(g) == (1, 2)

    def test_foldable_pairs_match_the_scan(self):
        rng = random.Random(15)
        for _ in range(2000):
            g = random_labeled_graph(rng, rng.randint(2, 3), rng.randint(1, 6), rng.randint(0, 12))
            assert rf.foldable_pairs(g) == foldable_pairs_by_scan(g)


class TestFoldOnce:
    def test_wedge_folds_to_rose(self):
        g = wedge(("ab", "b"))
        folded, step = fold_once(g, find_foldable_pair(g))
        assert rf.is_rose(folded)
        assert not step.betti_dropped
        assert step.identified_vertices == (0, 1)
        assert step.identified_edges == (2, 3)

    def test_parallel_edges_drop_betti(self):
        g = LabeledGraph(
            2,
            frozenset({0, 1}),
            (Edge(1, 0, 1, 1), Edge(2, 0, 1, 1), Edge(3, 1, 1, 2)),
        )
        folded, step = fold_once(g, (1, 2))
        assert step.betti_dropped
        assert step.identified_vertices is None
        assert rf.betti(folded) == rf.betti(g) - 1

    def test_rose_not_foldable(self):
        with pytest.raises(NotFoldableError):
            fold_once(rf.rose(2), (1, 2))


class TestFoldToCompletion:
    def test_wedge_one_step(self):
        seq = rf.fold_to_completion(wedge(("ab", "b")))
        assert len(seq.steps) == 1
        assert rf.is_rose(seq.final)

    def test_already_folded(self):
        seq = rf.fold_to_completion(rf.circuit(cyc("aab")))
        assert len(seq.steps) == 0

    def test_duplicate_circle_folds_onto_first(self):
        # one Betti-preserving fold merges the circles' start vertices,
        # then one Betti-dropping fold merges the duplicated edges
        seq = rf.fold_to_completion(wedge(("ab", "ab")))
        assert len(seq.steps) == 2
        assert [s.betti_dropped for s in seq.steps] == [False, True]
        assert rf.betti(seq.final) == 1
        assert rf.is_folded(seq.final)
        assert reads(seq.final, cyc("ab"))

    @given(graph_st(rank=2, max_vertices=5, max_edge_pairs=8))
    @settings(max_examples=40)
    def test_each_step_is_a_quotient_morphism(self, g):
        seq = rf.fold_to_completion(g)
        for i, step in enumerate(seq.steps):
            m = fold_morphism(seq.snapshots[i], step)
            assert rf.verify_morphism(m, seq.snapshots[i], seq.snapshots[i + 1])

    @given(graph_st(rank=3))
    def test_termination_bound_and_betti_trace(self, g):
        seq = rf.fold_to_completion(g)
        assert len(seq.steps) <= len(g.edges)
        for i, step in enumerate(seq.steps):
            drop = 1 if step.betti_dropped else 0
            assert rf.betti(seq.snapshots[i + 1]) == rf.betti(seq.snapshots[i]) - drop
        assert rf.is_folded(seq.final)

    @given(graph_st(rank=3), hyp_st.booleans())
    def test_report_betti_trace_matches_snapshots(self, g, double_edge):
        # Oracle for the report's step-log trace: the Betti number of each
        # snapshot, recomputed from its components.  Doubling an edge pair
        # forces a Betti-dropping fold.
        if double_edge and g.edges:
            e = g.edges[0]
            twin = Edge(max(x.eid for x in g.edges) + 1, e.origin, e.terminus, e.label)
            g = LabeledGraph(g.rank, g.vertices, g.edges + (twin,))
        seq = rf.fold_to_completion(g)
        reported = [int(line.rsplit(" ", 1)[1]) for line in fold_report_lines(seq)]
        assert reported == [rf.betti(s) for s in seq.snapshots] + [rf.betti(seq.final)]
        if double_edge and g.edges:
            assert any(step.betti_dropped for step in seq.steps)

    def test_steps_are_immutable(self):
        step = rf.fold_to_completion(wedge(("ab", "ab"))).steps[1]
        fields = dict(
            edge_a=step.edge_a,
            edge_b=step.edge_b,
            origin=step.origin,
            label=step.label,
            identified_vertices=step.identified_vertices,
            identified_edges=step.identified_edges,
            betti_dropped=True,
        )
        assert rf.FoldStep(**fields) == step
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(step, name, None)
        assert step.betti_dropped is True

    @given(graph_st(rank=3), hyp_st.integers(0, 10**6))
    def test_replayed_snapshots_end_in_kept_graphs(self, g, seed):
        for pick in (None, random_fold_pick(random.Random(seed))):
            seq = rf.fold_to_completion(g, pick)
            snaps = seq.snapshots
            assert len(snaps) == len(seq.steps) + 1 and snaps[0] == seq.start == g
            assert snaps[-1] == seq.final
            assert (seq.penultimate is None) == (not seq.steps)
            if seq.steps:
                assert snaps[-2] == seq.penultimate

    @given(graph_st(rank=2, max_vertices=5, max_edge_pairs=8))
    @settings(max_examples=40)
    def test_confluence(self, g):
        det = rf.fold_to_completion(g).final
        rnd = rf.fold_to_completion(g, pick=random_fold_pick(random.Random(99))).final
        assert rf.is_label_isomorphic(det, rnd)


def all_short_classes(rank, max_len):
    out = []
    letters = [v for i in range(1, rank + 1) for v in (i, -i)]
    for k in range(1, max_len + 1):
        for combo in itertools.product(letters, repeat=k):
            ok = all(combo[(i + 1) % k] != -combo[i] for i in range(k))
            if ok:
                out.append(rf.canonical_rotation(rf.CyclicWord(combo, rank)))
    return sorted(set(out), key=lambda c: (len(c), c.letters))


class TestReadabilityMonotone:
    @given(graph_st(rank=2, max_vertices=4, max_edge_pairs=6))
    @settings(max_examples=20)
    def test_readable_words_survive_folding(self, g):
        classes = all_short_classes(2, 3)
        seq = rf.fold_to_completion(g)
        for before, after in zip(seq.snapshots, seq.snapshots[1:]):
            for c in classes:
                if reads(before, c):
                    assert reads(after, c)


class TestPi1Surjective:
    def test_examples(self):
        assert is_pi1_surjective(wedge(("ab", "b")))
        assert not is_pi1_surjective(rf.circuit(cyc("ab")))
        assert is_pi1_surjective(rf.rose(3))

    def test_disconnected_rejected(self):
        g = rf.disjoint_circuits([cyc("a"), cyc("b")])
        with pytest.raises(NotConnectedError):
            is_pi1_surjective(g)


def reads_at_basepoint(b, w):
    """Whether the folded based graph ``b`` reads the word ``w`` along a
    closed path at its basepoint: a folded graph has at most one edge per
    label leaving each vertex, so the walk is forced."""
    assert rf.is_folded(b.graph)
    v = b.basepoint
    for x in w.letters:
        step = [t for _, label, t in b.graph.out_edges(v) if label == x]
        if not step:
            return False
        (v,) = step
    return v == b.basepoint


class TestSubgroupGraph:
    def test_single_generator_loop(self):
        b = rf.subgroup_graph((word("a"),), 2)
        assert len(b.graph.vertices) == 1
        assert [e.label for e in b.graph.edges] == [1]

    def test_basis_gives_rose(self):
        b = rf.subgroup_graph((word("ab"), word("b")), 2)
        assert rf.is_rose(b.graph)

    def test_square_of_generator(self):
        b = rf.subgroup_graph((word("aa"),), 2)
        assert len(b.graph.vertices) == 2
        assert sorted(e.label for e in b.graph.edges) == [1, 1]
        assert rf.is_folded(b.graph)

    def test_membership_readability(self):
        b = rf.subgroup_graph((word("aa"), word("b")), 2)
        for member in ("aa", "b", "aab", "baa", "AAb", "aabaa"):
            assert reads_at_basepoint(b, rf.free_reduce(word(member)))
        for outsider in ("a", "ab", "aaa"):
            assert not reads_at_basepoint(b, word(outsider))

    @given(gen_words_st())
    @settings(max_examples=40)
    def test_generators_always_readable(self, gens):
        b = rf.subgroup_graph(gens, 2)
        for w in gens:
            assert reads_at_basepoint(b, w)
