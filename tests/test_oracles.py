import dataclasses
import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hyp_st

import rosefold as rf
from rosefold import oracles
from rosefold.oracles import (
    SearchLimitError,
    _random_reduced_word,
    endomorphism_to_text,
    parse_endomorphism_text,
    random_basis,
    random_class,
    random_labeled_graph,
    separable_witness_to_text,
)
from rosefold.tameness import _tame_certificate
from rosefold.words import normalize_classes

from conftest import graph_st, reads


def word(text, rank=2):
    return rf.parse_word(text, rank)


def cyc(text, rank=2):
    return rf.CyclicWord(rf.parse_letters(text), rank)


def recursive_brute_force_morphism(g, h, max_states=10_000_000):
    """The recursive backtracking search that ``brute_force_morphism``
    replaced: one level of recursion per vertex of ``g``."""
    gverts = sorted(g.vertices)
    hverts = sorted(h.vertices)
    h_index = {}
    for e in h.edges:
        h_index.setdefault((e.origin, e.terminus, e.label), []).append(e.eid)
    for eids in h_index.values():
        eids.sort()
    incident = {v: [] for v in gverts}
    for e in g.edges:
        incident[e.origin].append(e)
        if e.terminus != e.origin:
            incident[e.terminus].append(e)
    assignment = {}
    visited = 0

    def consistent(v):
        for e in incident[v]:
            fo = assignment.get(e.origin)
            ft = assignment.get(e.terminus)
            if fo is not None and ft is not None and (fo, ft, e.label) not in h_index:
                return False
        return True

    def extend(i):
        nonlocal visited
        if i == len(gverts):
            return True
        v = gverts[i]
        for w in hverts:
            visited += 1
            if visited > max_states:
                raise SearchLimitError(f"exceeded {max_states} partial assignments")
            assignment[v] = w
            if consistent(v) and extend(i + 1):
                return True
            del assignment[v]
        return False

    if not extend(0):
        return None
    emap = {
        e.eid: h_index[(assignment[e.origin], assignment[e.terminus], e.label)][0]
        for e in g.edges
    }
    return rf.GraphMorphism(vertex_map=dict(assignment), edge_map=emap)


def search_outcome(search, g, h, max_states):
    """The morphism found, with its vertex-map order, or the limit error."""
    try:
        m = search(g, h, max_states)
    except SearchLimitError as exc:
        return ("limit", str(exc))
    return None if m is None else (list(m.vertex_map.items()), m.edge_map)


def spec(images, inverses=None, rank=2):
    return rf.EndomorphismSpec(
        rank,
        tuple(word(t, rank) for t in images),
        tuple(word(t, rank) for t in inverses) if inverses else None,
    )


class TestApplyEndomorphism:
    def test_substitution_then_reduction(self):
        phi = spec(("ab", "b"))
        assert str(rf.apply_endomorphism(phi, word("aB"))) == "a"

    def test_identity(self):
        phi = rf.identity_endomorphism(2)
        assert rf.apply_endomorphism(phi, word("abAB")) == word("abAB")

    def test_empty_word(self):
        assert rf.apply_endomorphism(spec(("ab", "b")), word("")) == word("")


class TestNielsenGenerators:
    def test_rank_two_count(self):
        gens = rf.nielsen_generators(2)
        assert len(gens) == 3
        assert all(g.inverse_images is not None for g in gens)

    def test_rank_three_count(self):
        assert len(rf.nielsen_generators(3)) == 5  # 3 swaps + inversion + transvection

    def test_all_verified(self):
        for n in (2, 3, 4):
            for g in rf.nielsen_generators(n):
                assert rf.is_verified_automorphism(g)

    def test_transvection_composes_to_identity(self):
        trans = rf.nielsen_generators(2)[-1]
        both = rf.compose_endomorphisms(trans, rf.EndomorphismSpec(2, trans.inverse_images, trans.images))
        assert [str(w) for w in both.images] == ["a", "b"]

    def test_swap_applied(self):
        swap = rf.nielsen_generators(2)[0]
        assert str(rf.apply_endomorphism(swap, word("aab"))) == "bba"


class TestPrimitiveOrbit:
    def test_length_one_orbit(self):
        orbit = rf.primitive_orbit(2, 1)
        assert {str(c) for c in orbit.classes} == {"a", "A", "b", "B"}
        assert orbit.complete

    def test_length_two_contains_transvected(self):
        got = {str(c) for c in rf.primitive_orbit(2, 2).classes}
        assert {"ab", "aB", "Ab", "AB"} <= got

    def test_commutator_never_appears(self):
        target = rf.conjugacy_class(word("abAB"))
        assert target not in rf.primitive_orbit(2, 4).classes

    def test_budget_truncation_flag(self):
        orbit = rf.primitive_orbit(2, 6, budget=5)
        assert not orbit.complete
        # still all-primitive: every class must be tame
        for c in orbit.classes:
            assert rf.decide_tame([c]).tame

    def test_bad_length_rejected(self):
        with pytest.raises(ValueError):
            rf.primitive_orbit(2, 0)

    def test_bad_budget_rejected(self):
        with pytest.raises(ValueError, match="budget must be at least 1, got 0"):
            rf.primitive_orbit(2, 3, budget=0)


def _separable_grid_digest(witness_text) -> str:
    """First 16 hex digits of the sha256 of 90 seeded separable sets, two of
    them give-ups, each hashed as its classes and ``witness_text(classes, witness)``."""
    h = hashlib.sha256()
    for n in range(2, 7):
        for count in (1, 3, 6):
            for max_len in (2, 6, 14):
                for seed in range(2):
                    try:
                        classes, witness = rf.random_separable_set(n, seed, count, max_len)
                    except ValueError:
                        h.update(f"{n} {seed} {count} {max_len} gave up\n".encode())
                        continue
                    h.update(" ".join(map(str, classes)).encode() + b"\n")
                    h.update(witness_text(classes, witness).encode())
    return h.hexdigest()[:16]


class TestRandomSeparableSet:
    def test_deterministic_in_seed(self):
        a, wa = rf.random_separable_set(3, seed=7, count=4)
        b, wb = rf.random_separable_set(3, seed=7, count=4)
        assert a == b and wa == wb
        c, _ = rf.random_separable_set(3, seed=8, count=4)
        assert a != c

    def test_seeded_sets_are_pinned(self):
        # re-recorded when the witness text took in its classes as `class` lines
        assert _separable_grid_digest(separable_witness_to_text) == "75385111f96ee891"

    def test_witness_text_gained_only_its_class_lines(self):
        # the digest recorded while drawn classes were looked up in a list and
        # the give-up came after 2,000 draws per class asked for, before the
        # witness text carried its classes: the draws did not change
        def without_class_lines(classes, witness):
            lines = separable_witness_to_text(classes, witness).splitlines(keepends=True)
            class_lines = [line for line in lines if line.startswith("class ")]
            assert class_lines == [f"class {j} -> {c}\n" for j, c in enumerate(classes, start=1)]
            return "".join(line for line in lines if not line.startswith("class "))

        assert _separable_grid_digest(without_class_lines) == "cd5bd69ca82d5654"

    def test_unmeetable_count_gives_up_early(self, monkeypatch):
        # rank 3 has few classes of length <= 2, so a million cannot be met;
        # the search gives up after 2,000 draws per class found, and one more,
        # not after 2,000 per class asked for
        calls = 0

        def counted(w):
            nonlocal calls
            calls += 1
            if calls > 100_000:
                raise AssertionError("still drawing after 100,000 classes")
            return rf.conjugacy_class(w)

        monkeypatch.setattr(oracles, "conjugacy_class", counted)
        with pytest.raises(ValueError, match="could not draw enough distinct classes"):
            rf.random_separable_set(3, 1, 10**6, 2)

    def test_witness_replays(self):
        classes, witness = rf.random_separable_set(3, seed=11, count=4)
        assert rf.verify_separable_witness(classes, witness)
        assert all(len(c) <= 10 for c in classes)

    def test_identity_witness_validates_powers(self):
        # factors <a> and <b> with the identity twist and no conjugation
        witness = rf.SeparableWitness(
            rank=2,
            split=1,
            automorphism=rf.identity_endomorphism(2),
            factor_sides=(1, 2),
            factor_words=(word("aa"), word("b")),
            conjugators=(word(""), word("")),
        )
        classes = (cyc("aa"), cyc("b"))
        assert rf.verify_separable_witness(classes, witness)

    def test_wrong_factor_rejected(self):
        witness = rf.SeparableWitness(
            rank=2,
            split=1,
            automorphism=rf.identity_endomorphism(2),
            factor_sides=(1,),
            factor_words=(word("b"),),  # b is not in <a>
            conjugators=(word(""),),
        )
        assert not rf.verify_separable_witness((cyc("b"),), witness)

    @pytest.mark.parametrize(
        "change",
        [
            dict(split=0),
            dict(split=2),
            dict(automorphism=rf.EndomorphismSpec(2, (word("a"), word("b")))),
            dict(factor_sides=(1,)),
            dict(factor_sides=(3, 2)),
            dict(factor_words=(word(""), word("b"))),
            dict(factor_words=(word("aA"), word("b"))),
        ],
        ids=["split-0", "split-n", "no-inverse", "short-sides", "bad-side", "empty-word", "unreduced-word"],
    )
    def test_malformed_witness_rejected(self, change):
        witness = rf.SeparableWitness(
            rank=2,
            split=1,
            automorphism=rf.identity_endomorphism(2),
            factor_sides=(1, 2),
            factor_words=(word("aa"), word("b")),
            conjugators=(word(""), word("")),
        )
        classes = (cyc("aa"), cyc("b"))
        assert not rf.verify_separable_witness(classes, dataclasses.replace(witness, **change))


class TestEndomorphismSpecChecks:
    def test_wrong_image_count_rejected(self):
        with pytest.raises(ValueError, match="need 2 images, got 1"):
            rf.EndomorphismSpec(2, (word("a"),))

    def test_wrong_inverse_count_rejected(self):
        with pytest.raises(ValueError, match="inverse images must cover every generator"):
            rf.EndomorphismSpec(2, (word("a"), word("b")), (word("a"),))

    def test_inverse_of_spec_without_inverse_rejected(self):
        with pytest.raises(ValueError, match="spec carries no inverse witness"):
            oracles.inverse_spec(spec(("a", "b")))


class TestVerifiedAutomorphism:
    def test_without_inverse(self):
        assert not rf.is_verified_automorphism(spec(("a", "b")))

    def test_inverse_failing_one_way(self):
        # the identity does not undo (a, b) -> (ab, b)
        assert not rf.is_verified_automorphism(spec(("ab", "b"), inverses=("a", "b")))

    def test_inverse_failing_the_other_way(self):
        # phi(psi(a)) = phi(aB) = a, but psi(phi(a)) = psi(ab) = aBa
        assert not rf.is_verified_automorphism(spec(("ab", "b"), inverses=("aB", "a")))


class TestRandomClass:
    def test_one_draw_per_class(self):
        # a nonempty reduced word is a nontrivial class no longer than itself,
        # so each call draws one length and one word, and never retries
        rng, replay = random.Random(4), random.Random(4)
        for max_len in (1, 2, 5, 9, 30):
            c = random_class(rng, 3, max_len)
            w = _random_reduced_word(replay, 3, [1, 2, 3], replay.randint(1, max_len))
            assert c == rf.conjugacy_class(w) and len(c) <= max_len
        assert rng.random() == replay.random()


class TestBruteForceMorphism:
    def test_circuit_to_rose(self):
        m = rf.brute_force_morphism(rf.circuit(cyc("ab")), rf.rose(2))
        assert m is not None
        assert rf.verify_morphism(m, rf.circuit(cyc("ab")), rf.rose(2))

    def test_label_mismatch(self):
        assert rf.brute_force_morphism(rf.circuit(cyc("a")), rf.circuit(cyc("b"))) is None

    def test_commutator_into_almost_rose(self):
        target = rf.almost_rose(2, 1, 1).graph
        assert rf.brute_force_morphism(rf.circuit(cyc("abAB")), target) is None

    def test_search_guard(self):
        rng = random.Random(5)
        g = random_labeled_graph(rng, 2, max_vertices=6, max_edge_pairs=6)
        with pytest.raises(SearchLimitError):
            rf.brute_force_morphism(g, rf.rose(2), max_states=2)

    @given(
        graph_st(rank=2, max_vertices=6, max_edge_pairs=8),
        graph_st(rank=2, max_vertices=3, max_edge_pairs=5),
        hyp_st.integers(1, 60),
    )
    def test_matches_recursive_search(self, g, h, max_states):
        # same first morphism, in the same vertex order, and the same
        # state count at which the limit trips
        for limit in (max_states, 10_000_000):
            assert search_outcome(rf.brute_force_morphism, g, h, limit) == search_outcome(
                recursive_brute_force_morphism, g, h, limit
            )

    def test_parallel_edges_map_to_the_least_id(self):
        g = rf.LabeledGraph(2, frozenset({0, 1}), (rf.Edge(1, 0, 1, 1), rf.Edge(2, 1, 1, 2)))
        h = rf.LabeledGraph(
            2,
            frozenset({0, 1}),
            (rf.Edge(7, 0, 1, 1), rf.Edge(3, 0, 1, 1), rf.Edge(9, 1, 1, 2), rf.Edge(5, 1, 1, 2)),
        )
        m = rf.brute_force_morphism(g, h)
        assert m == rf.GraphMorphism(vertex_map={0: 0, 1: 1}, edge_map={1: 3, 2: 5})
        assert m == recursive_brute_force_morphism(g, h)

    def test_long_circuit_needs_no_recursion(self):
        # the recursive search raised RecursionError at these sizes: one
        # frame per vertex.  The second search backtracks from the last vertex.
        g = rf.circuit(cyc("abc" * 416 + "ab", 3))
        m = rf.brute_force_morphism(g, rf.rose(3))
        assert len(g.vertices) == 1250 and rf.verify_morphism(m, g, rf.rose(3))
        assert rf.brute_force_morphism(rf.circuit(cyc("ab" * 624 + "aB")), rf.circuit(cyc("ab"))) is None

    @given(graph_st(rank=2, max_vertices=5, max_edge_pairs=7))
    @settings(max_examples=60)
    def test_three_way_agreement(self, g):
        wg = rf.whitehead_of_graph(g)
        for rose in rf.enumerate_almost_roses(2):
            included = rf.is_subgraph(wg, rf.whitehead_of_almost_rose(rose))
            brute = rf.brute_force_morphism(g, rose.graph) is not None
            induced = rf.induced_morphism(g, rose) is not None
            assert included == brute == induced


def first_word_verifies(basis, cert):
    """Whether ``cert`` verifies as the tame certificate of the class of
    the first basis word."""
    return cert.tame and rf.verify_certificate([rf.conjugacy_class(basis.images[0])], cert)


class TestRoseForBasis:
    def test_two_letter_basis(self):
        basis = spec(("ab", "b"), inverses=("aB", "b"))
        cert, seq = rf.rose_for_basis(basis)
        assert (cert.rose.k, cert.rose.l) == (1, 2)
        assert not any(s.betti_dropped for s in seq.steps)
        assert [str(c) for c in cert.classes] == ["ab"]
        assert first_word_verifies(basis, cert)

    def test_longer_first_word(self):
        # (aab, ab) is a basis: the inverse sends a -> aB, b -> bAb
        basis = spec(("aab", "ab"), inverses=("aB", "bAb"))
        assert rf.is_verified_automorphism(basis)
        cert, _ = rf.rose_for_basis(basis)
        assert reads(cert.rose.graph, cyc("aab"))
        assert [str(c) for c in cert.classes] == ["aab"]
        assert first_word_verifies(basis, cert)

    def test_single_letter_rejected(self):
        basis = spec(("a", "b"), inverses=("a", "b"))
        with pytest.raises(ValueError, match="length at least 2"):
            rf.rose_for_basis(basis)

    def test_unverified_rejected(self):
        with pytest.raises(ValueError, match="verified"):
            rf.rose_for_basis(spec(("ab", "b")))  # no inverse attached

    def test_not_cyclically_reduced_rejected(self):
        # abA is primitive but not cyclically reduced
        basis = spec(("abA", "a"), inverses=("b", "Bab"))
        assert rf.is_verified_automorphism(basis)
        with pytest.raises(ValueError, match="cyclically reduced"):
            rf.rose_for_basis(basis)

    def test_unreduced_word_rejected(self):
        # bBb reduces to b, so this is a basis, but the wedge needs reduced circles
        basis = spec(("ab", "bBb"), inverses=("aB", "b"))
        assert rf.is_verified_automorphism(basis)
        with pytest.raises(ValueError, match="reduced and nonempty: bBb"):
            rf.rose_for_basis(basis)

    @given(hyp_st.integers(0, 10**6))
    @settings(max_examples=30)
    def test_random_bases(self, seed):
        basis = random_basis(random.Random(seed), 2)
        cert, seq = rf.rose_for_basis(basis)
        assert not any(s.betti_dropped for s in seq.steps)
        assert reads(cert.rose.graph, cert.classes[0])
        assert first_word_verifies(basis, cert)


def closed_walk_class(rng, g, max_len):
    """The class a random closed walk in ``g`` spells, when the walk's
    letters form a nonempty cyclically reduced word; else None."""
    start = v = rng.choice(sorted(g.vertices))
    letters = []
    for _ in range(rng.randint(1, max_len)):
        _, label, v = rng.choice(g.out_edges(v))
        letters.append(label)
    k = len(letters)
    if v != start or any(letters[(i + 1) % k] == -letters[i] for i in range(k)):
        return None
    return rf.CyclicWord(tuple(letters), g.rank)


def reading_classes(rng, rose):
    """Every length-1 class, powers of the wedge letter and its inverse,
    random classes, and classes spelt by random closed walks in the rose."""
    n, y = rose.rank, rose.wedge
    classes = [rf.CyclicWord((s * i,), n) for i in range(1, n + 1) for s in (1, -1)]
    classes += [rf.CyclicWord((s * y,) * k, n) for k in (2, 3) for s in (1, -1)]
    classes += [random_class(rng, n, 6) for _ in range(8)]
    walks = (closed_walk_class(rng, rose.graph, 7) for _ in range(40))
    return classes + [c for c in walks if c is not None]


class TestTameCertificate:
    """``_tame_certificate`` reads a class through the morphism of its
    circuit; brute force decides readability and gives the one morphism."""

    def roses(self):
        sample = random.Random(4).sample(rf.enumerate_almost_roses(4), 40)
        return rf.enumerate_almost_roses(2) + rf.enumerate_almost_roses(3) + sample

    def test_matches_brute_force(self):
        rng = random.Random(10)
        readable = unreadable = 0
        for rose in self.roses():
            for c in reading_classes(rng, rose):
                norm = normalize_classes([c])
                cert = _tame_certificate(norm, rose)
                if rf.brute_force_morphism(rf.circuit(c), rose.graph) is None:
                    unreadable += 1
                    assert cert is None
                    continue
                readable += 1
                assert cert is not None and rf.verify_certificate([c], cert)
                assert cert.rose is rose
                assert cert.morphism == rf.brute_force_morphism(rf.circuit(norm[0]), rose.graph)
        assert readable > 1000 and unreadable > 1000


class TestRoseForSeparable:
    def test_identity_split_uses_joined_roses(self):
        witness = rf.SeparableWitness(
            rank=2,
            split=1,
            automorphism=rf.identity_endomorphism(2),
            factor_sides=(1, 2),
            factor_words=(word("a"), word("b")),
            conjugators=(word(""), word("")),
        )
        classes = (cyc("a"), cyc("b"))
        cert = rf.rose_for_separable(witness, classes)
        assert cert.rose.k == cert.rose.l  # the two-sided rose joined by an edge
        assert rf.verify_certificate(classes, cert)

    def test_conjugated_class_handled(self):
        witness = rf.SeparableWitness(
            rank=2,
            split=1,
            automorphism=rf.identity_endomorphism(2),
            factor_sides=(1,),
            factor_words=(word("a"),),
            conjugators=(word("b"),),
        )
        classes = (rf.conjugacy_class(word("baB")),)
        cert = rf.rose_for_separable(witness, classes)
        assert rf.verify_certificate(classes, cert)

    def test_invalid_witness_rejected(self):
        witness = rf.SeparableWitness(
            rank=2,
            split=1,
            automorphism=rf.identity_endomorphism(2),
            factor_sides=(1,),
            factor_words=(word("a"),),
            conjugators=(word(""),),
        )
        with pytest.raises(ValueError):
            rf.rose_for_separable(witness, (cyc("b"),))

    def test_inner_twist_needs_conjugation_adjustment(self):
        # the inner automorphism w -> (ab) w (ab)^-1 wraps every factor
        # generator the same way, so both factor graphs see a single
        # incoming label at the basepoint until the wedge is re-conjugated
        inner = spec(("abaBA", "abA"), inverses=("BAaab", "BAbab"))
        assert rf.is_verified_automorphism(inner)
        witness = rf.SeparableWitness(
            rank=2,
            split=1,
            automorphism=inner,
            factor_sides=(1, 2),
            factor_words=(word("a"), word("b")),
            conjugators=(word(""), word("")),
        )
        classes = (
            rf.conjugacy_class(word("abaBA")),
            rf.conjugacy_class(word("abA")),
        )
        cert = rf.rose_for_separable(witness, classes)
        assert rf.verify_certificate(classes, cert)
        for c in classes:
            assert reads(cert.rose.graph, c)

    @given(hyp_st.integers(0, 2000))
    @settings(max_examples=30)
    def test_seeded_sets_read_in_their_rose(self, seed):
        classes, witness = rf.random_separable_set(3, seed=seed, count=3)
        cert = rf.rose_for_separable(witness, classes)
        assert rf.verify_certificate(classes, cert)
        for c in classes:
            assert reads(cert.rose.graph, c)


class TestWitnessFiles:
    def test_endomorphism_round_trip(self):
        phi = spec(("ab", "b"), inverses=("aB", "b"))
        assert parse_endomorphism_text(endomorphism_to_text(phi)) == phi

    @pytest.mark.parametrize("rank", [3_000_000, 10**18])
    def test_huge_declared_rank_is_rejected_without_allocating(self, rank):
        # the keys are checked against the rank without building 1..rank
        text = f"basis-witness\nrank {rank}\nimage 1 -> ab\nimage 2 -> b\n"
        with pytest.raises(ValueError, match="one image per generator"):
            parse_endomorphism_text(text)

    def test_inverse_keys_must_cover_the_rank(self):
        text = endomorphism_to_text(spec(("ab", "b")))
        with pytest.raises(ValueError, match="one inverse image per generator"):
            parse_endomorphism_text(text + "inverse 1 -> aB\ninverse 3 -> b\n")

    @pytest.mark.parametrize(
        "line",
        ["rank 2", "image 1 -> ab", "inverse 2 -> b", "basis-witness"],
        ids=["rank", "image", "inverse", "header"],
    )
    def test_repeated_line_rejected(self, line):
        # the last of two lines used to win, so a witness could contradict itself
        text = endomorphism_to_text(spec(("ab", "b"), inverses=("aB", "b")))
        with pytest.raises(ValueError, match=f"^bad witness line 7: '{line}': repeats an earlier '"):
            parse_endomorphism_text(text + line + "\n")

    def test_header_is_optional_and_first(self):
        text = endomorphism_to_text(spec(("ab", "b")))
        body = text.removeprefix("basis-witness\n")
        assert parse_endomorphism_text("# a basis\n\n" + text) == parse_endomorphism_text(body)
        message = "bad witness line 2: 'basis-witness': 'basis-witness' must be the first line"
        with pytest.raises(ValueError, match=f"^{message}$"):
            parse_endomorphism_text(body.replace("\n", "\nbasis-witness\n", 1))

    def test_separable_witness_text_is_stable(self):
        classes, witness = rf.random_separable_set(3, seed=7, count=4)
        text = separable_witness_to_text(classes, witness)
        assert text == separable_witness_to_text(classes, witness)
        assert "split" in text and "image 1 ->" in text and "class 1 ->" in text and "conj 1 ->" in text

    def test_separable_witness_text_needs_one_class_per_element(self):
        classes, witness = rf.random_separable_set(3, seed=7, count=4)
        with pytest.raises(ValueError):
            separable_witness_to_text(classes[:3], witness)
