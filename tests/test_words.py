import dataclasses
import random
import re
import string
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import rosefold as rf
from rosefold.cli import main
from rosefold.oracles import (
    endomorphism_to_text,
    parse_endomorphism_text,
    random_basis,
    random_class,
    random_labeled_graph,
)
from rosefold.words import RankError, TrivialWordError, WordSyntaxError, class_rank, letter_key

from conftest import class_st, nontrivial_word_st, word_st


def least_rotation_oracle(c):
    """The least rotation by building every rotation's key tuple: slow and plain."""
    ls = c.letters
    k = len(ls)
    best = min(range(k), key=lambda r: tuple(letter_key(ls[(r + i) % k]) for i in range(k)))
    return ls[best:] + ls[:best]


def slice_rotation_oracle(c):
    """The slice-comparing least rotation that Duval's scan replaced: the
    same definition, O(L^2) but in C, so it reaches 10^4 letters."""
    ls = c.letters
    k = len(ls)
    keys = [letter_key(v) for v in ls] * 2
    best = min(range(k), key=lambda r: keys[r : r + k])
    return ls[best:] + ls[:best]


@st.composite
def rotated_power_st(draw, rank=2):
    """A rotation of a power of a class: covers length one and periodic words."""
    c = draw(class_st(rank, max_len=8))
    ls = c.letters * draw(st.integers(1, 4))
    r = draw(st.integers(0, len(ls) - 1))
    return rf.CyclicWord(ls[r:] + ls[:r], rank)


class TestParse:
    def test_transliteration(self):
        assert rf.parse_word("abA", 2).letters == (1, 2, -1)

    def test_empty_is_identity(self):
        assert rf.parse_word("", 2).letters == ()

    def test_rank_error(self):
        with pytest.raises(RankError):
            rf.parse_word("abc", 2)

    def test_syntax_error(self):
        with pytest.raises(WordSyntaxError):
            rf.parse_word("a-b", 3)

    @given(st.text(alphabet="abABcC", max_size=12))
    def test_print_round_trip(self, text):
        assert str(rf.parse_word(text, 3)) == text


class TestLetterTable:
    """``LETTER_CHARS`` is the one map from letters to characters, and
    ``parse_letters`` reads text through its inverse."""

    def test_table_is_the_alphabet_both_ways(self):
        chars = rf.words.LETTER_CHARS
        assert [chars[v] for v in range(1, 27)] == list(string.ascii_lowercase)
        assert [chars[-v] for v in range(1, 27)] == list(string.ascii_uppercase)
        text = string.ascii_lowercase + string.ascii_uppercase
        assert rf.parse_letters(text) == tuple(range(1, 27)) + tuple(range(-1, -27, -1))

    @given(st.lists(st.integers(-26, 26).filter(bool), max_size=30))
    def test_parse_inverts_the_table(self, letters):
        text = "".join(rf.words.LETTER_CHARS[v] for v in letters)
        assert rf.parse_letters(text) == tuple(letters)

    @pytest.mark.parametrize(
        "text, bad", [("ab1", "1"), ("a b", " "), ("-", "-"), ("a\u00e9", "\u00e9"), ("\u0430", "\u0430")]
    )
    def test_first_bad_character_is_named(self, text, bad):
        with pytest.raises(WordSyntaxError, match=f"^invalid letter {re.escape(repr(bad))}$"):
            rf.parse_letters(text)

    def test_empty_text_is_no_letters(self):
        assert rf.parse_letters("") == ()


class TestFreeReduce:
    @pytest.mark.parametrize(
        "text,expected",
        [("abBA", ""), ("abA", "abA"), ("aBba", "aa")],
    )
    def test_examples(self, text, expected):
        assert str(rf.free_reduce(rf.parse_word(text, 2))) == expected

    @given(word_st(rank=3))
    def test_idempotent_and_nonincreasing(self, w):
        r = rf.free_reduce(w)
        assert rf.free_reduce(r) == r
        assert len(r) <= len(w)

    @given(word_st(rank=3))
    def test_word_times_inverse_cancels(self, w):
        assert rf.product(w, rf.invert(w)).letters == ()


class TestInvert:
    @pytest.mark.parametrize("text,expected", [("ab", "BA"), ("", ""), ("aBa", "AbA")])
    def test_examples(self, text, expected):
        assert str(rf.invert(rf.parse_word(text, 2))) == expected

    @given(word_st(rank=3))
    def test_involution(self, w):
        assert rf.invert(rf.invert(w)) == w


class TestCyclicReduce:
    @pytest.mark.parametrize(
        "text,core,conj",
        [("abA", "b", "a"), ("ab", "ab", ""), ("aabAA", "b", "aa")],
    )
    def test_examples(self, text, core, conj):
        c, u = rf.cyclic_reduce(rf.parse_word(text, 2))
        assert (str(c), str(u)) == (core, conj)

    def test_trivial_rejected(self):
        with pytest.raises(TrivialWordError):
            rf.cyclic_reduce(rf.parse_word("aA", 2))

    @given(nontrivial_word_st(rank=3))
    def test_reconstruction(self, w):
        c, u = rf.cyclic_reduce(w)
        rebuilt = rf.product(u, rf.Word(c.letters, w.rank), rf.invert(u))
        assert rebuilt == rf.free_reduce(w)
        assert len(c) <= len(rf.free_reduce(w))


class TestCanonicalRotation:
    @pytest.mark.parametrize(
        "text,expected", [("ba", "ab"), ("aab", "aab"), ("bab", "abb")]
    )
    def test_examples(self, text, expected):
        assert str(rf.canonical_rotation(rf.CyclicWord(rf.parse_letters(text), 2))) == expected

    @given(nontrivial_word_st(rank=3), word_st(rank=3))
    def test_conjugation_invariance(self, w, u):
        assert rf.conjugacy_class(rf.conjugate(w, u)) == rf.conjugacy_class(w)

    def test_letter_order(self):
        # a < A < b < B < ...
        assert sorted([2, -1, 1, -2], key=letter_key) == [1, -1, 2, -2]

    @pytest.mark.parametrize("text", ["a", "A", "b", "B", "c", "C", "abab", "BaBaBa", "baabaa", "cAbcAb", "aabaaac", "aacaaab"])
    def test_matches_oracle_on_short_and_periodic(self, text):
        c = rf.CyclicWord(rf.parse_letters(text), 3)
        assert rf.canonical_rotation(c).letters == least_rotation_oracle(c)

    @given(st.sampled_from((2, 3)).flatmap(lambda rank: rotated_power_st(rank)))
    def test_matches_oracle(self, c):
        assert rf.canonical_rotation(c).letters == least_rotation_oracle(c)

    def test_ten_thousand_letters(self):
        rng = random.Random(10_000)
        ls = [1]
        while len(ls) < 10_000 or ls[-1] == -ls[0]:
            ls.append(rng.choice([v for v in (1, -1, 2, -2, 3, -3) if v != -ls[-1]]))
        # the random word and a power of one of its cyclically reduced prefixes
        period = next(p for p in range(100, 200) if ls[p - 1] != -ls[0])
        for c in (rf.CyclicWord(tuple(ls), 3), rf.CyclicWord(tuple(ls[:period]) * 60, 3)):
            r = 7_919
            c = rf.CyclicWord(c.letters[r:] + c.letters[:r], 3)
            assert rf.canonical_rotation(c).letters == slice_rotation_oracle(c)

    @given(st.sampled_from((2, 3)).flatmap(lambda rank: rotated_power_st(rank)), st.integers(0, 40))
    def test_unchecked_rotation_equals_a_checked_one(self, c, shift):
        start = shift % len(c)
        rotated = rf.CyclicWord(c.letters[start:] + c.letters[:start], c.rank)
        # canonical_rotation builds its rotation unchecked
        for fast in (rf.canonical_rotation(c), rf.canonical_rotation(rotated)):
            checked = rf.CyclicWord(fast.letters, c.rank)
            assert type(fast) is rf.CyclicWord
            assert fast == checked and hash(fast) == hash(checked) and str(fast) == str(checked)
        assert rf.canonical_rotation(c) == rf.canonical_rotation(rotated)

    def test_rotation_skips_the_letter_checks(self, monkeypatch):
        c = rf.CyclicWord(rf.parse_letters("bcAbcaa"), 3)
        checked = []
        original = rf.words._check_letters

        def counting(letters, rank):
            checked.append(letters)
            return original(letters, rank)

        monkeypatch.setattr(rf.words, "_check_letters", counting)
        assert str(rf.canonical_rotation(c)) == "aabcAbc"
        assert checked == []
        # a cyclic word built from letters is still checked
        rf.CyclicWord((1, 2), 3)
        assert checked == [(1, 2)]

    def test_inverse_class_is_distinct(self):
        # [g] and [g inverse] are different classes
        w = rf.parse_word("aab", 2)
        assert rf.conjugacy_class(w) != rf.conjugacy_class(rf.invert(w))


class TestRankDiscipline:
    def test_rank_below_two_rejected(self):
        with pytest.raises(RankError):
            rf.Word((1,), 1)

    def test_mixed_rank_concat_rejected(self):
        with pytest.raises(RankError):
            rf.product(rf.parse_word("a", 2), rf.parse_word("a", 3))

    def test_empty_concat_rejected(self):
        with pytest.raises(ValueError, match="concat needs at least one word"):
            rf.words.concat()

    def test_letter_beyond_the_text_form_rejected(self):
        for letter in (27, -27):
            with pytest.raises(RankError, match="^letter index 27 has no character form \\(max 26\\)$"):
                rf.words.LETTER_CHARS[letter]

    def test_word_beyond_the_text_form_has_no_string(self):
        # the letter table has no entry for 27, so its lookup raises
        for letters in ((27,), (1, -27)):
            with pytest.raises(RankError, match="letter index 27 has no character form"):
                str(rf.Word(letters, 27))

    def test_cyclic_word_requires_cyclically_reduced(self):
        with pytest.raises(ValueError):
            rf.CyclicWord(rf.parse_letters("abA"), 2)
        with pytest.raises(TrivialWordError):
            rf.CyclicWord(rf.parse_letters(""), 2)

    @pytest.mark.parametrize(
        "letters, error",
        [((1, 3), RankError), ((1, 0), RankError), ((1, 2, -1), ValueError), ((1, -1), ValueError), ((), TrivialWordError)],
    )
    def test_cyclic_word_checks_its_letters(self, letters, error):
        # canonical_rotation skips these checks on rotations; the constructor keeps them
        with pytest.raises(error):
            rf.CyclicWord(letters, 2)


def _rank_takers():
    """Each library entry point that takes a rank, as a function of it."""
    rng = random.Random(0)
    return {
        "Word": lambda n: rf.Word((), n),
        "CyclicWord": lambda n: rf.CyclicWord((1,), n),
        "parse_word": lambda n: rf.parse_word("", n),
        "LabeledGraph": lambda n: rf.LabeledGraph(n, frozenset(), ()),
        "rose": rf.rose,
        "disjoint_circuits": lambda n: rf.disjoint_circuits([], n),
        "wedge_of_words": lambda n: rf.wedge_of_words((), n),
        "subgroup_graph": lambda n: rf.subgroup_graph((), n),
        "parse_graph_text": lambda n: rf.parse_graph_text(f"rank {n}\n"),
        "WhiteheadGraph": lambda n: rf.WhiteheadGraph(n, frozenset()),
        "whitehead_of_classes": lambda n: rf.whitehead_of_classes([], n),
        "SignedRelabeling": rf.SignedRelabeling.identity,
        "almost_rose": lambda n: rf.almost_rose(n, 1, 1),
        "AlmostRose": lambda n: rf.AlmostRose(n, 1, {-1}),
        "enumerate_almost_roses": rf.enumerate_almost_roses,
        "decide_tame": lambda n: rf.decide_tame([], n),
        "EndomorphismSpec": lambda n: rf.EndomorphismSpec(n, ()),
        "identity_endomorphism": rf.identity_endomorphism,
        "nielsen_generators": rf.nielsen_generators,
        "primitive_orbit": lambda n: rf.primitive_orbit(n, 2),
        "random_separable_set": lambda n: rf.random_separable_set(n, 0, 1),
        "random_basis": lambda n: random_basis(rng, n),
        "random_class": lambda n: random_class(rng, n, 3),
        "random_labeled_graph": lambda n: random_labeled_graph(rng, n),
        "parse_endomorphism_text": lambda n: parse_endomorphism_text(f"rank {n}\n"),
    }


def _rank_combiners():
    """Each library entry point that combines values which must share a
    rank, given values of ranks 2 and 3."""
    w2, w3 = rf.parse_word("ab", 2), rf.parse_word("ab", 3)
    c2, c3 = rf.CyclicWord(rf.parse_letters("ab"), 2), rf.CyclicWord(rf.parse_letters("ab"), 3)
    id2, id3 = rf.identity_endomorphism(2), rf.identity_endomorphism(3)
    return {
        "concat": lambda: rf.words.concat(w2, w3),
        "product": lambda: rf.product(w2, w3),
        "conjugate": lambda: rf.conjugate(w2, w3),
        "class_rank": lambda: class_rank([c2, c3]),
        "class_rank with a rank": lambda: class_rank([c2], 3),
        "normalize_classes": lambda: rf.words.normalize_classes([c2, c3]),
        "disjoint_circuits": lambda: rf.disjoint_circuits([c2, c3]),
        "disjoint_circuits with a rank": lambda: rf.disjoint_circuits([c2], 3),
        "whitehead_of_classes": lambda: rf.whitehead_of_classes([c2], 3),
        "decide_tame": lambda: rf.decide_tame([c2], 3),
        "wedge_of_words": lambda: rf.wedge_of_words((w2,), 3),
        "subgroup_graph": lambda: rf.subgroup_graph((w2,), 3),
        "is_subgraph": lambda: rf.is_subgraph(rf.WhiteheadGraph(2, frozenset()), rf.WhiteheadGraph(3, frozenset())),
        "almost_rose": lambda: rf.almost_rose(3, 1, 2, rf.SignedRelabeling.identity(2)),
        "induced_morphism": lambda: rf.induced_morphism(rf.circuit(c3), rf.almost_rose(2, 1, 1)),
        "brute_force_morphism": lambda: rf.brute_force_morphism(rf.rose(2), rf.rose(3)),
        "EndomorphismSpec images": lambda: rf.EndomorphismSpec(2, (w3, w3)),
        "EndomorphismSpec inverse images": lambda: rf.EndomorphismSpec(2, (w2, w2), (w3, w3)),
        "apply_endomorphism": lambda: rf.apply_endomorphism(id2, w3),
        "compose_endomorphisms": lambda: rf.compose_endomorphisms(id2, id3),
    }


class TestRankTable:
    """The rank rule lives in ``words``: every entry point that takes a rank
    rejects one below 2, and every one that combines values rejects mixed
    ranks, each with a ``RankError``."""

    @pytest.mark.parametrize("name", sorted(_rank_takers()))
    @pytest.mark.parametrize("n", [1, 0, -1])
    def test_rank_below_two(self, name, n):
        with pytest.raises(RankError, match="rank must be at least 2"):
            _rank_takers()[name](n)

    @pytest.mark.parametrize("name", sorted(_rank_combiners()))
    def test_mixed_ranks(self, name):
        with pytest.raises(RankError, match="mixed ranks"):
            _rank_combiners()[name]()

    def test_checks_of_mixed_ranks_return_false(self):
        # predicates and verifiers answer instead of raising
        assert not rf.verify_morphism(rf.GraphMorphism(), rf.rose(2), rf.rose(3))
        assert not rf.is_label_isomorphic(rf.rose(2), rf.rose(3))
        cert = rf.decide_tame([rf.CyclicWord(rf.parse_letters("ab"), 2)])
        assert not rf.verify_certificate([rf.CyclicWord(rf.parse_letters("ab"), 3)], cert)


class TestLetterChecks:
    """Parsing checks each letter once; reduction builds its results from
    checked letters without checking them again."""

    @given(word_st(rank=3, max_len=16))
    def test_unchecked_results_equal_checked_ones(self, w):
        r = rf.free_reduce(w)
        assert type(r) is rf.Word and r == rf.Word(r.letters, w.rank) and hash(r) == hash(rf.Word(r.letters, w.rank))
        if r.letters:
            c, u = rf.cyclic_reduce(w)
            assert type(c) is rf.CyclicWord and c == rf.CyclicWord(c.letters, w.rank)
            assert type(u) is rf.Word and u == rf.Word(u.letters, w.rank)

    @pytest.mark.parametrize("letters", [(1, 3), (1, 0), (-3,)])
    def test_word_constructor_still_checks(self, letters):
        with pytest.raises(RankError):
            rf.Word(letters, 2)

    @pytest.mark.parametrize("letter", [1.5, 1.0, True, "a"])
    @pytest.mark.parametrize("cls", [rf.Word, rf.CyclicWord])
    def test_a_letter_must_be_an_int(self, cls, letter):
        # CyclicWord((1.5, 2), 2) used to build, and decide_tame on it died
        # with a bare KeyError; (1.0, 2) decided and printed a certificate
        message = f"letter {letter!r} has type {type(letter).__name__}, not int"
        with pytest.raises(RankError, match=f"^{re.escape(message)}$"):
            cls((letter, 2), 2)

    @pytest.mark.parametrize("rank", [2.0, 2.5, True])
    def test_a_rank_must_be_an_int(self, rank):
        # CyclicWord((1, 2), 2.5) and CyclicWord((1, 2), 2.0) used to build,
        # and decide_tame on either died with a bare TypeError
        message = f"rank {rank!r} has type {type(rank).__name__}, not int"
        match = f"^{re.escape(message)}$"
        builders = [
            lambda: rf.Word((1,), rank),
            lambda: rf.CyclicWord((1,), rank),
            lambda: rf.LabeledGraph(rank, frozenset({0}), ()),
            lambda: rf.WhiteheadGraph(rank, frozenset()),
            lambda: rf.AlmostRose(rank, 1, frozenset({-1})),
            lambda: rf.EndomorphismSpec(rank, ()),
            lambda: rf.decide_tame([], rank=rank),
        ]
        for build in builders:
            with pytest.raises(RankError, match=match):
                build()
        classes = [rf.CyclicWord((1, 2), 2)]
        with pytest.raises(RankError):  # either the type or "mixed ranks"
            rf.decide_tame(classes, rank=rank)
        cert = rf.decide_tame(classes, 2)
        assert rf.verify_certificate(classes, cert, 2)
        assert not rf.verify_certificate(classes, cert, rank)
        assert not rf.verify_certificate(classes, dataclasses.replace(cert, rank=rank))

    def test_tame_checks_each_input_letter_once(self, monkeypatch, capsys):
        # the 40 tame-long benchmark inputs of seed 5: 9,294 letters, which
        # parsing, free reduction and cyclic reduction used to check once
        # each (27,882 checks)
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
        import inputs

        items = inputs.tame_long(5)
        checked = []
        original = rf.words._check_letters

        def counting(letters, rank):
            checked.append(len(letters))
            return original(letters, rank)

        monkeypatch.setattr(rf.words, "_check_letters", counting)
        for item in items:
            assert main(["tame", "--rank", str(item["rank"]), *item["classes"]]) == (0 if item["tame"] else 1)
        capsys.readouterr()
        total = sum(len(c) for item in items for c in item["classes"])
        assert (len(items), total) == (40, 9_294)
        assert sum(checked) == total


class TestClassRank:
    def test_shared_rank(self):
        classes = [rf.CyclicWord(rf.parse_letters("ab"), 3), rf.CyclicWord(rf.parse_letters("c"), 3)]
        assert class_rank(classes) == 3
        assert class_rank(classes, 3) == 3
        assert class_rank([], 4) == 4

    def test_empty_set_needs_rank(self):
        with pytest.raises(ValueError) as info:
            class_rank([])
        assert not isinstance(info.value, RankError)

    def test_mixed_ranks(self):
        with pytest.raises(RankError):
            class_rank([rf.CyclicWord(rf.parse_letters("a"), 2), rf.CyclicWord(rf.parse_letters("a"), 3)])

    def test_rank_mismatch(self):
        with pytest.raises(RankError):
            class_rank([rf.CyclicWord(rf.parse_letters("ab"), 2)], 3)


# The two text formats on the one line reader: each parser with its writer.
FORMATS = {
    "graph": (rf.parse_graph_text, rf.graph_to_text),
    "witness": (parse_endomorphism_text, endomorphism_to_text),
}
KEYWORDS = {"rank", "vertex", "edge", "basis-witness", "image", "inverse"}


def _seeded_texts():
    """What the writers emit for 40 seeded graphs and 40 seeded bases of
    ranks 2 to 5, half of the bases without their inverse lines."""
    rng = random.Random(21)
    texts = []
    for i in range(40):
        n = 2 + i % 4
        texts.append(("graph", rf.graph_to_text(random_labeled_graph(rng, n))))
        spec = random_basis(rng, n)
        if i % 2:
            spec = rf.EndomorphismSpec(n, spec.images)
        texts.append(("witness", endomorphism_to_text(spec)))
    return texts


SEEDED = _seeded_texts()


def _parse_lines(what, lines):
    return FORMATS[what][0]("\n".join(lines) + "\n")


class TestTextLines:
    """Both parsers read through ``words._text_lines``: they give back their
    writers' bytes, and every line they refuse is named by its number."""

    def test_writer_output_round_trips_byte_for_byte(self):
        for what, text in SEEDED:
            parse, write = FORMATS[what]
            assert write(parse(text)) == text

    @pytest.mark.parametrize(
        "what, text, lineno",
        [
            ("graph", "rank 1_0\nvertex 0\n", 1),
            ("graph", "rank \u0662\nvertex 0\n", 1),
            ("graph", "rank 2\nvertex +0\n", 2),
            ("graph", "rank 2\nvertex 0\nedge 1 0 0_0 a\n", 3),
            ("witness", "basis-witness\nrank 1_0\nimage 1 -> ab\nimage 2 -> b\n", 2),
            ("witness", "basis-witness\nrank \u0662\nimage 1 -> ab\nimage 2 -> b\n", 2),
            ("witness", "basis-witness\nrank 2\nimage 0_1 -> b\nimage 2 -> b\n", 3),
        ],
        ids=[
            "graph-rank-underscore",
            "graph-rank-arabic-digit",
            "graph-vertex-plus",
            "graph-edge-underscore",
            "witness-rank-underscore",
            "witness-rank-arabic-digit",
            "witness-image-underscore",
        ],
    )
    def test_integers_are_ascii_digits(self, what, text, lineno):
        # int() took these: `rank 1_0` was read as rank 10, `rank \u0662` (an
        # Arabic-Indic two) as rank 2, and `image 0_1` as image 1
        with pytest.raises(ValueError, match=f"^bad {what} line {lineno}: .*: invalid literal for int: "):
            FORMATS[what][0](text)

    @given(st.data())
    def test_repeating_a_keyed_line_is_rejected(self, data):
        what, text = data.draw(st.sampled_from(SEEDED))
        lines = text.splitlines()
        keyed = [i for i, line in enumerate(lines) if line.split()[0] in KEYWORDS]
        i = data.draw(st.sampled_from(keyed))
        j = data.draw(st.integers(i + 1, len(lines)))
        fields = lines[i].split()
        key = " ".join(fields[:1] if fields[0] == "rank" else fields[:2])
        message = f"bad {what} line {j + 1}: {lines[i]!r}: repeats an earlier {key!r} line"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            _parse_lines(what, lines[:j] + [lines[i]] + lines[j:])

    @given(st.data())
    def test_unknown_keyword_is_rejected_with_its_line_number(self, data):
        what, text = data.draw(st.sampled_from(SEEDED))
        lines = text.splitlines()
        keyword = data.draw(
            st.text("abcdefghijklmnopqrstuvwxyz-", min_size=1, max_size=12).filter(lambda k: k not in KEYWORDS)
        )
        j = data.draw(st.integers(0, len(lines)))
        with pytest.raises(ValueError, match=f"^bad {what} line {j + 1}: '{keyword} 1': expected "):
            _parse_lines(what, lines[:j] + [f"{keyword} 1"] + lines[j:])

    @given(st.data())
    def test_line_edits_raise_only_value_error(self, data):
        what, text = data.draw(st.sampled_from(SEEDED))
        lines = text.splitlines()
        for _ in range(data.draw(st.integers(1, 4))):
            edit = data.draw(st.sampled_from(["drop", "duplicate", "swap", "replace-line", "replace-field"]))
            i = data.draw(st.integers(0, len(lines) - 1)) if lines else None
            if i is None:
                lines = [data.draw(st.text(max_size=20))]
            elif edit == "drop":
                del lines[i]
            elif edit == "duplicate":
                lines.insert(data.draw(st.integers(0, len(lines))), lines[i])
            elif edit == "swap":
                j = data.draw(st.integers(0, len(lines) - 1))
                lines[i], lines[j] = lines[j], lines[i]
            elif edit == "replace-line":
                lines[i] = data.draw(st.text(max_size=20))
            else:
                fields = lines[i].split() or [""]
                k = data.draw(st.integers(0, len(fields) - 1))
                fields[k] = data.draw(
                    st.sampled_from(["0", "-1", "1_0", "+1", "\u0662", "10" * 12, "-", "->", "A", "zz", ""])
                    | st.text(max_size=6)
                )
                lines[i] = " ".join(fields)
        try:
            _parse_lines(what, lines)
        except ValueError:
            pass
