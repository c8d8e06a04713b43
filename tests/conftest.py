import random
import sys

import pytest
from hypothesis import settings, strategies as st

import rosefold as rf
from rosefold import words
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


def graph_st(rank: int = 2, max_vertices: int = 6, max_edge_pairs: int = 10):
    return st.integers(0, 10**9).map(
        lambda seed: random_labeled_graph(
            random.Random(seed), rank, max_vertices, max_edge_pairs
        )
    )


@pytest.fixture
def rotation_calls(monkeypatch):
    """Every ``canonical_rotation`` call the library makes, in order."""
    calls = []
    original = words.canonical_rotation

    def counting(c):
        calls.append(c)
        return original(c)

    monkeypatch.setattr(words, "canonical_rotation", counting)
    return calls


@pytest.fixture
def letter_parse_calls(monkeypatch):
    """Every ``letter_from_char`` call, through any rosefold module that imported it."""
    calls = []
    original = words.letter_from_char

    def counting(c):
        calls.append(c)
        return original(c)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "rosefold" and getattr(module, "letter_from_char", None) is original:
            monkeypatch.setattr(module, "letter_from_char", counting)
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
