"""Folding machinery for labeled graphs over a free basis: Stallings
folds, almost-roses, Whitehead graphs, and a certified decision procedure
for tameness of sets of conjugacy classes, validated by brute-force
oracles at desk scale.

Importing the package loads none of its modules: a public name's home
module loads when the name is first read (PEP 562), so
``import rosefold.tameness`` or ``rosefold.decide_tame`` loads the
certified decision and not the fold code.
"""

from importlib import import_module

# The public API, by home module.  A name read from the package is looked
# up in its home module on every read and never stored here, so the
# package namespace holds no second reference to a library function.
_API = {
    "words": (
        "CyclicWord", "RankError", "TrivialWordError", "Word", "WordSyntaxError", "canonical_rotation",
        "conjugacy_class", "conjugate", "cyclic_reduce", "free_reduce", "invert", "parse_letters",
        "parse_word", "product",
    ),
    "graphs": (
        "BasedGraph", "Edge", "GraphMorphism", "LabeledGraph", "NotConnectedError", "betti", "circuit",
        "core", "core_pair", "disjoint_circuits", "graph_to_dot", "graph_to_text", "is_connected",
        "is_folded", "is_label_isomorphic", "is_rose", "parse_graph_text", "rose", "verify_morphism",
        "wedge_of_words",
    ),
    "folding": (
        "FoldSequence", "FoldStep", "NotFoldableError", "fold_to_completion", "foldable_pairs",
        "subgroup_graph",
    ),
    "whitehead": (
        "WhiteheadGraph", "components", "cut_vertices", "is_subgraph", "whitehead_of_classes",
        "whitehead_of_graph", "whitehead_to_dot",
    ),
    "tameness": (
        "AlmostRose", "SignedRelabeling", "TamenessCertificate", "almost_rose",
        "build_rose_from_whitehead", "certificate_to_text", "decide_tame", "enumerate_almost_roses",
        "induced_morphism", "recognize_almost_rose", "verify_certificate", "whitehead_of_almost_rose",
    ),
    "oracles": (
        "EndomorphismSpec", "FoldFactorError", "PrimitiveOrbit", "SearchLimitError", "SeparableWitness",
        "apply_endomorphism", "brute_force_morphism", "compose_endomorphisms",
        "factor_through_almost_rose", "identity_endomorphism", "is_verified_automorphism",
        "nielsen_generators", "primitive_orbit", "random_separable_set", "rose_for_basis",
        "rose_for_separable", "verify_separable_witness",
    ),
}
_HOME = {name: module for module, names in _API.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    if name in _API:  # a layer, as ``import rosefold.<layer>`` would bind it
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_HOME[name]}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
