"""Folding machinery for labeled graphs over a free basis: Stallings
folds, almost-roses, Whitehead graphs, and a certified decision procedure
for tameness of sets of conjugacy classes, validated by brute-force
oracles at desk scale."""

from .words import (
    CyclicWord,
    RankError,
    TrivialWordError,
    Word,
    WordSyntaxError,
    canonical_rotation,
    conjugacy_class,
    conjugate,
    cyclic_reduce,
    free_reduce,
    invert,
    parse_letters,
    parse_word,
    product,
)
from .graphs import (
    BasedGraph,
    Edge,
    GraphMorphism,
    LabeledGraph,
    NotConnectedError,
    betti,
    circuit,
    core,
    core_pair,
    disjoint_circuits,
    graph_to_dot,
    graph_to_text,
    is_connected,
    is_folded,
    is_label_isomorphic,
    is_rose,
    parse_graph_text,
    rose,
    verify_morphism,
    wedge_of_words,
)
from .folding import (
    FoldSequence,
    FoldStep,
    NotFoldableError,
    fold_to_completion,
    foldable_pairs,
    subgroup_graph,
)
from .whitehead import (
    WhiteheadGraph,
    components,
    cut_vertices,
    is_subgraph,
    whitehead_of_classes,
    whitehead_of_graph,
    whitehead_to_dot,
)
from .tameness import (
    AlmostRose,
    FoldFactorError,
    SignedRelabeling,
    TamenessCertificate,
    almost_rose,
    build_rose_from_whitehead,
    certificate_to_text,
    decide_tame,
    enumerate_almost_roses,
    factor_through_almost_rose,
    induced_morphism,
    recognize_almost_rose,
    verify_certificate,
    whitehead_of_almost_rose,
)
from .oracles import (
    EndomorphismSpec,
    PrimitiveOrbit,
    SearchLimitError,
    SeparableWitness,
    apply_endomorphism,
    brute_force_morphism,
    compose_endomorphisms,
    identity_endomorphism,
    is_verified_automorphism,
    nielsen_generators,
    primitive_orbit,
    random_separable_set,
    rose_for_basis,
    rose_for_separable,
    verify_separable_witness,
)

__all__ = [name for name in dir() if not name.startswith("_")]
