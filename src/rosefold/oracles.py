"""Independent generators and brute-force checkers.

Everything here exists to validate the fold-based machinery from the
outside: primitive classes produced as automorphic images of a generator,
separable sets produced from explicit free decompositions with replayable
witnesses, and an exhaustive label-preserving morphism search.  All
randomness is drawn from ``random.Random`` seeded explicitly, so every
generated corpus is reproducible byte for byte.

Fold-based code outside ``folding`` lives here, so that ``tameness``, the
decision and its verifier, imports none: ``factor_through_almost_rose``
folds a graph to its penultimate almost-rose, and ``rose_for_basis`` and
``rose_for_separable`` call it and certify the rose they get with the
decision's own builder.

The Nielsen orbit is sound (every output is primitive by construction)
but not claimed complete below a length cap: a short primitive might only
be reachable through longer intermediate classes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .folding import FoldSequence, fold_to_completion, subgroup_graph
from .graphs import (
    BasedGraph,
    Edge,
    GraphMorphism,
    LabeledGraph,
    NotConnectedError,
    betti,
    core,
    is_connected,
    is_rose,
    oriented_edge,
    wedge_of_words,
)
from .tameness import (
    AlmostRose,
    TamenessCertificate,
    _tame_certificate,
    recognize_almost_rose,
)
from .words import (
    CyclicWord,
    TrivialWordError,
    Word,
    _bad_line,
    _int,
    _once,
    _same_rank,
    _text_lines,
    _valid_rank,
    class_rank,
    conjugacy_class,
    conjugate,
    cyclic_reduce,
    free_reduce,
    invert,
    is_reduced,
    normalize_classes,
    parse_word,
)


class SearchLimitError(RuntimeError):
    """The brute-force search exceeded its configured state budget."""


# -- endomorphisms -----------------------------------------------------------


@dataclass(frozen=True)
class EndomorphismSpec:
    """Images of the generators; an attached inverse makes it a witnessed
    automorphism."""

    rank: int
    images: tuple[Word, ...]
    inverse_images: tuple[Word, ...] | None = None

    def __post_init__(self) -> None:
        _valid_rank(self.rank)
        if len(self.images) != self.rank:
            raise ValueError(f"need {self.rank} images, got {len(self.images)}")
        class_rank(self.images, self.rank)
        if self.inverse_images is not None:
            if len(self.inverse_images) != self.rank:
                raise ValueError("inverse images must cover every generator")
            class_rank(self.inverse_images, self.rank)


def identity_endomorphism(n: int) -> EndomorphismSpec:
    gens = tuple(Word((i,), n) for i in range(1, n + 1))
    return EndomorphismSpec(n, gens, gens)


def apply_endomorphism(spec: EndomorphismSpec, w: Word) -> Word:
    _same_rank(spec.rank, w.rank)
    letters: list[int] = []
    for v in w.letters:
        img = spec.images[abs(v) - 1]
        letters.extend(img.letters if v > 0 else invert(img).letters)
    return free_reduce(Word(tuple(letters), w.rank))


def inverse_spec(spec: EndomorphismSpec) -> EndomorphismSpec:
    if spec.inverse_images is None:
        raise ValueError("spec carries no inverse witness")
    return EndomorphismSpec(spec.rank, spec.inverse_images, spec.images)


def compose_endomorphisms(outer: EndomorphismSpec, inner: EndomorphismSpec) -> EndomorphismSpec:
    """The composite applying ``inner`` first, then ``outer``."""
    _same_rank(outer.rank, inner.rank)
    images = tuple(apply_endomorphism(outer, w) for w in inner.images)
    inverse = None
    if outer.inverse_images is not None and inner.inverse_images is not None:
        inv_outer = inverse_spec(outer)
        inv_inner = inverse_spec(inner)
        inverse = tuple(apply_endomorphism(inv_inner, w) for w in inv_outer.images)
    return EndomorphismSpec(outer.rank, images, inverse)


def is_verified_automorphism(spec: EndomorphismSpec) -> bool:
    """Both compositions with the stored inverse fix every generator."""
    if spec.inverse_images is None:
        return False
    n = spec.rank
    inv = inverse_spec(spec)
    for i in range(1, n + 1):
        x = Word((i,), n)
        if apply_endomorphism(spec, inv.images[i - 1]) != x:
            return False
        if apply_endomorphism(inv, spec.images[i - 1]) != x:
            return False
    return True


def nielsen_generators(n: int) -> list[EndomorphismSpec]:
    """Transpositions of generators, inversion of the first generator, and
    the transvection sending it to its product with the second; each spec
    carries its inverse."""
    _valid_rank(n)

    def gen(i: int) -> Word:
        return Word((i,), n)

    specs: list[EndomorphismSpec] = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            images = tuple(
                gen(j) if t == i else gen(i) if t == j else gen(t) for t in range(1, n + 1)
            )
            specs.append(EndomorphismSpec(n, images, images))
    flip = tuple(Word((-1,), n) if t == 1 else gen(t) for t in range(1, n + 1))
    specs.append(EndomorphismSpec(n, flip, flip))
    trans = tuple(Word((1, 2), n) if t == 1 else gen(t) for t in range(1, n + 1))
    trans_inv = tuple(Word((1, -2), n) if t == 1 else gen(t) for t in range(1, n + 1))
    specs.append(EndomorphismSpec(n, trans, trans_inv))
    return specs


# -- primitive classes -------------------------------------------------------


@dataclass(frozen=True)
class PrimitiveOrbit:
    classes: frozenset[CyclicWord]
    complete: bool  # False when the application budget ran out


def primitive_orbit(n: int, max_len: int, budget: int = 2_000_000) -> PrimitiveOrbit:
    """Closure of the class of the first generator under the Nielsen
    generators and their inverses, pruned to cyclic length ``max_len``.

    Every output is primitive by construction.  When the budget runs out
    the result is flagged incomplete but remains all-primitive.
    """
    if max_len < 1:
        raise ValueError(f"max_len must be at least 1, got {max_len}")
    if budget < 1:
        raise ValueError(f"budget must be at least 1, got {budget}")
    specs: list[EndomorphismSpec] = []
    for s in nielsen_generators(n):
        specs.append(s)
        inv = inverse_spec(s)
        if inv.images != s.images:
            specs.append(inv)
    start = conjugacy_class(Word((1,), n))
    seen: dict[tuple[int, ...], CyclicWord] = {start.letters: start}
    frontier = [start]
    applications = 0
    while frontier:
        fresh: list[CyclicWord] = []
        for c in frontier:
            rep = Word(c.letters, n)
            for spec in specs:
                if applications >= budget:
                    return PrimitiveOrbit(frozenset(seen.values()), False)
                applications += 1
                cls = conjugacy_class(apply_endomorphism(spec, rep))
                if len(cls) <= max_len and cls.letters not in seen:
                    seen[cls.letters] = cls
                    fresh.append(cls)
        frontier = fresh
    return PrimitiveOrbit(frozenset(seen.values()), True)


# -- separable sets ----------------------------------------------------------


@dataclass(frozen=True)
class SeparableWitness:
    """Replayable witness that every produced class is conjugate into one
    factor of an explicit free decomposition."""

    rank: int
    split: int  # the first factor is generated by letters 1..split
    automorphism: EndomorphismSpec
    factor_sides: tuple[int, ...]
    factor_words: tuple[Word, ...]
    conjugators: tuple[Word, ...]


def _random_reduced_word(rng: random.Random, rank: int, letters: list[int], length: int) -> Word:
    out: list[int] = []
    for _ in range(length):
        options = [v for x in letters for v in (x, -x) if not out or v != -out[-1]]
        out.append(rng.choice(options))
    return Word(tuple(out), rank)


def _random_nielsen_composite(
    rng: random.Random, n: int, max_moves: int
) -> EndomorphismSpec:
    gens = nielsen_generators(n)
    spec = identity_endomorphism(n)
    for _ in range(rng.randint(0, max_moves)):
        move = gens[rng.randrange(len(gens))]
        if rng.random() < 0.5:
            move = inverse_spec(move)
        spec = compose_endomorphisms(move, spec)
    return spec


def random_separable_set(
    n: int, seed: int, count: int, max_len: int = 10
) -> tuple[tuple[CyclicWord, ...], SeparableWitness]:
    """Deterministically draw ``count`` distinct classes, each conjugate
    into one factor of a random free decomposition twisted by a random
    automorphism."""
    _valid_rank(n)
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
    if max_len < 2:
        raise ValueError(f"max_len must be at least 2, got {max_len}")
    rng = random.Random(seed)
    m = rng.randint(1, n - 1)
    headroom = max(1, max_len // 3)
    while True:
        phi = _random_nielsen_composite(rng, n, max_moves=4)
        short = [len(conjugacy_class(w)) <= headroom for w in phi.images]
        if any(short[:m]) and any(short[m:]):
            break
    drawn: dict[CyclicWord, tuple[int, Word, Word]] = {}  # (side, word, conjugator), in drawing order
    attempts = 0
    while len(drawn) < count:
        attempts += 1
        if attempts > 2000 * (len(drawn) + 1):  # bounded by the classes found, not by count
            raise ValueError("could not draw enough distinct classes under the length cap")
        side = rng.choice((1, 2))
        letters = list(range(1, m + 1)) if side == 1 else list(range(m + 1, n + 1))
        u = _random_reduced_word(rng, n, letters, rng.randint(1, max(1, max_len // 2)))
        conj = _random_reduced_word(rng, n, list(range(1, n + 1)), rng.randint(0, 3))
        element = conjugate(apply_endomorphism(phi, u), conj)
        cls = conjugacy_class(element)
        if len(cls) > max_len or cls in drawn:
            continue
        drawn[cls] = side, u, conj
    sides, words, conjs = zip(*drawn.values())
    witness = SeparableWitness(n, m, phi, factor_sides=sides, factor_words=words, conjugators=conjs)
    return tuple(drawn), witness


def verify_separable_witness(classes: tuple[CyclicWord, ...], witness: SeparableWitness) -> bool:
    """Replay the witness: every class must equal the class of
    conjugator . phi(factor word) . conjugator^-1."""
    n, m = witness.rank, witness.split
    if not 1 <= m < n:
        return False
    if not is_verified_automorphism(witness.automorphism):
        return False
    if not (
        len(classes) == len(witness.factor_sides) == len(witness.factor_words) == len(witness.conjugators)
    ):
        return False
    for cls, side, u, conj in zip(
        classes, witness.factor_sides, witness.factor_words, witness.conjugators
    ):
        if side not in (1, 2) or len(u) == 0 or not is_reduced(u):
            return False
        allowed = set(range(1, m + 1)) if side == 1 else set(range(m + 1, n + 1))
        if any(abs(v) not in allowed for v in u.letters):
            return False
        element = conjugate(apply_endomorphism(witness.automorphism, u), conj)
        try:
            if conjugacy_class(element) != conjugacy_class(Word(cls.letters, n)):
                return False
        except TrivialWordError:
            return False
    return True


# -- exhaustive morphism search ----------------------------------------------


def brute_force_morphism(
    g: LabeledGraph, h: LabeledGraph, max_states: int = 10_000_000
) -> GraphMorphism | None:
    """Complete backtracking search for a label-preserving morphism.

    Returns the first morphism in deterministic order, or None; raises
    :class:`SearchLimitError` past ``max_states`` visited assignments.

    The vertices of ``g`` are assigned in ascending order, each to the
    vertices of ``h`` in ascending order.  An assignment stands when every
    directed edge from the new vertex to an assigned one (itself included)
    has an edge of ``h`` with the same label between their images, looked
    up in ``h.id_by_ends``; the least such edge is its image.
    """
    _same_rank(g.rank, h.rank)
    gverts = g.ascending_vertices
    hverts = h.ascending_vertices
    ng, nh = len(gverts), len(hverts)
    out = g.out_map()
    id_of = h.id_by_ends
    assignment: dict[int, int] = {}
    visited = 0
    # Depth-first over gverts with an explicit stack: choice[i] is the
    # index in hverts of the next image to try for gverts[i].
    choice = [0] * ng
    i = 0
    while 0 <= i < ng:
        v = gverts[i]
        if choice[i] == nh:
            choice[i] = 0
            assignment.pop(v, None)
            i -= 1
            continue
        visited += 1
        if visited > max_states:
            raise SearchLimitError(f"exceeded {max_states} partial assignments")
        fv = assignment[v] = hverts[choice[i]]
        choice[i] += 1
        for _, x, t in out[v]:
            ft = assignment.get(t)
            if ft is not None and ((fv, ft, x) if x > 0 else (ft, fv, -x)) not in id_of:
                break
        else:
            i += 1
    if i < 0:
        return None
    emap = {e.eid: id_of[(assignment[e.origin], assignment[e.terminus], e.label)] for e in g.edges}
    return GraphMorphism(vertex_map=dict(assignment), edge_map=emap)


# -- constructive pipelines ----------------------------------------------------


class FoldFactorError(ValueError):
    """The fold sequence failed to pass through an almost-rose: a rejected input."""


def factor_through_almost_rose(g: LabeledGraph) -> tuple[AlmostRose, FoldSequence]:
    """Fold to completion and return the penultimate snapshot as an
    almost-rose together with the full sequence.

    Requires ``g`` connected, core, of full Betti number, mapping onto the
    whole free group, and not the rose itself.  No fold then drops the
    Betti number, since ``g`` and the final rose both have Betti number n.
    A penultimate snapshot that fails recognition raises
    :class:`FoldFactorError`.
    """
    n = g.rank
    if not is_connected(g):
        raise NotConnectedError("factoring requires a connected graph")
    if core(g) != g:
        raise ValueError("factoring requires a core graph")
    if betti(g) != n:
        raise ValueError(f"factoring requires Betti number {n}, got {betti(g)}")
    if is_rose(g):
        raise ValueError("the rose itself admits no intermediate almost-rose")
    seq = fold_to_completion(g)
    if not is_rose(seq.final):
        raise ValueError("graph does not map onto the whole free group")
    rose = recognize_almost_rose(seq.penultimate)
    if rose is None:
        raise FoldFactorError(
            "penultimate fold snapshot is not an almost-rose; core-ness was lost en route"
        )
    return rose, seq


def _certified(rose: AlmostRose, classes) -> TamenessCertificate:
    """The tame certificate that ``rose`` reads ``classes``, the one
    ``decide_tame`` would give with this rose; ``verify_certificate``
    checks it."""
    cert = _tame_certificate(normalize_classes(classes), rose)
    if cert is None:
        raise RuntimeError("internal error: a class is unreadable in the folded almost-rose")
    return cert


def rose_for_basis(basis: EndomorphismSpec) -> tuple[TamenessCertificate, FoldSequence]:
    """Fold the wedge of circles spelling a verified basis into an
    almost-rose, ``cert.rose``, and certify that it reads the first basis
    word.

    The first word must be cyclically reduced of length at least two; a
    single letter is rejected since it is readable in suitable
    almost-roses without any folding.  ``wedge_of_words`` rejects an
    empty or unreduced word.
    """
    if not is_verified_automorphism(basis):
        raise ValueError("basis is not a verified automorphism")
    w1 = basis.images[0]
    if len(w1) < 2:
        raise ValueError("first basis word must have length at least 2; single letters are trivially readable")
    cyc, conj = cyclic_reduce(w1)
    if len(conj) != 0:
        raise ValueError(f"first basis word must be cyclically reduced, got {w1!s}")
    wedge = wedge_of_words(basis.images, basis.rank)
    rose, seq = factor_through_almost_rose(wedge.graph)
    return _certified(rose, [cyc]), seq


def _wedge_at_basepoints(a: BasedGraph, b: BasedGraph) -> BasedGraph:
    """Disjoint union with the two basepoints identified (into ``a``'s)."""
    v_off = max(a.graph.vertices) + 1
    e_off = max((e.eid for e in a.graph.edges), default=0)

    def mv(v: int) -> int:
        return a.basepoint if v == b.basepoint else v + v_off

    vertices = set(a.graph.vertices) | {mv(v) for v in b.graph.vertices}
    edges = list(a.graph.edges) + [
        Edge(e.eid + e_off, mv(e.origin), mv(e.terminus), e.label) for e in b.graph.edges
    ]
    return BasedGraph(LabeledGraph(a.graph.rank, frozenset(vertices), tuple(edges)), a.basepoint)


def rose_for_separable(
    witness: SeparableWitness, classes: tuple[CyclicWord, ...]
) -> TamenessCertificate:
    """The tame certificate of an almost-rose reading every class of a
    witnessed separable set.

    Builds the folded based graph of each (twisted) factor, conjugates
    both factors by single letters until the wedge point sees two distinct
    incoming labels, wedges them, and either assembles the two-sided
    almost-rose directly (when the wedge is the rose) or factors the fold
    sequence through one.
    """
    if not verify_separable_witness(classes, witness):
        raise ValueError("separable witness does not validate the classes")
    n, m = witness.rank, witness.split
    phi = witness.automorphism
    gens1 = [apply_endomorphism(phi, Word((i,), n)) for i in range(1, m + 1)]
    gens2 = [apply_endomorphism(phi, Word((i,), n)) for i in range(m + 1, n + 1)]
    while True:
        g1 = subgroup_graph(tuple(gens1), n)
        g2 = subgroup_graph(tuple(gens2), n)
        seen = g1.graph.in_labels(g1.basepoint) | g2.graph.in_labels(g2.basepoint)
        if len(seen) >= 2:
            break
        # every subgroup element reads z^-1 . w . z; conjugating by z strips
        # the common layer and shortens every generator by two letters
        (z,) = seen
        shift = Word((z,), n)
        gens1 = [conjugate(w, shift) for w in gens1]
        gens2 = [conjugate(w, shift) for w in gens2]
    wedge = _wedge_at_basepoints(g1, g2)
    if is_rose(wedge.graph):
        # the least letter of the first factor is the wedge, its others loops at u
        c, *loops = sorted(e.label for e in g1.graph.edges)
        rose = AlmostRose(n, c, frozenset({-c}.union(*({x, -x} for x in loops))))
    else:
        rose, _ = factor_through_almost_rose(wedge.graph)
    return _certified(rose, classes)


# -- random corpora ------------------------------------------------------------


def random_labeled_graph(
    rng: random.Random, rank: int, max_vertices: int = 6, max_edge_pairs: int = 10
) -> LabeledGraph:
    _valid_rank(rank)
    nv = rng.randint(1, max_vertices)
    ne = rng.randint(0, max_edge_pairs)
    edges = tuple(
        oriented_edge(i, rng.randrange(nv), rng.randrange(nv), rng.randint(1, rank))
        for i in range(1, ne + 1)
    )
    return LabeledGraph(rank, frozenset(range(nv)), edges)


def random_class(rng: random.Random, rank: int, max_len: int) -> CyclicWord:
    """The class of a random reduced word of 1 to ``max_len`` letters.  One
    draw: a nonempty reduced word is never trivial, and cyclic reduction
    never lengthens it."""
    letters = list(range(1, _valid_rank(rank) + 1))
    return conjugacy_class(_random_reduced_word(rng, rank, letters, rng.randint(1, max_len)))


def random_basis(rng: random.Random, n: int) -> EndomorphismSpec:
    """A verified basis whose first word is cyclically reduced of length >= 2."""
    while True:
        spec = _random_nielsen_composite(rng, n, max_moves=6)
        w1 = spec.images[0]
        if len(w1) < 2:
            continue
        cyc, conj = cyclic_reduce(w1)
        if len(conj) == 0:
            return spec


# -- witness files --------------------------------------------------------------


def _word_token(w: Word) -> str:
    return str(w) if len(w) else "-"


def _image_lines(spec: EndomorphismSpec) -> list[str]:
    """The ``image`` lines of ``spec``, then its ``inverse`` lines if any."""
    tagged = [("image", spec.images), ("inverse", spec.inverse_images or ())]
    return [f"{tag} {i} -> {_word_token(w)}" for tag, ws in tagged for i, w in enumerate(ws, 1)]


def endomorphism_to_text(spec: EndomorphismSpec) -> str:
    lines = ["basis-witness", f"rank {spec.rank}", *_image_lines(spec)]
    return "\n".join(lines) + "\n"


def _one_per_generator(keys: dict[int, Word], rank: int) -> bool:
    """Whether the keys are exactly 1..rank, checked without building that
    range, so a huge declared rank costs nothing before it is rejected."""
    return len(keys) == rank and all(1 <= i <= rank for i in keys)


def parse_endomorphism_text(text: str) -> EndomorphismSpec:
    rank: int | None = None
    images: dict[int, Word] = {}
    inverses: dict[int, Word] = {}
    seen: set[str] = set()
    try:
        for lineno, keyword, fields in _text_lines(text):
            if keyword == "basis-witness" and not fields:
                _once(seen, keyword)
                if len(seen) > 1:
                    raise ValueError("'basis-witness' must be the first line")
            elif keyword == "rank" and len(fields) == 1:
                _once(seen, "rank")
                rank = _valid_rank(_int(fields[0]))
            elif keyword in ("image", "inverse") and len(fields) == 3 and fields[1] == "->":
                if rank is None:
                    raise ValueError("rank must be declared before images")
                i = _int(fields[0])
                _once(seen, f"{keyword} {i}")
                word = Word((), rank) if fields[2] == "-" else parse_word(fields[2], rank)
                (images if keyword == "image" else inverses)[i] = word
            else:
                raise ValueError("expected 'basis-witness', 'rank N', 'image I -> WORD' or 'inverse I -> WORD'")
    except ValueError as exc:
        raise _bad_line("witness", text, lineno, exc) from exc
    if rank is None or not _one_per_generator(images, rank):
        raise ValueError("witness text must give one image per generator")
    inv = None
    if inverses:
        if not _one_per_generator(inverses, rank):
            raise ValueError("witness text must give one inverse image per generator")
        inv = tuple(inverses[i] for i in range(1, rank + 1))
    return EndomorphismSpec(rank, tuple(images[i] for i in range(1, rank + 1)), inv)


def separable_witness_to_text(classes: tuple[CyclicWord, ...], witness: SeparableWitness) -> str:
    """The witness as text, each element's block led by its class, so that
    one file states the claim and its proof; the arguments are those of
    :func:`verify_separable_witness`."""
    lines = ["separable-witness", f"rank {witness.rank}", f"split {witness.split}"]
    lines += _image_lines(witness.automorphism)
    blocks = zip(classes, witness.factor_sides, witness.factor_words, witness.conjugators, strict=True)
    for j, (cls, side, u, conj) in enumerate(blocks, start=1):
        lines.append(f"class {j} -> {cls}")
        lines.append(f"factor {j} -> {side}")
        lines.append(f"word {j} -> {_word_token(u)}")
        lines.append(f"conj {j} -> {_word_token(conj)}")
    return "\n".join(lines) + "\n"
