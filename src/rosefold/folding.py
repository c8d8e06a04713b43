"""Stallings folds and fold sequences.

A fold identifies two distinct directed edges that leave a common vertex
with the same label, merging their terminal vertices when distinct.  The
Betti number drops exactly when the terminal vertices already coincided.
Folding to completion computes the immersed (folded) image; the folded
image is independent of the fold order up to label isomorphism, which the
test suite checks by re-running with randomized pair choices.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from .graphs import (
    BasedGraph,
    Edge,
    GraphMorphism,
    LabeledGraph,
    NotConnectedError,
    betti,
    core,
    core_pair,
    is_connected,
    is_folded,
    is_rose,
    wedge_of_words,
)
from .words import letter_to_char


class NotFoldableError(ValueError):
    """The supplied pair of directed edges cannot be folded."""


@dataclass(frozen=True)
class FoldStep:
    edge_a: int  # directed edge ids sharing origin and label
    edge_b: int
    origin: int
    label: int
    identified_vertices: tuple[int, int] | None  # (kept, removed), None if equal termini
    identified_edges: tuple[int, int]  # (kept pair id, removed pair id)
    betti_dropped: bool


@dataclass(frozen=True)
class FoldSequence:
    """The step log of a fold run.  Only the graphs at its ends are kept:
    ``penultimate`` is the graph before the last step (None when there
    are no steps), and every other graph is replayed from the steps."""

    start: LabeledGraph
    steps: tuple[FoldStep, ...]
    penultimate: LabeledGraph | None
    final: LabeledGraph

    @property
    def snapshots(self) -> tuple[LabeledGraph, ...]:
        """The start, then the graph after each step, replayed from the log."""
        snaps = [self.start]
        for step in self.steps:
            snaps.append(fold_once(snaps[-1], (step.edge_a, step.edge_b))[0])
        return tuple(snaps)


def foldable_pairs(g: LabeledGraph) -> list[tuple[int, int]]:
    """All unordered foldable pairs, in deterministic order."""
    pairs = []
    for v in sorted(g.vertices):
        outs = g.out_edges(v)
        for i, (d, label, _) in enumerate(outs):
            for d2, label2, _ in outs[i + 1 :]:
                if label == label2:
                    pairs.append((d, d2))
    return pairs


def find_foldable_pair(g: LabeledGraph) -> tuple[int, int] | None:
    """First foldable pair by lowest vertex, then lowest directed edge ids."""
    for v in sorted(g.vertices):
        seen: dict[int, int] = {}
        for d, label, _ in g.out_edges(v):
            if label in seen:
                return (seen[label], d)
            seen[label] = d
    return None


def fold_once(g: LabeledGraph, pair: tuple[int, int]) -> tuple[LabeledGraph, FoldStep]:
    d1, d2 = pair
    ids = {abs(d1), abs(d2)}
    if len(ids) != 2 or not ids <= g.edge_map().keys():
        raise NotFoldableError(f"not a pair of distinct edges: {pair}")
    if g.dir_origin(d1) != g.dir_origin(d2) or g.dir_label(d1) != g.dir_label(d2):
        raise NotFoldableError(f"edges {pair} do not share origin and label")
    t1, t2 = g.dir_terminus(d1), g.dir_terminus(d2)
    keep_e, drop_e = min(ids), max(ids)
    betti_dropped = t1 == t2
    if betti_dropped:
        identified = None
        vmap = {v: v for v in g.vertices}
        vertices = set(g.vertices)
    else:
        kept_v, removed_v = min(t1, t2), max(t1, t2)
        identified = (kept_v, removed_v)
        vmap = {v: (kept_v if v == removed_v else v) for v in g.vertices}
        vertices = set(g.vertices) - {removed_v}
    edges = tuple(
        Edge(e.eid, vmap[e.origin], vmap[e.terminus], e.label)
        for e in g.edges
        if e.eid != drop_e
    )
    step = FoldStep(
        edge_a=d1,
        edge_b=d2,
        origin=g.dir_origin(d1),
        label=g.dir_label(d1),
        identified_vertices=identified,
        identified_edges=(keep_e, drop_e),
        betti_dropped=betti_dropped,
    )
    return LabeledGraph(g.rank, frozenset(vertices), edges), step


def fold_to_completion(
    g: LabeledGraph,
    pick: Callable[[LabeledGraph], tuple[int, int] | None] | None = None,
) -> FoldSequence:
    """Fold until no foldable pair remains; terminates since each fold
    removes an edge pair."""
    if pick is None:
        pick = find_foldable_pair
    steps: list[FoldStep] = []
    previous, current = None, g
    while True:
        pair = pick(current)
        if pair is None:
            assert is_folded(current)
            return FoldSequence(g, tuple(steps), previous, current)
        previous = current
        current, step = fold_once(current, pair)
        steps.append(step)


def random_fold_pick(rng: random.Random) -> Callable[[LabeledGraph], tuple[int, int] | None]:
    """A fold-order chooser drawing uniformly among all foldable pairs."""

    def pick(g: LabeledGraph) -> tuple[int, int] | None:
        pairs = foldable_pairs(g)
        if not pairs:
            return None
        return pairs[rng.randrange(len(pairs))]

    return pick


def is_pi1_surjective(g: LabeledGraph) -> bool:
    """Whether the labeling map sends the fundamental group onto the whole
    free group: the folded core image must be the rose itself."""
    if not is_connected(g):
        raise NotConnectedError("pi1-surjectivity is defined for connected graphs")
    return is_rose(core(fold_to_completion(g).final))


def fold_morphism(before: LabeledGraph, step: FoldStep, after: LabeledGraph) -> GraphMorphism:
    """The quotient morphism of a single fold."""
    kept_e, drop_e = step.identified_edges
    vmap = {v: v for v in before.vertices}
    if step.identified_vertices is not None:
        kept_v, removed_v = step.identified_vertices
        vmap[removed_v] = kept_v
    emap = {e.eid: (kept_e if e.eid == drop_e else e.eid) for e in before.edges}
    return GraphMorphism(vertex_map=vmap, edge_map=emap)


def subgroup_graph(generators, rank: int) -> BasedGraph:
    """Folded based core graph reading exactly the subgroup the generators
    span: fold the wedge of generator circles, then take the based core."""
    gens = tuple(generators)
    wedge = wedge_of_words(gens, rank)
    folded = fold_to_completion(wedge.graph).final
    return core_pair(BasedGraph(folded, wedge.basepoint))


def fold_report_lines(seq: FoldSequence) -> list[str]:
    """Human-readable per-step report with a Betti trace, read off the step
    log: a fold lowers the Betti number by one exactly when its termini
    already coincided, and otherwise keeps it."""
    b = betti(seq.start)
    lines = [
        f"start: {len(seq.start.vertices)} vertices, {len(seq.start.edges)} edge pairs,"
        f" betti {b}"
    ]
    for i, step in enumerate(seq.steps, start=1):
        b -= step.betti_dropped
        merged = (
            f"merged vertex {step.identified_vertices[1]} -> {step.identified_vertices[0]}"
            if step.identified_vertices
            else "termini already equal (betti drop)"
        )
        lines.append(
            f"step {i}: fold directed edges {step.edge_a},{step.edge_b}"
            f" at vertex {step.origin} label {letter_to_char(step.label)};"
            f" edge pair {step.identified_edges[1]} -> {step.identified_edges[0]}; {merged};"
            f" betti {b}"
        )
    final = seq.final
    lines.append(
        f"folded: {len(final.vertices)} vertices, {len(final.edges)} edge pairs,"
        f" betti {b}"
    )
    return lines


def fold_sequence_to_dot(seq: FoldSequence) -> str:
    lines = ["digraph folds {"]
    for i, snap in enumerate(seq.snapshots):
        lines.append(f"  subgraph cluster_{i} {{")
        lines.append(f'    label="snapshot {i}";')
        for v in sorted(snap.vertices):
            lines.append(f'    s{i}_v{v} [shape=circle label="{v}"];')
        for e in snap.edges:
            lines.append(
                f'    s{i}_v{e.origin} -> s{i}_v{e.terminus} [label="{letter_to_char(e.label)}"];'
            )
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"
