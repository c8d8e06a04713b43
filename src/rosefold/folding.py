"""Stallings folds and fold sequences.

A fold identifies two distinct directed edges that leave a common vertex
with the same label, merging their terminal vertices when distinct.  The
Betti number drops exactly when the terminal vertices already coincided.
Folding to completion computes the immersed (folded) image; the folded
image is independent of the fold order up to label isomorphism, which the
test suite checks by re-running with randomized pair choices.

``fold_to_completion`` keeps one fold state for the whole run, built in
one pass over the edges: a union-find over the vertices, and per vertex
class a heap of outgoing directed edges per label, merged smaller into
larger, with a heap of the vertices that have a label collision.  Its
default pick is the lowest vertex with a collision; there, the label
whose second outgoing edge comes first in ``out_edges`` order, and that
label's first two edges.  One pick costs one heap pop and one push per
label with two or more edges at that vertex (at most 2·rank labels),
after dropping the folded-away edges just under the live top.  One fold
costs three union-find lookups and, when the termini differ, pushing the
smaller class's edges into the larger's heaps; each edge moves O(log E)
times, so a run is near-linear in the number E of edge pairs.  A run builds
only the penultimate and final graphs with ``_replay``, which builds the
graph after some steps from the merges they record: the penultimate
graph from the start and all steps but the last, and the final graph
from the penultimate and the last step.  ``FoldSequence.snapshots``
replays every prefix from the start, at O(E · folds); only ``--dot``
and the tests use it.

``fold_report_lines`` reads its Betti trace off the step log, starting
from the final graph: a fold never joins two components, so the start's
Betti number is the final graph's plus the number of Betti-dropping
folds.
"""

from __future__ import annotations

import heapq
import itertools
import random
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .graphs import (
    BasedGraph,
    Edge,
    LabeledGraph,
    _dot_lines,
    _find,
    betti,
    core_pair,
    is_folded,
    wedge_of_words,
)
from .words import LETTER_CHARS


class NotFoldableError(ValueError):
    """The supplied pair of directed edges cannot be folded."""


class FoldStep(NamedTuple):
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
        """The start, then the graph after each step, each replayed from the
        log: O(E · folds) time and memory."""
        return tuple(_replay(self.start, self.steps[:i]) for i in range(len(self.steps) + 1))


def foldable_pairs(g: LabeledGraph) -> list[tuple[int, int]]:
    """All unordered foldable pairs: by vertex, then by the ``out_edges``
    order of the pair's first and second edge."""
    return _FoldState(g).pairs()


def _directed(k: int) -> int:
    """The directed edge with key ``k``; see ``_FoldState``."""
    return -(k >> 1) if k & 1 else k >> 1


class _FoldState:
    """The graph in the middle of a fold run, changed in place.

    A union-find over the vertices names each class by its smallest
    vertex, the vertex a fold keeps.  The key of a directed edge ``d`` is
    ``2·|d| + (d < 0)``, which sorts in ``out_edges`` order: by edge id,
    the stored orientation first.  Each class maps a label to a heap of
    the keys of its outgoing directed edges with that label; when two
    classes merge, the smaller heaps are pushed into the larger.  A
    folded-away edge pair is only marked dead, and its keys are dropped
    when they come next after a heap's top, which is never dead: a fold
    keeps the smaller id of its pair, whose key at each end is smaller
    and in the same heap, and heaps only merge.  ``todo`` is a heap of
    vertices that may have a label collision: every class that gained
    one since it was last found to have none.
    """

    def __init__(self, g: LabeledGraph) -> None:
        self.edges = g.edge_map()
        self.parent = {v: v for v in g.vertices}
        self.out: dict[int, dict[int, list[int]]] = {v: {} for v in g.vertices}
        collide = set()
        # One pass over the edges, which are sorted by id: keys reach each
        # label list in increasing order, so every list is already a heap.
        for e in g.edges:
            for v, label, k in ((e.origin, e.label, 2 * e.eid), (e.terminus, -e.label, 2 * e.eid + 1)):
                h = self.out[v].setdefault(label, [])
                h.append(k)
                if len(h) > 1:
                    collide.add(v)
        self.dead: set[int] = set()
        self.todo = sorted(collide)

    def first_pair(self) -> tuple[int, int] | None:
        """The default pick in the current graph: at the lowest vertex with
        a collision, the first two entries of the label whose second entry
        comes first."""
        todo, parent, out, dead = self.todo, self.parent, self.out, self.dead
        pop, push = heapq.heappop, heapq.heappush
        while todo:
            v = todo[0]
            if parent[v] == v:
                best = second = None
                for h in out[v].values():
                    if len(h) < 2:
                        continue
                    first = pop(h)  # never dead; see the class docstring
                    while h and h[0] >> 1 in dead:
                        pop(h)
                    if h and (second is None or h[0] < second):
                        best, second = first, h[0]
                    push(h, first)
                if best is not None:
                    return _directed(best), _directed(second)
            pop(todo)
        return None

    def pairs(self) -> list[tuple[int, int]]:
        """All foldable pairs of the current graph: by vertex, then by the
        keys of the pair's first and second edge."""
        dead = self.dead
        keys = []
        for v in sorted(self.out):
            at_v = []
            for h in self.out[v].values():
                if len(h) > 1:
                    at_v += itertools.combinations(sorted(k for k in h if k >> 1 not in dead), 2)
            keys += sorted(at_v)
        return [(_directed(a), _directed(b)) for a, b in keys]

    def fold(self, d1: int, d2: int) -> FoldStep:
        """Fold a foldable pair: mark the larger edge id dead and merge the
        termini's classes."""
        parent, edges = self.parent, self.edges
        e1, e2 = abs(d1), abs(d2)
        if d1 > 0:
            _, o, t1, label = edges[e1]
        else:
            _, t1, o, label = edges[e1]
            label = -label
        t2 = edges[e2].terminus if d2 > 0 else edges[e2].origin
        o, t1, t2 = _find(parent, o), _find(parent, t1), _find(parent, t2)
        keep_e, drop_e = (e1, e2) if e1 < e2 else (e2, e1)
        self.dead.add(drop_e)
        if t1 == t2:
            return FoldStep(d1, d2, o, label, None, (keep_e, drop_e), True)
        kept, removed = identified = (t1, t2) if t1 < t2 else (t2, t1)
        parent[removed] = kept
        into, other = self.out.pop(kept), self.out.pop(removed)
        if len(into) < len(other):
            into, other = other, into
        for lab, h in other.items():
            big = into.setdefault(lab, h)
            if big is not h:
                if len(big) < len(h):
                    big, h = h, big
                for k in h:
                    heapq.heappush(big, k)
                into[lab] = big
        self.out[kept] = into
        heapq.heappush(self.todo, kept)
        return FoldStep(d1, d2, o, label, identified, (keep_e, drop_e), False)


def _replay(g: LabeledGraph, steps) -> LabeledGraph:
    """The graph after ``steps``, built once from the merges they record."""
    if not steps:
        return g
    parent = {v: v for v in g.vertices}
    for step in steps:
        if step.identified_vertices is not None:
            kept, removed = step.identified_vertices
            parent[removed] = kept
    dropped = {step.identified_edges[1] for step in steps}
    return LabeledGraph(
        g.rank,
        frozenset(v for v in g.vertices if parent[v] == v),
        tuple(
            Edge(e.eid, _find(parent, e.origin), _find(parent, e.terminus), e.label)
            for e in g.edges
            if e.eid not in dropped
        ),
    )


def fold_to_completion(
    g: LabeledGraph,
    pick: Callable[[list[tuple[int, int]]], tuple[int, int]] | None = None,
) -> FoldSequence:
    """Fold until no foldable pair remains; terminates since each fold
    removes an edge pair.

    Without ``pick``, each fold is the default pick (see the module
    docstring), found in O(rank · log E) from one fold state, so the run is near-linear in
    the number of edge pairs.  A ``pick`` receives the current
    ``foldable_pairs``, in that order, and returns one of them; listing
    them costs O(E log E) per fold."""
    state = _FoldState(g)
    fold = state.fold
    steps: list[FoldStep] = []
    if pick is None:
        while (pair := state.first_pair()) is not None:
            steps.append(fold(*pair))
    else:
        while pairs := state.pairs():
            pair = pick(pairs)
            if pair not in pairs:
                raise NotFoldableError(f"pick returned {pair!r}, not a foldable pair")
            steps.append(fold(*pair))
    # The last step's vertices are roots, and its dropped edge an edge, of
    # the penultimate graph, so replaying that one step on it gives the final.
    penultimate = _replay(g, steps[:-1]) if steps else None
    final = _replay(penultimate or g, steps[-1:])
    assert is_folded(final)
    return FoldSequence(g, tuple(steps), penultimate, final)


def random_fold_pick(rng: random.Random) -> Callable[[list[tuple[int, int]]], tuple[int, int]]:
    """A fold-order chooser drawing uniformly among the foldable pairs."""

    def pick(pairs: list[tuple[int, int]]) -> tuple[int, int]:
        return pairs[rng.randrange(len(pairs))]

    return pick


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
    already coincided, and otherwise keeps it.  A fold never joins two
    components, so the start's Betti number is the final graph's plus the
    drops, and only the small final graph is traversed."""
    final, chars = seq.final, LETTER_CHARS
    b = betti(final) + sum(step.betti_dropped for step in seq.steps)
    lines = [
        f"start: {len(seq.start.vertices)} vertices, {len(seq.start.edges)} edge pairs,"
        f" betti {b}"
    ]
    for i, step in enumerate(seq.steps, start=1):
        edge_a, edge_b, origin, label, identified, (kept_e, drop_e), dropped = step
        b -= dropped
        merged = (
            f"merged vertex {identified[1]} -> {identified[0]}"
            if identified
            else "termini already equal (betti drop)"
        )
        lines.append(
            f"step {i}: fold directed edges {edge_a},{edge_b} at vertex {origin} label {chars[label]};"
            f" edge pair {drop_e} -> {kept_e}; {merged}; betti {b}"
        )
    lines.append(
        f"folded: {len(final.vertices)} vertices, {len(final.edges)} edge pairs,"
        f" betti {b}"
    )
    return lines


def fold_sequence_to_dot(seq: FoldSequence) -> str:
    lines = ["digraph folds {"]
    for i, snap in enumerate(seq.snapshots):
        lines += [f"  subgraph cluster_{i} {{", f'    label="snapshot {i}";']
        lines += _dot_lines(snap, "    ", f"s{i}_v")
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"
