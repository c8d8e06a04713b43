"""Stallings folds and fold sequences.

A fold identifies two distinct directed edges that leave a common vertex
with the same label, merging their terminal vertices when distinct.  The
Betti number drops exactly when the terminal vertices already coincided.
Folding to completion computes the immersed (folded) image; the folded
image is independent of the fold order up to label isomorphism, which the
test suite checks by re-running with randomized pair choices.

``fold_to_completion`` keeps one fold state for the whole run: a
union-find over the vertices, and per vertex class a heap of outgoing
directed edges per label, merged smaller into larger, with a heap of the
vertices that have a label collision.  Its default pick is the lowest
vertex with a collision; there, the label whose second outgoing edge
comes first in ``out_edges`` order, and that label's first two edges.
Each edge moves between heaps O(log E) times and each pick scans at most
2·rank labels, so a run is near-linear in the number E of edge pairs.
A run builds only the final and penultimate graphs, each with
``_replay``, which builds the graph after a prefix of the steps from the
merges they record.  ``FoldSequence.snapshots`` replays every prefix the
same way, at O(E · folds); only ``--dot`` and the tests use it.
"""

from __future__ import annotations

import heapq
import itertools
import random
from dataclasses import dataclass
from typing import Callable

from .graphs import (
    BasedGraph,
    Edge,
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
        """The start, then the graph after each step, each replayed from the
        log: O(E · folds) time and memory."""
        return tuple(_replay(self.start, self.steps[:i]) for i in range(len(self.steps) + 1))


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


def _find(parent: dict[int, int], v: int) -> int:
    """Root of ``v``'s class, halving the path on the way."""
    while parent[v] != v:
        parent[v] = v = parent[parent[v]]
    return v


def _key(d: int) -> int:
    """Sort key of a directed edge in ``out_edges`` order: by edge id, the
    stored orientation first."""
    return 2 * abs(d) + (d < 0)


def _directed(k: int) -> int:
    return -(k >> 1) if k & 1 else k >> 1


class _FoldState:
    """The graph in the middle of a fold run, changed in place.

    A union-find over the vertices names each class by its smallest
    vertex, the vertex a fold keeps.  Each class maps a label
    to a heap of the ``_key``s of its outgoing directed edges with that
    label; when two classes merge, the smaller heaps are pushed into the
    larger.  A folded-away edge pair is only marked dead, and its keys
    are dropped when they reach the top of a heap.  ``todo`` is a heap of
    vertices that may have a label collision: every class that gained one
    since it was last found to have none.
    """

    def __init__(self, g: LabeledGraph) -> None:
        self.ends = {e.eid: (e.origin, e.terminus, e.label) for e in g.edges}
        self.parent = {v: v for v in g.vertices}
        self.out: dict[int, dict[int, list[int]]] = {}
        for v in g.vertices:
            by_label: dict[int, list[int]] = {}
            for d, label, _ in g.out_edges(v):  # already in key order, so each list is a heap
                by_label.setdefault(label, []).append(_key(d))
            self.out[v] = by_label
        self.dead: set[int] = set()
        self.todo = sorted(
            v for v, by_label in self.out.items() if any(len(h) > 1 for h in by_label.values())
        )

    def _first_two(self, h: list[int]) -> tuple[int, int] | None:
        """The two smallest live keys of a label heap, if it has two."""
        live = []
        while h and len(live) < 2:
            k = heapq.heappop(h)
            if k >> 1 not in self.dead:
                live.append(k)
        for k in live:
            heapq.heappush(h, k)
        return (live[0], live[1]) if len(live) == 2 else None

    def first_pair(self) -> tuple[int, int] | None:
        """The default pick in the current graph: at the lowest vertex with
        a collision, the first two entries of the label whose second entry
        comes first."""
        todo = self.todo
        while todo:
            v = todo[0]
            if self.parent[v] == v:
                best = None
                for h in self.out[v].values():
                    top = self._first_two(h) if len(h) > 1 else None
                    if top and (best is None or top[1] < best[1]):
                        best = top
                if best:
                    return _directed(best[0]), _directed(best[1])
            heapq.heappop(todo)
        return None

    def choose(self, pick) -> tuple[int, int] | None:
        """The next pair to fold, or None when the graph is folded."""
        if pick is None:
            return self.first_pair()
        pairs = self.pairs()
        if not pairs:
            return None
        pair = pick(pairs)
        if pair not in pairs:
            raise NotFoldableError(f"pick returned {pair!r}, not a foldable pair")
        return pair

    def pairs(self) -> list[tuple[int, int]]:
        """All foldable pairs of the current graph, in ``foldable_pairs`` order."""
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
        (o, t1, label), (_, t2, _) = (self._directed_ends(d) for d in (d1, d2))
        keep_e, drop_e = sorted((abs(d1), abs(d2)))
        self.dead.add(drop_e)
        identified = None
        if t1 != t2:
            kept, removed = identified = (min(t1, t2), max(t1, t2))
            self.parent[removed] = kept
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
        return FoldStep(d1, d2, o, label, identified, (keep_e, drop_e), identified is None)

    def _directed_ends(self, d: int) -> tuple[int, int, int]:
        """Current origin class, terminus class and label of a directed edge."""
        origin, terminus, label = self.ends[abs(d)]
        if d < 0:
            origin, terminus, label = terminus, origin, -label
        return _find(self.parent, origin), _find(self.parent, terminus), label


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
    steps: list[FoldStep] = []
    while (pair := state.choose(pick)) is not None:
        steps.append(state.fold(*pair))
    final = _replay(g, steps)
    assert is_folded(final)
    return FoldSequence(g, tuple(steps), _replay(g, steps[:-1]) if steps else None, final)


def random_fold_pick(rng: random.Random) -> Callable[[list[tuple[int, int]]], tuple[int, int]]:
    """A fold-order chooser drawing uniformly among the foldable pairs."""

    def pick(pairs: list[tuple[int, int]]) -> tuple[int, int]:
        return pairs[rng.randrange(len(pairs))]

    return pick


def is_pi1_surjective(g: LabeledGraph) -> bool:
    """Whether the labeling map sends the fundamental group onto the whole
    free group: the folded core image must be the rose itself."""
    if not is_connected(g):
        raise NotConnectedError("pi1-surjectivity is defined for connected graphs")
    return is_rose(core(fold_to_completion(g).final))


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
