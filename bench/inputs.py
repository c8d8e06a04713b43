"""Seeded input generators for the benchmark, independent of rosefold.

Letters are nonzero ints (``i`` a generator, ``-i`` its inverse) and
text uses ``a..z`` / ``A..Z`` as the library does.  Nothing here imports
the library: inputs, and the answers known by construction, come only
from this file, so the library receives plain generated data.

Workloads with golden digests (``tame-long``, ``tame-corpus``,
``fold-large``) draw their items from fixed pools built from pool seeds
that do not depend on the run seed; the run seed picks which pool items
a run uses and in which order.  Goldens are recorded per pool item, so
every run seed is checked against them.  ``graph-oracles`` has no
goldens; its graphs have fixed shapes that the run seed relabels.
"""

from __future__ import annotations

import hashlib
import json
import random

# -- letters and words --------------------------------------------------------


def to_text(word) -> str:
    return "".join(chr(ord("a") + v - 1) if v > 0 else chr(ord("A") - v - 1) for v in word)


def from_text(text: str) -> list[int]:
    return [ord(c) - 96 if c.islower() else 64 - ord(c) for c in text]


def signed_letters(rank: int) -> list[int]:
    return [s * i for i in range(1, rank + 1) for s in (1, -1)]


def free_reduce(word) -> list[int]:
    out: list[int] = []
    for v in word:
        if out and out[-1] == -v:
            out.pop()
        else:
            out.append(v)
    return out


def cyclic_core(word) -> list[int]:
    """Cyclically reduced core of a word (empty for the identity)."""
    w = free_reduce(word)
    i, j = 0, len(w)
    while j - i >= 2 and w[i] == -w[j - 1]:
        i += 1
        j -= 1
    return w[i:j]


def is_cyclically_reduced(word) -> bool:
    k = len(word)
    return k > 0 and all(word[(i + 1) % k] != -word[i] for i in range(k))


def random_reduced(rng: random.Random, letters: list[int], length: int, first_not=None, last_not=None) -> list[int]:
    """Random reduced word over ``letters`` (and inverses).  ``first_not``
    and ``last_not`` forbid a first / last letter; the last-letter rule is
    met by redrawing the final letter."""
    alphabet = sorted({v for x in letters for v in (x, -x)})
    out: list[int] = []
    for i in range(length):
        options = [v for v in alphabet if (out and v != -out[-1]) or (not out and v != first_not)]
        if i == length - 1 and last_not is not None:
            options = [v for v in options if v != last_not] or options
        out.append(rng.choice(options))
    return out


def random_cyclic(rng: random.Random, letters: list[int], length: int) -> list[int]:
    """Random cyclically reduced word of exactly ``length`` letters."""
    while True:
        w = random_reduced(rng, letters, length)
        if is_cyclically_reduced(w):
            return w


# -- Nielsen moves on bases -----------------------------------------------------


def apply_move(basis: list[list[int]], rng: random.Random) -> list[list[int]]:
    """One random Nielsen move: swap two images, invert one, or multiply
    one image by another (or its inverse) on either side."""
    n = len(basis)
    out = [list(w) for w in basis]
    kind = rng.randrange(3)
    i = rng.randrange(n)
    if kind == 0:
        j = rng.randrange(n)
        out[i], out[j] = out[j], out[i]
    elif kind == 1:
        out[i] = [-v for v in reversed(out[i])]
    else:
        j = rng.choice([x for x in range(n) if x != i])
        other = out[j] if rng.random() < 0.5 else [-v for v in reversed(out[j])]
        out[i] = free_reduce(out[i] + other if rng.random() < 0.5 else other + out[i])
    return out


def random_automorphism(rng: random.Random, rank: int, moves: int) -> list[list[int]]:
    basis = [[i] for i in range(1, rank + 1)]
    for _ in range(moves):
        basis = apply_move(basis, rng)
    return basis


def relabeling(rng: random.Random, rank: int):
    """A random signed permutation of the generators, as a word map."""
    perm = list(range(1, rank + 1))
    rng.shuffle(perm)
    targets = [p * rng.choice((1, -1)) for p in perm]
    return lambda word: [targets[v - 1] if v > 0 else -targets[-v - 1] for v in word]


def substitute(basis: list[list[int]], word) -> list[int]:
    out: list[int] = []
    for v in word:
        img = basis[abs(v) - 1]
        out.extend(img if v > 0 else [-x for x in reversed(img)])
    return free_reduce(out)


# -- almost-roses ---------------------------------------------------------------


def almost_rose_edges(rank: int, k: int, l: int, targets) -> list[tuple[int, int, int]]:
    """Edges ``(origin, terminus, signed label)`` of the standard
    almost-rose of shape ``(k, l)`` relabeled by ``targets``; vertex 0 is
    u, vertex 1 is v."""
    def f(j):
        return targets[j - 1]

    edges = [(0, 0, f(1)), (0, 1, f(1))]
    edges += [(0, 0, f(j)) for j in range(2, k + 1)]
    edges += [(0, 1, f(j)) for j in range(k + 1, l + 1)]
    edges += [(1, 1, f(j)) for j in range(l + 1, rank + 1)]
    return edges


def random_almost_rose(rng: random.Random, rank: int) -> list[tuple[int, int, int]]:
    k = rng.randint(1, rank - 1)
    l = rng.randint(k, rank)
    perm = list(range(1, rank + 1))
    rng.shuffle(perm)
    targets = [p * rng.choice((1, -1)) for p in perm]
    return almost_rose_edges(rank, k, l, targets)


def closed_walk(rng: random.Random, edges, length: int) -> list[int]:
    """Label word of a random closed walk that reads a cyclically reduced
    word.  Steps avoid the inverse of the last label, not just the reverse
    edge: the two letter-1 edges share an origin, so a non-backtracking
    walk can still read x^-1 x at it."""
    darts = []  # (origin, terminus, label)
    for o, t, x in edges:
        darts.append((o, t, x))
        darts.append((t, o, -x))
    outs: dict[int, list[int]] = {}
    for d, (o, _, _) in enumerate(darts):
        outs.setdefault(o, []).append(d)
    while True:
        start = rng.choice(sorted(outs))
        path = [rng.choice(outs[start])]
        for _ in range(length - 1):
            here = darts[path[-1]][1]
            path.append(rng.choice([d for d in outs[here] if darts[d][2] != -darts[path[-1]][2]]))
        word = [darts[d][2] for d in path]
        if darts[path[-1]][1] == start and is_cyclically_reduced(word):
            return word


def transition_circuit(rng: random.Random, rank: int) -> list[int]:
    """A reduced word containing every non-backtracking transition, so the
    Whitehead graph of its class is complete: an Euler circuit of the
    transition digraph, closed by repeating its first letter."""
    letters = signed_letters(rank)
    adj = {u: [v for v in letters if v != -u] for u in letters}
    for u in adj:
        rng.shuffle(adj[u])
    stack, circuit = [letters[rng.randrange(len(letters))]], []
    while stack:
        u = stack[-1]
        if adj[u]:
            stack.append(adj[u].pop())
        else:
            circuit.append(stack.pop())
    circuit.reverse()  # closed: first == last
    return circuit


def complete_whitehead_word(rng: random.Random, rank: int, length: int) -> list[int]:
    core = transition_circuit(rng, rank)
    filler = random_reduced(rng, list(range(1, rank + 1)), length - len(core), first_not=-core[-1], last_not=-core[0])
    word = core + filler
    assert is_cyclically_reduced(word), word
    return word


# -- tame-long ------------------------------------------------------------------

# (kind, rank, total letters, classes).  Half the slots are tame
# ("walk", "missing"), half not ("complete").  An op costs about the sum of
# its classes' squared lengths, and a tame op ~1.8x a not-tame one, so
# lengths are scaled to even out the cost: x1.35 for not tame, x1.39 for a
# set split 3:2 into two classes.  The slots' costs then rise by ~6% each,
# from ~20 ms to ~150 ms, so that a pass over the 40 slots takes ~2.5 s
# and a run repeats every slot about ten times.
TAME_LONG_KINDS = (("walk", 3), ("complete", 4), ("missing", 4), ("complete", 3),
                   ("walk", 4), ("complete", 4), ("missing", 3), ("complete", 3))
TAME_LONG_SLOTS = []
for _i in range(40):
    _kind, _rank = TAME_LONG_KINDS[_i % len(TAME_LONG_KINDS)]
    _parts = 2 if _i % 3 == 2 else 1
    _scale = (1.35 if _kind == "complete" else 1.0) * (1.39 if _parts == 2 else 1.0)
    TAME_LONG_SLOTS.append((_kind, _rank, round(100 * 2.8 ** (_i / 39) * _scale), _parts))
TAME_LONG_VARIANTS = 6


def tame_long_item(slot: int, variant: int) -> dict:
    kind, rank, total, parts = TAME_LONG_SLOTS[slot]
    rng = random.Random(f"tame-long/{slot}/{variant}")
    # fixed split: canonical rotation costs the sum of squared lengths
    lengths = [total] if parts == 1 else [total * 3 // 5, total - total * 3 // 5]
    if kind == "walk":
        rose = random_almost_rose(rng, rank)
        classes = [closed_walk(rng, rose, n) for n in lengths]
    elif kind == "missing":
        skip = rng.randint(1, rank)
        keep = [i for i in range(1, rank + 1) if i != skip]
        classes = [random_cyclic(rng, keep, n) for n in lengths]
    else:
        classes = [complete_whitehead_word(rng, rank, lengths[0])]
        classes += [random_cyclic(rng, list(range(1, rank + 1)), n) for n in lengths[1:]]
    return {
        "pool": slot * TAME_LONG_VARIANTS + variant,
        "kind": kind,
        "rank": rank,
        "classes": [to_text(c) for c in classes],
        "tame": kind != "complete",
    }


def tame_long(seed: int) -> list[dict]:
    rng = random.Random(f"tame-long/run/{seed}")
    items = [tame_long_item(s, rng.randrange(TAME_LONG_VARIANTS)) for s in range(len(TAME_LONG_SLOTS))]
    rng.shuffle(items)
    return items


def tame_long_pool() -> list[dict]:
    return [tame_long_item(s, v) for s in range(len(TAME_LONG_SLOTS)) for v in range(TAME_LONG_VARIANTS)]


# -- tame-corpus ------------------------------------------------------------------

CORPUS_POOL = 4096
CORPUS_PER_RUN = 3000
CORPUS_MAX_LEN = 12
CONTROLS = ([1, 2, -1, -2], [1, 1, 2, 2])  # abAB, aabb: not tame


def _separable_set(rng: random.Random, rank: int) -> list[list[int]] | None:
    """Classes conjugate into one factor of <x1..xm> * <x(m+1)..xn>,
    twisted by a random automorphism."""
    m = rng.randint(1, rank - 1)
    phi = random_automorphism(rng, rank, rng.randint(0, 4))
    out: list[list[int]] = []
    for _ in range(rng.randint(1, 4)):
        side = list(range(1, m + 1)) if rng.random() < 0.5 else list(range(m + 1, rank + 1))
        u = random_reduced(rng, side, rng.randint(1, 4))
        c = cyclic_core(substitute(phi, u))
        if c and len(c) <= CORPUS_MAX_LEN and c not in out:
            out.append(c)
    return out or None


def _primitive_set(rng: random.Random, rank: int) -> list[list[int]] | None:
    phi = random_automorphism(rng, rank, rng.randint(1, 6))
    c = cyclic_core(phi[rng.randrange(rank)])
    return [c] if c and len(c) <= CORPUS_MAX_LEN else None


def _random_set(rng: random.Random, rank: int) -> list[list[int]]:
    letters = list(range(1, rank + 1))
    return [random_cyclic(rng, letters, rng.randint(1, CORPUS_MAX_LEN)) for _ in range(rng.randint(1, 4))]


def tame_corpus_pool() -> list[dict]:
    """Separable and primitive sets (tame by construction), random sets
    (verdict from the Whitehead oracle) and the two controls."""
    rng = random.Random("tame-corpus/pool")
    pool: list[dict] = []
    while len(pool) < CORPUS_POOL:
        i = len(pool)
        rank = 2 + i % 3
        if i % 64 == 0:
            pool.append({"pool": i, "kind": "control", "rank": 2, "classes": [CONTROLS[(i // 64) % 2]], "tame": False})
            continue
        kind = ("separable", "primitive", "random")[i % 3]
        classes = (
            _separable_set(rng, rank) if kind == "separable"
            else _primitive_set(rng, rank) if kind == "primitive"
            else _random_set(rng, rank)
        )
        if classes is None:
            continue
        pool.append({"pool": i, "kind": kind, "rank": rank, "classes": classes, "tame": True if kind != "random" else None})
    return pool


def tame_corpus(seed: int) -> list[dict]:
    pool = tame_corpus_pool()
    rng = random.Random(f"tame-corpus/run/{seed}")
    return [pool[i] for i in rng.sample(range(len(pool)), CORPUS_PER_RUN)]


# -- fold-large ---------------------------------------------------------------------

# (kind, rank, edge pairs); "basis" wedges fold onto the rose without a
# Betti drop, "repeat"/"conjugate" add a redundant circle and must drop.
# Fold cost depends on the wedge's shape, not only its size (two wedges of
# 600 pairs differ by 2x), so each slot keeps one shape and the run seed
# relabels its letters, which changes every word but not the work.  Sizes
# rise by ~2% a slot, from 100 to 220 pairs (~25 ms to ~150 ms an op), so
# that a pass over the 40 slots takes ~2.5 s and a run repeats every slot
# about ten times.
FOLD_SLOTS = [
    ("repeat" if i == 15 else "conjugate" if i == 29 else "basis", 3 + i % 2, round(100 * 2.2 ** (i / 39)))
    for i in range(40)
]


def positive_basis(rng: random.Random, rank: int, total: int, basis=None, frozen=()) -> list[list[int]]:
    """Grow a basis of positive words to exactly ``total`` letters by
    transvections x_i -> x_i x_j or x_j x_i.  The last generator is never
    rewritten, so a one-letter step can always land on ``total``; indices
    in ``frozen`` are never rewritten either."""
    basis = [list(w) for w in basis] if basis else [[i] for i in range(1, rank + 1)]
    size = sum(map(len, basis))
    growable = [i for i in range(rank - 1) if i not in frozen]
    while size < total:
        room = total - size
        j = rng.choice([x for x in range(rank) if len(basis[x]) <= room and {x} != set(growable)])
        i = rng.choice([x for x in growable if x != j])
        basis[i] = basis[i] + basis[j] if rng.random() < 0.5 else basis[j] + basis[i]
        size += len(basis[j])
    return basis


def fold_item(slot: int) -> dict:
    kind, rank, total = FOLD_SLOTS[slot]
    rng = random.Random(f"fold-large/{slot}")
    if kind == "basis":
        words = positive_basis(rng, rank, total)
    elif kind == "repeat":
        # grow half way, then keep one word fixed and wedge in a copy of it
        words = positive_basis(rng, rank, total // 2)
        k = rng.randrange(rank - 1)
        words = positive_basis(rng, rank, total - len(words[k]), words, frozen=(k,))
        words.append(list(words[k]))
    else:
        # a conjugate u x u^-1 of the one-letter generator
        u = [rng.randint(1, rank) for _ in range(total // 10 - 1)] + [rng.randint(1, rank - 1)]
        extra = u + [rank] + [-v for v in reversed(u)]
        words = positive_basis(rng, rank, total - len(extra)) + [extra]
    order = list(range(len(words)))
    rng.shuffle(order)
    return {"pool": slot, "kind": kind, "rank": rank, "words": [words[i] for i in order]}


def fold_large(seed: int) -> list[dict]:
    rng = random.Random(f"fold-large/run/{seed}")
    items = []
    for slot in range(len(FOLD_SLOTS)):
        item = fold_item(slot)
        f = relabeling(rng, item["rank"])
        items.append(dict(item, words=[to_text(f(w)) for w in item["words"]]))
    rng.shuffle(items)
    return items


def fold_large_pool() -> list[dict]:
    """The slot shapes, unrelabeled; fold goldens are letter-blind."""
    return [dict(item, words=[to_text(w) for w in item["words"]]) for item in map(fold_item, range(len(FOLD_SLOTS)))]


# -- graph-oracles ------------------------------------------------------------------

# Per pass, sized so that the three parts each take about a third of the
# time: brute-force morphism checks (oracles), two-order folds plus circuit
# isomorphisms (isomorphism), and enumerations.
RANDOM_GRAPHS = 140                          # each gets a morphism and a fold check
CIRCUIT_SIZES = tuple(range(20, 44, 2)) * 2  # circuit isomorphism checks
ENUMERATE_RANKS = (2, 3) * 7                 # enumerations


def random_graph(rng: random.Random, rank: int, max_vertices: int = 6, max_edge_pairs: int = 10) -> dict:
    nv = rng.randint(1, max_vertices)
    ne = rng.randint(0, max_edge_pairs)
    edges = [(i, rng.randrange(nv), rng.randrange(nv), rng.choice((1, -1)) * rng.randint(1, rank)) for i in range(1, ne + 1)]
    return {"rank": rank, "vertices": nv, "edges": edges}


def relabel_graph(rng: random.Random, graph: dict) -> dict:
    """The same graph with its letters signed-permuted and its vertices
    renumbered."""
    f = relabeling(rng, graph["rank"])
    perm = list(range(graph["vertices"]))
    rng.shuffle(perm)
    edges = [(eid, perm[o], perm[t], f([x])[0]) for eid, o, t, x in graph["edges"]]
    return dict(graph, edges=edges)


def graph_oracles(seed: int) -> list[dict]:
    """One pass: morphism checks, two-order folds, circuit isomorphisms
    and enumerations, interleaved in a seeded order.  The random graphs'
    shapes are fixed and the seed relabels them, as for the circuits:
    the cost of a brute-force search depends on the shape."""
    rng = random.Random(f"graph-oracles/run/{seed}")
    shapes = random.Random("graph-oracles/shapes")
    ops: list[dict] = []
    for i in range(RANDOM_GRAPHS):
        graph = relabel_graph(rng, random_graph(shapes, 2 + i % 2))
        ops.append({"op": "morphism", "graph": graph})
        ops.append({"op": "confluence", "graph": graph, "pick_seed": rng.randrange(1 << 30)})
    for i, size in enumerate(CIRCUIT_SIZES):
        # the search order, hence the cost, depends on the word and the
        # renumbering, so both are fixed per size and the seed relabels
        fixed = random.Random(f"graph-oracles/circuit/{i}/{size}")
        rank = fixed.choice((2, 3))
        word = random_cyclic(fixed, list(range(1, rank + 1)), size)
        perm = list(range(size))
        fixed.shuffle(perm)
        ops.append({"op": "circuit", "rank": rank, "word": relabeling(rng, rank)(word), "perm": perm})
    ops += [{"op": "enumerate", "rank": r} for r in ENUMERATE_RANKS]
    rng.shuffle(ops)
    return ops


POOLS = {
    "tame-long": tame_long_pool,
    "tame-corpus": tame_corpus_pool,
    "fold-large": fold_large_pool,
}

GENERATORS = {
    "tame-long": tame_long,
    "tame-corpus": tame_corpus,
    "fold-large": fold_large,
    "graph-oracles": graph_oracles,
}


def generate(workload: str, seed: int) -> list[dict]:
    return GENERATORS[workload](seed)


def digest(items) -> str:
    """Stable sha256 of generated inputs."""
    return hashlib.sha256(json.dumps(items, sort_keys=True).encode()).hexdigest()
