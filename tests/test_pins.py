"""Byte pins: sha256 digests of what the library and the command line
print for seeded inputs.

The digests were recorded while an almost-rose was still stored as a
relabeled standard graph, so they hold the rose's text (its shape, its
relabel lines, its graph and its edge ids) to the bytes it had then.
A change to the certificate format re-records them and says so.
"""

import contextlib
import hashlib
import io
import random
import runpy
import sys
from pathlib import Path

import pytest

import rosefold as rf
from rosefold.cli import main
from rosefold.oracles import random_basis

ATLAS = Path(__file__).resolve().parent.parent / "scripts" / "almost_rose_atlas.py"

DIGESTS = {
    "certificates": "32ad25f9cd8eeb4b78f6be04d3cc8c13bf8a69d8c5d4b864d009679b96e62ebf",
    "rose_for_basis": "39839bfa8143dd911781dcbd97ff24751361b94c0214d28b5208f3a64d5dc463",
    "fold_basis": "fbac1bce0209bf2ef4dc8b929ad49f407da8ad538dc860f2d7c05ea6b3cc7649",
    "rose_for_separable": "ce4fc0a1417b332480bc74ac354db3c4cd8a69b30a4266c9fc466f793d0a664c",
    "atlas_4": "9808062e7d13c5ecd3943333182eb050c0f047dff90031b3cb417945e0465733",
    "rose_wh": "bffd523dfbd5f991b27ed5b47bbd543c9f1b77815edc7baf37eae1818a4eaf3f",
}


def sha(chunks):
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk.encode())
    return h.hexdigest()


def printed(fn, *args):
    """What ``fn(*args)`` prints on stdout, after its exit code."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = fn(*args)
    return f"{code}\n{out.getvalue()}"


def class_sets(seed, count):
    """Seeded sets of one to four short classes at ranks 2-5, half of them
    over a random nonempty subset of the generators, so that both verdicts,
    both wedge signs and every rose shape occur."""
    rng = random.Random(seed)
    sets = []
    while len(sets) < count:
        n = rng.randint(2, 5)
        gens = rng.sample(range(1, n + 1), rng.randint(1, n) if rng.random() < 0.5 else n)
        letters = [s * i for i in gens for s in (1, -1)]
        classes = []
        for _ in range(rng.randint(1, 4)):
            w = rf.free_reduce(rf.Word(tuple(rng.choice(letters) for _ in range(rng.randint(1, 8))), n))
            if w.letters:
                classes.append(rf.conjugacy_class(w))
        if classes:
            sets.append((classes, n))
    return sets


def bases():
    return [random_basis(random.Random(seed), n) for n in (2, 3, 4) for seed in range(30)]


def separable_sets():
    """Seeded separable sets, and the identity splits, whose wedge is
    already the rose and so builds the two-sided rose directly."""
    found = [rf.random_separable_set(n, seed, 3) for n in (2, 3, 4) for seed in range(30)]
    for n in (2, 3, 4):
        for m in range(1, n):
            words = (rf.Word((1,), n), rf.Word((m + 1,), n))
            witness = rf.SeparableWitness(
                rank=n,
                split=m,
                automorphism=rf.identity_endomorphism(n),
                factor_sides=(1, 2),
                factor_words=words,
                conjugators=(rf.Word((), n), rf.Word((), n)),
            )
            found.append((tuple(map(rf.conjugacy_class, words)), witness))
    return found


def test_certificates():
    texts = []
    for classes, n in class_sets(2018, 4000):
        cert = rf.decide_tame(classes, n)
        texts.append(rf.certificate_to_text(cert))
    tame = sum("\nverdict: tame\n" in t for t in texts)
    assert tame > 3000 and len(texts) - tame > 800
    assert sha(texts) == DIGESTS["certificates"]


def test_rose_for_basis_and_fold_reports():
    certs, reports = [], []
    for spec in bases():
        cert, _ = rf.rose_for_basis(spec)
        certs.append(rf.certificate_to_text(cert))
        reports.append(printed(main, ["fold", "--basis", ",".join(map(str, spec.images))]))
    assert sha(certs) == DIGESTS["rose_for_basis"]
    assert sha(reports) == DIGESTS["fold_basis"]


def test_rose_for_separable():
    texts = [rf.certificate_to_text(rf.rose_for_separable(w, c)) for c, w in separable_sets()]
    assert sha(texts) == DIGESTS["rose_for_separable"]


def test_almost_rose_atlas(monkeypatch):
    monkeypatch.setattr(sys, "argv", [str(ATLAS), "4"])

    def atlas():
        with pytest.raises(SystemExit) as done:
            runpy.run_path(str(ATLAS), run_name="__main__")
        return done.value.code

    assert sha([printed(atlas)]) == DIGESTS["atlas_4"]


def test_rose_wh():
    outputs = []
    for n in (2, 3, 4):
        for k in range(1, n):
            for l in range(k, n + 1):
                for extra in ([], ["--dot"]):
                    outputs.append(printed(main, ["rose-wh", str(n), str(k), str(l), *extra]))
    assert sha(outputs) == DIGESTS["rose_wh"]
