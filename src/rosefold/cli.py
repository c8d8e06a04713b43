"""Command-line interface.

Exit codes are a contract: 0 affirmative, 1 negative or declined, or
stdout closed early by its reader (``rosefold orbit 3 8 | head -1``,
with nothing on stderr), 2 usage or parse errors, 3 internal
inconsistency (a certificate of ``tame`` or ``fold --witness`` failing
``verify_certificate``, which should never happen).  A rejected input is a
``ValueError`` wherever it is found, in this module or in the library;
``main`` alone turns it into ``error: <reason>`` on stderr and exit 2.

Output is line-oriented and diff-stable: edge lists are sorted, classes
canonically rotated, and every randomized command is keyed by a seed.
"""

from __future__ import annotations

import argparse
import errno
import functools
import os
import secrets
import stat
import sys
from pathlib import Path

from .folding import fold_report_lines, fold_sequence_to_dot, fold_to_completion
from .graphs import LabeledGraph, parse_graph_text, wedge_of_words
from .oracles import (
    is_verified_automorphism,
    parse_endomorphism_text,
    primitive_orbit,
    random_separable_set,
    separable_witness_to_text,
)
from .tameness import (
    _edge_token,
    _tame_certificate,
    almost_rose,
    certificate_to_text,
    decide_tame,
    recognize_almost_rose,
    verify_certificate,
    whitehead_of_almost_rose,
)
from .whitehead import WhiteheadGraph, components, cut_vertices, whitehead_of_classes, whitehead_to_dot
from .words import (
    LETTER_CHARS,
    MAX_PARSE_RANK,
    CyclicWord,
    TrivialWordError,
    Word,
    _valid_rank,
    conjugacy_class,
    cyclic_reduce,
    free_reduce,
    letter_key,
    normalize_classes,
    parse_letters,
)


def _check_rank(n: int) -> int:
    """The library's rank rule, plus the cap of the 26-letter text form."""
    if _valid_rank(n) > MAX_PARSE_RANK:
        raise ValueError(f"rank must be at most {MAX_PARSE_RANK}, got {n}")
    return n


def _parse_words(texts: list[str], rank_flag: int | None) -> tuple[tuple[Word, ...], int]:
    """Read each character once; the rank is ``--rank`` or the highest letter index (at least 2)."""
    letters = [parse_letters(text) for text in texts]
    max_index = max((abs(v) for ls in letters for v in ls), default=0)
    rank = max(2, max_index) if rank_flag is None else _check_rank(rank_flag)
    if max_index > rank:
        raise ValueError(f"a letter with index {max_index} exceeds rank {rank}")
    return tuple(Word(ls, rank) for ls in letters), rank


def _parse_classes(texts: list[str], rank_flag: int | None) -> tuple[tuple[CyclicWord, ...], int]:
    words, rank = _parse_words(texts, rank_flag)
    try:
        return tuple(cyclic_reduce(w)[0] for w in words), rank
    except TrivialWordError as exc:
        raise ValueError(f"trivial word has no conjugacy class: {exc}") from exc


def _read_text(path: str, what: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise ValueError(f"cannot read {what} file: {exc}") from exc


def _temp_copy(target: Path, text: str, old: os.stat_result | None) -> Path:
    """A new hidden file beside ``target`` holding ``text``, with the
    permission bits of ``old`` (the replaced file) or else the umask's.
    Its name carries a random part, so a file left by a killed run is skipped."""
    for _ in range(100):
        tmp = target.with_name(f".{target.name}.{secrets.token_hex(4)}.tmp")
        try:
            f = open(tmp, "x")
        except FileExistsError:
            continue
        try:
            with f:
                f.write(text)
            if old is not None:
                os.chmod(tmp, stat.S_IMODE(old.st_mode))
            return tmp
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
    raise FileExistsError(errno.EEXIST, "no free temporary name", str(target))


def _write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path``.

    A target that is absent, or a regular file with no other name and the
    caller as owner, in a directory the caller may add files to, is
    replaced atomically (through a symlink): ``text`` goes to a temporary
    file beside it, which ``os.replace`` moves into place.  A replaced
    file keeps its permission bits, and one the caller may not write is
    refused.  Any other target (a device such as /dev/null, a FIFO, a file
    with other hard links or another owner, or one in a directory the
    caller may not add files to) is written in place, as
    ``Path.write_text`` does.  A failed replacement leaves the target as
    it was and removes the temporary file.
    """
    try:
        try:
            st = os.stat(path)
        except FileNotFoundError:
            st = None
        target = Path(os.path.realpath(path))
        sole = st is None or (stat.S_ISREG(st.st_mode) and st.st_nlink == 1 and st.st_uid == os.geteuid())
        if not (sole and os.access(target.parent, os.W_OK | os.X_OK)):
            Path(path).write_text(text)
            return
        if st is not None and not os.access(path, os.W_OK):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES))
        tmp = _temp_copy(target, text, st)
        try:
            os.replace(tmp, target)
        except OSError:
            tmp.unlink(missing_ok=True)
            raise
    except OSError as exc:
        raise ValueError(f"cannot write output file {path}: {exc.strerror or exc}") from exc


def _cut_line(w: WhiteheadGraph) -> str:
    cuts = sorted(cut_vertices(w), key=letter_key)
    return "cut vertices: " + (" ".join(map(LETTER_CHARS.__getitem__, cuts)) or "(none)")


def _print_wh(w: WhiteheadGraph, dot: bool) -> int:
    if dot:
        print(whitehead_to_dot(w), end="")
        return 0
    comps = components(w)
    cut_line = _cut_line(w)
    if len(comps) > 1:
        verdict = f"disconnected ({len(comps)} components)"
    elif cut_line == "cut vertices: (none)":
        verdict = "connected; no cut vertex"
    else:
        verdict = f"connected; {cut_line}"
    chars = LETTER_CHARS.__getitem__
    print(f"rank {w.rank}")
    print("edges: " + (" ".join(map(_edge_token, w.sorted_edges())) or "(none)"))
    print("components: " + " ".join("{" + "".join(map(chars, comp)) + "}" for comp in comps))
    print(cut_line)
    print(verdict)
    return 0


def cmd_reduce(args) -> int:
    (w,), _ = _parse_words([args.word], args.rank)
    print(str(free_reduce(w)))
    return 0


def cmd_wh(args) -> int:
    return _print_wh(whitehead_of_classes(*_parse_classes(args.words, args.rank)), args.dot)


def cmd_cutvx(args) -> int:
    print(_cut_line(whitehead_of_classes(*_parse_classes(args.words, args.rank))))
    return 0


def cmd_tame(args) -> int:
    classes, rank = _parse_classes(args.words, args.rank)
    cert = decide_tame(classes, rank)
    if not verify_certificate(classes, cert, rank):
        print("internal error: certificate failed self-verification", file=sys.stderr)
        return 3
    text = certificate_to_text(cert)
    if args.out:
        _write_text(args.out, text)
    print(text, end="")
    return 0 if cert.tame else 1


def cmd_rose_wh(args) -> int:
    rose = almost_rose(_check_rank(args.n), args.k, args.l)
    return _print_wh(whitehead_of_almost_rose(rose), args.dot)


def _fold_input(args) -> tuple[LabeledGraph, tuple[Word, ...]]:
    """The graph to fold, and the basis words it wedges (none for ``--graph``)."""
    if bool(args.basis) == bool(args.graph):
        raise ValueError("fold needs exactly one of --basis or --graph")
    if args.graph:
        if args.rank is not None:
            raise ValueError("--rank only applies to --basis mode")
        return parse_graph_text(_read_text(args.graph, "graph")), ()
    texts = [t for t in args.basis.split(",") if t]
    if not texts:
        raise ValueError("empty basis")
    basis, rank = _parse_words(texts, args.rank)
    return wedge_of_words(basis, rank).graph, basis


def cmd_fold(args) -> int:
    g, basis = _fold_input(args)
    spec = None
    if args.witness:
        if not basis:
            raise ValueError("--witness only applies to --basis mode")
        if args.dot:
            raise ValueError("--witness does not apply to --dot output")
        spec = parse_endomorphism_text(_read_text(args.witness, "witness"))
        if spec.rank != basis[0].rank:
            raise ValueError(f"witness rank {spec.rank} does not match basis rank {basis[0].rank}")
        if [w.letters for w in spec.images] != [w.letters for w in basis]:
            raise ValueError("witness images do not match the supplied basis")
    seq = fold_to_completion(g)
    if args.dot:
        print(fold_sequence_to_dot(seq), end="")
        return 0
    verified = spec is not None and is_verified_automorphism(spec)
    drop_at = next((i for i, s in enumerate(seq.steps, start=1) if s.betti_dropped), None)
    rose = recognize_almost_rose(seq.penultimate) if seq.steps and drop_at is None else None
    cert = None
    if verified and rose is not None:
        # the readability claim is checked before anything is printed
        first = (conjugacy_class(basis[0]),)
        cert = _tame_certificate(first, rose)
        if cert is not None and not verify_certificate(first, cert):
            print("internal error: certificate failed self-verification", file=sys.stderr)
            return 3
    print("\n".join(fold_report_lines(seq)))
    if spec is not None:
        if not verified:
            print("witness: not a verified automorphism")
            return 1
        print("witness: verified automorphism")
    if not seq.steps:
        print("already folded; no fold steps")
        return 0
    if drop_at is not None:
        print(f"penultimate recognition declined: betti-dropping fold at step {drop_at}")
        return 1
    if rose is None:
        print("penultimate recognition declined: not an almost-rose")
        return 1
    relabel = " ".join(f"{i}->{t}" for i, t in enumerate(rose.targets, start=1))
    print(f"penultimate: almost-rose k={rose.k} l={rose.l} relabel [{relabel}]")
    if spec is not None:
        readable = cert is not None
        print(f"first word readable in almost-rose: {'yes' if readable else 'no'}")
        return 0 if readable else 1
    return 0


def cmd_orbit(args) -> int:
    orbit = primitive_orbit(_check_rank(args.n), args.max_len, args.budget)
    classes = normalize_classes(list(orbit.classes))
    text = "".join(f"{c}\n" for c in classes)
    if args.out:
        _write_text(args.out, text)
    else:
        print(text, end="")
    print(f"classes: {len(classes)}")
    print(f"complete: {'yes' if orbit.complete else 'no'}")
    return 0


def cmd_sep(args) -> int:
    classes, witness = random_separable_set(_check_rank(args.n), args.seed, args.count, args.max_len)
    text = separable_witness_to_text(classes, witness)
    if args.out:
        _write_text(args.out, text)
    else:
        print(text, end="")
    print(f"classes: {len(classes)}")
    print(f"split: {witness.split}")
    return 0


def cmd_check(args) -> int:
    from . import acceptance  # only ``check`` needs the criteria and their oracles

    selected = acceptance.CRITERIA
    if args.only:
        unknown = [name for name in args.only if name not in acceptance.CRITERIA]
        if unknown:
            raise ValueError(f"unknown criteria: {' '.join(unknown)}")
        selected = {name: acceptance.CRITERIA[name] for name in args.only}
    passed = True
    for criterion in selected.values():
        result = criterion()
        print(result.line())
        passed &= result.passed
    return 0 if passed else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rosefold",
        description="Folding machinery, Whitehead graphs, and tameness certificates",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reduce", help="freely reduce a word")
    p.add_argument("word")
    p.add_argument("--rank", type=int)
    p.set_defaults(fn=cmd_reduce)

    p = sub.add_parser("wh", help="Whitehead graph of conjugacy classes")
    p.add_argument("words", nargs="+")
    p.add_argument("--rank", type=int)
    p.add_argument("--dot", action="store_true")
    p.set_defaults(fn=cmd_wh)

    p = sub.add_parser("cutvx", help="cut vertices of the Whitehead graph")
    p.add_argument("words", nargs="+")
    p.add_argument("--rank", type=int)
    p.set_defaults(fn=cmd_cutvx)

    p = sub.add_parser("tame", help="decide tameness with a certificate")
    p.add_argument("words", nargs="+")
    p.add_argument("--rank", type=int)
    p.add_argument("--out", help="also write the certificate to this file")
    p.set_defaults(fn=cmd_tame)

    p = sub.add_parser("fold", help="fold a wedge of words or a graph file")
    p.add_argument("--basis", help="comma-separated words")
    p.add_argument("--graph", help="graph file")
    p.add_argument("--witness", help="basis witness file (image/inverse lines)")
    p.add_argument("--rank", type=int)
    p.add_argument("--dot", action="store_true")
    p.set_defaults(fn=cmd_fold)

    p = sub.add_parser("rose-wh", help="Whitehead graph of the standard almost-rose")
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)
    p.add_argument("l", type=int)
    p.add_argument("--dot", action="store_true")
    p.set_defaults(fn=cmd_rose_wh)

    p = sub.add_parser("orbit", help="primitive classes via Nielsen moves")
    p.add_argument("n", type=int)
    p.add_argument("max_len", type=int)
    p.add_argument("--budget", type=int, default=2_000_000)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_orbit)

    p = sub.add_parser("sep", help="seeded separable set with witness")
    p.add_argument("n", type=int)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--count", type=int, default=4)
    p.add_argument("--max-len", type=int, default=10)
    p.add_argument("--out", help="write the witness, with its classes, to this file instead")
    p.set_defaults(fn=cmd_sep)

    p = sub.add_parser("check", help="run the acceptance criteria")
    p.add_argument("--only", nargs="+", help="criterion names to run")
    p.set_defaults(fn=cmd_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed pipe shows here, inside the try
        return code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader left early; point stdout at devnull so that the flush
        # at interpreter exit cannot fail again (Python's ``signal`` docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
