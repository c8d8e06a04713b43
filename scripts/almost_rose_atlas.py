#!/usr/bin/env python3
"""List every almost-rose of a given rank up to label isomorphism and
optionally write DOT files of the graphs and their Whitehead graphs.

Usage: python3 scripts/almost_rose_atlas.py [rank] [--dot OUTDIR]
"""

import argparse
import os
import sys
from pathlib import Path

from rosefold import (
    cut_vertices,
    enumerate_almost_roses,
    graph_to_dot,
    whitehead_to_dot,
)
from rosefold.words import LETTER_CHARS


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("rank", type=int, nargs="?", default=2)
    parser.add_argument("--dot", metavar="OUTDIR", help="write DOT files here")
    args = parser.parse_args()

    roses = enumerate_almost_roses(args.rank)
    print(f"rank {args.rank}: {len(roses)} almost-roses up to label isomorphism")
    outdir = Path(args.dot) if args.dot else None
    if outdir:
        outdir.mkdir(parents=True, exist_ok=True)
    for i, rose in enumerate(roses):
        relabel = " ".join(
            f"{j}->{t}" for j, t in enumerate(rose.targets, start=1)
        )
        wh = rose.whitehead
        cuts = "".join(sorted(LETTER_CHARS[v] for v in cut_vertices(wh)))
        print(f"  [{i:02d}] k={rose.k} l={rose.l} relabel [{relabel}] wh-cut-vertices {cuts}")
        if outdir:
            (outdir / f"rose_{args.rank}_{i:02d}.dot").write_text(graph_to_dot(rose.graph))
            (outdir / f"rose_{args.rank}_{i:02d}_wh.dot").write_text(whitehead_to_dot(wh))
    return 0


if __name__ == "__main__":
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left early (``| head -1``): exit quietly, as rosefold does
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)
