#!/usr/bin/env python3
"""Print the admissible Newton-point posets for a few small cocharacters and
optionally write their DOT digraphs."""

import argparse

from bunncalc import ascii_text, d_point, dot_export, enumerate_B, hasse


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--dot-dir", help="write one DOT file per poset here")
    args = ap.parse_args()

    gallery = [
        (2, (1, 0)),
        (3, (1, 0, 0)),
        (4, (1, 1, 0, 0)),
        (5, (2, 1, 0, 0, 0)),
    ]
    for n, mu in gallery:
        pts = enumerate_B(n, mu)
        print(f"n={n} mu={mu}: {len(pts)} points")
        for p in pts:
            print(f"  nu={p} kappa={p.kappa} d={d_point(p)}")
        for lo, hi in hasse(pts):
            print(f"  edge {lo} -> {hi}")
        if args.dot_dir:
            path = f"{args.dot_dir}/poset_n{n}_{'_'.join(map(str, mu))}.dot"
            with open(path, "w") as fh:
                fh.write(ascii_text(dot_export(pts)))
            print(f"  wrote {path}")
        print()


if __name__ == "__main__":
    main()
