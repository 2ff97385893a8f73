"""Emit the fidelity-versus-violation tradeoff curves as CSV files.

Each curve runs from the threshold violation beta_T (where the certified
fidelity crosses 1/2) up to the quantum bound beta_Q (where it reaches 1),
and the script prints where each curve starts on the relative-violation axis.
"""
from __future__ import annotations

import argparse
from pathlib import Path

from ghzcert import (MABK, SVETLICHNY, BellProtocol, catalog_constants,
                     curve_to_csv, emit_curve, tightness_check)


def main() -> None:
    ap = argparse.ArgumentParser(description="Write tradeoff curves to CSV")
    ap.add_argument("--out", default="demos/out", help="output directory")
    ap.add_argument("--resolution", type=int, default=50)
    args = ap.parse_args()

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    for family in (SVETLICHNY, MABK):
        for n in (3, 4, 5):
            protocol = BellProtocol(family, n)
            curve = emit_curve(protocol, resolution=args.resolution)
            path = out_dir / f"curve_{family}{n}.csv"
            path.write_text(curve_to_csv(curve))
            first = curve.points[0]
            beta_t = catalog_constants(protocol).beta_T
            tight = tightness_check(protocol)
            print(f"[curve] {family}{n}: beta_T={beta_t:.6f} "
                  f"relative threshold={first.relative_violation:.6f} "
                  f"tight={tight} -> {path}")


if __name__ == "__main__":
    main()
