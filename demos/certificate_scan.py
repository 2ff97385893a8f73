"""Certify K >= s*W + mu*I on a grid for every protocol, then break it.

For each protocol the scan reduces the certificate operator to 2x2 blocks,
minimises the lower block eigenvalue over the angle grid, and refines around
the minimum.  A final run with s inflated by 10% shows the scan actually
rejects invalid constants.
"""
from __future__ import annotations

import argparse
import time

from ghzcert import (MABK, SVETLICHNY, BellProtocol, CertificateConstants,
                     GridSpec, catalog_constants, min_eig_over_grid)


def scan(constants: CertificateConstants, points: int) -> None:
    protocol = constants.protocol
    t0 = time.perf_counter()
    report = min_eig_over_grid(constants, GridSpec(points_per_axis=points))
    dt = time.perf_counter() - t0
    angles = ", ".join(f"{a:.4f}" for a in report.argmin_angles)
    status = "certified" if report.passed else "REJECTED"
    print(f"[scan] {protocol.family}{protocol.n} grid={points}^{protocol.n} "
          f"min={report.min_eigenvalue:+.2e} at ({angles}) "
          f"refined={report.refined} {dt:.2f}s -> {status}")


def main() -> None:
    ap = argparse.ArgumentParser(description="Run the certification scans")
    ap.add_argument("--points", type=int, default=None,
                    help="grid points per axis (default 21, 11 for n=5)")
    args = ap.parse_args()

    for family in (SVETLICHNY, MABK):
        for n in (3, 4, 5):
            protocol = BellProtocol(family, n)
            points = args.points or (11 if n == 5 else 21)
            scan(catalog_constants(protocol), points)

    print()
    print("Negative control: inflate s by 10% and watch the scan fail.")
    protocol = BellProtocol(SVETLICHNY, 3)
    constants = catalog_constants(protocol)
    s = 1.1 * constants.s
    broken = CertificateConstants(protocol=protocol, s=s, mu=constants.mu,
                                  beta_T=(0.5 - constants.mu) / s)
    scan(broken, args.points or 21)


if __name__ == "__main__":
    main()
