"""The certificate scan's batched refinement.

``min_eig_over_grid`` scans every remaining refinement round around the
current centre in one walk of the scan kernel and accepts the rounds in
order; a round with a smaller minimum moves the centre, and the rounds
after it are scanned again around the new one.  Each round keeps its own
layout and tie rule, so every report field equals the one the scan gave
when it refined one round per kernel call (``sequential_refinement``), and
``block_evaluations`` counts each accepted round once.
"""
from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

import ghzcert.verifier
from ghzcert.bell import MABK, SVETLICHNY, BellProtocol
from ghzcert.verifier import (REFINEMENT_DEPTH, GridSpec,
                              _min_block_over_products, _stencils,
                              catalog_constants, min_eig_over_grid)
from oracles import (complex_min_block_over_axes, per_axis_stencil,
                     real_min_block_over_axes, sequential_refinement)

PROTOCOLS = [BellProtocol(family, n) for family in (SVETLICHNY, MABK)
             for n in (3, 4, 5)]
# Catalog scans whose refinement moves the centre before its last round,
# and the 0-based rounds that move it, two per domain.  Each move lowers
# the minimum by 2.2e-16 or 4.4e-16, rounding at the scale of the block
# entries, so the list follows the kernel's rounding.
CENTRE_MOVES = [
    (MABK, 4, 11, math.pi / 4, [2]),
    (SVETLICHNY, 4, 7, math.pi / 4, [1]),
    (SVETLICHNY, 3, 2, math.pi / 2, [0]),
    (MABK, 4, 7, math.pi / 2, [2]),
]


@pytest.fixture
def walks(monkeypatch):
    """Counts the scan kernel's walks over the canonical points, one per
    call."""
    count = [0]
    kernel = ghzcert.verifier._min_block_over_products

    def counting(*args):
        count[0] += 1
        return kernel(*args)

    monkeypatch.setattr(ghzcert.verifier, "_min_block_over_products",
                        counting)
    return count


def _scan(constants, grid, walks):
    walks[0] = 0
    report = min_eig_over_grid(constants, grid)
    return report, walks[0]


@pytest.mark.parametrize("protocol", PROTOCOLS,
                         ids=lambda p: f"{p.family}-{p.n}")
def test_batched_refinement_equals_sequential_rounds(protocol, walks):
    # A refining scan walks once for the grid pass, once per round that
    # moves the centre and once more unless the last move is the last
    # round.
    base = catalog_constants(protocol)
    for points in (2, 5, 7, 9, 11, 21):
        for hi in (math.pi / 4, math.pi / 2):
            for factor in (1.0, 1.0000001, 0.9999):
                constants = dataclasses.replace(base, s=factor * base.s)
                grid = GridSpec(points_per_axis=points, domain=(0.0, hi))
                report, count = _scan(constants, grid, walks)
                want, moves = sequential_refinement(constants, grid)
                assert report == want
                if not report.refined:
                    assert count == 1
                else:
                    last = bool(moves) and moves[-1] == REFINEMENT_DEPTH - 1
                    assert count == 1 + len(moves) + (not last)


@pytest.mark.parametrize("family, n, points, hi, rounds", CENTRE_MOVES)
def test_centre_moving_scans_batch_again(family, n, points, hi, rounds,
                                         walks):
    constants = catalog_constants(BellProtocol(family, n))
    grid = GridSpec(points_per_axis=points, domain=(0.0, hi))
    report, count = _scan(constants, grid, walks)
    want, moves = sequential_refinement(constants, grid)
    assert moves == rounds
    assert report == want and report.refined and report.passed
    assert count == 1 + len(rounds) + 1


def test_catalog_scans_walk_once_per_batch(walks):
    # Svetlichny n = 4 never moves the centre on grid 21: the grid pass and
    # one batch of all six rounds.  MABK n = 4 over [0, pi/2] moves it once,
    # at round 2, and walks the three rounds after it again.
    report, count = _scan(catalog_constants(BellProtocol(SVETLICHNY, 4)),
                          GridSpec(points_per_axis=21), walks)
    assert report.refined and count == 2
    report, count = _scan(catalog_constants(BellProtocol(MABK, 4)),
                          GridSpec(points_per_axis=21,
                                   domain=(0.0, math.pi / 2)), walks)
    assert report.refined and count == 1 + 2


@pytest.mark.parametrize("points", [1, 3, 7])
@pytest.mark.parametrize("protocol", PROTOCOLS,
                         ids=lambda p: f"{p.family}-{p.n}")
def test_batch_kernel_equals_each_stencil_alone(monkeypatch, protocol,
                                                points):
    # Chunks of 1, 3 and 7 points end inside grids and between them;
    # each stencil's minimum, point, pair and count are still those of the
    # real route over that stencil alone, and its minimum that of the
    # complex route to 1e-15.  Centres on the pi/4 face keep the n = 5
    # stencils small.
    n = protocol.n
    monkeypatch.setattr(ghzcert.verifier, "SCAN_CHUNK_EVALUATIONS",
                        points * 2 ** (n - 1))
    constants = catalog_constants(protocol)
    rng = np.random.default_rng(200 + n)
    centres = [((0.3,) + (math.pi / 4,) * (n - 1), math.pi / 4, 0.05),
               ((math.pi / 4,) * n, math.pi / 2, 0.1)]
    if n == 3:
        centres += [(tuple(rng.uniform(0.0, hi, size=n)), hi, 0.2)
                    for hi in (math.pi / 4, math.pi / 2)]
    for centre, hi, h in centres:
        p = np.array(centre)
        steps = h / 2.0 ** np.arange(REFINEMENT_DEPTH)
        for s in (constants.s, 1.1 * constants.s):
            got = _min_block_over_products(protocol, s, constants.mu,
                                           *_stencils(p, steps, 0.0, hi))
            alone = [per_axis_stencil(p, step, 0.0, hi) for step in steps]
            assert got == [real_min_block_over_axes(
                protocol, s, constants.mu, axes) for axes in alone]
            for (value, *_), axes in zip(got, alone):
                assert abs(value - complex_min_block_over_axes(
                    protocol, s, constants.mu, axes)[0]) <= 1e-15
