"""Property tests over the certificate scan's library entry point.

The scan kernel ``_min_block_over_products`` walks several grids end to
end in chunks; for any axes that coincide, any number of grids and any
chunk size, each grid's minimum, point, pair and count must be those of
the grid scanned alone, bit for bit, and those of the real route over its
brute-force canonical points.

The scan kernel reads the channel corner off the diagonal sign table, which
rests on one identity per site: the corner factors (dx + dy, dx - dy) equal
the diagonal factors (1 + g, 1 - g) bit for bit up to pi/4 (+
``ANGLE_SLACK``) and (1 + g, -(1 - g)) beyond.  ``min_eig_over_grid`` must
answer every finite slope on either domain with a finite minimum, raise
nothing and emit no warning.  Its refinement stencils, every remaining
round's built in one call over every axis, must equal the per-axis
construction bit for bit, and the stencils' layouts must take the points
and order of the brute-force ``canonical_tuples``.  The
kernel's value at one point, read through the shared corner phase, must be
the least block eigenvalue of the assembled certificate matrix there.
"""
from __future__ import annotations

import dataclasses
import math
import warnings
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ghzcert.verifier
from ghzcert.bell import ANGLE_SLACK, FAMILIES, BellProtocol
from ghzcert.linalg import canonical_layouts, least_block_eigenvalue
from ghzcert.states import g_values
from ghzcert.verifier import (PSD_TOLERANCE, REFINEMENT_DEPTH, GridSpec,
                              _min_block_over_products, _stencils,
                              block_decompose, build_T, catalog_constants,
                              min_eig_over_grid)
from oracles import (canonical_tuples, channel_corner_factors, padded_grid,
                     per_axis_stencil, real_min_block_over_axes)


def bits(x: float) -> bytes:
    return np.float64(x).tobytes()


@settings(max_examples=200, deadline=None)
@example(alpha=0.0)
@example(alpha=math.pi / 4)
@example(alpha=math.pi / 4 + ANGLE_SLACK)
@example(alpha=math.pi / 4 + 2 * ANGLE_SLACK)
@example(alpha=math.pi / 2)
@given(alpha=st.floats(min_value=0.0, max_value=math.pi / 2))
def test_channel_corner_factors_are_signed_diagonal_factors(alpha):
    a = np.array([alpha])
    g = g_values(a)[0]
    dx, dy = (f[0] for f in channel_corner_factors(a))
    assert bits(dx + dy) == bits(1.0 + g)
    if alpha <= math.pi / 4 + ANGLE_SLACK:
        assert bits(dx - dy) == bits(1.0 - g)
    else:
        assert bits(dx - dy) == bits(-(1.0 - g))


@settings(max_examples=40, deadline=None)
@example(family="svetlichny", n=5, s=-1e3, grid=9, full_domain=True)
@example(family="mabk", n=3, s=1e3, grid=2, full_domain=False)
# The catalog slope of Svetlichny n = 4, which takes the refinement path.
@example(family="svetlichny", n=4, s=0.15088834764831843, grid=9,
         full_domain=False)
@given(family=st.sampled_from(FAMILIES), n=st.integers(3, 5),
       s=st.floats(min_value=-1e3, max_value=1e3),
       grid=st.integers(2, 9), full_domain=st.booleans())
def test_min_eig_over_grid_answers_every_finite_slope(family, n, s, grid,
                                                      full_domain):
    constants = dataclasses.replace(
        catalog_constants(BellProtocol(family, n)), s=s)
    hi = math.pi / 2 if full_domain else math.pi / 4
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = min_eig_over_grid(constants,
                                   GridSpec(points_per_axis=grid,
                                            domain=(0.0, hi)))
    assert math.isfinite(report.min_eigenvalue)
    assert report.passed is (report.min_eigenvalue >= -PSD_TOLERANCE)
    assert all(0.0 <= angle <= hi for angle in report.argmin_angles)
    assert 0 <= report.binding_pair < 2 ** (n - 1)


@st.composite
def certificate_points(draw):
    """A scenario, a point of either domain, a slope of 0.5-1.5 times the
    catalog's and a free offset mu."""
    protocol = BellProtocol(draw(st.sampled_from(FAMILIES)),
                            draw(st.integers(3, 5)))
    hi = draw(st.sampled_from([math.pi / 4, math.pi / 2]))
    # Axes at 0, at pi/4, just either side of it, at hi, or anywhere.
    axis = st.one_of(st.sampled_from([0.0, math.pi / 4 - 1e-9, math.pi / 4,
                                      math.pi / 4 + 1e-9, hi]),
                     st.floats(min_value=0.0, max_value=hi))
    point = [min(draw(axis), hi) for _ in range(protocol.n)]
    s = catalog_constants(protocol).s * draw(st.floats(0.5, 1.5))
    return protocol, point, s, draw(st.floats(-2.0, 2.0))


@settings(max_examples=150, deadline=None)
@given(case=certificate_points())
def test_kernel_at_one_point_is_the_least_block_eigenvalue(case):
    protocol, point, s, mu = case
    (value, at, _, count), = _min_block_over_products(
        protocol, s, mu, *padded_grid([np.array([a]) for a in point]))
    blocks = block_decompose(build_T(protocol, point, s, mu), protocol.n)
    assert abs(value - least_block_eigenvalue(blocks)) <= 1e-14
    assert at == tuple(point) and count == 2 ** (protocol.n - 1)


@st.composite
def stencil_cases(draw):
    """A domain, a grid step h0 / 2^k and centres at or near lo, pi/4, hi."""
    hi = draw(st.sampled_from([math.pi / 4, math.pi / 2]))
    points = draw(st.integers(2, 227))
    h = hi / (points - 1) / 2 ** draw(st.integers(0, REFINEMENT_DEPTH))
    anchors = st.sampled_from([0.0, math.pi / 4, hi])
    near = st.floats(min_value=-3.0, max_value=3.0)
    centres = draw(st.lists(st.tuples(anchors, near, st.booleans()),
                            min_size=1, max_size=5))
    # A centre sits exactly on its anchor or within 3 h of it, inside the
    # domain, as every scan minimiser does.
    p = np.array([min(max(a + t * h, 0.0), hi) if off else a
                  for a, t, off in centres])
    return p, h, hi


@settings(max_examples=300, deadline=None)
@given(case=stencil_cases())
def test_one_call_stencil_matches_per_axis_stencil(case):
    # One call builds every remaining round's stencil; round k, at step
    # h / 2^k, holds the per-axis stencil, each row padded with its last
    # point, and the layout canonical_tuples gives those axes.
    p, h, hi = case
    steps = h / 2.0 ** np.arange(REFINEMENT_DEPTH)
    rows, lengths = _stencils(p, steps, 0.0, hi)
    assert rows.shape == (REFINEMENT_DEPTH, len(p), 5)
    layouts = canonical_layouts(rows, lengths)
    for step, stencil, sizes, layout in zip(steps, rows, lengths, layouts):
        want = per_axis_stencil(p, step, 0.0, hi)
        assert sizes.tolist() == [len(axis) for axis in want]
        for row, expected in zip(stencil, want):
            assert row[:len(expected)].tobytes() == expected.tobytes()
            assert (row[len(expected):] == expected[-1]).all()
        assert np.array_equal(layout, canonical_tuples(want))


@st.composite
def walk_cases(draw):
    """1 to 3 grids of the same 3 to 5 axes of 1 to 9 points, some equal to
    others as refinement stencils make them, and a chunk size from one
    point to more than all the grids, in block evaluations."""
    n = draw(st.integers(3, 5))
    grids = []
    for _ in range(draw(st.integers(1, 3))):
        distinct = draw(st.lists(
            st.lists(st.floats(0.0, math.pi / 2), min_size=1, max_size=9,
                     unique=True).map(sorted), min_size=1, max_size=n))
        picks = draw(st.lists(st.integers(0, len(distinct) - 1),
                              min_size=n, max_size=n))
        grids.append([np.array(distinct[i]) for i in picks])
    total = sum(canonical_tuples(axes).shape[1] for axes in grids)
    evaluations = draw(st.integers(1, (total + 2) * 2 ** (n - 1)))
    return grids, evaluations


@settings(max_examples=300, deadline=None)
@given(case=walk_cases(), family=st.sampled_from(FAMILIES))
def test_kernel_walks_every_grid_as_it_walks_it_alone(case, family):
    # The grids are walked end to end, padded to one width, and a chunk may
    # end one and start the next; still each grid's minimum, point, pair and
    # count are those of the grid scanned alone, which are the real route's
    # over canonical_tuples, one value per canonical point and pair.
    grids, evaluations = case
    n, width = len(grids[0]), 9
    protocol = BellProtocol(family, n)
    constants = catalog_constants(protocol)
    s, mu = constants.s, constants.mu
    lengths = np.array([[len(axis) for axis in axes] for axes in grids])
    rows = np.array([[np.concatenate([axis, [axis[-1]] * (width - len(axis))])
                      for axis in axes] for axes in grids])
    with mock.patch.object(ghzcert.verifier, "SCAN_CHUNK_EVALUATIONS",
                           evaluations):
        got = _min_block_over_products(protocol, s, mu, rows, lengths)
    assert len(got) == len(grids)
    for result, axes in zip(got, grids):
        (alone,) = _min_block_over_products(protocol, s, mu,
                                            *padded_grid(axes))
        assert bits(result[0]) == bits(alone[0]) and result == alone
        assert result == real_min_block_over_axes(protocol, s, mu, axes)
        assert result[3] == canonical_tuples(axes).shape[1] * 2 ** (n - 1)
