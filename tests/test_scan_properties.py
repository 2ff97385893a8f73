"""Property tests over the certificate scan's library entry point.

``linalg.walk_canonical``, the one chunked walk the scan and the quantum
bound's grid check run over, must visit every canonical point once, in
order, for any axes that coincide and any chunk size.

The scan kernel reads the channel corner off the diagonal sign table, which
rests on one identity per site: the corner factors (dx + dy, dx - dy) equal
the diagonal factors (1 + g, 1 - g) bit for bit up to pi/4 (+
``ANGLE_SLACK``) and (1 + g, -(1 - g)) beyond.  ``min_eig_over_grid`` must
answer every finite slope on either domain with a finite minimum, raise
nothing and emit no warning.  Its refinement stencils, built in one call
over every axis, must equal the per-axis construction bit for bit.
"""
from __future__ import annotations

import dataclasses
import math
import warnings
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ghzcert.linalg
from ghzcert.bell import ANGLE_SLACK, FAMILIES, BellProtocol
from ghzcert.linalg import canonical_indices, walk_canonical
from ghzcert.states import g_values
from ghzcert.verifier import (PSD_TOLERANCE, REFINEMENT_DEPTH, GridSpec,
                              _stencil, catalog_constants, min_eig_over_grid)
from oracles import channel_corner_factors, per_axis_stencil


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
    p, h, hi = case
    got = _stencil(p, h, 0.0, hi)
    want = per_axis_stencil(p, h, 0.0, hi)
    assert len(got) == len(want)
    for axis, expected in zip(got, want):
        assert axis.tobytes() == expected.tobytes()


@st.composite
def walk_cases(draw):
    """1 to 5 axes of 1 to 9 points, some equal to others as refinement
    stencils make them, and a chunk size from one point to more than the
    whole grid, in block evaluations."""
    distinct = draw(st.lists(
        st.lists(st.floats(0.0, math.pi / 2), min_size=1, max_size=9,
                 unique=True).map(sorted), min_size=1, max_size=5))
    picks = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=1,
                          max_size=5))
    axes = [np.array(distinct[i]) for i in picks]
    half = 2 ** (len(axes) - 1)
    total = canonical_indices(axes).shape[1]
    evaluations = draw(st.integers(1, (total + 2) * half))
    return axes, evaluations


@settings(max_examples=300, deadline=None)
@given(case=walk_cases())
def test_walk_canonical_visits_every_canonical_point_in_order(case):
    axes, evaluations = case
    n, half = len(axes), 2 ** (len(axes) - 1)
    offsets = np.cumsum([0] + [len(a) for a in axes[:-1]])[:, None]
    step = max(1, evaluations // half)
    starts, cols = [], []
    with mock.patch.object(ghzcert.linalg, "SCAN_CHUNK_EVALUATIONS",
                           evaluations):
        for start, buffers in walk_canonical(axes):
            m = buffers["cols"].shape[1]
            assert {name: b.shape for name, b in buffers.items()} == {
                "table": (2 * half, m), "low": (half, m),
                "scratch": (2, half, m), "channel": (half, m),
                "bell": (half, m), "cols": (n, m), "factors": (2, n, m)}
            starts.append(start)
            cols.append(buffers["cols"].copy())
    counts = [c.shape[1] for c in cols]
    assert starts == list(np.cumsum([0] + counts[:-1]))
    assert all(m == step for m in counts[:-1]) and 1 <= counts[-1] <= step
    want = canonical_indices(axes).astype(np.intp) + offsets
    assert np.array_equal(np.concatenate(cols, axis=1), want)
