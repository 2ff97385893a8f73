"""Property tests over the certificate scan's library entry point.

The scan kernel reads the channel corner off the diagonal sign table, which
rests on one identity per site: the corner factors (dx + dy, dx - dy) equal
the diagonal factors (1 + g, 1 - g) bit for bit up to pi/4 (+
``ANGLE_SLACK``) and (1 + g, -(1 - g)) beyond.  ``min_eig_over_grid`` must
answer every finite slope on either domain with a finite minimum, raise
nothing and emit no warning.
"""
from __future__ import annotations

import dataclasses
import math
import warnings

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ghzcert.bell import ANGLE_SLACK, FAMILIES, BellProtocol
from ghzcert.states import g_values
from ghzcert.verifier import (PSD_TOLERANCE, GridSpec, catalog_constants,
                              min_eig_over_grid)
from oracles import channel_corner_factors


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
