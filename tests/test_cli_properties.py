"""Property tests over ``cli.main``: every input maps to an exit code.

For finite, in-range and arbitrary config input alike, ``main`` must return
0 (success), 1 (check failed), 2 (input error) or 3 (structure violation),
raise nothing and emit no warning; a ``verify`` exit 0 must rest on a finite
minimum and threshold.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
import tempfile
import warnings

from hypothesis import example, given, settings
from hypothesis import strategies as st

from ghzcert.cli import main

FAMILIES = st.sampled_from(["svetlichny", "mabk"])
FINITE = st.floats(min_value=-1e308, max_value=1e308, allow_nan=False)
CONFIG_KEYS = ["family", "n", "grid", "tol", "format", "out", "full_domain",
               "s", "mu", "visibility", "shots", "seed", "resolution",
               "samples", "config", "command", "res", "unknown"]
# Short arbitrary text keeps any value read as a count below 100, so no
# example asks for a long run; the sampled values reach the other branches.
CONFIG_VALUES = st.one_of(
    st.text(st.characters(blacklist_categories=("Cs",),
                          blacklist_characters="\r\n/"), max_size=2),
    st.sampled_from(["yes", "maybe", "on", "json", "yaml", "text", "csv",
                     "mabk", "1e308", "-1e308", "nan", "inf", "-0", "2.5",
                     "-5", "5", "7", "0x10", " 4 ", "="]))


def run(argv):
    """``main(argv)`` in a scratch directory with warnings as errors."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch, \
            warnings.catch_warnings():
        warnings.simplefilter("error")
        os.chdir(scratch)
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = main(argv)
        finally:
            os.chdir(cwd)
    assert code in (0, 1, 2, 3), (argv, code, err.getvalue())
    return code, out.getvalue()


@settings(max_examples=40, deadline=None)
@example(family="svetlichny", n=3, grid=5, full_domain=False, s=1e308,
         mu=None, tol=1e-8)
@example(family="mabk", n=5, grid=2, full_domain=True, s=1e-308, mu=-1e308,
         tol=1e308)
@given(family=FAMILIES, n=st.integers(3, 5), grid=st.integers(2, 9),
       full_domain=st.booleans(), s=st.none() | FINITE,
       mu=st.none() | FINITE, tol=FINITE)
def test_verify_maps_every_finite_input_to_an_exit_code(family, n, grid,
                                                        full_domain, s, mu,
                                                        tol):
    argv = ["verify", "--family", family, "-n", str(n), "--grid", str(grid),
            f"--tol={tol!r}", "--format", "json"]
    argv += [f"--s={s!r}"] if s is not None else []
    argv += [f"--mu={mu!r}"] if mu is not None else []
    argv += ["--full-domain"] if full_domain else []
    code, out = run(argv)
    if code == 0:
        report = json.loads(out)
        assert report["passed"] is True
        assert math.isfinite(report["min_eigenvalue"])
        assert math.isfinite(report["beta_T"])


@settings(max_examples=15, deadline=None)
@example(family="svetlichny", shots=2 ** 63 - 1, seed=0)
@example(family="mabk", shots=2 ** 63, seed=0)
@example(family="mabk", shots=2 ** 70, seed=0)
@given(family=FAMILIES, shots=st.integers(1, 2 ** 70),
       seed=st.integers(0, 2 ** 32))
def test_simulate_maps_every_shot_count_to_an_exit_code(family, shots, seed):
    code, out = run(["simulate", "--family", family, "-n", "3",
                     "--shots", str(shots), "--seed", str(seed)])
    assert code == (0 if shots <= 2 ** 63 - 1 else 2)
    assert (f"shots_per_setting={shots} " in out) == (code == 0)


@settings(max_examples=15, deadline=None)
@given(family=FAMILIES, n=st.integers(3, 4), samples=st.integers(-5, 5))
def test_crosscheck_never_passes_an_empty_sample(family, n, samples):
    code, out = run(["crosscheck", "--family", family, "-n", str(n),
                     "--samples", str(samples)])
    if code == 0:
        assert samples >= 1 and "result=pass" in out


@settings(max_examples=20, deadline=None)
@given(family=FAMILIES, n=st.integers(3, 5),
       resolution=st.integers(-2, 200))
def test_curve_maps_every_resolution_to_an_exit_code(family, n, resolution):
    code, out = run(["curve", "--family", family, "-n", str(n),
                     "--resolution", str(resolution)])
    assert code == (0 if resolution >= 2 else 2)
    assert len(out.splitlines()) == (resolution + 1 if code == 0 else 0)


@settings(max_examples=60, deadline=None)
@given(command=st.sampled_from(["bounds", "verify", "curve", "simulate",
                                "crosscheck"]),
       lines=st.dictionaries(st.sampled_from(CONFIG_KEYS), CONFIG_VALUES,
                             max_size=3))
def test_any_config_value_maps_to_an_exit_code(command, lines):
    lines = {"samples": "3", **lines}
    with tempfile.TemporaryDirectory() as folder:
        path = os.path.join(folder, "run.cfg")
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(f"{key}={value}\n"
                              for key, value in lines.items())
        code, out = run([command, "--config", path])
    if command == "verify" and code == 0 and out:
        assert math.isfinite(min_eigenvalue(out))


def min_eigenvalue(report: str) -> float:
    """``min_eigenvalue`` of a verify report in any of its formats."""
    if report.startswith("{"):
        return json.loads(report)["min_eigenvalue"]
    rows = report.splitlines()
    if rows[0].startswith("family="):
        fields = dict(row.split("=", 1) for row in rows)
    else:
        fields = dict(zip(rows[0].split(","), rows[1].split(",")))
    return float(fields["min_eigenvalue"])
