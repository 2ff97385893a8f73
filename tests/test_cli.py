"""Command-line interface: exit codes, output formats, and config handling."""
from __future__ import annotations

import dataclasses
import json
import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest

import ghzcert.bell
import ghzcert.cli
import ghzcert.tradeoff
import ghzcert.verifier
from ghzcert.bell import SVETLICHNY, BellProtocol
from ghzcert.cli import main
from ghzcert.tradeoff import MAX_CURVE_POINTS
from ghzcert.verifier import MAX_CROSSCHECK_SAMPLES, StructureViolation
from oracles import PastValidation, full_parse, stop_past_validation

SQ2 = math.sqrt(2.0)


def test_bounds_pass(capsys):
    assert main(["bounds", "--family", "mabk", "-n", "4"]) == 0
    out = capsys.readouterr().out
    assert "2.82842712475" in out
    assert "8" in out


def test_bounds_reports_catalog_mismatch(capsys):
    assert main(["bounds", "--family", "svetlichny", "-n", "4"]) == 1
    out = capsys.readouterr().out
    assert "4" in out and "8" in out


def test_bounds_failed_cross_check_exits_1_with_one_error_line(
        monkeypatch, capsys):
    table = np.array([[2.0, 1.0], [0.0, 0.0]])
    table.setflags(write=False)
    monkeypatch.setattr(ghzcert.bell, "_pair_zero_products", lambda n: table)
    assert main(["bounds", "--family", "mabk", "-n", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("error: quantum_bound cross-check failed: ")
    assert "Traceback" not in captured.err


def test_bounds_deterministic(capsys):
    main(["bounds", "--family", "mabk", "-n", "3"])
    first = capsys.readouterr().out
    main(["bounds", "--family", "mabk", "-n", "3"])
    second = capsys.readouterr().out
    assert first == second


def test_verify_pass(capsys):
    assert main(["verify", "--family", "svetlichny", "-n", "3"]) == 0
    out = capsys.readouterr().out
    assert "passed" in out


def test_float_party_count_cannot_poison_the_catalog_cache():
    # BellProtocol(svetlichny, 3.0) once equalled the n = 3 scenario as a
    # cache key, so catalog_constants kept its float n and the next verify
    # -n 3 in the process raised TypeError out of main.
    with pytest.raises(ValueError, match="3.0"):
        ghzcert.verifier.catalog_constants(BellProtocol(SVETLICHNY, 3.0))
    assert main(["verify", "-n", "3", "--grid", "5"]) == 0


def test_verify_fails_with_broken_slope():
    assert main(["verify", "--family", "svetlichny", "-n", "3",
                 "--s", "0.5"]) == 1


def test_verify_json_report(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    assert main(["verify", "--family", "mabk", "-n", "4", "--format", "json",
                 "--out", str(out_path)]) == 0
    payload = json.loads(out_path.read_text())
    assert payload["family"] == "mabk"
    assert payload["n"] == 4
    assert payload["passed"] is True
    assert payload["min_eigenvalue"] >= -1e-8
    assert len(payload["argmin_angles"]) == 4


def test_verify_full_domain():
    assert main(["verify", "--family", "svetlichny", "-n", "4",
                 "--grid", "7", "--full-domain"]) == 0


def test_verify_appends_scan_fields(capsys):
    args = ["verify", "--family", "svetlichny", "-n", "3"]
    assert main(args + ["--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    keys = list(payload)
    assert keys[:10] == ["family", "n", "s", "mu", "beta_T",
                         "grid_points_per_axis", "min_eigenvalue",
                         "argmin_angles", "refined", "passed"]
    assert keys[10:] == ["binding_pair", "block_evaluations"]
    assert payload["block_evaluations"] > math.comb(21 + 2, 3) * 4
    assert main(args + ["--format", "csv"]) == 0
    header, row = capsys.readouterr().out.splitlines()
    assert header.split(",")[-3:] == ["passed", "binding_pair",
                                      "block_evaluations"]
    values = row.split(",")
    assert values[-2:] == [str(payload["binding_pair"]),
                           str(payload["block_evaluations"])]
    assert main(args + ["--format", "text"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2] == f"binding_pair={payload['binding_pair']}"
    assert lines[-1] == f"block_evaluations={payload['block_evaluations']}"


def test_verify_prints_a_new_report_field_last(monkeypatch, capsys):
    @dataclasses.dataclass(frozen=True)
    class ExtendedReport(ghzcert.verifier.CertificationReport):
        extra: int = 7

    scan = ghzcert.verifier.min_eig_over_grid

    def extended(*args, **kwargs):
        report = scan(*args, **kwargs)
        return ExtendedReport(**{field.name: getattr(report, field.name)
                                 for field in dataclasses.fields(report)})

    monkeypatch.setattr(ghzcert.cli, "min_eig_over_grid", extended)
    args = ["verify", "-n", "3", "--grid", "7"]
    assert main(args + ["--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert list(payload)[-2:] == ["block_evaluations", "extra"]
    assert payload["extra"] == 7
    assert main(args + ["--format", "csv"]) == 0
    header, row = capsys.readouterr().out.splitlines()
    assert header.split(",")[-2:] == ["block_evaluations", "extra"]
    assert row.split(",")[-2:] == [str(payload["block_evaluations"]), "7"]
    assert main(args + ["--format", "text"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2:] == [
        f"block_evaluations={payload['block_evaluations']}", "extra=7"]


@pytest.mark.parametrize("flag", ["--s", "--mu"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_verify_rejects_non_finite_constants(flag, value, capsys):
    assert main(["verify", "--family", "svetlichny", "-n", "3",
                 flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert "passed" not in captured.out


@pytest.mark.parametrize("value", ["-1", "nan", "inf"])
def test_verify_rejects_bad_tolerance(value, capsys):
    assert main(["verify", "-n", "3", "--tol", value]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert captured.out == ""


def test_negative_exponent_values_parse_with_or_without_equals(capsys):
    # argparse before 3.14 reads "-7e-1" after a flag as an option, so the
    # parsers take exponent-form negative numbers as values: "--mu -7e-1"
    # is "--mu=-7e-1" is "--mu -0.7", on every real-valued option.
    for flag, value, plain in (("--mu", "-7e-1", "-0.7"),
                               ("--s", "-1E+0", "-1"),
                               ("--tol", "-1e-3", "-0.001")):
        spaced = main(["verify", "-n", "4", flag, value])
        first = capsys.readouterr()
        assert main(["verify", "-n", "4", f"{flag}={value}"]) == spaced
        assert capsys.readouterr() == first
        assert main(["verify", "-n", "4", flag, plain]) == spaced
        assert capsys.readouterr() == first
        assert "Traceback" not in first.err
        assert "expected one argument" not in first.err
    assert main(["verify", "-n", "4", "--mu", "-7e-1"]) == 1
    assert ",-0.7," in capsys.readouterr().out
    assert main(["simulate", "--visibility", "-1e-1"]) == 2
    assert capsys.readouterr().err.startswith(
        "error: visibility must be at least 0.0")


def test_verify_refuses_oversized_grid_without_allocating(capsys):
    tracemalloc.start()
    start = time.perf_counter()
    try:
        code = main(["verify", "-n", "5", "--grid", "3000"])
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    assert "limit" in capsys.readouterr().err
    assert elapsed < 2.0
    assert peak < 1_000_000


def test_curve_csv(tmp_path):
    out_path = tmp_path / "curve.csv"
    assert main(["curve", "--family", "mabk", "-n", "3",
                 "--resolution", "5", "--out", str(out_path)]) == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "beta_O,relative_violation,fidelity_bound"
    assert len(lines) == 6
    first = lines[1].split(",")
    assert first[1] == "0.414213562373"
    assert abs(float(first[0]) - 2 * SQ2) <= 1e-9
    assert abs(float(first[2]) - 0.5) <= 1e-12
    last = lines[-1].split(",")
    assert abs(float(last[1]) - 1.0) <= 1e-12
    assert abs(float(last[2]) - 1.0) <= 1e-12


def test_curve_csv_four_party_starts_at_zero(tmp_path):
    out_path = tmp_path / "curve4.csv"
    assert main(["curve", "--family", "svetlichny", "-n", "4",
                 "--resolution", "3", "--out", str(out_path)]) == 0
    first = out_path.read_text().strip().splitlines()[1].split(",")
    assert abs(float(first[1])) <= 1e-12
    assert abs(float(first[2]) - 0.5) <= 1e-12


def test_curve_json(tmp_path):
    out_path = tmp_path / "curve.json"
    assert main(["curve", "--family", "svetlichny", "-n", "3",
                 "--resolution", "4", "--format", "json",
                 "--out", str(out_path)]) == 0
    payload = json.loads(out_path.read_text())
    assert payload["family"] == "svetlichny"
    assert len(payload["points"]) == 4
    assert abs(payload["points"][0]["relative_violation"] - 1 / 3) <= 1e-5


def test_simulate_appends_deterministic_records(tmp_path, capsys):
    log = tmp_path / "log.jsonl"
    args = ["simulate", "--family", "svetlichny", "-n", "3",
            "--visibility", "0.9", "--shots", "2000", "--seed", "5",
            "--out", str(log)]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "fidelity" in out
    assert main(args) == 0
    capsys.readouterr()
    lines = log.read_text().strip().splitlines()
    assert len(lines) == 2
    records = [json.loads(line) for line in lines]
    for payload in records:
        payload.pop("timestamp")
    assert records[0] == records[1]


def test_simulate_unwritable_out_exits_2(tmp_path, capsys):
    log = tmp_path / "missing-dir" / "log.jsonl"
    assert main(["simulate", "--family", "svetlichny", "-n", "3",
                 "--shots", "500", "--seed", "2", "--out", str(log)]) == 2
    captured = capsys.readouterr()
    assert "fidelity_bound=" in captured.out
    assert "persisted=false" in captured.out.splitlines()
    assert captured.err.startswith("error:")
    assert not log.exists()


def test_simulate_flags_trivial(capsys):
    assert main(["simulate", "--family", "svetlichny", "-n", "3",
                 "--visibility", "0", "--shots", "1000", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "trivial=true" in out


def test_crosscheck_pass(capsys):
    assert main(["crosscheck", "--family", "svetlichny", "-n", "3",
                 "--samples", "50", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "pass" in out.lower()


def test_crosscheck_rejects_unsupported_protocol(capsys):
    assert main(["crosscheck", "--family", "mabk", "-n", "3"]) == 2


@pytest.mark.parametrize("module, step, command, flag, limit", [
    (ghzcert.tradeoff, "catalog_constants", "curve", "--resolution",
     MAX_CURVE_POINTS),
    (ghzcert.verifier, "build_T", "crosscheck", "--samples",
     MAX_CROSSCHECK_SAMPLES),
])
def test_count_limits(monkeypatch, capsys, module, step, command, flag,
                      limit):
    # Past the limit: exit 2 and no output.  At it, the run gets past
    # validation, where a stub stops it before any point or sample is built.
    argv = [command, "-n", "4", flag]
    assert main(argv + [str(limit + 1)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"at most {limit}, got {limit + 1}" in captured.err
    monkeypatch.setattr(module, step, stop_past_validation)
    with pytest.raises(PastValidation):
        main(argv + [str(limit)])


def test_crosscheck_rejects_empty_sample(capsys):
    for n in ("3", "4"):
        for samples in ("0", "-5"):
            assert main(["crosscheck", "--family", "svetlichny", "-n", n,
                         "--samples", samples]) == 2
            captured = capsys.readouterr()
            assert "result=" not in captured.out
            assert (f"sample count must be at least 1 and at most 100000, "
                    f"got {samples}") in captured.err


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("family=mabk\nn=4\nresolution=3\n# comment line\n"
                   "unknown_key=ignored\n")
    out_path = tmp_path / "c1.csv"
    assert main(["curve", "--config", str(cfg), "--out", str(out_path)]) == 0
    first = out_path.read_text().strip().splitlines()[1].split(",")
    assert abs(float(first[0]) - 4 * SQ2) <= 1e-9
    out_path2 = tmp_path / "c2.csv"
    assert main(["curve", "--config", str(cfg), "-n", "3",
                 "--out", str(out_path2)]) == 0
    first = out_path2.read_text().strip().splitlines()[1].split(",")
    assert abs(float(first[0]) - 2 * SQ2) <= 1e-9


def _write_config(tmp_path, text):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    return str(cfg)


@pytest.mark.parametrize("command, line", [
    ("verify", "format=yaml"),
    ("curve", "format=text"),
    ("curve", "n=abc"),
    ("simulate", "n=7"),
    ("verify", "full_domain=maybe"),
    ("verify", "full_domain="),
    ("crosscheck", "samples=1.5"),
    ("bounds", "family=bogus"),
])
def test_config_values_are_checked_like_flags(tmp_path, capsys, command, line):
    cfg = _write_config(tmp_path, line + "\n")
    assert main([command, "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err


def test_config_full_domain_matches_the_flag(tmp_path, capsys):
    base = ["verify", "-n", "4", "--grid", "7", "--format", "json"]
    assert main(base + ["--full-domain"]) == 0
    flagged = capsys.readouterr().out
    assert main(base) == 0
    quarter = capsys.readouterr().out
    assert flagged != quarter
    for value, expected in (("true", flagged), ("YES", flagged),
                            ("1", flagged), ("on", flagged),
                            ("false", quarter), ("no", quarter),
                            ("0", quarter), ("Off", quarter)):
        cfg = _write_config(tmp_path, f"full-domain = {value}\n")
        assert main(base + ["--config", cfg]) == 0
        assert capsys.readouterr().out == expected


def test_config_ignores_keys_the_subcommand_lacks(tmp_path, capsys):
    argv = ["curve", "--family", "mabk", "-n", "3", "--resolution", "4"]
    assert main(argv) == 0
    expected = capsys.readouterr().out
    cfg = _write_config(tmp_path, "command=verify\nconfig=missing.cfg\n"
                                  "res=9\nshots=abc\n")
    assert main(argv + ["--config", cfg]) == 0
    assert capsys.readouterr().out == expected
    assert main(["curve", "--config", cfg, "--family", "mabk", "-n", "3",
                 "--resolution", "4"]) == 0
    assert capsys.readouterr().out == expected


def test_simulate_rejects_shot_counts_numpy_cannot_draw(capsys):
    assert main(["simulate", "-n", "5",
                 "--shots", "10000000000000000000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "shot count" in captured.err
    assert main(["simulate", "-n", "3", "--shots", str(2 ** 63 - 1)]) == 0
    assert f"shots_per_setting={2 ** 63 - 1}" in capsys.readouterr().out


def test_verify_rejects_overflowing_constants(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["verify", "-n", "3", "--s", "1e308"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: s=1e+308 and mu=")
    assert main(["verify", "-n", "5", "--grid", "2", "--s=1e-308",
                 "--mu=-1e308", "--format", "json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: s=1e-308 and mu=-1e+308 give")


def test_parser_built_once():
    assert ghzcert.cli._build_parser() is ghzcert.cli._build_parser()


def test_cached_parser_gives_same_output_as_fresh_parsers(capsys):
    argvs = [["verify", "-n", "3", "--format", "json"],
             ["simulate", "-n", "3", "--shots", "100", "--seed", "4"],
             ["verify", "-n", "3"]]
    in_sequence = []
    for argv in argvs:
        assert main(argv) == 0
        in_sequence.append(capsys.readouterr().out)
    for argv, expected in zip(argvs, in_sequence):
        ghzcert.cli._build_parser.cache_clear()
        assert main(argv) == 0
        assert capsys.readouterr().out == expected
    assert in_sequence[0] != in_sequence[2]


PARITY_CONFIG = "family=mabk\nn=4\nresolution=3\nformat=json\nshots=9\n"


@pytest.mark.parametrize("argv, code", [
    (["bounds", "--bogus"], 2),
    (["verify", "-n", "3", "extra"], 2),
    (["bounds", "--family", "bogus"], 2),
    (["verify", "-n", "3", "--format", "yaml"], 2),
    (["bounds", "-h"], 0),
    ([], 2),
    (["-h"], 0),
    (["bogus"], 2),
    (["-x", "bounds"], 2),
    (["curve", "--config", "{config}", "-n", "3", "--format", "csv"], 0),
    (["curve", "--config", "{config}"], 0),
    (["curve", "--config", "{config}", "--bogus"], 2),
    (["bounds", "--config", "{config}", "-n", "3"], 0),
])
def test_dispatch_matches_the_full_top_level_parse(tmp_path, monkeypatch,
                                                   capsys, argv, code):
    config = _write_config(tmp_path, PARITY_CONFIG)
    argv = [arg.replace("{config}", config) for arg in argv]
    with monkeypatch.context() as patch:
        patch.setattr(ghzcert.cli, "_parse", full_parse)
        expected = (main(argv), *capsys.readouterr())
    assert (main(argv), *capsys.readouterr()) == expected
    assert expected[0] == code and "Traceback" not in expected[2]


def test_unrecognized_arguments_name_the_top_level_parser(capsys):
    assert main(["bounds", "--bogus"]) == 2
    assert capsys.readouterr().err.endswith(
        "\nghzcert: error: unrecognized arguments: --bogus\n")


def test_named_subcommand_never_reaches_the_top_level_parser(monkeypatch,
                                                            capsys):
    parser = ghzcert.cli._build_parser()[0]
    seen = []

    def spy(*args, **kwargs):
        seen.append(args)
        return type(parser).parse_known_args(parser, *args, **kwargs)

    monkeypatch.setattr(parser, "parse_known_args", spy)
    for argv in (["bounds", "-n", "3"], ["verify", "-n", "3", "--grid", "3"],
                 ["curve", "--resolution", "2"],
                 ["simulate", "--shots", "10"],
                 ["crosscheck", "--samples", "1"], ["bounds", "--bogus"],
                 ["curve", "-h"]):
        main(argv)
    assert seen == []
    assert main(["bogus"]) == 2 and seen
    capsys.readouterr()


def test_usage_errors():
    assert main([]) == 2
    assert main(["bogus"]) == 2
    assert main(["bounds", "--family", "bogus", "-n", "3"]) == 2
    assert main(["bounds", "--family", "mabk", "-n", "7"]) == 2


def test_structure_violation_exit_code(monkeypatch):
    def raiser(*args, **kwargs):
        raise StructureViolation("block residue above tolerance")

    monkeypatch.setattr(ghzcert.cli, "min_eig_over_grid", raiser)
    assert main(["verify", "--family", "svetlichny", "-n", "3"]) == 3
