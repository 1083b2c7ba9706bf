"""Command-line surface: exit codes, JSON schemas, persistence round-trips."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from monothetic import (
    CappedWeightedL1,
    GroupDescriptor,
    TableFormatError,
    build_anchor_table,
    k_sequence,
)
from monothetic import cli
from monothetic.cli import MAX_SAMPLES, certificate_digits, main
from monothetic.construction import MAX_TABLE_DEPTH
from monothetic.counterexample import MAX_GRID, counterexample_certificate
from monothetic.evaluator import density_witness
from monothetic.groups import MAX_COORDINATES
from monothetic.verification import ALL_SUITES
from monothetic.serialize import (
    contradiction_to_json,
    density_witness_to_json,
    descriptor_from_json,
    load_table,
    norm_spec_from_json,
    save_table,
)
from oracle import construction_digest

Z = GroupDescriptor(free_rank=1)

# The counterexample digit cap under CPython's default int-to-string limit,
# which the tests run with.
MAX_CERTIFICATE_DIGITS = certificate_digits()

GROUP = '{"free_rank":1}'
NORM = '{"type":"capped_l1","weights":["1/1"]}'

# The commands that read a table file, with arguments that succeed on the
# depth-12 table of ``table_path``.
TABLE_READERS = {
    "eval": ["--element", '{"h":[0],"k":1}'],
    "density": ["--m", "1", "--j", "1"],
    "verify": ["--suite", "axioms", "--samples", "4"],
}


def edited_copy(source, target, **changes):
    """Copy a table file to ``target`` with top-level keys replaced."""
    raw = json.loads(Path(source).read_text())
    raw.update(changes)
    target.write_text(json.dumps(raw))
    return target


def assert_same_table(loaded, table):
    assert (loaded.descriptor, loaded.spec, loaded.depth) == (
        table.descriptor, table.spec, table.depth)
    assert loaded.anchors == table.anchors


@pytest.fixture()
def table_path(tmp_path):
    path = tmp_path / "table.json"
    code = main(["build", "--group", GROUP, "--norm", NORM, "--depth", "12",
                 "--out", str(path)])
    assert code == 0
    return path


class TestBuild:
    def test_writes_and_reports_last_power(self, tmp_path, capsys):
        out = tmp_path / "t.json"
        code = main(["build", "--group", GROUP, "--norm", NORM, "--depth", "50",
                     "--out", str(out)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["depth"] == 50
        assert payload["k_last"] == k_sequence(50)[-1]
        assert out.exists()

    def test_power_past_the_digit_limit(self, tmp_path, capsys):
        # k_3000 has 5015 digits, past CPython's 4300-digit int-to-string limit.
        out = tmp_path / "t.json"
        code = main(["build", "--group", GROUP, "--norm", NORM, "--depth", "3000",
                     "--out", str(out)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out, parse_int=Decimal)
        assert payload["k_last"] == Decimal(k_sequence(3000)[-1])
        assert load_table(out).depth == 3000

    def test_last_power_walks_no_sequence(self, tmp_path, monkeypatch, capsys,
                                          no_k_sequence):
        # k_last must come from the diagonal jumps; the digest pins stdout.
        monkeypatch.chdir(tmp_path)
        code = main(["build", "--group", GROUP, "--norm", NORM, "--depth", "2500",
                     "--out", "t.json"])
        assert code == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "0f966ef45433a19685c0b8d85322351e6e4802a1545922fc15365e4ef409f53e"
        )

    def test_bad_norm_json(self, tmp_path):
        code = main(["build", "--group", GROUP, "--norm", "{nope",
                     "--out", str(tmp_path / "t.json")])
        assert code == 2

    def test_unknown_flag(self, tmp_path):
        assert main(["build", "--grup", GROUP]) == 2


# Group and norm JSON from the menu: every norm fits one of the groups and
# refuses another, so a draw is as often a mismatch as a valid pair.
BUILD_GROUPS = ['{"free_rank":1}', '{"free_rank":2}',
                '{"free_rank":0,"torsion_moduli":[3,4]}', '{"free_rank":1,"torsion_moduli":[3]}']
BUILD_NORMS = ['{"type":"capped_l1","weights":["1/1"]}',
               '{"type":"capped_l1","weights":["1/3","1/5"]}',
               '{"type":"capped_linf","scale":"1/3"}', '{"type":"cyclic_scaled"}',
               '{"type":"rational_rotation","alpha":"2/5"}']


@pytest.fixture(scope="module")
def build_out(tmp_path_factory):
    return tmp_path_factory.mktemp("build") / "t.json"


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(depth=st.integers(-3, 3000) | st.sampled_from([9999, 10000, 10001, 10 ** 30]),
       group=st.sampled_from(BUILD_GROUPS), norm=st.sampled_from(BUILD_NORMS))
def test_build_exit_codes(build_out, cap_powers, depth, group, norm):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["build", "--group", group, "--norm", norm, "--depth", str(depth),
                     "--out", str(build_out)])
    assert code in (0, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().count("\n") == 1 and err.getvalue().startswith("error: ")
    else:
        assert err.getvalue() == ""
        payload = json.loads(out.getvalue(), parse_int=Decimal)
        assert payload["k_last"] == Decimal(cap_powers[depth - 1])


class TestEval:
    def test_exact_value(self, table_path, capsys):
        code = main(["eval", "--table", str(table_path),
                     "--element", '{"h":[0],"k":2}', "--epsilon", "1/1024"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "exact"
        assert payload["value"] == "1/2"
        assert payload["witness"]["coeffs"] == {"2": 1}
        assert payload["witness"]["cost"] == "1/2"

    def test_interval(self, table_path, capsys):
        code = main(["eval", "--table", str(table_path),
                     "--element", '{"h":[0],"k":1}'])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "interval"
        assert payload["lower"] == "1023/1024"
        assert payload["upper"] == "1/1"

    def test_missing_table(self, tmp_path):
        assert main(["eval", "--table", str(tmp_path / "nope.json"),
                     "--element", '{"h":[0],"k":1}']) == 2

    def test_byte_identical_output(self, table_path, capsys):
        argv = ["eval", "--table", str(table_path), "--element", '{"h":[2],"k":-2}']
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out
        assert first == second

    def test_padded_epsilon_exits_two(self, table_path, capsys):
        code = main(["eval", "--table", str(table_path),
                     "--element", '{"h":[0],"k":2}', "--epsilon", " 1/2"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err

    def test_non_object_element_exits_two(self, table_path, capsys):
        code = main(["eval", "--table", str(table_path), "--element", "[1,2]"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")

    def test_fractional_coordinate_rejected(self, table_path, capsys):
        # int() would silently read 0.5 as 0 and evaluate a different element.
        code = main(["eval", "--table", str(table_path),
                     "--element", '{"h":[0.5],"k":2}'])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "integer" in captured.err

    def test_huge_power_names_required_depth_quickly(self, table_path, capsys):
        # The time bound fails a search that rebuilds the power sequence
        # for each candidate depth: that is quadratic in the depth.
        element = '{"h":[0],"k":%s}' % ("9" * 4000)
        start = time.perf_counter()
        code = main(["eval", "--table", str(table_path), "--element", element])
        assert time.perf_counter() - start < 2
        assert code == 3
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"error": "extend table", "required_depth": 2459}


class TestDensity:
    def test_certified(self, table_path, capsys):
        code = main(["density", "--table", str(table_path), "--m", "1", "--j", "2"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["power"] == 2
        assert payload["bound"] == "1/2"
        assert payload["certified"] is True

    @pytest.mark.parametrize("option, value", [("m", 0), ("j", 0), ("m", -3), ("j", -1)])
    def test_index_below_one_is_refused_before_the_table(self, tmp_path, capsys,
                                                         option, value):
        # The table file does not exist: the option is refused before it is read.
        indices = {"m": 1, "j": 1, option: value}
        code = main(["density", "--table", str(tmp_path / "missing.json"),
                     "--m", str(indices["m"]), "--j", str(indices["j"])])
        assert code == 2
        assert capsys.readouterr() == ("", f"error: --{option} must be >= 1, got {value}\n")

    def test_power_past_the_digit_limit(self, tmp_path, capsys):
        # (m, j) = (1, 73) is anchor 2629, whose power has 4319 digits.
        path = tmp_path / "t.json"
        save_table(build_anchor_table(Z, CappedWeightedL1((Fraction(1),)), 2640), path)
        code = main(["density", "--table", str(path), "--m", "1", "--j", "73"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out, parse_int=Decimal)
        assert payload["anchor_index"] == 2629
        assert payload["power"] == Decimal(k_sequence(2629)[-1])

    def test_witness_json_holds_plain_ints(self, table_path):
        # The *_to_json dicts stay stdlib-serialisable; only the CLI splices.
        witness = density_witness(load_table(table_path), 1, 2)
        assert json.loads(json.dumps(density_witness_to_json(witness)))["power"] == 2

    def test_too_shallow_exits_three(self, table_path, capsys):
        code = main(["density", "--table", str(table_path), "--m", "5", "--j", "5"])
        assert code == 3
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"error": "extend table", "required_depth": 41}

    @pytest.mark.parametrize("command", ["density", "verify"])
    def test_demand_past_the_depth_cap_exits_two(self, table_path, capsys, command):
        # (1000000, 1) is anchor 500000500000: no build reaches it, so asking
        # for that table would be an exit 3 that nothing can answer.
        argv = ["density", "--table", str(table_path), "--m", "1000000", "--j", "1"]
        if command == "verify":
            argv = ["verify", "--table", str(table_path), "--suite", "density",
                    "--max-m", "1000000", "--max-j", "1"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert str(MAX_TABLE_DEPTH) in captured.err


class TestVerify:
    def test_all_suites_pass(self, tmp_path, capsys):
        path = tmp_path / "verify.json"
        main(["build", "--group", GROUP, "--norm",
              '{"type":"capped_l1","weights":["1/4"]}', "--depth", "50",
              "--out", str(path)])
        capsys.readouterr()
        code = main(["verify", "--table", str(path), "--suite", "all",
                     "--samples", "80", "--seed", "42"])
        reports = json.loads(capsys.readouterr().out)
        assert code == 0
        assert [r["suite"] for r in reports] == [
            "extension", "axioms", "density", "truncation",
        ]
        assert all(r["passed"] for r in reports)

    @pytest.mark.parametrize("samples", [-3, MAX_SAMPLES + 1])
    def test_negative_samples_exit_two(self, table_path, capsys, samples):
        code = main(["verify", "--table", str(table_path), "--suite", "extension",
                     "--samples", str(samples)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--samples" in captured.err

    @pytest.mark.parametrize("suite", ["all", "extension", "density"])
    @pytest.mark.parametrize("option, value", [("max-m", 0), ("max-j", 0), ("max-m", -2)])
    def test_density_index_below_one_is_refused_before_the_table(
            self, tmp_path, capsys, suite, option, value):
        # Refused whichever suites run, as --samples is, and before the table
        # file (which does not exist) is read.
        code = main(["verify", "--table", str(tmp_path / "missing.json"), "--suite", suite,
                     "--samples", str(MAX_SAMPLES), f"--{option}", str(value)])
        assert code == 2
        assert capsys.readouterr() == ("", f"error: --{option} must be >= 1, got {value}\n")

    def test_density_index_below_one_exits_two_on_a_shallow_table(self, tmp_path, capsys):
        # The axioms suite runs first and would ask for depth 9 (exit 3); the
        # index is refused before any suite runs.
        path = tmp_path / "shallow.json"
        assert main(["build", "--group", GROUP, "--norm", NORM, "--depth", "2",
                     "--out", str(path)]) == 0
        capsys.readouterr()
        assert main(["verify", "--table", str(path), "--max-m", "0"]) == 2
        assert capsys.readouterr() == ("", "error: --max-m must be >= 1, got 0\n")

    @pytest.mark.parametrize("value", ["0", "2", "65", "abc"])
    def test_mono_threads_is_ignored(self, tmp_path, capsys, monkeypatch, value):
        path = tmp_path / "verify.json"
        main(["build", "--group", GROUP, "--norm",
              '{"type":"capped_l1","weights":["1/4"]}', "--depth", "50",
              "--out", str(path)])
        argv = ["verify", "--table", str(path), "--suite", "all", "--samples", "40"]
        monkeypatch.delenv("MONO_THREADS", raising=False)
        capsys.readouterr()
        assert main(argv) == 0
        unset = capsys.readouterr().out
        monkeypatch.setenv("MONO_THREADS", value)
        assert main(argv) == 0
        assert capsys.readouterr().out == unset

    def test_pair_sums_evaluated_on_skipped_pairs(self, tmp_path, capsys):
        # Nearly every pair skips the triangle check here, but the sums must
        # still be evaluated: one of them needs anchor 5.
        path = tmp_path / "shallow.json"
        main(["build", "--group", GROUP, "--norm",
              '{"type":"capped_l1","weights":["1/4"]}', "--depth", "4",
              "--out", str(path)])
        capsys.readouterr()
        code = main(["verify", "--table", str(path), "--suite", "axioms",
                     "--epsilon", "1/2", "--samples", "500", "--seed", "0"])
        assert code == 3
        assert json.loads(capsys.readouterr().out) == {
            "error": "extend table", "required_depth": 5,
        }

    # Each edit keeps the stored sha256, so the digest must cover that field.
    @pytest.mark.parametrize("changes", [
        {"N": 11},
        {"spec": {"type": "capped_l1", "weights": ["1/2"]}},
        {"spec": {"type": "capped_linf", "scale": "1/2"}},
    ], ids=["depth", "weight", "spec-type"])
    def test_tampered_table_rejected(self, table_path, tmp_path, capsys, changes):
        tampered = edited_copy(table_path, tmp_path / "tampered.json", **changes)
        capsys.readouterr()
        assert main(["verify", "--table", str(tampered), "--suite", "axioms"]) == 2
        assert "corrupted table" in capsys.readouterr().err


class TestCounterexample:
    def test_single_certificate(self, capsys):
        code = main(["counterexample", "--n", "2", "--m", "2",
                     "--v1", "2/5", "--v2", "2/5"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["required_norm"] == 4
        assert payload["implied_bound"] == "8/5"
        assert payload["identity_verified"] is True

    def test_hypothesis_failure_exits_one(self):
        assert main(["counterexample", "--n", "1", "--m", "1",
                     "--v1", "1/2", "--v2", "1/4"]) == 1

    def test_scan_with_jsonl(self, tmp_path, capsys):
        out = tmp_path / "certs.jsonl"
        code = main(["counterexample", "--grid", "4", "--out", str(out)])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["certificate_count"] == 16
        lines = out.read_text().splitlines()
        assert len(lines) == 16
        assert all(json.loads(line)["identity_verified"] for line in lines)

    @pytest.mark.parametrize("argv", [[], ["--grid", str(MAX_GRID + 1)]],
                             ids=["no-mode", "grid-past-cap"])
    def test_missing_arguments(self, capsys, argv):
        assert main(["counterexample"] + argv) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("argv,option", [
        (["--n", "2", "--m", "2", "--v1", "2/5", "--v2", "2/5", "--out", "f.jsonl"], "--out"),
        (["--grid", "3", "--n", "2"], "--n"),
    ], ids=["single-with-out", "grid-with-n"])
    def test_conflicting_modes_exit_two(self, tmp_path, monkeypatch, capsys, argv, option):
        monkeypatch.chdir(tmp_path)
        assert main(["counterexample"] + argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and option in captured.err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("grid", ["0", str(MAX_GRID + 1)])
    def test_refused_grid_creates_no_file(self, tmp_path, capsys, grid):
        out = tmp_path / "certs.jsonl"
        assert main(["counterexample", "--grid", grid, "--out", str(out)]) == 2
        assert capsys.readouterr().out == ""
        assert not out.exists()

    def test_single_certificate_at_the_digit_cap(self, capsys):
        # Every input at MAX_CERTIFICATE_DIGITS digits, with coprime
        # denominators: the margin's numerator has 4297 digits, under
        # CPython's 4300-digit int-to-string limit.
        top = 10 ** MAX_CERTIFICATE_DIGITS
        q1, q2 = top - 1, top - 3
        v1, v2 = Fraction(q1 // 3 + 1, q1), Fraction(2 * q2 // 5 + 1, q2)
        n, m = -(top - 7), top - 9
        assert {len(str(abs(x))) for x in (n, m, v1.numerator, v1.denominator,
                                           v2.numerator, v2.denominator)} == {
            MAX_CERTIFICATE_DIGITS}
        code = main(["counterexample", f"--n={n}", f"--m={m}",
                     f"--v1={v1.numerator}/{v1.denominator}",
                     f"--v2={v2.numerator}/{v2.denominator}"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == contradiction_to_json(counterexample_certificate(n, m, v1, v2))
        assert len(payload["margin"].split("/")[0]) == 4297

    @pytest.mark.parametrize("option,value", [
        ("n", str(10 ** MAX_CERTIFICATE_DIGITS)),
        ("m", str(-10 ** MAX_CERTIFICATE_DIGITS)),
        ("v1", f"1/{10 ** MAX_CERTIFICATE_DIGITS}"),
        ("v2", f"{10 ** MAX_CERTIFICATE_DIGITS}/{3 * 10 ** MAX_CERTIFICATE_DIGITS + 1}"),
    ], ids=["n", "m", "v1", "v2"])
    def test_one_digit_past_the_cap_exits_two(self, capsys, option, value):
        argv = {"n": "2", "m": "3", "v1": "1/3", "v2": "2/5", option: value}
        code = main(["counterexample"] + [f"--{k}={v}" for k, v in argv.items()])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: --{option} must have at most {MAX_CERTIFICATE_DIGITS} digits\n")


# counterexample option values.  A valid single certificate is perturbed in
# at most one option: an integer with zero, a sign or a length on either side
# of the digit cap and of CPython's 4300-digit limit, a rational outside
# (0, 1/2) or malformed, or the option left out.
VALID_INTS = st.integers(-10 ** 6, 10 ** 6).filter(bool).map(str)
VALID_VALUES = st.builds(lambda p, q: f"{p}/{2 * p + q}",
                         st.integers(1, 10 ** 6), st.integers(1, 10 ** 6))
DIGITS = st.sampled_from([1, 25, MAX_CERTIFICATE_DIGITS, MAX_CERTIFICATE_DIGITS + 1,
                          4300, 4301, 4400])
HOSTILE = {
    "int": (st.builds(lambda digits, sign: sign + "9" * digits,
                      DIGITS, st.sampled_from(["", "-"]))
            | st.sampled_from(["0", "x", "", "1.0", "0x10"])),
    "value": (st.sampled_from(["1/2", "0", "3/4", "-1/3", "7", "5/10"])
              | st.builds(lambda digits: "1/" + "9" * digits, DIGITS)
              | st.sampled_from(["1/0", " 1/3", "+1/3", "1/-3", "0.25", "\u0661/\u0663",
                                 "", "1/3/5"])),
}
GRIDS = st.integers(-2, 30) | st.just(MAX_GRID + 1)


@st.composite
def counterexample_options(draw):
    """Options for one call: a grid, a single certificate, or both mixed."""
    mode = draw(st.sampled_from(["grid", "single", "mixed"]))
    options = {}
    if mode != "grid":
        options = {"n": draw(VALID_INTS), "m": draw(VALID_INTS),
                   "v1": draw(VALID_VALUES), "v2": draw(VALID_VALUES)}
        key = draw(st.sampled_from([None, None, "n", "m", "v1", "v2"]))
        if key is not None and draw(st.booleans()):
            del options[key]
        elif key is not None:
            options[key] = draw(HOSTILE["int" if key in ("n", "m") else "value"])
    if mode != "single":
        if mode == "grid" or draw(st.booleans()):
            options["grid"] = draw(GRIDS)
        if draw(st.booleans()):
            options["out"] = draw(st.sampled_from(["file", "dir"]))
    return options


@pytest.fixture(scope="module")
def counterexample_outs(tmp_path_factory):
    root = tmp_path_factory.mktemp("counterexample")
    return {"file": root / "certs.jsonl", "dir": root}


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(options=counterexample_options())
@example(options={"n": "9" * 4300, "m": "1", "v1": "1/3", "v2": "1/3"})
@example(options={"n": "2", "m": "-3", "v1": "1/2", "v2": "1/3"})
def test_counterexample_exit_codes(counterexample_outs, options):
    if "out" in options:
        options = {**options, "out": counterexample_outs[options["out"]]}
    argv = ["counterexample"] + [f"--{key}={value}" for key, value in options.items()]
    stdout, stderr = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    assert time.perf_counter() - start < 5
    assert code in (0, 1, 2)
    assert "Traceback" not in stderr.getvalue()
    assert "set_int_max_str_digits" not in stderr.getvalue()
    assert bool(stdout.getvalue()) == (code == 0)
    if code == 0:
        json.loads(stdout.getvalue())   # one JSON document, and nothing after it


# eval, density and verify on a depth-50 Z^2 table.  A valid call is
# perturbed in at most one option: a coordinate of 1-4400 digits or not an
# integer at all, an index or count at zero, negative or past its cap, an
# epsilon malformed or outside (0, 1), or a table that is missing or has N
# written out in 5000 digits.
FUZZ_DIGITS = st.sampled_from([1, 2, 25, 1000, 4300, 4301, 4400])
SMALL_INTS = st.integers(-50, 50).map(str)
COORDINATES = (st.builds(lambda digits, sign: sign + "9" * digits,
                         FUZZ_DIGITS, st.sampled_from(["", "-"]))
               | st.sampled_from(["0.5", "1e400", "-0.0", "true", "null", '"1"', "[]"]))
INDICES = (st.integers(1, 6).map(str),
           st.sampled_from(["0", "-1", "x", str(MAX_TABLE_DEPTH + 1), str(10 ** 30)]))
# Each option's (valid, hostile) values.
READER_OPTIONS = {
    "table": (st.just("good"), st.sampled_from(["huge-depth", "missing"])),
    "element": (st.builds(lambda h, k: f'{{"h":[{h[0]},{h[1]}],"k":{k}}}',
                          st.tuples(SMALL_INTS, SMALL_INTS), SMALL_INTS),
                st.builds(lambda h, k: f'{{"h":[{",".join(h)}],"k":{k}}}',
                          st.lists(SMALL_INTS | COORDINATES, max_size=3),
                          SMALL_INTS | COORDINATES)
                | st.sampled_from(['{"h":[0,0]}', '{"k":1}', "[]", "5", "{nope",
                                   "[" * 100_000])),
    "m": INDICES, "j": INDICES, "max-m": INDICES, "max-j": INDICES,
    "samples": (st.integers(1, 200).map(str),
                st.sampled_from(["0", "-1", str(MAX_SAMPLES + 1), "1.5"])),
    "epsilon": (st.sampled_from(["1/1024", "1/2", "1/3"]),
                st.sampled_from(["0", "1", "-1/2", "3/2", "1/0", "0.1", "", " 1/2",
                                 "1/" + "0" * 4300])
                | st.builds(lambda digits: "1/" + "9" * digits, FUZZ_DIGITS)
                | st.builds(lambda digits: "9" * digits, FUZZ_DIGITS)),
}


@st.composite
def table_reader_calls(draw):
    """One eval, density or verify call: the command and its options."""
    command = draw(st.sampled_from(sorted(TABLE_READERS)))
    keys = {"eval": ["table", "element"], "density": ["table", "m", "j"],
            "verify": ["table", "samples", "max-m", "max-j"]}[command] + ["epsilon"]
    hostile = draw(st.sampled_from([None] * len(keys) + keys))
    options = {key: draw(READER_OPTIONS[key][key == hostile])
               for key in keys}
    if command == "verify":
        options["suite"] = draw(st.sampled_from(ALL_SUITES + ("all",)))
    return command, options


@pytest.fixture(scope="module")
def fuzz_tables(tmp_path_factory):
    root = tmp_path_factory.mktemp("readers")
    good = root / "good.json"
    assert main(["build", "--group", '{"free_rank":2}',
                 "--norm", '{"type":"capped_l1","weights":["1/1","1/2"]}',
                 "--depth", "50", "--out", str(good)]) == 0
    text = good.read_text()
    assert '"N":50,' in text
    huge = root / "huge-depth.json"
    huge.write_text(text.replace('"N":50,', f'"N":{"9" * 5000},'))
    return {"good": good, "huge-depth": huge, "missing": root / "missing.json"}


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(call=table_reader_calls())
@example(call=("eval", {"table": "good", "element": '{"h":[0,0],"k":' + "9" * 5000 + "}"}))
@example(call=("eval", {"table": "huge-depth", "element": '{"h":[0,0],"k":1}'}))
@example(call=("eval", {"table": "good", "element": "[" * 100_000}))
@example(call=("eval", {"table": "good", "element": '{"h":[0,0],"k":1}', "epsilon": "9" * 5000}))
@example(call=("density", {"table": "good", "m": "1", "j": "1", "epsilon": "1/" + "0" * 4300}))
def test_table_reader_exit_codes(fuzz_tables, call):
    command, options = call
    options = {**options, "table": fuzz_tables[options["table"]]}
    argv = [command] + [f"--{key}={value}" for key, value in options.items()]
    stdout, stderr = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    assert time.perf_counter() - start < 5
    out, err = stdout.getvalue(), stderr.getvalue()
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    assert "set_int_max_str_digits" not in err
    if code == 2:
        assert out == "" and "error:" in err
    else:
        # One JSON document, on one line, and nothing after it.
        assert out.count("\n") == 1 and out.endswith("\n")
        json.loads(out, parse_int=Decimal)


class TestSharedParser:
    def test_calls_match_a_fresh_parser(self, tmp_path, capsys):
        # main builds its parser once per process; a call after others must
        # behave as it does on a parser built for it alone, and no option
        # value may carry over from one call to the next.
        path = str(tmp_path / "t.json")
        verify = ["verify", "--table", path, "--suite", "extension"]
        calls = [
            verify + ["--samples", "seven"],
            ["build", "--group", GROUP, "--norm", NORM, "--depth", "12", "--out", path],
            ["eval", "--table", path, "--element", '{"h":[2],"k":-2}'],
            verify + ["--samples", "7"],
            verify,
        ]

        def run(argv):
            code = main(argv)
            return code, capsys.readouterr().out

        shared = [run(argv) for argv in calls]
        fresh = []
        for argv in calls:
            cli._build_parser.cache_clear()
            fresh.append(run(argv))
        assert shared == fresh
        assert [code for code, _ in shared] == [2, 0, 0, 0, 0]
        assert [json.loads(out)[0]["samples"] for _, out in shared[3:]] == [7, 500]


class TestPersistence:
    def test_round_trip_identity(self, tmp_path):
        table = build_anchor_table(Z, CappedWeightedL1(weights=(Fraction(1, 4),)), 50)
        path = tmp_path / "t.json"
        save_table(table, path)
        assert_same_table(load_table(path), table)

    def test_edited_power_rejected(self, tmp_path):
        table = build_anchor_table(Z, CappedWeightedL1(weights=(Fraction(1),)), 10)
        path = tmp_path / "t.json"
        save_table(table, path)
        raw = json.loads(path.read_text())
        digest = raw["sha256"]
        raw["sha256"] = ("1" if digest[0] == "0" else "0") + digest[1:]
        path.write_text(json.dumps(raw))
        with pytest.raises(TableFormatError, match="corrupted table"):
            load_table(path)

    def test_round_trip_past_digit_limit(self, tmp_path):
        # k_3000 has about 5000 decimal digits, past CPython's 4300-digit
        # int-to-text limit; the file must not need it as text.
        table = build_anchor_table(Z, CappedWeightedL1(weights=(Fraction(1),)), 3000)
        path = tmp_path / "deep.json"
        save_table(table, path)
        assert_same_table(load_table(path), table)

    @pytest.mark.parametrize("version", [4, 2, 1])
    def test_version_mismatch(self, tmp_path, version):
        table = build_anchor_table(Z, CappedWeightedL1(weights=(Fraction(1),)), 5)
        path = tmp_path / "t.json"
        save_table(table, path)
        raw = json.loads(path.read_text())
        raw["version"] = version
        path.write_text(json.dumps(raw))
        with pytest.raises(TableFormatError, match="version.*build"):
            load_table(path)

    def test_garbage_file(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{not json")
        with pytest.raises(TableFormatError, match="parse error"):
            load_table(path)


class TestHostileInput:
    @pytest.mark.parametrize(
        "changes",
        # The table has depth 12; int() would read 12.0 and "12" as 12.
        [{"descriptor": 5}, {"spec": [1]}, {"N": 12.0}, {"N": "12"}, {"version": 1}],
        ids=["descriptor-int", "spec-array", "depth-float", "depth-string", "version-1"],
    )
    @pytest.mark.parametrize("command", sorted(TABLE_READERS))
    def test_bad_header_exits_two(self, table_path, tmp_path, capsys, changes, command):
        # Every command that reads a table goes through the same loader.
        path = edited_copy(table_path, tmp_path / "bad.json", **changes)
        capsys.readouterr()
        code = main([command, "--table", str(path)] + TABLE_READERS[command])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("flag, value", [
        ("--group", "5"),
        ("--group", "[1]"),
        ("--group", '{"free_rank":null}'),
        ("--group", '{"torsion_moduli":5}'),
        ("--norm", "5"),
        ("--norm", "[1]"),
        ("--norm", '{"type":"capped_l1"}'),
        ("--norm", '{"type":"capped_l1","weights":"1"}'),
        ("--norm", '{"type":"rational_rotation","alpha":"3/1"}'),
        ("--norm", '{"type":"capped_l1","weights":["-1/1"]}'),
        ("--norm", '{"type":"capped_linf","scale":"0/1"}'),
        ("--norm", '{"type":"bogus"}'),
    ])
    def test_build_malformed_object_exits_two(self, tmp_path, capsys, flag, value):
        argv = {"--group": GROUP, "--norm": NORM}
        argv[flag] = value
        code = main(["build", "--group", argv["--group"], "--norm", argv["--norm"],
                     "--out", str(tmp_path / "t.json")])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("case", ["table-array", "element-h-int"])
    def test_wrong_json_shape_exits_two(self, table_path, tmp_path, capsys, case):
        array = tmp_path / "array.json"
        array.write_text("[]")
        argv, message = {
            "table-array": (["eval", "--table", str(array), "--element", '{"h":[0],"k":1}'],
                            "table file must hold a JSON object"),
            "element-h-int": (["eval", "--table", str(table_path), "--element", '{"h":3,"k":1}'],
                              "base element must be a JSON array"),
        }[case]
        capsys.readouterr()
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert message in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("case", ["eval-table-dir", "build-out-missing-dir",
                                      "counterexample-out-dir"])
    def test_unusable_path_exits_two(self, tmp_path, capsys, case):
        argv, path = {
            "eval-table-dir": (["eval", "--table", str(tmp_path),
                                "--element", '{"h":[0],"k":1}'], tmp_path),
            "build-out-missing-dir": (["build", "--group", GROUP, "--norm", NORM, "--out",
                                       str(tmp_path / "missing" / "t.json")],
                                      tmp_path / "missing" / "t.json"),
            "counterexample-out-dir": (["counterexample", "--grid", "2", "--out", str(tmp_path)],
                                       tmp_path),
        }[case]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert str(path) in captured.err
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err

    def test_huge_depth_in_file_rejected_quickly(self, table_path, tmp_path, capsys):
        path = edited_copy(table_path, tmp_path / "huge.json", N=10 ** 7)
        capsys.readouterr()
        start = time.perf_counter()
        code = main(["eval", "--table", str(path), "--element", '{"h":[0],"k":1}'])
        assert time.perf_counter() - start < 1
        assert code == 2
        assert str(MAX_TABLE_DEPTH) in capsys.readouterr().err

    @pytest.mark.parametrize("command", sorted(TABLE_READERS))
    def test_huge_rank_in_file_rejected_quickly(self, table_path, tmp_path, capsys, command):
        # Without a cap every reader builds the table, in time linear in the
        # rank, before it can compare digests.
        path = edited_copy(table_path, tmp_path / "wide.json", descriptor={"free_rank": 10 ** 6},
                           spec={"type": "capped_linf", "scale": "1/3"})
        capsys.readouterr()
        start = time.perf_counter()
        code = main([command, "--table", str(path)] + TABLE_READERS[command])
        assert time.perf_counter() - start < 1
        assert code == 2
        captured = capsys.readouterr()
        assert f"at most {MAX_COORDINATES} coordinates" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("group", ['{"free_rank":65}', '{"free_rank":1000000}'])
    def test_group_past_coordinate_cap_exits_two(self, tmp_path, capsys, group):
        start = time.perf_counter()
        code = main(["build", "--group", group, "--norm", '{"type":"capped_linf","scale":"1/3"}',
                     "--depth", "5", "--out", str(tmp_path / "t.json")])
        assert time.perf_counter() - start < 1
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"at most {MAX_COORDINATES} coordinates" in captured.err
        assert not (tmp_path / "t.json").exists()

    @pytest.mark.parametrize("case", ["eval-element", "table-depth", "build-group"])
    def test_integer_past_the_digit_limit_exits_two(self, table_path, tmp_path, capsys, case):
        # json.loads refuses a 5000-digit integer with CPython's own
        # ValueError; the error names the option or the file instead.
        huge = "9" * 5000
        bad_table = tmp_path / "huge.json"
        bad_table.write_text(table_path.read_text().replace('"N":12,', f'"N":{huge},'))
        argv, source = {
            "eval-element": (["eval", "--table", str(table_path),
                              "--element", f'{{"h":[0],"k":{huge}}}'], "--element"),
            "table-depth": (["eval", "--table", str(bad_table),
                             "--element", '{"h":[0],"k":1}'], str(bad_table)),
            "build-group": (["build", "--group", f'{{"free_rank":{huge}}}', "--norm", NORM,
                             "--out", str(tmp_path / "t.json")], "--group"),
        }[case]
        capsys.readouterr()
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: parse error in {source}: an integer has more than 4300 digits\n")

    @pytest.mark.parametrize("epsilon", ["9" * 5000, "1/" + "0" * 4300], ids=["long", "zero-den"])
    def test_long_epsilon_is_quoted_short(self, table_path, capsys, epsilon):
        capsys.readouterr()
        code = main(["eval", "--table", str(table_path), "--element", '{"h":[0],"k":1}',
                     "--epsilon", epsilon])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        assert len(captured.err) <= 200
        assert f"({len(epsilon)} characters)" in captured.err

    def test_table_that_is_not_utf8_exits_two(self, tmp_path, capsys):
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe" + "{}".encode("utf-16-le"))
        code = main(["eval", "--table", str(path), "--element", '{"h":[0],"k":1}'])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: parse error: cannot read {path}: not UTF-8 text\n"

    def test_family_is_not_a_command(self, capsys):
        assert main(["family", "--group", GROUP, "--norms", f"[{NORM}]"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "invalid choice: 'family'" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("case", ["depth-0", "depth-past-cap", "file-shape"])
    def test_invalid_table_messages(self, table_path, tmp_path, capsys, case):
        # build and a table file's header meet the same checks in the
        # AnchorTable constructor; these are their exact messages.
        build = ["build", "--group", GROUP, "--norm", NORM, "--out", str(tmp_path / "t.json")]
        shape = edited_copy(table_path, tmp_path / "shape.json",
                            spec={"type": "capped_l1", "weights": ["1/1", "1/1"]})
        argv, message = {
            "depth-0": (build + ["--depth", "0"], "table depth must be >= 1"),
            "depth-past-cap": (build + ["--depth", str(MAX_TABLE_DEPTH + 1)],
                               f"table depth must be <= {MAX_TABLE_DEPTH}, "
                               f"got {MAX_TABLE_DEPTH + 1}"),
            "file-shape": (["eval", "--table", str(shape), "--element", '{"h":[0],"k":1}'],
                           "capped_l1 has 2 weights for rank 1"),
        }[case]
        capsys.readouterr()
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_depth_past_cap_exits_two(self, tmp_path, capsys):
        argv = ["build", "--group", GROUP, "--norm", NORM, "--out", str(tmp_path / "t.json")]
        code = main(argv + ["--depth", str(MAX_TABLE_DEPTH + 1)])
        assert code == 2
        assert str(MAX_TABLE_DEPTH) in capsys.readouterr().err


def run_python(args, stdout=subprocess.PIPE, **env):
    """A fresh interpreter given ``args``, with ``env`` added to the environment."""
    source = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], stdout=stdout, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": path, **env}, timeout=120,
    )


def run_command(argv, stdout=subprocess.PIPE, **env):
    """``monothetic`` in a fresh interpreter, with ``env`` added to the environment."""
    return run_python(["-m", "monothetic.cli", *argv], stdout, **env)


# Runs each argv list of its JSON argument through ``main`` in one process and
# prints [exit code, stderr] per call; a call that raises ends it with a
# traceback on its own stderr.
MAIN_EACH = """
import contextlib, io, json, sys
from monothetic.cli import main
runs = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    runs.append([code, err.getvalue()])
print(json.dumps(runs))
"""

# A certificate whose fields pass 640 digits when printed, and whose inputs
# do not.
WIDE_CERTIFICATE = ["counterexample", "--n", "7" * 600, "--m", "7" * 600,
                    "--v1", "1/" + "3" * 630, "--v2", "1/3"]


class TestEnvironment:
    def test_lowered_int_digit_limit_is_a_usage_error(self, table_path):
        run = run_command(["eval", "--table", str(table_path), "--element", '{"h":[0],"k":1}',
                           "--epsilon", "1/" + "9" * 1000], PYTHONINTMAXSTRDIGITS="640")
        assert run.returncode == 2
        assert run.stdout == b""
        assert run.stderr.decode() == (
            "error: rational '1/99999999999999999999999999999... (1002 characters) has a "
            "part of more than 640 digits, this interpreter's int-from-string limit\n")

    def test_certificate_cap_follows_the_lowered_limit(self):
        # 3 * 212 + 2 = 638 digits is the widest field the cap lets through.
        run = run_command(WIDE_CERTIFICATE, PYTHONINTMAXSTRDIGITS="640")
        assert run.returncode == 2
        assert run.stdout == b""
        assert run.stderr.decode() == "error: --n must have at most 212 digits\n"
        assert b"set_int_max_str_digits" not in run.stderr

    @pytest.mark.parametrize("limit", ["0", "640", "4300"])
    def test_every_command_keeps_the_exit_code_contract(self, tmp_path, limit):
        # k_last at depth 2500 has 4080 digits; the element's k and the
        # epsilon pass 640 digits, and WIDE_CERTIFICATE's fields do when
        # printed.
        table = str(tmp_path / "z2.json")
        commands = [
            ["build", "--group", '{"free_rank":2}', "--depth", "2500", "--out", table,
             "--norm", '{"type":"capped_l1","weights":["1/3","1/5"]}'],
            ["eval", "--table", table, "--element", '{"h":[1,-2],"k":%s}' % ("9" * 700)],
            ["eval", "--table", table, "--element", '{"h":[1,-2],"k":3}',
             "--epsilon", "1/" + "9" * 1000],
            ["density", "--table", table, "--m", "30", "--j", "30"],
            ["verify", "--table", table, "--suite", "all", "--samples", "40"],
            ["counterexample", "--grid", "7"],
            WIDE_CERTIFICATE,
        ]
        run = run_python(["-c", MAIN_EACH, json.dumps(commands)], PYTHONINTMAXSTRDIGITS=limit)
        assert b"Traceback" not in run.stderr
        assert run.returncode == 0
        runs = json.loads(run.stdout)
        assert len(runs) == len(commands)
        for code, stderr in runs:
            assert code in (0, 1, 2, 3)
            assert "Traceback" not in stderr

    @pytest.mark.parametrize("argv", [
        WIDE_CERTIFICATE[:-4] + ["--v1", "1/3", "--v2", "1/3"],
        ["build", "--group", GROUP, "--norm", NORM, "--depth", "10000", "--out", "TABLE"],
    ], ids=["flushed-at-the-end", "written-by-the-command"])
    def test_closed_stdout_is_a_usage_error(self, tmp_path, argv):
        # The certificate's 3113 bytes wait in stdout's buffer until main
        # flushes it; k_last at depth 10000 is written while build prints.
        argv = [str(tmp_path / "t.json") if arg == "TABLE" else arg for arg in argv]
        read, write = os.pipe()
        os.close(read)   # the reader is gone before the command writes
        try:
            run = run_command(argv, stdout=write)
        finally:
            os.close(write)
        assert run.returncode == 2
        assert run.stderr.decode() == "error: cannot write stdout: Broken pipe\n"

    def test_output_does_not_depend_on_the_hash_seed(self, tmp_path):
        # The suites keep their memos in dicts; no output may follow hash order.
        table = tmp_path / "z2.json"
        assert main(["build", "--group", '{"free_rank":2}', "--norm",
                     '{"type":"capped_l1","weights":["1/1","1/2"]}', "--depth", "50",
                     "--out", str(table)]) == 0
        commands = [
            ["verify", "--table", str(table), "--suite", "all", "--samples", "300"],
            ["eval", "--table", str(table), "--element", '{"h":[1,-2],"k":7}'],
            ["counterexample", "--grid", "7"],
        ]
        for argv in commands:
            runs = [run_command(argv, PYTHONHASHSEED=seed) for seed in ("0", "1", "12345")]
            for run in runs:
                assert run.returncode in (0, 1, 2, 3)
                assert b"Traceback" not in run.stderr
            assert runs[0].stdout and {run.stdout for run in runs} == {runs[0].stdout}


# SHA-256 of the whole construction a build at these depths makes, one per
# shape (``oracle.construction_digest``).  A table file stores only a digest
# of its header, so a change to these pins must come with a ``TABLE_VERSION``
# bump: files written before it would otherwise load as different tables.
PINNED_TABLE_DIGESTS = {
    ('{"free_rank":2}', '{"type":"capped_l1","weights":["1/1","1/1"]}'): {
        50: "077cf1deb0e9f769440fc4b32429910ba3c1a037766c55f4ade283a63cdbb5b0",
        1000: "e868bfee9f64e437b8fba074c933fb47f1d1a1ffc9e100b9e7ebbe135f128fe2",
        2500: "4d843c4230dbca654fe5ee7c9007eff1377ecc26abe54c658d2f367ced99b000",
    },
    ('{"free_rank":3}', '{"type":"capped_linf","scale":"1/2"}'): {
        50: "497500fe2988749bb568f681d4f4bcea62412201c3618311957478403743ed05",
        1000: "08dd696b0248afaf8700956bf40087ed04f5a87668efa5a1ac6ab86954e68476",
        2500: "16ddb7c39201006eba8de6e8c1644fc94983dd235d26c5bbd71ce235c7862f50",
    },
    ('{"torsion_moduli":[5,9,7]}', '{"type":"cyclic_scaled"}'): {
        50: "cd81cefa56c58bbda77660d83cc081fe155c8300f60fe3eae2417f6ed8cc28d6",
        1000: "945f2566782a56420778e9d36971d1236bd11919491d568a6d47f640c8334823",
        2500: "33ea011787a7735731a9e811b833fb5b55f592b58846d7cff2c2bef1edf35ffe",
    },
}


class TestPinnedBytes:
    @pytest.mark.parametrize("group,norm", list(PINNED_TABLE_DIGESTS))
    def test_table_digests(self, group, norm):
        descriptor = descriptor_from_json(json.loads(group))
        spec = norm_spec_from_json(json.loads(norm))
        for depth, digest in PINNED_TABLE_DIGESTS[group, norm].items():
            assert construction_digest(build_anchor_table(descriptor, spec, depth)) == digest

    def test_counterexample_grid(self, tmp_path, capsys):
        out = tmp_path / "certs.jsonl"
        assert main(["counterexample", "--grid", "50", "--out", str(out)]) == 0
        stdout = capsys.readouterr().out.encode()
        assert hashlib.sha256(stdout).hexdigest() == (
            "64922d400a376f42eeb7b8e3213191331ccb3d3481bd5b13adc1d7f26fcd7b5f")
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "710bcea37e74153edb01a317e07a157bbd89556da2e69d73bc2e8df49487444d")

    def test_counterexample_largest_grid(self, tmp_path, capsys):
        out = tmp_path / "certs.jsonl"
        assert main(["counterexample", "--grid", "500", "--out", str(out)]) == 0
        stdout = capsys.readouterr().out.encode()
        assert hashlib.sha256(stdout).hexdigest() == (
            "53c503baf35994cd45d0d6631c5a714a6363395cb751adea7a7d628b48cde53b")
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "c8bebc26ce0e62747b9c0a63495639dd905b0fbcad49102b165ea9e0bd60583f")
