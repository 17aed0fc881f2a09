from __future__ import annotations

import argparse
import hashlib
import io
import os
import re
import shlex
import subprocess
import sys
import tempfile
import time
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lll_toolkit
from lll_toolkit import exhaustive, galton_watson
from lll_toolkit.cli import build_parser, dispatch, q
from lll_toolkit.corpus import toy_corpus
from lll_toolkit.families import ChainCnfFamily
from lll_toolkit.formats import (FormatError, log_from_text, parse_rational,
                                 read_dimacs, read_patterns, read_system,
                                 write_system)
from lll_toolkit.layerwise import stability_horizon
from lll_toolkit.model import StreamParams
from test_formats import FUZZ_CHAIN, FUZZ_SEEDS, chain_cnf, mutated_inputs
from test_layerwise import recorded_censuses

F = Fraction

M3_SYSTEM = """\
var 0 2 1/2 1/2
var 1 2 1/2 1/2
var 2 2 1/2 1/2
var 3 2 1/2 1/2
var 4 2 1/2 1/2
var 5 2 1/2 1/2
var 6 2 1/2 1/2
event 0 vbl 0 1 2 forbid 1 1 1
event 1 vbl 2 3 4 forbid 1 1 1
event 2 vbl 0 5 6 forbid 1 1 1
z 0 1/2
z 1 1/2
z 2 1/2
alpha 1
"""

ONE_BIT = """\
var 0 2 1/2 1/2
event 0 vbl 0 forbid 1
"""

DIMACS_M3 = """\
p cnf 7 3
1 2 3 0
-3 -4 -5 0
1 6 7 0
"""


@pytest.fixture
def m3_file(tmp_path):
    path = tmp_path / "m3.system"
    path.write_text(M3_SYSTEM)
    return str(path)


@pytest.fixture
def one_bit_file(tmp_path):
    path = tmp_path / "one.system"
    path.write_text(ONE_BIT)
    return str(path)


def run_cli(capsys, *argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_equality_case(m3_file, capsys):
    code, out, _ = run_cli(capsys, "check", "--input", m3_file)
    assert code == 0
    assert "event=0 lhs=1/8(0.125) rhs=1/8(0.125) holds=true" in out
    assert "holds=true" in out.splitlines()[-1]


def test_check_dimacs_with_z_flag(tmp_path, capsys):
    path = tmp_path / "m3.cnf"
    path.write_text(DIMACS_M3)
    code, out, _ = run_cli(capsys, "check", "--input", str(path),
                           "--z-all", "1/2")
    assert code == 0
    assert "avoid_bound=1/8(0.125)" in out


def test_check_failing_condition(one_bit_file, capsys):
    code, out, _ = run_cli(capsys, "check", "--input", one_bit_file,
                           "--z-all", "1/4")
    assert code == 1
    assert "holds=false" in out


def test_check_manifest_line(m3_file, capsys):
    _, out, _ = run_cli(capsys, "check", "--input", m3_file)
    manifest = out.splitlines()[0]
    assert manifest.startswith("manifest ")
    assert "subcommand=check" in manifest
    assert "version=0.1.0" in manifest


def test_manifest_file_matches_line(m3_file, tmp_path, capsys):
    out_path = str(tmp_path / "run.manifest")
    _, out, _ = run_cli(capsys, "check", "--input", m3_file,
                        "--manifest-out", out_path)
    with open(out_path) as handle:
        assert handle.read().strip() == out.splitlines()[0]


def test_unknown_subcommand(capsys):
    code, _, _ = run_cli(capsys, "frobnicate")
    assert code == 2


def test_missing_file_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "check", "--input", "/nonexistent")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("argv,spec", [
    (["stream", "--family", "chain:m3", "--k", "3", "--max-steps", "5"],
     "family spec 'chain:m3'"),
    (["stream", "--family", "chain:m=abc", "--k", "3", "--max-steps", "5"],
     "family spec 'chain:m=abc'"),
    (["stream", "--family", "substrings:/nonexistent:1/2:x", "--k", "3",
      "--max-steps", "5"], "family spec 'substrings:/nonexistent:1/2:x'"),
    (["extract", "--oracle", "pair:01:1/2:10"],
     "oracle spec 'pair:01:1/2:10'"),
    (["extract", "--oracle", "point:"], "oracle spec 'point:'"),
    (["extract", "--oracle", "point:01", "--w", "x"], "--w"),
    (["extract", "--oracle", "point:01", "--count", "0"], "--count 0"),
    (["extract", "--oracle", "point:01", "--count", "-3"], "--count -3"),
    (["fireworks", "--beat", "--oracle", "const:abc"],
     "oracle spec 'const:abc'"),
    (["fireworks", "--beat", "--oracle", "diverge:x"],
     "oracle spec 'diverge:x'"),
    (["fireworks", "--seller-k", "-2"], "seller_k must be >= 0"),
    (["extract", "--oracle", "pair:0:-1/2:1:3/2"],
     "atom 0 has negative mass -1/2"),
    (["extract", "--oracle", "pair:0:3/2:1:1/2"],
     "atom masses sum to 2, more than 1"),
    (["extract", "--oracle", "pair:0:3/4:0:1/2"],
     "atom masses sum to 5/4, more than 1"),
    (["extract", "--oracle", "pair:0:1:0:-1/2"],
     "atom 0 has negative mass -1/2"),
    # refused only after the manifest, or after the whole run for `stream`
    (["stream", "--family", "chain:m=4,overlap=1,polarity=7", "--k", "8",
      "--max-steps", "500", "--certify-cell", "0"],
     "--certify-cell needs --z-all and --alpha"),
    (["stream", "--family", "chain:m=4,overlap=1,polarity=7", "--k", "8",
      "--max-steps", "500", "--certify-cell", "-1", "--z-all", "1/4",
      "--alpha", "1/2"], "cell must be >= 0"),
    (["fireworks", "--beat", "--epsilon", "0"], "epsilon must lie in (0, 1]"),
    (["fireworks", "--n", "0"], "n must be >= 1"),
    (["extract", "--oracle", "point:01", "--r", "abc"],
     "bad rational 'abc': not an integer or num/den"),
    (["extract", "--oracle", "point:01", "--r", "0"],
     "threshold r must be positive"),
    # a rational flag is an integer or num/den
    (["extract", "--oracle", "point:01", "--r", "1e-1"],
     "bad rational '1e-1': not an integer or num/den"),
    (["fireworks", "--beat", "--epsilon", "0.5"],
     "bad rational '0.5': not an integer or num/den"),
    (["stream", "--family", "chain:m=4,overlap=1,polarity=7", "--k", "8",
      "--max-steps", "500", "--certify-cell", "0", "--z-all", "1/4",
      "--alpha", "1/2", "--delta", "1e3"],
     "bad rational '1e3': not an integer or num/den"),
])
def test_malformed_spec_is_usage_error(capsys, argv, spec):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {spec}")


@pytest.mark.parametrize("flags, token", [
    (["--z-all", "0.5"], "0.5"), (["--z-all", "1/2", "--alpha", "1_0"], "1_0"),
    (["--alpha", "9e-1"], "9e-1")])
def test_a_rational_flag_is_an_integer_or_num_den(m3_file, capsys, flags,
                                                  token):
    assert run_cli(capsys, "check", "--input", m3_file, *flags) == (
        2, "", f"error: bad rational {token!r}: not an integer or num/den\n")


def test_stream_requires_max_steps(capsys):
    code, out, err = run_cli(capsys, "stream", "--family", "chain:", "--k",
                             "3")
    assert code == 2
    assert out == ""
    assert "--max-steps" in err


@pytest.mark.parametrize("command, message", [
    ("check", "no z values given (z lines or --z-all)"),
    ("gw", "gw needs z values (z lines or --z-all)"),
    ("solve", "give --max-steps or z values for the default")])
def test_a_command_needing_z_values_refuses_a_system_without_them(
        tmp_path, capsys, command, message):
    path = tmp_path / "m3.cnf"
    path.write_text(DIMACS_M3)
    assert run_cli(capsys, command, "--input", str(path)) == (
        2, "", f"error: {message}\n")


STREAM_CERTIFY = ["stream", "--family", "chain:m=3", "--k", "5",
                  "--max-steps", "100", "--certify-cell", "0", "--z-all",
                  "1/4", "--alpha"]


def test_stream_certifies_a_cell_needing_trees_of_thousands_of_vertices(
        capsys):
    code, out, err = run_cli(capsys, *STREAM_CERTIFY, "9999/10000")
    assert (code, err) == (0, "")
    assert out.splitlines()[1] == "cell=0 delta=1/16 N=252502 m=23671 k=23672"


def test_stream_refuses_a_cell_past_the_neighbor_ball_guard(capsys):
    t0 = time.perf_counter()
    assert run_cli(capsys, *STREAM_CERTIFY, "99999999/100000000") == (
        3, "", "refused: event 0: no tree size m <= 100000 (the neighbor "
               "ball guard) meets its share of delta\n")
    assert time.perf_counter() - t0 < 5


def test_family_error_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "stream", "--family", "chain:m=3",
                           "--k", "-1", "--max-steps", "5")
    assert code == 2
    assert err.startswith("error: ")


def run_module(module, *argv):
    """`python -m module argv...` with this checkout's package on the path."""
    src = str(Path(lll_toolkit.__file__).resolve().parent.parent)
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", module, *argv],
                          capture_output=True, text=True, env=env, timeout=60)


def test_module_runs_as_a_script():
    proc = run_module("lll_toolkit.cli", "check", "--help")
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: lll check")


def test_the_package_runs_as_the_cli(m3_file, capsys):
    # `python -m lll_toolkit` runs the CLI from a checkout, with the bytes
    # and exit code of `dispatch`
    proc = run_module("lll_toolkit", "check", "--input", m3_file)
    assert (proc.returncode, proc.stdout, proc.stderr) == run_cli(
        capsys, "check", "--input", m3_file)
    assert proc.stdout.startswith("manifest ")


@pytest.mark.parametrize("text, message", [
    # the second law would silently replace the first
    ("var 0 2 1/2 1/2\nvar 0 2 1/3 2/3\nevent 0 vbl 0 forbid 1\nz 0 1/2\n",
     "error: line 2: var 0 is already given on line 1\n"),
    (ONE_BIT + "event 0 vbl 0 forbid 0\nz 0 1/2\n",
     "error: line 3: event 0 is already given on line 2\n"),
    ("var 0 2 1/2 1/2\nvar 2 2 1/2 1/2\nevent 0 vbl 0 forbid 1\nz 0 1/2\n",
     "error: line 2: variable indices must be 0..n-1, and no line gives "
     "var 1\n"),
    ("var 0 2 1/2 1/2\nevent 0 vbl 5 forbid 1\nz 0 1/2\n",
     "error: line 2: event 0 uses unknown variable 5\n"),
])
def test_check_names_the_line_of_a_bad_system(tmp_path, capsys, text,
                                              message):
    path = tmp_path / "bad.system"
    path.write_text(text)
    assert run_cli(capsys, "check", "--input", str(path)) == (2, "", message)


def test_solve_deterministic_replay(m3_file, capsys):
    code, out1, _ = run_cli(capsys, "solve", "--input", m3_file,
                            "--seed", "7")
    assert code == 0
    code, out2, _ = run_cli(capsys, "solve", "--input", m3_file,
                            "--seed", "7")
    assert out1 == out2
    assert "status=satisfied" in out1
    assert any(line.startswith("resamples=") for line in out1.splitlines())


def test_solve_with_explicit_tape(one_bit_file, capsys):
    code, out, _ = run_cli(capsys, "solve", "--input", one_bit_file,
                           "--tape-hex", "2:2", "--max-steps", "5")
    # bits "10": initial 1 (event true), resample to 0
    assert code == 0
    assert "resamples=1 status=satisfied" in out
    assert "assignment=0" in out


@pytest.mark.parametrize("text", ["zz", "8:zz", "-3:0", "2:", "1:f"])
def test_solve_rejects_malformed_tape_hex(one_bit_file, capsys, text):
    code, out, err = run_cli(capsys, "solve", "--input", one_bit_file,
                             f"--tape-hex={text}", "--max-steps", "5")
    assert code == 2
    assert out == ""
    assert err.startswith("error: tape ")


def test_solve_rejects_a_non_integer_seed_variable(one_bit_file, capsys,
                                                   monkeypatch):
    monkeypatch.setenv("LLL_SEED", "abc")
    code, out, err = run_cli(capsys, "solve", "--input", one_bit_file,
                             "--max-steps", "5")
    assert code == 2
    assert out == ""
    assert err.startswith("error: LLL_SEED: 'abc' is not an integer")


@pytest.mark.parametrize("argv", [
    ["solve", "--input", "{one}", "--max-steps", "5"],
    ["gw", "--input", "{one}", "--z-all", "1/2", "--sample", "--samples",
     "3"],
    ["prefix", "--input", "{one}", "--length", "1", "--mode", "empirical",
     "--trials", "20", "--max-steps", "5"],
    ["avoid", "--forbidden", "{patterns}", "--gamma", "1/2", "--length",
     "40"],
    ["fireworks", "--beat", "--oracle", "const:5", "--epsilon", "1/4"],
])
def test_seed_comes_from_the_environment_and_is_in_the_manifest(
        one_bit_file, tmp_path, capsys, monkeypatch, argv):
    patterns = tmp_path / "patterns.txt"
    patterns.write_text("0" * 22 + "\n" + "1" * 22 + "\n")
    argv = [a.format(one=one_bit_file, patterns=patterns) for a in argv]
    monkeypatch.setenv("LLL_SEED", "5")
    _, from_env, _ = run_cli(capsys, *argv)
    monkeypatch.delenv("LLL_SEED")
    _, from_flag, _ = run_cli(capsys, *argv, "--seed", "5")
    _, default, _ = run_cli(capsys, *argv)
    assert " seed=5 " in from_env.splitlines()[0]
    assert from_env == from_flag
    assert " seed=0 " in default.splitlines()[0]
    monkeypatch.setenv("LLL_SEED", "6")
    _, flag_wins, _ = run_cli(capsys, *argv, "--seed", "5")
    assert flag_wins == from_flag


@pytest.mark.parametrize("command", ["prefix", "avoid"])
def test_tape_hex_is_only_offered_where_a_tape_is_read(command, capsys):
    code, out, _ = run_cli(capsys, command, "--help")
    assert code == 0
    assert "--seed" in out
    assert "--tape-hex" not in out


@pytest.mark.parametrize("argv,flag", [
    (["solve", "--input", "{m3}", "--max-steps", "10"], "--log-out"),
    (["solve", "--input", "{m3}", "--max-steps", "10"], "--manifest-out"),
    (["stream", "--family", "chain:m=3", "--k", "3", "--max-steps", "10"],
     "--log-out"),
    (["stream", "--family", "chain:m=3", "--k", "3", "--max-steps", "10"],
     "--manifest-out"),
    (["selftest"], "--manifest-out")],
    ids=["solve-log", "solve-manifest", "stream-log", "stream-manifest",
         "selftest-manifest"])
def test_an_unwritable_output_file_prints_nothing(m3_file, capsys, argv,
                                                  flag):
    # each output file is written before the first line is printed; a path
    # under a file can never be written
    argv = [arg.format(m3=m3_file) for arg in argv]
    code, out, err = run_cli(capsys, *argv, flag, m3_file + "/out")
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


def test_solve_log_out_and_witness(m3_file, tmp_path, capsys):
    log_path = str(tmp_path / "run.log")
    code, _, _ = run_cli(capsys, "solve", "--input", m3_file,
                         "--seed", "6", "--log-out", log_path)
    assert code == 0
    assert os.path.exists(log_path)
    code, out, _ = run_cli(capsys, "witness", "--input", m3_file,
                           "--log", log_path)
    assert code == 0


@pytest.mark.parametrize("event", ["-1", "3"])
def test_witness_rejects_a_log_naming_a_missing_event(m3_file, tmp_path,
                                                      capsys, event):
    # the initial draws make event 2 true, which -1 must not stand for
    log_path = tmp_path / "bad.log"
    log_path.write_text("init 1 0 0 0 0 1 1\n"
                        f"step 1 event {event} draws 0:1:0,5:1:0,6:1:0\n")
    code, out, err = run_cli(capsys, "witness", "--input", m3_file,
                             "--log", str(log_path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: line 2: step 1: no event {event} ")


def test_witness_names_the_line_of_the_step_replay_refuses(one_bit_file,
                                                          tmp_path, capsys):
    # step 2 redraws x0 = 0, so event 0 is false before step 3; blank lines
    # put that step on line 6
    log_path = tmp_path / "three.log"
    log_path.write_text("init 1\n\nstep 1 event 0 draws 0:1:1\n"
                        "step 2 event 0 draws 0:2:0\n\n"
                        "step 3 event 0 draws 0:3:1\n")
    code, out, err = run_cli(capsys, "witness", "--input", one_bit_file,
                             "--log", str(log_path))
    assert (code, out) == (2, "")
    assert err == "error: line 6: step 3: event 0 was not true\n"
    log_path.write_text("\ninit 1 0\nstep 1 event 0 draws 0:1:1\n")
    code, out, err = run_cli(capsys, "witness", "--input", one_bit_file,
                             "--log", str(log_path))
    assert (code, out) == (2, "")
    assert err == ("error: line 2: log initial draws do not match the "
                   "variable count\n")


@pytest.mark.parametrize("log, message", [
    ("init 0 0 1\nstep 1 event 0 draws 0:1:7,1:1:0\n",
     "line 2: step 1: x0 value 7 is outside its range 0..1"),
    ("init 9 0 1\n", "line 1: init: x0 value 9 is outside its range 0..1"),
    ("init 0 0 1\nstep 1 event 0 draws 0:1:1,1:1:-1\n",
     "line 2: step 1: x1 value -1 is outside its range 0..1"),
])
def test_witness_refuses_a_value_outside_its_range(tmp_path, capsys, log,
                                                   message):
    cnf_path, log_path = tmp_path / "two.cnf", tmp_path / "bad.log"
    cnf_path.write_text("p cnf 3 2\n1 2 0\n-2 3 0\n")
    log_path.write_text(log)
    code, out, err = run_cli(capsys, "witness", "--input", str(cnf_path),
                             "--log", str(log_path))
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


def test_stream_subcommand(capsys):
    code, out, _ = run_cli(capsys, "stream", "--family",
                           "chain:m=3,overlap=1,polarity=4", "--k", "4",
                           "--seed", "2", "--max-steps", "200")
    assert code == 0
    assert "status=satisfied" in out
    assert "stable_time k=0 t=0" in out


def test_stream_certificate_line(capsys):
    code, out, _ = run_cli(capsys, "stream", "--family",
                           "chain:m=4,overlap=1,polarity=7", "--k", "8",
                           "--seed", "1", "--max-steps", "500",
                           "--certify-cell", "0", "--delta", "1/16",
                           "--z-all", "1/4", "--alpha", "1/2")
    assert code == 0
    assert "cell=0 delta=1/16 N=54 m=4 k=5" in out


def test_stream_rejects_a_negative_certify_cell(capsys):
    code, out, err = run_cli(capsys, "stream", "--family",
                             "chain:m=4,overlap=1,polarity=7", "--k", "8",
                             "--seed", "1", "--max-steps", "500",
                             "--certify-cell", "-1",
                             "--z-all", "1/4", "--alpha", "1/2")
    assert code == 2
    assert "cell=" not in out
    assert err.startswith("error: cell must be >= 0")


def test_gw_check_subcommand(one_bit_file, capsys):
    code, out, _ = run_cli(capsys, "gw", "--input", one_bit_file,
                           "--z-all", "3/4", "--bit-budget", "12")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("tree=")]
    assert lines
    assert all("ok=true" in l for l in lines)
    assert "gw_total root=0" in out
    assert "certified=true" in out


def test_gw_with_no_tree_over_unresolved_mass_is_not_certified(tmp_path,
                                                               capsys):
    # at 0 coins no run of the one clause resolves and no tree appears
    path = tmp_path / "one.cnf"
    path.write_text("p cnf 1 1\n1 0\n")
    code, out, _ = run_cli(capsys, "gw", "--input", str(path), "--z-all",
                           "1/2", "--bit-budget", "0")
    assert code == 1
    assert "tree=" not in out
    assert out.splitlines()[-1] == "condition=true certified=false"


def test_gw_of_one_clause_at_a_deep_budget(tmp_path, capsys):
    # every run repeats the one clause, so the census regrows a chain per
    # step up to 1,100 levels deep: deeper than the recursion limit
    path = tmp_path / "one.cnf"
    path.write_text("p cnf 1 1\n1 0\n")
    code, out, _ = run_cli(capsys, "gw", "--input", str(path), "--z-all",
                           "3/4", "--alpha", "4/5", "--bit-budget", "1100")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 1102
    assert lines[-1] == "condition=true certified=true"


def test_gw_sample_subcommand(one_bit_file, capsys):
    code, out, _ = run_cli(capsys, "gw", "--input", one_bit_file,
                           "--z-all", "1/2", "--sample", "--samples", "5",
                           "--seed", "3")
    assert code == 0
    assert len([l for l in out.splitlines() if l.startswith("sample=")]) == 5


@pytest.mark.parametrize("flags,message", [
    (["--root", "5"], "root 5 is not an event in 0..0"),
    (["--samples", "-2"], "--samples -2: must be >= 1"),
    (["--depth-budget", "-1"], "depth_budget must be >= 0"),
])
def test_gw_sample_rejects_bad_input(one_bit_file, capsys, flags, message):
    code, out, err = run_cli(capsys, "gw", "--input", one_bit_file,
                             "--z-all", "1/2", "--sample", *flags)
    assert code == 2
    assert "sample=" not in out
    assert err.startswith(f"error: {message}")


@pytest.mark.parametrize("flags,message", [
    (["--bit-budget", "-1"], "bit_budget must be >= 0"),
    (["--sample", "--depth-budget", "-1"], "depth_budget must be >= 0"),
])
def test_gw_checks_its_input_before_the_manifest(one_bit_file, capsys, flags,
                                                 message):
    code, out, err = run_cli(capsys, "gw", "--input", one_bit_file,
                             "--z-all", "1/2", *flags)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {message}")


@pytest.mark.parametrize("step", ["0", "99"])
def test_witness_checks_its_step_before_the_manifest(one_bit_file, tmp_path,
                                                     capsys, step):
    log_path = tmp_path / "two.log"
    log_path.write_text("init 1\nstep 1 event 0 draws 0:1:1\n"
                        "step 2 event 0 draws 0:2:0\n")
    code, out, err = run_cli(capsys, "witness", "--input", one_bit_file,
                             "--log", str(log_path), "--step", step)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: step must be in 1..2, got {step}")


def test_witness_of_a_log_with_no_steps_says_so(one_bit_file, tmp_path,
                                               capsys):
    log_path = tmp_path / "empty.log"
    log_path.write_text("init 0\n")
    code, out, err = run_cli(capsys, "witness", "--input", one_bit_file,
                             "--log", str(log_path), "--step", "1")
    assert (code, out) == (2, "")
    assert err == "error: the log has no steps\n"


def test_witness_indents_a_tree_of_any_depth(tmp_path, capsys):
    # every step resamples the one clause, so the tree of step 1,100 is a
    # chain 1,100 levels deep: deeper than the recursion limit
    cnf = tmp_path / "one.cnf"
    cnf.write_text("p cnf 1 1\n1 0\n")
    log_path = tmp_path / "deep.log"
    log_path.write_text("init 0\n" + "".join(
        f"step {k} event 0 draws 0:{k}:{int(k == 1100)}\n"
        for k in range(1, 1101)))
    code, out, _ = run_cli(capsys, "witness", "--input", str(cnf), "--log",
                           str(log_path), "--step", "1100", "--indent")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 1102
    assert lines[-1] == " " * 2198 + "0"


def test_extract_point_oracle(capsys):
    code, out, _ = run_cli(capsys, "extract", "--oracle", "point:01",
                           "--count", "6")
    assert code == 0
    assert "cells=010101" in out


def test_extract_pair_oracle_heavy_branch(capsys):
    code, out, _ = run_cli(capsys, "extract", "--oracle",
                           "pair:1:3/5:0:2/5", "--r", "2/5", "--count", "4")
    assert code == 0
    assert "cells=1111" in out


@pytest.mark.parametrize("spec", ["pair:0:1:0:0", "pair:0:1/2:0:1/2"])
def test_extract_pair_oracle_adds_equal_patterns(capsys, spec):
    # all the mass sits on branch 000..., once the two atoms' masses add
    code, out, _ = run_cli(capsys, "extract", "--oracle", spec, "--r", "1/2",
                           "--count", "4")
    assert code == 0
    assert "cells=0000" in out


def test_extract_contract_violation(capsys):
    code, _, err = run_cli(capsys, "extract", "--oracle",
                           "pair:1:3/5:0:2/5", "--r", "1/10", "--count", "2")
    assert code == 1
    assert "failed" in err


def test_prefix_exact(one_bit_file, capsys):
    code, out, _ = run_cli(capsys, "prefix", "--input", one_bit_file,
                           "--length", "1", "--mode", "exact")
    assert code == 0
    assert "cells=0" in out
    assert "interval lo=" in out


def test_prefix_exact_of_length_zero(one_bit_file, capsys):
    code, out, _ = run_cli(capsys, "prefix", "--input", one_bit_file,
                           "--length", "0", "--mode", "exact")
    assert code == 0
    lines = out.splitlines()
    assert lines[1:2] == ["cells="]
    assert lines[2].startswith("interval lo=") and len(lines) == 3


@pytest.mark.parametrize("guard", ["0", "-5"])
def test_prefix_rejects_a_branch_guard_below_one(one_bit_file, capsys, guard):
    code, _, err = run_cli(capsys, "prefix", "--input", one_bit_file,
                           "--length", "1", "--mode", "exact",
                           f"--branch-guard={guard}")
    assert code == 2
    assert err.startswith("error: branch_guard must be >= 1")


@pytest.mark.parametrize("flag", ["--branch-guard=0", "--length=-1",
                                  "--delta=0"])
def test_prefix_checks_its_input_before_the_manifest(one_bit_file, capsys,
                                                     flag):
    code, out, err = run_cli(capsys, "prefix", "--input", one_bit_file,
                             "--length", "1", "--mode", "exact", flag)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_prefix_refuses_a_coin_guard_that_resolves_no_run(tmp_path, capsys):
    path = tmp_path / "one.cnf"
    path.write_text("p cnf 1 1\n1 0\n")
    code, out, err = run_cli(capsys, "prefix", "--input", str(path),
                             "--length", "1", "--mode", "exact",
                             "--bit-guard", "0")
    assert code == 3
    assert out == ""
    assert err == ("refused: no child with positive lower bound within the "
                   "coin guard of 0 coins at prefix ()\n")


@pytest.mark.parametrize("guard,budgets,mass", [("4", [4], "1/2"),
                                                 ("8", [8], "1/8")])
def test_exact_prefix_reads_no_coin_past_its_bit_guard(tmp_path, capsys,
                                                       monkeypatch, guard,
                                                       budgets, mass):
    # the interval used to start at 8 coins whatever the guard, and at
    # guard 8 ran the oracle's 8-coin census a second time
    path = tmp_path / "tiny.cnf"
    path.write_text("p cnf 3 2\n1 2 0\n-2 3 0\n")
    seen = recorded_censuses(monkeypatch)
    code, out, err = run_cli(capsys, "prefix", "--input", str(path),
                             "--length", "3", "--mode", "exact",
                             "--bit-guard", guard)
    assert code == 3
    assert out == ""
    assert err == (f"refused: cannot reach width 1/64 within {guard} coins "
                   f"(unresolved mass {mass})\n")
    assert seen == budgets


def test_avoid_subcommand(tmp_path, capsys):
    patterns = tmp_path / "patterns.txt"
    patterns.write_text("".join(f"{'0' * m}\n{'1' * m}\n"
                                for m in range(2, 13)))
    code, out, _ = run_cli(capsys, "avoid", "--forbidden", str(patterns),
                           "--gamma", "1/2", "--length", "64", "--seed", "1")
    assert code == 0
    assert "M=22" in out
    assert "beta=3/4(0.75)" in out
    assert "scan_ok=true" in out


def test_avoid_rejects_a_negative_length(tmp_path, capsys):
    patterns = tmp_path / "patterns.txt"
    patterns.write_text("0000\n")
    code, out, err = run_cli(capsys, "avoid", "--forbidden", str(patterns),
                             "--gamma", "1/2", "--length", "-5")
    assert code == 2
    assert out == ""
    assert err.startswith("error: length -5")


@pytest.mark.parametrize("argv", [
    ["avoid", "--forbidden", "{patterns}", "--gamma", "1/2", "--length", "8"],
    ["stream", "--family", "substrings:{patterns}:1/2:1", "--k", "3",
     "--max-steps", "5"],
])
def test_a_pattern_file_names_the_line_of_a_bad_pattern(tmp_path, capsys,
                                                        argv):
    patterns = tmp_path / "patterns.txt"
    patterns.write_text("0000\n\n01x1\n")
    code, out, err = run_cli(
        capsys, *(arg.format(patterns=patterns) for arg in argv))
    assert code == 2
    assert out == ""
    assert err == "error: line 3: pattern '01x1' is not a bit string\n"


def test_exact_avoid_refuses_a_window_past_the_branch_guard(tmp_path,
                                                            capsys):
    # every pattern is shorter than M = 22, so the 30-bit window has no
    # clauses and its exact census would hold about 2^30 outputs
    patterns = tmp_path / "patterns.txt"
    patterns.write_text("0000\n1111\n01\n")
    code, out, err = run_cli(capsys, "avoid", "--forbidden", str(patterns),
                             "--gamma", "1/2", "--length", "30",
                             "--mode", "exact")
    assert code == 3
    assert out == ""
    assert err.startswith("refused: branch guard")


def test_prefix_budget_refusal_exit_code(tmp_path, capsys):
    # a non-dyadic marginal leaves 2^-B mass unresolved at every budget, so
    # an unreachable width must be refused with exit code 3
    path = tmp_path / "thirds.system"
    path.write_text("var 0 2 1/3 2/3\nevent 0 vbl 0 forbid 1\n")
    code, _, err = run_cli(capsys, "prefix", "--input", str(path),
                           "--length", "1", "--mode", "exact",
                           "--delta", "1/1125899906842624",
                           "--branch-guard", "20000")
    assert code == 3
    assert "refused" in err


def test_fireworks_game(capsys):
    code, out, _ = run_cli(capsys, "fireworks", "--n", "100")
    assert code == 0
    assert "win_probability=99/100(0.99)" in out


def test_fireworks_play_and_beat(capsys):
    code, out, _ = run_cli(capsys, "fireworks", "--n", "4", "--seller-k",
                           "2", "--seed", "1")
    assert code == 0
    assert "outcome=" in out
    code, out, _ = run_cli(capsys, "fireworks", "--beat", "--oracle",
                           "const:5", "--epsilon", "1/4", "--seed", "2")
    assert code == 0
    assert "status=" in out


def test_fireworks_refuses_a_uniform_law_past_its_guard(capsys):
    # 1/epsilon = 10^20 values: refused before the law is built
    code, out, err = run_cli(capsys, "fireworks", "--beat", "--epsilon",
                             "1/100000000000000000000", "--seed", "1")
    assert (code, out) == (3, "")
    assert err.startswith("refused: a uniform law on 10" + "0" * 19)


def test_fireworks_refuses_an_exact_game_past_its_guard(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "fireworks", "--n", "2000")
    assert time.perf_counter() - start < 1
    assert (code, out) == (3, "")
    assert err == ("refused: an exact game value over 2000 test counts "
                   "exceeds the guard of 256\n")


def test_a_failing_run_prints_nothing_on_stdout(capsys):
    # the game fails on its tape after the win probability is computed
    code, out, err = run_cli(capsys, "fireworks", "--n", "5", "--seller-k",
                             "2", "--tape-hex", "0:")
    assert (code, out) == (1, "")
    assert err == "failed: explicit tape exhausted\n"
    code, out, err = run_cli(capsys, "extract", "--oracle",
                             "pair:1:3/5:0:2/5", "--r", "1/10", "--count",
                             "2")
    assert (code, out) == (1, "")
    assert err.startswith("failed: ")


def test_selftest(capsys):
    code, out, _ = run_cli(capsys, "selftest")
    assert code == 0
    assert "selftest=pass" in out
    assert out.count("ok=true") == 6


def test_selftest_runs_one_census_per_corpus_entry(monkeypatch, capsys):
    # the tree lemma is read off the process comparison's census; each
    # module's global is recorded, so a census run by either check counts
    seen = recorded_censuses(monkeypatch, exhaustive, galton_watson)
    assert run_cli(capsys, "selftest")[0] == 0
    assert seen == [entry.bit_budget for entry in toy_corpus()]


# sha256 of "exit code, stdout, stderr" of commands whose code paths share
# the witness-tree and branching-process layers, with each input file's path
# written as its name in braces
PINNED_RUNS = {
    "selftest": ("selftest",),
    "gw-sample-root1": ("gw", "--input", "{m3}", "--sample", "--root", "1",
                        "--seed", "4", "--samples", "6"),
    "gw-sample-root2": ("gw", "--input", "{m3}", "--sample", "--root", "2",
                        "--seed", "9", "--samples", "6", "--depth-budget",
                        "2"),
    "gw-sample-bad-root": ("gw", "--input", "{m3}", "--sample", "--root",
                           "7"),
    "avoid-empirical": ("avoid", "--forbidden", "{patterns}", "--gamma",
                        "1/2", "--length", "40", "--seed", "3"),
    "avoid-exact": ("avoid", "--forbidden", "{patterns}", "--gamma", "1/2",
                    "--length", "10", "--mode", "exact"),
    "fireworks-beat-identity": ("fireworks", "--beat", "--oracle",
                                "identity", "--epsilon", "1/4", "--seed",
                                "2"),
    "fireworks-beat-diverge": ("fireworks", "--beat", "--oracle",
                               "diverge:1,3", "--epsilon", "1/8", "--seed",
                               "5"),
}
PINNED_RUN_DIGESTS = {
    "avoid-empirical":
        "c594edfc5bc254272443fe4613701e95821744f7bef0138eb530524d820a71f1",
    "avoid-exact":
        "a3afbf0daeeb4a93531a8f977b5b0e77c05a827e25ea23a371e8577ad876694d",
    "fireworks-beat-diverge":
        "924b8f81daf14f7eb88415f1cdbe9b27828bd2cc2c3915be8616e03617929023",
    "fireworks-beat-identity":
        "e4556b1bf940dd7e764ed267e6db0495b2ec348a833e8490e1800a968ab9f0e4",
    "gw-sample-bad-root":
        "8422307e0794c00168e06be4b0540a6529a29a3be59a4c266b414697edffcc42",
    "gw-sample-root1":
        "a91f62e6b32be3e01b3dead940fea445c7f3077b6edca13d9a2ec6efc52b27a8",
    "gw-sample-root2":
        "60aad49bb6ecb001cd20a91fafd094ed7ab923a162eb5d19ff5d0560624abcd3",
    "selftest":
        "67b2fb76093104256c47fd0428d9566daa25112857a83487f00b952bcc0dd6b2",
}


@pytest.mark.parametrize("name", sorted(PINNED_RUNS))
def test_command_output_is_pinned(m3_file, tmp_path, capsys, name):
    patterns = tmp_path / "patterns.txt"
    patterns.write_text("".join(f"{c * m}\n" for m in [*range(2, 13),
                                                         *range(22, 31)]
                                for c in "01"))
    files = {"m3": m3_file, "patterns": str(patterns)}
    code, out, err = run_cli(capsys, *(arg.format(**files)
                                       for arg in PINNED_RUNS[name]))
    text = f"{code}\n{out}\n{err}"
    for key, path in files.items():
        text = text.replace(path, "{%s}" % key)
    assert (hashlib.sha256(text.encode()).hexdigest()
            == PINNED_RUN_DIGESTS[name]), text


# event 0 shares a variable with each of events 1 and 2 (two proper
# neighbors: rhs = z(1-z)^2 = 1/8); events 1 and 2 see only event 0
# (rhs = z(1-z) = 1/4)
GOLDEN_CHECK = """\
manifest input={path} subcommand=check version=0.1.0
event=0 lhs=1/8(0.125) rhs=1/8(0.125) holds=true
event=1 lhs=1/8(0.125) rhs=1/4(0.25) holds=true
event=2 lhs=1/8(0.125) rhs=1/4(0.25) holds=true
avoid_bound=1/8(0.125) alpha=1(1) holds=true
"""


def test_check_report_grammar_golden(m3_file, capsys):
    _, out, _ = run_cli(capsys, "check", "--input", m3_file)
    assert out == GOLDEN_CHECK.format(path=m3_file)


# --- fuzz: every subcommand, with mutated flags or a mutated input file ------

# one quick, well-formed run of each subcommand; `{system}`, `{log}` and
# `{patterns}` stand for files read by `read_system` or `read_dimacs`,
# `log_from_text` and `read_patterns`, and `{chain}` for the log's system
FUZZ_RUNS = [
    ["check", "--input", "{system}", "--z-all", "1/4"],
    ["solve", "--input", "{system}", "--seed", "1", "--max-steps", "50"],
    ["stream", "--family", "chain:m=3,overlap=1,polarity=5", "--k", "4",
     "--max-steps", "50", "--seed", "1", "--certify-cell", "0", "--z-all",
     "1/4", "--alpha", "1/2", "--delta", "1/4"],
    ["stream", "--family", "substrings:{patterns}:1/2:2", "--k", "4",
     "--max-steps", "50"],
    ["witness", "--input", "{chain}", "--log", "{log}", "--indent"],
    ["gw", "--input", "{system}", "--z-all", "1/2", "--bit-budget", "6"],
    ["gw", "--input", "{system}", "--z-all", "1/2", "--sample", "--samples",
     "2", "--depth-budget", "2", "--seed", "1"],
    ["extract", "--oracle", "pair:00:3/4:11:1/4", "--r", "1/2", "--count",
     "2"],
    ["extract", "--oracle", "point:01", "--w", "0", "--count", "3"],
    ["prefix", "--input", "{system}", "--length", "1", "--delta", "1/4",
     "--bit-guard", "12"],
    ["prefix", "--input", "{system}", "--length", "1", "--mode", "empirical",
     "--trials", "3", "--seed", "1", "--max-steps", "50"],
    ["avoid", "--forbidden", "{patterns}", "--gamma", "1/2", "--length", "8",
     "--seed", "1"],
    ["fireworks", "--n", "5", "--seller-k", "2", "--seed", "1"],
    ["fireworks", "--beat", "--oracle", "diverge:1", "--epsilon", "1/4",
     "--seed", "1"],
    ["selftest"],
]
SMALL = ["-2", "-1", "0", "1", "2", "3", "x", "1.5", ""]
RATIONAL = ["0", "-1/2", "1/4", "1/2", "3/4", "1", "3/2", "1/0", "0.5",
            "1e3", "1_0", "x", ""]
# and one past CPython's int-to-string limit of 4,300 digits; not for
# `--gamma`, as `compute_beta_M` raises 2 to a power with that many digits
ANY_SIZE = RATIONAL + ["1/" + "7" * 4400]
FLAG_VALUES = {
    "--seed": SMALL, "--max-steps": SMALL, "--k": SMALL,
    "--certify-cell": SMALL, "--step": SMALL, "--bit-budget": SMALL,
    "--samples": SMALL, "--root": SMALL, "--depth-budget": SMALL,
    "--count": SMALL, "--length": SMALL, "--trials": SMALL,
    "--bit-guard": SMALL, "--branch-guard": SMALL, "--n": SMALL,
    "--seller-k": SMALL,
    "--z-all": RATIONAL, "--alpha": RATIONAL, "--delta": ANY_SIZE,
    "--r": ANY_SIZE, "--epsilon": ANY_SIZE, "--gamma": RATIONAL,
    "--tape-hex": ["0:", "1:1", "2:3", "3:f", "x", "4:", "1:"],
    "--w": ["0", "01", "x", ""],
    "--mode": ["exact", "empirical", "x"],
    "--family": ["chain:m=3", "chain:m=2,overlap=0", "chain:m=x", "chain:",
                 "substrings:{patterns}:1/2:2",
                 "substrings:{patterns}:0.5:2",
                 "substrings:{patterns}:1/2:x", "x"],
    "--oracle": ["point:01", "point:", "pair:0:1/2:1:1/2",
                 "pair:0:3/4:0:1/2", "pair:01:1/2", "identity", "const:5",
                 "const:x", "diverge:1,3", "diverge:x", "x"],
    "--input": ["{system}", "{chain}", "{log}", "/nonexistent"],
    "--log": ["{log}", "{system}", "/nonexistent"],
    "--forbidden": ["{patterns}", "/nonexistent"],
    # a path under a file can never be written
    "--manifest-out": ["{system}/out"], "--log-out": ["{system}/out"],
}
# the flags of each subcommand that FLAG_VALUES gives values for
FUZZ_FLAGS = {command: sorted(set(FLAG_VALUES)
                              & set(parser._option_string_actions))
              for command, parser in next(
                  action for action in build_parser()._actions
                  if isinstance(action, argparse._SubParsersAction)
              ).choices.items()}
FILE_READERS = {"system": (read_system, read_dimacs),
                "log": (log_from_text,), "patterns": (read_patterns,)}
SEED_FILES = {"system": FUZZ_SEEDS[read_system][0],
              "chain": write_system(FUZZ_CHAIN),
              "log": FUZZ_SEEDS[log_from_text][0],
              "patterns": FUZZ_SEEDS[read_patterns][0]}


@st.composite
def cli_cases(draw):
    """An argv and the text of each file it names. Either one file, a seed
    of the reader fuzz, is mutated as that fuzz mutates it and read by a
    run of FUZZ_RUNS that reads it; or the files are seeds and one to
    three flags that its subcommand takes get a value from FLAG_VALUES or
    are dropped."""
    files = {**SEED_FILES,
             "system": draw(st.sampled_from(FUZZ_SEEDS[read_system]
                                            + FUZZ_SEEDS[read_dimacs]))}
    if draw(st.booleans()):
        reader, text = draw(mutated_inputs())
        mutated = next(name for name, readers in FILE_READERS.items()
                       if reader in readers)
        files[mutated] = text
        runs = [run for run in FUZZ_RUNS
                if "{%s}" % mutated in " ".join(run)]
        return draw(st.sampled_from(runs)), files, mutated
    argv = list(draw(st.sampled_from(FUZZ_RUNS)))
    flags = FUZZ_FLAGS[argv[0]]
    for _ in range(draw(st.integers(1, 3)) if flags else 0):
        flag = draw(st.sampled_from(flags))
        if flag not in argv:
            argv += [flag, draw(st.sampled_from(FLAG_VALUES[flag]))]
            continue
        at = argv.index(flag)
        value = draw(st.sampled_from([None, *FLAG_VALUES[flag]]))
        argv[at:at + 2] = [] if value is None else [flag, value]
    return argv, files, None


def _refuses(reader, text) -> bool:
    try:
        reader(text)
    except FormatError:
        return True
    return False


def with_any_size(flag):
    """The first run of FUZZ_RUNS that sets `flag`, with it set to the
    rational of ANY_SIZE past the digit limit, as a case of `cli_cases`."""
    run = next(run for run in FUZZ_RUNS if flag in run)
    at = run.index(flag) + 1
    return [*run[:at], ANY_SIZE[-1], *run[at + 1:]], SEED_FILES, None


@given(cli_cases())
@example(with_any_size("--r"))
@example(with_any_size("--delta"))
@example(with_any_size("--epsilon"))
@settings(derandomize=True, database=None, max_examples=250, deadline=None)
def test_every_subcommand_exits_cleanly_on_mutated_input(case):
    argv, files, mutated = case
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: os.path.join(tmp, name) for name in files}
        for name, text in files.items():
            Path(paths[name]).write_text(text)
        args = [arg.format_map(paths) for arg in argv]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = dispatch(args)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2, 3), (args, err)
    if err:
        # a run that fails prints nothing on stdout
        assert out == "", (args, err)
    if mutated is not None:
        # a file that every reader of its kind refuses is refused naming a
        # line of it (`--input` takes DIMACS or the system format)
        text = files[mutated]
        if all(_refuses(reader, text) for reader in FILE_READERS[mutated]):
            found = re.match(r"error: line (\d+): ", err)
            assert code == 2 and found, (args, text, err)
            assert 1 <= int(found[1]) <= max(1, len(text.splitlines())), err


def test_the_fuzz_runs_every_subcommand():
    # FUZZ_FLAGS has one key for each subcommand of build_parser()
    assert {run[0] for run in FUZZ_RUNS} == set(FUZZ_FLAGS)


def reproduces_from_its_manifest_line(capsys, folder, argv):
    """Run `argv` on the fuzz's seed files, written in `folder`; read the
    manifest line back as shell words and flags, a `=true` field as a bare
    flag, and re-run it: the output is the same. Returns the manifest."""
    folder.mkdir(exist_ok=True)
    paths = {name: str(folder / name) for name in SEED_FILES}
    for name, text in SEED_FILES.items():
        Path(paths[name]).write_text(text)
    first = run_cli(capsys, *(arg.format_map(paths) for arg in argv))
    manifest = first[1].splitlines()[0]
    head, *items = shlex.split(manifest)
    assert head == "manifest"
    fields = dict(item.split("=", 1) for item in items)
    again = [fields.pop("subcommand")]
    del fields["version"]
    for key, value in fields.items():
        again += ["--" + key.replace("_", "-")] + [value] * (value != "true")
    assert run_cli(capsys, *again) == first
    return manifest


@pytest.mark.parametrize("argv", FUZZ_RUNS, ids=[
    f"{run[0]}-{i}" for i, run in enumerate(FUZZ_RUNS)])
def test_a_run_reproduces_from_its_manifest_line(tmp_path, capsys, argv):
    # the manifest names every option that shapes the run
    reproduces_from_its_manifest_line(capsys, tmp_path, argv)


@pytest.mark.parametrize("argv, word", [
    (FUZZ_RUNS[0], "input='{folder}/system'"),
    (FUZZ_RUNS[3], "family='substrings:{folder}/patterns:1/2:2'"),
], ids=["check-input", "stream-family"])
def test_a_path_holding_a_space_reproduces_from_its_manifest_line(
        tmp_path, capsys, argv, word):
    # a path, alone or inside `--family`, is quoted as one shell word
    folder = tmp_path / "a b"
    manifest = reproduces_from_its_manifest_line(capsys, folder, argv)
    assert word.format(folder=folder) in manifest


# --- rationals of any size -------------------------------------------------

def test_check_prints_an_avoid_bound_past_the_int_digit_limit(tmp_path,
                                                              capsys):
    # (3/4)^7200 has a 4,335-digit denominator, past CPython's default
    # int-to-string limit of 4,300 digits
    path = tmp_path / "chain7200.cnf"
    path.write_text(chain_cnf(7200))
    code, out, err = run_cli(capsys, "check", "--input", str(path),
                             "--z-all", "1/4")
    assert (code, err) == (0, "")
    last = out.splitlines()[-1]
    assert last.endswith("(0) alpha=1(1) holds=true")
    bound = re.fullmatch(r"avoid_bound=([0-9/]+)\(.*", last)[1]
    assert parse_rational(bound) == F(3, 4) ** 7200
    assert len(out.splitlines()) == 7202


def test_check_refuses_an_avoid_bound_past_the_product_guard(tmp_path,
                                                              capsys):
    # (1 - z)^7200 with a 4,000-digit z would have about 29 million digits
    path = tmp_path / "chain7200.cnf"
    path.write_text(chain_cnf(7200))
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "check", "--input", str(path),
                             "--z-all", "1/" + "7" * 4000)
    assert (code, out) == (3, "")
    assert re.fullmatch(r"refused: a product of \(1 - z\) powers of up to "
                        r"[0-9]+ denominator bits exceeds guard 524288\n",
                        err)
    assert time.perf_counter() - t0 < 5


def test_a_weight_past_the_int_digit_limit_is_read(m3_file, capsys):
    z = "1/" + "7" * 5000
    code, out, err = run_cli(capsys, "check", "--input", m3_file,
                             "--z-all", z)
    assert (code, err) == (1, "")   # the condition fails: z is tiny
    assert out.splitlines()[0].endswith(f"z_all={z}")


def test_extract_refuses_a_threshold_past_the_int_digit_limit(capsys):
    # q(empty) = 1 exceeds 2r; the message writes 2r in full
    r = "1/" + "7" * 5000
    code, out, err = run_cli(capsys, "extract", "--oracle", "point:01",
                             "--r", r)
    assert (code, out) == (1, "")
    assert err == f"failed: q(empty) exceeds 2r = 2/{'7' * 5000}\n"


def test_a_stability_certificate_past_the_int_digit_limit(capsys):
    delta = "1/" + "7" * 4400
    code, out, err = run_cli(
        capsys, "stream", "--family", "chain:m=3", "--k", "4",
        "--max-steps", "50", "--seed", "1", "--certify-cell", "0",
        "--z-all", "1/4", "--alpha", "1/2", "--delta", delta)
    assert (code, err) == (0, "")
    line = out.splitlines()[1]
    assert line.startswith(f"cell=0 delta={delta} N=")
    cert = stability_horizon(ChainCnfFamily(3), StreamParams.constant(
        F(1, 4), F(1, 2)), 0, parse_rational(delta))
    assert cert.N > 10 ** 4300
    assert parse_rational(re.search(r" N=([0-9]+) ", line)[1]) == cert.N


def test_prefix_refusal_writes_a_width_past_the_int_digit_limit(tmp_path,
                                                                capsys):
    path = tmp_path / "tiny.cnf"
    path.write_text("p cnf 3 2\n1 2 0\n-2 3 0\n")
    delta = "1/" + "7" * 4400
    code, out, err = run_cli(capsys, "prefix", "--input", str(path),
                             "--length", "3", "--bit-guard", "4", "--delta",
                             delta)
    assert (code, out) == (3, "")
    assert err == (f"refused: cannot reach width {delta} within 4 coins "
                   "(unresolved mass 1/2)\n")


def test_q_writes_a_value_past_the_float_range_in_decimal():
    assert q(F(1, 8)) == "1/8(0.125)"
    assert q(F(17 * 10 ** 399)) == f"17{'0' * 399}(1.7e+400)"
    assert q(F(-(2 ** 2000), 3)) == f"-{2 ** 2000}/3(-3.8271e+601)"
    assert q(F(123456789 * 10 ** 301)) == f"123456789{'0' * 301}(1.23457e+309)"
    # the float range's top still prints through the float
    assert q(F(int(1.7e308))) == f"{int(1.7e308)}(1.7e+308)"
