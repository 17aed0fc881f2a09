"""The seeded reproducibility contract, pinned by hashes.

For a fixed seed, `run_finite` must give the same assignment and the same
log, and an explicit `--tape-hex` replay the same bytes, whatever is done
to make the tape or the engine faster. The hashes below were taken before
the compiled samplers replaced per-draw slot lookups.
"""
from __future__ import annotations

import hashlib

import pytest

import lll_toolkit
from lll_toolkit.cli import dispatch
from lll_toolkit.corpus import toy_corpus
from lll_toolkit.engine import run_finite
from lll_toolkit.errors import TapeExhausted
from lll_toolkit.families import ChainCnfFamily
from lll_toolkit.formats import read_system
from lll_toolkit.tape import Tape

SEEDS = range(20)

# x0 and x3 over thirds, x1 uniform over five values, x2 a fair bit
NON_DYADIC = """\
var 0 2 1/3 2/3
var 1 5 1/5 1/5 1/5 1/5 1/5
var 2 2 1/2 1/2
var 3 3 1/3 1/3 1/3
event 0 vbl 0 1 forbid 1 0 ; 1 1 ; 1 2
event 1 vbl 1 2 forbid 3 1 ; 4 1 ; 4 0
event 2 vbl 2 3 forbid 1 2 ; 0 0
"""


def _systems():
    lopsided = next(e for e in toy_corpus() if e.name == "lopsided_bit")
    return {
        "chain_202_1000": (ChainCnfFamily(3, 1, 202).materialize(1000), 10000),
        "corpus_lopsided_bit": (lopsided.system, 100),
        "non_dyadic": (read_system(NON_DYADIC)[0], 100),
    }


PINNED = {
    "chain_202_1000": (
        "a8aea0eeafdb84eb5169aafd4b825bbe21d99dd6979298b8023b89945da74947",
        "1bb63695026edc8c9e02aa477ab65683d94add875680140ca280d9db927c1f86"),
    "corpus_lopsided_bit": (
        "325a5ac556195e8f13cc46d219faad6880b2973d6d189bcaa55d54439932bbc9",
        "16cf458cfca078b805a623f6c15141189f31fb22341634d7f872b5cfb2e4c9ea"),
    "non_dyadic": (
        "f7589ebb8a5f10b1f7f8e55d62c5cd8ce388cdc2b9b7259a6fdc72ca95409c98",
        "4088ad92c7aab3d92ff45fbdfc1a41f9af7269ab51ff48b6a4de74e3c5401fa5"),
}


def _sha(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(PINNED))
def test_seeded_runs_match_pinned_hashes(name):
    system, max_steps = _systems()[name]
    assignments, logs = [], []
    for seed in SEEDS:
        result = run_finite(system, Tape(seed=seed), max_steps)
        assignments.append(f"{seed} {result.status} "
                           + "".join(map(str, result.assignment)))
        logs.append(f"{seed} init {result.log.initial}")
        logs += [f"{seed} {s.number} {s.event} {s.draws}"
                 for s in result.log.steps]
    assert (_sha(assignments), _sha(logs)) == PINNED[name]


TAPE_HEX = "96:9f3a61c04be2d8775103fa2e"
EXPECTED_STDOUT = """\
manifest input={input} max_steps=50 subcommand=solve tape_hex=96:9f3a61c04be2d8775103fa2e version={version}
assignment=1,3,0,1
resamples=3 status=satisfied
"""
EXPECTED_LOG = """\
init 1 1 1 1
step 1 event 0 draws 0:1:1,1:1:4
step 2 event 1 draws 1:2:0,2:1:0
step 3 event 0 draws 0:2:1,1:3:3
"""


def test_tape_hex_replay_is_byte_identical(tmp_path, capsys):
    system_file = tmp_path / "non_dyadic.system"
    system_file.write_text(NON_DYADIC)
    log_file = tmp_path / "run.log"
    code = dispatch(["solve", "--input", str(system_file), "--tape-hex",
                     TAPE_HEX, "--max-steps", "50", "--log-out",
                     str(log_file)])
    out = capsys.readouterr().out
    assert code == 0
    assert out == EXPECTED_STDOUT.format(input=system_file,
                                         version=lll_toolkit.__version__)
    assert log_file.read_text() == EXPECTED_LOG



# the cuts of every explicit coin string of 6 to 11 coins that runs out
# inside a resample of the two-clause chain (x2 is shared): 125 of them
MID_RESAMPLE_CUTS = (
    125, "655b6ffe8eb192459014ab86d8c120e29b45f9d2313e3a96b1fa2633951c3d19")


def test_cuts_inside_a_resample_are_pinned():
    system = ChainCnfFamily(3, 1, 202).materialize(2)
    cuts, lines = 0, []
    for length in range(6, 12):
        for number in range(1 << length):
            bits = format(number, f"0{length}b")
            try:
                run_finite(system, Tape(bits=bits), 100)
            except TapeExhausted as cut:
                if cut.in_flight_event is None:
                    continue
                cuts += 1
                log = cut.partial_log
                lines.append(f"{bits} {cut.partial_assignment} "
                             f"{cut.in_flight_event} {log.initial}")
                lines += [f"{bits} {s.number} {s.event} {s.draws}"
                          for s in log.steps]
    assert (cuts, _sha(lines)) == MID_RESAMPLE_CUTS
