from __future__ import annotations

import pytest

from lll_toolkit import exhaustive
from lll_toolkit.engine import run_finite
from lll_toolkit.errors import EngineError
from lll_toolkit.tape import Tape


def test_run_ending_before_its_prefix_is_a_typed_error(chain2_system,
                                                       monkeypatch):
    # a run that ends without demanding every coin of its prefix would make
    # the branch weights wrong; it must raise, also under `python -O`
    def run_ignoring_prefix(system, tape, max_steps):
        if tape.bits:
            tape = Tape(seed=0)
        return run_finite(system, tape, max_steps)

    monkeypatch.setattr(exhaustive, "run_finite", run_ignoring_prefix)
    with pytest.raises(EngineError, match="ended after 0 of its 1 coins"):
        list(exhaustive.enumerate_runs(chain2_system, 4))
