"""Byte-stability gate: ``verify --no-meta --report`` on every built-in scenario.

The files under ``tests/data/golden`` are the reports of the built-in
scenarios at their default (small) sizes.  A change that alters any residual
by one bit, the order of the records or the JSON layout shows up here.  When
such a change is intended, regenerate a file with

    plmkit verify --scenario NAME [ARGS] --no-meta --report tests/data/golden/NAME.json

and say why in the change log.
"""

from pathlib import Path

import pytest

from plmkit.cli import main
from plmkit.scenarios import list_scenarios

GOLDEN = Path(__file__).parent / "data" / "golden"

CASES = {
    "hypar": [],
    "cubic-graph": [],
    "conj-paraboloid": [],
    "ell-paraboloid": [],
    "hypar-lattice": [],
    "moutard-random": ["--size", "32", "--seed", "42"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_is_byte_identical_to_golden(name, tmp_path, capsys):
    out = tmp_path / f"{name}.json"
    main(["verify", "--scenario", name, *CASES[name], "--no-meta", "--report", str(out)])
    capsys.readouterr()
    assert out.read_bytes() == (GOLDEN / f"{name}.json").read_bytes()


def test_every_scenario_has_a_golden_report():
    assert sorted(list_scenarios()) == sorted(CASES)
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == sorted(CASES)
