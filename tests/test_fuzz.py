"""Fuzz the scenario file: any numbers end `simulate` with a documented
exit code (0, 2, 3 or 4), and any bytes that are not a scenario with
exit code 2, never a traceback or a numpy warning."""

import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from laserspin.cli import main

from test_cli import readme_config, set_field

FLOAT_FIELDS = [
    ("laser", "eta"), ("laser", "epsilon"), ("laser", "omega_L"),
    *[("bound", key) for key in ("mass_n", "mass_p", "charge_n", "charge_p",
                                 "g_n", "g_p", "g_coupling")],
    ("gamma_z",), ("t_end",), ("tol",),
]
STATES = {
    "werner": ({"type": "werner", "p": 0.8}, [("initial_state", "p")]),
    "product": ({"type": "product", "alpha": 0.3, "beta": 0.2},
                [("initial_state", "alpha"), ("initial_state", "beta")]),
}
VALUES = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, 5e-324, 1e300,
                     -1e300, 1e-300, -1e-300, 1e-14]),
    st.floats(min_value=-4.0, max_value=4.0))


@st.composite
def scenarios(draw):
    state, state_fields = STATES[draw(st.sampled_from(sorted(STATES)))]
    raw = readme_config()
    raw["initial_state"] = dict(state)
    fields = draw(st.lists(st.sampled_from(FLOAT_FIELDS + state_fields),
                           min_size=1, max_size=3, unique=True))
    for path in fields:
        set_field(raw, path, draw(VALUES))
    return raw


@settings(derandomize=True, database=None, deadline=None, max_examples=500)
@given(raw=scenarios())
def test_simulate_ends_with_a_documented_exit_code(raw):
    with pytest.MonkeyPatch.context() as mp, \
            tempfile.TemporaryDirectory() as tmp:
        # a valid but stiff scenario ends at the budget within a second
        mp.setattr("laserspin.evolution.MAX_STEPS", 3000)
        config = Path(tmp) / "scenario.json"
        config.write_text(json.dumps(raw))
        code = main(["simulate", "--config", str(config),
                     "--out", str(Path(tmp) / "rows.csv")])
    assert code in (0, 2, 3, 4)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(content=st.binary())
def test_any_bytes_as_the_config_exit_2(content):
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "scenario.json"
        config.write_bytes(content)
        code = main(["simulate", "--config", str(config),
                     "--out", str(Path(tmp) / "rows.csv")])
    assert code == 2
