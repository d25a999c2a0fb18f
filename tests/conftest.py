from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from divstab import sinv
from divstab.scenario import bundled_scenario_names, load_bundled_scenario

CURVE_SCENARIOS = ("lemma_4_1", "lemma_4_2_s", "lemma_4_2_r", "lemma_4_3_l1",
                   "lemma_4_3_l2", "lemma_4_3_mixed", "lemma_4_3_ec_term",
                   "lemma_4_3_ec_bound")


@pytest.fixture(scope="session")
def scenarios():
    return {name.removesuffix(".scn"): load_bundled_scenario(name)
            for name in bundled_scenario_names()}


@pytest.fixture(scope="session")
def model(scenarios):
    return scenarios["lemma_4_1"].model


@pytest.fixture(scope="session")
def zcone_model(scenarios):
    """The threefold model carrying the five-generator integral cone."""
    return scenarios["lemma_3_8"].model


@pytest.fixture(scope="session")
def dp5(scenarios):
    return scenarios["lemma_4_1"].surface


@pytest.fixture(scope="session")
def ruled(scenarios):
    return scenarios["lemma_4_2_s"].surface


@pytest.fixture(scope="session")
def dp6(scenarios):
    return scenarios["lemma_4_3_l1"].surface


def curve_input(scenario) -> sinv.SCurveInput:
    return sinv.SCurveInput(scenario.model, scenario.surface, scenario.z,
                            scenario.schedule, scenario.ord_coeffs)
