"""Property tests over scenario dicts: the loader accepts a dict or names
its fault with a ScenarioError, and a trial of any accepted dict runs and
gives finite metrics, apart from the cells the CSV documents as empty or
infinite.

The dicts hold 16-64 antennas and 1-4 BSs, each placed so that it sees the
user at a drawn (theta, r) on the front side and in the near-field annulus;
at endfire and at the annulus edges rounding can put it just outside, and
then the loader rejects the dict. Every BS has no scatterer (`nlos: []` or
`num_nlos: 0`), the estimator's `num_paths` is drawn at or above that one
true path, the round counts include 0, and sigma2 is 0. Some dicts carry
one malformed field: a BS behind its array or beyond the annulus, a
`num_paths` of 0, a negative round count, a BS with both scatterer keys, or
a value of the wrong kind at a leaf field drawn from the loader's schema
table, which the loader must reject naming that field's path.
"""

import copy
import math
import re

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from nearfield.arraymodel import ArrayConfig
from nearfield.harness import (EXCLUSIVE, POINT, REQUIRED, SCHEMA, ScenarioError,
                               run_trial, scenario_from_dict)

WAVELENGTH = 0.003
FINITE = ("nmse_db", "theta_rmse", "r_rmse", "single_rmse_m", "fused_rmse_m")
# Per leaf kind: values the loader must refuse, and one it reads.
WRONG = {int: ["3", 2.5, True, None], float: ["1.5", True, None, [1.0]],
         bool: [1, "true", None], POINT: [[1.0], [1.0, "2"], "0,0", None]}
RIGHT = {int: 1, float: 1.0, bool: False, POINT: [0.0, 0.0]}


def leaves(kind, steps=()):
    """(steps, kind) of every leaf field of a schema table, through item 0
    of each list of objects."""
    if isinstance(kind, list):
        yield from leaves(kind[0], steps + (0,))
    elif isinstance(kind, dict):
        for key, (sub, _) in kind.items():
            yield from leaves(sub, steps + (key,))
    else:
        yield steps, kind


LEAVES = list(leaves(SCHEMA))


def well_typed(kind):
    """A value of `kind` holding only its required fields."""
    if isinstance(kind, list):
        return [well_typed(kind[0])]
    if isinstance(kind, dict):
        return {key: well_typed(sub) for key, (sub, default) in kind.items()
                if default is REQUIRED}
    return RIGHT[kind]


def plant(data: dict, steps: tuple, value) -> None:
    """Put `value` at `steps` in `data`, dropping the exclusive partner of
    each field on the way and making each missing parent well-typed."""
    node, kind = data, SCHEMA
    for depth, step in enumerate(steps):
        if isinstance(step, int):  # item 0 of a list of objects
            kind = kind[0]
            if not node:
                node.append(well_typed(kind))
        else:
            kind = kind[step][0]
            for pair in EXCLUSIVE:
                if step in pair:
                    node.pop(pair[1 - pair.index(step)], None)
            if depth == len(steps) - 1:
                node[step] = value
                return
            node.setdefault(step, well_typed(kind))
        node = node[step]


def path_of(steps: tuple) -> str:
    """The path a loader error gives for the field at `steps`."""
    return "".join(f"[{s}]" if isinstance(s, int) else f".{s}"
                   for s in steps).lstrip(".")


@st.composite
def scenario_dicts(draw) -> tuple[dict, str | None]:
    m = draw(st.integers(16, 64))
    array = ArrayConfig(num_antennas=m, wavelength=WAVELENGTH)
    near, far = array.min_near_distance, array.rayleigh_distance
    user = np.array([draw(st.floats(-5.0, 5.0)), draw(st.floats(-5.0, 5.0))])
    # Each BS sees the user at (theta, r), on the front side and in the
    # annulus up to rounding; endfire and the annulus edges included.
    views = [[draw(st.floats(0.0, np.pi, exclude_min=True, exclude_max=True)),
              near + draw(st.floats(0.0, 1.0, exclude_min=True)) * (far - near),
              draw(st.floats(-np.pi, np.pi))]
             for _ in range(draw(st.integers(1, 4)))]
    scatterers = [draw(st.sampled_from([{"nlos": []}, {"num_nlos": 0}]))
                  for _ in views]
    estimator = {"single_rounds": draw(st.integers(0, 2)),
                 "cyclic_rounds": draw(st.integers(0, 2))}
    num_paths = draw(st.one_of(st.none(), st.integers(1, 4)))
    if num_paths is not None:
        estimator["num_paths"] = num_paths
    # At most one malformed field, so that most dicts load.
    fault = draw(st.sampled_from([None] * 6 + ["behind", "beyond", "num_paths",
                                               "rounds", "nlos", "kind"]))
    if fault == "behind":
        views[0][0] = -views[0][0]
    elif fault == "beyond":
        views[0][1] = 1.1 * far
    elif fault == "num_paths":
        estimator["num_paths"] = 0
    elif fault == "rounds":
        estimator["single_rounds"] = -1
    elif fault == "nlos":
        scatterers[0] = {"nlos": [], "num_nlos": 0}
    bss = [{"position": (user - r * np.array([np.cos(theta + rotation),
                                              np.sin(theta + rotation)])).tolist(),
            "rotation": rotation, **keys}
           for (theta, r, rotation), keys in zip(views, scatterers)]
    data = {"array": {"num_antennas": m, "wavelength": WAVELENGTH},
            "user": user.tolist(), "sigma2": 0.0, "seed": draw(st.integers(0, 99)),
            "estimator": estimator, "bss": bss}
    if fault != "kind":
        return data, None
    steps, kind = draw(st.sampled_from(LEAVES))
    plant(data, steps, draw(st.sampled_from(WRONG[kind])))
    return data, path_of(steps)


@given(case=scenario_dicts(),
       snr_db=st.one_of(st.none(), st.floats(0.0, 40.0)))
@settings(max_examples=150, deadline=None)
def test_accepted_scenarios_run_to_finite_metrics(case, snr_db):
    data, wrong_kind = case
    try:
        scenario = scenario_from_dict(data)
    except ScenarioError as exc:
        assert wrong_kind is None or wrong_kind in str(exc), (wrong_kind, exc)
        event("rejected")
        return
    assert wrong_kind is None, f"{wrong_kind} of the wrong kind loaded"
    event("accepted")
    rows, result = run_trial(scenario, snr_db, 0, 0, return_joint=True)
    assert [row["bs"] for row in rows] == list(range(len(data["bss"])))
    noiseless = snr_db is None  # the scenario's sigma2, which is 0
    for row, anchored in zip(rows, result.anchored):
        assert all(math.isfinite(row[key]) for key in FINITE), row
        if anchored:
            assert math.isfinite(row["step3_nmse_db"]), row
        else:  # empty in the CSV: no step-3 NMSE without anchoring
            assert math.isnan(row["step3_nmse_db"]), row
        # "inf" in the CSV: the SNR at sigma2 = 0.
        for key in ("snr_db", "snr_bs_db"):
            assert (row[key] == math.inf) if noiseless else math.isfinite(row[key])


def test_every_wrong_kind_is_named():
    """The table-driven fault, at every leaf with every wrong value."""
    base = {"array": {"num_antennas": 64, "wavelength": WAVELENGTH},
            "user": [2.5, 2.5], "sigma2": 0.0,
            "bss": [{"position": [0.0, 5.0], "rotation": math.pi, "num_nlos": 0}]}
    scenario_from_dict(base)
    for steps, kind in LEAVES:
        for value in WRONG[kind]:
            data = copy.deepcopy(base)
            plant(data, steps, value)
            with pytest.raises(ScenarioError, match=re.escape(path_of(steps))):
                scenario_from_dict(data)
