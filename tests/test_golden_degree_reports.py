"""Golden degree reports: every map of the `degrees` inventory and the
projective cube map at seed 1 with 300 starts and one trial, recorded before
the engine treated both domains as one.  The integer fields and the target
must match exactly; the preimages, `max_residual` and `min_abs_det` may move
only by rounding (DEGREE_SLACK).  The recorded file,
`golden_degree_reports.json`, must not be edited to make a change pass."""

import json
import math
import pathlib

import numpy as np
import pytest

from sixsphere import degree as dg

#: how far a float field of a degree report may move under a change of
#: rounding order
DEGREE_SLACK = 1e-12

GOLDEN = json.loads(pathlib.Path(__file__).with_name(
    "golden_degree_reports.json").read_text())

CONFIG = dg.EngineConfig(n_starts=300, trials=1)


def _report(name):
    return dg.named_degree(name, seed=1, config=CONFIG).to_dict()


def _close(got, want):
    if math.isinf(want):
        return got == want
    return abs(got - want) <= DEGREE_SLACK


def test_golden_covers_the_inventory_and_the_cube():
    assert set(GOLDEN) == set(dg.MAPS)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_degree_report_is_unchanged(name):
    got, want = _report(name), GOLDEN[name]
    assert (got["map"], got["degree"], got["exact_differential"]) == \
        (want["map"], want["degree"], want["exact_differential"])
    assert len(got["trials"]) == len(want["trials"])
    for t, w in zip(got["trials"], want["trials"]):
        for key in ("degree", "signs", "n_converged", "resamples", "target"):
            assert t[key] == w[key], key
        assert _close(t["max_residual"], w["max_residual"])
        assert _close(t["min_abs_det"], w["min_abs_det"])
        assert np.shape(t["preimages"]) == np.shape(w["preimages"])
        if w["preimages"]:
            assert np.max(np.abs(np.array(t["preimages"])
                                 - np.array(w["preimages"]))) <= DEGREE_SLACK
