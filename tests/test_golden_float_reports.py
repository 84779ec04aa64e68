"""Golden float reports: every field of the float report of each suite that
runs in float mode, at seed 1 and a small sample count, recorded before the
structure matrices shared one holder.  A float report may move only in
`max_residual`, and only by rounding (FLOAT_RESIDUAL_SLACK); `elapsed_ms` is
not compared.  The recorded values must not be edited to make a change
pass."""

import pytest

from sixsphere.suites import MODES, run_suite

#: how far a float `max_residual` may move under a change of rounding order
FLOAT_RESIDUAL_SLACK = 1e-15

_COMMON = {"mode": "float", "seed": 1, "tolerance": 1e-09, "failures": []}

GOLDEN = {
    "octonion-axioms": dict(_COMMON, suite="octonion-axioms", samples=3,
                            checked=14, max_residual=4.440892098500626e-16),
    "moufang": dict(_COMMON, suite="moufang", samples=10, checked=10,
                    max_residual=3.3306690738754696e-16),
    "prop21": dict(_COMMON, suite="prop21", samples=5, checked=5,
                   max_residual=2.220446049250313e-15),
    "prop41": dict(_COMMON, suite="prop41", samples=3, checked=3,
                   max_residual=1.1102230246251565e-15),
}


def test_golden_covers_every_float_suite_but_degrees():
    # degrees runs only in float and is guarded by the degree tests
    assert set(GOLDEN) == {n for n, modes in MODES.items()
                           if "float" in modes and n != "degrees"}


@pytest.mark.parametrize("name", list(GOLDEN))
def test_float_report_is_unchanged(name):
    want = GOLDEN[name]
    report = run_suite(name, mode="float", seed=1,
                       samples=want["samples"]).to_dict()
    del report["elapsed_ms"]
    got_res = report.pop("max_residual")
    want = dict(want)
    want_res = want.pop("max_residual")
    assert report == want
    assert abs(got_res - want_res) <= FLOAT_RESIDUAL_SLACK
