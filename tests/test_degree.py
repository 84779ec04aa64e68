"""The mapping-degree engine: charts, frames, Newton bookkeeping, reference
degrees, the analytic preimage oracle, and engine properties.  The complete
map inventory at full sample counts runs in the acceptance suite."""

import json
import os
import subprocess
import sys
from functools import partial

import numpy as np
import pytest

from sixsphere import degree as dg
from sixsphere.errors import (ConflictingEstimates, NonConvergence,
                              NonGenericValue, NotOdd, UnstablePreimageCount)
from sixsphere.octonion import (Octonion, batch_mul, left_mult_matrix,
                                right_mult_matrix)
from test_golden_degree_reports import DEGREE_SLACK

FAST = dg.EngineConfig(n_starts=1200)


def test_stereo_charts_invert_each_other(rng):
    pole = np.zeros(8)
    pole[0] = 1.0
    basis = dg._orthonormal_complement(pole)
    s = rng.standard_normal((50, 7))
    x = dg._stereo_inv(s, pole, basis)
    assert np.allclose(np.linalg.norm(x, axis=1), 1.0)
    back = dg._stereo_proj(x, pole, basis)
    assert np.allclose(back, s, atol=1e-12)


def test_power_map_dfunc_matches_fd(rng):
    fam = dg.power_map(3)
    x = rng.standard_normal((1, 8))
    x /= np.linalg.norm(x)
    d = fam.dfunc(x)[0]
    h = 1e-6
    for j in range(8):
        xp = x.copy(); xp[0, j] += h
        xm = x.copy(); xm[0, j] -= h
        fd = (fam.func(xp) - fam.func(xm))[0] / (2 * h)
        assert np.allclose(d[:, j], fd, atol=1e-6)


def _greedy_dedupe(points, tol):
    out = []
    for p in points:
        if not any(np.max(np.abs(p - p0)) < tol for p0 in out):
            out.append(p)
    return np.array(out)


def test_dedupe_matches_greedy_definition(rng):
    tol = 1e-6
    centres = rng.standard_normal((4, 8))
    pts = []
    for c in centres:
        for scale in (0.999, 1.001, 1.999, 2.001):
            for sign in (1.0, -1.0):
                off = np.zeros(8)
                off[rng.integers(8)] = sign * scale * tol
                pts.append(c + off)
        pts.append(c)
    pts.append(np.full(8, np.nan))   # never within tol of anything: kept
    pts = np.array(pts)[rng.permutation(len(pts))]
    want = _greedy_dedupe(pts, tol)
    got = dg._dedupe(pts, tol)
    assert len(centres) < len(got) < len(pts)
    assert np.array_equal(got, want, equal_nan=True)
    assert dg._dedupe(np.empty((0, 8)), tol).shape == (0, 8)


def _oriented_frame(v, rng):
    """Orthonormal frame F of the tangent space at the unit vector v with
    det[v | F] > 0, from the QR decomposition of [v | random columns]."""
    q, _ = np.linalg.qr(np.column_stack(
        [v, rng.standard_normal((len(v), len(v) - 1))]))
    f = q[:, 1:].copy()
    if np.linalg.det(np.column_stack([v, f])) < 0:
        f[:, 0] *= -1.0
    return f


@pytest.mark.parametrize("name", list(dg.MAPS))
def test_charted_jacobian_matches_finite_differences(name, rng):
    # jac of `evaluate`, built from the jet, against central differences of
    # g in chart coordinates: the jet is each map's only Jacobian
    fam = dg.named_map(name)
    lead = fam.lead
    target = rng.standard_normal(8)
    charted = dg._Charted(fam, target / np.linalg.norm(target),
                          np.eye(8 - lead)[0])
    s = 0.7 * rng.standard_normal((10, 7))
    if lead:
        s[:, 0] = rng.uniform(0.5, 2.0 * np.pi - 0.5, size=len(s))
    _, _, jac = charted.evaluate(s)
    h = 1e-6
    for j in range(7):
        sp = s.copy(); sp[:, j] += h
        sm = s.copy(); sm[:, j] -= h
        fd = (charted.evaluate(sp)[1] - charted.evaluate(sm)[1]) / (2 * h)
        assert np.allclose(jac[:, :, j], fd, rtol=1e-6, atol=1e-6)


#: how far the closed-form power jet may sit from the `batch_mul` chain and
#: the product rule: about 20x the largest gap seen (6.2e-15 for k = 1..7)
POWER_JET_TOL = 1e-13


def _power_jet_by_product_rule(x, k):
    """x^k and Df by r_{i+1} = r_i x and D_{i+1} = R_x D_i + L_{r_i}."""
    d = np.broadcast_to(np.eye(8), (len(x), 8, 8)).copy()
    r = x.copy()
    for _ in range(k - 1):
        d = right_mult_matrix(x) @ d + left_mult_matrix(r)
        r = batch_mul(r, x)
    return r, d


@pytest.mark.parametrize("name", ["power:%d" % k for k in range(1, 7)]
                         + ["squaring", "rp7-cube"])
def test_power_jet_equals_func_and_dfunc(name, rng):
    fam = dg.named_map(name)
    k = {"squaring": 2, "rp7-cube": 3}.get(name) or int(name[len("power:"):])
    x = rng.standard_normal((50, 8))
    # five rows 1e-10 from the real axis, near +1 and near -1
    x[:5, 0] = (-1.0) ** np.arange(5)
    x[:5, 1:] *= 1e-10 / np.linalg.norm(x[:5, 1:], axis=1, keepdims=True)
    x = np.vstack([x / np.linalg.norm(x, axis=1, keepdims=True),
                   np.eye(8)[:1], -np.eye(8)[:1]])
    y, d = fam.jet(x)
    want_y, want_d = _power_jet_by_product_rule(x, k)
    assert np.array_equal(y, fam.func(x))
    assert np.max(np.abs(y - want_y)) <= POWER_JET_TOL
    assert np.max(np.abs(d - want_d)) <= POWER_JET_TOL
    assert np.array_equal(d, fam.dfunc(x))
    # at x = +-1 the derivative of x^k is k (+-1)^(k-1) I, with no rounding
    assert np.array_equal(d[-2], k * np.eye(8))
    assert np.array_equal(d[-1], k * (-1) ** (k - 1) * np.eye(8))


@pytest.mark.parametrize("k", range(1, 7))
def test_power_signed_dets_match_closed_form(k, rng):
    # at a unit x at angle a from 1, x -> x^k stretches the circle through 1
    # and x by k and each of the six orthogonal directions by
    # sigma = sin(ka) / sin(a), so J_f = k sigma^6, which neither the jet nor
    # the batched determinant computes.  Rounding moves a determinant by
    # about eps times its largest 7-fold minor, k |sigma|^5 near a zero of
    # sigma, hence the scale of the bound.
    fam = dg.power_map(k)
    x = rng.standard_normal((200, 8))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    y = fam.func(x)
    got = dg._signed_dets(fam, x, y / np.linalg.norm(y, axis=1, keepdims=True))
    a = np.arccos(x[:, 0])
    sigma = np.sin(k * a) / np.sin(a)
    want = k * sigma ** 6
    scale = np.abs(want) + k * np.abs(sigma) ** 5
    assert np.max(np.abs(got - want) / scale) <= 1e-12


@pytest.mark.parametrize("name", [n for n in dg.MAPS if n != "theta-circle"])
def test_signed_dets_match_oriented_frames(name, rng):
    # det Df between oriented frames of the domain ([d/dtheta | frame of the
    # sphere part] on the cylinder) and of the seven-sphere at f(x), for
    # every map of full rank (theta-circle's determinants are 0)
    fam = dg.named_map(name)
    lead = fam.lead
    x = rng.standard_normal((20, 8))
    x[:, lead:] /= np.linalg.norm(x[:, lead:], axis=1, keepdims=True)
    if lead:
        x[:, 0] = rng.uniform(0.1, 2.0 * np.pi - 0.1, size=len(x))
    y = fam.func(x)
    u = y / np.linalg.norm(y, axis=1, keepdims=True)
    got = dg._signed_dets(fam, x, u)
    df = fam.dfunc(x)
    for i in range(len(x)):
        dom = np.zeros((8, 7))
        dom[:lead, :lead] = np.eye(lead)
        dom[lead:, lead:] = _oriented_frame(x[i, lead:], rng)
        want = np.linalg.det(_oriented_frame(u[i], rng).T @ df[i] @ dom)
        assert np.sign(got[i]) == np.sign(want)
        assert abs(got[i] - want) <= 1e-12 * abs(want)


def test_degree_identity_and_conjugation():
    assert dg.mapping_degree(dg.identity_map(), seed=1, config=FAST).degree == 1
    assert dg.mapping_degree(dg.conjugation_map(), seed=1, config=FAST).degree == -1


def test_degree_squaring():
    assert dg.mapping_degree(dg.squaring_map(), seed=2, config=FAST).degree == 2


def test_degree_theta_circle_zero():
    rep = dg.mapping_degree(dg.theta_circle_map(), seed=4, config=FAST)
    assert rep.degree == 0
    for t in rep.trials:
        # the rank-1 Jacobians take the damped step and the trial reports a
        # no-root floor, not NonConvergence resamples
        assert t.n_converged == 0 and t.resamples == 0
        assert t.max_residual >= dg.NO_ROOT_FLOOR


def _theta_circle_newton_batch(rng, n=500):
    """Chart Jacobians (rank 1) and residuals of theta-circle at n starts."""
    target = rng.standard_normal(8)
    pole = np.zeros(8); pole[0] = 1.0
    charted = dg._Charted(dg.theta_circle_map(), target / np.linalg.norm(target),
                          pole)
    s = rng.standard_normal((n, 7))
    _, g, jac = charted.evaluate(s)
    return jac, g


def test_newton_step_regular_batch_is_plain_solve(rng):
    jac = rng.standard_normal((200, 7, 7))
    g = rng.standard_normal((200, 7))
    want = np.linalg.solve(jac, g[..., None])[..., 0]
    assert np.array_equal(dg._newton_step(jac, g), want)


def test_newton_step_rank_one_matches_least_squares(rng):
    jac, g = _theta_circle_newton_batch(rng)
    assert set(np.linalg.matrix_rank(jac)) == {1}
    step = dg._newton_step(jac, g)
    lsq = (np.linalg.pinv(jac) @ g[..., None])[..., 0]
    err = np.linalg.norm(step - lsq, axis=1)
    assert np.all(err <= 1e-4 * np.linalg.norm(lsq, axis=1))


def test_newton_step_zero_jacobian_row_gives_zero_step(rng):
    jac, g = _theta_circle_newton_batch(rng, n=20)
    jac[3] = 0.0
    step = dg._newton_step(jac, g)
    assert np.all(np.isfinite(step))
    assert np.array_equal(step[3], np.zeros(7))


def test_newton_iteration_evaluates_chart_and_map_once(rng, monkeypatch):
    # one inverse chart, one jet call and one Newton step per iteration, and
    # at most NEWTON_MAX_ITER iterations
    calls = {}

    def counted(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(dg, "_stereo_inv", counted("stereo_inv", dg._stereo_inv))
    monkeypatch.setattr(dg, "_newton_step",
                        counted("iterations", dg._newton_step))
    target = rng.standard_normal(8)
    pole = np.zeros(8); pole[0] = 1.0
    for fam in (dg.theta_circle_map(), dg.power_map(3)):
        calls.update(stereo_inv=0, iterations=0, jet=0)
        fam.jet = counted("jet", fam.jet)
        charted = dg._Charted(fam, target / np.linalg.norm(target), pole)
        pts, _ = charted.solve(0.5 * rng.standard_normal((50, 7)))
        # theta-circle has no regular preimage
        assert (len(pts) > 0) == (fam.name != "theta-circle")
        assert (0 < calls["jet"] == calls["stereo_inv"] == calls["iterations"]
                <= dg.NEWTON_MAX_ITER)


def test_singular_run_tries_the_plain_solve_once(rng, monkeypatch):
    # theta-circle's Jacobians are singular at every iterate: its run's first
    # batch tries the plain solve and takes the damped one, and the later
    # batches go straight to the damped solve, so the run makes one more
    # solve than it has iterations; a regular run solves once per iteration
    solves = []
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve",
                        lambda *args: solves.append(1) or solve(*args))
    target = rng.standard_normal(8)
    target /= np.linalg.norm(target)
    pole = np.zeros(8); pole[0] = 1.0
    for fam, singular in ((dg.theta_circle_map(), True),
                          (dg.power_map(3), False)):
        jets = []
        fam.jet = partial(lambda jet, x: jets.append(1) or jet(x), fam.jet)
        solves.clear()
        pts, _ = dg._Charted(fam, target, pole).solve(
            0.5 * rng.standard_normal((50, 7)))
        assert (len(pts) > 0) != singular
        assert 0 < len(jets) <= dg.NEWTON_MAX_ITER
        assert len(solves) == len(jets) + singular


def _flat_jet(value, jacobian, calls):
    """A stub jet that counts its calls: every point maps to `value`, and
    `jacobian` is the ambient Jacobian everywhere (the derivative of the
    constant only when it is zero), so every residual stays where it
    starts."""
    def jet(x):
        calls.append(len(x))
        return (np.broadcast_to(value, x.shape).copy(),
                np.broadcast_to(jacobian, (len(x), 8, 8)).copy())
    return jet


def test_flat_rank_deficient_rows_stop_and_report_their_floor(rng):
    # a constant map has a zero Jacobian, so its damped step is zero and its
    # residual flat: each of `_count_at`'s four runs (two passes, two
    # charts) finds its batch singular at the first evaluation, starts
    # tracking at the second and stops PLATEAU_ITER evaluations later
    target, value, jets = _unit(rng), _unit(rng), []
    fam = dg.MapFamily("constant", _flat_jet(value, np.zeros((8, 8)), jets))
    trial = dg._count_at(fam, target, STUB, rng, 0)
    assert len(jets) == 4 * (dg.PLATEAU_ITER + 2)
    assert (trial.degree, trial.n_converged, trial.resamples) == (0, 0, 0)
    floor = np.linalg.norm(dg._Charted(fam, target, np.eye(8)[0]).evaluate(
        np.zeros((1, 7)))[1])
    assert floor > dg.NO_ROOT_FLOOR
    assert abs(trial.max_residual - floor) <= 1e-12


@pytest.mark.parametrize("offset, jacobian", [
    (1e-6, np.zeros((8, 8))), (1.0, np.eye(8)),
], ids=["below-the-floor", "full-rank"])
def test_flat_rows_the_plateau_stop_keeps(offset, jacobian, rng):
    # a flat residual below NO_ROOT_FLOOR stays in the batch, and so does a
    # flat one in a run whose Jacobians are regular (every plain solve
    # succeeds): both run every iteration
    target = _unit(rng)
    value = target + offset * _unit(rng)
    jets = []
    fam = dg.MapFamily("flat", _flat_jet(value / np.linalg.norm(value),
                                         jacobian, jets))
    pts, floor = dg._Charted(fam, target, np.eye(8)[0]).solve(
        0.5 * rng.standard_normal((50, 7)))
    assert len(pts) == 0 and floor > dg.NEWTON_TOL
    assert (floor < dg.NO_ROOT_FLOOR) == (offset < 1.0)
    assert jets == [50] * dg.NEWTON_MAX_ITER


def test_plateau_stop_keeps_theta_circle_reports(monkeypatch):
    # the stop against the run without it (PLATEAU_ITER beyond the last
    # iteration): the same integer fields and targets, a floor at most
    # DEGREE_SLACK above the full run's, and fewer rows evaluated
    rows = []
    evaluate = dg._Charted.evaluate
    monkeypatch.setattr(dg._Charted, "evaluate",
                        lambda self, s: rows.append(len(s)) or evaluate(self, s))
    config = dg.EngineConfig(n_starts=300, trials=1)

    def reports():
        out = []
        for seed in range(5):
            rows.clear()
            rep = dg.named_degree("theta-circle", seed=seed, config=config)
            out.append((rep.to_dict(), sum(rows)))
        return out

    stop_on = reports()
    monkeypatch.setattr(dg, "PLATEAU_ITER", dg.NEWTON_MAX_ITER + 1)
    for (on, rows_on), (off, rows_off) in zip(stop_on, reports()):
        assert rows_off > rows_on
        assert on["degree"] == off["degree"] == 0
        for t, w in zip(on["trials"], off["trials"]):
            for key in ("degree", "signs", "n_converged", "resamples", "target",
                        "preimages"):
                assert t[key] == w[key], key
            assert w["max_residual"] >= t["max_residual"] - DEGREE_SLACK


@pytest.mark.parametrize("name", [n for n in dg.MAPS if n != "theta-circle"])
def test_full_rank_maps_make_no_singular_run(name, monkeypatch):
    # the plateau stop rests on this: only a rank-deficient map takes the
    # damped step, so the maps of full rank run without the stop
    singular = []
    step = dg._newton_step

    def watched(jac, g, run=None):
        out = step(jac, g, run)
        singular.append(run.singular)
        return out

    monkeypatch.setattr(dg, "_newton_step", watched)
    config = dg.EngineConfig(n_starts=300, trials=1)
    for seed in range(5):
        dg.named_degree(name, seed=seed, config=config)
    assert singular and not any(singular)


_REPORTS_IN_FRESH_PROCESS = """
import json
from sixsphere import degree as dg
cfg = dg.EngineConfig(n_starts=300, trials=1)
print(json.dumps([dg.named_degree(name, seed=1, config=cfg).to_dict()
                  for name in ("identity", "power:6", "theta-circle",
                               "cylinder-q")], sort_keys=True))
"""


def test_degree_reports_are_identical_across_processes():
    # Newton decisions near NEWTON_TOL, CRITICAL_DET or the dedupe tolerance
    # would flip if rounding differed between interpreters
    src = os.path.dirname(os.path.dirname(os.path.abspath(dg.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    procs = [subprocess.Popen([sys.executable, "-c", _REPORTS_IN_FRESH_PROCESS],
                              stdout=subprocess.PIPE, env=env, text=True)
             for _ in range(2)]
    outs = [p.communicate(timeout=60)[0] for p in procs]
    assert [p.returncode for p in procs] == [0, 0]
    assert len(json.loads(outs[0])) == 4
    assert outs[0] == outs[1]


def test_degree_cylinder():
    assert dg.mapping_degree(dg.cylinder_loop_map(), seed=5, config=FAST).degree == 2
    assert dg.mapping_degree(dg.cylinder_loop_map(half_angle=True),
                             seed=5, config=FAST).degree == 1


def test_cylinder_boundary_collapse():
    fam = dg.cylinder_loop_map()
    p = np.zeros((1, 8)); p[0, 0] = 0.0; p[0, 1] = 1.0
    ends = []
    for th in (0.0, 2 * np.pi):
        q = p.copy(); q[0, 0] = th
        ends.append(fam.func(q)[0])
    one = np.zeros(8); one[0] = 1.0
    assert np.allclose(ends[0], one, atol=1e-12)
    assert np.allclose(ends[1], one, atol=1e-12)
    half = dg.cylinder_loop_map(half_angle=True)
    q = p.copy(); q[0, 0] = 2 * np.pi
    assert np.allclose(half.func(q)[0], -one, atol=1e-12)


def test_degree_rp7_cube():
    rep = dg.degree_on_rp7(dg.cube_map(), seed=6, config=FAST)
    assert abs(rep.degree) == 3
    assert rep.degree == 3      # the sign under this package's orientations


def test_rp7_requires_odd():
    with pytest.raises(NotOdd):
        dg.degree_on_rp7(dg.squaring_map(), seed=1, config=FAST)


# ---------------------------------------------------------------------------
# why a target is resampled: stub maps, each given by its jet alone
# ---------------------------------------------------------------------------

STUB = dg.EngineConfig(n_starts=50, trials=1)


def _antipodal_jet(x):
    return -x, np.broadcast_to(-np.eye(8), (len(x), 8, 8)).copy()


def _slowed_jet(x):
    """The identity with four times its Jacobian: each Newton step goes a
    quarter of the way, so the residuals fall to about 1e-8 in
    NEWTON_MAX_ITER iterations, below NO_ROOT_FLOOR but not NEWTON_TOL."""
    return x.copy(), np.broadcast_to(4.0 * np.eye(8), (len(x), 8, 8)).copy()


#: x -> D x / |D x| with this D: a diffeomorphism of the sphere whose
#: determinant at the preimage of a target within 0.05 of 1 is below
#: CRITICAL_DET
STRETCH = np.array([100.0] + [1.0] * 7)


def _stretch_jet(x):
    dx = x * STRETCH
    r = np.linalg.norm(dx, axis=1)
    y = dx / r[:, None]
    d = (np.eye(8) - y[:, :, None] * y[:, None, :]) * STRETCH / r[:, None, None]
    return y, d


def _half_conjugated_jet(x):
    """The identity where Re x >= 0 and conjugation where Re x < 0: not
    continuous, so the signed count at q is the sign of Re q, and targets
    on either side disagree."""
    conj = np.array([1.0] + [-1.0] * 7)
    y, d = dg.identity_map().jet(x)
    lower = x[:, 0] < 0
    y[lower] *= conj
    d[lower] *= conj[:, None]
    return y, d


def _unit(rng):
    q = rng.standard_normal(8)
    return q / np.linalg.norm(q)


def _switching_map(monkeypatch, first, second):
    """A stub map that is the jet `first` during `_count_at`'s first start
    pass and `second` from its second pass on."""
    passes = []
    one_pass = dg._one_pass
    monkeypatch.setattr(dg, "_one_pass",
                        lambda *args: passes.append(1) or one_pass(*args))
    return dg.MapFamily(
        "stub", lambda x: (first if len(passes) < 2 else second)(x))


@pytest.mark.parametrize("jets, message", [
    ((dg.identity_map().jet, _slowed_jet), "preimage counts 1 vs 0"),
    ((dg.identity_map().jet, _antipodal_jet), "different preimage sets"),
], ids=["counts-differ", "sets-differ"])
def test_passes_that_disagree_resample(jets, message, monkeypatch, rng):
    # the first pass finds the preimage q; the second finds none, or -q
    fam = _switching_map(monkeypatch, *jets)
    with pytest.raises(UnstablePreimageCount, match=message):
        dg._count_at(fam, _unit(rng), STUB, rng, 0)


def test_near_critical_preimage_resamples(rng):
    q = np.eye(8)[0] + 0.01 * np.eye(8)[3]
    with pytest.raises(UnstablePreimageCount, match="near-critical"):
        dg._count_at(dg.MapFamily("stretch", _stretch_jet),
                     q / np.linalg.norm(q), STUB, rng, 0)


def test_no_root_above_the_floor_resamples(rng):
    with pytest.raises(NonConvergence, match="no converged starts"):
        dg._count_at(dg.MapFamily("slowed", _slowed_jet), _unit(rng), STUB,
                     rng, 0)


def test_trial_counts_resamples_and_reraises(monkeypatch, rng):
    seen = []
    count_at = dg._count_at

    def counted(family, target, cfg, rng, resamples):
        seen.append(resamples)
        return count_at(family, target, cfg, rng, resamples)

    monkeypatch.setattr(dg, "_count_at", counted)
    with pytest.raises(NonConvergence):
        dg._trial(dg.MapFamily("slowed", _slowed_jet), STUB, rng)
    assert seen == list(range(dg.MAX_RESAMPLE + 1))

    # two failed targets, then the identity: the report counts both
    seen.clear()
    fam = dg.MapFamily("stub", lambda x: (
        _slowed_jet if len(seen) <= 2 else dg.identity_map().jet)(x))
    trial = dg._trial(fam, STUB, rng)
    assert (trial.degree, trial.resamples) == (1, 2)
    assert seen == [0, 1, 2]


def test_trials_that_disagree_raise():
    with pytest.raises(ConflictingEstimates, match=r"\[-1, 1\]"):
        dg.mapping_degree(dg.MapFamily("half", _half_conjugated_jet), seed=1,
                          config=dg.EngineConfig(n_starts=50, trials=6))


def test_power6_at_a_seed_that_misses_a_preimage_reports_no_wrong_degree():
    # the power:6 request of the degree-engine bench at seed 3: in one
    # trial neither pass finds the preimage 6.8 degrees from +1, so the
    # trials read [5, 6]; the engine may say 6 or raise, never another degree
    try:
        rep = dg.mapping_degree(dg.power_map(6), seed=1501415362)
    except ConflictingEstimates:
        return
    assert rep.degree == 6


def test_report_shape():
    rep = dg.mapping_degree(dg.identity_map(), seed=1, config=FAST)
    d = rep.to_dict()
    assert d["map"] == "identity" and d["degree"] == 1
    assert len(d["trials"]) == FAST.trials
    t = d["trials"][0]
    assert set(t) >= {"target", "degree", "signs", "preimages", "min_abs_det",
                      "max_residual", "n_converged", "resamples"}
    assert t["signs"] == [1]
    assert d["exact_differential"] is True


def test_power_preimage_oracle_small():
    w = Octonion([0, 1, 0, 0, 0, 0, 0, 0])     # e1: phase pi/2, axis e1
    pre = dg.power_map_preimages(w, 1)
    assert len(pre) == 1 and np.allclose(pre[0], w.to_float_array())
    pre = dg.power_map_preimages(w, 2)
    assert len(pre) == 2
    c = np.cos(np.pi / 4)
    assert any(np.allclose(p, [c, c, 0, 0, 0, 0, 0, 0], atol=1e-12) for p in pre)
    assert any(np.allclose(p, [-c, -c, 0, 0, 0, 0, 0, 0], atol=1e-12) for p in pre)


def test_power_preimage_oracle_k6(rng):
    x = rng.standard_normal(8)
    x /= np.linalg.norm(x)
    w = Octonion(x)
    pre = dg.power_map_preimages(w, 6)
    assert len(pre) == 6
    fam = dg.power_map(6)
    for p in pre:
        assert np.max(np.abs(fam.func(p[None])[0] - x)) < 1e-10
    pairs = sum(1 for i in range(6) for j in range(i + 1, 6)
                if np.max(np.abs(pre[i] + pre[j])) < 1e-9)
    assert pairs == 3


def test_power_preimage_oracle_nongeneric():
    with pytest.raises(NonGenericValue):
        dg.power_map_preimages(Octonion.one(), 3)


def test_engine_matches_oracle_on_power3():
    rep = dg.mapping_degree(dg.power_map(3), seed=11, config=FAST)
    assert rep.degree == 3
    for trial in rep.trials:
        oracle = dg.power_map_preimages(Octonion(trial.target), 3)
        assert len(oracle) == len(trial.preimages)
        for o in oracle:
            assert min(np.max(np.abs(o - np.array(p)))
                       for p in trial.preimages) < 1e-8


def test_engine_determinism():
    r1 = dg.mapping_degree(dg.squaring_map(), seed=21, config=FAST)
    r2 = dg.mapping_degree(dg.squaring_map(), seed=21, config=FAST)
    assert r1.to_dict() == r2.to_dict()
