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

from sixsphere import degree as dg, suites
from sixsphere.errors import (BadConfig, ConflictingEstimates, NonConvergence,
                              NonGenericValue, NotOdd, UnstablePreimageCount)
from sixsphere.octonion import (Octonion, batch_mul, left_mult_matrix,
                                right_mult_matrix)
from sixsphere.sampling import rng_from_seed
import references
from test_golden_degree_reports import DEGREE_SLACK

FAST = dg.EngineConfig(n_starts=1200)


def _charted(fam, target, sign=1.0):
    """The charted problem of one group: the target's chart, and the domain
    chart from the pole sign e0."""
    return dg._Charted(fam, dg._target_frame(target)[None], np.array([sign]))


def _one_group(n):
    return np.zeros(n, dtype=int)


def test_stereo_charts_invert_each_other(rng):
    # both poles +-e0 have the complement basis e1 .. e7, and the pole
    # charts are the stereographic charts on it
    for sign in (1.0, -1.0):
        pole = sign * np.eye(8)[0]
        basis = dg._orthonormal_complement(pole)
        assert np.array_equal(basis, np.eye(8)[:, 1:])
        s = rng.standard_normal((50, 7))
        x = dg._pole_chart_inv(s, np.full(50, sign))
        q = np.sum(s * s, axis=1, keepdims=True)
        assert np.allclose(x, (2.0 * s @ basis.T + (q - 1.0) * pole)
                           / (q + 1.0), rtol=0, atol=1e-15)
        assert np.allclose(np.linalg.norm(x, axis=1), 1.0)
        back = dg._pole_chart(x, sign)
        t = (x @ pole)[:, None]
        assert np.allclose(back, ((x - t * pole) / (1.0 - t)) @ basis,
                           atol=1e-15)
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
    # in both domain charts, in one batch
    fam = dg.named_map(name)
    lead = fam.lead
    target = rng.standard_normal(8)
    frame = dg._target_frame(target / np.linalg.norm(target))
    charted = dg._Charted(fam, np.stack([frame, frame]), np.array([1.0, -1.0]))
    s = 0.7 * rng.standard_normal((10, 7))
    if lead:
        s[:, 0] = rng.uniform(0.5, 2.0 * np.pi - 0.5, size=len(s))
    group = np.repeat([0, 1], 5)
    _, _, jac = charted.evaluate(s, group)
    h = 1e-6
    for j in range(7):
        sp = s.copy(); sp[:, j] += h
        sm = s.copy(); sm[:, j] -= h
        fd = (charted.evaluate(sp, group)[1]
              - charted.evaluate(sm, group)[1]) / (2 * h)
        assert np.allclose(jac[:, :, j], fd, rtol=1e-6, atol=1e-6)


def _mixed_batch(fam, rng, n):
    """n chart points of six groups (three targets, both domain charts),
    sorted by group, and their `_Charted`."""
    targets = rng.standard_normal((3, 8))
    frames = np.repeat([dg._target_frame(t / np.linalg.norm(t))
                        for t in targets], 2, axis=0)
    charted = dg._Charted(fam, frames, np.tile([1.0, -1.0], 3))
    s = 0.7 * rng.standard_normal((n, 7))
    if fam.lead:
        s[:, 0] = rng.uniform(0.5, 2.0 * np.pi - 0.5, size=n)
    return charted, s, np.sort(rng.integers(0, 6, size=n))


@pytest.mark.parametrize("name", list(dg.MAPS))
def test_evaluate_is_row_local(name, rng):
    # a prefix of a batch evaluates to those rows of the full batch, bit for
    # bit, whatever its length
    n = dg.ROW_CAP + 50
    charted, s, group = _mixed_batch(dg.named_map(name), rng, n)
    full = charted.evaluate(s, group)
    for k in (1, 2, 3, 7, 40, 101, dg.START_CHUNK, dg.START_CHUNK + 1,
              dg.ROW_CAP, dg.ROW_CAP + 1, n - 1):
        part = charted.evaluate(s[:k], group[:k])
        for got, want in zip(part, full):
            assert np.array_equal(got, want[:k])
    # and a suffix, whose rows sit elsewhere in memory
    for got, want in zip(charted.evaluate(s[3:], group[3:]), full):
        assert np.array_equal(got, want[3:])


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
    got = dg._signed_dets(fam, x, y / np.linalg.norm(y, axis=1, keepdims=True),
                          fam.dfunc(x))
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
    df = fam.dfunc(x)
    got = dg._signed_dets(fam, x, u, df)
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
    charted = _charted(dg.theta_circle_map(), target / np.linalg.norm(target))
    s = rng.standard_normal((n, 7))
    _, g, jac = charted.evaluate(s, _one_group(n))
    return jac, g


def _steps(jac, g):
    """Newton steps of one group, and whether it was found singular."""
    singular = np.zeros(1, dtype=bool)
    return dg._newton_steps(jac, g, _one_group(len(g)), singular), singular[0]


def test_newton_step_regular_batch_is_plain_solve(rng):
    jac = rng.standard_normal((200, 7, 7))
    g = rng.standard_normal((200, 7))
    want = np.linalg.solve(jac, g[..., None])[..., 0]
    step, singular = _steps(jac, g)
    assert np.array_equal(step, want) and not singular


def test_newton_step_rank_one_matches_least_squares(rng):
    jac, g = _theta_circle_newton_batch(rng)
    assert set(np.linalg.matrix_rank(jac)) == {1}
    step, singular = _steps(jac, g)
    assert singular
    lsq = (np.linalg.pinv(jac) @ g[..., None])[..., 0]
    err = np.linalg.norm(step - lsq, axis=1)
    assert np.all(err <= 1e-4 * np.linalg.norm(lsq, axis=1))


def test_newton_step_zero_jacobian_row_gives_zero_step(rng):
    jac, g = _theta_circle_newton_batch(rng, n=20)
    jac[3] = 0.0
    step, _ = _steps(jac, g)
    assert np.all(np.isfinite(step))
    assert np.array_equal(step[3], np.zeros(7))


def test_newton_steps_mark_only_the_singular_groups(rng):
    # a regular group, a rank-1 group, a group whose only zero-pivot row is
    # its last, and a regular group, in one batch of more than START_CHUNK
    # rows: each row gets its own group's step, and only the two singular
    # groups are marked
    n = dg.START_CHUNK + 30
    jac_sing, g_sing = _theta_circle_newton_batch(rng, n=n)
    jac_last = rng.standard_normal((40, 7, 7))
    jac_last[-1, :, 3] = 0.0
    jac = np.concatenate([rng.standard_normal((n, 7, 7)), jac_sing, jac_last,
                          rng.standard_normal((40, 7, 7))])
    g = np.concatenate([rng.standard_normal((n, 7)), g_sing,
                        rng.standard_normal((80, 7))])
    group = np.repeat([0, 1, 2, 3], [n, n, 40, 40])
    singular = np.zeros(5, dtype=bool)
    step = dg._newton_steps(jac, g, group, singular)
    assert singular.tolist() == [False, True, True, False, False]
    for gid, want_singular in enumerate([False, True, True, False]):
        mine = group == gid
        want, marked = _steps(jac[mine], g[mine])
        assert marked == want_singular
        assert np.array_equal(step[mine], want)


def test_newton_iteration_evaluates_chart_and_map_once(rng, monkeypatch):
    # one inverse chart, one jet call and one Newton step per iteration, and
    # at most NEWTON_MAX_ITER iterations
    calls = {}

    def counted(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(dg, "_pole_chart_inv",
                        counted("stereo_inv", dg._pole_chart_inv))
    monkeypatch.setattr(dg, "_newton_steps",
                        counted("iterations", dg._newton_steps))
    target = rng.standard_normal(8)
    for fam in (dg.theta_circle_map(), dg.power_map(3)):
        calls.update(stereo_inv=0, iterations=0, jet=0)
        fam.jet = counted("jet", fam.jet)
        charted = _charted(fam, target / np.linalg.norm(target))
        pts, _, _ = charted.solve(0.5 * rng.standard_normal((50, 7)),
                                  _one_group(50))
        # theta-circle has no regular preimage
        assert (len(pts) > 0) == (fam.name != "theta-circle")
        assert (0 < calls["jet"] == calls["stereo_inv"] == calls["iterations"]
                <= dg.NEWTON_MAX_ITER)


def test_singular_run_tries_the_plain_solve_once(rng, monkeypatch):
    # theta-circle's Jacobians are singular at every iterate: its run's first
    # batch tries the plain solve and takes the damped one, and the later
    # batches go straight to the damped solve, so the run makes one more
    # solve than it has iterations that step rows; a regular run solves once
    # per such iteration (an iteration whose rows all leave steps none)
    solves, stepped = [], []
    solve, steps = np.linalg.solve, dg._newton_steps
    monkeypatch.setattr(np.linalg, "solve",
                        lambda *args: solves.append(1) or solve(*args))
    monkeypatch.setattr(dg, "_newton_steps", lambda jac, *args: stepped.append(
        len(jac)) or steps(jac, *args))
    target = rng.standard_normal(8)
    target /= np.linalg.norm(target)
    for fam, singular in ((dg.theta_circle_map(), True),
                          (dg.power_map(3), False)):
        jets = []
        fam.jet = partial(lambda jet, x: jets.append(1) or jet(x), fam.jet)
        solves.clear()
        stepped.clear()
        pts, _, _ = _charted(fam, target).solve(
            0.5 * rng.standard_normal((50, 7)), _one_group(50))
        assert (len(pts) > 0) != singular
        assert 0 < len(jets) == len(stepped) <= dg.NEWTON_MAX_ITER
        assert len(solves) == np.count_nonzero(stepped) + singular


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
    # residual flat: each of a target's four groups (two passes, two
    # charts), all in one batch, finds itself singular at the first
    # evaluation, starts tracking at the second and stops PLATEAU_ITER
    # evaluations later
    target, value, jets = _unit(rng), _unit(rng), []
    fam = dg.MapFamily("constant", _flat_jet(value, np.zeros((8, 8)), jets))
    trial = references.count_at(fam, target, STUB, rng, 0)
    assert jets == [2 * STUB.n_starts] * (dg.PLATEAU_ITER + 2)
    assert (trial.degree, trial.n_converged, trial.resamples) == (0, 0, 0)
    floor = np.linalg.norm(_charted(fam, target).evaluate(
        np.zeros((1, 7)), _one_group(1))[1])
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
    pts, _, (floor,) = _charted(fam, target).solve(
        0.5 * rng.standard_normal((50, 7)), _one_group(50))
    assert len(pts) == 0 and floor > dg.NEWTON_TOL
    assert (floor < dg.NO_ROOT_FLOOR) == (offset < 1.0)
    assert jets == [50] * dg.NEWTON_MAX_ITER


#: a rotation by 45 degrees in the (e0, e7) plane, written elementwise so
#: that the stub below stays row-local (a BLAS product over rows would not)
_C45 = np.sqrt(0.5)


def _half_rank_one_jet(x):
    """The rotation where x0 <= 0, regular, and where x0 > 0 the Jacobian
    e0 e0^T: in the target chart of -e7, whose frame is the identity, its
    chart Jacobians have one nonzero row, so the plain solve fails on
    them.  The preimage of -e7 has x0 < 0."""
    y = x.copy()
    y[:, 0] = _C45 * x[:, 0] - _C45 * x[:, 7]
    y[:, 7] = _C45 * x[:, 0] + _C45 * x[:, 7]
    d = np.zeros((len(x), 8, 8))
    d[:, 0, 0] = d[:, 7, 7] = d[:, 7, 0] = _C45
    d[:, 0, 7] = -_C45
    d[:, 1:7, 1:7] = np.eye(6)
    up = x[:, 0] > 0
    d[up] = 0.0
    d[up, 0, 0] = 1.0
    return y, d


def _radial(rng, n, lo, hi):
    """n random chart points whose norms are uniform in [lo, hi]."""
    v = rng.standard_normal((n, 7))
    return v * (rng.uniform(lo, hi, (n, 1))
                / np.linalg.norm(v, axis=1, keepdims=True))


def test_solve_is_the_same_at_every_row_cap(rng, monkeypatch):
    # group 0's first ROW_CAP rows start where x0 < 0 and its last 30 where
    # x0 > 0, so at every cap below the batch size it is first marked
    # singular in a later slice and its earlier rows are redone with the
    # damped step; group 1 starts regular and group 2 singular.  Points,
    # groups and floors are bit for bit those of one slice, and only the
    # redone rows add evaluations
    fam = dg.MapFamily("half-rank-one", _half_rank_one_jet)
    frames = np.broadcast_to(dg._target_frame(-np.eye(8)[7]), (3, 8, 8))
    assert np.array_equal(frames[0], np.eye(8))
    n0 = dg.ROW_CAP + 30
    s = np.vstack([_radial(rng, dg.ROW_CAP, 0.2, 0.9),
                   _radial(rng, 70, 1.2, 2.0)])
    group = np.repeat([0, 1, 2], [n0, 20, 20])
    rows = []
    evaluate = dg._Charted.evaluate
    monkeypatch.setattr(dg._Charted, "evaluate", lambda self, s, *args: (
        rows.append(len(s)) or evaluate(self, s, *args)))
    out = {}
    for cap in (len(s) + 1, 1, 7, dg.START_CHUNK, dg.ROW_CAP):
        monkeypatch.setattr(dg, "ROW_CAP", cap)
        rows.clear()
        charted = dg._Charted(fam, frames, np.array([1.0, -1.0, 1.0]))
        out[cap] = charted.solve(s, group), sum(rows)
    (pts, pts_group, floors), whole = out.pop(len(s) + 1)
    assert np.bincount(pts_group).tolist()[0] > dg.ROW_CAP
    assert np.all(floors < dg.NEWTON_TOL)
    for cap, (got, evaluated) in out.items():
        assert all(np.array_equal(a, b) for a, b in zip(got, (
            pts, pts_group, floors))), cap
        assert evaluated > whole, cap


def test_plateau_stop_keeps_theta_circle_reports(monkeypatch):
    # the stop against the run without it (PLATEAU_ITER beyond the last
    # iteration): the same integer fields and targets, a floor at most
    # DEGREE_SLACK above the full run's, and fewer rows evaluated
    rows = []
    evaluate = dg._Charted.evaluate
    monkeypatch.setattr(dg._Charted, "evaluate", lambda self, s, *args: rows.append(
        len(s)) or evaluate(self, s, *args))
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
    steps = dg._newton_steps

    def watched(jac, g, group, marks):
        out = steps(jac, g, group, marks)
        singular.append(marks.any())
        return out

    monkeypatch.setattr(dg, "_newton_steps", watched)
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
    """A stub map that is the jet `first` on the rows of a target's first
    start pass (groups 0 and 1 of its rounds) and `second` on those of its
    second pass: each row is evaluated as its own pass's batch would be,
    since evaluation is row-local."""
    evaluate = dg._Charted.evaluate

    def switched(self, s, group, out=None):
        x, g, jac = out or (np.empty((len(s), 8)), np.empty((len(s), 7)),
                            np.empty((len(s), 7, 7)))
        for rows, jet in ((group < 2, first), (group >= 2, second)):
            self.family.jet = jet
            x[rows], g[rows], jac[rows] = evaluate(self, s[rows], group[rows])
        self.family.jet = first
        return x, g, jac

    monkeypatch.setattr(dg._Charted, "evaluate", switched)
    return dg.MapFamily("stub", first)


@pytest.mark.parametrize("jets, message", [
    ((dg.identity_map().jet, _slowed_jet), "preimage counts 1 vs 0"),
    ((dg.identity_map().jet, _antipodal_jet), "different preimage sets"),
], ids=["counts-differ", "sets-differ"])
def test_passes_that_disagree_resample(jets, message, monkeypatch, rng):
    # the first pass finds the preimage q; the second finds none, or -q
    fam = _switching_map(monkeypatch, *jets)
    with pytest.raises(UnstablePreimageCount, match=message):
        references.count_at(fam, _unit(rng), STUB, rng, 0)


def test_near_critical_preimage_resamples(rng):
    q = np.eye(8)[0] + 0.01 * np.eye(8)[3]
    with pytest.raises(UnstablePreimageCount, match="near-critical"):
        references.count_at(dg.MapFamily("stretch", _stretch_jet),
                            q / np.linalg.norm(q), STUB, rng, 0)


def test_no_root_above_the_floor_resamples(rng):
    with pytest.raises(NonConvergence, match="no converged starts"):
        references.count_at(dg.MapFamily("slowed", _slowed_jet), _unit(rng),
                            STUB, rng, 0)


def _spy_attempts(monkeypatch):
    """One entry per target drawn by a level (`_Attempt`), in order."""
    made = []
    init = dg._Attempt.__init__

    def spied(self, *args, **kwargs):
        made.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(dg._Attempt, "__init__", spied)
    return made


def test_trial_counts_resamples_and_reraises(monkeypatch, rng):
    made = _spy_attempts(monkeypatch)
    with pytest.raises(NonConvergence):
        dg._trials(dg.MapFamily("slowed", _slowed_jet), STUB, rng, True)
    assert len(made) == dg.MAX_RESAMPLE + 1

    # two failed targets, then the identity: the report counts both
    made.clear()
    fam = dg.MapFamily("stub", lambda x: (
        _slowed_jet if len(made) <= 2 else dg.identity_map().jet)(x))
    (trial,) = dg._trials(fam, STUB, rng, True)
    assert (trial.degree, trial.resamples) == (1, 2)
    assert len(made) == 3


def _half_slowed_jet(x):
    """The identity where Re x >= 0 and `_slowed_jet` where Re x < 0: a
    target with a negative real part has its preimage where Newton crawls,
    so it fails and resamples, and one with a positive real part counts."""
    y, d = dg.identity_map().jet(x)
    d[x[:, 0] < 0] *= 4.0
    return y, d


@pytest.mark.parametrize("jet, trials", [
    (_half_slowed_jet, 3), (_half_slowed_jet, 5), (_slowed_jet, 3)],
    ids=["some-resample", "more-trials", "every-target-fails"])
def test_lockstep_level_resamples_as_the_sequential_trials(jet, trials):
    # an attempt that fails inside a lockstep level is replaced by the next
    # target of the stream: the reports (resamples and targets included),
    # the error and the final rng state are those of running the trials one
    # after another
    fam = dg.MapFamily("stub", jet)
    cfg = dg.EngineConfig(n_starts=50, trials=trials)
    outcomes = []
    for run in (dg._trials, references.sequential_trials):
        rng = rng_from_seed(7)
        try:
            outcomes.append((run(fam, cfg, rng, True), None))
        except NonConvergence as err:
            outcomes.append((None, str(err)))
        outcomes[-1] += (rng.bit_generator.state,)
    assert outcomes[0] == outcomes[1]
    reports, error, _ = outcomes[0]
    if jet is _slowed_jet:
        assert reports is None and "no converged starts" in error
    else:
        assert error is None and len(reports) == trials
        assert sum(t.resamples for t in reports) > 0


LEVELS = [("power:3", False), ("power:6", False), ("cylinder-loop", False),
          ("theta-circle", False), ("power:3", True), ("theta-circle", True)]


# each id names the level's chunk: START_CHUNK, or every one of 600 starts
@pytest.mark.parametrize("name, two_pass", LEVELS, ids=[
    "%s-%d-%s" % (name, 600 if two_pass else dg.START_CHUNK, two_pass)
    for name, two_pass in LEVELS])
def test_level_wide_batch_returns_what_each_group_returns_alone(
        name, two_pass):
    # every pass of a level, both charts, in one batch per round gives each
    # pass, bit for bit, the preimages, seen points and floor it gets run
    # alone; and the level's reports are the sequential ones
    fam, cfg = dg.named_map(name), dg.EngineConfig(n_starts=600, trials=3)

    def passes():
        rng = rng_from_seed(3)
        return [p for _ in range(cfg.trials) for p in dg._Attempt(
            fam, cfg, rng, two_pass).passes]

    together, alone = passes(), passes()
    while not all(p.done for p in together):
        dg._round(fam, [p for p in together if not p.done])
    for p in alone:
        while not p.done:
            dg._round(fam, [p])
    for a, b in zip(together, alone):
        assert (a.lo, a.floor) == (b.lo, b.floor)
        assert np.array_equal(a.reps, b.reps)
        assert np.array_equal(a.seen, b.seen)
    assert dg._trials(fam, cfg, rng_from_seed(3), two_pass) == \
        references.sequential_trials(fam, cfg, rng_from_seed(3), two_pass)


@pytest.mark.parametrize("name", ["power:6", "cylinder-q", "theta-circle"])
def test_first_round_of_two_chunks_is_two_rounds(name, monkeypatch):
    # a budgeted pass's first round runs its first two chunks; each pass
    # ends with what one chunk per round gives it, bit for bit
    fam, cfg = dg.named_map(name), dg.EngineConfig(n_starts=1000, trials=3)

    def run():
        rng = rng_from_seed(11)
        passes = [dg._Attempt(fam, cfg, rng, False).passes[0]
                  for _ in range(cfg.trials)]
        while not all(p.done for p in passes):
            dg._round(fam, [p for p in passes if not p.done])
        return passes

    sizes = _spy_starts(monkeypatch)
    paired = run()
    first = sizes[0]
    next_chunks = dg._Pass.next_chunks
    monkeypatch.setattr(dg._Pass, "next_chunks",
                        lambda self: next_chunks(self)[:1])
    sizes.clear()
    for a, b in zip(paired, run()):
        assert (a.lo, a.floor) == (b.lo, b.floor)
        assert np.array_equal(a.reps, b.reps)
        assert np.array_equal(a.seen, b.seen)
    assert first == 2 * sizes[0] == 2 * cfg.trials * dg.START_CHUNK


def test_no_jet_call_gets_more_than_the_row_cap(monkeypatch):
    # the half-conjugated jet runs both levels, whose first rounds hold
    # 6 x (250 + 50) and 6 x 2 x 300 starts; each is evaluated in slices of
    # at most ROW_CAP rows
    runs, rows = _spy_runs(monkeypatch), []
    fam = dg.MapFamily("half", lambda x: rows.append(len(x))
                       or _half_conjugated_jet(x))
    with pytest.raises(ConflictingEstimates):
        dg.mapping_degree(fam, seed=1,
                          config=dg.EngineConfig(n_starts=300, trials=6))
    assert runs == [False, True]
    assert 6 * 2 * 300 > dg.ROW_CAP > dg.START_CHUNK
    assert rows and max(rows) == dg.ROW_CAP
    assert sum(rows) > 6 * 300 + 6 * 2 * 300


def _spy_runs(monkeypatch):
    """The `two_pass` flag of every run of the trials, in order."""
    runs = []
    inner = dg._trials

    def spied(family, cfg, rng, two_pass):
        runs.append(two_pass)
        return inner(family, cfg, rng, two_pass)

    monkeypatch.setattr(dg, "_trials", spied)
    return runs


def _spy_starts(monkeypatch):
    """The number of starts of every `_Charted.solve` call, in order."""
    sizes = []
    solve = dg._Charted.solve

    def spied(self, starts, group):
        sizes.append(len(starts))
        return solve(self, starts, group)

    monkeypatch.setattr(dg._Charted, "solve", spied)
    return sizes


def _half_runs(n_starts, monkeypatch):
    """The `two_pass` runs of the disagreeing half-conjugated jet, which
    raises after its last level."""
    runs = _spy_runs(monkeypatch)
    with pytest.raises(ConflictingEstimates, match=r"\[-1, 1\]"):
        dg.mapping_degree(dg.MapFamily("half", _half_conjugated_jet), seed=1,
                          config=dg.EngineConfig(n_starts=n_starts, trials=6))
    return runs


def test_trials_that_disagree_raise(monkeypatch):
    # the one-pass trials disagree, so the engine reruns with two passes,
    # whose trials disagree too; with at most START_CHUNK starts the
    # budgeted pass is one chunk of every start
    assert _half_runs(50, monkeypatch) == [False, True]


def test_trials_that_disagree_run_both_levels(monkeypatch):
    # the budgeted trials disagree, so the engine reruns with two passes,
    # whose trials disagree too
    assert _half_runs(300, monkeypatch) == [False, True]


@pytest.mark.parametrize("trials, passes", [(3, 3), (1, 2)])
def test_agreeing_trials_run_one_pass_per_target(trials, passes, monkeypatch):
    # two or more trials that agree stand in for each other's second pass,
    # and the budgeted run is the only one; a single trial runs both full
    # passes only.  The identity has one basin, so a budgeted target stops
    # after its second chunk
    runs, one_pass = _spy_runs(monkeypatch), []
    init = dg._Pass.__init__
    monkeypatch.setattr(dg._Pass, "__init__", lambda self, *args: one_pass.append(
        1) or init(self, *args))
    sizes = _spy_starts(monkeypatch)
    cfg = dg.EngineConfig(trials=trials)
    rep = dg.mapping_degree(dg.identity_map(), seed=1, config=cfg)
    assert rep.degree == 1 and len(rep.trials) == trials
    assert all(t.resamples == 0 for t in rep.trials)
    assert runs == [trials == 1]
    assert len(one_pass) == passes
    per_target = 2 * dg.START_CHUNK if trials > 1 else 2 * cfg.n_starts
    assert sum(sizes) == trials * per_target


@pytest.mark.parametrize("name", ["identity", "cylinder-loop"])
def test_start_chunks_are_the_whole_lattice(name, rng):
    # a pass draws only its jitter, and the rows a chunk builds are those of
    # the whole lattice, bit for bit; a discarded pass leaves the rng where
    # building all its starts did
    fam, n = dg.named_map(name), 2000
    state = rng.bit_generator.state
    want = references.start_points(fam, n, rng)
    after = rng.bit_generator.state
    rng.bit_generator.state = state
    shifts = dg._draw_shifts(fam.lead, rng)
    assert rng.bit_generator.state == after
    for lo in range(0, n, 300):
        got = dg._start_rows(fam.lead, shifts, lo, min(lo + 300, n))
        assert np.array_equal(got, want[lo:lo + 300])


def test_one_pass_draws_the_second_pass_starts(rng):
    # with one pass the second pass's starts are still drawn: the rng
    # stream, and so every later target, is the same
    state = rng.bit_generator.state
    target, fam = _unit(rng), dg.identity_map()
    two = references.count_at(fam, target, STUB, rng, 0)
    after = rng.bit_generator.state
    rng.bit_generator.state = state
    _unit(rng)
    one = references.count_at(fam, target, STUB, rng, 0, two_pass=False)
    assert rng.bit_generator.state == after
    assert one == two


@pytest.mark.parametrize("name", ["identity", "power:3", "power:6",
                                  "cylinder-loop", "theta-circle"])
def test_chunked_pass_reports_as_the_two_pass_count(name, rng):
    # at 1000 starts, four chunks, a one-pass target draws every start and
    # finds what both passes of every start find, wherever it stops
    cfg = dg.EngineConfig(n_starts=1000)
    fam = dg.named_map(name)
    state = rng.bit_generator.state
    target = dg._sample_target(fam, rng)
    two = references.count_at(fam, target, cfg, rng, 0)
    after = rng.bit_generator.state
    rng.bit_generator.state = state
    dg._sample_target(fam, rng)
    one = references.count_at(fam, target, cfg, rng, 0, two_pass=False)
    assert rng.bit_generator.state == after
    assert one.target == two.target
    assert (one.degree, one.signs, one.n_converged, one.resamples) == (
        two.degree, two.signs, two.n_converged, two.resamples)
    # each preimage of one pass lies within 1e-9 of one of the other's
    both = np.array(one.preimages + two.preimages).reshape(-1, 8)
    assert len(dg._dedupe(both, 1e-9)) == one.n_converged


def _scripted_solve(monkeypatch, script):
    """`_Charted.solve` replaced by a script: in the pass's chunk i the
    north chart converges to each point of script[i] as many times as it
    names, the south chart to nothing.  Returns the number of starts of
    every chunk and the number of chunks of every call."""
    sizes, calls = [], []

    def solve(self, starts, group):
        pts, pts_group = [], []
        chunks = len(self.signs) // 2
        calls.append(chunks)
        for j in range(chunks):
            chunk = len(sizes)
            sizes.append(int(np.count_nonzero(group // 2 == j)))
            hits = [] if chunk >= len(script) else [
                np.eye(8)[i] for i, n in script[chunk] for _ in range(n)]
            pts += hits
            pts_group += [2 * j] * len(hits)
        return (np.array(pts).reshape(-1, 8), np.array(pts_group, dtype=int),
                np.ones(2 * chunks))

    monkeypatch.setattr(dg._Charted, "solve", solve)
    return sizes, calls


def _run_pass(fam, target, cfg, rng, chunk):
    """One pass at the target, run alone round after round."""
    p = dg._Pass(fam, dg._target_frame(target), cfg, chunk, rng)
    while not p.done:
        dg._round(fam, [p])
    return p.reps, p.floor


HITS = dg.BASIN_MIN_HITS


@pytest.mark.parametrize("script, chunks, found", [
    # one basin, well hit: stop after the second chunk
    ([[(0, HITS)], [(0, HITS)]], 2, 1),
    # the second chunk finds a new preimage, so a third runs
    ([[(0, HITS)], [(0, HITS), (1, HITS)]], 3, 2),
    # the least-hit preimage has HITS - 1 starts after the second chunk, and
    # HITS after the third
    ([[(0, HITS), (1, HITS - 4)], [(0, 1), (1, 3)], [(1, 1)]], 3, 2),
    # a preimage that stays thin keeps the pass going to its last start
    ([[(0, HITS), (1, 1)]], 8, 2),
    # a new preimage in every chunk
    ([[(i, HITS)] for i in range(8)], 8, 8),
    # no preimage at all: nothing new after the second chunk
    ([], 2, 0),
], ids=["settled", "new-preimage", "thin-basin", "stays-thin", "always-new",
        "no-root"])
def test_chunked_pass_stops_when_nothing_new_and_every_basin_is_hit(
        script, chunks, found, monkeypatch, rng):
    sizes, calls = _scripted_solve(monkeypatch, script)
    cfg = dg.EngineConfig(n_starts=8 * dg.START_CHUNK)
    pre, floor = _run_pass(dg.identity_map(), _unit(rng), cfg, rng,
                           dg.START_CHUNK)
    # the first batch holds the first two chunks, every later batch one,
    # both charts in each
    assert len(sizes) == chunks and calls == [2] + [1] * (chunks - 2)
    assert sizes == [dg.START_CHUNK] * chunks
    assert len(pre) == found and floor == 1.0
    # one chunk of every start runs it all, whatever it finds
    sizes.clear()
    calls.clear()
    _run_pass(dg.identity_map(), _unit(rng), cfg, rng, cfg.n_starts)
    assert sizes == [cfg.n_starts] and calls == [1]


@pytest.mark.parametrize("seed", [89621819, 3945867851, 3279258834],
                         ids=["bench-seed-34", "bench-seed-45",
                              "bench-seed-215"])
def test_power6_trials_that_disagree_escalate_to_two_passes(seed, monkeypatch):
    # the power:6 requests of the degree-engine bench at seeds 34, 45 and
    # 215: in one trial the budgeted pass finds fewer than 6 preimages, so
    # the trials disagree; at two passes of every start some target's
    # passes disagree and resample, and the rerun reports the two-pass
    # result
    runs = _spy_runs(monkeypatch)
    rep = dg.mapping_degree(dg.power_map(6), seed=seed)
    assert runs == [False, True]
    assert rep.degree == 6
    assert all(t.n_converged == 6 for t in rep.trials)
    assert sum(t.resamples for t in rep.trials) >= 1
    two_pass = dg._trials(dg.power_map(6), dg.EngineConfig(),
                          rng_from_seed(seed), True)
    assert rep.trials == two_pass


@pytest.mark.parametrize("cfg", [
    dg.EngineConfig(n_starts=0, trials=1), dg.EngineConfig(trials=0),
    dg.EngineConfig(n_starts=-5), dg.EngineConfig(trials=-1),
], ids=["no-starts", "no-trials", "negative-starts", "negative-trials"])
def test_empty_engine_configs_are_rejected(cfg):
    with pytest.raises(BadConfig, match="n_starts >= 1 and trials >= 1"):
        dg.mapping_degree(dg.power_map(3), config=cfg)


def _power6_says_6_or_raises(seed):
    try:
        rep = dg.mapping_degree(dg.power_map(6), seed=seed)
    except ConflictingEstimates:
        return
    assert rep.degree == 6


def test_power6_at_a_seed_that_misses_a_preimage_reports_no_wrong_degree():
    # the power:6 request of the degree-engine bench at seed 3: in one
    # trial neither pass finds the preimage 6.8 degrees from +1, so the
    # trials read [5, 6]; the engine may say 6 or raise, never another degree
    _power6_says_6_or_raises(1501415362)


def test_power6_at_bench_seed_99_reports_no_wrong_degree():
    # the power:6 request of the degree-engine bench at seed 99, which the
    # full two-pass rerun fails too: the engine may say 6 or raise, never
    # another degree
    _power6_says_6_or_raises(581684171)


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


POWER_NAMES = ["squaring", "rp7-cube"] + ["power:%d" % k for k in range(1, 7)]


def test_degrees_suite_checks_every_power_map_against_the_oracle(monkeypatch):
    # each x -> x^k map reports the oracle's preimages with the first moved
    # off by 1e-3; the other maps report their degree and no trials
    target = np.array([0.3, 0.5, -0.1, 0.2, 0.4, -0.6, 0.1, 0.27])
    target /= np.linalg.norm(target)

    def moved(name, seed=0, config=None):
        want = dg.MAPS[name][1]
        if name not in POWER_NAMES:
            return dg.DegreeReport(name, want, [])
        pre = [list(p) for p in dg.power_map_preimages(Octonion(target), want)]
        pre[0][0] += 1e-3
        trial = dg.TrialReport(list(target), want, [1] * want, pre, 1.0, 0.0,
                               want, 0)
        return dg.DegreeReport(name, want, [trial])

    monkeypatch.setattr(dg, "named_degree", moved)
    rep = suites.run_suite("degrees", seed=1)
    assert rep.checked == len(dg.MAPS)
    assert [(f["kind"], f["map"]) for f in rep.failures] == [
        ("oracle-match", name) for name in dg.MAPS if name in POWER_NAMES]


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
