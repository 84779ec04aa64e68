"""The mapping-degree engine: charts, frames, Newton bookkeeping, reference
degrees, the analytic preimage oracle, and engine properties.  The complete
map inventory at full sample counts runs in the acceptance suite."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from sixsphere import degree as dg
from sixsphere.errors import NonGenericValue, NotOdd
from sixsphere.octonion import (Octonion, batch_mul, left_mult_matrix,
                                right_mult_matrix)

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


def _power2_by_differences():
    fam = dg.power_map(2)
    fam.dfunc = fam.jet = None
    return fam


_DIFFERENTIAL_MAPS = pytest.mark.parametrize("make", [
    lambda: dg.power_map(3), dg.conjugation_map, dg.cylinder_loop_map,
    lambda: dg.cylinder_loop_map(half_angle=True), _power2_by_differences,
], ids=["power:3", "conjugation", "cylinder-loop", "cylinder-q",
        "power:2-no-dfunc"])


@_DIFFERENTIAL_MAPS
def test_charted_jacobian_matches_finite_differences(make, rng):
    # jac of `evaluate` against central differences of g in chart coordinates
    fam = make()
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


#: how far the closed-form power jet may sit from the `batch_mul` chain of
#: `func` and from the product rule: about 20x the largest gap seen (6.2e-15
#: for k = 1..7)
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
    assert np.max(np.abs(y - fam.func(x))) <= POWER_JET_TOL
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


@_DIFFERENTIAL_MAPS
def test_signed_dets_match_oriented_frames(make, rng):
    # det Df between oriented frames of the domain ([d/dtheta | frame of the
    # sphere part] on the cylinder) and of the seven-sphere at f(x)
    fam = make()
    lead = fam.lead
    x = rng.standard_normal((20, 8))
    x[:, lead:] /= np.linalg.norm(x[:, lead:], axis=1, keepdims=True)
    if lead:
        x[:, 0] = rng.uniform(0.1, 2.0 * np.pi - 0.1, size=len(x))
    y = fam.func(x)
    u = y / np.linalg.norm(y, axis=1, keepdims=True)
    got = dg._signed_dets(fam, x, u)
    df = dg._jacobian(fam, x)
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


def test_degree_power4_with_finite_differences():
    # drop the exact differential: exercises the chart-level fallback
    fam = dg.power_map(4)
    fam.dfunc = fam.jet = None
    assert not fam.exact_differential
    assert dg.mapping_degree(fam, seed=3, config=FAST).degree == 4


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
    calls = {}

    def counted(key, fn):
        calls[key] = 0

        def wrapper(*args):
            calls[key] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(dg, "_stereo_inv", counted("stereo_inv", dg._stereo_inv))
    monkeypatch.setattr(dg, "_newton_step",
                        counted("iterations", dg._newton_step))
    target = rng.standard_normal(8)
    pole = np.zeros(8); pole[0] = 1.0

    fam = dg.theta_circle_map()
    fam.func = counted("func", fam.func)
    fam.dfunc = counted("dfunc", fam.dfunc)
    charted = dg._Charted(fam, target / np.linalg.norm(target), pole)
    pts, _ = charted.solve(0.5 * rng.standard_normal((50, 7)))
    # theta-circle has no regular preimage: every start runs every iteration
    assert len(pts) == 0
    assert calls == dict.fromkeys(calls, dg.NEWTON_MAX_ITER)

    # a power map is evaluated through its jet alone
    fam = dg.power_map(3)
    fam.jet = counted("jet", fam.jet)
    fam.func = counted("func", fam.func)
    fam.dfunc = counted("dfunc", fam.dfunc)
    calls["stereo_inv"] = calls["iterations"] = 0
    charted = dg._Charted(fam, target / np.linalg.norm(target), pole)
    pts, _ = charted.solve(0.5 * rng.standard_normal((50, 7)))
    assert len(pts) > 0
    assert calls["func"] == calls["dfunc"] == 0
    assert 0 < calls["jet"] == calls["stereo_inv"] == calls["iterations"]


def test_singular_run_tries_the_plain_solve_once(rng, monkeypatch):
    # theta-circle's Jacobians are singular at every iterate: its run's first
    # batch tries the plain solve and takes the damped one, and the later
    # batches go straight to the damped solve; a regular run solves once
    # per iteration
    solves = []
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve",
                        lambda *args: solves.append(1) or solve(*args))
    target = rng.standard_normal(8)
    target /= np.linalg.norm(target)
    pole = np.zeros(8); pole[0] = 1.0
    charted = dg._Charted(dg.theta_circle_map(), target, pole)
    pts, _ = charted.solve(0.5 * rng.standard_normal((50, 7)))
    assert len(pts) == 0
    assert len(solves) == dg.NEWTON_MAX_ITER + 1

    fam, jets = dg.power_map(3), []
    jet = fam.jet
    fam.jet = lambda x: jets.append(1) or jet(x)
    solves.clear()
    pts, _ = dg._Charted(fam, target, pole).solve(0.5 * rng.standard_normal((50, 7)))
    assert len(pts) > 0
    assert 0 < len(solves) == len(jets)


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


def test_degree_multiplicativity():
    comp = dg.compose_maps(dg.conjugation_map(), dg.squaring_map())
    assert dg.mapping_degree(comp, seed=8, config=FAST).degree == -2
    comp2 = dg.compose_maps(dg.power_map(2), dg.conjugation_map())
    assert dg.mapping_degree(comp2, seed=9, config=FAST).degree == -2


def test_report_shape():
    rep = dg.mapping_degree(dg.identity_map(), seed=1, config=FAST)
    d = rep.to_dict()
    assert d["map"] == "identity" and d["degree"] == 1
    assert len(d["trials"]) == FAST.trials
    t = d["trials"][0]
    assert set(t) >= {"target", "degree", "signs", "preimages", "min_abs_det",
                      "max_residual", "n_converged", "resamples"}
    assert t["signs"] == [1]
    assert rep.exact_differential


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
