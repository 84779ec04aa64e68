"""Brouwer degree of smooth maps between seven-dimensional domains.

The engine counts signed preimages of a regular target value:

  * sample a target q on the seven-sphere,
  * run damped Newton from a low-discrepancy lattice of starts in
    stereographic charts (both the domain and the chart of the target are
    stereographic, the target chart centred at q); in a run whose
    Jacobians are rank-deficient (a map of lower-dimensional image), a start
    whose residual stays above NO_ROOT_FLOOR and stops improving leaves the
    batch (the plateau stop, PLATEAU_RTOL and PLATEAU_ITER),
  * deduplicate the converged preimages, discard the target if any preimage
    is near-critical or, in a two-pass run, two independent start batches
    disagree on the preimage set,
  * sum the signs of the Jacobian determinants between the oriented
    domain and target spheres, one batched 8x8 determinant (`_signed_dets`),
  * repeat for independent targets and require agreement.  With several
    targets the engine climbs three levels, each a run from the seed, and
    returns at the first whose trials all agree on the degree and the
    count: one budgeted batch per target, run START_CHUNK starts at a time
    and stopped after a chunk from the second on that finds no new
    preimage once every preimage has BASIN_MIN_HITS converged starts (n
    starts miss a basin of start-measure m with probability about
    exp(-m n)); one full batch per target; two full batches per target,
    whose trials must agree or the engine raises.  A single target has no
    witness and runs the two full batches only.

Domains are the cylinder [0, 2pi] x S^6 and the unit sphere in R^8, which
is the same thing with no interval coordinate: a domain point is `lead`
interval coordinates followed by a point of a sphere, and charts, frames
and Jacobians are written once over that split (maps from the cylinder
collapse its ends to +-1, so targets keep away from the real axis).
Everything is vectorized over Newton starts.  Every map is given by its
jet, its values and ambient Jacobians from one call; the power maps' jet is
in closed form, O(k) scalar recurrences in Re(x) and |Im(x)|^2 by Artin's
theorem, and the chart Jacobians are applied to the map's Jacobian as
rank-1 updates.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .errors import (BadConfig, ConflictingEstimates, NonConvergence,
                     NonGenericValue, NotOdd, OutOfRange, UnstablePreimageCount)
# batch_mul has no caller here: it stays bound as degree.batch_mul, which
# bench/test_smoke.py reads
from .octonion import (CHECK_TOL, FLOAT_EQ_TOL, SEPARATION_TOL, ZERO_NORM_SQ,
                       Octonion, batch_mul)
from .sampling import rng_from_seed

# ---------------------------------------------------------------------------
# map families
# ---------------------------------------------------------------------------

@dataclass
class MapFamily:
    """A smooth map into the seven-sphere, given by its jet.

    `jet` maps a batch of domain points (N, 8) to the values (N, 8) and the
    ambient 8x8 Jacobians (N, 8, 8), from one shared computation.  For the
    sphere domain a point is a point of S^7; for the cylinder domain the 8
    coordinates are (theta, p) with p a unit vector in R^7, and the Jacobian
    differentiates with respect to (theta, p) in ambient R^1+7 coordinates.
    """

    name: str
    jet: Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]]
    domain: str = "s7"            # "s7" | "cylinder"

    def func(self, x: np.ndarray) -> np.ndarray:
        """The values f(x), the first half of the jet."""
        return self.jet(x)[0]

    def dfunc(self, x: np.ndarray) -> np.ndarray:
        """The ambient Jacobians Df(x), the second half of the jet."""
        return self.jet(x)[1]

    @property
    def lead(self) -> int:
        """Interval coordinates before the sphere part of a domain point: 1
        (theta) on the cylinder, 0 on the seven-sphere."""
        return 1 if self.domain == "cylinder" else 0


def identity_map() -> MapFamily:
    eye = np.eye(8)
    return MapFamily("identity", lambda x: (
        x.copy(), np.broadcast_to(eye, (len(x), 8, 8)).copy()))


def conjugation_map() -> MapFamily:
    c = np.diag([1.0] + [-1.0] * 7)
    return MapFamily("conjugation", lambda x: (
        x @ c.T, np.broadcast_to(c, (len(x), 8, 8)).copy()))


def power_map(k: int) -> MapFamily:
    if k < 1:
        raise OutOfRange("power maps need k >= 1")

    def jet(x):
        # x and h generate an associative subalgebra (Artin's theorem), so
        # D(x^k) h = sum_j x^j h x^(k-1-j).  With x = x0 + v, t^2 = |v|^2
        # and e0 the real unit this sums to
        #   x^k = p_k + q_k v,
        #   Df = q_k I + v (e_k v + b_k e0)^T + e0 (t^2 e_k e0 - b_k v)^T,
        # where p_0 = 1, q_0 = 0, p_{j+1} = x0 p_j - t^2 q_j,
        # q_{j+1} = p_j + x0 q_j, e_1 = 0, e_j = x0 e_{j-1} - (j-1) q_{j-2}
        # and b_k = k q_{k-1}: no division, so exact on the real axis too
        n = len(x)
        x0 = x[:, 0]
        v = x.copy()
        v[:, 0] = 0.0
        t2 = np.einsum("ni,ni->n", v, v)
        p, q, e = np.ones(n), np.zeros(n), np.zeros(n)
        for j in range(1, k):
            e = x0 * e - j * q
            p, q = x0 * p - t2 * q, p + x0 * q
        b = k * q
        p, q = x0 * p - t2 * q, p + x0 * q
        y = q[:, None] * v
        y[:, 0] = p
        c = e[:, None] * v
        c[:, 0] = b
        d = np.einsum("ni,nj->nij", v, c)  # row 0 is zero: v[:, 0] = 0
        d[:, 0, 0] = t2 * e
        d[:, 0, 1:] = -b[:, None] * v[:, 1:]
        d.reshape(n, 64)[:, ::9] += q[:, None]
        return y, d

    return MapFamily("power:%d" % k, jet)


def squaring_map() -> MapFamily:
    m = power_map(2)
    m.name = "squaring"
    return m


def theta_circle_map() -> MapFamily:
    """x -> Re(x) + e1 |Im(x)|: collapses the sphere onto the unit circle
    through 1 and e1 (the image is one-dimensional, so the degree is 0)."""

    def jet(x):
        n = len(x)
        y = np.zeros_like(x)
        y[:, 0] = x[:, 0]
        y[:, 1] = np.sqrt(np.maximum(1.0 - x[:, 0] ** 2, 0.0))
        # |Im x|^2 = 1 - x0^2 is floored at 0 in the value, and at
        # ZERO_NORM_SQ in the Jacobian, which divides by |Im x|
        d = np.zeros((n, 8, 8))
        s = np.sqrt(np.maximum(1.0 - x[:, 0] ** 2, ZERO_NORM_SQ))
        d[:, 0, 0] = 1.0
        d[:, 1, 0] = -x[:, 0] / s
        return y, d

    return MapFamily("theta-circle", jet)


def cube_map() -> MapFamily:
    """The odd self-map x -> x^3 realising the conjugation action on the
    canonical structure (see the twistor module); its projective quotient is
    the three-to-one self-map of projective seven-space."""
    m = power_map(3)
    m.name = "rp7-cube"
    return m


def cylinder_loop_map(half_angle: bool = False) -> MapFamily:
    """(theta, p) -> cos(c theta) + p sin(c theta), c = 1/2 or 1; both ends
    of the cylinder land in {+-1}."""
    c = 0.5 if half_angle else 1.0

    def jet(x):
        n = len(x)
        th = c * x[:, 0]
        cos, sin = np.cos(th), np.sin(th)
        y = np.empty_like(x)
        y[:, 0] = cos
        y[:, 1:] = sin[:, None] * x[:, 1:]
        d = np.zeros((n, 8, 8))
        d[:, 0, 0] = -c * sin
        d[:, 1:, 0] = c * cos[:, None] * x[:, 1:]
        for j in range(1, 8):
            d[:, j, j] = sin
        return y, d

    return MapFamily("cylinder-q" if half_angle else "cylinder-loop", jet,
                     domain="cylinder")


# ---------------------------------------------------------------------------
# charts and frames
# ---------------------------------------------------------------------------

def _orthonormal_complement(n: np.ndarray) -> np.ndarray:
    """Deterministic orthonormal basis (columns) of the hyperplane normal to
    the unit vector n."""
    dim = len(n)
    drop = int(np.argmax(np.abs(n)))
    cols = []
    for k in range(dim):
        if k == drop:
            continue
        v = np.zeros(dim)
        v[k] = 1.0
        v = v - (v @ n) * n
        for c in cols:
            v = v - (v @ c) * c
        v /= np.linalg.norm(v)
        cols.append(v)
    return np.stack(cols, axis=1)


def _stereo_inv(s: np.ndarray, pole: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Inverse stereographic projection from the pole: chart coords (N, d-1)
    to unit vectors (N, d); s = 0 maps to -pole."""
    amb = s @ basis.T
    q = np.sum(s * s, axis=1, keepdims=True)
    return (2.0 * amb + (q - 1.0) * pole) / (q + 1.0)


def _stereo_proj(x: np.ndarray, pole: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Stereographic chart from the pole: (N, d) near-unit vectors to (N, d-1);
    -pole maps to 0."""
    t = x @ pole
    return ((x - np.outer(t, pole)) / (1.0 - t)[:, None]) @ basis


# ---------------------------------------------------------------------------
# the engine
# ---------------------------------------------------------------------------

@dataclass
class TrialReport:
    target: list
    degree: int
    signs: List[int]
    preimages: List[list]
    min_abs_det: float
    max_residual: float
    n_converged: int
    resamples: int

    def to_dict(self):
        return asdict(self)


@dataclass
class DegreeReport:
    name: str
    degree: int
    trials: List[TrialReport]

    def to_dict(self):
        return {
            "map": self.name,
            "degree": self.degree,
            # every map's Jacobian is its jet's, never a difference quotient
            "exact_differential": True,
            "trials": [t.to_dict() for t in self.trials],
        }


@dataclass
class EngineConfig:
    n_starts: int = 2000      # Newton starts drawn per pass, and the most a
                              # pass runs (a budgeted pass runs them
                              # START_CHUNK at a time and may stop early;
                              # see mapping_degree)
    trials: int = 3           # independent targets that must agree


#: Newton iterations per start
NEWTON_MAX_ITER = 60
#: chart residual below which a start has converged
NEWTON_TOL = 1e-10
#: |det| below which a preimage counts as near-critical
CRITICAL_DET = 1e-8
#: failed targets a trial may resample before it raises
MAX_RESAMPLE = 5
#: a residual below this with no converged start is not trusted as "no root"
NO_ROOT_FLOOR = 1e-4
#: in a run with rank-deficient Jacobians, a row above NO_ROOT_FLOOR leaves
#: once its residual has not fallen below (1 - PLATEAU_RTOL) times its best
#: for PLATEAU_ITER consecutive iterations
PLATEAU_RTOL = 1e-12
PLATEAU_ITER = 5
#: damping of the least-squares Newton step, relative to |J|_F^2
LSQ_DAMPING = 1e-9
#: random points on which `degree_on_rp7` checks that a map is odd
ODDNESS_SAMPLES = 64
#: theta distance from the cylinder's ends inside which a preimage is
#: dropped as a boundary point
THETA_MARGIN = 1e-6
#: starts per chunk of a budgeted one-pass target (level 1 of
#: `mapping_degree`), which may stop after any chunk from the second on
START_CHUNK = 250
#: converged starts that every preimage needs before a one-pass target stops
BASIN_MIN_HITS = 8


_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)


def _lattice01(n: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    """Kronecker low-discrepancy lattice in [0, 1)^dim with seeded jitter."""
    alphas = np.sqrt(np.array(_PRIMES[:dim], dtype=float))
    k = np.arange(1, n + 1)[:, None]
    return np.modf(k * alphas[None, :] + rng.uniform(0.0, 1.0, size=dim))[0]


def _sphere_lattice(n: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    """Quasi-uniform points on the unit sphere of R^dim: a low-discrepancy
    lattice pushed through Box-Muller and normalized.

    A box lattice in stereographic chart coordinates would concentrate in a
    polar cap in high dimension (the box measure lives at |s| of a few, which
    the chart squeezes toward the pole), so Newton starts are generated on
    the sphere itself and only then expressed in chart coordinates.
    """
    npairs = (dim + 1) // 2
    u = _lattice01(n, 2 * npairs, rng)
    r = np.sqrt(-2.0 * np.log(np.maximum(u[:, :npairs], 1e-12)))
    ang = 2.0 * np.pi * u[:, npairs:]
    z = np.concatenate([r * np.cos(ang), r * np.sin(ang)], axis=1)[:, :dim]
    return z / np.linalg.norm(z, axis=1, keepdims=True)


@dataclass
class _NewtonRun:
    """What one `_Charted.solve` run has learnt: whether a batch of it was
    singular."""
    singular: bool = False


def _newton_step(jac: np.ndarray, g: np.ndarray,
                 run: Optional[_NewtonRun] = None) -> np.ndarray:
    """Newton steps solving jac @ step = g for a batch (N, 7, 7), (N, 7).

    When a Jacobian somewhere in the batch is singular (e.g. a map with
    lower-dimensional image), the whole batch takes the damped least-squares
    (Levenberg-Marquardt) step (J^T J + mu I) step = J^T g with
    mu = LSQ_DAMPING |J|_F^2 per row.  It is the minimum-norm least-squares
    step up to a relative mu / sigma^2 along each singular direction sigma,
    plus rounding noise of about 2e-7 |g| / |J| along the null directions,
    and it is zero for a zero Jacobian.  Given the run the batch belongs
    to, the first singular batch marks it, and its later batches take the
    damped step without trying the plain solve first: the singular batches
    come from maps of lower-dimensional image, singular at every iterate."""
    if run is None or not run.singular:
        try:
            return np.linalg.solve(jac, g[..., None])[..., 0]
        except np.linalg.LinAlgError:
            if run is not None:
                run.singular = True
    jt = jac.swapaxes(-1, -2)
    jtj = jt @ jac
    mu = (LSQ_DAMPING * np.trace(jtj, axis1=-2, axis2=-1)
          + np.finfo(float).tiny)
    damped = jtj + mu[:, None, None] * np.eye(jac.shape[-1])
    return np.linalg.solve(damped, jt @ g[..., None])[..., 0]


class _Charted:
    """The charted root problem g(s) = Phi_q(f(sigma(s))) for one domain
    chart and one target.  Chart coordinates are the `lead` interval
    coordinates followed by stereographic coordinates of the sphere part."""

    def __init__(self, family: MapFamily, target: np.ndarray,
                 dom_pole: np.ndarray):
        self.family = family
        self.lead = family.lead
        self.target_pole = -target / np.linalg.norm(target)
        self.target_basis = _orthonormal_complement(self.target_pole)
        self.dom_pole = dom_pole
        self.dom_basis = _orthonormal_complement(dom_pole)
        # [T | m] and diag(I_lead, B), the constant factors of jac
        self.target_frame = np.column_stack([self.target_basis,
                                             self.target_pole])
        self.dom_frame = np.zeros((8, 7))
        self.dom_frame[:self.lead, :self.lead] = np.eye(self.lead)
        self.dom_frame[self.lead:, self.lead:] = self.dom_basis

    def evaluate(self, s: np.ndarray
                 ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(x, g, jac) at chart points s: the domain points, the charted map
        and its (N, 7, 7) Jacobian, from one inverse chart and one call of
        the map's jet.

        jac = dphi Df diag(I_lead, dsigma), and neither chart Jacobian is
        built: with B, p the domain basis and pole, T, m the target basis
        and pole (T^T m = 0), s' the sphere part of s and x' its point on
        the sphere, both are rank-1 updates,
            dsigma = 2 (B + (p - x') s'^T) / (1 + |s'|^2),
            dphi = (T^T + g m^T) / (1 - y.m).
        So E = Df diag(I_lead, B) + (Df_s (p - x')) s'^T on the sphere
        columns (one GEMM and one outer product), jac = T^T E + g (m^T E),
        and both scalar factors are applied to the columns of jac last."""
        lead, n = self.lead, len(s)
        s_sph = s[:, lead:]
        sphere = _stereo_inv(s_sph, self.dom_pole, self.dom_basis)
        x = np.column_stack([s[:, :lead], sphere])
        y, df = self.family.jet(x)
        g = _stereo_proj(y, self.target_pole, self.target_basis)
        e = (df.reshape(8 * n, 8) @ self.dom_frame).reshape(n, 8, 7)
        e[:, :, lead:] += np.einsum("ni,nj->nij", np.einsum(
            "nij,nj->ni", df[:, :, lead:], self.dom_pole - sphere), s_sph)
        te = self.target_frame.T @ e  # rows: T^T E, then m^T E
        jac = te[:, :7] + np.einsum("ni,nj->nij", g, te[:, 7])
        scale = np.empty((n, 7))
        scale[:] = (1.0 / (1.0 - y @ self.target_pole))[:, None]
        scale[:, lead:] *= 2.0 / (1.0 + np.sum(s_sph * s_sph, axis=1,
                                               keepdims=True))
        jac *= scale[:, None, :]
        return x, g, jac

    def solve(self, starts: np.ndarray) -> Tuple[np.ndarray, float]:
        """Newton from each start; returns (converged domain points, minimum
        residual ever seen).  The batch `s` shrinks to the rows still
        running: converged rows leave it, and so, in a run with
        rank-deficient Jacobians, do rows above NO_ROOT_FLOOR whose residual
        has stopped improving (PLATEAU_RTOL, PLATEAU_ITER); their residuals
        have already counted toward the minimum."""
        s = starts
        best_res = np.inf
        done = [np.empty((0, 8))]
        run = _NewtonRun()
        best = stale = None
        for _ in range(NEWTON_MAX_ITER):
            if not len(s):
                break
            # the whole batch's `jac` stays bound until the next iteration:
            # freeing it early lets malloc trim the heap and the next batch
            # fault it back in
            x, g, jac = self.evaluate(s)
            res = np.linalg.norm(g, axis=1)
            best_res = min(best_res, float(res.min()))
            # rows drop only after the whole batch is evaluated: a row's
            # Jacobian bits depend on the rows that share its batch
            conv = res < NEWTON_TOL
            done.append(x[conv])
            keep = ~conv
            if run.singular:
                # a map of lower-dimensional image need not reach its target:
                # rows stall at a minimum of |g| or hop across a cone tip of
                # the image (theta-circle's ends) at a residual that no
                # longer falls
                if best is None:
                    best, stale = np.full(len(s), np.inf), np.zeros(len(s), int)
                better = res < (1.0 - PLATEAU_RTOL) * best
                best = np.minimum(best, res)
                stale = np.where(better, 0, stale + 1)
                keep &= ~((stale >= PLATEAU_ITER) & (res > NO_ROOT_FLOOR))
                best, stale = best[keep], stale[keep]
            # when no row leaves, the full slice passes views, not copies
            rows = slice(None) if keep.all() else keep
            # a batch with a singular Jacobian (a map of lower-dimensional
            # image) takes the damped least-squares step throughout, and so
            # do the run's later batches
            step = _newton_step(jac[rows], g[rows], run)
            norms = np.linalg.norm(step, axis=1, keepdims=True)
            s = s[rows] - step * np.minimum(1.0, 2.0 / np.maximum(norms, 1e-300))
        return np.vstack(done), best_res


def _dedupe(points: np.ndarray, tol: float) -> np.ndarray:
    """The points, in order, that lie within tol (max-abs distance) of no
    earlier kept point: keep the first survivor, drop all survivors within
    tol of it, repeat.  A row with a NaN is never within tol of anything."""
    kept = []
    rest = np.arange(len(points))
    while len(rest):
        first, rest = rest[0], rest[1:]
        kept.append(first)
        d = np.max(np.abs(points[rest] - points[first]), axis=1)
        rest = rest[~(d < tol)]
    return points[np.array(kept, dtype=np.intp)]


def _signed_dets(family: MapFamily, x: np.ndarray,
                 u: np.ndarray) -> np.ndarray:
    """Signed Jacobian determinants J_f at the domain points x with unit
    images u = f(x) / |f(x)|: det Df between oriented tangent frames of the
    domain and of the seven-sphere, for all points at once.

    With n the unit normal of the domain (the sphere part of x after `lead`
    zeros), B = Df (I - n n^T) + u n^T maps [n | F] to [u | Df F] for every
    tangent frame F, and an oriented frame of the domain has
    det[n | F] = (-1)^lead, so J_f = (-1)^lead det B."""
    lead = family.lead
    n = np.zeros_like(x)
    n[:, lead:] = x[:, lead:]
    df = family.dfunc(x)
    b = df - (df @ n[:, :, None]) * n[:, None, :] + u[:, :, None] * n[:, None, :]
    return (-1) ** lead * np.linalg.det(b)


def _sample_target(family: MapFamily, rng: np.random.Generator) -> np.ndarray:
    while True:
        q = rng.standard_normal(8)
        q /= np.linalg.norm(q)
        if family.lead and abs(q[0]) > 0.98:
            continue  # keep away from the collapsed boundary points +-1
        return q


def _start_points(family: MapFamily, cfg: EngineConfig,
                  rng: np.random.Generator) -> np.ndarray:
    """Quasi-uniform start points on the domain (ambient coordinates)."""
    p = _sphere_lattice(cfg.n_starts, 8 - family.lead, rng)
    if not family.lead:
        return p
    # theta is drawn after the sphere part: the seeded draw order
    thetas = 0.05 + (2.0 * np.pi - 0.1) * _lattice01(len(p), 1, rng)[:, 0]
    return np.column_stack([thetas, p])


def _basin_hits(reps: np.ndarray, points: np.ndarray) -> np.ndarray:
    """How many of the points lie within SEPARATION_TOL (max-abs distance)
    of each representative: the converged starts in each basin."""
    d = np.max(np.abs(points[:, None, :] - reps[None, :, :]), axis=2)
    return np.count_nonzero(d < SEPARATION_TOL, axis=0)


def _one_pass(family: MapFamily, target: np.ndarray, cfg: EngineConfig,
              rng: np.random.Generator, chunk: int) -> Tuple[np.ndarray, float]:
    """The deduplicated preimages one batch of `n_starts` starts finds, and
    the least residual seen.  All the starts are drawn; they run in draw
    order, `chunk` at a time, each chunk through both hemisphere charts, and
    each chunk's converged points join the representatives by the greedy
    first-survivor `_dedupe`.  The pass stops after a second or later chunk
    that found no new preimage when every preimage has BASIN_MIN_HITS
    converged starts; with chunk = n_starts it runs every start."""
    lead = family.lead
    pts_amb = _start_points(family, cfg, rng)
    north = np.eye(8 - lead)[0]
    charts = [_Charted(family, target, pole) for pole in (north, -north)]
    reps = seen = np.empty((0, 8))
    floor = np.inf
    for lo in range(0, len(pts_amb), chunk):
        part = pts_amb[lo:lo + chunk]
        sphere_part = part[:, lead:]
        found = []
        for charted in charts:
            # each start runs in the chart of its own hemisphere, where its
            # coordinates have norm at most one
            mask = sphere_part @ charted.dom_pole <= 0.0
            s = _stereo_proj(sphere_part[mask], charted.dom_pole,
                             charted.dom_basis)
            pts, best = charted.solve(np.column_stack([part[mask, :lead], s]))
            floor = min(floor, best)
            found.append(pts)
        new = np.vstack(found)
        if lead:
            # Newton treats theta as unconstrained; only solutions genuinely
            # inside the cylinder count (maps need not be 2pi-periodic in
            # theta, so no wrapping)
            th = new[:, 0]
            new = new[(th > THETA_MARGIN) & (th < 2.0 * np.pi - THETA_MARGIN)]
        seen = np.vstack([seen, new])
        known = len(reps)
        # `reps` is deduplicated, so all of it survives in front of `new`
        reps = _dedupe(np.vstack([reps, new]), SEPARATION_TOL)
        if lo and len(reps) == known and np.all(
                _basin_hits(reps, seen) >= BASIN_MIN_HITS):
            break
    return reps, floor


def _count_at(family: MapFamily, target: np.ndarray, cfg: EngineConfig,
              rng: np.random.Generator, resamples: int,
              chunk: Optional[int] = None,
              restart: bool = True) -> TrialReport:
    """Signed preimages of one target.  Each pass draws `n_starts` starts
    and runs them `chunk` at a time (all at once by default); with fewer
    than all, it may stop early (`_one_pass`).  With `restart` a second
    pass of fresh starts must find the same preimage set; without it the
    second pass's starts are drawn and discarded, so the rng stream, and
    every later target, is the same either way.  Raises the error that
    names why the target must be resampled: a count mismatch between the
    two passes, an empty set whose residuals still reach NO_ROOT_FLOOR, a
    restart mismatch, or a near-critical preimage."""
    chunk = cfg.n_starts if chunk is None else chunk
    pre, floor = _one_pass(family, target, cfg, rng, chunk)
    if restart:
        pre2, floor2 = _one_pass(family, target, cfg, rng, chunk)
        if len(pre) != len(pre2):
            raise UnstablePreimageCount(
                "%s: preimage counts %d vs %d at the same target"
                % (family.name, len(pre), len(pre2)))
        floor = min(floor, floor2)
        # `pre` is deduplicated, so all of it survives in front of `pre2`
        if len(_dedupe(np.vstack([pre, pre2]), SEPARATION_TOL)) != len(pre):
            raise UnstablePreimageCount(
                "%s: restarts found different preimage sets" % family.name)
    else:
        _start_points(family, cfg, rng)
    if len(pre) == 0:
        if floor < NO_ROOT_FLOOR:
            raise NonConvergence("%s: no converged starts but residuals reach %g"
                                 % (family.name, floor))
        return TrialReport(list(target), 0, [], [], float("inf"),
                           float(floor), 0, resamples)
    y = family.func(pre)
    u = y / np.linalg.norm(y, axis=1, keepdims=True)
    dets = _signed_dets(family, pre, u)
    min_abs_det = float(np.min(np.abs(dets)))
    if min_abs_det < CRITICAL_DET:
        raise UnstablePreimageCount(
            "%s: near-critical preimage persists" % family.name)
    signs = np.where(dets > 0, 1, -1).tolist()
    return TrialReport(list(target), sum(signs), signs,
                       [list(x) for x in pre], min_abs_det,
                       float(np.max(np.abs(u - target))), len(pre),
                       resamples)


def _trial(family: MapFamily, cfg: EngineConfig, rng: np.random.Generator,
           chunk: Optional[int] = None, restart: bool = True) -> TrialReport:
    resamples = 0
    while True:
        target = _sample_target(family, rng)
        try:
            return _count_at(family, target, cfg, rng, resamples, chunk,
                             restart)
        except (NonConvergence, UnstablePreimageCount):
            resamples += 1
            if resamples > MAX_RESAMPLE:
                raise


def _trials(family: MapFamily, cfg: EngineConfig, seed: int, chunk: int,
            restart: bool) -> List[TrialReport]:
    rng = rng_from_seed(seed)
    return [_trial(family, cfg, rng, chunk, restart)
            for _ in range(cfg.trials)]


def mapping_degree(family: MapFamily, seed: int = 0,
                   config: Optional[EngineConfig] = None) -> DegreeReport:
    """Degree of the map by signed preimage counting over several targets.

    With two or more trials the other trials stand in for a target's second
    pass, and the engine tries three levels, each a run from the seed, as
    (chunk, restart) of every target:
      1. one budgeted pass, (START_CHUNK, False);
      2. one full pass, (n_starts, False);
      3. two full passes, (n_starts, True).
    It returns at the first level whose trials all agree on the degree and
    the preimage count; a level whose trial fails goes on to the next.  The
    third level's report or error is the result when the others disagree.
    With n_starts <= START_CHUNK the first two levels are one run, and a
    single trial has no witness, so it runs the third level only."""
    cfg = config or EngineConfig()
    if cfg.n_starts < 1 or cfg.trials < 1:
        raise BadConfig("the degree engine needs n_starts >= 1 and trials >= 1"
                        " (got %d and %d)" % (cfg.n_starts, cfg.trials))
    # the chunks of levels 1 and 2, one run when n_starts <= START_CHUNK
    one_pass = sorted({min(START_CHUNK, cfg.n_starts), cfg.n_starts})
    for chunk in one_pass if cfg.trials > 1 else ():
        try:
            trials = _trials(family, cfg, seed, chunk, restart=False)
        except (NonConvergence, UnstablePreimageCount):
            continue
        if len({(t.degree, t.n_converged) for t in trials}) == 1:
            return DegreeReport(family.name, trials[0].degree, trials)
    trials = _trials(family, cfg, seed, cfg.n_starts, restart=True)
    degs = {t.degree for t in trials}
    if len(degs) != 1:
        raise ConflictingEstimates(
            "%s: trials disagree on the degree: %s"
            % (family.name, sorted(degs)))
    return DegreeReport(family.name, trials[0].degree, trials)


# ---------------------------------------------------------------------------
# analytic oracle for power maps, and the projective-space degree
# ---------------------------------------------------------------------------

def power_map_preimages(w: Octonion, k: int) -> List[np.ndarray]:
    """All solutions of y^k = w on the unit sphere, enumerated on the circle
    through 1 and the imaginary axis of w.

    Any y with y^k = w lies on that circle: powers of y stay in the plane
    spanned by 1 and the imaginary direction of y, and for non-real w this
    plane must match that of w.  On the circle, y = cos(a) + u sin(a) with
    k a congruent to the phase of w modulo 2 pi, giving exactly k solutions.
    """
    if k < 1:
        raise OutOfRange("k must be >= 1")
    wf = w.to_float_array()
    wf = wf / np.linalg.norm(wf)
    s = np.linalg.norm(wf[1:])
    if s < FLOAT_EQ_TOL:
        raise NonGenericValue("w is (numerically) real: preimages not isolated")
    axis = wf[1:] / s
    phi = math.atan2(s, wf[0])
    out = []
    for j in range(k):
        a = (phi + 2.0 * math.pi * j) / k
        out.append(np.concatenate(([math.cos(a)], math.sin(a) * axis)))
    return out


def degree_on_rp7(family: MapFamily, seed: int = 0,
                  config: Optional[EngineConfig] = None) -> DegreeReport:
    """Degree of the induced self-map of projective seven-space.

    The map must be odd (f(-x) = -f(x)); its projective degree equals the
    degree of the spherical lift, since the antipodal double cover preserves
    orientation and local degrees upstairs and downstairs coincide.
    """
    rng = rng_from_seed((seed ^ 0x9E3779B9) & 0xFFFFFFFF)
    x = rng.standard_normal((ODDNESS_SAMPLES, 8))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    if np.max(np.abs(family.func(-x) + family.func(x))) > CHECK_TOL:
        raise NotOdd("%s does not commute with the antipodal map" % family.name)
    rep = mapping_degree(family, seed=seed, config=config)
    return DegreeReport("rp7(%s)" % family.name, rep.degree, rep.trials)


# ---------------------------------------------------------------------------
# the map inventory
# ---------------------------------------------------------------------------

#: name -> (builder, expected degree) of every map the `degrees` suite checks
#: and `sixsphere degree --map` names; `rp7-cube` is taken on projective
#: seven-space, where its degree is that of its spherical lift x -> x^3
MAPS: Dict[str, Tuple[Callable[[], MapFamily], int]] = {
    "identity": (identity_map, 1),
    "squaring": (squaring_map, 2),
    "conjugation": (conjugation_map, -1),
    "theta-circle": (theta_circle_map, 0),
    "cylinder-q": (partial(cylinder_loop_map, half_angle=True), 1),
    "cylinder-loop": (cylinder_loop_map, 2),
    **{"power:%d" % k: (partial(power_map, k), k) for k in range(1, 7)},
    "rp7-cube": (cube_map, 3),
}


def named_map(name: str) -> MapFamily:
    """The map called `name` in MAPS, or `power:k` for any integer k >= 1."""
    if name in MAPS:
        return MAPS[name][0]()
    k = name[len("power:"):] if name.startswith("power:") else ""
    if k.isdecimal() and int(k) >= 1:
        return power_map(int(k))
    raise BadConfig("unknown map %r (known: %s, power:k with k >= 1)"
                    % (name, ", ".join(MAPS)))


def named_degree(name: str, seed: int = 0,
                 config: Optional[EngineConfig] = None) -> DegreeReport:
    """The degree report of the named map: on projective seven-space for
    `rp7-cube`, on the map's own domain otherwise."""
    family = named_map(name)
    if name == "rp7-cube":
        return degree_on_rp7(family, seed=seed, config=config)
    return mapping_degree(family, seed=seed, config=config)
