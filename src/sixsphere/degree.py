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

A level runs in lockstep: each round is one Newton batch holding the next
chunk of every live pass of the level (every trial's target, and both
passes of a target in a two-pass run), each start in the domain chart of
its own hemisphere, so every row carries its group (pass, chunk, chart).
A budgeted pass cannot stop after its first chunk, so its first round
holds its first two chunks, each in groups of its own and absorbed in
order.  Both domain charts share the basis e1 .. e(d-1), so a row's domain
chart is its pole sign.  The arithmetic is row-local: products are
elementwise, einsum or stacked matmuls (no BLAS matrix-vector product over
rows, whose last bits depend on the batch size), rows are evaluated in
slices of at most ROW_CAP, and a group's singular flag and floor are its
own.  So every group gets, bit for bit, what its own batch would get run
alone, and a level returns what running its targets one after another
returns.

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


def _pole_chart(x: np.ndarray, sign) -> np.ndarray:
    """Stereographic chart of the unit sphere of R^d from the pole sign e0
    (sign = +-1, one per row or one for all): (N, d) unit vectors to (N, d-1)
    coordinates along e1 .. e(d-1), the orthonormal complement of either
    pole; -sign e0 maps to 0."""
    return x[:, 1:] / (1.0 - np.reshape(sign * x[:, 0], (-1, 1)))


def _pole_chart_inv(s: np.ndarray, sign) -> np.ndarray:
    """Inverse of `_pole_chart`: (N, d-1) chart coordinates to (N, d) unit
    vectors; s = 0 maps to -sign e0.  Row-local: every entry is elementwise
    in its own row."""
    q = np.sum(s * s, axis=1, keepdims=True)
    x = np.empty((len(s), s.shape[1] + 1))
    x[:, :1] = np.reshape(sign, (-1, 1)) * (q - 1.0) / (q + 1.0)
    x[:, 1:] = 2.0 * s / (q + 1.0)
    return x


def _target_frame(target: np.ndarray) -> np.ndarray:
    """[T | m] of the chart of the target q: its pole m = -q / |q| and an
    orthonormal basis T of the hyperplane normal to m, as columns."""
    pole = -target / np.linalg.norm(target)
    return np.column_stack([_orthonormal_complement(pole), pole])


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
#: rows per slice in which `_Charted.solve` evaluates and steps a batch:
#: fewer slices cost less fixed per-call time, and each slice's
#: intermediates (about 2.5 kB a row) stay small
ROW_CAP = 750
#: converged starts that every preimage needs before a one-pass target stops
BASIN_MIN_HITS = 8


_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)


def _lattice01(lo: int, hi: int, shift: np.ndarray) -> np.ndarray:
    """Rows lo .. hi-1 of a Kronecker low-discrepancy lattice in [0, 1)^dim
    with the seeded jitter `shift` (dim of them): every entry is elementwise
    in its own row, so any rows are those of the whole lattice, bit for
    bit."""
    alphas = np.sqrt(np.array(_PRIMES[:len(shift)], dtype=float))
    k = np.arange(lo + 1, hi + 1)[:, None]
    return np.modf(k * alphas[None, :] + shift)[0]


def _sphere_lattice(lo: int, hi: int, dim: int,
                    shift: np.ndarray) -> np.ndarray:
    """Rows lo .. hi-1 of quasi-uniform points on the unit sphere of R^dim:
    a low-discrepancy lattice pushed through Box-Muller and normalized.

    A box lattice in stereographic chart coordinates would concentrate in a
    polar cap in high dimension (the box measure lives at |s| of a few, which
    the chart squeezes toward the pole), so Newton starts are generated on
    the sphere itself and only then expressed in chart coordinates.
    """
    npairs = (dim + 1) // 2
    u = _lattice01(lo, hi, shift)
    r = np.sqrt(-2.0 * np.log(np.maximum(u[:, :npairs], 1e-12)))
    ang = 2.0 * np.pi * u[:, npairs:]
    z = np.concatenate([r * np.cos(ang), r * np.sin(ang)], axis=1)[:, :dim]
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def _draw_shifts(lead: int, rng: np.random.Generator) -> Tuple[np.ndarray, ...]:
    """The seeded jitter of one pass's starts: that of the sphere lattice,
    then, on the cylinder, that of the theta lattice (the draw order)."""
    pairs = (8 - lead + 1) // 2  # Box-Muller pairs of the sphere lattice
    shifts = (rng.uniform(0.0, 1.0, size=2 * pairs),)
    if lead:
        shifts += (rng.uniform(0.0, 1.0, size=1),)
    return shifts


def _start_rows(lead: int, shifts: Tuple[np.ndarray, ...], lo: int,
                hi: int) -> np.ndarray:
    """Starts lo .. hi-1 of a pass: quasi-uniform points of the domain, in
    ambient coordinates."""
    p = _sphere_lattice(lo, hi, 8 - lead, shifts[0])
    if not lead:
        return p
    thetas = 0.05 + (2.0 * np.pi - 0.1) * _lattice01(lo, hi, shifts[1])[:, 0]
    return np.column_stack([thetas, p])


def _damped_step(jac: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The damped least-squares (Levenberg-Marquardt) steps
    (J^T J + mu I) step = J^T g, mu = LSQ_DAMPING |J|_F^2 per row.  It is
    the minimum-norm least-squares step up to a relative mu / sigma^2 along
    each singular direction sigma, plus rounding noise of about
    2e-7 |g| / |J| along the null directions, and it is zero for a zero
    Jacobian."""
    jt = jac.swapaxes(-1, -2)
    jtj = jt @ jac
    mu = (LSQ_DAMPING * np.trace(jtj, axis1=-2, axis2=-1)
          + np.finfo(float).tiny)
    diag = np.arange(jac.shape[-1])
    jtj[:, diag, diag] += mu[:, None]
    return np.linalg.solve(jtj, jt @ g[..., None])[..., 0]


def _newton_steps(jac: np.ndarray, g: np.ndarray, group: np.ndarray,
                  singular: np.ndarray) -> np.ndarray:
    """Newton steps solving jac @ step = g for a batch (N, 7, 7), (N, 7)
    whose rows belong to groups (`group`, one id per row).

    A group whose rows hold a singular Jacobian (a map of lower-dimensional
    image) takes the damped step (`_damped_step`) on all its rows, and
    `singular[group]` marks it, so its later iterations take the damped step
    without trying the plain solve first: the singular groups come from
    maps of lower-dimensional image, singular at every iterate.  Every
    other row takes the plain solve.  Both are row-local, so a row's step is
    the one its group's own batch gives it."""
    while True:
        damped = singular[group]
        step = np.empty_like(g)
        if not damped.all():
            plain = slice(None) if not damped.any() else ~damped
            try:
                step[plain] = np.linalg.solve(jac[plain],
                                              g[plain][..., None])[..., 0]
            except np.linalg.LinAlgError:
                _mark_singular(jac, g, group, singular)
                continue
        if damped.any():
            step[damped] = _damped_step(jac[damped], g[damped])
        return step


def _mark_singular(jac: np.ndarray, g: np.ndarray, group: np.ndarray,
                   singular: np.ndarray) -> None:
    """Mark the groups whose plain solve fails: the only group not yet
    marked, or each such group whose own rows hold a singular matrix."""
    ids, bad = sorted(set(group[~singular[group]].tolist())), []
    for gid in ids if len(ids) > 1 else ():
        mine = group == gid
        try:
            np.linalg.solve(jac[mine], g[mine][..., None])
        except np.linalg.LinAlgError:
            bad.append(gid)
    singular[bad or ids] = True


class _Charted:
    """The charted root problems g(s) = Phi_q(f(sigma(s))) of a batch of
    groups: group i has the target chart whose [T | m] is frames[i] (see
    `_target_frame`) and the domain chart from the pole signs[i] e0 of the
    sphere part, and every row of a batch names its group.  Chart
    coordinates are the `lead` interval coordinates followed by
    stereographic coordinates of the sphere part.  Both domain charts have
    the basis e1 .. e(d-1), so a row's domain chart is its pole sign alone."""

    def __init__(self, family: MapFamily, frames: np.ndarray,
                 signs: np.ndarray):
        self.family = family
        self.lead = family.lead
        self.frames = frames
        self.signs = signs
        self._work = None

    def evaluate(self, s: np.ndarray, group: np.ndarray,
                 out: Optional[Tuple[np.ndarray, ...]] = None
                 ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(x, g, jac) at chart points s of the given groups: the domain
        points, the charted map and its (N, 7, 7) Jacobian, from one inverse
        chart and one call of the map's jet, written into `out` when given.
        Every product is row-local (elementwise, einsum or a stacked matmul;
        no BLAS matrix-vector product over rows), so a row's bits do not
        depend on the rows that share its batch.  The larger intermediates
        go to a workspace that every later call reuses.

        jac = dphi Df diag(I_lead, dsigma), and neither chart Jacobian is
        built: with p the domain pole, T, m the target basis and pole
        (T^T m = 0), s' the sphere part of s and x' its point on the sphere,
        both are rank-1 updates,
            dsigma = 2 (B + (p - x') s'^T) / (1 + |s'|^2),
            dphi = (T^T + g m^T) / (1 - y.m).
        So E = Df diag(I_lead, B) + (Df_s (p - x')) s'^T on the sphere
        columns (a column selection and one outer product),
        jac = T^T E + g (m^T E), and both scalar factors are applied to the
        columns of jac last."""
        lead, n = self.lead, len(s)
        x, g, jac = out or (np.empty((n, 8)), np.empty((n, 7)),
                            np.empty((n, 7, 7)))
        if self._work is None or self._work.shape[1] < n:
            self._work = np.empty((2, n, 8, 7))
        e, w_te = self._work[:, :n]
        sign = self.signs[group]
        frame = np.take(self.frames, group, axis=0)
        pole = frame[:, :, 7]
        s_sph = s[:, lead:]
        x[:, :lead] = s[:, :lead]
        x[:, lead:] = sphere = _pole_chart_inv(s_sph, sign)
        y, df = self.family.jet(x)
        t = np.einsum("ni,ni->n", y, pole)
        np.einsum("ni,nij->nj", (y - t[:, None] * pole) / (1.0 - t)[:, None],
                  frame[:, :, :7], out=g)
        # Df diag(I_lead, B) selects the columns of Df but the pole's
        e[:, :, :lead] = df[:, :, :lead]
        e[:, :, lead:] = df[:, :, lead + 1:]
        tip = -sphere  # p - x'
        tip[:, 0] = sign - sphere[:, 0]
        e[:, :, lead:] += np.einsum("ni,nj->nij", np.einsum(
            "nij,nj->ni", df[:, :, lead:], tip), s_sph,
            out=w_te[:, :, lead:])  # te's space, free until te is made
        # rows of te: T^T E, then m^T E
        te = np.matmul(frame.transpose(0, 2, 1), e, out=w_te)
        np.einsum("ni,nj->nij", g, te[:, 7], out=jac)
        jac += te[:, :7]
        scale = np.empty((n, 7))
        scale[:] = (1.0 / (1.0 - t))[:, None]
        scale[:, lead:] *= 2.0 / (1.0 + np.sum(s_sph * s_sph, axis=1,
                                               keepdims=True))
        jac *= scale[:, None, :]
        return x, g, jac

    def solve(self, starts: np.ndarray, group: np.ndarray
              ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Newton from each start, every group in one batch, each group's
        starts in draw order.  Returns the converged domain points and their
        groups, ordered by group, then by iteration, then by start, and the
        least residual each group ever saw.

        Each iteration evaluates and steps the batch ROW_CAP rows at a time
        (the row cap), so no intermediate holds more rows than that; a
        slice whose rows all step takes the step on its buffers as they
        are, without copying the rows that step.  The batch shrinks to the
        rows still running: converged rows leave it, and so, in a group
        whose Jacobians are rank-deficient (marked singular by
        `_newton_steps`, from the iteration after its rows were first
        singular), do rows above NO_ROOT_FLOOR whose residual has stopped
        improving (PLATEAU_RTOL, PLATEAU_ITER); their residuals have already
        counted toward their group's least residual.  Every row's arithmetic
        is row-local and every decision is per group, so each group gets,
        bit for bit, what its own batch gets run alone."""
        s = starts
        floors = np.full(len(self.signs), np.inf)
        singular = np.zeros(len(self.signs), dtype=bool)
        best = np.full(len(s), np.inf)
        stale = np.zeros(len(s), dtype=int)
        done, done_group = [np.empty((0, 8))], [group[:0]]
        # x, g and jac of one slice, reused by every slice and iteration
        cap = min(len(s), ROW_CAP)
        buffers = np.empty((cap, 8)), np.empty((cap, 7)), np.empty((cap, 7, 7))
        for _ in range(NEWTON_MAX_ITER):
            if not len(s):
                break
            n = len(s)
            tracked = singular[group]  # the marks as the iteration starts
            low = np.full(len(floors), np.inf)
            keep = np.empty(n, dtype=bool)
            moved = np.empty_like(s)
            # the first row of the slice in which a group was marked
            marked_at = np.zeros(len(floors), dtype=int)
            for lo in range(0, n, ROW_CAP):
                rows = slice(lo, lo + ROW_CAP)
                grp = group[rows]
                x, g, jac = self.evaluate(s[rows], grp, tuple(
                    a[:len(grp)] for a in buffers))
                res = np.linalg.norm(g, axis=1)
                # each group's least residual in this iteration; like
                # Python's min, an iteration with a NaN in a group's rows
                # leaves its floor as it was
                np.minimum.at(low, grp, res)
                conv = res < NEWTON_TOL
                done.append(x[conv])
                done_group.append(grp[conv])
                k = ~conv
                t = tracked[rows]
                if t.any():
                    # a map of lower-dimensional image need not reach its
                    # target: rows stall at a minimum of |g| or hop across a
                    # cone tip of the image (theta-circle's ends) at a
                    # residual that no longer falls
                    b, st = best[rows], stale[rows]
                    better = res < (1.0 - PLATEAU_RTOL) * b
                    best[rows] = np.where(t, np.minimum(b, res), b)
                    stale[rows] = st = np.where(t, np.where(better, 0, st + 1),
                                                st)
                    k &= ~(t & (st >= PLATEAU_ITER) & (res > NO_ROOT_FLOOR))
                keep[rows] = k
                before = singular.copy()
                if k.all():
                    moved[rows] = _moved(s[rows], _newton_steps(
                        jac, g, grp, singular))
                else:
                    moved[rows][k] = _moved(s[rows][k], _newton_steps(
                        jac[k], g[k], grp[k], singular))
                marked_at[singular & ~before] = lo
            floors = np.fmin(floors, low)
            # a group marked in a later slice takes the damped step on all
            # its rows: redo those of the earlier slices, whose evaluation
            # is row-local and so the same
            late = np.flatnonzero(keep & (np.arange(n) < marked_at[group]))
            for lo in range(0, len(late), ROW_CAP):
                part = late[lo:lo + ROW_CAP]
                _, g, jac = self.evaluate(s[part], group[part], tuple(
                    a[:len(part)] for a in buffers))
                moved[part] = _moved(s[part], _newton_steps(
                    jac, g, group[part], singular))
            s, group = moved[keep], group[keep]
            best, stale = best[keep], stale[keep]
        pts, pts_group = np.vstack(done), np.concatenate(done_group)
        order = np.argsort(pts_group, kind="stable")
        return pts[order], pts_group[order], floors


def _moved(s: np.ndarray, step: np.ndarray) -> np.ndarray:
    """The chart points after their Newton steps, each step cut to length
    at most 2."""
    norms = np.linalg.norm(step, axis=1, keepdims=True)
    return s - step * np.minimum(1.0, 2.0 / np.maximum(norms, 1e-300))


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


def _signed_dets(family: MapFamily, x: np.ndarray, u: np.ndarray,
                 df: np.ndarray) -> np.ndarray:
    """Signed Jacobian determinants J_f at the domain points x with unit
    images u = f(x) / |f(x)| and ambient Jacobians df = Df(x): det Df
    between oriented tangent frames of the domain and of the seven-sphere,
    for all points at once.

    With n the unit normal of the domain (the sphere part of x after `lead`
    zeros), B = Df (I - n n^T) + u n^T maps [n | F] to [u | Df F] for every
    tangent frame F, and an oriented frame of the domain has
    det[n | F] = (-1)^lead, so J_f = (-1)^lead det B."""
    lead = family.lead
    n = np.zeros_like(x)
    n[:, lead:] = x[:, lead:]
    b = df - (df @ n[:, :, None]) * n[:, None, :] + u[:, :, None] * n[:, None, :]
    return (-1) ** lead * np.linalg.det(b)


def _sample_target(family: MapFamily, rng: np.random.Generator) -> np.ndarray:
    while True:
        q = rng.standard_normal(8)
        q /= np.linalg.norm(q)
        if family.lead and abs(q[0]) > 0.98:
            continue  # keep away from the collapsed boundary points +-1
        return q


def _basin_hits(reps: np.ndarray, points: np.ndarray) -> np.ndarray:
    """How many of the points lie within SEPARATION_TOL (max-abs distance)
    of each representative: the converged starts in each basin."""
    d = np.max(np.abs(points[:, None, :] - reps[None, :, :]), axis=2)
    return np.count_nonzero(d < SEPARATION_TOL, axis=0)


class _Pass:
    """One batch of `n_starts` starts at one target: its jitter is drawn
    when the pass is made, and its starts are built `chunk` at a time, in
    draw order, as `_round` runs them.  Each chunk's converged points join
    the representatives `reps` by the greedy first-survivor `_dedupe`.  The
    pass is done after its last start, or after a second or later chunk
    that found no new preimage when every preimage has BASIN_MIN_HITS
    converged starts; with chunk = n_starts it runs every start.  Since no
    pass stops after its first chunk, a budgeted pass's first round runs
    its first two chunks."""

    def __init__(self, family: MapFamily, frame: np.ndarray,
                 cfg: EngineConfig, chunk: int, rng: np.random.Generator):
        self.lead = family.lead
        self.frame = frame
        self.n_starts, self.chunk = cfg.n_starts, chunk
        self.shifts = _draw_shifts(self.lead, rng)
        self.lo = 0
        self.reps = self.seen = np.empty((0, 8))
        self.floor = np.inf
        self.done = False

    def next_chunks(self) -> List[np.ndarray]:
        """The starts of each chunk the next round runs, in draw order: the
        next chunk, and the one after it when the pass has run none (the
        first cannot be its last unless it holds every start)."""
        los = [self.lo]
        if self.lo == 0 and self.chunk < self.n_starts:
            los.append(self.chunk)
        return [_start_rows(self.lead, self.shifts, lo,
                            min(lo + self.chunk, self.n_starts)) for lo in los]

    def absorb(self, new: np.ndarray, floor: float) -> None:
        """Take a chunk's converged points (north chart first) and its
        least residual, and decide whether the pass is done."""
        self.floor = min(self.floor, floor)
        if self.lead:
            # Newton treats theta as unconstrained; only solutions genuinely
            # inside the cylinder count (maps need not be 2pi-periodic in
            # theta, so no wrapping)
            th = new[:, 0]
            new = new[(th > THETA_MARGIN) & (th < 2.0 * np.pi - THETA_MARGIN)]
        self.seen = np.vstack([self.seen, new])
        known = len(self.reps)
        # `reps` is deduplicated, so all of it survives in front of `new`
        self.reps = _dedupe(np.vstack([self.reps, new]), SEPARATION_TOL)
        settled = self.lo > 0 and len(self.reps) == known and bool(
            np.all(_basin_hits(self.reps, self.seen) >= BASIN_MIN_HITS))
        self.lo += self.chunk
        self.done = settled or self.lo >= self.n_starts


def _chunk_starts(lead: int, passes: List[_Pass]
                  ) -> Tuple[np.ndarray, np.ndarray, List[_Pass]]:
    """The chart coordinates and groups of the chunks every pass runs next,
    and the pass of each chunk, in order: each start runs in the chart of
    its own hemisphere, where its coordinates have norm at most one, so
    chunk i has two groups, 2i north (pole e0) and 2i + 1 south, each in
    draw order."""
    starts, groups, owners = [], [], []
    for p in passes:
        for part in p.next_chunks():
            i = len(owners)
            owners.append(p)
            for j, sign in enumerate((1.0, -1.0)):
                mask = sign * part[:, lead] <= 0.0
                starts.append(np.column_stack(
                    [part[mask, :lead], _pole_chart(part[mask, lead:], sign)]))
                groups.append(np.full(int(mask.sum()), 2 * i + j))
    return np.vstack(starts), np.concatenate(groups), owners


def _round(family: MapFamily, passes: List[_Pass]) -> None:
    """The next chunks of every pass, all in one Newton batch, absorbed
    chunk by chunk in draw order."""
    starts, group, owners = _chunk_starts(family.lead, passes)
    charted = _Charted(family, np.repeat([p.frame for p in owners], 2, axis=0),
                       np.tile([1.0, -1.0], len(owners)))
    pts, pts_group, floors = charted.solve(starts, group)
    chunk = pts_group // 2
    for i, p in enumerate(owners):
        p.absorb(pts[chunk == i], min(floors[2 * i], floors[2 * i + 1]))


class _Attempt:
    """One target of a trial and its passes, drawn from the rng stream in
    this order: the target, the first pass's starts, then the second
    pass's, which run only with `restart` (without it their jitter is drawn
    and discarded, so the rng stream, and every later target, is the same
    either way).  `state` is the rng state after these draws."""

    def __init__(self, family: MapFamily, cfg: EngineConfig,
                 rng: np.random.Generator, chunk: int, restart: bool,
                 target: Optional[np.ndarray] = None):
        self.family = family
        self.target = _sample_target(family, rng) if target is None else target
        frame = _target_frame(self.target)
        self.passes = [_Pass(family, frame, cfg, chunk, rng)]
        if restart:
            self.passes.append(_Pass(family, frame, cfg, chunk, rng))
        else:
            _draw_shifts(family.lead, rng)
        self.state = rng.bit_generator.state
        self.outcome = None   # a TrialReport, or the error to resample on

    @property
    def ran(self) -> bool:
        return all(p.done for p in self.passes)

    def settle(self) -> None:
        """Count the signed preimages once every pass is done.  The outcome
        is the error that names why the target must be resampled (a count
        mismatch between the two passes, an empty set whose residuals still
        reach NO_ROOT_FLOOR, a restart mismatch, or a near-critical
        preimage), or the report, whose `resamples` the level fills in."""
        try:
            self.outcome = self._count()
        except (NonConvergence, UnstablePreimageCount) as err:
            self.outcome = err

    def _count(self) -> TrialReport:
        family, target = self.family, self.target
        pre, floor = self.passes[0].reps, self.passes[0].floor
        for other in self.passes[1:]:
            if len(pre) != len(other.reps):
                raise UnstablePreimageCount(
                    "%s: preimage counts %d vs %d at the same target"
                    % (family.name, len(pre), len(other.reps)))
            floor = min(floor, other.floor)
            # `pre` is deduplicated, so all of it survives in front of the
            # other pass's preimages
            if len(_dedupe(np.vstack([pre, other.reps]),
                           SEPARATION_TOL)) != len(pre):
                raise UnstablePreimageCount(
                    "%s: restarts found different preimage sets" % family.name)
        if len(pre) == 0:
            if floor < NO_ROOT_FLOOR:
                raise NonConvergence(
                    "%s: no converged starts but residuals reach %g"
                    % (family.name, floor))
            return TrialReport(list(target), 0, [], [], float("inf"),
                               float(floor), 0, 0)
        y, df = family.jet(pre)
        u = y / np.linalg.norm(y, axis=1, keepdims=True)
        dets = _signed_dets(family, pre, u, df)
        min_abs_det = float(np.min(np.abs(dets)))
        if min_abs_det < CRITICAL_DET:
            raise UnstablePreimageCount(
                "%s: near-critical preimage persists" % family.name)
        signs = np.where(dets > 0, 1, -1).tolist()
        return TrialReport(list(target), sum(signs), signs,
                           [list(x) for x in pre], min_abs_det,
                           float(np.max(np.abs(u - target))), len(pre), 0)


def _decided(attempts: List[_Attempt], trials: int,
             rng: np.random.Generator) -> Optional[List[TrialReport]]:
    """The trials, once the attempts settled so far decide them as the
    sequential engine would: attempts are assigned to trials in stream
    order, a failed one counting as its trial's resample.  Raises the error
    of the attempt that exceeds MAX_RESAMPLE; None while an attempt that
    matters is still running.  On a decision the rng is left where the
    sequential engine leaves it."""
    out, resamples = [], 0
    for a in attempts:
        if a.outcome is None:
            return None
        if isinstance(a.outcome, Exception):
            resamples += 1
            if resamples > MAX_RESAMPLE:
                rng.bit_generator.state = a.state
                raise a.outcome
            continue
        a.outcome.resamples = resamples
        out.append(a.outcome)
        resamples = 0
        if len(out) == trials:
            rng.bit_generator.state = a.state
            return out
    return None


def _trials(family: MapFamily, cfg: EngineConfig, rng: np.random.Generator,
            chunk: int, restart: bool) -> List[TrialReport]:
    """One level: `cfg.trials` trials, each of targets drawn in stream order
    until one is counted, run in lockstep.  Every round runs the next chunk
    of every live pass of every running attempt (its first two, in a
    budgeted pass's first round) in one Newton batch (`_round`); an attempt
    whose target fails is replaced by the next attempt of the stream, which
    starts at its first chunks in the next round.  Since every attempt's
    draws are independent of Newton outcomes and every row's arithmetic is
    row-local, the reports, resamples and errors are those of running the
    targets one after another."""
    attempts: List[_Attempt] = []
    while True:
        for a in attempts:
            if a.outcome is None and a.ran:
                a.settle()
        trials = _decided(attempts, cfg.trials, rng)
        if trials is not None:
            return trials
        # one running or counted attempt per trial, plus every failed one
        failed = sum(isinstance(a.outcome, Exception) for a in attempts)
        attempts += [_Attempt(family, cfg, rng, chunk, restart)
                     for _ in range(cfg.trials + failed - len(attempts))]
        _round(family, [p for a in attempts if a.outcome is None
                        for p in a.passes if not p.done])


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
            trials = _trials(family, cfg, rng_from_seed(seed), chunk,
                             restart=False)
        except (NonConvergence, UnstablePreimageCount):
            continue
        if len({(t.degree, t.n_converged) for t in trials}) == 1:
            return DegreeReport(family.name, trials[0].degree, trials)
    trials = _trials(family, cfg, rng_from_seed(seed), cfg.n_starts,
                     restart=True)
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
