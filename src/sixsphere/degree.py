"""Brouwer degree of smooth maps between seven-dimensional domains.

The engine counts signed preimages of a regular target value:

  * sample a target q on the seven-sphere,
  * run damped Newton from a low-discrepancy lattice of starts in
    stereographic charts (both the domain and the chart of the target are
    stereographic, the target chart centred at q),
  * deduplicate the converged preimages, discard the target if any preimage
    is near-critical or two independent start batches disagree on the count,
  * sum the signs of the 7x7 differentials expressed in deterministically
    oriented orthonormal frames,
  * repeat for independent targets and require agreement.

Domains are the unit sphere in R^8 and the cylinder [0, 2pi] x S^6 (maps
from the cylinder collapse its ends to +-1, so targets keep away from the
real axis).  Everything is vectorized over Newton starts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from .errors import (ConflictingEstimates, NonConvergence, NonGenericValue,
                     NotOdd, UnstablePreimageCount)
from .octonion import Octonion, STRUCTURE_TENSOR, batch_mul
from .sampling import rng_from_seed

# ---------------------------------------------------------------------------
# map families
# ---------------------------------------------------------------------------

@dataclass
class MapFamily:
    """A smooth map into the seven-sphere with optional exact differential.

    `func` evaluates batches (N, 8) -> (N, 8).  For the sphere domain the
    input is a point of S^7; for the cylinder domain the 8 coordinates are
    (theta, p) with p a unit vector in R^7.  `dfunc`, when given, returns the
    ambient 8x8 Jacobian batch (N, 8, 8) (for the cylinder, derivatives with
    respect to (theta, p) in ambient R^1+7 coordinates); when absent the
    engine falls back to central differences in chart coordinates.
    """

    name: str
    func: Callable[[np.ndarray], np.ndarray]
    dfunc: Optional[Callable[[np.ndarray], np.ndarray]] = None
    domain: str = "s7"            # "s7" | "cylinder"
    odd: Optional[bool] = None    # descends to the projective quotient

    @property
    def exact_differential(self) -> bool:
        return self.dfunc is not None


def _batch_right_mult(x: np.ndarray) -> np.ndarray:
    """(N,8,8) matrices of v -> v * x."""
    return np.einsum("ijk,nj->nki", STRUCTURE_TENSOR, x)


def _batch_left_mult(x: np.ndarray) -> np.ndarray:
    """(N,8,8) matrices of v -> x * v."""
    return np.einsum("ijk,ni->nkj", STRUCTURE_TENSOR, x)


def identity_map() -> MapFamily:
    eye = np.eye(8)
    return MapFamily("identity", lambda x: x.copy(),
                     lambda x: np.broadcast_to(eye, (len(x), 8, 8)).copy(),
                     odd=True)


def conjugation_map() -> MapFamily:
    c = np.diag([1.0] + [-1.0] * 7)
    return MapFamily("conjugation", lambda x: x @ c.T,
                     lambda x: np.broadcast_to(c, (len(x), 8, 8)).copy(),
                     odd=True)


def power_map(k: int) -> MapFamily:
    if k < 1:
        raise ValueError("power maps need k >= 1")

    def func(x):
        r = x.copy()
        for _ in range(k - 1):
            r = batch_mul(r, x)
        return r

    def dfunc(x):
        # r_{i+1} = r_i * x:  D_{i+1} = R_x D_i + L_{r_i}
        n = len(x)
        d = np.broadcast_to(np.eye(8), (n, 8, 8)).copy()
        r = x.copy()
        rx = _batch_right_mult(x)
        for _ in range(k - 1):
            d = rx @ d + _batch_left_mult(r)
            r = batch_mul(r, x)
        return d

    return MapFamily("power:%d" % k, func, dfunc, odd=(k % 2 == 1))


def squaring_map() -> MapFamily:
    m = power_map(2)
    m.name = "squaring"
    return m


def theta_circle_map() -> MapFamily:
    """x -> Re(x) + e1 |Im(x)|: collapses the sphere onto the unit circle
    through 1 and e1 (the image is one-dimensional, so the degree is 0)."""

    def func(x):
        out = np.zeros_like(x)
        out[:, 0] = x[:, 0]
        out[:, 1] = np.sqrt(np.maximum(1.0 - x[:, 0] ** 2, 0.0))
        return out

    def dfunc(x):
        n = len(x)
        d = np.zeros((n, 8, 8))
        s = np.sqrt(np.maximum(1.0 - x[:, 0] ** 2, 1e-30))
        d[:, 0, 0] = 1.0
        d[:, 1, 0] = -x[:, 0] / s
        return d

    return MapFamily("theta-circle", func, dfunc, odd=False)


def cube_map() -> MapFamily:
    """The odd self-map x -> x^3 realising the conjugation action on the
    canonical structure (see the twistor module); its projective quotient is
    the three-to-one self-map of projective seven-space."""
    m = power_map(3)
    m.name = "rp7-cube"
    return m


def compose_maps(outer: MapFamily, inner: MapFamily, name: str = "") -> MapFamily:
    if inner.domain != "s7" or outer.domain != "s7":
        raise ValueError("composition only supported on the sphere domain")
    dfunc = None
    if outer.dfunc is not None and inner.dfunc is not None:
        def dfunc(x):
            return outer.dfunc(inner.func(x)) @ inner.dfunc(x)
    odd = None
    if outer.odd is not None and inner.odd is not None:
        odd = outer.odd and inner.odd
    return MapFamily(name or "%s.%s" % (outer.name, inner.name),
                     lambda x: outer.func(inner.func(x)), dfunc, odd=odd)


def cylinder_loop_map(half_angle: bool = False) -> MapFamily:
    """(theta, p) -> cos(c theta) + p sin(c theta), c = 1/2 or 1; both ends
    of the cylinder land in {+-1}."""
    c = 0.5 if half_angle else 1.0

    def func(x):
        th = c * x[:, 0]
        out = np.empty_like(x)
        out[:, 0] = np.cos(th)
        out[:, 1:] = np.sin(th)[:, None] * x[:, 1:]
        return out

    def dfunc(x):
        n = len(x)
        th = c * x[:, 0]
        d = np.zeros((n, 8, 8))
        d[:, 0, 0] = -c * np.sin(th)
        d[:, 1:, 0] = c * np.cos(th)[:, None] * x[:, 1:]
        for j in range(1, 8):
            d[:, j, j] = np.sin(th)
        return d

    return MapFamily("cylinder-q" if half_angle else "cylinder-loop",
                     func, dfunc, domain="cylinder")


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


def _stereo_inv_diff(s: np.ndarray, pole: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """(N, d, d-1) Jacobian of `_stereo_inv`."""
    n, d1 = s.shape
    q = np.sum(s * s, axis=1)
    den = q + 1.0
    x = _stereo_inv(s, pole, basis)
    out = np.empty((n, len(pole), d1))
    for j in range(d1):
        out[:, :, j] = (2.0 * basis[:, j][None, :]
                        + 2.0 * s[:, j][:, None] * pole[None, :]
                        - 2.0 * s[:, j][:, None] * x) / den[:, None]
    return out


def _stereo_proj(x: np.ndarray, pole: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Stereographic chart from the pole: (N, d) near-unit vectors to (N, d-1);
    -pole maps to 0."""
    t = x @ pole
    return ((x - np.outer(t, pole)) / (1.0 - t)[:, None]) @ basis


def _stereo_proj_diff(x: np.ndarray, pole: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """(N, d-1, d) Jacobian of `_stereo_proj`."""
    t = x @ pole
    den = 1.0 - t
    core = x - np.outer(t, pole)
    n, d = x.shape
    eye = np.eye(d)
    # d/dx of (x - (x.m)m)/(1 - x.m) = (I - m m^T)/(1-t) + core m^T/(1-t)^2
    j = (eye - np.outer(pole, pole))[None, :, :] / den[:, None, None] + \
        core[:, :, None] * pole[None, None, :] / (den ** 2)[:, None, None]
    return np.einsum("dk,nkl->ndl", basis.T, j)


def oriented_frame(x: np.ndarray) -> np.ndarray:
    """Deterministic oriented orthonormal tangent frame at a point of a unit
    sphere: columns t_1..t_{d-1} with det[x, t_1, ..., t_{d-1}] > 0."""
    b = _orthonormal_complement(x)
    m = np.column_stack([x, b])
    if np.linalg.det(m) < 0:
        b = b.copy()
        b[:, [0, 1]] = b[:, [1, 0]]
    return b


def cylinder_frame(point: np.ndarray) -> np.ndarray:
    """Oriented frame on the cylinder at (theta, p): d/dtheta first, then an
    oriented tangent frame of the six-sphere at p."""
    p = point[1:]
    b6 = oriented_frame(p)
    out = np.zeros((8, 7))
    out[0, 0] = 1.0
    out[1:, 1:] = b6
    return out


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
        return {
            "target": self.target,
            "degree": self.degree,
            "signs": self.signs,
            "preimages": self.preimages,
            "min_abs_det": self.min_abs_det,
            "max_residual": self.max_residual,
            "n_converged": self.n_converged,
            "resamples": self.resamples,
        }


@dataclass
class DegreeReport:
    name: str
    degree: int
    trials: List[TrialReport]
    exact_differential: bool

    def to_dict(self):
        return {
            "map": self.name,
            "degree": self.degree,
            "exact_differential": self.exact_differential,
            "trials": [t.to_dict() for t in self.trials],
        }


@dataclass
class EngineConfig:
    n_starts: int = 2000
    max_iter: int = 60
    newton_tol: float = 1e-10
    dedupe_tol: float = 1e-6
    min_det: float = 1e-8
    trials: int = 3
    max_resample: int = 5
    fd_step: float = 1e-5
    no_root_floor: float = 1e-4


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


class _Charted:
    """The charted root problem g(s) = Phi_q(f(sigma(s))) for one domain
    chart and one target."""

    def __init__(self, family: MapFamily, target: np.ndarray,
                 dom_pole: np.ndarray, cfg: EngineConfig):
        self.family = family
        self.cfg = cfg
        self.target_pole = -target / np.linalg.norm(target)
        self.target_basis = _orthonormal_complement(self.target_pole)
        self.dom_pole = dom_pole
        self.dom_basis = _orthonormal_complement(dom_pole)

    # --- domain parametrization ------------------------------------------

    def to_domain(self, s: np.ndarray) -> np.ndarray:
        if self.family.domain == "s7":
            return _stereo_inv(s, self.dom_pole, self.dom_basis)
        theta = s[:, 0]
        p = _stereo_inv(s[:, 1:], self.dom_pole, self.dom_basis)
        return np.column_stack([theta, p])

    def domain_diff(self, s: np.ndarray) -> np.ndarray:
        if self.family.domain == "s7":
            return _stereo_inv_diff(s, self.dom_pole, self.dom_basis)
        n = len(s)
        out = np.zeros((n, 8, 7))
        out[:, 0, 0] = 1.0
        out[:, 1:, 1:] = _stereo_inv_diff(s[:, 1:], self.dom_pole, self.dom_basis)
        return out

    # --- charted map -------------------------------------------------------

    def g(self, s: np.ndarray) -> np.ndarray:
        y = self.family.func(self.to_domain(s))
        return _stereo_proj(y, self.target_pole, self.target_basis)

    def g_jac(self, s: np.ndarray) -> np.ndarray:
        if self.family.dfunc is None:
            return self._fd_jac(s)
        x = self.to_domain(s)
        y = self.family.func(x)
        dphi = _stereo_proj_diff(y, self.target_pole, self.target_basis)
        df = self.family.dfunc(x)
        dsig = self.domain_diff(s)
        return dphi @ df @ dsig

    def _fd_jac(self, s: np.ndarray) -> np.ndarray:
        h = self.cfg.fd_step
        n, d = s.shape
        out = np.empty((n, d, d))
        for j in range(d):
            sp = s.copy(); sp[:, j] += h
            sm = s.copy(); sm[:, j] -= h
            out[:, :, j] = (self.g(sp) - self.g(sm)) / (2.0 * h)
        return out

    # --- newton ------------------------------------------------------------

    def solve(self, starts: np.ndarray) -> Tuple[np.ndarray, float]:
        """Newton from each start; returns (converged domain points, minimum
        residual ever seen)."""
        cfg = self.cfg
        s = starts.copy()
        active = np.ones(len(s), dtype=bool)
        best_res = np.inf
        done: List[np.ndarray] = []
        for _ in range(cfg.max_iter):
            if not active.any():
                break
            sa = s[active]
            g = self.g(sa)
            res = np.linalg.norm(g, axis=1)
            best_res = min(best_res, float(res.min()))
            conv = res < cfg.newton_tol
            if conv.any():
                done.append(sa[conv])
                keep = ~conv
                idx = np.flatnonzero(active)
                active[idx[conv]] = False
                sa, g, res = sa[keep], g[keep], res[keep]
                if len(sa) == 0:
                    continue
            jac = self.g_jac(sa)
            try:
                step = np.linalg.solve(jac, g[..., None])[..., 0]
            except np.linalg.LinAlgError:
                # singular Jacobians somewhere in the batch (e.g. maps with
                # lower-dimensional image): fall back to least-squares steps
                step = (np.linalg.pinv(jac) @ g[..., None])[..., 0]
            norms = np.linalg.norm(step, axis=1, keepdims=True)
            step = step * np.minimum(1.0, 2.0 / np.maximum(norms, 1e-300))
            snew = sa - step
            # drop runaways
            runaway = np.linalg.norm(snew, axis=1) > 1e6
            idx = np.flatnonzero(active)
            if runaway.any():
                active[idx[runaway]] = False
            s[idx] = snew
        if done:
            return np.vstack([self.to_domain(d) for d in done]), best_res
        return np.empty((0, 8)), best_res


def _dedupe(points: np.ndarray, tol: float) -> np.ndarray:
    if len(points) == 0:
        return points
    out: List[np.ndarray] = []
    for p in points:
        if not any(np.max(np.abs(p - p0)) < tol for p0 in out):
            out.append(p)
    return np.array(out)


def _ambient_jacobian(family: MapFamily, x: np.ndarray, h: float) -> np.ndarray:
    if family.dfunc is not None:
        return family.dfunc(x[None])[0]
    out = np.empty((8, 8))
    for j in range(8):
        xp = x.copy(); xp[j] += h
        xm = x.copy(); xm[j] -= h
        if family.domain == "s7":
            xp /= np.linalg.norm(xp)
            xm /= np.linalg.norm(xm)
        else:
            if j > 0:
                xp[1:] /= np.linalg.norm(xp[1:])
                xm[1:] /= np.linalg.norm(xm[1:])
        out[:, j] = (family.func(xp[None])[0] - family.func(xm[None])[0]) / (2 * h)
    return out


def _preimage_sign(family: MapFamily, x: np.ndarray, y: np.ndarray,
                   cfg: EngineConfig, orientation: int) -> Tuple[int, float]:
    df = _ambient_jacobian(family, x, cfg.fd_step)
    dom_frame = cylinder_frame(x) if family.domain == "cylinder" else oriented_frame(x)
    if orientation < 0:
        dom_frame = dom_frame.copy()
        dom_frame[:, [0, 1]] = dom_frame[:, [1, 0]]
    img_frame = oriented_frame(y / np.linalg.norm(y))
    m = img_frame.T @ df @ dom_frame
    det = float(np.linalg.det(m))
    return (1 if det > 0 else -1), abs(det)


def _sample_target(family: MapFamily, rng: np.random.Generator) -> np.ndarray:
    while True:
        q = rng.standard_normal(8)
        q /= np.linalg.norm(q)
        if family.domain == "cylinder" and abs(q[0]) > 0.98:
            continue  # keep away from the collapsed boundary points +-1
        return q


def _domain_poles(family: MapFamily) -> List[np.ndarray]:
    if family.domain == "s7":
        n = np.zeros(8); n[0] = 1.0
        return [n, -n]
    n = np.zeros(7); n[0] = 1.0
    return [n, -n]


def _start_points(family: MapFamily, cfg: EngineConfig,
                  rng: np.random.Generator) -> np.ndarray:
    """Quasi-uniform start points on the domain (ambient coordinates)."""
    n = cfg.n_starts
    if family.domain == "s7":
        return _sphere_lattice(n, 8, rng)
    p = _sphere_lattice(n, 7, rng)
    thetas = 0.05 + (2.0 * np.pi - 0.1) * _lattice01(n, 1, rng)[:, 0]
    return np.column_stack([thetas, p])


def _one_pass(family: MapFamily, target: np.ndarray, cfg: EngineConfig,
              rng: np.random.Generator) -> Tuple[np.ndarray, float]:
    pts_amb = _start_points(family, cfg, rng)
    sphere_part = pts_amb if family.domain == "s7" else pts_amb[:, 1:]
    found = []
    floor = np.inf
    for pole in _domain_poles(family):
        # each start runs in the chart of its own hemisphere, where its
        # coordinates have norm at most one
        mask = sphere_part @ pole <= 0.0
        if not mask.any():
            continue
        charted = _Charted(family, target, pole, cfg)
        sub = sphere_part[mask]
        s = _stereo_proj(sub, pole, charted.dom_basis)
        if family.domain == "cylinder":
            s = np.column_stack([pts_amb[mask, 0], s])
        pts, best = charted.solve(s)
        floor = min(floor, best)
        if len(pts):
            found.append(pts)
    allpts = np.vstack(found) if found else np.empty((0, 8))
    if family.domain == "cylinder" and len(allpts):
        # Newton treats theta as unconstrained; only solutions genuinely
        # inside the cylinder count (maps need not be 2pi-periodic in theta,
        # so no wrapping)
        th = allpts[:, 0]
        inside = (th > 1e-6) & (th < 2.0 * np.pi - 1e-6)
        allpts = allpts[inside]
    return _dedupe(allpts, cfg.dedupe_tol), floor


def _trial(family: MapFamily, cfg: EngineConfig, rng: np.random.Generator,
           orientation: int) -> TrialReport:
    resamples = 0
    while True:
        target = _sample_target(family, rng)
        pre1, floor1 = _one_pass(family, target, cfg, rng)
        pre2, floor2 = _one_pass(family, target, cfg, rng)
        if len(pre1) != len(pre2):
            resamples += 1
            if resamples > cfg.max_resample:
                raise UnstablePreimageCount(
                    "%s: preimage counts %d vs %d at the same target"
                    % (family.name, len(pre1), len(pre2)))
            continue
        if len(pre1) == 0:
            floor = min(floor1, floor2)
            if floor < cfg.no_root_floor:
                # residuals got suspiciously close to zero without converging:
                # resample rather than trust an empty preimage set
                resamples += 1
                if resamples > cfg.max_resample:
                    raise NonConvergence(
                        "%s: no converged starts but residuals reach %g"
                        % (family.name, floor))
                continue
            return TrialReport(list(target), 0, [], [], float("inf"),
                               float(floor), 0, resamples)
        merged = _dedupe(np.vstack([pre1, pre2]), cfg.dedupe_tol)
        if len(merged) != len(pre1):
            resamples += 1
            if resamples > cfg.max_resample:
                raise UnstablePreimageCount(
                    "%s: restarts found different preimage sets" % family.name)
            continue
        signs, dets, residuals = [], [], []
        for x in merged:
            y = family.func(x[None])[0]
            residuals.append(float(np.max(np.abs(y / np.linalg.norm(y) - target))))
            sgn, adet = _preimage_sign(family, x, y, cfg, orientation)
            signs.append(sgn)
            dets.append(adet)
        if min(dets) < cfg.min_det:
            resamples += 1
            if resamples > cfg.max_resample:
                raise UnstablePreimageCount(
                    "%s: near-critical preimage persists" % family.name)
            continue
        return TrialReport(list(target), int(sum(signs)), signs,
                           [list(x) for x in merged], float(min(dets)),
                           float(max(residuals)), len(merged), resamples)


def mapping_degree(family: MapFamily, seed: int = 0,
                   config: Optional[EngineConfig] = None,
                   orientation: int = 1) -> DegreeReport:
    """Degree of the map by signed preimage counting over several targets.

    `orientation` = -1 reverses the domain orientation (and so negates the
    reported degree).
    """
    cfg = config or EngineConfig()
    rng = rng_from_seed(seed)
    trials = [_trial(family, cfg, rng, orientation) for _ in range(cfg.trials)]
    degs = {t.degree for t in trials}
    if len(degs) != 1:
        raise ConflictingEstimates(
            "%s: trials disagree on the degree: %s"
            % (family.name, sorted(degs)))
    return DegreeReport(family.name, trials[0].degree, trials,
                        family.exact_differential)


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
        raise ValueError("k must be >= 1")
    wf = w.to_float_array()
    wf = wf / np.linalg.norm(wf)
    s = np.linalg.norm(wf[1:])
    if s < 1e-12:
        raise NonGenericValue("w is (numerically) real: preimages not isolated")
    axis = wf[1:] / s
    phi = math.atan2(s, wf[0])
    out = []
    for j in range(k):
        a = (phi + 2.0 * math.pi * j) / k
        out.append(np.concatenate(([math.cos(a)], math.sin(a) * axis)))
    return out


def degree_on_rp7(family: MapFamily, seed: int = 0,
                  config: Optional[EngineConfig] = None,
                  oddness_samples: int = 64) -> DegreeReport:
    """Degree of the induced self-map of projective seven-space.

    The map must be odd (f(-x) = -f(x)); its projective degree equals the
    degree of the spherical lift, since the antipodal double cover preserves
    orientation and local degrees upstairs and downstairs coincide.
    """
    rng = rng_from_seed((seed ^ 0x9E3779B9) & 0xFFFFFFFF)
    x = rng.standard_normal((oddness_samples, 8))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    if np.max(np.abs(family.func(-x) + family.func(x))) > 1e-9:
        raise NotOdd("%s does not commute with the antipodal map" % family.name)
    rep = mapping_degree(family, seed=seed, config=config)
    return DegreeReport("rp7(%s)" % family.name, rep.degree, rep.trials,
                        rep.exact_differential)
