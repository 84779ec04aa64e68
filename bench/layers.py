"""The traced layers of sixsphere and the per-layer metrics derived from them.

`install` wraps the public functions of each module with spans named
``<module>.<what>``; `layer_metrics` turns the recorded spans, plus the
degree reports of the traced requests, into the per-layer metrics that
BENCHMARK.json lists.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, List, Sequence

import numpy as np

MODULES = ("octonion", "sampling", "linalg", "frames", "cstruct", "twistor",
           "degree", "chern", "homotopy", "suites")

SPANS = (
    "octonion.mul_exact", "octonion.mul_float", "octonion.batch_mul",
    "octonion.left_mult_matrix",
    "sampling.rational_draws", "sampling.float_draws",
    "linalg.kernel_basis", "linalg.det", "linalg.mat_mul",
    "linalg.is_orthogonal_exact", "linalg.kernel_basis_float",
    "frames.apply_matrix", "frames.normalize", "frames.random_g2_matrix",
    "cstruct.ComplexStructureR6.init", "cstruct.j_from_octonion",
    "cstruct.recover_x", "cstruct.equivalent", "cstruct.common_line",
    "cstruct.quaternion_coordinate_form",
    "twistor.companion_exact", "twistor.companion_float",
    "twistor.isotopy_residual", "twistor.TangentStructure.init",
    "twistor.twistor_evaluate", "twistor.sections_equal",
    "twistor.triality_cube", "twistor.fiber_count_rp7",
    "twistor.loop_lift_identity", "twistor.verify_moufang_action",
    "twistor.verify_so7_section_identity", "twistor.random_so7_exact",
    "degree.mapping_degree", "degree.degree_on_rp7", "degree.map_eval",
    "degree.map_jacobian", "degree.newton_solve", "degree.pinv_fallback",
    "degree.power_map_preimages",
    "chern.euler_number_normal_bundle", "chern.tensor_line_chern",
    "homotopy.pi_structures",
    "suites.run_suite",
)

# metric name -> (unit, better); the order is the order of BENCHMARK.json
DERIVED = {
    "octonion.mul_exact.us_per_call": ("us", "lower"),
    "octonion.mul_float.us_per_call": ("us", "lower"),
    "octonion.batch_mul.rows": ("count", "lower"),
    "octonion.batch_mul.ns_per_row": ("ns", "lower"),
    "twistor.companion.candidates_per_call": ("count", "lower"),
    "twistor.companion.hit_ratio": ("ratio", "higher"),
    "twistor.companion.kernel_dim_mean": ("count", "lower"),
    "degree.newton_starts": ("count", "lower"),
    "degree.preimages": ("count", "higher"),
    "degree.resamples": ("count", "lower"),
    "degree.resample_rate": ("ratio", "lower"),
    "degree.preimages_per_kstart": ("count", "higher"),
    **{"%s.self_s" % m: ("s", "lower") for m in MODULES},
    "trace.overhead_pct": ("%", "lower"),
}


def metric_units() -> Dict[str, tuple]:
    """Every per-layer metric name -> (unit, better)."""
    out = {}
    for span in SPANS:
        out[span + ".calls"] = ("count", "lower")
        out[span + ".self_s"] = ("s", "lower")
    out.update(DERIVED)
    return out


def _rows(args, out) -> int:
    return int(np.size(out) // 8)


def install(tracer) -> None:
    """Wrap the public functions of every module at all their bindings."""
    from sixsphere import (chern, cstruct, degree, frames, homotopy, linalg,
                           octonion, sampling, suites, twistor)
    Octonion = octonion.Octonion

    mul = Octonion.__mul__
    mul_exact = tracer.wrap("octonion.mul_exact", mul)
    mul_float = tracer.wrap("octonion.mul_float", mul)

    def traced_mul(self, other):
        if isinstance(other, Octonion):
            if self.exact and other.exact:
                return mul_exact(self, other)
            return mul_float(self, other)
        return mul(self, other)  # scalar multiple, not an octonion product

    tracer.set_attr(Octonion, "__mul__", traced_mul)
    tracer.patch_function(octonion, "batch_mul", "octonion.batch_mul", _rows)
    for attr in ("left_mult_matrix", "left_mult_matrix_exact"):
        tracer.patch_function(octonion, attr, "octonion.left_mult_matrix")

    for attr in ("random_rational_vector", "random_rational_unit_octonion",
                 "random_rational_imaginary_unit",
                 "random_rational_circle_point", "random_rational_tangent",
                 "rational_sphere_point", "rational_unit_octonion",
                 "rational_imaginary_unit", "rational_circle_point"):
        tracer.patch_function(sampling, attr, "sampling.rational_draws")
    for attr in ("random_unit_vector", "random_unit_octonion_float",
                 "random_imaginary_unit_float", "haar_orthogonal",
                 "random_so7_float"):
        tracer.patch_function(sampling, attr, "sampling.float_draws")

    for attr in ("kernel_basis", "det", "mat_mul", "is_orthogonal_exact",
                 "kernel_basis_float"):
        tracer.patch_function(linalg, attr, "linalg." + attr)

    for attr in ("apply_matrix", "normalize", "random_g2_matrix"):
        tracer.patch_function(frames, attr, "frames." + attr)

    tracer.set_attr(cstruct.ComplexStructureR6, "__init__", tracer.wrap(
        "cstruct.ComplexStructureR6.init", cstruct.ComplexStructureR6.__init__))
    for attr in ("j_from_octonion", "recover_x", "equivalent", "common_line",
                 "quaternion_coordinate_form"):
        tracer.patch_function(cstruct, attr, "cstruct." + attr)

    companion = twistor.companion
    kdim = lambda args, out: out.kernel_dim  # noqa: E731
    comp_exact = tracer.wrap("twistor.companion_exact", companion, kdim)
    comp_float = tracer.wrap("twistor.companion_float", companion, kdim)

    def traced_companion(lam, *args, **kwargs):
        if lam.exact:
            return comp_exact(lam, *args, **kwargs)
        return comp_float(lam, *args, **kwargs)

    tracer.replace_everywhere(companion, traced_companion)
    tracer.set_attr(twistor.TangentStructure, "__init__", tracer.wrap(
        "twistor.TangentStructure.init", twistor.TangentStructure.__init__))
    for attr in ("isotopy_residual", "twistor_evaluate", "sections_equal",
                 "triality_cube", "fiber_count_rp7", "loop_lift_identity",
                 "verify_moufang_action", "verify_so7_section_identity",
                 "random_so7_exact"):
        tracer.patch_function(twistor, attr, "twistor." + attr)

    for attr in ("mapping_degree", "degree_on_rp7", "power_map_preimages"):
        tracer.patch_function(degree, attr, "degree." + attr)

    for attr in ("euler_number_normal_bundle", "tensor_line_chern"):
        tracer.patch_function(chern, attr, "chern." + attr)
    for attr in ("pi_structures_s6", "pi_structures_xg"):
        tracer.patch_function(homotopy, attr, "homotopy.pi_structures")

    tracer.patch_function(suites, "run_suite", "suites.run_suite")


def wrap_map(tracer, family) -> None:
    """Trace a degree map's evaluation and Jacobian.  These are attributes
    of the map object, which each request builds for itself, so nothing
    needs restoring."""
    family.func = tracer.wrap("degree.map_eval", family.func)
    if family.dfunc is not None:
        family.dfunc = tracer.wrap("degree.map_jacobian", family.dfunc)


@contextmanager
def newton_traced(tracer):
    """Trace numpy's solve and pinv while a degree request runs: the Newton
    steps and their whole-batch least-squares fallback."""
    solve, pinv = np.linalg.solve, np.linalg.pinv
    np.linalg.solve = tracer.wrap("degree.newton_solve", solve)
    np.linalg.pinv = tracer.wrap("degree.pinv_fallback", pinv)
    try:
        yield
    finally:
        np.linalg.solve, np.linalg.pinv = solve, pinv


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(names: Sequence[str], spans: Dict[str, np.ndarray],
                  degree_reports: List, n_starts: int,
                  overhead_pct: float) -> Dict[str, float]:
    index = {n: i for i, n in enumerate(names)}
    nnames = len(names)
    calls = np.bincount(spans["name"], minlength=nnames)
    self_s = np.bincount(spans["name"], weights=spans["self"], minlength=nnames)
    counts = np.bincount(spans["name"], weights=spans["count"], minlength=nnames)

    def get(arr, span):
        return float(arr[index[span]]) if span in index else 0.0

    out: Dict[str, float] = {}
    for span in SPANS:
        out[span + ".calls"] = get(calls, span)
        out[span + ".self_s"] = get(self_s, span)

    for kind in ("mul_exact", "mul_float"):
        span = "octonion." + kind
        out[span + ".us_per_call"] = 1e6 * _ratio(out[span + ".self_s"],
                                                  out[span + ".calls"])
    rows = get(counts, "octonion.batch_mul")
    out["octonion.batch_mul.rows"] = rows
    out["octonion.batch_mul.ns_per_row"] = 1e9 * _ratio(
        out["octonion.batch_mul.self_s"], rows)

    # candidates verified = isotopy_residual calls made inside a companion
    comp_ids = [index[s] for s in ("twistor.companion_exact",
                                   "twistor.companion_float") if s in index]
    comp_calls = sum(float(calls[i]) for i in comp_ids)
    verified = 0.0
    if comp_ids and "twistor.isotopy_residual" in index:
        res = spans["name"] == index["twistor.isotopy_residual"]
        parents = spans["parent"][res]
        parents = parents[parents >= 0]
        verified = float(np.isin(spans["name"][parents], comp_ids).sum())
    kernel_dims = sum(float(counts[i]) for i in comp_ids)
    out["twistor.companion.candidates_per_call"] = _ratio(verified, comp_calls)
    out["twistor.companion.hit_ratio"] = _ratio(comp_calls, verified)
    out["twistor.companion.kernel_dim_mean"] = _ratio(kernel_dims, comp_calls)

    trials = [t for rep in degree_reports for t in rep.trials]
    resamples = sum(t.resamples for t in trials)
    starts = sum(2 * n_starts * (1 + t.resamples) for t in trials)
    preimages = sum(t.n_converged for t in trials)
    out["degree.newton_starts"] = float(starts)
    out["degree.preimages"] = float(preimages)
    out["degree.resamples"] = float(resamples)
    out["degree.resample_rate"] = _ratio(resamples, len(trials) + resamples)
    out["degree.preimages_per_kstart"] = _ratio(preimages, starts / 1000.0)

    for m in MODULES:
        out[m + ".self_s"] = sum(out[s + ".self_s"] for s in SPANS
                                 if s.startswith(m + "."))
    out["trace.overhead_pct"] = overhead_pct
    return out
