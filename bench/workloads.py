"""The benchmark's three workloads: what a request is, and how it is checked.

Each workload is a closed loop with one client: the next request is sent
when the previous one has returned.  A request is one public sixsphere call,
as a user's ``sixsphere verify --suite ...`` or ``sixsphere degree --map ...``
makes it.  Requests come in rounds; a round holds every request kind of the
workload once, in a fixed order, and its per-request seeds derive from the
workload seed and the round number.  See README.md for why each workload is
built the way it is.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

# (suite, samples): most requests take 0.1-0.2 s; moufang (~0.6 s) is the
# slowest of them and holds the tail percentile; octonion-axioms (fixed
# scan, ~1 s) and prop41 (>= 2 exact rotations plus an automorphism, ~3.5 s)
# sit above it, since fewer than 11 of each fit in a run
EXACT_SWEEP = (
    ("octonion-axioms", 10), ("moufang", 90), ("prop21", 2), ("prop31", 28),
    ("lemma34", 170), ("thm33-lift", 8), ("prop42", 5), ("prop41", 2),
    ("lemma22", 1), ("homotopy-tables", 1),
)
# only the suites that honour --mode float
FLOAT_SWEEP = (
    ("octonion-axioms", 10), ("moufang", 200), ("prop21", 50), ("prop41", 2),
)
# (map, expected degree); power:k maps are also checked against the oracle
DEGREE_MAPS = (
    ("identity", 1), ("squaring", 2), ("conjugation", -1), ("theta-circle", 0),
    ("cylinder-q", 1), ("cylinder-loop", 2),
    *(("power:%d" % k, k) for k in range(1, 7)),
    ("rp7-cube", 3),
)

# seconds per round at the seed commit on a 2-core x86-64 box
NOMINAL_ROUND_S = {"exact-sweep": 6.5, "float-sweep": 1.0, "degree-engine": 36.0}

SMOKE = {
    "exact-sweep": ("moufang", "lemma34", "lemma22", "homotopy-tables"),
    "float-sweep": ("moufang", "prop21"),
    "degree-engine": ("identity", "conjugation", "power:1"),
}

# the kind of work each workload's speed probe does (probe.py)
PROBE = {"exact-sweep": "interpreter", "float-sweep": "interpreter",
         "degree-engine": "numpy"}

# lazy set-up a fresh interpreter finishes before its first request
SETUP_CODE = {
    "exact-sweep": "from sixsphere import twistor; twistor.section_sample_points()",
    "float-sweep": "from sixsphere import twistor; twistor.section_sample_points()",
    "degree-engine": "from sixsphere import degree; "
                     "[degree.power_map(k) for k in range(1, 7)]",
}

ORACLE_TOL = 1e-6


@dataclass
class Request:
    label: str
    seed: int
    call: Callable[[], object]
    verify: Callable[[object], Tuple[int, List[str]]]  # -> (checks, problems)
    fields: Callable[[object], dict]                   # deterministic fields
    family: Optional[object] = None                    # degree map to trace


def request_seed(seed: int, rnd: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, rnd, index]).generate_state(1)[0])


def digest(fields: dict) -> str:
    text = json.dumps(fields, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


def _suite_request(suites, name: str, samples: int, mode: str,
                   seed: int) -> Request:
    def verify(rep):
        problems = []
        if not rep.ok:
            problems.append("%d failures" % len(rep.failures))
        if (rep.suite, rep.mode, rep.samples, rep.seed) != (name, mode, samples, seed):
            problems.append("report does not echo its request")
        return rep.checked, problems

    def fields(rep):
        d = rep.to_dict()
        del d["elapsed_ms"]
        return d

    return Request(name, seed,
                   lambda: suites.run_suite(name, samples=samples, mode=mode,
                                            seed=seed),
                   verify, fields)


def build_map(deg, name: str):
    if name == "rp7-cube":
        return deg.cube_map()
    if name.startswith("power:"):
        return deg.power_map(int(name.split(":")[1]))
    if name.startswith("cylinder-"):
        return deg.cylinder_loop_map(half_angle=(name == "cylinder-q"))
    return {"identity": deg.identity_map, "squaring": deg.squaring_map,
            "conjugation": deg.conjugation_map,
            "theta-circle": deg.theta_circle_map}[name]()


def _degree_request(deg, Octonion, name: str, want: int, seed: int) -> Request:
    family = build_map(deg, name)
    power = int(name.split(":")[1]) if name.startswith("power:") else None

    def call():
        if name == "rp7-cube":
            return deg.degree_on_rp7(family, seed=seed)
        return deg.mapping_degree(family, seed=seed)

    def verify(rep):
        problems = []
        got = abs(rep.degree) if name == "rp7-cube" else rep.degree
        if got != want:
            problems.append("degree %d, expected %d" % (rep.degree, want))
        if power is not None:
            for trial in rep.trials:
                oracle = deg.power_map_preimages(Octonion(trial.target), power)
                found = [np.array(p) for p in trial.preimages]
                if len(oracle) != len(found):
                    problems.append("oracle count %d, found %d"
                                    % (len(oracle), len(found)))
                elif any(min(np.max(np.abs(o - f)) for f in found) > ORACLE_TOL
                         for o in oracle):
                    problems.append("oracle mismatch")
        return 1, problems

    return Request(name, seed, call, verify, lambda rep: rep.to_dict(), family)


def build_round(workload: str, seed: int, rnd: int, smoke: bool = False) -> List[Request]:
    """The requests of round `rnd` of a workload, in order."""
    from sixsphere import degree as deg, suites
    from sixsphere.octonion import Octonion

    keep = SMOKE[workload] if smoke else None
    out = []
    if workload == "degree-engine":
        for i, (name, want) in enumerate(DEGREE_MAPS):
            if keep is None or name in keep:
                out.append(_degree_request(deg, Octonion, name, want,
                                           request_seed(seed, rnd, i)))
        return out
    mode, plan = (("exact", EXACT_SWEEP) if workload == "exact-sweep"
                  else ("float", FLOAT_SWEEP))
    for i, (name, samples) in enumerate(plan):
        if keep is None or name in keep:
            out.append(_suite_request(suites, name, samples, mode,
                                      request_seed(seed, rnd, i)))
    return out
