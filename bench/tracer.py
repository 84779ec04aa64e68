"""In-memory span tracer that wraps sixsphere's public functions from outside.

Every wrapped call records one span: a name, its start and end times, the
span that was open when it started (its parent) and the request it belongs
to.  Spans live in flat arrays while the run goes on and are written out
once at the end.  A span's self time is its duration minus the time its
direct children cover; the process is single-threaded, so children of one
span never overlap and their durations simply add up.

Several sixsphere modules bind functions by name at import
(``from .frames import normalize`` and the like), so patching only the
defining module would miss those calls.  `Tracer.patch_function` therefore
replaces the function under every name that refers to it in every loaded
sixsphere module.
"""

from __future__ import annotations

import sys
import time
from array import array
from typing import Callable, Dict, List, Optional

import numpy as np

_now = time.perf_counter

ROOT = "request"


class Tracer:
    def __init__(self) -> None:
        self.names: List[str] = [ROOT]
        self._ids: Dict[str, int] = {ROOT: 0}
        self.t0 = array("d")
        self.t1 = array("d")
        self.parent = array("q")
        self.name = array("q")
        self.req = array("q")
        self.count = array("q")
        # stack of (span id, name id); the sentinel keeps the top defined
        self._stack = [(-1, -1)]
        self._request = -1
        self._restore: List[tuple] = []

    # -- recording -----------------------------------------------------------

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        sid = len(self.t0)
        self.parent.append(self._stack[-1][0])
        self.name.append(nid)
        self.req.append(self._request)
        self.count.append(0)
        self.t1.append(0.0)
        self._stack.append((sid, nid))
        self.t0.append(_now())
        return sid

    def _close(self, sid: int) -> None:
        self.t1[sid] = _now()
        self._stack.pop()

    def wrap(self, name: str, fn: Callable,
             count: Optional[Callable] = None) -> Callable:
        """A traced version of fn.  A call made while a span of the same name
        is already on top of the stack is folded into that span.  `count`,
        when given, maps (args, result) to an integer stored on the span."""
        nid = self._intern(name)
        stack = self._stack

        def traced(*args, **kwargs):
            if stack[-1][1] == nid:
                return fn(*args, **kwargs)
            sid = self._open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(sid)
            if count is not None:
                self.count[sid] = count(args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def begin_request(self, rid: int) -> int:
        self._request = rid
        return self._open(0)

    def end_request(self, sid: int) -> None:
        self._close(sid)
        self._request = -1

    # -- patching ------------------------------------------------------------

    def set_attr(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def patch_function(self, module, attr: str, name: str,
                       count: Optional[Callable] = None) -> None:
        """Trace module.attr under `name`, at every binding of it."""
        original = getattr(module, attr)
        self.replace_everywhere(original, self.wrap(name, original, count))

    def replace_everywhere(self, original, replacement) -> None:
        """Rebind every sixsphere module attribute that is `original`."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("sixsphere"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self.set_attr(mod, key, replacement)

    def restore(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- analysis ------------------------------------------------------------

    def arrays(self) -> Dict[str, np.ndarray]:
        t0 = np.array(self.t0, dtype=np.float64)
        t1 = np.array(self.t1, dtype=np.float64)
        parent = np.array(self.parent, dtype=np.int64)
        dur = t1 - t0
        has_parent = parent >= 0
        cover = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        return {
            "t0": t0, "t1": t1, "parent": parent,
            "name": np.array(self.name, dtype=np.int64),
            "req": np.array(self.req, dtype=np.int64),
            "count": np.array(self.count, dtype=np.int64),
            "dur": dur, "self": dur - cover,
        }

    def discount(self, a: Dict[str, np.ndarray], intervals) -> None:
        """Take each (start, duration) interval, such as a speed probe that
        ran inside a request, out of the self time of the innermost span
        open over it."""
        for start, dur in intervals:
            sid = int(np.searchsorted(a["t0"], start, side="right")) - 1
            while sid >= 0 and a["t1"][sid] < start + dur:
                sid = int(a["parent"][sid])
            if sid >= 0:
                a["self"][sid] -= dur

    def check_nesting(self, a: Dict[str, np.ndarray]) -> List[str]:
        """Problems with the recorded spans: a child outside its parent, a
        span in another request than its parent, or a request whose spans'
        self times add up to more than its wall time."""
        problems = []
        p = a["parent"]
        child = p >= 0
        if np.any(a["t0"][child] < a["t0"][p[child]]) or \
                np.any(a["t1"][child] > a["t1"][p[child]]):
            problems.append("a span lies outside its parent")
        if np.any(a["req"][child] != a["req"][p[child]]):
            problems.append("a span belongs to another request than its parent")
        roots = np.flatnonzero(a["name"] == 0)
        self_by_req = np.bincount(a["req"][a["req"] >= 0],
                                  weights=a["self"][a["req"] >= 0])
        for sid in roots:
            wall = a["dur"][sid]
            if self_by_req[a["req"][sid]] > wall * (1 + 1e-9) + 1e-9:
                problems.append("request %d: self times exceed its wall time"
                                % a["req"][sid])
        if np.any(a["req"][~child] < 0):
            problems.append("a span was recorded outside every request")
        return problems

    def save(self, path: str, a: Dict[str, np.ndarray]) -> None:
        np.savez_compressed(path, names=np.array(self.names), t0=a["t0"],
                            t1=a["t1"], parent=a["parent"], name=a["name"],
                            request=a["req"], count=a["count"])
