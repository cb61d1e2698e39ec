"""Deterministic fault injection at named execution sites.

Retry and timeout behavior is only trustworthy if the failure paths are
exercised on purpose.  This module plants *fault points* at the places
failures actually happen in production — matcher expansion, BFS
frontier processing, parallel chunk boundaries — and lets tests arm
them with deterministic faults:

- ``delay`` — sleep a fixed duration (drives deadline expiry),
- ``raise`` — raise a picklable exception,
- ``die``   — hard-kill the current *process-pool worker* via
  ``os._exit`` (exercises ``BrokenProcessPool`` recovery).

Sites (see :data:`SITES`):

- ``match.expand`` — once per extension step of each matcher's
  backtracking loop;
- ``census.bfs`` — once per focal-node neighborhood expansion (per
  64-source block in ND-PVOT's bit-parallel kernel, per traversal wave
  for the pattern-driven algorithms);
- ``parallel.chunk`` — at the start of every parallel census chunk, in
  whichever executor runs it.

A :class:`FaultPlan` is armed with :func:`install_faults`; each
:class:`Fault` names its site, the 1-based hit index at which it fires
(``at``; ``None`` fires on every hit), and a ``scope``: ``"any"``
(default) or ``"worker"`` — worker-scoped faults only fire inside a
process-pool worker, so a ``die`` fault kills workers but never the
parent retrying the chunk serially.  Hit counters are per process and
deliberately excluded from pickling: a plan shipped to a worker starts
counting from zero there, which makes "every worker dies on its first
chunk" expressible and deterministic.

The disarmed fast path is a single module-global ``None`` check —
``fault_point`` costs nothing measurable in production.
"""

import os
import time

_PLAN = None
_IN_WORKER = False

#: The named fault sites planted across the execution layers.
SITES = ("match.expand", "census.bfs", "parallel.chunk")


class Fault:
    """One armed fault: where, when, and what to do."""

    __slots__ = ("site", "action", "at", "delay", "exc", "scope")

    def __init__(self, site, action, at=1, delay=0.0, exc=None, scope="any"):
        if site not in SITES:
            raise ValueError(f"unknown fault site {site!r}; expected one of {SITES}")
        if action not in ("delay", "raise", "die"):
            raise ValueError(f"unknown fault action {action!r}")
        if scope not in ("any", "worker"):
            raise ValueError(f"unknown fault scope {scope!r}")
        if action == "raise" and exc is None:
            exc = RuntimeError(f"injected fault at {site}")
        self.site = site
        self.action = action
        self.at = at  # 1-based hit index; None -> every hit
        self.delay = delay
        self.exc = exc
        self.scope = scope

    def __repr__(self):
        when = "always" if self.at is None else f"at={self.at}"
        return f"<Fault {self.site} {self.action} {when} scope={self.scope}>"


class FaultPlan:
    """A set of faults plus per-process hit counters."""

    def __init__(self, faults=()):
        self.faults = list(faults)
        self.hits = {}
        self.fired = 0

    def add(self, *args, **kwargs):
        self.faults.append(Fault(*args, **kwargs))
        return self

    def hit(self, site, in_worker):
        """Record one hit of ``site`` and perform any armed fault."""
        count = self.hits.get(site, 0) + 1
        self.hits[site] = count
        for fault in self.faults:
            if fault.site != site:
                continue
            if fault.at is not None and fault.at != count:
                continue
            if fault.scope == "worker" and not in_worker:
                continue
            self.fired += 1
            _obs_count(fault)
            if fault.action == "delay":
                time.sleep(fault.delay)
            elif fault.action == "raise":
                raise fault.exc
            elif fault.action == "die":
                # A real worker crash: no exception propagation, no
                # cleanup — the pool sees the process vanish.
                os._exit(86)

    def __getstate__(self):
        # Hit counters are per process: a plan shipped to a pool worker
        # starts fresh there.
        return {"faults": self.faults}

    def __setstate__(self, state):
        self.faults = state["faults"]
        self.hits = {}
        self.fired = 0

    def __repr__(self):
        return f"<FaultPlan {self.faults!r} hits={self.hits}>"


def _obs_count(fault):
    from repro.obs import current_obs

    obs = current_obs()
    if obs.enabled:
        obs.add("exec.faults.injected", 1)
        obs.add(f"exec.faults.{fault.action}", 1)


class install_faults:
    """Context manager arming ``plan`` for the current process.

    The plan is process-global (not a contextvar): thread-pool chunks
    must see the same armed plan as the parent, and tests are the only
    intended user.  ``install_faults(None)`` disarms.
    """

    __slots__ = ("_plan", "_prev")

    def __init__(self, plan):
        self._plan = plan
        self._prev = None

    def __enter__(self):
        global _PLAN
        self._prev = _PLAN
        _PLAN = self._plan
        return self._plan

    def __exit__(self, *exc):
        global _PLAN
        _PLAN = self._prev
        return False


def active_plan():
    """The armed :class:`FaultPlan`, or ``None``."""
    return _PLAN


def arm_process(plan):
    """Arm ``plan`` for the lifetime of this process, no scoping.

    Pool initializers use this to re-arm a pickled plan inside a fresh
    worker; the worker exits with the pool, so nothing needs unwinding.
    """
    global _PLAN
    _PLAN = plan


def mark_worker_process(flag=True):
    """Tag this process as a pool worker (set by the pool initializer);
    worker-scoped faults fire only where this flag is set."""
    global _IN_WORKER
    _IN_WORKER = flag


def fault_point(site):
    """Hit the named site; no-op unless a plan is armed."""
    if _PLAN is not None:
        _PLAN.hit(site, _IN_WORKER)
