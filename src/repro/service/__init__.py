"""Long-running scheduler service over the simulation kernel.

The one-shot :class:`~repro.sim.engine.Simulator` replays a fixed
trace; this package wraps the same kernel in a daemon with a
submission API, so jobs arrive over HTTP instead of from a manifest:

* :mod:`repro.service.statemachine` — per-job lifecycle states with
  validated transitions;
* :mod:`repro.service.queue` — admission control and the priority
  inbox between API threads and the scheduler loop;
* :mod:`repro.service.store` — sqlite journal of submissions and
  transitions, replayed on restart;
* :mod:`repro.service.daemon` — :class:`SchedulerService` (the single
  scheduler-loop thread that owns the engine) and
  :class:`ServiceServer` (the HTTP face, extending the read-only
  introspection server with write verbs);
* :mod:`repro.service.driver` — the trace replay driver that pushes
  bursty workloads through the API.
"""

from repro._lazy import lazy_exports

__all__ = [
    "AdmissionDecision",
    "JobState",
    "LifecycleTable",
    "QueueManager",
    "ReplayReport",
    "SchedulerService",
    "ServiceServer",
    "ServiceStore",
    "TransitionError",
    "replay_trace",
]

# every name resolves on first use (PEP 562): ``repro serve`` loads the
# daemon, not the replay driver and the HTTP client behind it
__getattr__ = lazy_exports(__name__, {
    "repro.service.daemon": ("SchedulerService", "ServiceServer"),
    "repro.service.driver": ("ReplayReport", "replay_trace"),
    "repro.service.queue": ("AdmissionDecision", "QueueManager"),
    "repro.service.statemachine": (
        "JobState", "LifecycleTable", "TransitionError",
    ),
    "repro.service.store": ("ServiceStore",),
})
