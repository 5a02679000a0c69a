"""One probe seam for every runtime observer (paper §2.4, §3.2).

The runtime fires an event at each transition of the execution model and
at its lifecycle and protocol-guard points.  Observers subclass
:class:`Probe` and override only the events they use: the invariant
sentinel, the verify happens-before monitor, the execution tracer,
submit-time admission and job accounting are all subscribers.  The table
in ``docs/runtime.md`` ("Observing the runtime") lists every event with
its transition and its subscribers.

Each :class:`~repro.runtime.runtime.AllScaleRuntime` owns one
:class:`ProbeHub` and hands it to its processes, data item managers, lock
tables and index.  A call site reads :attr:`ProbeHub.active` and tests it
for ``None``.  With one subscriber ``active`` is that subscriber; with
several it is a fan-out that calls, per event, only the subscribers
overriding it, in attach order.  Order matters where subscribers
interact: the sentinel's guard queries record happens-before edges in the
monitor, so the monitor attaches last.
"""

from __future__ import annotations

import os
from typing import Any, Callable


class Probe:
    """A runtime observer: one no-op method per event."""

    __slots__ = ()

    # -- task transitions (§2.4), in the order one leaf task sees them ----------
    def on_submit(self, task) -> None:
        """A root task enters ``AllScaleRuntime.submit``."""
    def on_task_dispatched(self, task, origin: int, target: int) -> None:
        """Algorithm 2 placed a task spawned at ``origin`` on ``target``."""
    def on_task_enqueued(self, task, treeture, variant, pid, now) -> None:
        """The task joined the queue of process ``pid``."""
    def on_task_started(self, task, treeture, pid: int, now: float) -> None:
        """A leaf began its handling at ``pid``, before staging."""
    def on_task_staged(self, task, treeture, pid: int, now: float) -> None:
        """One staging round of the leaf's data completed."""
    def on_task_executing(self, task, treeture, pid: int, now: float) -> None:
        """Locks granted and requirements re-verified: the *start* rule."""
    def on_task_finished(self, task, treeture, pid, now, cost) -> None:
        """The leaf ended; ``cost`` is its core-seconds, None if offloaded."""

    # -- data transitions ---------------------------------------------------------
    def on_payload_export(self, pid: int, item, payload) -> None:
        """Owned data was cut out at ``pid`` for a migration."""
    def on_payload_import(self, pid: int, item, payload) -> None:
        """A migrated or replicated payload is spliced in at ``pid``."""
    def on_coalesced_transfer(self, src, dst, item, payload, pieces, sizes) -> None:
        """Several replica pieces left ``src`` as one bulk payload."""
    def on_ownership_update(self, item, pid: int, region) -> None:
        """The index applied a new owned region for ``pid``."""
    def on_item_registered(self, item) -> None:
        """The *create* action."""
    def on_item_destroyed(self, item) -> None:
        """The *destroy* action, before the teardown."""
    def on_plan_finished(self, plan) -> None:
        """A transfer plan published its planned and moved bytes."""

    # -- runtime lifecycle ----------------------------------------------------------
    def on_process_failed(self, pid: int) -> None:
        """Node ``pid`` crashed and lost its data."""
    def on_checkpoint(self, snapshot) -> None:
        """A checkpoint was taken."""
    def on_restore(self, snapshot) -> None:
        """A checkpoint was restored."""
    def on_recovery(self, snapshot) -> None:
        """Data lost to a node failure was recovered from a checkpoint."""
    def on_barrier(self) -> None:
        """``wait`` returned or a service job drained: a settled state."""

    # -- happens-before guards and dependence footprints -------------------------
    def sync_acquire(self, key: tuple, region=None) -> None:
        """A protocol guard observed the state published on ``key``."""
    def sync_release(self, key: tuple, region=None) -> None:
        """A protocol step published new state on ``key``."""
    def frag_read(self, pid: int, item, region, note: str) -> None:
        """Fragment bytes of ``item`` at ``pid`` were read."""
    def frag_write(self, pid: int, item, region, note: str) -> None:
        """Fragment bytes of ``item`` at ``pid`` were written."""


#: every event a probe can override
EVENTS = tuple(name for name in vars(Probe) if not name.startswith("_"))


def _fan(calls: tuple[Callable[..., None], ...]) -> Callable[..., None]:
    def fan(*args: Any) -> None:
        for call in calls:
            call(*args)

    return fan


class _FanOut(Probe):
    """Several subscribers behind one probe: each event is bound once, at
    attach time, to the subscribers overriding it (one is called directly,
    none falls back to the no-op)."""

    def __init__(self, subscribers: list[Probe]) -> None:
        for name in EVENTS:
            noop = getattr(Probe, name)
            calls = tuple(
                getattr(probe, name)
                for probe in subscribers
                if getattr(type(probe), name) is not noop
            )
            if calls:
                setattr(self, name, calls[0] if len(calls) == 1 else _fan(calls))


class ProbeHub:
    """One runtime's seam: call sites invoke :attr:`active`."""

    __slots__ = ("active", "_subscribers")

    def __init__(self) -> None:
        #: None (nothing attached), the single subscriber, or a fan-out
        self.active: Probe | None = None
        self._subscribers: list[Probe] = []

    def attach(self, probe: Probe) -> Probe:
        """Subscribe ``probe`` (idempotent); returns it."""
        if not any(p is probe for p in self._subscribers):
            self._set([*self._subscribers, probe])
        return probe

    def detach(self, probe: Probe) -> None:
        """Unsubscribe ``probe``: it receives no further events."""
        self._set([p for p in self._subscribers if p is not probe])

    def find(self, kind: type) -> Any:
        """The first attached subscriber of class ``kind``, or None."""
        return next((p for p in self._subscribers if isinstance(p, kind)), None)

    def _set(self, subscribers: list[Probe]) -> None:
        self._subscribers = subscribers
        if len(subscribers) > 1:
            self.active = _FanOut(subscribers)
        else:
            self.active = subscribers[0] if subscribers else None


# -- process-wide auto-attachment ------------------------------------------------

#: explicit-off marker: "switched off programmatically", unlike None
#: ("never configured, fall back to the environment variable")
_DISABLED = object()

#: every registry, in creation order (= attach order on a new runtime)
AUTO_ATTACH: list["AutoAttach"] = []


class AutoAttach:
    """Attach one observer kind to every runtime built while enabled.

    ``factory(runtime, config)`` builds and attaches the observer.  Unless
    switched programmatically, a value of the environment variable ``env``
    other than empty or ``0`` enables it with ``from_env(value)``.
    """

    def __init__(
        self,
        factory: Callable[[Any, Any], Any],
        env: str | None = None,
        from_env: Callable[[str], Any] | None = None,
    ) -> None:
        self.factory, self.env, self.from_env = factory, env, from_env
        self._config: Any = None
        self._created: list[Any] = []
        AUTO_ATTACH.append(self)

    def enable(self, config: Any) -> None:
        """Attach, with ``config``, to every runtime built from now on."""
        self._config = config
        self._created.clear()

    def disable(self) -> None:
        """Switch auto-attachment off, overriding the environment too."""
        self._config = _DISABLED

    def reset(self) -> None:
        """Back to the default: enabled iff the environment says so."""
        self._config = None

    def config(self) -> Any:
        """The active config, if any (the environment variable counts)."""
        if self._config is not None:
            return None if self._config is _DISABLED else self._config
        if self.env is None or self.from_env is None:
            return None
        value = os.environ.get(self.env, "0").strip().lower()
        return None if value in ("", "0") else self.from_env(value)

    def drain(self) -> list[Any]:
        """Return and forget the observers attached since the last drain."""
        out, self._created[:] = list(self._created), []
        return out

    def attach(self, runtime: Any) -> None:
        config = self.config()
        if config is not None:
            self._created.append(self.factory(runtime, config))


def attach_from_global(runtime: Any) -> None:
    """Honor every process-wide enablement on a freshly built runtime."""
    for registry in AUTO_ATTACH:
        registry.attach(runtime)
