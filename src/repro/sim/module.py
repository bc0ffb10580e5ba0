"""The ``ProtocolModule`` lifecycle: uniform wiring for protocol components.

Every protocol component in the stack — broadcast manager, VSS manager,
common coin, agreement, baselines — is a *module*: an object that attaches
to one :class:`~repro.sim.process.ProcessHost`, registers message handlers,
announces observable state changes, and can be torn down.  Before this
abstraction each component wired itself to the runtime ad-hoc (grabbing
raw tags, inventing string-prefixed topics per instance); the module
contract makes the wiring uniform and — crucially — *instance-aware*:

* ``attach(host, instance_id)`` is the **only** place handler registration
  may happen (the ``_wire`` hook runs inside it).  A module may attach at
  any time, before the run or in the middle of it, on either runtime:
  every router reads the host's live handler table.
* Modules that multiplex — many live instances of the same class sharing
  one runtime — register through *instance slots*
  (:meth:`ProtocolModule.register_slot` /
  :meth:`ProtocolModule.subscribe_slot`): the shared tag routes to a
  bounded per-instance demux.
* ``notify()`` announces an observable state change to the runtime's
  notification-driven waits.
* ``close()`` releases every registration the module claimed — instance
  slots and whole tags alike — and detaches it from its host, at any time.

Subclasses set :attr:`ProtocolModule.MODULE_KIND` and implement ``_wire``;
constructors that take a host may simply call ``self.attach(host, ...)``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol, runtime_checkable

from repro.errors import ProtocolError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.sim.process import Handler, ProcessHost


@runtime_checkable
class HostABC(Protocol):
    """The host surface protocol modules are allowed to consume.

    This is the *explicit* contract extracted from
    :class:`~repro.sim.process.ProcessHost`: everything a
    :class:`ProtocolModule` (or a driver holding one) may call on its
    host, and nothing more.  Any object satisfying it can carry the full
    stack — the simulated ``ProcessHost`` and the socket-backed
    :class:`~repro.net.transport.NetworkHost` both do, and
    ``tests/test_net_transport.py`` pins both conformances so the
    contract is checked by type, not convention.

    A host's ``runtime`` must in turn satisfy :class:`RuntimeABC`.
    Keeping that indirection in one place is what lets the same module
    code run over a simulated event queue and over real sockets.
    """

    pid: int
    runtime: object
    crashed: bool
    crash_epoch: int

    # -- module attachment -------------------------------------------------
    def attach(self, name: object, module: object) -> None: ...

    def detach(self, name: object) -> None: ...

    def has_module(self, name: object) -> bool: ...

    def module(self, name: object) -> object: ...

    # -- handler registration ----------------------------------------------
    def register_handler(self, tag: object, handler: "Handler") -> None: ...

    def unregister_handler(self, tag: object) -> None: ...

    def register_instance_handler(
        self, tag: object, instance_id: object, handler: "Handler"
    ) -> None: ...

    def unregister_instance_handler(
        self, tag: object, instance_id: object
    ) -> None: ...

    # -- wire --------------------------------------------------------------
    def send(self, dst: int, payload: tuple, layer: str) -> None: ...

    def send_all(self, payload: tuple, layer: str) -> None: ...

    def deliver(self, src: int, payload: object) -> None: ...


@runtime_checkable
class RuntimeABC(Protocol):
    """The runtime surface protocol modules reach through ``host.runtime``.

    The simulator's :class:`~repro.sim.runtime.Runtime` and the socket
    :class:`~repro.net.transport.NetRuntime` both satisfy it
    (``tests/test_module.py`` pins both).  Three groups:

    * the environment — ``config``, ``field``, ``trace``, ``monitor``,
      ``now``, ``host(pid)``, ``notify_state_change()``;
    * the wire — ``transmit`` / ``transmit_all``;
    * the step window (:class:`~repro.sim.window.StepWindow`, inherited by
      both runtimes, never re-implemented): ``svec`` says whether
      session-vector muxes may pack at all and ``svec_buffering`` whether
      a step is open right now; a mux that buffered registers through
      ``svec_defer`` and is flushed when the step closes;
      ``coalescing_step()`` opens a step around driver-side sends; and
      the counters modules bump (``svec_packed``,
      ``svec_slots``, ``svec_batch_ingested``, ``dmm_verdicts_batched``,
      ``dmm_verdict_fallbacks``, ``dmm_verdict_calls``) or the window
      itself does (``envelopes_pushed``, ``payloads_coalesced``).
    """

    config: object
    field: object
    trace: object
    monitor: object
    now: float
    coalesce: bool
    svec: bool
    svec_buffering: bool
    envelopes_pushed: int
    payloads_coalesced: int
    svec_packed: int
    svec_slots: int
    svec_batch_ingested: int
    dmm_verdicts_batched: int
    dmm_verdict_fallbacks: int
    dmm_verdict_calls: int

    def host(self, pid: int) -> object: ...

    def notify_state_change(self) -> None: ...

    def transmit(self, src: int, dst: int, payload: tuple, layer: str) -> None: ...

    def transmit_all(self, src: int, payload: tuple, layer: str) -> None: ...

    def svec_defer(self, mux: object) -> None: ...

    def coalescing_step(self): ...


class ProtocolModule:
    """Base lifecycle shared by every protocol component.

    State machine: *constructed* -> ``attach(host, instance_id)`` ->
    *attached* (handlers live) -> ``close()`` -> *closed* (instance slots
    released, detached).  Attaching twice, wiring outside ``attach``, or
    using a closed module are programming errors and raise.
    """

    #: Subclass-provided kind tag; the host attach name is ``MODULE_KIND``
    #: for singleton modules and ``(MODULE_KIND, instance_id)`` for
    #: instance-scoped ones.
    MODULE_KIND = "module"

    def __init__(self) -> None:
        self.host: "ProcessHost | None" = None
        self.instance_id: object | None = None
        self._attached = False
        self._closed = False
        #: host tags claimed through instance slots (released by close()).
        self._slot_tags: list[object] = []
        #: (broadcast manager, topic) pairs claimed through topic slots.
        self._topic_slots: list[tuple[object, str]] = []
        #: whole host tags claimed via register().
        self._plain_tags: list[object] = []
        #: (broadcast manager, topic) pairs claimed whole via subscribe().
        self._plain_topics: list[tuple[object, str]] = []

    # -- lifecycle ---------------------------------------------------------
    @property
    def attached(self) -> bool:
        return self._attached and not self._closed

    @property
    def closed(self) -> bool:
        return self._closed

    def attach_name(self) -> object:
        """The host attachment key for this module."""
        if self.instance_id is None:
            return self.MODULE_KIND
        return (self.MODULE_KIND, self.instance_id)

    def attach(self, host: "ProcessHost", instance_id: object | None = None) -> "ProtocolModule":
        """Bind to ``host`` (optionally as instance ``instance_id``) and wire
        every handler this module owns.  Returns ``self`` for chaining."""
        if self._attached:
            raise ProtocolError(
                f"{type(self).__name__} is already attached to process "
                f"{self.host.pid}; modules attach exactly once"
            )
        self.host = host
        self.instance_id = instance_id
        host.attach(self.attach_name(), self)
        self._attached = True
        self._wire(host)
        return self

    def _wire(self, host: "ProcessHost") -> None:
        """Register handlers.  Runs exactly once, inside :meth:`attach` —
        the single place the module contract allows registration."""
        raise NotImplementedError

    def close(self) -> None:
        """Tear down: release every registration and detach from the host.

        Works mid-run for instance-scoped and substrate modules alike; a
        replacement may attach afterwards and receives the later traffic.
        """
        if self._closed:
            return
        if not self._attached:
            raise ProtocolError(f"cannot close unattached {type(self).__name__}")
        for tag in self._slot_tags:
            self.host.unregister_instance_handler(tag, self.instance_id)
        self._slot_tags.clear()
        for broadcast, topic in self._topic_slots:
            broadcast.unsubscribe_slot(topic, self.instance_id)
        self._topic_slots.clear()
        for tag in self._plain_tags:
            self.host.unregister_handler(tag)
        self._plain_tags.clear()
        for broadcast, topic in self._plain_topics:
            broadcast.unsubscribe(topic)
        self._plain_topics.clear()
        self.host.detach(self.attach_name())
        self._closed = True
        self._on_close()

    def _on_close(self) -> None:
        """Subclass hook for extra teardown (releasing coins, etc.)."""

    # -- wiring helpers ----------------------------------------------------
    def register(self, tag: object, handler: "Handler") -> None:
        """Claim a whole host tag (singleton modules)."""
        self.host.register_handler(tag, handler)
        self._plain_tags.append(tag)

    def subscribe(self, broadcast, topic: str, handler) -> None:
        """Claim a whole broadcast topic (singleton modules)."""
        broadcast.subscribe(topic, handler)
        self._plain_topics.append((broadcast, topic))

    def register_slot(self, tag: object, handler: "Handler") -> None:
        """Claim this module's instance slot under a shared host tag.

        Payloads on the tag carry the instance id in position 1; the host's
        demux routes each to the matching slot."""
        if self.instance_id is None:
            raise ProtocolError(
                f"{type(self).__name__} has no instance_id; instance slots "
                "require attaching with one"
            )
        self.host.register_instance_handler(tag, self.instance_id, handler)
        self._slot_tags.append(tag)

    def subscribe_slot(self, broadcast, topic: str, handler) -> None:
        """Claim this module's instance slot under a broadcast topic.

        Broadcast values on the topic carry the instance id in position 1.
        """
        if self.instance_id is None:
            raise ProtocolError(
                f"{type(self).__name__} has no instance_id; topic slots "
                "require attaching with one"
            )
        broadcast.subscribe_slot(topic, self.instance_id, handler)
        self._topic_slots.append((broadcast, topic))

    # -- runtime glue ------------------------------------------------------
    def notify(self) -> None:
        """Announce an observable state change (see
        :meth:`~repro.sim.runtime.Runtime.notify_state_change`)."""
        self.host.runtime.notify_state_change()
