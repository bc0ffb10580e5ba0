"""LayerProbe: per-layer time and call budget, measured from outside ``src/``.

The probe lives in the benchmark and wraps the stack's *layer seams* before a
stack is built:

* the registration seams — ``ProcessHost.register_handler`` /
  ``register_instance_handler`` and ``BroadcastManager.subscribe`` /
  ``subscribe_slot`` / ``subscribe_weak`` — so every handler a layer registers
  is timed under that layer's name (the layer is the module that defines the
  handler);
* the public methods listed in :data:`METHOD_SEAMS`, patched on their classes;
* the module functions listed in :data:`FUNCTION_SEAMS`, patched in every
  ``repro.*`` namespace that imported them by name.

Every wrapped call is one *span*.  Spans nest on a stack, so a layer's self
time is its spans' duration minus the part their child spans cover, and the
self times of all layers plus the ``driver`` residue (time inside the entry
point but outside every seam) add up to the operation's wall time exactly.
Totals are kept per (layer, parent layer); the first ``max_raw`` spans are also
kept raw as ``(seam, start_ns, end_ns, parent span index, op id)``.

A seam that no longer exists is recorded in :attr:`LayerProbe.missing` and the
metrics of its layer become ``None`` — never a crash — so ``src/`` can be
refactored without first editing the benchmark.

The probe's own cost is calibrated on an empty function
(:meth:`LayerProbe.calibrate`): ``inner`` is what a wrapper adds to its own
span, ``outer`` what it adds to the caller's self time.
:func:`corrected_self_s` subtracts ``calls x inner + child calls x outer``
from a layer.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter_ns

#: Root pseudo-layer: the entry point's own time outside every seam.
DRIVER = "driver"

#: Layer ids, in reporting order.  ``sim.envelope`` is the ``"env"`` unpack
#: handler (reported apart from the dispatch loop), ``codec.encode`` /
#: ``codec.decode`` are the two halves of ``net.codec``.
LAYERS = (
    DRIVER,
    "sim",
    "sim.envelope",
    "broadcast",
    "vectormux",
    "manager",
    "dmm",
    "mwsvss",
    "svss",
    "poly",
    "coin",
    "agreement",
    "codec.encode",
    "codec.decode",
    "journal",
    "transport",
    "other",
)

#: Defining module (longest prefix wins) -> layer of a registered handler.
MODULE_LAYERS = (
    ("repro.sim", "sim"),
    ("repro.broadcast", "broadcast"),
    ("repro.core.vectormux", "vectormux"),
    ("repro.core.manager", "manager"),
    ("repro.core.dmm", "dmm"),
    ("repro.core.mwsvss", "mwsvss"),
    ("repro.core.svss", "svss"),
    ("repro.core.coin", "coin"),
    ("repro.core.agreement", "agreement"),
    ("repro.poly", "poly"),
    ("repro.field", "poly"),
    ("repro.net.codec", "codec.decode"),
    ("repro.net.journal", "journal"),
    ("repro.net", "transport"),
)

#: (layer, module, class, method names): public methods patched on the class.
METHOD_SEAMS = (
    ("sim", "repro.sim.runtime", "Runtime", ("__init__", "run_until", "run_to_quiescence")),
    ("broadcast", "repro.broadcast.manager", "BroadcastManager", ("__init__",)),
    ("sim.envelope", "repro.sim.process", "ProcessHost", ("_deliver_envelope",)),
    (
        "vectormux",
        "repro.core.vectormux",
        "SessionVectorMux",
        ("offer_private", "offer_rb", "flush", "on_private", "on_rb"),
    ),
    (
        "manager",
        "repro.core.manager",
        "VSSManager",
        ("__init__", "ingest_vector", "send_value", "rb_broadcast"),
    ),
    # The DMM reports a detection through this callback of its owner: one
    # call per (observer, culprit) pair, so its count is the shun-pair count.
    ("dmm", "repro.core.manager", "VSSManager", ("_record_shun",)),
    (
        "dmm",
        "repro.core.dmm",
        "DMM",
        (
            "filter_verdict",
            "filter_verdict_group",
            "check_reconstruct_batch",
            "expect_ack",
            "expect_deal",
            "on_session_reconstructed",
        ),
    ),
    (
        "mwsvss",
        "repro.core.mwsvss",
        "MWSVSSInstance",
        ("handle", "share", "moderate", "begin_reconstruct"),
    ),
    ("mwsvss", "repro.core.mwsvss", "GroupLane", ("monitor_polys", "row_polys")),
    (
        "svss",
        "repro.core.svss",
        "SVSSInstance",
        (
            "handle",
            "share",
            "begin_reconstruct",
            "on_mw_share_complete",
            "on_mw_output",
        ),
    ),
    (
        "poly",
        "repro.poly.fastpath",
        "LagrangeBasis",
        ("interpolate_rows", "interpolate_coeffs", "evaluate_many_at"),
    ),
    (
        "poly",
        "repro.field.backend",
        "NumpyBackend",
        ("evaluate_rows", "interpolate_rows", "batch_inverse"),
    ),
    (
        "coin",
        "repro.core.coin",
        "CommonCoinModule",
        ("__init__", "join", "release", "get"),
    ),
    (
        "coin",
        "repro.core.coin",
        "_SlotWatcher",
        ("on_svss_share_complete", "on_svss_output"),
    ),
    ("agreement", "repro.core.agreement", "ABAProcess", ("__init__", "start")),
    ("agreement", "repro.core.agreement", "VoteVectorMux", ("offer", "flush")),
    ("codec.decode", "repro.net.codec", "FrameParser", ("feed",)),
    (
        "journal",
        "repro.net.journal",
        "Journal",
        ("note_send", "note_recv", "append", "flush_notes"),
    ),
)

#: (layer, defining module, function names): patched wherever imported.
FUNCTION_SEAMS = (
    (
        "poly",
        "repro.poly.fastpath",
        (
            "evaluate_rows",
            "evaluate_many",
            "interpolate_values",
            "interpolate_values_rows",
            "batch_inverse",
        ),
    ),
    (
        "codec.encode",
        "repro.net.codec",
        ("encode_value", "encode_frame", "encode_payload_frame"),
    ),
    ("codec.decode", "repro.net.codec", ("decode_value",)),
)



def layer_of(handler: object) -> str:
    """The layer that owns ``handler``: the module that defines it."""
    target = getattr(handler, "__func__", handler)
    module = getattr(target, "__module__", None) or ""
    best = ("", "other")
    for prefix, layer in MODULE_LAYERS:
        if (module == prefix or module.startswith(prefix + ".")) and len(prefix) > len(
            best[0]
        ):
            best = (prefix, layer)
    return best[1]


def seam_name(handler: object) -> str:
    target = getattr(handler, "__func__", handler)
    return getattr(target, "__qualname__", None) or repr(target)


class LayerProbe:
    """Span stack + per-(layer, parent) accumulators.  See the module doc."""

    def __init__(self, max_raw: int = 2000, clock=perf_counter_ns):
        self.clock = clock
        self.layers = LAYERS
        self._ids = {name: i for i, name in enumerate(LAYERS)}
        size = len(LAYERS)
        #: ``self_ns[layer][parent]`` / ``calls[layer][parent]``.
        self.self_ns = [[0] * size for _ in range(size)]
        self.calls = [[0] * size for _ in range(size)]
        #: seam name -> [call count] (a list cell the wrapper closes over).
        self.seam_calls: dict[str, list[int]] = {}
        #: calls into handlers registered through a broadcast subscription.
        self.rb_deliveries = [0]
        #: values captured by ``on_args`` / ``on_result`` hooks, per seam.
        self.captured: dict[str, object] = {}
        self.max_raw = max_raw
        self.raw: list = []
        self.missing: list[str] = []
        self.op_id: object = None
        self.op_wall_ns = 0
        self.inner_ns = 0.0
        self.outer_ns = 0.0
        self._root = [self._ids[DRIVER], 0, -1]
        self._stack = [self._root]
        self._op_start = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- wrapping ----------------------------------------------------------
    def wrap(self, layer: str, seam: str, fn, on_args=None, on_result=None, cell=None):
        """Return ``fn`` wrapped in a span of ``layer`` named ``seam``.

        ``on_args(args)`` / ``on_result(args, result)`` are optional taps for
        the few counts that need a value (distinct coin sessions, encoded
        frame bytes); ``cell`` is an extra ``[count]`` cell to bump.
        """
        lid = self._ids[layer]
        row_self = self.self_ns[lid]
        row_calls = self.calls[lid]
        count = self.seam_calls.setdefault(seam, [0])
        stack = self._stack
        raw = self.raw
        cap = self.max_raw
        clock = self.clock
        probe = self

        def probed(*args, **kwargs):
            parent = stack[-1]
            if len(raw) < cap:
                index = len(raw)
                raw.append(None)
            else:
                index = -1
            frame = [lid, 0, index]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                parent[1] += duration
                parent_layer = parent[0]
                row_self[parent_layer] += duration - frame[1]
                row_calls[parent_layer] += 1
                count[0] += 1
                if cell is not None:
                    cell[0] += 1
                if index >= 0:
                    raw[index] = (seam, start, end, parent[2], probe.op_id)
            if on_args is not None:
                on_args(args)
            if on_result is not None:
                on_result(args, result)
            return result

        probed.__wrapped__ = fn
        probed._layerprobe = self
        probed.__name__ = getattr(fn, "__name__", "probed")
        probed.__qualname__ = getattr(fn, "__qualname__", "probed")
        probed.__module__ = getattr(fn, "__module__", None)
        return probed

    def wrap_handler(self, handler, cell=None):
        """Wrap a handler a layer registers, under that layer's name.

        A handler that already is a probed method (a class seam registered
        as a handler, e.g. ``SessionVectorMux.on_private``) keeps its one
        span; it only gets a counting shim when ``cell`` asks for one.
        """
        target = getattr(handler, "__func__", handler)
        if getattr(target, "_layerprobe", None) is not self:
            return self.wrap(layer_of(handler), seam_name(handler), handler, cell=cell)
        if cell is None:
            return handler

        def counted(*args):
            cell[0] += 1
            return handler(*args)

        return counted

    # -- installation ------------------------------------------------------
    def _patch(self, owner: object, attr: str, replacement: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _resolve(self, module: str, cls: str | None = None):
        try:
            owner = importlib.import_module(module)
        except ImportError:
            return None
        if cls is not None:
            owner = getattr(owner, cls, None)
        return owner

    def install(self) -> "LayerProbe":
        """Patch every seam.  Call before any stack is built."""
        self._install_registration_seams()
        for layer, module, cls, names in METHOD_SEAMS:
            owner = self._resolve(module, cls)
            for name in names:
                seam = f"{cls}.{name}"
                fn = getattr(owner, name, None) if owner is not None else None
                if fn is None:
                    self.missing.append(f"{layer}:{module}.{seam}")
                    continue
                self._patch(owner, name, self.wrap(layer, seam, fn, **self._taps(seam)))
        for layer, module, names in FUNCTION_SEAMS:
            home = self._resolve(module)
            for name in names:
                fn = getattr(home, name, None) if home is not None else None
                if fn is None:
                    self.missing.append(f"{layer}:{module}.{name}")
                    continue
                wrapped = self.wrap(layer, name, fn, **self._taps(name))
                for modname, namespace in list(sys.modules.items()):
                    if namespace is None or not (
                        modname == "repro" or modname.startswith("repro.")
                    ):
                        continue
                    if namespace.__dict__.get(name) is fn:
                        self._patch(namespace, name, wrapped)
        return self

    def _taps(self, seam: str) -> dict:
        if seam == "CommonCoinModule.join":
            # distinct (operation, coin session) pairs: agreements reuse the
            # session ids ("cc", tag, round) from one operation to the next
            sessions = self.captured.setdefault("coin.sessions", set())
            return {"on_args": lambda args: sessions.add((self.op_id, args[1]))}
        if seam == "encode_frame":
            sizes = self.captured.setdefault("frame.bytes", {})

            def tally(args, result):
                entry = sizes.get(args[0])
                if entry is None:
                    sizes[args[0]] = [1, len(result)]
                else:
                    entry[0] += 1
                    entry[1] += len(result)

            return {"on_result": tally}
        return {}

    def _install_registration_seams(self) -> None:
        probe = self
        host_cls = self._resolve("repro.sim.process", "ProcessHost")
        for name in ("register_handler", "register_instance_handler"):
            original = getattr(host_cls, name, None) if host_cls else None
            if original is None:
                self.missing.append(f"registration:repro.sim.process.ProcessHost.{name}")
                continue
            self._patch(host_cls, name, _registering(original, probe, None))
        rb_cls = self._resolve("repro.broadcast.manager", "BroadcastManager")
        for name in ("subscribe", "subscribe_slot", "subscribe_weak"):
            original = getattr(rb_cls, name, None) if rb_cls else None
            if original is None:
                self.missing.append(
                    f"registration:repro.broadcast.manager.BroadcastManager.{name}"
                )
                continue
            self._patch(rb_cls, name, _registering(original, probe, self.rb_deliveries))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- operations --------------------------------------------------------
    def begin_op(self, op_id: object) -> None:
        self.op_id = op_id
        self._root[1] = 0
        self._op_start = self.clock()

    def end_op(self) -> int:
        """Close the operation span; returns its wall nanoseconds."""
        wall = self.clock() - self._op_start
        root = self._ids[DRIVER]
        self.self_ns[root][root] += wall - self._root[1]
        self.calls[root][root] += 1
        self.op_wall_ns += wall
        self.op_id = None
        return wall

    # -- calibration -------------------------------------------------------
    def calibrate(self, rounds: int = 20000) -> tuple[float, float]:
        """Measure the wrapper's own cost on an empty two-argument function
        (the shape of a message handler).

        ``inner`` = mean span duration of the empty call (lands in the
        callee's layer); ``outer`` = the rest of the wrapped call's extra
        wall time (lands in the caller's self time).  Uses a scratch probe,
        so this probe's accumulators are untouched.
        """

        def empty(src, payload):
            return None

        scratch = LayerProbe(max_raw=0)
        wrapped = scratch.wrap("other", "empty", empty)
        row = scratch.self_ns[scratch._ids["other"]]
        root = scratch._ids[DRIVER]
        for _ in range(rounds // 10):
            wrapped(1, None)
            empty(1, None)
        best_inner = best_total = best_bare = float("inf")
        for _ in range(5):
            row[root] = 0
            start = perf_counter_ns()
            for _ in range(rounds):
                wrapped(1, None)
            total = (perf_counter_ns() - start) / rounds
            start = perf_counter_ns()
            for _ in range(rounds):
                empty(1, None)
            bare = (perf_counter_ns() - start) / rounds
            best_inner = min(best_inner, row[root] / rounds)
            best_total = min(best_total, total)
            best_bare = min(best_bare, bare)
        self.inner_ns = best_inner
        self.outer_ns = max(0.0, best_total - best_bare - best_inner)
        return self.inner_ns, self.outer_ns

    # -- reading -----------------------------------------------------------
    def layer_calls(self, layer: str) -> int:
        return sum(self.calls[self._ids[layer]])

    def layer_self_ns(self, layer: str) -> int:
        return sum(self.self_ns[self._ids[layer]])

    def seam(self, name: str) -> int:
        cell = self.seam_calls.get(name)
        return cell[0] if cell is not None else 0

    def budget(self) -> dict:
        """Per-layer totals: wrapped calls into the layer, wrapped calls made
        from it, raw self seconds, and the same split by parent layer."""
        root = self._ids[DRIVER]
        out = {}
        for layer in self.layers:
            lid = self._ids[layer]
            out[layer] = {
                "calls": 0 if lid == root else self.layer_calls(layer),
                "made_calls": sum(
                    self.calls[i][lid]
                    for i in range(len(self.layers))
                    if not (i == root and lid == root)
                ),
                "self_s_raw": self.layer_self_ns(layer) / 1e9,
                "by_parent": {
                    self.layers[p]: {
                        "calls": self.calls[lid][p],
                        "self_s_raw": self.self_ns[lid][p] / 1e9,
                    }
                    for p in range(len(self.layers))
                    if self.calls[lid][p]
                },
            }
        return out

    def raw_spans(self) -> list[dict]:
        return [
            {"seam": s[0], "start_ns": s[1], "end_ns": s[2], "parent": s[3], "op": s[4]}
            for s in self.raw
            if s is not None
        ]


def missing_layers(notes) -> set[str]:
    """The layers named by ``LayerProbe.missing`` notes (``layer:seam``)."""
    return {note.split(":", 1)[0] for note in notes}


def corrected_self_s(entry: dict, inner_ns: float, outer_ns: float) -> float:
    """A budget entry's self seconds minus the probe's calibrated cost:
    ``inner`` per call into the layer, ``outer`` per wrapped call made from
    it.  The calibration loop runs hot, so this is a lower bound on what the
    probe really cost; a traced run spreads the rest over the layers in
    proportion (see ``bench.layer_metrics``)."""
    overhead_ns = entry["calls"] * inner_ns + entry["made_calls"] * outer_ns
    return max(0.0, entry["self_s_raw"] - overhead_ns / 1e9)


def _registering(original, probe: LayerProbe, cell):
    """A registration method whose handler argument (last positional, or
    ``handler=``) is wrapped before the real registration runs."""

    def register(self, *args, **kwargs):
        if "handler" in kwargs:
            kwargs["handler"] = probe.wrap_handler(kwargs["handler"], cell=cell)
            return original(self, *args, **kwargs)
        *head, handler = args
        return original(self, *head, probe.wrap_handler(handler, cell=cell))

    register.__wrapped__ = original
    register.__name__ = getattr(original, "__name__", "register")
    return register
