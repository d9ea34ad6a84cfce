"""Per-layer wall-time attribution by wrapping layer entry points.

The benchmark times each layer from the outside: during a traced run
:class:`LayerTracer` replaces the methods through which control enters
a layer (public calls, plus the timer and delivery callbacks the event
kernel fires) with timing wrappers, and :meth:`LayerTracer.remove`
puts the original objects back.  Nothing under ``src/`` is edited and
untraced runs execute the unwrapped code.

A wrapper keeps a stack of child-time accumulators, so a layer's
*self* time is its calls' wall time minus the part covered by nested
wrapped calls (of any layer).  Self times therefore partition the
covered time exactly, and whatever no wrapper covered is reported as
``other.self_s`` by the caller.  :attr:`LayerTracer.wall_s` is the
time from :meth:`~LayerTracer.install` to :meth:`~LayerTracer.remove`.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass
from typing import Callable, Optional

__all__ = ["Entry", "LayerTracer", "LAYER_POINTS", "LAYERS"]

_MISSING = object()

#: (module path, owner name or None for a module attribute, attribute,
#: layer, entry name).  Entry names group calls for per-entry counts
#: and inclusive times; layers group entries for self time.
LAYER_POINTS: tuple[tuple[str, Optional[str], str, str, str], ...] = (
    # the discrete-event kernel: every sim callback runs under run()
    ("repro.sim.core", "Environment", "run", "kernel", "kernel.run"),
    # the processor-sharing CPU model
    *(("repro.sim.cpu", "CPU", attr, "cpu_model", "cpu_model.call")
      for attr in ("kernel_work", "execute", "submit", "cancel",
                   "settle", "_on_timer", "busy_seconds_at",
                   "utilization", "process_table")),
    # transport + fabric (flows, bandwidth reallocation, delivery)
    ("repro.sim.transport", "NetStack", "send_many", "net", "net.send"),
    ("repro.sim.transport", "Connection", "send", "net", "net.send"),
    ("repro.sim.transport", "NetStack", "_delivered", "net",
     "net.deliver"),
    ("repro.sim.transport", "NetStack", "connect", "net", "net.call"),
    *(("repro.sim.network", "Fabric", attr, "net", "net.fabric")
      for attr in ("transfer", "settle", "_settle", "_reallocate",
                   "_on_timer")),
    # KECho channels
    ("repro.kecho.channel", "ChannelEndpoint", "submit", "kecho",
     "kecho.submit"),
    ("repro.kecho.channel", "ChannelEndpoint", "_on_message", "kecho",
     "kecho.receive"),
    ("repro.kecho.channel", "ChannelEndpoint", "_dispatch", "kecho",
     "kecho.dispatch"),
    ("repro.kecho.channel", "KechoBus", "connect", "kecho",
     "kecho.call"),
    # d-mon (monitoring modules are wired in by LayerTracer.install)
    *(("repro.dproc.dmon", "DMon", attr, "dmon", "dmon.call")
      for attr in ("poll_once", "_on_monitor_event",
                   "_on_control_event", "send_control",
                   "apply_control", "start")),
    # the Dproc facade (setup calls and /proc reads enter here)
    *(("repro.dproc.toolkit", "Dproc", attr, "toolkit", f"toolkit.{attr}")
      for attr in ("add_cluster_node", "start", "read", "write")),
    # the pseudo-filesystem
    *(("repro.dproc.procfs", "ProcFS", attr, "procfs", f"procfs.{attr}")
      for attr in ("mount", "read", "write", "listdir")),
    # E-code: compile at the publisher, run per poll
    ("repro.dproc.filters", None, "compile_filter", "ecode",
     "ecode.compile"),
    ("repro.dproc.filters", "FilterManager", "run", "ecode",
     "ecode.filter"),
    # instrumentation tees: time-series appends and telemetry ops
    ("repro.runtime.series", "TimeSeries", "record", "tees",
     "tees.series"),
    ("repro.runtime.series", "CounterTrace", "add", "tees",
     "tees.series"),
    *(("repro.telemetry.instruments", owner, attr, "tees",
       "tees.telemetry")
      for owner, attr in (("Counter", "inc"), ("Gauge", "set"),
                          ("Gauge", "adjust"), ("Histogram", "observe"),
                          ("SpanLog", "record"))),
    # live backend: frame codec, socket writes, the event loop
    ("repro.live.transport", None, "encode_frame", "codec",
     "codec.encode"),
    ("repro.live.transport", None, "encode_batch", "codec",
     "codec.encode_batch"),
    ("repro.live.transport", None, "decode_frame", "codec",
     "codec.decode"),
    ("repro.live.codec", "FrameDecoder", "feed", "codec", "codec.feed"),
    ("repro.live.transport", "LiveConnection", "send", "wire",
     "wire.send"),
    ("repro.live.transport", "_PeerLink", "_write_out", "wire",
     "wire.write"),
    ("repro.live.transport", "_PeerLink", "flush", "wire", "wire.flush"),
    ("asyncio.base_events", "BaseEventLoop", "_run_once", "loop",
     "loop.iteration"),
    # the benchmark's own reference-clock loop, kept out of other.self_s
    ("refclock", None, "loop_seconds", "bench", "bench.refclock"),
)

#: Every layer a traced run reports a self time for, in report order.
LAYERS = ("kernel", "cpu_model", "net", "kecho", "dmon", "toolkit",
          "procfs", "ecode", "tees", "codec", "wire", "loop", "bench")

#: Monitoring-module hooks, wrapped on every concrete module class.
_MODULE_METHODS = ("collect", "keyed_collect")

After = Callable[[tuple, dict, object], None]


@dataclass
class Entry:
    """Calls and time of one wrapped entry point group."""

    layer: str
    calls: int = 0
    #: Wall seconds inside these calls, nested wrapped calls excluded.
    self_s: float = 0.0
    #: Wall seconds inside these calls, everything included
    #: (recursion through the same group counts once per level).
    incl_s: float = 0.0


class LayerTracer:
    """Installs, accounts for and removes the layer wrappers."""

    def __init__(self) -> None:
        self.entries: dict[str, Entry] = {}
        #: Free-form counters the ``after`` hooks accumulate.
        self.values: dict[str, float] = {}
        #: Sample lists (e.g. live delivery latencies).
        self.samples: dict[str, list[float]] = {}
        # child-time accumulators; index 0 is the root frame
        self._frames: list[float] = [0.0]
        self._patches: list[tuple[object, str, object]] = []
        self._hooks: dict[str, After] = {}
        self._installed_at = 0.0
        #: Seconds the wrappers were installed (set by :meth:`remove`).
        self.wall_s = 0.0

    # -- public ------------------------------------------------------------

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    def add(self, name: str, amount: float = 1.0) -> None:
        self.values[name] = self.values.get(name, 0.0) + amount

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def hook(self, entry_attr: str, after: After) -> None:
        """Run ``after(args, kwargs, result)`` once the wrapped call
        returns.

        ``entry_attr`` is ``"Owner.attr"`` (or ``"attr"`` for a module
        attribute); set hooks before :meth:`install`.
        """
        self._hooks[entry_attr] = after

    def install(self) -> None:
        """Wrap every entry point in :data:`LAYER_POINTS`."""
        if self._patches:
            raise RuntimeError("layer wrappers already installed")
        for module_path, owner_name, attr, layer, entry in LAYER_POINTS:
            module = importlib.import_module(module_path)
            owner = module if owner_name is None \
                else getattr(module, owner_name)
            key = attr if owner_name is None else f"{owner_name}.{attr}"
            self._wrap(owner, attr, layer, entry, self._hooks.get(key))
        for cls in _module_classes():
            for attr in _MODULE_METHODS:
                if attr in cls.__dict__:
                    self._wrap(cls, attr, "dmon", f"dmon.module_{attr}",
                               self._hooks.get(f"module.{attr}"))
        self._installed_at = time.perf_counter()

    def remove(self) -> None:
        """Restore every wrapped attribute to its original object."""
        if self._patches:
            self.wall_s += time.perf_counter() - self._installed_at
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def layer_self(self) -> dict[str, float]:
        """Self seconds per layer (every layer in :data:`LAYERS`)."""
        out = {layer: 0.0 for layer in LAYERS}
        for entry in self.entries.values():
            out[entry.layer] = out.get(entry.layer, 0.0) + entry.self_s
        return out

    def entry(self, name: str) -> Entry:
        return self.entries.get(name) or Entry(layer="")

    # -- internals ---------------------------------------------------------

    def _wrap(self, owner, attr: str, layer: str, name: str,
              after: Optional[After]) -> None:
        original = owner.__dict__.get(attr, _MISSING)
        fn = getattr(owner, attr)
        entry = self.entries.get(name)
        if entry is None:
            entry = self.entries[name] = Entry(layer=layer)
        frames = self._frames
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            frames.append(0.0)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf() - t0
                child = frames.pop()
                entry.calls += 1
                entry.self_s += elapsed - child
                entry.incl_s += elapsed
                frames[-1] += elapsed
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))


def _module_classes() -> list[type]:
    """Every concrete monitoring-module class, sim and live."""
    from repro.dproc.modules.base import MonitoringModule
    importlib.import_module("repro.dproc.modules")
    importlib.import_module("repro.live.modules")
    seen: list[type] = []
    stack = [MonitoringModule]
    while stack:
        cls = stack.pop()
        for sub in cls.__subclasses__():
            if sub not in seen:
                seen.append(sub)
                stack.append(sub)
    return seen
