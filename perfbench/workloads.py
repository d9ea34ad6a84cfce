"""The benchmark's workloads, driven through the repository's public API.

Each workload is run as *episodes*: one seeded set-up plus one fixed
span of monitoring traffic.  Sim episodes are deterministic for a
seed (so two episodes of one seed must produce the same digest); the
live episode runs real sockets for a wall-clock span.

An episode reports:

* ``setup`` — reference seconds (see ``refclock.py``) per set-up
  phase (``cluster``, ``dproc``, ``mount``, ``start`` on sim;
  ``cluster``, ``deploy`` on live);
* ``run_wall`` and ``run_ref`` — wall and reference seconds of the
  measured run phase;
* the delivery account on the monitoring channel: ``submits``,
  ``audience`` (subscribers per submit), ``attempted`` (submits x
  audience), ``delivered`` (handler deliveries), ``failed`` (failed
  deliveries) and ``in_flight`` (still on the wire at the cut-off);
* ``problems`` — failed output checks (empty when correct);
* ``digest`` — sim only: hash of the watchers' final ``/proc/cluster``
  reads and the kernel event count.

A traced episode has the layer wrappers installed for its set-up and
run phase only; they are removed before the delivery account and the
output checks, so the benchmark's own reads are not attributed to the
program.
"""

from __future__ import annotations

import asyncio
import hashlib
import time
from dataclasses import dataclass, field, replace
from typing import Optional

from refclock import RefClock

MONITOR = "dproc.monitor"

__all__ = ["SimSpec", "LiveSpec", "Episode", "SPECS", "small_spec",
           "run_episode"]


@dataclass(frozen=True)
class SimSpec:
    """A simulated deployment and its monitoring load."""

    name: str
    nodes: int
    #: Hosts (the first k) that subscribe and mount every host under
    #: /proc/cluster; None means every host does (all-to-all).
    watchers: Optional[int]
    modules: tuple[str, ...]
    #: Metrics d-mon publishes (MetricId names); None = all sampled.
    metrics: Optional[tuple[str, ...]]
    poll: float
    #: Simulated seconds per episode.
    sim_seconds: float
    #: Simulated seconds between two reference-clock laps of the run.
    slice_s: float
    #: Synthetic processes per host for the ``proc`` module.
    nprocs: Optional[int] = None
    #: Broadcast ``topk_filter(k)`` from the first watcher at t=0.
    topk: Optional[int] = None
    #: Watchers sweep loadavg + proc_top of every host this often.
    sweep_every: Optional[float] = None
    #: Files the digest reads per (watcher, host).
    digest_files: tuple[str, ...] = ("loadavg", "status")
    backend: str = "sim"


@dataclass(frozen=True)
class LiveSpec:
    """A single-process live deployment over localhost sockets."""

    name: str
    nodes: int
    watchers: int
    poll: float
    #: Wall seconds handed to ``Scenario.run`` per episode (set-up
    #: included; the measured window is what remains after it).
    wall_seconds: float
    backend: str = "live"


SPECS = {
    "sim-alltoall": SimSpec(
        name="sim-alltoall", nodes=64, watchers=None,
        modules=("cpu", "mem", "disk", "net"),
        metrics=("LOADAVG", "FREEMEM", "DISKUSAGE", "NET_BANDWIDTH"),
        poll=1.0, sim_seconds=4.0, slice_s=0.25,
        digest_files=("loadavg", "freemem", "diskusage",
                      "net_bandwidth", "status")),
    "sim-fleet-topk": SimSpec(
        name="sim-fleet-topk", nodes=1000, watchers=8,
        modules=("cpu", "mem", "proc"), metrics=None, poll=5.0,
        sim_seconds=15.0, slice_s=0.5, nprocs=24, topk=5, sweep_every=5.0,
        digest_files=("loadavg", "proc_top", "status")),
    "live-saturate": LiveSpec(
        name="live-saturate", nodes=32, watchers=4, poll=0.02,
        wall_seconds=2.0),
}


def small_spec(name: str):
    """A tiny variant of a workload for smoke tests."""
    spec = SPECS[name]
    if isinstance(spec, LiveSpec):
        return replace(spec, nodes=6, watchers=2, poll=0.05,
                       wall_seconds=1.5)
    if spec.watchers is None:
        return replace(spec, nodes=6, sim_seconds=3.0)
    return replace(spec, nodes=20, watchers=3, sim_seconds=16.0)


@dataclass
class Episode:
    """What one episode measured and checked."""

    setup: dict[str, float] = field(default_factory=dict)
    run_wall: float = 0.0
    run_ref: float = 0.0
    submits: int = 0
    audience: int = 0
    attempted: int = 0
    delivered: int = 0
    failed: int = 0
    in_flight: int = 0
    events: int = 0
    digest: str = ""
    problems: list[str] = field(default_factory=list)
    #: Workload-specific counts for the per-layer report.
    extra: dict[str, float] = field(default_factory=dict)

    @property
    def setup_s(self) -> float:
        return sum(self.setup.values())

    @property
    def delivered_per_s(self) -> float:
        """Deliveries per reference second of the run phase."""
        return self.delivered / self.run_ref if self.run_ref else 0.0


def run_episode(spec, seed: int, *, tracer=None) -> Episode:
    """One set-up + run + check of ``spec`` with ``seed``.

    With a ``tracer`` its layer wrappers are installed for the set-up
    and run phase and removed before the checks.
    """
    if isinstance(spec, LiveSpec):
        episode = _LiveEpisode(spec, seed, tracer)
    else:
        episode = _SimEpisode(spec, seed)
    if tracer is None:
        episode.run()
    else:
        tracer.install()
        try:
            episode.run()
        finally:
            tracer.remove()
    return episode.check()


def _sum(registries, name: str) -> float:
    return sum(r.value(name) for r in registries)


def _fanout_total(registries) -> float:
    """Remote targets summed over every monitoring-channel submit."""
    hists = (r.get(f"kecho.{MONITOR}.fanout") for r in registries)
    return sum(h.total for h in hists if h is not None)


# -- simulator -------------------------------------------------------------


class _SimEpisode:
    def __init__(self, spec: SimSpec, seed: int) -> None:
        self.spec = spec
        self.seed = seed
        self.ep = Episode()
        self.sweep_reads = 0
        self.sweep_max_rows = 0
        #: proc_top reads that did not show a top-K summary
        self.sweep_unfiltered = 0

    def run(self) -> None:
        clock = RefClock()
        self._setup(clock)
        env, spec, ep = self.env, self.spec, self.ep
        steps = round(spec.sim_seconds / spec.slice_s)
        for step in range(1, steps + 1):
            env.run(until=spec.sim_seconds * step / steps)
            wall, ref = clock.lap()
            ep.run_wall += wall
            ep.run_ref += ref

    def check(self) -> Episode:
        self._account()
        self._check()
        return self.ep

    def _setup(self, clock: RefClock) -> None:
        from repro.dproc import DMonConfig, MetricId
        from repro.dproc.toolkit import Dproc
        from repro.kecho import KechoBus
        from repro.sim import Environment, build_cluster

        spec = self.spec
        setup = self.ep.setup
        env = Environment()
        cluster = build_cluster(env, nodes=spec.nodes, seed=self.seed)
        setup["cluster"] = clock.lap()[1]
        bus = KechoBus()
        names = cluster.names
        watchers = names if spec.watchers is None \
            else names[:spec.watchers]
        watcher_set = set(watchers)
        subset = None if spec.metrics is None else \
            frozenset(MetricId[m] for m in spec.metrics)
        dprocs = {}
        for name in names:
            cfg = DMonConfig(poll_interval=spec.poll,
                             metric_subset=subset,
                             subscribe_monitoring=name in watcher_set)
            dprocs[name] = Dproc(cluster[name], bus, cfg, spec.modules)
            if spec.nprocs is not None:
                dprocs[name].dmon.modules["proc"].configure(
                    "nprocs", spec.nprocs)
        setup["dproc"] = clock.lap()[1]
        for name in watchers:
            for host in names:
                dprocs[name].add_cluster_node(host)
        setup["mount"] = clock.lap()[1]
        for dproc in dprocs.values():
            dproc.start()
        if spec.topk is not None:
            from repro.dproc.control_api import topk_filter
            sender = dprocs[watchers[0]]
            for msg in topk_filter(spec.topk).messages(
                    sender=watchers[0], target=None):
                sender.dmon.send_control(msg)
        if spec.sweep_every is not None:
            for name in watchers:
                cluster[name].spawn(self._sweep(env, dprocs[name], names),
                                    name="bench-sweep")
        setup["start"] = clock.lap()[1]
        self.env, self.cluster, self.bus = env, cluster, bus
        self.dprocs, self.watchers, self.names = dprocs, watchers, names

    def _sweep(self, env, dproc, hosts):
        """Benchmark-owned reader: loadavg + proc_top of every host.

        Starts two polling periods in, once every publisher has
        polled with the broadcast filter installed.
        """
        spec = self.spec
        yield env.timeout(2 * spec.poll)
        while True:
            for host in hosts:
                dproc.read(f"/proc/cluster/{host}/loadavg")
                text = dproc.read(f"/proc/cluster/{host}/proc_top")
                if not text.startswith("kind: top\n"):
                    self.sweep_unfiltered += 1
                rows = text.count("\n") - 1
                if rows > self.sweep_max_rows:
                    self.sweep_max_rows = rows
                self.sweep_reads += 2
            yield env.timeout(spec.sweep_every)

    def _account(self) -> None:
        ep = self.ep
        regs = [node.telemetry for node in self.cluster]
        ep.submits = int(_sum(regs, f"kecho.{MONITOR}.submits"))
        ep.audience = len(self.bus.remote_subscribers(MONITOR, ""))
        ep.attempted = ep.submits * ep.audience
        ep.delivered = int(_sum(regs, f"kecho.{MONITOR}.receives"))
        ep.failed = int(_sum(regs, f"kecho.{MONITOR}.failed_deliveries"))
        ep.in_flight = int(_sum(regs, "net.in_flight"))
        ep.events = self.env.events_processed
        ep.extra = {
            "dmon.polls": _sum(regs, "dmon.polls"),
            "dmon.records_published": _sum(regs,
                                           "dmon.records_published"),
            "net.drops": _sum(regs, "net.drops_fault")
            + _sum(regs, "net.drops_congestion"),
            "kecho.fanout_total": _fanout_total(regs),
        }

    def _check(self) -> None:
        ep, spec = self.ep, self.spec
        problems = ep.problems
        expected = spec.nodes if spec.watchers is None else spec.watchers
        if ep.audience != expected:
            problems.append(f"audience {ep.audience} != {expected}")
        # every delivery is accounted for: delivered, failed, or still
        # on the wire when the run stopped
        if ep.delivered + ep.failed + ep.in_flight != ep.attempted:
            problems.append(
                f"deliveries {ep.delivered} + failed {ep.failed} + "
                f"in flight {ep.in_flight} != submits {ep.submits} x "
                f"audience {ep.audience}")
        if ep.delivered == 0:
            problems.append("nothing was delivered")
        if spec.topk is not None:
            missing = [name for name, d in self.dprocs.items()
                       if d.dmon.filters.filter_for("proc") is None]
            if missing:
                problems.append(f"top-K filter missing on "
                                f"{len(missing)} publishers")
            if self.sweep_reads == 0:
                problems.append("the sweep made no reads")
            if self.sweep_unfiltered:
                problems.append(f"{self.sweep_unfiltered} proc_top reads "
                                f"showed no top-K summary")
            if self.sweep_max_rows > spec.topk:
                problems.append(f"a proc_top read showed "
                                f"{self.sweep_max_rows} rows > "
                                f"{spec.topk}")
        ep.digest = self._digest()

    def _digest(self) -> str:
        h = hashlib.sha256()
        h.update(f"events={self.ep.events};delivered="
                 f"{self.ep.delivered};".encode())
        for watcher in self.watchers:
            dproc = self.dprocs[watcher]
            for host in self.names:
                for fname in self.spec.digest_files:
                    h.update(dproc.read(
                        f"/proc/cluster/{host}/{fname}").encode())
        return h.hexdigest()[:16]


# -- live ------------------------------------------------------------------


class _LiveEpisode:
    """One ``Scenario(backend="live")`` run in this process."""

    #: Loop-lag probe period (seconds), traced runs only.
    PROBE_PERIOD = 0.005
    #: Reference-clock sample period (seconds) in the measured window.
    SPEED_PERIOD = 0.25

    def __init__(self, spec: LiveSpec, seed: int, tracer) -> None:
        self.spec = spec
        self.seed = seed
        self.tracer = tracer
        self.ep = Episode()
        self.marks: dict[str, float] = {}
        self.window: dict[str, float] = {}
        self._probe_task = None
        self._speed_task = None

    def run(self) -> None:
        from repro.api import Scenario
        from repro.dproc import DMonConfig

        spec = self.spec
        scenario = (
            Scenario(nodes=spec.nodes, seed=self.seed, backend="live",
                     dmon=DMonConfig(poll_interval=spec.poll))
            .with_node_pool(1, watchers=spec.watchers)
            .with_cluster_setup(self._on_cluster)
            .with_setup(self._on_ready))
        self.clock = clock = RefClock()
        self.marks["begin"] = time.perf_counter()
        scenario.run(spec.wall_seconds)
        # one scale for the whole episode, from the loop timed at both
        # ends and every SPEED_PERIOD inside the window
        wall, ref = clock.lap()
        self.scale = ref / wall
        self.scenario = scenario

    def check(self) -> Episode:
        self._account()
        self._check()
        return self.ep

    # -- scenario hooks (run inside the event loop) ------------------------

    def _on_cluster(self, scenario) -> None:
        self.marks["cluster"] = time.perf_counter()

    def _on_ready(self, scenario) -> None:
        self.marks["ready"] = time.perf_counter()
        self.window["start"] = self._snapshot(scenario.runtime.nodes)
        scenario.runtime.on_teardown(self._on_teardown)
        self._speed_task = asyncio.ensure_future(self._speed())
        if self.tracer is not None:
            self._probe_task = asyncio.ensure_future(self._probe())

    def _on_teardown(self, runtime) -> None:
        self.marks["end"] = time.perf_counter()
        self.window["end"] = self._snapshot(runtime.nodes)
        self._speed_task.cancel()
        if self._probe_task is not None:
            self._probe_task.cancel()

    async def _speed(self) -> None:
        """Samples the host's speed while the nodes run (about 2% of
        the loop's time goes to the reference loop)."""
        while True:
            await asyncio.sleep(self.SPEED_PERIOD)
            self.clock.sample()

    async def _probe(self) -> None:
        """Sleep-overshoot probe: how late the loop wakes a sleeper."""
        period = self.PROBE_PERIOD
        perf = time.perf_counter
        while True:
            t0 = perf()
            await asyncio.sleep(period)
            self.tracer.sample("loop.lag_s", perf() - t0 - period)

    @staticmethod
    def _snapshot(nodes) -> dict[str, float]:
        regs = [node.telemetry for node in nodes]
        names = (f"kecho.{MONITOR}.submits", f"kecho.{MONITOR}.receives",
                 f"kecho.{MONITOR}.failed_deliveries", "dmon.polls",
                 "dmon.records_published", "net.tx_wire_frames",
                 "net.tx_wire_bytes", "net.backpressure_drops")
        out = {name: _sum(regs, name) for name in names}
        out["kecho.fanout_total"] = _fanout_total(regs)
        out["cpu_s"] = time.process_time()
        return out

    def _account(self) -> None:
        ep, spec, marks = self.ep, self.spec, self.marks
        ep.setup = {"cluster": (marks["cluster"] - marks["begin"])
                    * self.scale,
                    "deploy": (marks["ready"] - marks["cluster"])
                    * self.scale}
        ep.run_wall = marks["end"] - marks["ready"]
        ep.run_ref = ep.run_wall * self.scale
        start, end = self.window["start"], self.window["end"]
        delta = {k: end[k] - start[k] for k in end}
        ep.audience = spec.watchers
        # whole-run totals for the account; window deltas for rates
        ep.submits = int(end[f"kecho.{MONITOR}.submits"])
        ep.attempted = ep.submits * ep.audience
        ep.failed = int(end[f"kecho.{MONITOR}.failed_deliveries"])
        ep.delivered = int(delta[f"kecho.{MONITOR}.receives"])
        total_delivered = int(end[f"kecho.{MONITOR}.receives"])
        ep.in_flight = ep.attempted - total_delivered - ep.failed
        ep.extra = {
            "window.polls": delta["dmon.polls"],
            "window.polls_due": spec.nodes * ep.run_wall / spec.poll,
            "window.cpu_s": delta["cpu_s"],
            "window.wire_writes": delta["net.tx_wire_frames"],
            "window.wire_bytes": delta["net.tx_wire_bytes"],
            "backpressure.drops": end["net.backpressure_drops"],
            "dmon.polls": end["dmon.polls"],
            "dmon.records_published": end["dmon.records_published"],
            "kecho.fanout_total": end["kecho.fanout_total"],
            "total.delivered": float(total_delivered),
        }

    def _check(self) -> None:
        ep, spec = self.ep, self.spec
        problems = ep.problems
        dprocs = self.scenario.dprocs
        hosts = set(dprocs)
        if len(hosts) != spec.nodes:
            problems.append(f"{len(hosts)} dprocs for {spec.nodes} nodes")
        for watcher in list(dprocs)[:spec.watchers]:
            heard = set(dprocs[watcher].dmon.peer_last_heard)
            missing = hosts - heard - {watcher}
            if missing:
                problems.append(f"watcher {watcher} never heard "
                                f"{len(missing)} hosts")
        if ep.in_flight < 0:
            problems.append(f"more deliveries than submits x audience "
                            f"({ep.extra['total.delivered']:.0f} > "
                            f"{ep.attempted})")
        # frames still on the wire at teardown: at most a few polls'
        # worth per publisher
        if ep.in_flight > 4 * spec.nodes * spec.watchers:
            problems.append(f"{ep.in_flight} deliveries unaccounted "
                            f"for at teardown")
        if ep.delivered == 0:
            problems.append("nothing was delivered in the window")
