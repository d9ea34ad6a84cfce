"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload sim-alltoall --seed 1 \\
        --seconds 15 --trace 0

Runs episodes of one workload (seeded set-up + fixed span of
monitoring traffic, see ``workloads.py``) until ``--seconds`` of run
phase have been measured, checks every episode's outputs, and prints
two lines to standard output:

1. a full record — workload, seed, host fingerprint, sim digest,
   per-episode figures and every metric (``--out`` also writes it to
   a file, for ``compare.py``);
2. the result line ``{"correct", "attempted", "failed", "metrics"}``
   with the end-to-end metrics (``--trace 0``) or the per-layer
   metrics of a traced run (``--trace 1``).

``--trace 1`` runs one episode with the layer wrappers of
``layers.py`` installed between two untraced episodes, and removes the
wrappers again; the difference between the traced episode and the
untraced ones is reported as the tracing overhead.

Times are in reference seconds (``refclock.py``): host seconds scaled
by the speed of a fixed loop timed beside the measured spans, so that
the host's own drift cancels.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: End-to-end metrics: (name, unit, better).
E2E = (
    ("setup_s", "s", "lower"),
    ("delivered_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("delivered_frac", "ratio", "higher"),
)

#: Per-layer metrics of a traced run: (name, unit, better).
PER_LAYER = (
    ("setup.cluster_s", "s", "lower"),
    ("setup.dproc_s", "s", "lower"),
    ("setup.mount_s", "s", "lower"),
    ("setup.start_s", "s", "lower"),
    ("procfs.mounts", "count", "lower"),
    ("procfs.reads", "count", "higher"),
    ("procfs.read_us", "us", "lower"),
    ("procfs.self_s", "s", "lower"),
    ("toolkit.self_s", "s", "lower"),
    ("ecode.compiles", "count", "lower"),
    ("ecode.compile_ms", "ms", "lower"),
    ("ecode.filter_calls", "count", "higher"),
    ("ecode.filter_self_s", "s", "lower"),
    ("ecode.keep_ratio", "ratio", "lower"),
    ("ecode.self_s", "s", "lower"),
    ("kernel.events", "count", "lower"),
    ("kernel.self_s", "s", "lower"),
    ("cpu_model.calls", "count", "lower"),
    ("cpu_model.self_s", "s", "lower"),
    ("net.sends", "count", "lower"),
    ("net.drops", "count", "lower"),
    ("net.self_s", "s", "lower"),
    ("kecho.submits", "count", "higher"),
    ("kecho.deliveries", "count", "higher"),
    ("kecho.fanout_mean", "count", "higher"),
    ("kecho.self_s", "s", "lower"),
    ("dmon.polls", "count", "higher"),
    ("dmon.publish_ratio", "ratio", "lower"),
    ("dmon.poll_lag", "ratio", "lower"),
    ("dmon.self_s", "s", "lower"),
    ("tees.series_appends", "count", "lower"),
    ("tees.telemetry_ops", "count", "lower"),
    ("tees.self_s", "s", "lower"),
    ("codec.frames", "count", "lower"),
    ("codec.encode_us", "us", "lower"),
    ("codec.decode_us", "us", "lower"),
    ("codec.self_s", "s", "lower"),
    ("wire.writes", "count", "lower"),
    ("wire.frames_per_delivery", "ratio", "lower"),
    ("wire.bytes_per_delivery", "B", "lower"),
    ("wire.self_s", "s", "lower"),
    ("loop.lag_ms_p50", "ms", "lower"),
    ("loop.lag_ms_p99", "ms", "lower"),
    ("loop.lag_samples", "count", "higher"),
    ("loop.busy_frac", "ratio", "lower"),
    ("loop.self_s", "s", "lower"),
    ("live.deliver_p50_ms", "ms", "lower"),
    ("live.deliver_p99_ms", "ms", "lower"),
    ("live.deliver_samples", "count", "higher"),
    ("backpressure.drops", "count", "lower"),
    ("delivery.failed_frac", "ratio", "lower"),
    ("bench.self_s", "s", "lower"),
    ("other.self_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)

#: Workload -> (default seed, held-out seed).  The held-out seed is
#: kept out of day-to-day tuning so a claimed gain can be rechecked
#: on inputs the change was not written against: pass it with
#: ``--seed``.
SEEDS = {
    "sim-alltoall": (1, 7919),
    "sim-fleet-topk": (2, 7907),
    "live-saturate": (3, 7901),
}

#: Episodes per untraced run: at least this many (two sim episodes of
#: one seed must agree on their digest; medians need three) ...
MIN_EPISODES = 3
#: ... and at most this many, however short they are.
MAX_EPISODES = 40


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _percentile(values, q: float) -> float:
    """Nearest-rank percentile (0 when there are no samples)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _episode_record(ep) -> dict:
    return {"setup": {k: round(v, 6) for k, v in ep.setup.items()},
            "run_wall": round(ep.run_wall, 6),
            "run_ref": round(ep.run_ref, 6),
            "delivered_per_s": round(ep.delivered_per_s, 3),
            "submits": ep.submits, "audience": ep.audience,
            "attempted": ep.attempted, "delivered": ep.delivered,
            "failed": ep.failed, "in_flight": ep.in_flight,
            "events": ep.events, "digest": ep.digest,
            "problems": ep.problems}


def _consistency(spec, episodes) -> list[str]:
    """Cross-episode checks: one seed, one digest (sim)."""
    problems = [p for ep in episodes for p in ep.problems]
    if spec.backend == "sim":
        digests = {ep.digest for ep in episodes}
        if len(digests) != 1:
            problems.append(f"episodes of one seed disagree: digests "
                            f"{sorted(digests)}")
    return problems


def measure(spec, seed: int, seconds: float):
    """Untraced episodes until ``seconds`` of run phase are measured."""
    from workloads import run_episode
    episodes = []
    measured = 0.0
    cpus = sorted(os.sched_getaffinity(0))
    while len(episodes) < MIN_EPISODES or measured < seconds:
        os.sched_setaffinity(0, {cpus[len(episodes) % len(cpus)]})
        gc.collect()
        ep = run_episode(spec, seed)
        episodes.append(ep)
        measured += ep.run_wall
        print(f"perfbench: episode {len(episodes)} setup "
              f"{ep.setup_s:.3f}s run {ep.run_wall:.3f}s "
              f"{ep.delivered_per_s:.1f}/s", file=sys.stderr)
        if len(episodes) >= MAX_EPISODES:
            break
    os.sched_setaffinity(0, cpus)
    problems = _consistency(spec, episodes)
    settled = sum(ep.attempted - ep.in_flight for ep in episodes)
    failed = sum(ep.failed for ep in episodes)
    metrics = {
        "setup_s": _median(ep.setup_s for ep in episodes),
        "delivered_per_s": _median(ep.delivered_per_s
                                   for ep in episodes),
        "peak_rss_mb": _peak_rss_mb(),
        "delivered_frac": (1.0 - failed / settled) if settled else 0.0,
    }
    return episodes, problems, metrics


def traced(spec, seed: int):
    """An episode with every layer wrapped, between two untraced ones.

    The untraced episodes on either side give the tracing overhead;
    averaging them cancels a slow drift of the host's speed.
    """
    from layers import LayerTracer
    from workloads import MONITOR, run_episode

    gc.collect()
    before = run_episode(spec, seed)
    tracer = LayerTracer()
    add = tracer.add

    def sampled(args, kwargs, result) -> None:
        add("dmon.records_sampled", len(result))

    def sampled_keyed(args, kwargs, result) -> None:
        # a keyed row carries three values, as d-mon counts published
        # full rows
        add("dmon.records_sampled", 3 * len(result))

    def filter_rows(args, kwargs, result) -> None:
        keyed = args[3] if len(args) > 3 else kwargs.get("keyed")
        add("ecode.rows_in", len(keyed or ()))
        add("ecode.rows_out", len(result.emitted))

    def latency(args, kwargs, result) -> None:
        endpoint, msg = args[0], args[1]
        if endpoint.name == MONITOR:
            tracer.sample("live.deliver_s", endpoint.node.env.now
                          - msg.payload.submitted_at)

    tracer.hook("module.collect", sampled)
    tracer.hook("module.keyed_collect", sampled_keyed)
    tracer.hook("NetStack.send_many",
                lambda args, kwargs, result: add("net.sends", len(args[1])))
    tracer.hook("Connection.send",
                lambda args, kwargs, result: add("net.sends"))
    tracer.hook("FilterManager.run", filter_rows)
    if spec.backend == "live":
        # sim delivery times are virtual; only live latency is wall time
        tracer.hook("ChannelEndpoint._on_message", latency)
    gc.collect()
    ep = run_episode(spec, seed, tracer=tracer)
    gc.collect()
    after = run_episode(spec, seed)
    episodes = [before, ep, after]
    problems = _consistency(spec, episodes)
    metrics = layer_metrics(spec, (before, after), ep, tracer)
    return episodes, problems, metrics


def _cost(ep) -> float:
    """Run-phase reference seconds per delivery."""
    return ep.run_ref / ep.delivered if ep.delivered else 0.0


def layer_metrics(spec, bases, ep, tracer) -> dict:
    """Every :data:`PER_LAYER` metric from one traced episode ``ep``;
    ``bases`` are the untraced episodes run beside it.  Layer self
    times and ``trace.wall_s`` are wall seconds of the traced set-up
    and run phase."""
    entry = tracer.entry
    selfs = tracer.layer_self()
    extra = ep.extra
    m: dict[str, float] = {}
    if spec.backend == "sim":
        # the benchmark's own set-up code times each phase; taken from
        # the untraced episodes so wrapper cost does not inflate them
        for phase in ("cluster", "dproc", "mount", "start"):
            m[f"setup.{phase}_s"] = _median(b.setup[phase]
                                            for b in bases)
    else:
        scale = ep.run_ref / ep.run_wall
        mount = entry("toolkit.add_cluster_node").incl_s * scale
        start = entry("toolkit.start").incl_s * scale
        m["setup.cluster_s"] = ep.setup["cluster"]
        m["setup.mount_s"] = mount
        m["setup.start_s"] = start
        m["setup.dproc_s"] = max(0.0, ep.setup["deploy"] - mount - start)
    reads = entry("procfs.read")
    m["procfs.mounts"] = entry("procfs.mount").calls
    m["procfs.reads"] = reads.calls
    m["procfs.read_us"] = (reads.incl_s / reads.calls * 1e6
                           if reads.calls else 0.0)
    compile_, filt = entry("ecode.compile"), entry("ecode.filter")
    m["ecode.compiles"] = compile_.calls
    m["ecode.compile_ms"] = compile_.incl_s * 1e3
    m["ecode.filter_calls"] = filt.calls
    m["ecode.filter_self_s"] = filt.self_s
    rows_in = tracer.values.get("ecode.rows_in", 0.0)
    m["ecode.keep_ratio"] = (tracer.values.get("ecode.rows_out", 0.0)
                             / rows_in if rows_in else 0.0)
    m["kernel.events"] = ep.events
    m["cpu_model.calls"] = entry("cpu_model.call").calls
    m["net.sends"] = tracer.values.get("net.sends", 0.0)
    m["net.drops"] = extra.get("net.drops", 0.0)
    m["kecho.submits"] = ep.submits
    m["kecho.deliveries"] = extra.get("total.delivered", ep.delivered)
    m["kecho.fanout_mean"] = (extra.get("kecho.fanout_total", 0.0)
                              / ep.submits if ep.submits else 0.0)
    polls = extra.get("dmon.polls", 0.0)
    m["dmon.polls"] = polls
    sampled = tracer.values.get("dmon.records_sampled", 0.0)
    m["dmon.publish_ratio"] = (extra.get("dmon.records_published", 0.0)
                               / sampled if sampled else 0.0)
    if spec.backend == "sim":
        due = spec.nodes * spec.sim_seconds / spec.poll
        m["dmon.poll_lag"] = max(0.0, 1.0 - polls / due)
    else:
        m["dmon.poll_lag"] = max(0.0, 1.0 - extra["window.polls"]
                                 / extra["window.polls_due"])
    m["tees.series_appends"] = entry("tees.series").calls
    m["tees.telemetry_ops"] = entry("tees.telemetry").calls
    enc, dec = entry("codec.encode"), entry("codec.decode")
    m["codec.frames"] = enc.calls
    m["codec.encode_us"] = enc.incl_s / enc.calls * 1e6 if enc.calls \
        else 0.0
    m["codec.decode_us"] = dec.incl_s / dec.calls * 1e6 if dec.calls \
        else 0.0
    # live counts cover the measured window, like ep.delivered
    writes = extra.get("window.wire_writes", 0.0)
    m["wire.writes"] = writes
    m["wire.frames_per_delivery"] = (writes / ep.delivered
                                     if ep.delivered else 0.0)
    m["wire.bytes_per_delivery"] = (
        extra.get("window.wire_bytes", 0.0) / ep.delivered
        if ep.delivered else 0.0)
    lag = [s * 1e3 for s in tracer.samples.get("loop.lag_s", ())]
    m["loop.lag_ms_p50"] = _percentile(lag, 50)
    m["loop.lag_ms_p99"] = _percentile(lag, 99)
    m["loop.lag_samples"] = len(lag)
    m["loop.busy_frac"] = (extra["window.cpu_s"] / ep.run_wall
                           if spec.backend == "live" and ep.run_wall
                           else 0.0)
    lat = [s * 1e3 for s in tracer.samples.get("live.deliver_s", ())]
    m["live.deliver_p50_ms"] = _percentile(lat, 50)
    m["live.deliver_p99_ms"] = _percentile(lat, 99)
    m["live.deliver_samples"] = len(lat)
    m["backpressure.drops"] = extra.get("backpressure.drops", 0.0)
    settled = ep.attempted - ep.in_flight
    m["delivery.failed_frac"] = ep.failed / settled if settled else 0.0
    for layer, seconds in selfs.items():
        m[f"{layer}.self_s"] = seconds
    m["other.self_s"] = tracer.wall_s - sum(selfs.values())
    m["trace.wall_s"] = tracer.wall_s
    base_cost = statistics.fmean(_cost(b) for b in bases)
    m["trace.overhead_frac"] = (_cost(ep) / base_cost - 1.0 if base_cost
                                else 0.0)
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="dproc reproduction benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(SEEDS))
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the workload's "
                             "default seed)")
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="run-phase seconds to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None,
                        help="also write the full record here")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return _fail(f"no repro sources under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from host import fingerprint
    from workloads import SPECS

    seed = args.seed if args.seed is not None else SEEDS[args.workload][0]
    spec = SPECS[args.workload]
    record = {"workload": args.workload, "seed": seed,
              "trace": args.trace, "fingerprint": fingerprint(ROOT)}
    if args.trace:
        episodes, problems, values = traced(spec, seed)
        table = PER_LAYER
    else:
        episodes, problems, values = measure(spec, seed, args.seconds)
        table = E2E
    correct = not problems
    attempted = sum(ep.attempted for ep in episodes)
    failed = sum(ep.failed for ep in episodes) if correct else attempted
    if not correct and not args.trace:
        values["delivered_frac"] = 0.0
    metrics = {name: {"value": float(values[name]), "unit": unit}
               for name, unit, _better in table}
    record.update(digest=episodes[-1].digest, problems=problems,
                  episodes=[_episode_record(ep) for ep in episodes],
                  metrics=metrics)
    if args.out is not None:
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(record))
    print(json.dumps({"correct": correct, "attempted": max(1, attempted),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
