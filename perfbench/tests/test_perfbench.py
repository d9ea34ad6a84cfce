"""Tests for the benchmark's own code (small cluster sizes)."""

from __future__ import annotations

import gc
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import layers
import refclock
import run
from host import FingerprintMismatch, check_comparable, fingerprint
from workloads import SPECS, run_episode, small_spec

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _owners():
    """Every (owner, attribute) the tracer wraps."""
    import importlib
    points = []
    for module_path, owner_name, attr, _layer, _entry in \
            layers.LAYER_POINTS:
        module = importlib.import_module(module_path)
        owner = module if owner_name is None \
            else getattr(module, owner_name)
        points.append((owner, attr))
    for cls in layers._module_classes():
        for attr in layers._MODULE_METHODS:
            if attr in cls.__dict__:
                points.append((cls, attr))
    return points


# -- layer wrappers --------------------------------------------------------


def test_wrappers_are_removed_after_a_traced_run():
    missing = object()
    before = {(owner, attr): owner.__dict__.get(attr, missing)
              for owner, attr in _owners()}
    run.traced(small_spec("sim-alltoall"), seed=1)
    after = {(owner, attr): owner.__dict__.get(attr, missing)
             for owner, attr in _owners()}
    assert after == before


def test_untraced_episodes_run_unwrapped_code():
    tracer = layers.LayerTracer()
    tracer.install()
    assert tracer.installed
    tracer.remove()
    assert not tracer.installed
    run_episode(small_spec("sim-alltoall"), 1)
    assert all(entry.calls == 0 for entry in tracer.entries.values())


def test_self_times_partition_the_traced_wall():
    _episodes, problems, m = run.traced(small_spec("sim-fleet-topk"), 4)
    assert problems == []
    selfs = sum(m[f"{layer}.self_s"] for layer in layers.LAYERS)
    assert m["other.self_s"] >= 0.0
    assert selfs + m["other.self_s"] == pytest.approx(m["trace.wall_s"],
                                                      abs=1e-9)


def test_reference_clock_laps_exclude_its_loop_and_keep_the_collector():
    clock = refclock.RefClock()
    assert gc.isenabled()
    wall, ref = clock.lap()
    # the loop ran between the two ends, not inside the lap
    assert 0 < wall < refclock.loop_seconds()
    assert ref > 0
    assert gc.isenabled()


# -- metric names and BENCHMARK.json ---------------------------------------


def test_metric_names_and_units_fit_the_format():
    names = [name for name, _u, _b in run.E2E + run.PER_LAYER]
    assert len(names) == len(set(names))
    for name, unit, better in run.E2E + run.PER_LAYER:
        assert NAME.match(name), name
        assert UNIT.match(unit), unit
        assert better in ("higher", "lower")


def test_benchmark_json_matches_the_runner():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"])
            for m in doc["end_to_end"]] == list(run.E2E)
    assert [(m["name"], m["unit"], m["better"])
            for m in doc["per_layer"]] == list(run.PER_LAYER)
    names = [w["name"] for w in doc["workloads"]]
    assert names == list(run.SEEDS) == list(SPECS)
    for name, (default, heldout) in run.SEEDS.items():
        assert default != heldout, name


# -- smoke runs ------------------------------------------------------------


@pytest.mark.parametrize("workload", list(SPECS))
def test_untraced_smoke_run_passes_its_checks(workload):
    episodes, problems, metrics = run.measure(small_spec(workload), 5, 0.2)
    assert problems == []
    assert all(ep.failed == 0 and ep.attempted >= 1 for ep in episodes)
    assert list(metrics) == [n for n, _u, _b in run.E2E]
    assert len(episodes) >= run.MIN_EPISODES
    assert metrics["delivered_frac"] == 1.0
    assert all(value > 0 for value in metrics.values())
    if SPECS[workload].backend == "sim":
        assert len({ep.digest for ep in episodes}) == 1


@pytest.mark.parametrize("workload", list(SPECS))
def test_traced_smoke_run_reports_every_layer(workload):
    spec = small_spec(workload)
    _episodes, problems, metrics = run.traced(spec, 5)
    assert problems == []
    assert sorted(metrics) == sorted(n for n, _u, _b in run.PER_LAYER)
    assert metrics["bench.self_s"] > 0
    if spec.backend == "sim":
        # the bypass predictions: no frames are encoded on sim ...
        assert metrics["codec.frames"] == 0
        assert metrics["codec.self_s"] == 0
        assert metrics["kernel.events"] > 0
        # ... only the sweep reads /proc (the checks run untraced)
        reads = metrics["procfs.reads"]
        if spec.sweep_every is None:
            assert reads == 0
        else:
            assert reads > 0
    else:
        assert metrics["codec.frames"] > 0
        assert metrics["live.deliver_samples"] > 0
        assert metrics["loop.lag_samples"] > 0
    if getattr(spec, "topk", None) is None:
        # ... and without a filter E-code never runs
        assert metrics["ecode.compiles"] == 0
        assert metrics["ecode.filter_calls"] == 0
    else:
        assert metrics["ecode.compiles"] == spec.nodes
        assert 0 < metrics["ecode.keep_ratio"] < 1


def test_sim_digest_is_a_function_of_the_seed():
    spec = small_spec("sim-alltoall")
    a, b, c = (run_episode(spec, seed) for seed in (1, 1, 2))
    assert a.digest == b.digest
    assert a.digest != c.digest


# -- fingerprint -----------------------------------------------------------


def test_results_from_different_hosts_are_refused(tmp_path, capsys):
    here = fingerprint(ROOT)
    other = json.loads(json.dumps(here))
    other["context"]["loadavg_start"] = [9.0, 9.0, 9.0]
    check_comparable(here, other)  # context differences are fine
    other["host"]["cpu_model"] = "another CPU"
    with pytest.raises(FingerprintMismatch):
        check_comparable(here, other)

    record = {"workload": "sim-alltoall", "trace": 0,
              "fingerprint": here,
              "metrics": {"setup_s": {"value": 1.0, "unit": "s"}}}
    base, change = tmp_path / "a.json", tmp_path / "b.json"
    base.write_text(json.dumps(record))
    change.write_text(json.dumps(dict(record, fingerprint=other)))
    assert compare.main(["--base", str(base), "--change", str(base)]) == 0
    assert compare.main(["--base", str(base),
                         "--change", str(change)]) == 3


def test_a_tree_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload",
         "sim-alltoall", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
