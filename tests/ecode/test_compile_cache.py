"""The process-wide code-generation memo behind ``compile_filter``.

Code generation (lex → parse → analyse → ``ast`` → ``compile()``) runs
once per process for each ``(source, constants)`` pair; every deploy
still gets its own :class:`CompiledFilter` with its own constants and
sketch space.  These tests pin both halves: the work is shared, the
state is not.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dproc import METRIC_CONSTANTS, topk_source
from repro.dproc.filters import FilterManager
from repro.ecode import (DEFAULT_MAX_STEPS, CompiledFilter, MetricRecord,
                         compile_filter)
from repro.ecode.codegen import _generate
from repro.errors import FilterDeploymentError
from tests.properties.test_ecode_roundtrip import (CONSTS, KEYED,
                                                   programs,
                                                   sketch_programs)

TOPK = topk_source(3, "cpu", width=64, depth=3, seed=5)


def fresh(source: str, constants=METRIC_CONSTANTS) -> CompiledFilter:
    """A filter whose code was generated just now, bypassing the memo."""
    generated = _generate.__wrapped__(
        source, tuple(sorted(constants.items())))
    return CompiledFilter(source=source, constants=dict(constants),
                          max_steps=DEFAULT_MAX_STEPS,
                          _pyfunc=generated.pyfunc,
                          has_loops=generated.has_loops,
                          uses_sketch=generated.uses_sketch,
                          uses_keyed=generated.uses_keyed)


def stream(seed: int, polls: int = 6, procs: int = 20):
    """Deterministic per-poll keyed tables ``(pid, cpu, mem, io)``."""
    return [[(pid, ((pid * 7919 + poll * 104729 + seed) % 97) / 97.0,
              float(pid * 1000), float(seed)) for pid in range(procs)]
            for poll in range(polls)]


@pytest.fixture(autouse=True)
def cold_cache():
    _generate.cache_clear()
    yield
    _generate.cache_clear()


class TestSharedCode:
    def test_thousand_deploys_generate_once(self, cluster3):
        managers = [FilterManager(cluster3["alan"]) for _ in range(1000)]
        deployed = [m.deploy(TOPK, scope="proc", filter_id="topk")
                    for m in managers]
        info = _generate.cache_info()
        assert (info.misses, info.hits) == (1, 999)
        first = deployed[0].compiled
        assert all(d.compiled._pyfunc is first._pyfunc for d in deployed)
        assert len({id(d.compiled._sketch) for d in deployed}) == 1000
        assert len({id(d.compiled.constants) for d in deployed}) == 1000

    def test_modelled_compile_charge_stays_per_deploy(self, env,
                                                      cluster3):
        node = cluster3["alan"]
        for _ in range(3):
            FilterManager(node).deploy(TOPK, scope="proc")
        env.run()
        node.cpu.settle()
        assert node.cpu.busy_cpu_seconds \
            == pytest.approx(3 * node.costs.filter_compile)

    def test_flags_survive_the_memo(self):
        a = compile_filter(TOPK, constants=METRIC_CONSTANTS)
        b = compile_filter(TOPK, constants=METRIC_CONSTANTS)
        for filt in (a, b):
            assert (filt.has_loops, filt.uses_sketch, filt.uses_keyed) \
                == (True, True, True)

    def test_different_constants_get_different_entries(self):
        one = compile_filter("{ return X; }", constants={"X": 1})
        two = compile_filter("{ return X; }", constants={"X": 2})
        assert _generate.cache_info().misses == 2
        assert one([]).returned == 1
        assert two([]).returned == 2

    def test_bad_source_raises_on_every_deploy(self, cluster3):
        for _ in range(3):
            with pytest.raises(FilterDeploymentError, match="compile"):
                FilterManager(cluster3["alan"]).deploy("int x = ;")
        assert _generate.cache_info().currsize == 0


class TestSeparateState:
    def test_shared_code_keeps_per_filter_sketches(self):
        a = compile_filter(TOPK, constants=METRIC_CONSTANTS)
        b = compile_filter(TOPK, constants=METRIC_CONSTANTS)
        fa, fb = fresh(TOPK), fresh(TOPK)
        assert a._pyfunc is b._pyfunc
        assert fa._pyfunc is not a._pyfunc
        for rows_a, rows_b in zip(stream(1), stream(2)):
            for filt, rows in ((a, rows_a), (b, rows_b),
                               (fa, rows_a), (fb, rows_b)):
                filt.run([], keyed=rows)
        assert a.sketch_state() == fa.sketch_state()
        assert b.sketch_state() == fb.sketch_state()
        assert a.sketch_state() != b.sketch_state()

    def test_reset_is_per_filter(self):
        a = compile_filter(TOPK, constants=METRIC_CONSTANTS)
        b = compile_filter(TOPK, constants=METRIC_CONSTANTS)
        for filt in (a, b):
            filt.run([], keyed=stream(3)[0])
        state = b.sketch_state()
        a.reset_state()
        assert a.sketch_state() == b""
        assert b.sketch_state() == state


_values = st.floats(min_value=-1e3, max_value=1e3,
                    allow_nan=False, allow_infinity=False)


@st.composite
def records(draw) -> list[MetricRecord]:
    return [MetricRecord(name.lower(), draw(_values),
                         last_value_sent=draw(_values))
            for name in CONSTS]


class TestMemoisedEqualsFresh:
    @settings(max_examples=60, deadline=None)
    @given(programs(), records())
    def test_classic_programs(self, src, inputs):
        compile_filter(src, constants=CONSTS)  # warm the memo
        memo = compile_filter(src, constants=CONSTS)
        assert memo.run(inputs) == fresh(src, CONSTS).run(inputs)

    @settings(max_examples=60, deadline=None)
    @given(sketch_programs(), records())
    def test_sketch_programs(self, src, inputs):
        compile_filter(src, constants=CONSTS)
        memo = compile_filter(src, constants=CONSTS)
        ref = fresh(src, CONSTS)
        for _ in range(2):
            assert memo.run(inputs, keyed=list(KEYED)) \
                == ref.run(inputs, keyed=list(KEYED))
        assert memo.sketch_state() == ref.sketch_state()
