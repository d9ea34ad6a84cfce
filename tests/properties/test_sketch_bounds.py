"""Property tests for the streaming-sketch primitives.

The guarantees the E-code stdlib advertises, checked over generated
workloads:

* **count-min never under-counts** — for every key, the estimate is at
  least the true accumulated weight (the sketch only merges keys,
  never loses weight);
* **count-min over-counts within ε·N** — with width ``w`` the estimate
  exceeds the truth by at most ``(e / w) · N`` where ``N`` is the total
  weight in the sketch (the classic Cormode–Muthukrishnan bound; with
  width 1024, depth 5 and ≤ 30 distinct keys the probability of the
  bound failing is ~1e-9 per query, and ``derandomize=True`` pins the
  examples, so this is deterministic in practice);
* **top-K matches the exact answer** — when each key is offered its
  exact cumulative weight and the k-th / (k+1)-th weights differ, the
  heap's membership equals ``sorted(...)[:k]`` computed naively;
* **same seed ⇒ byte-identical state** — two sketches fed the same
  multiset of updates (in any order) serialise to identical bytes;
* **per-key counters are exact** — no sketching, just bounded maps;
* **the inlined hash is the reference hash** — ``CountMinSketch.add``
  inlines splitmix64 on the hot path, and must touch exactly the cells
  that ``bucket(row, key)`` and :func:`mix64` name.
"""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ecode import CountMinSketch, KeyCounter, TopK
from repro.ecode.sketches import MAX_DEPTH, mix64

SETTINGS = settings(max_examples=200, derandomize=True, deadline=None)

WIDTH = 1024
DEPTH = 5

_keys = st.integers(min_value=-2**40, max_value=2**40)
_weights = st.floats(min_value=0.0, max_value=1e6,
                     allow_nan=False, allow_infinity=False)
_seeds = st.integers(min_value=0, max_value=2**32 - 1)

#: ≤ 30 distinct keys in a 1024-wide sketch keeps all-rows collisions
#: out of reach; weights per update stay moderate so float rounding
#: cannot eat the bound.
_updates = st.lists(st.tuples(_keys, _weights), min_size=1, max_size=60)


def _totals(updates):
    totals: dict[int, float] = {}
    for key, weight in updates:
        totals[key] = totals.get(key, 0.0) + weight
    return totals


class TestCountMinBounds:
    @SETTINGS
    @given(_updates, _seeds)
    def test_never_undercounts(self, updates, seed):
        cms = CountMinSketch(WIDTH, DEPTH, seed)
        for key, weight in updates:
            cms.add(key, weight)
        for key, true_weight in _totals(updates).items():
            # Tiny relative slack only for float summation order.
            assert cms.estimate(key) >= true_weight * (1 - 1e-9)

    @SETTINGS
    @given(_updates, _seeds)
    def test_overcount_within_epsilon_n(self, updates, seed):
        cms = CountMinSketch(WIDTH, DEPTH, seed)
        for key, weight in updates:
            cms.add(key, weight)
        epsilon = math.e / WIDTH
        total = cms.total
        for key, true_weight in _totals(updates).items():
            assert cms.estimate(key) <= true_weight + epsilon * total

    @SETTINGS
    @given(_updates, _seeds)
    def test_total_is_exact_sum(self, updates, seed):
        cms = CountMinSketch(WIDTH, DEPTH, seed)
        for key, weight in updates:
            cms.add(key, weight)
        exact = sum(w for _, w in updates)
        assert abs(cms.total - exact) <= 1e-9 * max(1.0, exact)

    @SETTINGS
    @given(_updates, _seeds)
    def test_unseen_key_estimates_at_most_epsilon_n(self, updates, seed):
        cms = CountMinSketch(WIDTH, DEPTH, seed)
        for key, weight in updates:
            cms.add(key, weight)
        probe = 2**50 + 1  # outside the generated key range
        assert cms.estimate(probe) <= (math.e / WIDTH) * cms.total


class TestTopKExactness:
    @SETTINGS
    @given(st.dictionaries(_keys, _weights, min_size=1, max_size=30),
           st.integers(min_value=1, max_value=8),
           st.randoms(use_true_random=False))
    def test_membership_matches_exact_sort(self, totals, k, rnd):
        """Offered exact cumulative weights, the heap's members equal
        the naive top-k whenever the boundary weights differ."""
        heap = TopK(k)
        items = list(totals.items())
        rnd.shuffle(items)
        for key, weight in items:
            heap.offer(key, weight)
        exact = sorted(totals.items(), key=lambda p: (-p[1], p[0]))
        if len(exact) > k and exact[k - 1][1] == exact[k][1]:
            return  # tie at the boundary: membership is unspecified
        assert {key for key, _ in heap.items()} \
            == {key for key, _ in exact[:k]}

    @SETTINGS
    @given(st.dictionaries(_keys, _weights, min_size=1, max_size=30),
           st.integers(min_value=1, max_value=8))
    def test_items_sorted_heaviest_first(self, totals, k):
        heap = TopK(k)
        for key, weight in totals.items():
            heap.offer(key, weight)
        items = heap.items()
        assert len(items) == min(k, len(totals))
        assert items == sorted(items, key=lambda p: (-p[1], p[0]))

    @SETTINGS
    @given(st.dictionaries(_keys, _weights, min_size=1, max_size=30),
           st.integers(min_value=1, max_value=8))
    def test_offer_is_increase_key(self, totals, k):
        """Re-offering a smaller weight never downgrades a member."""
        heap = TopK(k)
        for key, weight in totals.items():
            heap.offer(key, weight)
        before = dict(heap.items())
        for key in before:
            heap.offer(key, 0.0)
        assert dict(heap.items()) == before


class TestDeterminism:
    @SETTINGS
    @given(_updates, _seeds)
    def test_same_seed_same_bytes(self, updates, seed):
        """Same seed, same update sequence → byte-identical state."""
        a = CountMinSketch(WIDTH, DEPTH, seed)
        b = CountMinSketch(WIDTH, DEPTH, seed)
        for key, weight in updates:
            a.add(key, weight)
        for key, weight in updates:
            b.add(key, weight)
        assert a.snapshot() == b.snapshot()

    @SETTINGS
    @given(st.lists(st.tuples(_keys,
                              st.integers(min_value=0, max_value=10**6)),
                    min_size=1, max_size=60),
           _seeds, st.randoms(use_true_random=False))
    def test_integer_weights_are_order_invariant(self, updates, seed,
                                                 rnd):
        """With exactly-representable weights the state is a pure
        function of the update *multiset* (float rounding is the only
        reason real-valued updates care about order)."""
        a = CountMinSketch(WIDTH, DEPTH, seed)
        b = CountMinSketch(WIDTH, DEPTH, seed)
        shuffled = list(updates)
        rnd.shuffle(shuffled)
        for key, weight in updates:
            a.add(key, float(weight))
        for key, weight in shuffled:
            b.add(key, float(weight))
        assert a.snapshot() == b.snapshot()

    @SETTINGS
    @given(_updates, _seeds)
    def test_estimates_are_reproducible(self, updates, seed):
        a = CountMinSketch(WIDTH, DEPTH, seed)
        b = CountMinSketch(WIDTH, DEPTH, seed)
        for key, weight in updates:
            assert a.add(key, weight) == b.add(key, weight)


class TestCounterExactness:
    @SETTINGS
    @given(_updates)
    def test_counter_sums_exactly(self, updates):
        counter = KeyCounter(tag=1)
        for key, weight in updates:
            counter.add(key, weight)
        for key, true_weight in _totals(updates).items():
            assert counter.get(key) == true_weight \
                or abs(counter.get(key) - true_weight) \
                <= 1e-9 * max(1.0, true_weight)


_MASK64 = (1 << 64) - 1
_signed_keys = st.integers(min_value=-2**63, max_value=2**63 - 1)


class TestInlinedHash:
    @SETTINGS
    @given(_seeds, st.integers(min_value=1, max_value=4096),
           st.integers(min_value=1, max_value=MAX_DEPTH),
           st.lists(st.tuples(_signed_keys, _weights),
                    min_size=1, max_size=30))
    def test_add_touches_reference_cells(self, seed, width, depth,
                                         updates):
        cms = CountMinSketch(width, depth, seed)
        rows = [[0.0] * width for _ in range(depth)]
        for key, weight in updates:
            cells = [cms.bucket(row, key) for row in range(depth)]
            assert cells == [
                mix64(mix64(seed ^ (row * 0x9E3779B97F4A7C15))
                      ^ (key & _MASK64)) % width
                for row in range(depth)]
            for row, cell in enumerate(cells):
                rows[row][cell] += weight
            estimate = min(rows[row][cell]
                           for row, cell in enumerate(cells))
            assert cms.add(key, weight) == estimate
            assert cms.estimate(key) == estimate
        assert cms._rows == rows
