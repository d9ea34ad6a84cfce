"""Deterministic streaming-sketch primitives for E-code filters.

The eHashPipe idea recast for dproc: a publisher-side filter compresses
a per-key metric firehose (e.g. per-PID CPU counters) into a bounded
summary *before* submission.  Three primitives, all O(1) bounded
memory and reproducible — same seed, same stream ⇒ byte-identical
state (:meth:`SketchSpace.snapshot`):

* :class:`CountMinSketch` — seeded count-min: never under-counts, and
  over-counts by at most ε·N with probability 1-δ for width ``e/ε``
  and depth ``ln 1/δ`` (verified by ``tests/properties/
  test_sketch_bounds.py`` against exact reference counts);
* :class:`TopK` — a bounded heap of the K heaviest keys with
  increase-key semantics: offered the running count-min estimates, its
  membership equals the exact top-K whenever the k-th and (k+1)-th
  cumulative weights differ;
* :class:`KeyCounter` — exact per-key monotone counters with a bounded
  key universe, for small cardinalities where approximation is
  unnecessary.

Hashing is integer-only (splitmix64 finalisers), so placement is
identical across platforms and Python builds — no reliance on
``hash()`` randomisation.

Filters allocate these through :class:`SketchSpace`, the per-filter
object store that the code generator passes to every invocation as
``__sketch__``.  Allocation is memoised on the constructor arguments:
``cms_new(512, 4, 7)`` executed every poll returns the *same* handle,
so sketch state persists across invocations of one deployed filter —
and is dropped by :meth:`SketchSpace.reset` on DMon restart epochs so
counters never leak across a crash/reboot.
"""

from __future__ import annotations

import struct
from typing import Callable

from repro.errors import EcodeRuntimeError

__all__ = ["CountMinSketch", "TopK", "KeyCounter", "SketchSpace",
           "SKETCH_BUILTINS", "MAX_WIDTH", "MAX_DEPTH", "MAX_K",
           "mix64"]

#: Hard caps keeping every sketch O(1) bounded memory.
MAX_WIDTH = 65536
MAX_DEPTH = 16
MAX_K = 4096

_MASK64 = (1 << 64) - 1
_PHI = 0x9E3779B97F4A7C15  # 2^64 / golden ratio


def mix64(x: int) -> int:
    """splitmix64 finaliser: a fast, well-distributed 64-bit mixer."""
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _as_key(value: object) -> int:
    """Coerce a filter-supplied key to a signed 64-bit integer."""
    key = int(value)  # type: ignore[call-overload]
    return ((key + (1 << 63)) & _MASK64) - (1 << 63)


def _as_weight(name: str, value: object) -> float:
    weight = float(value)  # type: ignore[arg-type]
    if not weight >= 0.0:  # rejects negatives and NaN alike
        raise EcodeRuntimeError(
            f"{name}: weight must be non-negative, got {weight!r}")
    return weight


class CountMinSketch:
    """Seeded count-min sketch over 64-bit keys with float weights."""

    __slots__ = ("width", "depth", "seed", "total", "_rows", "_salts")

    def __init__(self, width: int, depth: int, seed: int) -> None:
        if not 1 <= width <= MAX_WIDTH:
            raise EcodeRuntimeError(
                f"cms width must be in [1, {MAX_WIDTH}], got {width}")
        if not 1 <= depth <= MAX_DEPTH:
            raise EcodeRuntimeError(
                f"cms depth must be in [1, {MAX_DEPTH}], got {depth}")
        self.width = int(width)
        self.depth = int(depth)
        self.seed = _as_key(seed) & _MASK64
        self.total = 0.0
        self._rows = [[0.0] * self.width for _ in range(self.depth)]
        #: One pre-mixed salt per row: bucket(row, key) needs a single
        #: mix on the hot path.
        self._salts = [mix64(self.seed ^ (row * _PHI))
                       for row in range(self.depth)]

    def bucket(self, row: int, key: int) -> int:
        return mix64(self._salts[row] ^ (key & _MASK64)) % self.width

    def add(self, key: int, weight: float) -> float:
        """Add ``weight`` to ``key``; returns the post-add estimate.

        The per-poll hot path: :meth:`bucket` and :func:`mix64` are
        inlined (same arithmetic, same cells).
        """
        est = float("inf")
        key &= _MASK64
        width = self.width
        for cells, salt in zip(self._rows, self._salts):
            x = salt ^ key
            x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
            x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
            bucket = (x ^ (x >> 31)) % width
            cell = cells[bucket] + weight
            cells[bucket] = cell
            if cell < est:
                est = cell
        self.total += weight
        return est

    def estimate(self, key: int) -> float:
        return min(self._rows[row][self.bucket(row, key)]
                   for row in range(self.depth))

    def snapshot(self) -> bytes:
        head = struct.pack(">IIQd", self.width, self.depth, self.seed,
                           self.total)
        body = b"".join(struct.pack(f">{self.width}d", *row)
                        for row in self._rows)
        return head + body


class TopK:
    """Bounded top-K table with increase-key and evict-min semantics.

    Offers carry *cumulative* weights (typically count-min estimates).
    A key's stored weight only ever increases; once full, the lightest
    entry is evicted for a strictly heavier newcomer, so the minimum
    retained weight is non-decreasing — with exact cumulative offers
    the final membership equals ``sorted(totals)[:k]`` whenever the
    k-th and (k+1)-th totals differ.
    """

    __slots__ = ("k", "_weights", "_order")

    def __init__(self, k: int) -> None:
        if not 1 <= k <= MAX_K:
            raise EcodeRuntimeError(
                f"top-K size must be in [1, {MAX_K}], got {k}")
        self.k = int(k)
        self._weights: dict[int, float] = {}
        self._order: list[tuple[int, float]] | None = None

    def offer(self, key: int, weight: float) -> int:
        """Offer ``key`` at ``weight``; 1 if retained, else 0."""
        current = self._weights.get(key)
        if current is not None:
            if weight > current:
                self._weights[key] = weight
                self._order = None
            return 1
        if len(self._weights) < self.k:
            self._weights[key] = weight
            self._order = None
            return 1
        lightest = min(self._weights,
                       key=lambda k_: (self._weights[k_], -k_))
        if weight > self._weights[lightest]:
            del self._weights[lightest]
            self._weights[key] = weight
            self._order = None
            return 1
        return 0

    def __len__(self) -> int:
        return len(self._weights)

    def items(self) -> list[tuple[int, float]]:
        """Retained ``(key, weight)`` pairs, heaviest first (ties by
        ascending key) — the deterministic ranking order."""
        if self._order is None:
            self._order = sorted(self._weights.items(),
                                 key=lambda p: (-p[1], p[0]))
        return self._order

    def snapshot(self) -> bytes:
        head = struct.pack(">II", self.k, len(self._weights))
        body = b"".join(struct.pack(">qd", key, weight)
                        for key, weight in self.items())
        return head + body


class KeyCounter:
    """Exact monotone per-key counters with a bounded key universe."""

    __slots__ = ("tag", "_counts")

    MAX_KEYS = 65536

    def __init__(self, tag: int) -> None:
        self.tag = _as_key(tag)
        self._counts: dict[int, float] = {}

    def add(self, key: int, delta: float) -> float:
        if key not in self._counts:
            if len(self._counts) >= self.MAX_KEYS:
                raise EcodeRuntimeError(
                    f"counter {self.tag} exceeded {self.MAX_KEYS} "
                    f"distinct keys")
            self._counts[key] = 0.0
        self._counts[key] += delta
        return self._counts[key]

    def get(self, key: int) -> float:
        return self._counts.get(key, 0.0)

    def __len__(self) -> int:
        return len(self._counts)

    def snapshot(self) -> bytes:
        head = struct.pack(">qI", self.tag, len(self._counts))
        body = b"".join(struct.pack(">qd", key, count)
                        for key, count in sorted(self._counts.items()))
        return head + body


#: E-code sketch builtins: name -> (argument kinds, result kind).
#: ``int`` arguments must be integer expressions (handles, keys,
#: ranks, shape parameters); ``num`` accepts int or double (weights).
SKETCH_BUILTINS: dict[str, tuple[tuple[str, ...], str]] = {
    "cms_new": (("int", "int", "int"), "int"),
    "cms_add": (("int", "int", "num"), "double"),
    "cms_estimate": (("int", "int"), "double"),
    "cms_total": (("int",), "double"),
    "topk_new": (("int",), "int"),
    "topk_offer": (("int", "int", "num"), "int"),
    "topk_size": (("int",), "int"),
    "topk_key": (("int", "int"), "int"),
    "topk_weight": (("int", "int"), "double"),
    "ctr_new": (("int",), "int"),
    "ctr_add": (("int", "int", "num"), "double"),
    "ctr_get": (("int", "int"), "double"),
}

_TAG_CMS = 1
_TAG_TOPK = 2
_TAG_CTR = 3


class SketchSpace:
    """Per-filter store of sketch objects, persistent across polls.

    The code generator passes one instance to every invocation of a
    compiled filter as ``__sketch__``; the ``cms_*``/``topk_*``/
    ``ctr_*`` builtins dispatch to the methods below.  ``*_new`` is
    memoised on its arguments so re-executing the allocation every
    poll yields a stable handle instead of a fresh sketch.
    """

    MAX_OBJECTS = 64

    def __init__(self) -> None:
        self._objects: dict[int, object] = {}
        self._memo: dict[tuple, int] = {}
        self._next_handle = 1

    def reset(self) -> None:
        """Drop all sketch state (DMon restart epochs call this)."""
        self._objects.clear()
        self._memo.clear()
        self._next_handle = 1

    def __len__(self) -> int:
        return len(self._objects)

    def snapshot(self) -> bytes:
        """Deterministic serialisation of every live object, in handle
        order — equal streams through equal programs ⇒ equal bytes."""
        parts = []
        for handle in sorted(self._objects):
            obj = self._objects[handle]
            tag = (_TAG_CMS if isinstance(obj, CountMinSketch)
                   else _TAG_TOPK if isinstance(obj, TopK) else _TAG_CTR)
            payload = obj.snapshot()  # type: ignore[attr-defined]
            parts.append(struct.pack(">IBI", handle, tag, len(payload)))
            parts.append(payload)
        return b"".join(parts)

    # -- allocation -------------------------------------------------------------

    def _alloc(self, memo_key: tuple,
               build: Callable[[], object]) -> int:
        handle = self._memo.get(memo_key)
        if handle is not None:
            return handle
        if len(self._objects) >= self.MAX_OBJECTS:
            raise EcodeRuntimeError(
                f"filter exceeded {self.MAX_OBJECTS} sketch objects")
        obj = build()  # validates parameters before the handle exists
        handle = self._next_handle
        self._next_handle += 1
        self._objects[handle] = obj
        self._memo[memo_key] = handle
        return handle

    def _get(self, name: str, handle: object, cls: type) -> object:
        obj = self._objects.get(int(handle))  # type: ignore[call-overload]
        if not isinstance(obj, cls):
            raise EcodeRuntimeError(
                f"{name}: {handle!r} is not a live "
                f"{cls.__name__} handle")
        return obj

    # -- count-min --------------------------------------------------------------

    def cms_new(self, width: int, depth: int, seed: int) -> int:
        return self._alloc(
            ("cms", int(width), int(depth), _as_key(seed)),
            lambda: CountMinSketch(int(width), int(depth), seed))

    def cms_add(self, handle: int, key: int, weight: object) -> float:
        cms = self._get("cms_add", handle, CountMinSketch)
        return cms.add(_as_key(key),  # type: ignore[attr-defined]
                       _as_weight("cms_add", weight))

    def cms_estimate(self, handle: int, key: int) -> float:
        cms = self._get("cms_estimate", handle, CountMinSketch)
        return cms.estimate(_as_key(key))  # type: ignore[attr-defined]

    def cms_total(self, handle: int) -> float:
        cms = self._get("cms_total", handle, CountMinSketch)
        return cms.total  # type: ignore[attr-defined]

    # -- top-K ------------------------------------------------------------------

    def topk_new(self, k: int) -> int:
        return self._alloc(("topk", int(k)), lambda: TopK(int(k)))

    def topk_offer(self, handle: int, key: int, weight: object) -> int:
        topk = self._get("topk_offer", handle, TopK)
        return topk.offer(_as_key(key),  # type: ignore[attr-defined]
                          _as_weight("topk_offer", weight))

    def topk_size(self, handle: int) -> int:
        return len(self._get("topk_size", handle, TopK))  # type: ignore[arg-type]

    def _rank(self, name: str, handle: object,
              rank: object) -> tuple[int, float]:
        topk = self._get(name, handle, TopK)
        items = topk.items()  # type: ignore[attr-defined]
        index = int(rank)  # type: ignore[call-overload]
        if not 0 <= index < len(items):
            raise EcodeRuntimeError(
                f"{name}: rank {index} out of range "
                f"(table holds {len(items)})")
        return items[index]

    def topk_key(self, handle: int, rank: int) -> int:
        return self._rank("topk_key", handle, rank)[0]

    def topk_weight(self, handle: int, rank: int) -> float:
        return self._rank("topk_weight", handle, rank)[1]

    def topk_items(self, handle: int) -> list[tuple[int, float]]:
        """Python-side accessor (not an E-code builtin): the ranked
        ``(key, weight)`` list d-mon publishes as a summary."""
        topk = self._get("topk_items", handle, TopK)
        return list(topk.items())  # type: ignore[attr-defined]

    # -- per-key counters -------------------------------------------------------

    def ctr_new(self, tag: int) -> int:
        return self._alloc(("ctr", _as_key(tag)),
                           lambda: KeyCounter(int(tag)))

    def ctr_add(self, handle: int, key: int, delta: object) -> float:
        ctr = self._get("ctr_add", handle, KeyCounter)
        return ctr.add(_as_key(key),  # type: ignore[attr-defined]
                       _as_weight("ctr_add", delta))

    def ctr_get(self, handle: int, key: int) -> float:
        ctr = self._get("ctr_get", handle, KeyCounter)
        return ctr.get(_as_key(key))  # type: ignore[attr-defined]
