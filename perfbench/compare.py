"""Compare benchmark records from two commits, measured on one host.

    python3 perfbench/compare.py --base a1.json a2.json ... \\
        --change b1.json b2.json ...

Each file is a full record written by ``run.py --out``.  The script
refuses (exit 3) when any record's host fingerprint differs from the
first base record's, or when the records mix workloads or trace
modes; otherwise it prints, per metric, each side's median and
quartiles and the change's median relative to the base's.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from host import FingerprintMismatch, check_comparable  # noqa: E402


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def load(paths: list[Path]) -> list[dict]:
    return [json.loads(path.read_text()) for path in paths]


def check(records: list[dict]) -> None:
    """Raise ValueError unless every record is comparable."""
    first = records[0]
    for record in records[1:]:
        check_comparable(first["fingerprint"], record["fingerprint"])
        for key in ("workload", "trace"):
            if record[key] != first[key]:
                raise ValueError(f"records differ in {key}: "
                                 f"{first[key]!r} != {record[key]!r}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", type=Path, nargs="+", required=True)
    parser.add_argument("--change", type=Path, nargs="+", required=True)
    args = parser.parse_args(argv)
    base, change = load(args.base), load(args.change)
    try:
        check(base + change)
    except (FingerprintMismatch, ValueError) as exc:
        print(f"compare: refused: {exc}", file=sys.stderr)
        return 3
    print(f"{'metric':28s} {'base median [q1, q3]':>34s} "
          f"{'change median [q1, q3]':>34s} {'change':>8s}")
    for name, meta in base[0]["metrics"].items():
        a = _quartiles([r["metrics"][name]["value"] for r in base])
        b = _quartiles([r["metrics"][name]["value"] for r in change])
        rel = f"{b[1] / a[1] - 1:+.1%}" if a[1] else "n/a"
        print(f"{name:28s} {a[1]:12.5g} [{a[0]:9.4g}, {a[2]:9.4g}] "
              f"{b[1]:12.5g} [{b[0]:9.4g}, {b[2]:9.4g}] {rel:>8s} "
              f"{meta['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
