"""Spread of one set of benchmark results, or a verdict between two.

    python3 perfbench/compare.py RESULTS.jsonl
    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds run records appended by `run.py --out`. Every (metric,
workload) pair gets its own row with the median and quartiles
(`statistics.quantiles(values, n=4)`) of each set. Ungated metrics of the
record (`op_p90_ms`) are compared too, with no bound.

One set: the spread (q3 - q1) / median next to the metric's bound from
BENCHMARK.json.

Two sets: runs are paired by seed (by order where seeds differ). The
verdict is `better` when NEW wins at least 9 of 10 pairs (ties count for
neither side) and the medians differ by more than BASE's quartile spread,
`worse` on the same rule the other way, and `unresolved` otherwise. The
`bound` column is `ok` when NEW's median is not worse than BASE's by more
than the bound and BASE's spread is within it, `over` when it is worse by
more, and `wide` when either set's spread exceeds the bound and not every
NEW run beats every BASE run.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from collections import defaultdict

WIN_SHARE = 0.9


def load(path: str) -> dict:
    """(workload, metric) -> [(seed, value)] in file order."""
    runs = defaultdict(list)
    with open(path) as fh:
        for line in fh:
            if line.strip():
                record = json.loads(line)
                for name, metric in {**record["metrics"], **record.get("ungated", {})}.items():
                    runs[(record["workload"], name)].append((record["seed"], metric["value"]))
    return runs


def metric_specs() -> dict:
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "BENCHMARK.json")
    with open(path) as fh:
        doc = json.load(fh)
    return {m["name"]: m for m in doc["end_to_end"] + doc["per_layer"]}


def quartiles(values: list) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list) -> float:
    """(q3 - q1) / median; a metric that is always 0 has no spread."""
    q1, q2, q3 = quartiles(values)
    if q2 == 0:
        return 0.0 if q3 == q1 else float("inf")
    return (q3 - q1) / abs(q2)


def _pairs(base: list, new: list) -> list:
    base_by_seed, new_by_seed = dict(base), dict(new)
    common = [s for s in base_by_seed if s in new_by_seed]
    if len(common) == min(len(base), len(new)):
        return [(base_by_seed[s], new_by_seed[s]) for s in common]
    return [(b, n) for (_, b), (_, n) in zip(base, new)]


def verdict(base: list, new: list, spec: dict) -> tuple[str, str]:
    sign = 1 if spec.get("better") == "higher" else -1  # sign * (new - base) > 0 is a gain
    b_vals, n_vals = [v for _, v in base], [v for _, v in new]
    b1, bm, b3 = quartiles(b_vals)
    nm = quartiles(n_vals)[1]
    pairs = _pairs(base, new)
    wins = sum(sign * (n - b) > 0 for b, n in pairs)
    losses = sum(sign * (n - b) < 0 for b, n in pairs)
    gain = sign * (nm - bm)
    if wins >= WIN_SHARE * len(pairs) and gain > b3 - b1:
        result = "better"
    elif losses >= WIN_SHARE * len(pairs) and -gain > b3 - b1:
        result = "worse"
    else:
        result = "unresolved"
    bound = spec.get("bound")
    if bound is None:
        return result, "-"
    if -gain > bound * abs(bm):
        return result, "over"
    all_better = min(sign * n for n in n_vals) > max(sign * b for b in b_vals)
    if max(spread(b_vals), spread(n_vals)) > bound and not all_better:
        return result, "wide"
    return result, "ok"


def main(argv: list) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    specs = metric_specs()
    sets = [load(path) for path in argv]
    order = {name: i for i, name in enumerate(specs)}
    keys = sorted(set(sets[0]) & set(sets[-1]), key=lambda k: (order.get(k[1], len(order)), k[0]))
    if len(sets) == 1:
        print(f"{'metric':40s} {'workload':8s} {'runs':>4s} {'q1':>12s} {'median':>12s} {'q3':>12s} "
              f"{'spread':>7s} {'bound':>6s}")
        for key in keys:
            values = [v for _, v in sets[0][key]]
            q1, q2, q3 = quartiles(values)
            bound = specs.get(key[1], {}).get("bound")
            print(f"{key[1]:40s} {key[0]:8s} {len(values):4d} {q1:12.6g} {q2:12.6g} {q3:12.6g} "
                  f"{spread(values):7.3f} {bound if bound is not None else '-':>6}")
        return 0
    print(f"{'metric':40s} {'workload':8s} {'base q1/median/q3':>32s} {'new q1/median/q3':>32s} "
          f"{'verdict':>10s} {'bound':>5s}")
    for key in keys:
        base, new = sets[0][key], sets[1][key]
        b = "/".join(f"{v:.4g}" for v in quartiles([v for _, v in base]))
        n = "/".join(f"{v:.4g}" for v in quartiles([v for _, v in new]))
        result, bound = verdict(base, new, specs.get(key[1], {}))
        print(f"{key[1]:40s} {key[0]:8s} {b:>32s} {n:>32s} {result:>10s} {bound:>5s}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
