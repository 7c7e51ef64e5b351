"""One workload in a fresh interpreter.

    python3 perfbench/worker.py --workload W --seed N --seconds S --mode setup|measure|trace

`setup` times `import pdmkeo` plus the workload's warm-up call and exits.
`measure` does the same, then runs whole rounds of the workload for about
S seconds with tracing off. `trace` runs about S seconds of rounds with
every second round traced and reports the per-layer metrics of the traced
rounds. Both then run the workload's known-defect probe, if it has one,
untimed. The last line of stdout is one JSON object.

Only the standard library is imported before the timed import of pdmkeo.
"""

import argparse
import contextlib
import json
import math
import sys
import time


def _quantile(ordered: list, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: a Beta-weighted mean of all
    order statistics, much less noisy than one order statistic when only a
    few samples lie beyond q."""
    from scipy.stats import beta

    n = len(ordered)
    edges = beta.cdf([i / n for i in range(n + 1)], q * (n + 1), (1 - q) * (n + 1))
    return float(sum((edges[i + 1] - edges[i]) * x for i, x in enumerate(ordered)))


class Context:
    """What an operation may need besides its inputs: the package and a
    span factory (a no-op unless tracing)."""

    def __init__(self, pk):
        self.pk = pk
        self.tracer = None

    def span(self, name):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()


def _rounds(workload: str, ctx: Context):
    import workloads as w

    table = {
        "algebra": (w.algebra_round, w.algebra_warmup),
        "spectra": (w.spectra_round, w.spectra_warmup),
        "defect": (w.defect_round, w.defect_warmup),
        "cli": (lambda rng: w.cli_round(rng, ctx.span), w.cli_warmup),
    }
    return table[workload]


def run_op(op, ctx: Context, op_id: int) -> dict:
    pk, tracer = ctx.pk, ctx.tracer
    if tracer:
        tracer.op_id = op_id
    cause, wrong = None, False
    start = time.perf_counter()
    try:
        with ctx.span(f"op.{op.kind}"):
            out = op.run(pk)
    except pk.errors.KeoError as exc:
        cause = type(exc).__name__
    except Exception as exc:  # a crash is a wrong answer, not a refusal
        cause, wrong = f"unexpected {type(exc).__name__}: {exc}", True
    latency = time.perf_counter() - start
    if cause is None:
        try:
            reason = op.check(out)
        except Exception as exc:
            reason = f"check raised {type(exc).__name__}: {exc}"
        if reason:
            cause, wrong = f"wrong: {reason}", True
    if tracer:
        tracer.op_id = None
    return {"kind": op.kind, "latency": latency, "cause": cause, "wrong": wrong,
            "tags": op.tags, "id": op_id}


def run_rounds(round_fn, seed: int, seconds: float, ctx: Context, tracer=None):
    """Whole rounds, at least one, stopping at the round end nearest to `seconds`.

    With a tracer, every second round is traced (at least one of each), so
    the untraced and traced rounds see the same conditions. Returns the
    untraced records, the traced records and the elapsed time."""
    import random

    rng = random.Random(seed)
    plain: list = []
    traced: list = []
    start = time.perf_counter()
    rounds = 0
    while True:
        tracing = tracer is not None and rounds % 2 == 1
        if tracing:
            tracer.install(ctx.pk)
            ctx.tracer = tracer
        try:
            for op in round_fn(rng):
                (traced if tracing else plain).append(run_op(op, ctx, len(plain) + len(traced)))
        finally:
            if tracing:
                tracer.uninstall()
                ctx.tracer = None
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed * (rounds + 0.5) / rounds > seconds and (tracer is None or rounds >= 2):
            return plain, traced, elapsed


def summarize(records: list, elapsed: float) -> dict:
    ok = [r for r in records if r["cause"] is None]
    busy = sum(r["latency"] for r in records)
    # a failed operation misses every latency limit: it counts as the whole run
    ordered = sorted(r["latency"] if r["cause"] is None else elapsed for r in records)

    causes: dict = {}
    kinds: dict = {}
    for r in records:
        kinds[r["kind"]] = kinds.get(r["kind"], 0) + 1
        if r["cause"] is not None:
            causes[r["cause"]] = causes.get(r["cause"], 0) + 1
    return {
        "throughput_ops_s": len(ok) / busy,
        "op_p50_ms": 1000.0 * _quantile(ordered, 0.5),
        "op_p90_ms": 1000.0 * _quantile(ordered, 0.9),
        "fail_ratio": 1 - len(ok) / len(records),
        "attempted": len(records),
        "failed": len(records) - len(ok),
        "wrong": sum(r["wrong"] for r in records),
        "fail_causes": causes,
        "op_counts": kinds,
        "samples": len(ordered),
        "beyond_p90": len(ordered) - math.ceil(0.9 * len(ordered)),
        "elapsed_s": elapsed,
    }


def known_defect_probe(workload: str, seed: int, ctx: Context) -> "dict | None":
    """Outcome counts of the workload's known-defect probe, untimed."""
    import random
    import workloads as w

    if workload not in w.PROBES:
        return None
    outcomes: dict = {}
    ops = w.PROBES[workload](random.Random(seed))
    for op in ops:
        cause = run_op(op, ctx, -1)["cause"] or "ok"
        outcomes[cause] = outcomes.get(cause, 0) + 1
    return {"ops": len(ops), "outcomes": outcomes}


def peak_rss_mb(workload: str) -> float:
    import resource

    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def _wall(argv: list, reps: int = 3) -> float:
    import statistics
    import subprocess

    times = []
    for _ in range(reps):
        start = time.perf_counter()
        subprocess.run(argv, check=True, capture_output=True, timeout=60)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def per_layer(tracer, records: list, untraced: dict, traced: dict) -> dict:
    from tracer import TRACED
    import workloads as w

    n_ops = len(records)
    stats = tracer.aggregate()
    out = {}
    for module, names in TRACED.items():
        for fn in names:
            s = stats.get(f"{module}.{fn}", {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "fail": 0})
            for key, value in s.items():
                out[f"{module}.{fn}.{key}"] = value / n_ops
    for command in w.CLI_COMMANDS:
        out[f"cli.{command}.busy_s"] = stats.get(f"cli.{command}", {"busy_s": 0.0})["busy_s"] / n_ops
    for name in ("surds.irrational_terms", "classify.region_samples.points",
                 "discretize.matrix_bytes", "spectra.solve.matrix_bytes"):
        out[name] = tracer.counters.get(name, 0) / n_ops

    largest = [r for r in records if r["tags"].get("n") == max(w.SPECTRA_SIZES) and r["cause"] is None]
    ids = {r["id"] for r in largest}
    op_time = sum(r["latency"] for r in largest)
    for name in ("spectra.solve", "spectra.hamiltonian", "discretize.assemble_terms"):
        out[f"{name}.share_n{max(w.SPECTRA_SIZES)}"] = (
            tracer.busy_in_ops(name, ids) / op_time if op_time else 0.0)

    interpreter = _wall([sys.executable, "-c", "pass"])
    out["cli.interpreter_s"] = interpreter
    out["cli.import_s"] = _wall([sys.executable, "-c", "import pdmkeo"]) - interpreter
    out["trace.untraced_ops_s"] = untraced["throughput_ops_s"]
    out["trace.traced_ops_s"] = traced["throughput_ops_s"]
    out["trace.overhead_ops_s"] = untraced["throughput_ops_s"] - traced["throughput_ops_s"]
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=("algebra", "spectra", "defect", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "measure", "trace"))
    parser.add_argument("--spans", default=None, help="file for the traced run's spans")
    args = parser.parse_args()

    start = time.perf_counter()
    import pdmkeo as pk

    import_s = time.perf_counter() - start
    ctx = Context(pk)
    round_fn, warmup_fn = _rounds(args.workload, ctx)
    warmup = warmup_fn()
    start = time.perf_counter()
    for op in warmup:
        op.run(pk)
    setup_s = import_s + time.perf_counter() - start
    result = {"setup_s": setup_s}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    import numpy
    import scipy

    result["versions"] = {"python": sys.version.split()[0], "numpy": numpy.__version__,
                          "scipy": scipy.__version__}
    if args.mode == "measure":
        records, _, elapsed = run_rounds(round_fn, args.seed, args.seconds, ctx)
        # before summarize, whose scipy.stats import is not the workload's memory
        result["peak_rss_mb"] = peak_rss_mb(args.workload)
        result.update(summarize(records, elapsed))
    else:
        from tracer import Tracer

        tracer = Tracer()
        plain, records, elapsed = run_rounds(round_fn, args.seed, args.seconds, ctx, tracer)
        traced = summarize(records, elapsed)
        result.update(traced)
        result["per_layer"] = per_layer(tracer, records, summarize(plain, elapsed), traced)
        if args.spans:
            tracer.write(args.spans)
    probe = known_defect_probe(args.workload, args.seed, ctx)
    if probe:
        result["known_defect"] = probe
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
