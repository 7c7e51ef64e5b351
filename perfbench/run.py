"""pdmkeo benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload {algebra,spectra,defect,cli} \
        --seed N --seconds S --trace {0,1} [--out results.jsonl]

Run it from the root of a checkout; it uses the sources under `src/`.
Every workload runs in a fresh worker interpreter, one operation at a time
(a closed loop with one caller), with BLAS threads capped at the number of
usable CPUs. With `--trace 0` it reports the end-to-end metrics listed in
BENCHMARK.json; `setup_s` is the median over several fresh interpreters.
With `--trace 1` it reports the per-layer metrics from a traced run and
writes the spans to `.perfbench/`.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. The line before it is the full run
record (environment, seed, operation counts, failure causes, the
ungated `op_p90_ms` and the outcomes of the known-defect probe); `--out`
appends that record to a JSON-lines file for `compare.py`.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPS = 4
WORKER_TIMEOUT_S = 150


def _git_commit() -> "str | None":
    if not os.path.isdir(".git"):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _worker(args, mode: str, env: dict, spans: "str | None" = None) -> dict:
    argv = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode]
    if spans:
        argv += ["--spans", spans]
    proc = subprocess.run(argv, stdout=subprocess.PIPE, env=env, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("algebra", "spectra", "defect", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="append the run record to this JSON-lines file")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join("src", "pdmkeo", "__init__.py")):
        print("error: run from the root of a pdmkeo checkout (src/pdmkeo not found)", file=sys.stderr)
        return 2
    with open("BENCHMARK.json") as fh:
        listed = json.load(fh)["per_layer" if args.trace else "end_to_end"]

    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ, PYTHONPATH=os.path.abspath("src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(nproc)

    try:
        if args.trace:
            os.makedirs(".perfbench", exist_ok=True)
            spans = os.path.join(".perfbench", f"spans-{args.workload}-seed{args.seed}.jsonl")
            result = _worker(args, "trace", env, spans)
            values = result["per_layer"]
        else:
            setup = [_worker(args, "setup", env)["setup_s"] for _ in range(SETUP_REPS)]
            result = _worker(args, "measure", env)
            setup.append(result["setup_s"])
            result["setup_samples"] = setup
            values = dict(result, setup_s=statistics.median(setup))
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    missing = [m["name"] for m in listed if m["name"] not in values]
    if missing:
        print(f"error: metrics not produced: {', '.join(missing)}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    # p90 is kept out of BENCHMARK.json: on a shared host it spreads past any allowed bound
    ungated = {} if args.trace else {"op_p90_ms": {"value": result["op_p90_ms"], "unit": "ms"}}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "env": {"nproc": nproc, "blas_threads": nproc, "git_commit": _git_commit(),
                **result["versions"]},
        "op_counts": result["op_counts"], "samples": result["samples"],
        "beyond_p90": result["beyond_p90"], "elapsed_s": result["elapsed_s"],
        "fail_ratio": {"value": result["fail_ratio"], "unit": "ratio"},
        "fail_causes": result["fail_causes"], "setup_samples": result.get("setup_samples"),
        "known_defect": result.get("known_defect"),
        "metrics": metrics, "ungated": ungated,
    }
    final = {"correct": result["wrong"] == 0, "attempted": result["attempted"],
             "failed": result["failed"], "metrics": metrics}
    record.update({k: final[k] for k in ("correct", "attempted", "failed")})
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(json.dumps(record) + "\n")
    for name, m in {**metrics, **ungated}.items():
        print(f"{args.workload:8s} {name:40s} {m['value']:.6g} {m['unit']}")
    print(f"{args.workload:8s} {'fail_ratio':40s} {result['fail_ratio']:.6g} ratio "
          f"{json.dumps(result['fail_causes'])}")
    print(f"{args.workload:8s} {'samples':40s} {result['samples']} ({result['beyond_p90']} beyond p90)")
    if "known_defect" in result:
        print(f"{args.workload:8s} {'known_defect':40s} {json.dumps(result['known_defect'])}")
    print(json.dumps({"record": record}))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
