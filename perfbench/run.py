"""Benchmark of ddcident: one workload per call, end-to-end or traced.

    python3 perfbench/run.py --workload single-entry --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout.  The program is imported from
``src/`` of that checkout.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cli-cold", "single-entry", "single-large", "game-mpe")
SETUP_PROBES = 8
DEADLINE_S = 170.0
# one caller and no BLAS threads beyond it
THREAD_ENV = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}
IMPORT_MODULES = {"import.ddcident_s": "ddcident", "import.scipy_stats_s": "scipy.stats",
                  "import.scipy_linalg_s": "scipy.linalg"}
_IMPORTTIME = re.compile(r"import time:\s+\d+\s+\|\s+(\d+)\s+\|\s+(\S+)\s*$")


def _units() -> dict:
    """Unit of every metric, as ``BENCHMARK.json`` lists it."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def _importtimes(stderr: str) -> dict:
    """Cumulative import seconds of the modules in IMPORT_MODULES (``-X importtime``)."""
    cum = {}
    for line in stderr.splitlines():
        m = _IMPORTTIME.match(line)
        if m:
            cum.setdefault(m.group(2), int(m.group(1)) / 1e6)
    return {k: cum.get(mod, 0.0) for k, mod in IMPORT_MODULES.items()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    t_begin = time.monotonic()

    if not os.path.isfile(os.path.join(ROOT, "src", "ddcident", "__init__.py")):
        print(f"error: no program to measure: {os.path.join(ROOT, 'src', 'ddcident')} is missing",
              file=sys.stderr)
        return 2

    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), **THREAD_ENV)
    worker = os.path.join(HERE, "worker.py")
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    xopt = ["-X", "importtime"] if args.trace else []

    # setup_s: fresh interpreters that import the program and make the inputs
    setup, imports = [], []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        probe = subprocess.run([sys.executable, *xopt, worker, *common, "--setup-only"],
                               env=env, capture_output=True, text=True, timeout=60)
        setup.append(time.perf_counter() - t0)
        if probe.returncode != 0:
            print(probe.stderr, file=sys.stderr)
            return 1
        if args.trace:
            imports.append(_importtimes(probe.stderr))

    budget = DEADLINE_S - (time.monotonic() - t_begin)
    try:
        proc = subprocess.run([sys.executable, worker, *common, "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              env=env, capture_output=True, text=True, timeout=budget)
    except subprocess.TimeoutExpired:
        print("error: workload did not finish in time", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(proc.stderr, file=sys.stderr)
        return 1
    res = json.loads(proc.stdout.strip().splitlines()[-1])

    times = res["op_times"]
    info = {"workload": args.workload, "seed": args.seed, "samples": len(times),
            "op_s.mean": statistics.fmean(times), "setup_samples_s": setup,
            "messages": res["messages"]}
    if len(times) >= 100:
        info["op_s.p90"] = statistics.quantiles(times, n=10)[-1]
    if args.trace:
        values = dict(res["layers"])
        for key in IMPORT_MODULES:
            values[key] = statistics.median(d[key] for d in imports)
        info["trace_file"] = res["trace_file"]
    else:
        values = {
            "setup_s": statistics.median(setup),
            "op_s.p50": statistics.median(times),
            "ops_per_s": len(times) / res["wall"],
            "peak_rss_mb": res["peak_rss_mb"],
        }
    units = _units()
    metrics = {k: {"value": v, "unit": units[k]} for k, v in sorted(values.items())}
    print(json.dumps(info))
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
