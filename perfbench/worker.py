"""One workload in its own process: set up, warm up, run the timed phase, check.

Run by ``run.py``; prints one JSON line with the operation times, counts,
check failures and (when traced) the per-layer figures.  With
``--setup-only`` it stops after importing the program and making the inputs,
which is what ``run.py`` times for ``setup_s``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import shutil
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import inputs  # noqa: E402  (imports ddcident from ROOT/src)

OUT_DIR = os.path.join(ROOT, ".perfbench_out")


def _peak_rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


class Tally:
    """Operation times, failures and root counts of one or more timed phases.

    ``unexpected`` counts the failures that the workload's named fault does
    not explain; any of them makes the run incorrect."""

    def __init__(self):
        self.times, self.messages = [], []
        self.failed = self.unexpected = self.reported = self.confirmed = 0
        self.wall = 0.0


def timed_phase(op, check, items, start: int, seconds: float, tally: Tally, after_op=None,
                named_fault=None):
    """Closed loop with one caller: run ``op`` over ``items`` in whole rounds
    until ``seconds`` of wall time have passed.  Each answer is checked right
    after its operation; the time the benchmark spends checking (and in
    ``after_op``) is kept out of ``tally.wall``.  ``named_fault(msgs)`` tells
    whether a failure comes from the fault the workload keeps; without it
    every failure is unexpected."""
    n = len(items)
    own = 0.0
    t_start = time.perf_counter()
    i = 0
    while True:
        t0 = time.perf_counter()
        try:
            res, err = op(items[(start + i) % n]), None
        except Exception as exc:  # an operation that raises counts as failed
            res, err = None, f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        tally.times.append(t1 - t0)
        msgs, rep, conf = ([err], 0, 0) if err else check(res)
        tally.reported += rep
        tally.confirmed += conf
        if msgs:
            tally.failed += 1
            tally.unexpected += named_fault is None or not named_fault(msgs)
            tally.messages.extend(msgs[:3])
        if after_op is not None:
            after_op()
        own += time.perf_counter() - t1
        i += 1
        if time.perf_counter() - t_start - own >= seconds and i % n == 0:
            break
    tally.wall += time.perf_counter() - t_start - own


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    items = inputs.make_inputs(args.workload, args.seed)
    if args.setup_only:
        return 0
    if args.seconds is None:
        ap.error("--seconds is required unless --setup-only is given")

    import spans
    import workloads

    wl = args.workload
    os.makedirs(OUT_DIR, exist_ok=True)
    run_dir = os.path.join(OUT_DIR, f"{wl}-{args.seed}-{os.getpid()}")
    # the named faddeev_adj_det fault makes every single-large operation
    # fail; any other failure means the program gave a wrong answer
    named_fault = workloads.is_large_fault if wl == "single-large" else None
    start = args.seed % len(items)

    warm = Tally()  # its answers are checked too, but not reported
    if wl == "cli-cold":
        counter = itertools.count()

        def op(item):
            return workloads.cli_round(os.path.join(run_dir, str(next(counter))))

        items = [None]
        # no warm-up round: each command starts a fresh interpreter, and the
        # setup probes have already read the program's files.  The first
        # round that completes is the reference for byte-identical artifacts.
        reference = {}

        def check(res):
            if not reference:
                reference.update({k: checks.read_artifacts(d) for k, d in res["dirs"].items()})
            msgs = workloads.check_cli(res, reference)
            for d in res["dirs"].values():
                shutil.rmtree(d, ignore_errors=True)
            return msgs, 0, 0
    else:
        op, check = {
            "single-entry": (workloads.single_entry_op, workloads.check_single_entry),
            "single-large": (workloads.single_large_op, workloads.check_single_large),
            "game-mpe": (workloads.game_op, workloads.check_game),
        }[wl]
        # warm up: the first calls in a process pay lazy set-up
        timed_phase(op, check, items, 0, 0.0, warm, named_fault=named_fault)

    tally = Tally()
    out = {}
    if args.trace:
        timed_phase(op, check, items, start, args.seconds / 2, tally, named_fault=named_fault)
        untraced_p50 = statistics.median(tally.times)
        n_untraced = len(tally.times)
        tracer = spans.Tracer()
        tracer.install()
        after = None
        cli_bytes = []
        if wl == "cli-cold":
            from ddcident import cli
            cli_counter = itertools.count()

            def after():
                # the same three commands run warm in this process, traced
                d = os.path.join(run_dir, f"warm{next(cli_counter)}")
                with tracer.span("cli-round"):
                    for label, argv in inputs.CLI_COMMANDS:
                        cli.main([*argv, "--out-dir", os.path.join(d, label)])
                cli_bytes.append(sum(os.path.getsize(os.path.join(p, f))
                                     for p, _, fs in os.walk(d) for f in fs))
                shutil.rmtree(d, ignore_errors=True)

        def traced_op(item):
            with tracer.span("op"):
                return op(item)

        timed_phase(traced_op, check, items, start, args.seconds / 2, tally, after, named_fault)
        tracer.uninstall()
        trace_path = os.path.join(OUT_DIR, f"trace-{wl}-{args.seed}.json")
        tracer.dump(trace_path)
        traced = tally.times[n_untraced:]
        layers = tracer.layer_metrics(len(traced))
        layers["cli.artifact_bytes"] = statistics.fmean(cli_bytes) if cli_bytes else 0.0
        layers["trace.op_s.p50"] = statistics.median(traced)
        layers["trace.overhead_s"] = statistics.median(traced) - untraced_p50
        layers["identify.roots_reported"] = tally.reported / len(tally.times)
        layers["identify.roots_confirmed"] = tally.confirmed / len(tally.times)
        out["layers"] = layers
        out["trace_file"] = os.path.relpath(trace_path, ROOT)
    else:
        timed_phase(op, check, items, start, args.seconds, tally, named_fault=named_fault)

    out.update({
        "attempted": len(tally.times),
        "failed": tally.failed,
        "correct": tally.unexpected + warm.unexpected == 0,
        "messages": sorted(set(tally.messages))[:10],
        "op_times": tally.times,
        "wall": tally.wall,
        "peak_rss_mb": _peak_rss_mb(resource.RUSAGE_CHILDREN if wl == "cli-cold"
                                    else resource.RUSAGE_SELF),
    })
    shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
