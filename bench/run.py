"""Run one phtlink benchmark workload and print its metrics.

Usage, from the repository root:

    python3 bench/run.py --workload exact-100k --seed 1 --seconds 45 --trace 0

One client drives the protocol in a closed loop, one run in flight at a
time, starting runs until ``--seconds`` have passed and at least three
runs have been made. Every run's output is
checked against the library's own result on the same inputs. With
``--trace 0`` the end-to-end metrics are printed; with ``--trace 1`` untraced
and traced runs alternate and the per-layer metrics of the traced runs are
printed. The last line of standard output is one JSON object; the metric
names and units are those in BENCHMARK.json. See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import threading
import time
from collections import Counter
from dataclasses import asdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TAIL_BEYOND = 10  # samples a tail percentile must have above it
# Every invocation runs at least this many times, however slow the host, and
# peak_rss_mb is read after this many runs: run_network leaves threads behind
# on TCP, so a peak read at the end would grow with the number of runs.
MIN_RUNS = 3
# Set-up is repeated before each run until it has taken this long, or this
# many times, so that a short set-up (0.1 s on prob-gender-4k) is sampled more
# than once per run without crowding out the runs of tcp-1k (0.02 s).
SETUP_MIN_S = 0.5
SETUP_MAX_REPEATS = 10


def tail(durations: list[float]) -> tuple[float, float, int] | None:
    """(percentile, value, samples) of the highest percentile with at least
    TAIL_BEYOND samples beyond it; a failed run (inf) is beyond any value."""
    n = len(durations)
    if n <= TAIL_BEYOND:
        return None
    k = n - TAIL_BEYOND
    return 100.0 * k / n, sorted(durations)[k - 1], n


def max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def set_up(w, workloads, seed: int, run_id: str):
    """Inputs from the seed, fresh keys and a signed manifest, with the
    seconds they took to build."""
    started = time.perf_counter()
    inputs = workloads.generate(w, seed)
    setup = workloads.make_setup(w, inputs, run_id)
    return inputs, setup, time.perf_counter() - started


def timed_run(w, workloads, setup, capture, tracer=None):
    gc.collect()
    capture.pairs = None
    started = time.perf_counter()
    if tracer is None:
        outcome = workloads.run_once(w, setup)
    else:
        with tracer.run("network.run_network", setup.manifest.run_id):
            outcome = workloads.run_once(w, setup)
    seconds = time.perf_counter() - started
    return workloads.summarize(outcome, seconds, capture.pairs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "phtlink" / "__init__.py").is_file():
        print(f"no phtlink source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import phtlink.network
    import phtlink.stations

    import layers
    import workloads
    from spans import Tracer

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    w = workloads.WORKLOADS[args.workload]
    why = next((x["why"] for x in spec["workloads"] if x["name"] == w.name),
               "not in BENCHMARK.json; see bench/README.md")

    tracer = Tracer() if args.trace else None
    runs, traced, setup_times, generate_times = [], [], [], []
    with workloads.LinkCapture(phtlink.stations) as capture:
        deadline = time.perf_counter() + args.seconds
        while len(runs) < MIN_RUNS or time.perf_counter() < deadline:
            # Every run is set up afresh, so set-up is timed as often as runs
            # are and at the same points in time: host speed drifts over tens
            # of seconds, and a set-up timed only at the start would see one
            # moment of it.
            spent, repeats = 0.0, 0
            while spent < SETUP_MIN_S and repeats < SETUP_MAX_REPEATS:
                inputs = setup = None  # release the previous copy before building the next
                inputs, setup, seconds = set_up(w, workloads, args.seed, f"run-{len(runs):06d}")
                setup_times.append(seconds)
                generate_times.append(inputs.generate_s)
                spent, repeats = spent + seconds, repeats + 1
            runs.append(timed_run(w, workloads, setup, capture))
            if len(runs) == MIN_RUNS:
                peak_rss_mb = max_rss_mb()
            if tracer is not None:
                setup = workloads.make_setup(w, inputs, f"run-{len(runs):06d}-traced")
                layers.install(tracer, phtlink.stations, phtlink.network)
                try:
                    traced.append((setup.manifest.run_id,
                                   timed_run(w, workloads, setup, capture, tracer)))
                finally:
                    tracer.unwrap()
    final_rss_mb = max_rss_mb()

    ref = workloads.reference(w, inputs)
    every = runs + [r for _, r in traced]
    verdicts = [workloads.check(w, ref, r) for r in every]
    reasons = Counter(v for v in verdicts if v is not None)
    # a wrong released answer or storage left behind is incorrect output; an
    # aborted run that cleaned up is a failed operation
    correct = all(
        (v is None or v.startswith("aborted:")) and r.storage_clean
        for v, r in zip(verdicts, every)
    )
    ok = [r for r, v in zip(runs, verdicts) if v is None] or runs

    def scored(run) -> tuple[float, float]:
        hits = len(run.pairs & ref.truth) if run.pairs is not None else 0
        linked = len(run.pairs) if run.pairs else 0
        return hits / len(ref.truth), (hits / linked if linked else 0.0)

    print(f"workload {w.name}  seed {args.seed}  transport {w.transport}  "
          f"closed loop, 1 client, {len(every)} runs")
    print(f"  why: {why}")
    if tracer is None:
        values = {
            "run_s": statistics.median(r.seconds for r in ok),
            "tse_ingress_bytes": statistics.median(r.tse_ingress_bytes for r in ok),
            "peak_rss_mb": peak_rss_mb,
            "recall": statistics.median(scored(r)[0] for r in ok),
            "precision": statistics.median(scored(r)[1] for r in ok),
            "setup_s": statistics.median(setup_times),
        }
        wanted = spec["end_to_end"]
        durations = [r.seconds if v is None else float("inf")
                     for r, v in zip(runs, verdicts)]
        t = tail(durations)
        tail_text = (f"{t[1]:.6g} s (p{t[0]:.1f} of {t[2]} runs, {TAIL_BEYOND} beyond it)"
                     if t else f"not reported ({len(runs)} runs; a tail needs "
                     f"{TAIL_BEYOND + 1} or more)")
        n_failed = sum(reasons.values())
        extra = [
            ("run_s_tail", tail_text),
            ("run_failures", f"{n_failed / len(every):.6g} ratio ({n_failed} of {len(every)} "
                             "runs attempted)"),
            ("run_s, each run", " ".join(f"{r.seconds:.3f}" for r in runs) + " s"),
            ("setup_s, each set-up", " ".join(f"{s:.3f}" for s in setup_times) + " s"),
            ("peak RSS, all runs", f"{final_rss_mb:.6g} MB after {len(runs)} runs"),
            ("threads alive", f"{threading.active_count()} count after the runs"),
        ]
    else:
        per_run = [layers.run_metrics(tracer, run_id)
                   for (run_id, r), v in zip(traced, verdicts[len(runs):]) if v is None]
        values = {
            name: statistics.fmean(m[name] for m in per_run)
            for name in layers.SOURCES if per_run and name in per_run[0]
        }
        values["synth.generate_s"] = statistics.median(generate_times)
        traced_ok = [r.seconds for (_, r), v in zip(traced, verdicts[len(runs):]) if v is None]
        if traced_ok:
            values["trace.overhead_s"] = (statistics.median(traced_ok)
                                          - statistics.median(r.seconds for r in ok))
        wanted = spec["per_layer"]
        extra = [("traced runs", f"{len(traced_ok)} correct of {len(traced)}")]
        out_dir = ROOT / "bench" / "out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{w.name}-seed{args.seed}.json"
        spans_path.write_text(json.dumps([asdict(s) for s in tracer.spans]))
        extra.append(("spans written to", str(spans_path.relative_to(ROOT))))

    metrics = {}
    for m in wanted:
        if m["name"] in values:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
            print(f"  {m['name']:28s} {values[m['name']]:.6g} {m['unit']}")
        else:
            print(f"  {m['name']:28s} MISSING (a wrapped name no longer exists or no run completed)")
    for name, text in extra:
        print(f"  {name:28s} {text}")
    print(f"  {'abort/check reasons':28s} {dict(reasons) if reasons else 'none'}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(every),
        "failed": sum(reasons.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
