#!/usr/bin/env python3
"""finsheaf benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload flagship --seed 1 --seconds 35 --trace 0

Run it from the root of a finsheaf checkout; it imports the package from
`src/`.  A run repeats rounds while the next one fits in --seconds.  A
round sets up twice (imports finsheaf afresh and builds the workload's
inputs), then runs every job of the workload once, each job timed on its
own and then checked.  The process is single-threaded and closed-loop: one
job after another.

--trace 0 reports the end-to-end metrics, with times scaled to a reference
machine speed: a timer runs a small calibration tick (see calibrate.py)
every TICK_EVERY_S, and each timing, with its ticks taken out, is scaled by
the ticks inside and around it.  --trace 1 alternates untraced rounds with
up to TRACED_ROUNDS traced ones, reports the per-layer metrics of the
traced rounds (median over them) and the tracing overhead, and writes
every span to .perfbench_out/.  The last line of stdout is one JSON
object; the lines before it repeat the figures for people.  The exit code
is 0 only when every job gave a correct answer.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import importlib
import json
import resource
import signal
import statistics
import sys
from pathlib import Path
from time import perf_counter

import calibrate
from tracer import MODULES, Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUPS_PER_ROUND = 2
# The machine's speed swings within seconds, so calibration ticks run inside
# the timed work; one takes about 7 ms.
TICK_EVERY_S = 0.08
# Traced rounds hold about 600k spans each on flagship; three give a median.
TRACED_ROUNDS = 3


def load_finsheaf():
    """Import finsheaf afresh, so that every setup pays the import."""
    for name in [m for m in sys.modules if m == "finsheaf" or m.startswith("finsheaf.")]:
        del sys.modules[name]
    fs = importlib.import_module("finsheaf")
    importlib.import_module("finsheaf.cli")
    importlib.import_module("finsheaf.jsonio")
    return fs


class Speedometer:
    """Times work at the reference machine speed.

    While it runs, a timer interrupts the process every TICK_EVERY_S to run
    calibrate.tick().  `settle` takes the ticks out of each timing and
    scales what is left by REFERENCE_S / the mean of the ticks that fell
    inside it, the one before it and the one after it."""

    def __init__(self):
        self.ticks = []  # (start, end, seconds measured) of each tick
        self.timings = []  # (start, end, raw sink, scaled sink)
        self.running = False
        signal.signal(signal.SIGALRM, self._on_alarm)

    def start(self):
        self.running = True
        self._tick()
        signal.setitimer(signal.ITIMER_REAL, TICK_EVERY_S)

    def stop(self):
        self.running = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._tick()  # the tick after the last timing

    def _on_alarm(self, signum, frame):
        self._tick()
        if self.running:
            signal.setitimer(signal.ITIMER_REAL, TICK_EVERY_S)

    def _tick(self):
        t0 = perf_counter()
        seconds = calibrate.tick()
        self.ticks.append((t0, perf_counter(), seconds))

    def add(self, start, end, raw, scaled):
        """Record work timed from start to end; its seconds go to the two
        sinks when the run is settled."""
        self.timings.append((start, end, raw, scaled))

    def settle(self):
        # A tick runs between two bytecodes of the timed work, so each one
        # lies wholly inside a timing or wholly outside it.
        starts = [t[0] for t in self.ticks]
        for start, end, raw, scaled in self.timings:
            lo, hi = bisect.bisect_left(starts, start), bisect.bisect_left(starts, end)
            inside = self.ticks[lo:hi]
            seconds = end - start - sum(t1 - t0 for t0, t1, _ in inside)
            around = [t[2] for t in self.ticks[max(lo - 1, 0) : hi + 1]]
            raw.append(seconds)
            scaled.append(seconds * calibrate.REFERENCE_S * len(around) / sum(around))
        self.timings = []


def run_round(fs, wl, inputs, job_base, speed, raw, scaled, tracer=None):
    """(job labels, job seconds with ticks, errors, outputs) for one pass
    over the workload's jobs.  Each job's timing goes to raw[label] and
    scaled[label] when the speedometer is settled."""
    labels, times, errors, outputs = [], [], [], []
    for j, (label, thunk) in enumerate(wl.jobs(fs, inputs)):
        out, err = None, None
        t0 = perf_counter()
        try:
            out = tracer.run_job(job_base + j, thunk) if tracer else thunk()
        except Exception as e:  # a failing job is counted, the run goes on
            err = f"{label}: raised {type(e).__name__}: {e}"
        t1 = perf_counter()
        times.append(t1 - t0)
        speed.add(t0, t1, raw.setdefault(label, []), scaled.setdefault(label, []))
        if err is None:
            try:
                err = wl.check(label, out)
            except Exception as e:  # malformed output
                err = f"{label}: output could not be checked: {type(e).__name__}: {e}"
        labels.append(label)
        errors.append(err)
        outputs.append(out)
    return labels, times, errors, outputs


def typical(ts) -> float:
    """Interquartile mean: the mean of ts without its lowest and highest
    quarter.  A stall of the machine touches one sample, as with the
    median, but the middle samples all count."""
    ts = sorted(ts)
    cut = len(ts) // 4
    return statistics.mean(ts[cut : len(ts) - cut])


def round_wall(by_label) -> float:
    """Wall time of one round, each job at its typical time over the
    rounds run."""
    return sum(typical(ts) for ts in by_label.values())


def median_job(by_label) -> float:
    """Median job time, each job at its typical time over the rounds run.
    The median of all samples pooled would be the slowest sample of one job
    or the fastest of another, whichever is nearer the middle."""
    return statistics.median(typical(ts) for ts in by_label.values())


def layer_metrics(summary, counters, wall):
    calls, busy, self_s = summary["calls"], summary["busy_s"], summary["self_s"]

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for layer in MODULES:
        m[f"{layer}.calls"] = (calls.get(layer, 0), "count")
        m[f"{layer}.busy_s"] = (busy.get(layer, 0.0), "s")
        m[f"{layer}.self_s"] = (self_s.get(layer, 0.0), "s")
    restr = calls.get("cohom.restriction_induced", 0)
    cochains = calls.get("cohom.cochain_complex", 0)
    snf = calls.get("abgroup.smith_decompose", 0)
    empty = counters.get("snf_empty_calls", 0)
    m.update(
        {
            "cohom.restriction_calls": (restr, "count"),
            "cohom.restriction_s": (busy.get("cohom.restriction", 0.0), "s"),
            "cohom.restriction_repeat_ratio": (ratio(counters.get("restriction_repeats", 0), restr), "ratio"),
            "cohom.cochain_builds": (cochains, "count"),
            "cohom.cochain_s": (busy.get("cohom.cochain", 0.0), "s"),
            "cohom.cochain_repeat_ratio": (ratio(counters.get("cochain_repeats", 0), cochains), "ratio"),
            "abgroup.snf_calls": (snf, "count"),
            "abgroup.snf_s": (busy.get("abgroup.snf", 0.0), "s"),
            "abgroup.snf_empty_calls": (empty, "count"),
            "abgroup.snf_useful_ratio": (ratio(snf - empty, snf), "ratio"),
            "abgroup.snf_max_cells": (counters.get("snf_max_cells", 0), "cells"),
            "abgroup.homology_s": (busy.get("abgroup.homology", 0.0), "s"),
            "abgroup.complex_check_s": (busy.get("abgroup.complex_check", 0.0), "s"),
            "abgroup.chain_map_check_s": (busy.get("abgroup.chain_map_check", 0.0), "s"),
            "finspace.poset_builds": (calls.get("finspace.FinitePoset.__init__", 0), "count"),
            "finspace.poset_build_s": (busy.get("finspace.poset_build", 0.0), "s"),
            "finspace.chains_enumerated": (counters.get("chains_enumerated", 0), "count"),
            "finspace.chain_enum_s": (busy.get("finspace.chain_enum", 0.0), "s"),
            "sheaf.build_s": (busy.get("sheaf.build", 0.0), "s"),
            "cech.complex_builds": (calls.get("cech.cech_complex_hq", 0), "count"),
            "cech.complex_s": (busy.get("cech.complex", 0.0), "s"),
            "cech.nerve_simplices": (counters.get("nerve_simplices", 0), "count"),
            "cech.refinement_s": (busy.get("cech.refinement", 0.0), "s"),
            "wedge.stage_evidence_s": (busy.get("wedge.stage_evidence", 0.0), "s"),
            "wedge.validate_s": (busy.get("wedge.validate", 0.0), "s"),
            "symcolim.certify_s": (busy.get("symcolim.certify", 0.0), "s"),
            "trace.spans": (calls.get("bench", 0) + sum(calls.get(x, 0) for x in MODULES) + calls.get("trace", 0), "count"),
            "trace.bookkeeping_s": (self_s.get("trace", 0.0), "s"),
            "trace.unattributed_s": (self_s.get("bench", 0.0), "s"),
            "trace.wall_s": (wall, "s"),
            "trace.self_sum_s": (sum(self_s.values()), "s"),
            "trace.layer_self_ratio": (ratio(sum(self_s.get(x, 0.0) for x in MODULES), wall), "ratio"),
        }
    )
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "finsheaf" / "__init__.py").is_file():
        print(f"error: no finsheaf package under {SRC}; run from a finsheaf checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    tracer = Tracer() if args.trace else None
    speed = Speedometer()

    setups, scaled_setups, job_times, errors, traced = [], [], [], [], []
    by_label = {False: {}, True: {}}  # traced? -> job label -> seconds per round
    scaled = {False: {}, True: {}}  # the same, at the reference speed
    rounds = {False: 0, True: 0}
    first_outputs = None
    start = perf_counter()
    speed.start()
    rnd, last = 0, 0.0
    while (
        not rounds[False]
        or (tracer is not None and not rounds[True])
        or perf_counter() - start + last <= args.seconds
    ):
        began = perf_counter()
        on = tracer is not None and rnd % 2 == 1 and len(traced) < TRACED_ROUNDS
        # Set-ups are spread over the run, so that they see the same machine
        # as the rounds; the last one's modules and inputs serve the round.
        for _ in range(SETUPS_PER_ROUND):
            gc.collect()  # start from a heap without the last one's garbage
            t0 = perf_counter()
            wl = WORKLOADS[args.workload](args.seed)
            fs = load_finsheaf()
            inputs = wl.prepare(fs)
            speed.add(t0, perf_counter(), setups, scaled_setups)
        gc.collect()
        if on:
            # No ticks inside traced jobs: their spans account for the time.
            speed.stop()
            tracer.counters = {}
            first_span = tracer.span_count()
            tracer.install(fs)
        try:
            labels, times, errs, outs = run_round(
                fs, wl, inputs, len(job_times), speed, by_label[on], scaled[on], tracer if on else None
            )
        finally:
            if on:
                tracer.uninstall()
                speed.start()
        if on:
            summary = tracer.summarize(first_span, tracer.span_count())
            traced.append((summary, dict(tracer.counters), sum(times)))
        print(f"round {rnd} {'traced' if on else 'untraced'}: {sum(times):.4f} s", file=sys.stderr)
        first_outputs = first_outputs or outs
        job_times += times
        errors += errs
        rounds[on] += 1
        rnd += 1
        last = perf_counter() - began
    speed.stop()
    speed.settle()

    failed = [e for e in errors if e is not None]
    for e in failed[:20]:
        print(f"FAILED {e}", file=sys.stderr)
    probes = (0, 0, {})
    if hasattr(wl, "torsion_probes") and first_outputs and None not in first_outputs:
        probes = wl.torsion_probes(fs, first_outputs)
    fail_ratio = len(failed) / len(errors)
    torsion_fail_ratio = probes[1] / probes[0] if probes[0] else 0.0

    # End-to-end times are reported at the reference machine speed; the raw
    # seconds are printed next to them.
    if tracer is None:
        metrics = {
            "setup_s": (typical(scaled_setups), "s"),
            "wall_s": (round_wall(scaled[False]), "s"),
            "job_p50_s": (median_job(scaled[False]), "s"),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        }
        extra = {
            "raw_setup_s": (typical(setups), "s"),
            "raw_wall_s": (round_wall(by_label[False]), "s"),
            "raw_job_p50_s": (median_job(by_label[False]), "s"),
        }
        extra.update(
            {
                "tick_s": (statistics.median(t[2] for t in speed.ticks), "s"),
                "fail_ratio": (fail_ratio, "ratio"),
                "torsion_fail_ratio": (torsion_fail_ratio, "ratio"),
            }
        )
    else:
        per_round = [layer_metrics(s, c, w) for s, c, w in traced]
        # median_low keeps counts whole: it picks one round's value
        metrics = {k: (statistics.median_low(r[k][0] for r in per_round), u) for k, (_, u) in per_round[0].items()}
        untraced = statistics.median_low(map(sum, zip(*by_label[False].values())))
        metrics.update(
            {
                "trace.untraced_wall_s": (untraced, "s"),
                "trace.overhead_s": (metrics["trace.wall_s"][0] - untraced, "s"),
                "fail_ratio": (fail_ratio, "ratio"),
                "torsion_fail_ratio": (torsion_fail_ratio, "ratio"),
            }
        )
        extra = {"peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB")}
        OUT.mkdir(exist_ok=True)
        path = OUT / f"spans-{args.workload}-seed{args.seed}.csv.gz"
        tracer.write(str(path))
        print(f"spans written to {path.relative_to(ROOT)}")

    print(f"workload {args.workload}  seed {args.seed}  rounds {rnd}  jobs {len(job_times)}  failed {len(failed)}")
    if probes[0]:
        print(f"torsion probes {probes[0]}  failed {probes[1]}  {probes[2]}")
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"  {name:36s} {value:14.6f} {unit}")
    result = {
        "correct": not failed,
        "attempted": len(errors),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
