"""Run one workload of the signrank benchmark and print its metrics.

    python3 bench/run.py --workload duality|minrank|witness --seed N \\
        --seconds S --trace 0|1

Each workload is a closed loop: one caller in one thread issues the next
public call (an op) only after the previous one returns. The timed phase
runs whole passes over the workload's committed corpus, each pass in an
order drawn from the seed. The number of passes is ``--seconds`` over the
workload's nominal pass time (see ``workloads.NOMINAL_PASS_S``), so every
run times the same ops the same number of times and lasts about
``--seconds`` at the seed commit. Every 50 ms the run times a fixed
calibration kernel (see ``calibrate.py``) and rescales each op's time to
a nominal host speed. Every answer is then checked against the
corpus's reference answers and re-verified.

With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1``
it wraps the package's layer boundaries (see ``workloads.trace_points``)
and reports per-layer self times and counts instead, writing the spans to
``bench/out/``. The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import resource
import subprocess
import sys
import time
from bisect import bisect_left
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from random import Random
from statistics import mean, median

import calibrate
import stats
from spans import Tracer, layer_totals, self_times

BENCH = Path(__file__).resolve().parent
# Set-ups per run, each with a warm-up pass, so that their median spreads
# by a few per cent across runs: one short pass by itself spreads by about
# ten. A minrank pass takes five seconds and spreads little, so two do.
SETUP_SAMPLES = {"duality": 3, "minrank": 2, "witness": 5}
SETUP_TIMEOUT_S = 120
CALIBRATE_EVERY_S = 0.05


def setup(name):
    """Import the package, load the workload's corpus and run one warm-up
    pass. Returns the workloads module, the workload and the calibrated
    seconds taken: wall time less the calibration samples taken during it,
    over the host factor while it ran."""
    with calibrate.Sampler(CALIBRATE_EVERY_S) as sampler:
        start = time.perf_counter()
        import workloads

        workload = workloads.load(name)
        workloads.warm_up(workload)
        seconds = time.perf_counter() - start
    kernel = [k for _, k, _ in sampler.samples]
    seconds -= sum(spent for _, _, spent in sampler.samples)
    if len(kernel) >= calibrate.NEIGHBOURS:
        return workloads, workload, seconds / calibrate.mean_factor(kernel)
    return workloads, workload, seconds / calibrate.host_factor_now()


def setup_in_child(name):
    """Calibrated seconds one set-up takes in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only", "--workload", name],
        capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True,
    )
    return float(done.stdout.split()[-1])


@dataclass
class Record:
    index: int  # op index in the workload
    began: float
    ended: float
    seconds: float  # wall time of the call, less the calibration samples taken during it
    result: object  # the answer, or the exception the call raised


@dataclass
class Timed:
    records: list = field(default_factory=list)
    calibration: list = field(default_factory=list)  # calibrate.Sampler.samples
    passes: int = 0
    elapsed: float = 0.0

    def factors(self):
        """Host slow-down during each op: the mean of the samples taken
        inside it if there are enough, else the median of the
        ``calibrate.NEIGHBOURS`` samples nearest to it in time."""
        times = [start for start, _, _ in self.calibration]
        kernel = [seconds for _, seconds, _ in self.calibration]
        out = []
        for r in self.records:
            lo = bisect_left(times, r.began)
            hi = bisect_left(times, r.ended)
            if hi - lo >= calibrate.NEIGHBOURS:
                out.append(calibrate.mean_factor(kernel[lo:hi]))
                continue
            while hi - lo < calibrate.NEIGHBOURS and (lo > 0 or hi < len(times)):
                before = r.began - times[lo - 1] if lo > 0 else float("inf")
                after = times[hi] - r.ended if hi < len(times) else float("inf")
                if before <= after:
                    lo -= 1
                else:
                    hi += 1
            out.append(calibrate.factor(kernel[lo:hi]))
        return out

    def latencies(self):
        """Calibrated seconds of every op, in issue order."""
        return [r.seconds / f for r, f in zip(self.records, self.factors())]

    def ops_per_s(self):
        """Ops completed per calibrated second of the timed phase."""
        return len(self.records) / sum(self.latencies())

    def op_means(self):
        """Per op, its mean calibrated seconds over the passes."""
        per_op = defaultdict(list)
        for r, seconds in zip(self.records, self.latencies()):
            per_op[r.index].append(seconds)
        return {index: mean(values) for index, values in per_op.items()}


def run_passes(workload, rng, passes, seconds, tracer=None):
    """``passes`` whole passes over the ops, each in an order drawn from
    ``rng``, with a calibration sample every ``CALIBRATE_EVERY_S``. Stops
    early after a pass that ends beyond four times ``seconds``, so a slow
    build still exits in time."""
    ops = workload.ops
    timed = Timed()
    with calibrate.Sampler(CALIBRATE_EVERY_S) as sampler:
        samples = sampler.samples
        start = time.perf_counter()
        for _ in range(passes):
            order = list(range(len(ops)))
            rng.shuffle(order)
            for index in order:
                if tracer is not None:
                    tracer.op = len(timed.records)
                taken = len(samples)
                began = time.perf_counter()
                try:
                    result = ops[index].call()
                except Exception as exc:  # a raising op is a failed op, not a crash
                    result = exc
                ended = time.perf_counter()
                inside = sum(spent for when, _, spent in samples[taken:] if began <= when < ended)
                timed.records.append(Record(index, began, ended, ended - began - inside, result))
            timed.passes += 1
            if time.perf_counter() - start > 4 * seconds:
                break
        timed.elapsed = time.perf_counter() - start
    timed.calibration = list(samples)
    return timed


def check_records(workloads, workload, records):
    """Count failed ops: raised, answered wrongly, failed re-verification,
    or answered differently from the first run of the same op."""
    verdicts = {}  # op index -> (digest of its first answer, whether that answer passed)
    failed = 0
    messages = []
    for record in records:
        op = workload.ops[record.index]
        if isinstance(record.result, Exception):
            failed += 1
            messages.append(f"{op.key}: raised {record.result!r}")
            continue
        digest = workloads.summary(op, record.result)
        if record.index not in verdicts:
            problems = workloads.check(op, record.result)
            messages += [f"{op.key}: {p}" for p in problems]
            verdicts[record.index] = (digest, not problems)
        first, passed = verdicts[record.index]
        if not passed:
            failed += 1
        elif digest != first:
            failed += 1
            messages.append(f"{op.key}: answer differs from its first run")
    return failed, messages


def end_to_end(workloads, workload, timed, setup_samples, peak_rss_mb):
    records = timed.records
    n = len(records)
    latencies = timed.latencies()
    tail_value, tail_pct, _ = stats.tail(latencies)
    exact = sum(
        1 for r in records
        if not isinstance(r.result, Exception) and workloads.definitive(workload.ops[r.index], r.result)
    )
    factors = timed.factors()
    kinds = workloads.BUDGETED_KINDS[workload.name]
    budgeted = {i: s for i, s in timed.op_means().items() if workload.ops[i].kind in kinds}
    slowest_wall = max(r.seconds for r in records if r.index in budgeted)
    budget_s = workload.budget_ms / 1000
    metrics = {
        "ops_per_s": (timed.ops_per_s(), "1/s"),
        "p50_ms": (median(latencies) * 1000, "ms"),
        "tail_ms": (tail_value * 1000, "ms"),
        "exact_share": (exact / n, "ratio"),
        "budget_overrun": (max(budgeted.values()) / budget_s, "ratio"),
        "setup_s": (median(setup_samples), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    notes = {
        "ops_per_s": f"{n} ops over {timed.passes} passes; "
                     f"uncalibrated {n / sum(r.seconds for r in records):.4g} 1/s",
        "p50_ms": f"{n} samples",
        "tail_ms": f"p{tail_pct:.1f}, {n} samples",
        "exact_share": f"{exact}/{n} ops",
        "budget_overrun": f"slowest mean of {len(budgeted)} budgeted ops over budget_ms={workload.budget_ms}; "
                          f"slowest uncalibrated call {slowest_wall / budget_s:.4g}",
        "setup_s": f"median of {len(setup_samples)} set-ups, each with a warm-up pass",
        "peak_rss_mb": "peak resident set of the timed process",
    }
    notes["host"] = (f"host slow-down around ops: median {median(factors):.3f}, "
                     f"range {min(factors):.3f}..{max(factors):.3f}, {timed.elapsed:.1f} s timed")
    return metrics, notes


def per_layer(workloads, workload, timed, tracer):
    totals = layer_totals(tracer.spans)
    metrics = {}
    for layer in workloads.SELF_TIME_LAYERS:
        metrics[f"{layer}.self_s"] = (totals.get(layer, (0.0, 0))[0], "s")
    for name in workloads.COUNTS:
        metrics[name] = (tracer.counts.get(name, 0), "count")
    for name, count, layer in workloads.RATES:
        busy = metrics[f"{layer}.self_s"][0]
        metrics[name] = (metrics[count][0] / busy if busy else 0.0, "1/s")
    decided = Counter(
        workloads.deciding_kind(r.result) for r in timed.records
        if workload.ops[r.index].kind == "min_rank" and not isinstance(r.result, Exception)
    )
    for kind in workloads.DECIDING_KINDS:
        metrics[f"minrank.decided_by.{kind}"] = (decided.get(kind, 0), "count")
    metrics["trace.ops_per_s"] = (timed.ops_per_s(), "1/s")
    metrics["trace.op_s"] = (sum(r.ended - r.began for r in timed.records), "s")
    metrics["trace.self_sum_s"] = (sum(self_times(tracer.spans)), "s")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    workloads, workload, own_setup = setup(args.workload)
    if args.setup_only:
        print(repr(own_setup))
        return 0
    setup_samples = [own_setup] + [setup_in_child(args.workload) for _ in range(SETUP_SAMPLES[args.workload] - 1)]

    rng = Random(f"order:{args.seed}")
    passes = workload.passes(args.seconds)
    tracer = Tracer() if args.trace else None
    if tracer is None:
        timed = run_passes(workload, rng, passes, args.seconds)
    else:
        with tracer.installed(workloads.trace_points()):
            timed = run_passes(workload, rng, passes, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failed, messages = check_records(workloads, workload, timed.records)
    cli_problems = []
    if workload.name == "minrank":
        first = next(r.result for r in timed.records if r.index == 0)
        if not isinstance(first, Exception):
            cli_problems = workloads.check_cli(workload, first)
        messages += cli_problems
    attempted = len(timed.records)

    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"{len(workload.ops)} ops per pass, {passes} passes, budget_ms={workload.budget_ms}")
    for message in messages[:20]:
        print(f"  FAILED {message}")
    print(f"  {'failed_share':<40} {failed / attempted:>14.6g} ratio  ({failed}/{attempted} ops)")
    if tracer is None:
        metrics, notes = end_to_end(workloads, workload, timed, setup_samples, peak_rss_mb)
    else:
        metrics = per_layer(workloads, workload, timed, tracer)
        notes = {}
        out = BENCH / "out"
        out.mkdir(exist_ok=True)
        tracer.write(out / f"spans-{workload.name}-seed{args.seed}.jsonl")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<40} {value:>14.6g} {unit}{note}")
    if "host" in notes:
        print(f"  {notes['host']}")
    print(json.dumps({
        "correct": failed == 0 and not cli_problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
