"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/steady.py --seeds 0-9 --trace 0 --out bench/out/steady.json

Runs ``run.py`` once per seed on every workload of ``BENCHMARK.json``, one
run at a time, with its ``run_seconds``. For every metric it reports the
values, their median, quartiles and spread (quartile distance over the
median, as ``statistics.quantiles(values, n=4)`` gives them), and for the
end-to-end metrics whether the spread is below a third of the bound.
"""

import argparse
import json
import platform
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, quantiles

import stats

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUN_TIMEOUT_S = 900


def seeds_from(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def commit():
    """The checked-out commit, or None outside a git work tree."""
    try:
        done = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def run_once(workload, seed, seconds, trace):
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S, check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.perf_counter() - started
    return result


def summarise(results, bounds):
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        entry = {"unit": results[0]["metrics"][name]["unit"], "values": values, "median": median(values)}
        if len(values) >= 2:
            q1, _, q3 = quantiles(values, n=4)
            entry.update(q1=q1, q3=q3, spread=stats.spread(values) if entry["median"] else 0.0)
            if name in bounds:
                entry["bound"] = bounds[name]
                entry["steady"] = entry["spread"] < bounds[name] / 3
        out[name] = entry
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {
        "commit": commit(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "run_seconds": spec["run_seconds"],
        "trace": args.trace,
        "workloads": {},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        results = []
        for seed in seeds_from(args.seeds):
            result = run_once(workload, seed, spec["run_seconds"], args.trace)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"{result['attempted']} ops, {result['wall_s']:.1f} s", file=sys.stderr)
            results.append(result)
        report["workloads"][workload] = {
            "seeds": seeds_from(args.seeds),
            "correct": all(r["correct"] for r in results),
            "attempted": [r["attempted"] for r in results],
            "failed": [r["failed"] for r in results],
            "wall_s": [round(r["wall_s"], 1) for r in results],
            "metrics": summarise(results, bounds),
        }
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
