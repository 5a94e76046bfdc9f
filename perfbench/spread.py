"""Run-to-run spread of the end-to-end metrics, and agreement of two sets of runs.

    python3 perfbench/spread.py --label a --seeds 1-10 [--workload export ...]
    python3 perfbench/spread.py --compare perfbench/out/spread-a.json perfbench/out/spread-b.json

The first form runs the benchmark once per (workload, seed), with tracing
off and BENCHMARK.json's run_seconds, and writes the values to
``perfbench/out/spread-LABEL.json``.  For each metric it prints the median
and the spread, the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median.  It exits
1 when any spread other than setup_s's exceeds a third of the metric's
bound, or when a run is not correct.

The second form checks that two sets of runs of the same code agree: no
metric's median in the second set may be worse than in the first by more
than its bound.  It exits 1 otherwise.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median


def collect(spec, workloads, seeds, label):
    values = {w: {m["name"]: [] for m in spec["end_to_end"]} for w in workloads}
    ok = True
    for w in workloads:
        for seed in seeds:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                raise SystemExit(f"run failed: {' '.join(cmd)}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            ok &= result["correct"]
            for name, metric in result["metrics"].items():
                values[w][name].append(metric["value"])
            print(f"{w} seed {seed}: correct={result['correct']} wall_s="
                  f"{result['metrics']['wall_s']['value']:.3f}", flush=True)
    with open(os.path.join(HERE, "out", f"spread-{label}.json"), "w") as fh:
        json.dump({"seeds": seeds, "values": values}, fh, indent=1)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for w, metrics in values.items():
        for name, vals in metrics.items():
            median, spread = _spread(vals)
            steady = name == "setup_s" or spread <= bounds[name] / 3
            ok &= steady
            print(f"{w:<11} {name:<15} median {median:12.6g}  spread {spread:6.3f}  "
                  f"bound {bounds[name]:.2f}  {'ok' if steady else 'WIDE'}")
    return ok


def compare(spec, first, second):
    with open(first) as fh:
        a = json.load(fh)["values"]
    with open(second) as fh:
        b = json.load(fh)["values"]
    ok = True
    for m in spec["end_to_end"]:
        for w in a:
            ma, mb = statistics.median(a[w][m["name"]]), statistics.median(b[w][m["name"]])
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            agree = worse <= m["bound"]
            ok &= agree
            print(f"{w:<11} {m['name']:<15} {ma:12.6g} -> {mb:12.6g}  worse by {worse:+.3f}  "
                  f"bound {m['bound']:.2f}  {'ok' if agree else 'DISAGREE'}")
    return ok


def main():
    spec = _spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", default="a")
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--workload", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--compare", nargs=2, metavar="SPREAD_JSON")
    args = parser.parse_args()
    if args.compare:
        ok = compare(spec, *args.compare)
    else:
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        ok = collect(spec, args.workload, args.seeds, args.label)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
