"""qcrystal benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload large-jobs --seed 1 --seconds 40 --trace 0

Jobs run in-process through ``qcrystal.cli.main`` in a single-threaded
closed loop (one client; the next job starts when the previous returns).
Each pass over a workload's job list is a fresh interpreter (worker.py),
so program caches start cold and ``ru_maxrss`` belongs to that pass.

--trace 0 repeats passes while the next one fits in --seconds (at least
one) and reports the end-to-end metrics of BENCHMARK.json: medians over
passes, set-up time as the median over every worker started.  --trace 1
runs one plain pass, one traced pass and a tracemalloc pass, and reports
the per-layer metrics; it fails the run when the module self times exceed
the traced job wall time.  Outputs are checked after each pass's timed
region.

Every run writes ``perfbench/out/result-*.json`` with provenance and raw
samples.  The last line of standard output is the JSON result.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from spans import MODULES

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
DEADLINE_S = 170
SETUP_ONLY_WORKERS = 10
EMITTERS = ("cli.emit_json", "cli.emit_dot", "cli.emit_text", "cli.emit_character")


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _worker(mode, args, deadline):
    log = os.path.join(OUT, f"worker-{args.workload}-{mode}.log")
    spawned = time.monotonic()
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), mode, args.workload,
           str(args.seed), args.scale, repr(spawned), OUT]
    env = dict(os.environ, PYTHONHASHSEED="0", CRYSTAL_LOG="error")
    with open(log, "w") as err:
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=err, text=True,
                                  cwd=ROOT, env=env, timeout=max(1.0, deadline - spawned))
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} worker passed the {DEADLINE_S} s deadline") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        with open(log) as fh:
            tail = fh.read()[-2000:]
        raise BenchError(f"{mode} worker exited with code {proc.returncode}:\n{tail}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["process_s"] = time.monotonic() - spawned
    return result


def _percentile(values, p):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * p // 100) - 1)]


def _end_to_end(passes, setups):
    return {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "elements_per_s": statistics.median(p["elements"] / p["wall_s"] for p in passes),
    }


def _group_seconds(passes):
    """Median over passes of the seconds each job group took."""
    groups = {}
    for p in passes:
        totals = {}
        for group, t in zip(p["group"], p["job_s"]):
            totals[group] = totals.get(group, 0.0) + t
        for group, t in totals.items():
            groups.setdefault(group, []).append(t)
    return {g: statistics.median(ts) for g, ts in groups.items()}


def _per_layer(names, plain, traced, memory):
    """Per-layer metrics; ``<span>.calls``, ``.s`` and ``.self_s`` come from the span summary."""
    t = traced["trace"]
    per_name, counters = t["per_name"], t["counters"]

    def field(name, key):
        return per_name.get(name, {}).get(key, 0)

    calls = field("demazure.i_strings", "calls")
    gen_s = field("crystal.generate_crystal", "s")
    job_ms = [s * 1000 for s in plain["job_s"]]
    derived = {
        "cli.job_ms.p50": _percentile(job_ms, 50),
        "cli.job_ms.p99": _percentile(job_ms, 99),
        "crystal.elements_per_s": counters["crystal.elements"] / gen_s if gen_s else 0.0,
        "crystal.bytes_per_element": memory["bytes_per_element"],
        "demazure.i_strings.distinct": t["i_strings_distinct"],
        "demazure.i_strings.reuse": t["i_strings_distinct"] / calls if calls else 0.0,
        "cli.emit.s": sum(field(name, "s") for name in EMITTERS),
        "cli.output_bytes": traced["output_bytes"],
        "trace.wall_s": traced["wall_s"],
        "trace.overhead_s": traced["wall_s"] - plain["wall_s"],
        "trace.spans": t["spans"],
        **counters,
        **{f"{m}.self_s": s for m, s in t["module_self_s"].items()},
    }
    return {name: derived[name] if name in derived else field(*name.rsplit(".", 1))
            for name in names}


def exact_counts(traced):
    """Counters of a traced pass that must repeat exactly for the same seed."""
    t = traced["trace"]
    return {"calls": {n: v["calls"] for n, v in t["per_name"].items()},
            "counters": t["counters"], "i_strings_distinct": t["i_strings_distinct"],
            "spans": t["spans"], "output_bytes": traced["output_bytes"]}


def _git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _src_sha256():
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "qcrystal")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def run(args, spec):
    deadline = time.monotonic() + DEADLINE_S
    notes = []
    if args.trace:
        plain = _worker("plain", args, deadline)
        traced = _worker("traced", args, deadline)
        memory = _worker("memory", args, deadline)
        passes = [plain, traced]
        if sum(traced["trace"]["module_self_s"].values()) > traced["wall_s"]:
            notes.append("module self times exceed the traced job wall time")
        wanted = spec["per_layer"]
        metrics = _per_layer([m["name"] for m in wanted], plain, traced, memory)
        raw = {"passes": passes, "memory": memory}
    else:
        passes = []
        start = time.monotonic()
        while True:
            passes.append(_worker("plain", args, deadline))
            if time.monotonic() - start + passes[-1]["process_s"] > args.seconds:
                break
        setups = [p["setup_s"] for p in passes]
        setups += [_worker("setup", args, deadline)["setup_s"] for _ in range(SETUP_ONLY_WORKERS)]
        wanted = spec["end_to_end"]
        metrics = _end_to_end(passes, setups)
        raw = {"passes": passes, "setup_samples": setups}
    attempted = sum(p["jobs"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    out = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted}
    raw["group_s"] = _group_seconds(passes[:1] if args.trace else passes)
    return {"correct": not failures and not notes, "attempted": attempted,
            "failed": len(failures), "metrics": out}, failures, notes, raw


def main(argv=None):
    with open(SPEC_PATH) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description="qcrystal benchmark")
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny runs small inputs for smoke tests")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "qcrystal", "__init__.py")):
        print(f"perfbench: no qcrystal sources under {ROOT}/src", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    try:
        result, failures, notes, raw = run(args, spec)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    why = next(w["why"] for w in spec["workloads"] if w["name"] == args.workload)
    fail_ratio = result["failed"] / result["attempted"]
    record = {
        "workload": args.workload, "why": why, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale, "nproc": os.cpu_count(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "platform": platform.platform(), "git_sha": _git_sha(), "src_sha256": _src_sha256(),
        "fail_ratio": fail_ratio, "failures": failures, "notes": notes, **result, "raw": raw,
    }
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}-{args.scale}.json"
    with open(os.path.join(OUT, name), "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"{args.workload} seed {args.seed}: {result['attempted']} jobs attempted, "
          f"{result['failed']} failed, fail_ratio {fail_ratio:g}")
    for reason in [f"{f['argv']}: {f['reason']}" for f in failures[:10]] + notes:
        print(f"  FAIL {reason}")
    for metric, v in result["metrics"].items():
        print(f"  {metric:<40} {v['value']:>14.6g} {v['unit']}")
    for group, seconds in raw["group_s"].items():
        print(f"  {group + ' jobs':<40} {seconds:>14.6g} s (not a metric)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
