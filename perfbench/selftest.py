"""Self-test of the benchmark at tiny scale (not part of the repository's test suite).

    python3 perfbench/selftest.py

Checks that job lists follow from the seed, that every workload runs and
reports exactly the metrics BENCHMARK.json declares, that two traced runs
with the same seed give identical exact counters and module self times
within the traced wall time, and that the benchmark fails without the
program's sources.  For agreement of full-scale timings across two sets of
runs, see spread.py.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from qcrystal.character import weyl_dimension  # noqa: E402
from qcrystal.root_data import cartan_datum, is_reduced, longest_word, supported_types  # noqa: E402

with open(run.SPEC_PATH) as _fh:
    SPEC = json.load(_fh)


def _bench(*args, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def _result(workload, seed, trace):
    proc = _bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                  "--trace", str(trace), "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stdout
    name = f"result-{workload}-seed{seed}-trace{trace}-tiny.json"
    with open(os.path.join(OUT, name)) as fh:
        record = json.load(fh)
    for key in ("nproc", "python", "git_sha", "src_sha256", "seed", "why", "raw"):
        assert key in record, key
    return result, record


def _declared(result, kind):
    declared = {m["name"]: m["unit"] for m in SPEC[kind]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == declared, set(got) ^ set(declared)


def test_inputs_follow_seed():
    for w in workloads.WORKLOADS:
        assert workloads.jobs_for(w, 7) == workloads.jobs_for(w, 7), w
    words = set()
    for seed in range(10):
        demazure = next(j for j in workloads.jobs_for("large-jobs", seed) if j.command == "demazure")
        word = tuple(int(x) for x in demazure.option("word").split(","))
        assert is_reduced(cartan_datum("B3"), word) and len(word) == 9
        words.add(word)
    assert len(words) > 1
    jobs = workloads.jobs_for("small-jobs", 3)
    assert len(jobs) == 1000 and len({j.argv for j in jobs}) == 1000
    for command in workloads.SMALL_COMMANDS:
        assert any(j.command == command for j in jobs), command
    for t in supported_types():
        datum = cartan_datum(t)
        assert workloads.longest_length(t) == len(longest_word(datum)), t
        for w in workloads.SMALL_POOL[t]:
            assert weyl_dimension(datum, tuple(int(x) for x in w.split(","))) <= 100, (t, w)


def test_smoke_all_workloads():
    for w in workloads.WORKLOADS:
        result, _ = _result(w, 1, 0)
        _declared(result, "end_to_end")
        assert all(m["value"] > 0 for m in result["metrics"].values()), (w, result)


def test_traced_counts_repeat():
    for w in workloads.WORKLOADS:
        first, record = _result(w, 2, 1)
        _declared(first, "per_layer")
        counts = run.exact_counts(record["raw"]["passes"][1])
        _, again = _result(w, 2, 1)
        assert run.exact_counts(again["raw"]["passes"][1]) == counts, w
        module_self = sum(first["metrics"][f"{m}.self_s"]["value"] for m in run.MODULES)
        assert module_self <= first["metrics"]["trace.wall_s"]["value"], w


def test_fails_without_sources():
    bare = os.path.join(OUT, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.SPEC_PATH, bare)
    try:
        proc = _bench("--workload", "large-jobs", "--seed", "1", "--seconds", "1", cwd=bare)
        assert proc.returncode != 0 and "no qcrystal sources" in proc.stderr, proc.stderr
        assert "\"correct\"" not in proc.stdout, proc.stdout
    finally:
        shutil.rmtree(bare)


def main():
    os.makedirs(OUT, exist_ok=True)
    failed = 0
    for name, test in [(n, f) for n, f in globals().items() if n.startswith("test_")]:
        try:
            test()
            print(f"PASS {name}", flush=True)
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {name}: {exc}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
