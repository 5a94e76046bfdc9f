"""One pass of a workload in a fresh interpreter; prints one JSON line.

Usage: worker.py MODE WORKLOAD SEED SCALE SPAWNED OUT_DIR

MODE is ``setup`` (set-up time only), ``plain`` (untimed checks after a
timed job loop), ``traced`` (the same, with the span recorder installed
before set-up) or ``memory`` (tracemalloc size of one generated crystal).
SPAWNED is the parent's ``time.monotonic()`` just before it started this
process, so set-up time runs from process start to ready-for-the-first-job.
Only ``os``, ``sys`` and ``time`` are imported before set-up ends.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Largest crystal the memory mode generates under tracemalloc, which slows
# generation about fourfold; keeps the traced run short.
MEMORY_MAX_ELEMENTS = 1000


def _set_up(rec):
    """Import the package and build the Weyl tables of every type."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    if rec is not None:
        import spans
        spans.install(rec)
    from qcrystal import root_data
    for type_name in root_data.supported_types():
        root_data.weyl_group(root_data.cartan_datum(type_name))


def run_cli(cli, argv, path):
    try:
        return cli.main(list(argv) + ["--out", path])
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2


def _memory(jobs):
    """Bytes retained per element by the workload's largest crystal within the cap."""
    import tracemalloc

    import checks
    from qcrystal.crystal import generate_crystal
    from qcrystal.root_data import cartan_datum

    sizes = {(job.option("type"), job.option("weight")): checks.elements(job)
             for job in jobs if job.command != "rank-one"}
    fitting = [(n, key) for key, n in sizes.items() if n <= MEMORY_MAX_ELEMENTS]
    if not fitting:
        return {"bytes_per_element": 0.0, "crystal": None}
    _, (type_name, weight) = max(fitting)
    datum = cartan_datum(type_name)
    lam = tuple(int(x) for x in weight.split(","))
    tracemalloc.start()
    before = tracemalloc.get_traced_memory()[0]
    graph = generate_crystal(datum, lam)
    retained = tracemalloc.get_traced_memory()[0] - before
    tracemalloc.stop()
    return {"bytes_per_element": retained / len(graph), "crystal": f"{type_name} ({weight})"}


def main(argv):
    mode, workload, seed, scale, spawned, out_dir = argv
    rec = None
    if mode == "traced":
        import spans
        rec = spans.Recorder()
    _set_up(rec)
    setup_s = time.monotonic() - float(spawned)

    import json
    if mode == "setup":
        print(json.dumps({"mode": mode, "setup_s": setup_s}))
        return

    import resource
    import shutil

    import checks
    import workloads
    from qcrystal import cli

    result = {"mode": mode, "setup_s": setup_s}
    jobs = workloads.jobs_for(workload, int(seed), scale)
    if mode == "memory":
        result.update(_memory(jobs))
    else:
        work = os.path.join(out_dir, f"work-{os.getpid()}")
        os.makedirs(work, exist_ok=True)
        paths = [os.path.join(work, f"{idx}.out") for idx in range(len(jobs))]
        job_s, rcs = [], []
        for job, path in zip(jobs, paths):
            if rec is not None:
                rec.begin_job()
            t0 = time.perf_counter()
            rc = run_cli(cli, job.argv, path)
            job_s.append(time.perf_counter() - t0)
            rcs.append(rc)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if rec is not None:
            # summarize before the checks, whose oracle calls would add spans
            per_name, module_self = spans.summarize(rec)
            result["trace"] = {"per_name": per_name, "module_self_s": module_self,
                               "counters": rec.counters,
                               "i_strings_distinct": len(rec.i_string_inputs),
                               "spans": len(rec.start)}
            rec.write(os.path.join(out_dir, f"spans-{workload}-seed{seed}-{scale}.txt.gz"))
        digests = checks.load_digests()
        failures, output_bytes = [], 0
        for job, path, rc in zip(jobs, paths, rcs):
            data = b""
            if os.path.exists(path):
                with open(path, "rb") as fh:
                    data = fh.read()
            output_bytes += len(data)
            reason = checks.check(job, rc, data, digests)
            if reason is not None:
                failures.append({"argv": " ".join(job.argv), "reason": reason})
        shutil.rmtree(work)
        result.update({"jobs": len(jobs), "job_s": job_s, "wall_s": sum(job_s),
                       "elements": sum(checks.elements(job) for job in jobs),
                       "output_bytes": output_bytes, "failures": failures,
                       "group": [job.group for job in jobs],
                       "argv": [" ".join(job.argv) for job in jobs]})
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
