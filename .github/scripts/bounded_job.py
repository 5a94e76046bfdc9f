"""Run one CLI job of ``JOBS`` in a fresh process, within its time and peak-RSS bounds.

Usage, from the repository root:

    PYTHONPATH=src python .github/scripts/bounded_job.py NAME

The job runs as ``timeout SECONDS python -m qcrystal ARGV...`` and its peak
RSS is read with ``RUSAGE_CHILDREN`` once it has exited: the only child of
this script, except for a row with ``above_setup``, which first runs
``import qcrystal.cli`` in a child of its own and bounds the job's peak above
that.  A row with ``header`` also checks the first line of its ``--out``
file.  Exits nonzero on a failed or timed-out job, a passed bound or a
wrong header.
"""

import resource
import subprocess
import sys

# name -> (qcrystal argv, seconds, peak RSS bound in MB, options)
JOBS = {
    "d4-crystal": (["crystal", "--type", "D4", "--weight", "2,2,1,2", "--format", "text",
                    "--out", "/tmp/d4.txt"], 60, 76, {}),
    "d4-demazure": (["demazure", "--type", "D4", "--weight", "2,2,1,2",
                     "--word", "1,2,1,3,2,1,4,2,1,3,2,4", "--format", "text",
                     "--out", "/tmp/d4-demazure.txt"], 60, 100,
                    {"header": "subset of size 199584\n"}),
    "rank-one-400": (["rank-one", "--weight", "400"], 20, 2, {"above_setup": True}),
    "g2-json": (["crystal", "--type", "G2", "--weight", "4,4", "--format", "json",
                 "--out", "/tmp/g2.json"], 120, 60, {}),
    "d4-verify": (["verify", "--type", "D4", "--weight", "2,2,1,2", "--format", "json"],
                  120, 176, {}),
}


def peak_mb():
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


def main(name):
    argv, seconds, bound_mb, options = JOBS[name]
    setup_mb = 0.0
    if options.get("above_setup"):
        subprocess.run([sys.executable, "-c", "import qcrystal.cli"], check=True)
        setup_mb = peak_mb()
    subprocess.run(["timeout", str(seconds), sys.executable, "-m", "qcrystal", *argv],
                   check=True, stdout=subprocess.DEVNULL)
    job_mb = peak_mb() - setup_mb
    report = f"{name}: peak RSS {peak_mb():.1f} MB"
    if options.get("above_setup"):
        report += f", {job_mb:.1f} MB above set-up"
    report += f" (bound {bound_mb} MB, {seconds} s)"
    header_ok = True
    if "header" in options:
        with open(argv[argv.index("--out") + 1]) as out:
            header = out.readline()
        header_ok = header.endswith(options["header"])
        report = f"{header.strip()}; {report}"
    print(report)
    return job_mb > bound_mb or not header_ok


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
