"""Record the exit code and output sha256 of every fixed job into digests.json.

    python3 perfbench/record_digests.py

The recorded digests are the byte-identity reference the benchmark checks
against; re-record them only when a change alters the CLI output on purpose.
"""

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from qcrystal import cli  # noqa: E402
from worker import run_cli  # noqa: E402


def main():
    digests = {}
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        path = os.path.join(tmp, "out")
        for scale in workloads.SCALES:
            for job in workloads.fixed_jobs(scale):
                rc = run_cli(cli, job.argv, path)
                with open(path, "rb") as fh:
                    digests[job.digest_key] = checks.digest(rc, fh.read())
                print(job.digest_key, digests[job.digest_key]["sha256"][:16], flush=True)
    with open(checks.DIGESTS_PATH, "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
