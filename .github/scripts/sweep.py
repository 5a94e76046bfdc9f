"""Verify at rho and at every fundamental weight of every supported type.

Usage, from the repository root:

    PYTHONPATH=src python .github/scripts/sweep.py

For each type, ``demazure`` along w0 at rho must cut all of B(rho): its
text header names a subset of the Weyl dimension's size.  Then ``verify``
runs at rho and at each fundamental weight, and must pass; with
``--inject-failure`` the same job must exit 1.  Every job runs as
``timeout 60 python -m qcrystal ...``.  Exits nonzero at the first job that
fails, times out or gives the wrong answer.
"""

import subprocess
import sys

from qcrystal.character import weyl_dimension
from qcrystal.root_data import cartan_datum, longest_word, rho, supported_types


def qcrystal(*argv, **kwargs):
    return subprocess.run(["timeout", "60", sys.executable, "-m", "qcrystal", *argv], **kwargs)


def main():
    for name in supported_types():
        datum = cartan_datum(name)
        rank, top = datum.rank, rho(datum)
        # B_{w0}(rho) is all of B(rho)
        w0 = ",".join(map(str, longest_word(datum)))
        out = qcrystal("demazure", "--type", name, "--weight", ",".join(map(str, top)),
                       "--word", w0, "--format", "text",
                       check=True, capture_output=True, text=True).stdout
        head, size = out.splitlines()[0], weyl_dimension(datum, top)
        if not head.endswith(f"subset of size {size}"):
            return f"demazure {name} at rho along w0: {head!r}, not all {size} elements"
        print(f"demazure {name} at rho along {w0}: all {size} elements")
        fundamentals = [tuple(int(j == k) for j in range(rank)) for k in range(rank)]
        for lam in [top, *fundamentals]:
            weight = ",".join(map(str, lam))
            argv = ["verify", "--type", name, "--weight", weight, "--format", "json"]
            qcrystal(*argv, check=True, stdout=subprocess.DEVNULL)
            code = qcrystal(*argv, "--inject-failure", stdout=subprocess.DEVNULL).returncode
            if code != 1:
                return f"verify {name} ({weight}) --inject-failure exited {code}, not 1"
            print(f"verify {name} ({weight}) ok, --inject-failure fails")
    return 0


if __name__ == "__main__":
    sys.exit(main())
