"""Job lists for each workload, generated from a seed.

A job is the argv of one ``qcrystal`` CLI call (without ``--out``).  Fixed
jobs carry a ``digest_key`` and are checked byte for byte against
``digests.json``; drawn jobs have none and are checked against the
program's independent oracles instead (see ``checks.py``).

Job generation calls no program function that has a cache, so the timed
jobs still find every cache cold apart from the Weyl tables built during
set-up.
"""

import random
from dataclasses import dataclass

from qcrystal.root_data import cartan_datum

WORKLOADS = ("large-jobs", "small-jobs")
SCALES = ("full", "tiny")

# Dominant weights whose crystal has at most 100 elements (Weyl dimension
# formula), per supported type.  A1 is every weight 0..99.
_POOL_TEXT = {
    "A2": "0,0 0,1 0,2 0,3 0,4 0,5 0,6 0,7 0,8 0,9 0,10 0,11 0,12 1,0 1,1 1,2 1,3 "
          "1,4 1,5 1,6 1,7 1,8 2,0 2,1 2,2 2,3 2,4 2,5 3,0 3,1 3,2 3,3 3,4 4,0 4,1 "
          "4,2 4,3 5,0 5,1 5,2 6,0 6,1 7,0 7,1 8,0 8,1 9,0 10,0 11,0 12,0",
    "A3": "0,0,0 0,0,1 0,0,2 0,0,3 0,0,4 0,0,5 0,0,6 0,1,0 0,1,1 0,1,2 0,1,3 0,2,0 "
          "0,2,1 0,3,0 1,0,0 1,0,1 1,0,2 1,0,3 1,1,0 1,1,1 1,2,0 2,0,0 2,0,1 2,0,2 "
          "2,1,0 3,0,0 3,0,1 3,1,0 4,0,0 5,0,0 6,0,0",
    "A4": "0,0,0,0 0,0,0,1 0,0,0,2 0,0,0,3 0,0,0,4 0,0,1,0 0,0,1,1 0,0,2,0 0,1,0,0 "
          "0,1,0,1 0,1,1,0 0,2,0,0 1,0,0,0 1,0,0,1 1,0,0,2 1,0,1,0 1,1,0,0 2,0,0,0 "
          "2,0,0,1 3,0,0,0 4,0,0,0",
    "B2": "0,0 0,1 0,2 0,3 0,4 0,5 0,6 1,0 1,1 1,2 1,3 2,0 2,1 2,2 3,0 3,1 4,0 5,0",
    "B3": "0,0,0 0,0,1 0,0,2 0,1,0 1,0,0 1,0,1 2,0,0 3,0,0",
    "C3": "0,0,0 0,0,1 0,0,2 0,1,0 0,2,0 1,0,0 1,0,1 1,1,0 2,0,0 3,0,0",
    "D4": "0,0,0,0 0,0,0,1 0,0,0,2 0,0,1,0 0,0,1,1 0,0,2,0 0,1,0,0 1,0,0,0 1,0,0,1 "
          "1,0,1,0 2,0,0,0",
    "G2": "0,0 0,1 0,2 1,0 1,1 2,0 3,0",
}
SMALL_POOL = {"A1": [str(a) for a in range(100)],
              **{t: text.split() for t, text in _POOL_TEXT.items()}}
SMALL_RANK_ONE_MAX = 40
# verify is left out: its cost follows |W| (192 for D4), not crystal size,
# so it is no fixed-cost job; large-jobs covers it.
SMALL_COMMANDS = ("crystal", "demazure", "character", "rank-one")
FORMATS = ("json", "dot", "text")

_SIZES = {
    "full": {"export": (("G2", "4,4"), ("B3", "2,1,2"), ("A4", "2,1,1,2")),
             "verify": (("D4", "1,1,1,1"), ("B3", "1,1,1")),
             "rank-one": (100, 200, 400),
             "small-jobs": 1000},
    "tiny": {"export": (("G2", "1,1"), ("B3", "1,0,1"), ("A4", "1,0,0,1")),
             "verify": (("D4", "1,0,0,0"), ("B3", "1,0,0")),
             "rank-one": (10, 20, 40),
             "small-jobs": 20},
}


@dataclass(frozen=True)
class Job:
    argv: tuple[str, ...]
    group: str
    digest_key: str | None = None

    @property
    def command(self):
        return self.argv[0]

    def option(self, name):
        """Value of ``--name`` in argv, or None."""
        flag = "--" + name
        return self.argv[self.argv.index(flag) + 1] if flag in self.argv else None


def random_reduced_word(type_name, length, rng):
    """A reduced word of the given length, by a random walk up the weak order.

    Tracks w(rho) in fundamental-weight coordinates: s_i w is longer than w
    exactly when <h_i, w(rho)> > 0, so every step keeps the word reduced.
    Asking for the length of w0 yields a random reduced word of w0.
    """
    a = cartan_datum(type_name).cartan
    key = [1] * len(a)
    word = []
    for _ in range(length):
        i = rng.choice([j for j, c in enumerate(key) if c > 0])
        key = [key[j] - key[i] * a[j][i] for j in range(len(a))]
        word.insert(0, i + 1)
    return word


def longest_length(type_name):
    """Length of w0, the number of positive roots."""
    rank = len(cartan_datum(type_name).cartan)
    return {"A": rank * (rank + 1) // 2, "B": rank * rank, "C": rank * rank,
            "D": rank * (rank - 1), "G": 6}[type_name[0]]


def _csv(word):
    return ",".join(str(i) for i in word)


def _large_jobs(sizes, rng):
    """The export, verify and rank-one job groups, in seed order.

    export: a few large crystals, so per-element path cost, memory and the
    emitters dominate.  The Demazure job takes a seed-chosen reduced word of
    w0; every such word gives byte-identical output at the same cost.
    verify: medium crystals read over and over by the Demazure checks and
    character oracles; D4 (|W| = 192) takes the sampled reduced-word branch,
    B3 (|W| = 48) full enumeration.  rank-one: the only jobs that reach
    qarith and rank_one; cost grows faster than cubically in the weight.
    """
    (t1, w1), (t2, w2), (t3, w3) = sizes["export"]
    word = _csv(random_reduced_word(t2, longest_length(t2), rng))
    jobs = [
        Job(("crystal", "--type", t1, "--weight", w1, "--format", "json"), "export",
            f"crystal --type {t1} --weight {w1} --format json"),
        Job(("demazure", "--type", t2, "--weight", w2, "--word", word, "--format", "dot"),
            "export", f"demazure --type {t2} --weight {w2} --word w0 --format dot"),
        Job(("character", "--type", t3, "--weight", w3), "export",
            f"character --type {t3} --weight {w3}"),
    ]
    (t4, w4), (t5, w5) = sizes["verify"]
    jobs += [Job(("verify", "--type", t4, "--weight", w4, "--format", "json"), "verify",
                 f"verify --type {t4} --weight {w4} --format json"),
             Job(("verify", "--type", t5, "--weight", w5), "verify",
                 f"verify --type {t5} --weight {w5}")]
    jobs += [Job(("rank-one", "--weight", str(lam)), "rank-one", f"rank-one --weight {lam}")
             for lam in sizes["rank-one"]]
    rng.shuffle(jobs)
    return jobs


def _draw_small(command, rng):
    if command == "rank-one":
        return ("rank-one", "--weight", str(rng.randint(0, SMALL_RANK_ONE_MAX)))
    fmt = rng.choice(FORMATS)
    type_name = rng.choice(sorted(SMALL_POOL))
    argv = [command, "--type", type_name, "--weight", rng.choice(SMALL_POOL[type_name])]
    top = longest_length(type_name)
    if command == "demazure" or (command == "character" and rng.random() < 0.5):
        argv += ["--word", _csv(random_reduced_word(type_name, rng.randint(1, top), rng))]
    return tuple(argv + ["--format", fmt])


def _small_jobs(sizes, rng):
    """Distinct drawn jobs; a command leaves the draw once its pool is exhausted."""
    count = sizes["small-jobs"]
    live = list(SMALL_COMMANDS)
    seen, jobs, misses = set(), [], dict.fromkeys(SMALL_COMMANDS, 0)
    while len(jobs) < count:
        command = rng.choice(live)
        argv = _draw_small(command, rng)
        if argv in seen:
            misses[command] += 1
            if misses[command] >= 200:
                live.remove(command)
            continue
        misses[command] = 0
        seen.add(argv)
        jobs.append(Job(argv, "small"))
    return jobs


_BUILDERS = {"large-jobs": _large_jobs, "small-jobs": _small_jobs}


def jobs_for(workload, seed, scale="full"):
    """The job list of one workload pass; the same seed gives the same list."""
    return _BUILDERS[workload](_SIZES[scale], random.Random(seed))


def fixed_jobs(scale):
    """Every digest-checked job of a scale (seed 0 for the w0 word)."""
    return jobs_for("large-jobs", 0, scale)
