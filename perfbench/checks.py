"""Output checks, run after the timed region.

Fixed jobs: exit code and sha256 of the output bytes must match the digest
recorded in ``digests.json`` (byte identity is the CLI contract).  Drawn
jobs: exit 0 and agreement with the program's independent oracles -- crystal
size against the Weyl dimension formula, Demazure subset size and characters
against Demazure operators or Freudenthal's recursion.
"""

import hashlib
import json
import os
import re

from qcrystal.character import (FormalCharacter, apply_demazure_word,
                                weyl_character, weyl_dimension)
from qcrystal.root_data import cartan_datum

DIGESTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")

_TEXT_HEADER = re.compile(r"crystal \S+ highest weight \([^)]*\): (\d+) elements"
                          r"(?:, subset of size (\d+))?")


def load_digests():
    with open(DIGESTS_PATH) as fh:
        return json.load(fh)


def digest(rc, data):
    return {"rc": rc, "sha256": hashlib.sha256(data).hexdigest()}


def _ints(text):
    return tuple(int(x) for x in text.split(","))


def _lam_datum(job):
    return cartan_datum(job.option("type")), _ints(job.option("weight"))


def elements(job):
    """Crystal elements the job builds: |B(lambda)|, or the lambda+1 chain of rank-one."""
    if job.command == "rank-one":
        return int(job.option("weight")) + 1
    datum, lam = _lam_datum(job)
    return weyl_dimension(datum, lam)


def _graph_sizes(fmt, data):
    """(crystal size, subset size or None) read from a crystal export."""
    text = data.decode()
    if fmt == "json":
        payload = json.loads(text)
        members = payload.get("members")
        return len(payload["elements"]), None if members is None else len(members)
    if fmt == "dot":
        members = text.count("peripheries=2")
        return text.count('[label="('), members or None
    m = _TEXT_HEADER.match(text)
    if m is None:
        return None, None
    return int(m.group(1)), None if m.group(2) is None else int(m.group(2))


def _check_drawn(job, data):
    fmt = job.option("format")
    if job.command == "rank-one":
        lam = int(job.option("weight"))
        lines = data.decode().splitlines()
        chain = " -> ".join(str(k) for k in range(lam + 1))
        if (len(lines) != 3 * (lam + 1) + 6 or lines[-2] != f"crystal chain: {chain}"
                or not lines[-1].endswith(": ok")):
            return "rank-one table malformed"
        return None
    datum, lam = _lam_datum(job)
    word = job.option("word")
    word = None if word is None else _ints(word)
    if job.command == "character":
        if word is None:
            expected = weyl_character(datum, lam)
        else:
            expected = apply_demazure_word(datum, word, FormalCharacter.monomial(lam))
        if fmt == "json":
            got = json.loads(data)["character"]
            want = [{"weight": list(w), "mult": m} for w, m in expected.items()]
            return None if got == want else "character differs from oracle"
        return None if data == (expected.render() + "\n").encode() else "character differs from oracle"
    size, subset = _graph_sizes(fmt, data)
    if size != weyl_dimension(datum, lam):
        return f"crystal size {size} differs from Weyl dimension"
    if job.command == "demazure":
        want = apply_demazure_word(datum, word, FormalCharacter.monomial(lam)).total()
        # a subset of size 0 cannot occur, so a missing count is a failure
        if subset != want:
            return f"Demazure subset size {subset} differs from D_w(e^lambda) total {want}"
    return None


def check(job, rc, data, digests):
    """None when the job's output is right, else a one-line reason."""
    if job.digest_key is not None:
        want = digests.get(job.digest_key)
        if want is None:
            return "no recorded digest"
        return None if digest(rc, data) == want else "output differs from recorded digest"
    if rc != 0:
        return f"exit code {rc}"
    try:
        return _check_drawn(job, data)
    except (ValueError, KeyError) as exc:
        return f"unreadable output: {exc}"
