"""Command-line front end.

Subcommands: crystal, demazure, character, rank-one, verify.  The job is
the argparse namespace that ``parse_args`` validates; ``_run`` turns it
into an exit code and the output bytes, which ``main`` writes.  Output is
deterministic byte for byte: element ids are BFS order, edges and members
are emitted sorted, and JSON key order is fixed.  Exit codes: 0 success,
1 verification failure, 2 usage error, 3 output write failure, 4 resource
cap exceeded.  Set CRYSTAL_LOG to error, info or debug to adjust logging.
"""

import argparse
import functools
import json
import logging
import os
import sys

from .character import char_of, demazure_characters, weyl_character, weyl_dimension
from .crystal import DEFAULT_MAX_ELEMENTS, ResourceCapError, generate_crystal, verify_normal
from .demazure import (DemazureCrystal, demazure_crystal, demazure_subsets,
                       string_index, verify_filtration_structure,
                       verify_string_property)
from .rank_one import RankOneModule, act_e, act_f, verify_sl2_relation
from .root_data import cartan_datum, longest_word

log = logging.getLogger("qcrystal")

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_WRITE = 3
EXIT_RESOURCE = 4


def _int_list(text):
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


@functools.cache
def _build_parser():
    """The argparse parser, built on first use and shared by later parses."""
    parser = argparse.ArgumentParser(
        prog="qcrystal",
        description="exact crystals, Demazure subsets and characters")
    parser.set_defaults(type_name=None, word=None, inject_failure=False)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, word_help=None, typed=True):
        if typed:
            p.add_argument("--type", dest="type_name", required=True, metavar="NAME",
                           help="root-system type, e.g. A2, B2, G2")
        p.add_argument("--weight", required=True, type=_int_list, metavar="C1,C2,...",
                       help="dominant weight in fundamental-weight coordinates")
        if word_help:
            p.add_argument("--word", type=_int_list, metavar="I1,I2,...", help=word_help)
        p.add_argument("--format", dest="fmt", choices=("json", "dot", "text"),
                       default="text", help="output format (default text)")
        p.add_argument("--out", metavar="PATH", help="write output to PATH instead of stdout")
        p.add_argument("--max-elements", type=int, default=DEFAULT_MAX_ELEMENTS,
                       metavar="N", help="crystal size cap (default %(default)s)")

    common(sub.add_parser("crystal", help="build B(lambda) and export it"))
    p = sub.add_parser("demazure", help="build a Demazure subset B_w(lambda)")
    common(p, word_help="reduced word, required")
    p = sub.add_parser("character", help="character of B(lambda) or B_w(lambda)")
    common(p, word_help="optional reduced word for a Demazure character")
    p = sub.add_parser("rank-one", help="print the rank-one action tables")
    common(p, typed=False)
    p = sub.add_parser("verify", help="run the verification suite")
    common(p)
    p.add_argument("--inject-failure", action="store_true",
                   help="corrupt one Demazure subset first (negative-control test hook)")
    return parser


def parse_args(argv):
    """Parse and validate argv into the job; exits with code 2 on misuse.

    The job is the argparse namespace itself.  Every subcommand yields the
    same fields: command, type_name (None for rank-one), weight, word,
    fmt, out, max_elements and inject_failure.
    """
    parser = _build_parser()
    ns = parser.parse_args(argv)
    if ns.type_name is not None:
        try:
            datum = cartan_datum(ns.type_name)
        except ValueError as exc:
            parser.error(str(exc))
        if len(ns.weight) != datum.rank:
            parser.error(f"--weight needs {datum.rank} coordinates for {datum.name}, "
                         f"got {len(ns.weight)}")
        if ns.word is not None and any(not 1 <= i <= datum.rank for i in ns.word):
            parser.error(f"--word letters must lie in 1..{datum.rank}")
    else:
        if len(ns.weight) != 1:
            parser.error("rank-one takes a single integer --weight")
        if ns.weight[0] < 0:
            parser.error("rank-one highest weight must be nonnegative")
    if ns.command == "demazure" and ns.word is None:
        parser.error("demazure requires --word")
    if ns.max_elements <= 0:
        parser.error(f"--max-elements must be positive, got {ns.max_elements}")
    if ns.type_name is not None and any(c < 0 for c in ns.weight):
        parser.error(f"--weight must be dominant (all coordinates >= 0), got {ns.weight}")
    return ns


# -- exporters ----------------------------------------------------------


def _sorted_edges(graph):
    return sorted(graph.edges.items())


def emit_json(graph, members=None):
    """Deterministic JSON for a crystal or a Demazure subset of it."""
    payload = {
        "family": graph.datum.family,
        "rank": graph.datum.rank,
        "highest_weight": list(graph.highest_weight),
        "elements": [
            {"id": b,
             "weight": list(graph.weight(b)),
             "eps": [graph.eps(b, i) for i in graph.indices()],
             "phi": [graph.phi(b, i) for i in graph.indices()]}
            for b in graph.all_ids()],
        "edges": [
            {"from": b, "to": child, "i": i}
            for (b, i), child in _sorted_edges(graph)],
    }
    if members is not None:
        payload["members"] = sorted(members)
    return (json.dumps(payload, indent=2) + "\n").encode()


def emit_dot(graph, members=None):
    """Deterministic DOT digraph, nodes labeled by weight, edges by index."""
    lines = ["digraph crystal {", "  rankdir=TB;"]
    for b in graph.all_ids():
        label = "(" + ", ".join(str(c) for c in graph.weight(b)) + ")"
        extra = ", peripheries=2" if members is not None and b in members else ""
        lines.append(f'  n{b} [label="{label}"{extra}];')
    for (b, i), child in _sorted_edges(graph):
        lines.append(f'  n{b} -> n{child} [label="{i}"];')
    lines.append("}")
    return ("\n".join(lines) + "\n").encode()


def emit_text(graph, members=None):
    name = graph.datum.name
    lam = ", ".join(str(c) for c in graph.highest_weight)
    lines = [f"crystal {name} highest weight ({lam}): {len(graph)} elements"]
    if members is not None:
        lines[0] += f", subset of size {len(members)}"
    for b in graph.all_ids():
        mark = "*" if members is not None and b in members else " "
        wt = ", ".join(str(c) for c in graph.weight(b))
        eps = ", ".join(str(graph.eps(b, i)) for i in graph.indices())
        phi = ", ".join(str(graph.phi(b, i)) for i in graph.indices())
        lines.append(f"{mark}{b:>4}  weight=({wt})  eps=({eps})  phi=({phi})")
    lines.append("edges:")
    for (b, i), child in _sorted_edges(graph):
        lines.append(f"  {b} -{i}-> {child}")
    return ("\n".join(lines) + "\n").encode()


def emit_character(datum, lam, word, chi, fmt):
    if fmt == "json":
        payload = {
            "family": datum.family,
            "rank": datum.rank,
            "highest_weight": list(lam),
            "word": list(word) if word is not None else None,
            "character": [{"weight": list(w), "mult": m} for w, m in chi.items()],
        }
        return (json.dumps(payload, indent=2) + "\n").encode()
    return (chi.render() + "\n").encode()


def emit_rank_one(lam):
    m = RankOneModule(lam)
    lines = [f"rank-one module V({lam}) over Z[q,q^-1], basis f^(k)v, k = 0..{lam}"]
    lines.append("f action:")
    for k in range(m.dim):
        image = act_f(m, m.basis_vector(k))
        desc = f"[{k + 1}] f^({k + 1})v = ({image[k + 1]}) f^({k + 1})v" if image else "0"
        lines.append(f"  f . f^({k})v = {desc}")
    lines.append("e action:")
    for k in range(m.dim):
        image = act_e(m, m.basis_vector(k))
        co = m.lam - k + 1
        desc = f"[{co}] f^({k - 1})v = ({image[k - 1]}) f^({k - 1})v" if image else "0"
        lines.append(f"  e . f^({k})v = {desc}")
    lines.append("K action:")
    for k in range(m.dim):
        lines.append(f"  K . f^({k})v = q^{m.lam - 2 * k} f^({k})v")
    chain = " -> ".join(str(k) for k in range(m.dim))
    lines.append(f"crystal chain: {chain}")
    ok, _ = verify_sl2_relation(m)
    lines.append(f"sl2 relation (ef - fe = [lambda - 2k]): {'ok' if ok else 'VIOLATED'}")
    return ("\n".join(lines) + "\n").encode()


# -- verification suite ---------------------------------------------------


def _corrupt(dc):
    """Drop a mid-string member so the string property must fail."""
    for i in dc.graph.indices():
        for s in string_index(dc.graph, i)[0]:
            if s.length >= 1 and set(s.members) <= dc.members:
                members = dc.members - {s.members[-1]}
                return DemazureCrystal(dc.graph, dc.word, frozenset(members))
    raise RuntimeError("no string long enough to corrupt")


def _first_failure(subsets, check, indices):
    """(True, None), or (False, (w, witness)) for the first failing (w, i)."""
    for w, dc in subsets.items():
        for i in indices:
            good, wit = check(dc, i)
            if not good:
                return False, (w, wit)
    return True, None


def run_verify(job):
    """Run the whole combinatorial suite; returns (report rows, ok).

    Every Demazure subset and every Demazure character comes from one
    pass over the weak order (``demazure_subsets``, ``demazure_characters``).
    ``--inject-failure`` corrupts B_{w0} for the string and filtration
    checks only.
    """
    datum = cartan_datum(job.type_name)
    graph = generate_crystal(datum, job.weight, max_elements=job.max_elements)
    subsets, independence = demazure_subsets(graph)
    checked = dict(subsets)
    if job.inject_failure:
        top_word = longest_word(datum)
        checked[top_word] = _corrupt(checked[top_word])
        log.info("injected a corrupted subset for %s", top_word)

    rows = []

    ok, witness = verify_normal(graph)
    rows.append(("normal-crystal-relations", ok, witness))

    ok, witness = _first_failure(checked, verify_string_property, datum.indices())
    rows.append((f"string-property ({len(subsets)} words x {datum.rank} indices)", ok, witness))

    ok, witness = _first_failure(checked, verify_filtration_structure, datum.indices())
    rows.append(("filtration-structure", ok, witness))

    rows.append(("reduced-word-independence", independence is None, independence))

    chars = demazure_characters(datum, job.weight)
    ok, witness = True, None
    for w, dc in subsets.items():
        if char_of(dc.members, graph) != chars[w]:
            ok, witness = False, (w, "character mismatch")
            break
    rows.append(("demazure-character-formula", ok, witness))

    freudenthal = weyl_character(datum, job.weight)
    crystal_char = char_of(graph.all_ids(), graph)
    ok = crystal_char == freudenthal == chars[longest_word(datum)]
    rows.append(("weyl-character-agreement", ok, None if ok else "character mismatch"))

    dim = weyl_dimension(datum, job.weight)
    ok = len(graph) == dim
    rows.append(("weyl-dimension-agreement", ok,
                 None if ok else (len(graph), dim)))

    return rows, all(ok for _, ok, _ in rows)


def _verify_output(job, rows, ok):
    if job.fmt == "json":
        payload = {
            "type": job.type_name,
            "weight": list(job.weight),
            "checks": [{"name": name, "ok": good,
                        "witness": None if wit is None else str(wit)}
                       for name, good, wit in rows],
            "ok": ok,
        }
        return (json.dumps(payload, indent=2) + "\n").encode()
    width = max(len(name) for name, _, _ in rows)
    lines = [f"verification suite for {job.type_name}, weight {job.weight}"]
    for name, good, wit in rows:
        status = "PASS" if good else f"FAIL  witness: {wit}"
        lines.append(f"  {name:<{width}}  {status}")
    lines.append(f"result: {'PASS' if ok else 'FAIL'}")
    return ("\n".join(lines) + "\n").encode()


# -- driver ----------------------------------------------------------------


def _write(job, data):
    if job.out:
        with open(job.out, "wb") as fh:
            fh.write(data)
    else:
        sys.stdout.write(data.decode())
        sys.stdout.flush()


def _configure_logging():
    level = os.environ.get("CRYSTAL_LOG", "error").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    logging.basicConfig(stream=sys.stderr,
                        level=levels.get(level, logging.ERROR),
                        format="qcrystal %(levelname)s: %(message)s")
    if level not in levels:
        log.error("unknown CRYSTAL_LOG value %r, using 'error'", level)


def _run(job):
    """(exit code, output bytes) for a validated job."""
    if job.command == "rank-one":
        lam = job.weight[0]
        if lam + 1 > job.max_elements:
            raise ResourceCapError(f"V({lam}) has {lam + 1} basis elements, "
                                   f"above the cap of {job.max_elements}")
        return EXIT_OK, emit_rank_one(lam)
    if job.command == "verify":
        rows, ok = run_verify(job)
        return EXIT_OK if ok else EXIT_VERIFY_FAILED, _verify_output(job, rows, ok)
    datum = cartan_datum(job.type_name)
    graph = generate_crystal(datum, job.weight, max_elements=job.max_elements)
    members = None if job.word is None else demazure_crystal(graph, job.word).members
    if job.command == "character":
        chi = char_of(graph.all_ids() if members is None else members, graph)
        return EXIT_OK, emit_character(datum, job.weight, job.word, chi, job.fmt)
    emitter = {"json": emit_json, "dot": emit_dot, "text": emit_text}[job.fmt]
    return EXIT_OK, emitter(graph, members)


def main(argv=None):
    _configure_logging()
    job = parse_args(sys.argv[1:] if argv is None else list(argv))
    try:
        code, data = _run(job)
        _write(job, data)
        return code
    except ResourceCapError as exc:
        print(f"qcrystal: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except ValueError as exc:
        print(f"qcrystal: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"qcrystal: cannot write output: {exc}", file=sys.stderr)
        return EXIT_WRITE


if __name__ == "__main__":
    sys.exit(main())
