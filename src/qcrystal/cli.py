"""Command-line front end.

Subcommands: crystal, demazure, character, rank-one, verify.  The job is the
argparse namespace that ``parse_args`` validates; ``_run`` does all the work
that can fail and returns an exit code and a producer, which ``_write``
points at the ``--out`` file or at stdout's binary buffer: every emitter
takes that ``write`` sink last and returns nothing.  The crystal emitters
format one element or edge at a time and the rank-one table one line at a
time, in chunks of about ``_CHUNK_CHARS`` characters, so no full document is
held in memory and nothing is decoded on the way out.  Output is
deterministic byte for byte: element ids are BFS order, edges and members
are emitted sorted, and JSON key order is fixed.  Exit codes: 0 success, 1
verification failure (also a path kernel invariant failure), 2 usage error,
3 output write failure (also when a reader closes stdout early), 4 resource
cap exceeded.  Set CRYSTAL_LOG to error, info or debug to adjust logging.
"""

import argparse
import functools
import json
import logging
import os
import sys
import time

from .character import FormalCharacter, char_of, demazure_operator, weyl_character, weyl_dimension
from .crystal import (DEFAULT_MAX_ELEMENTS, PathKernelError, ResourceCapError,
                      generate_crystal, verify_normal)
from . import demazure
from .rank_one import RankOneModule, act_e, act_f, verify_sl2_relation
from .root_data import _coset_words, _orbit_walk, cartan_datum, longest_word, weyl_order

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
    if ns.inject_failure and not any(ns.weight):
        parser.error("--inject-failure needs a nonzero --weight: B(0) has no string to corrupt")
    return ns


# -- exporters ----------------------------------------------------------


#: Characters joined into one chunk of output: about 100 crystal elements
#: or edges, or 10 lines of a rank-one table at lambda = 400.
_CHUNK_CHARS = 32_768


def _emit(pieces, write):
    """Hand the pieces to ``write`` as bytes, in chunks of about ``_CHUNK_CHARS``."""
    batch, size = [], 0
    for piece in pieces:
        batch.append(piece)
        size += len(piece)
        if size >= _CHUNK_CHARS:
            write("".join(batch).encode())
            batch, size = [], 0
    if batch:
        write("".join(batch).encode())


def _json_ints(values, indent):
    """A list of ints laid out as ``json.dumps(indent=2)`` lays it out at ``indent``."""
    if not values:
        return "[]"
    inner = "\n" + " " * (indent + 2)
    return "[" + inner + ("," + inner).join(map(str, values)) + "\n" + " " * indent + "]"


def _json_pieces(graph, members):
    yield (f'{{\n  "family": {json.dumps(graph.datum.family)},\n'
           f'  "rank": {graph.datum.rank},\n'
           f'  "highest_weight": {_json_ints(graph.highest_weight, 2)},\n'
           f'  "elements": [')
    for b, (wt, eps, phi) in enumerate(zip(graph.weight_of, graph.eps_of, graph.phi_of)):
        yield (f'{"," if b else ""}\n    {{\n      "id": {b},\n'
               f'      "weight": {_json_ints(wt, 6)},\n'
               f'      "eps": {_json_ints(eps, 6)},\n'
               f'      "phi": {_json_ints(phi, 6)}\n    }}')
    yield '\n  ],\n  "edges": ['
    sep = ""
    for b, i, child in graph.edge_triples():
        yield (f'{sep}\n    {{\n      "from": {b},\n'
               f'      "to": {child},\n      "i": {i}\n    }}')
        sep = ","
    yield "\n  ]" if sep else "]"  # json.dumps writes an empty list as []
    if members is not None:
        yield f',\n  "members": {_json_ints(sorted(members), 2)}'
    yield "\n}\n"


def emit_json(graph, members, write):
    """Deterministic JSON for a crystal, with a Demazure subset's members unless they are None.

    The layout is that of ``json.dumps(indent=2)``; bytes go to ``write`` in chunks.
    """
    _emit(_json_pieces(graph, members), write)


def _dot_pieces(graph, members):
    yield "digraph crystal {\n  rankdir=TB;\n"
    for b, wt in enumerate(graph.weight_of):
        label = "(" + ", ".join(map(str, wt)) + ")"
        extra = ", peripheries=2" if members is not None and b in members else ""
        yield f'  n{b} [label="{label}"{extra}];\n'
    for b, i, child in graph.edge_triples():
        yield f'  n{b} -> n{child} [label="{i}"];\n'
    yield "}\n"


def emit_dot(graph, members, write):
    """Deterministic DOT digraph, nodes labeled by weight, edges by index; bytes go to ``write``."""
    _emit(_dot_pieces(graph, members), write)


def _text_pieces(graph, members):
    name = graph.datum.name
    lam = ", ".join(str(c) for c in graph.highest_weight)
    head = f"crystal {name} highest weight ({lam}): {len(graph)} elements"
    if members is not None:
        head += f", subset of size {len(members)}"
    yield head + "\n"
    for b, row in enumerate(zip(graph.weight_of, graph.eps_of, graph.phi_of)):
        mark = "*" if members is not None and b in members else " "
        wt, eps, phi = (", ".join(map(str, values)) for values in row)
        yield f"{mark}{b:>4}  weight=({wt})  eps=({eps})  phi=({phi})\n"
    yield "edges:\n"
    for b, i, child in graph.edge_triples():
        yield f"  {b} -{i}-> {child}\n"


def emit_text(graph, members, write):
    """One line per element, then one per edge; bytes go to ``write`` in chunks."""
    _emit(_text_pieces(graph, members), write)


def emit_character(datum, lam, word, chi, fmt, write):
    """chi as JSON when fmt is json, else as its rendered sum; bytes go to ``write``."""
    if fmt == "json":
        payload = {
            "family": datum.family,
            "rank": datum.rank,
            "highest_weight": list(lam),
            "word": list(word) if word is not None else None,
            "character": [{"weight": list(w), "mult": m} for w, m in chi.items()],
        }
        write((json.dumps(payload, indent=2) + "\n").encode())
    else:
        write((chi.render() + "\n").encode())


def _action_line(name, k, n, target, text):
    """``name . f^(k)v = [n] f^(target)v = (text) f^(target)v``, or ``= 0`` when text is None."""
    desc = "0" if text is None else f"[{n}] f^({target})v = ({text}) f^({target})v"
    return f"  {name} . f^({k})v = {desc}"


def _rank_one_pieces(m, ok):
    lam = m.lam
    yield (f"rank-one module V({lam}) over Z[q,q^-1], basis f^(k)v, k = 0..{lam}\n"
           "f action:\n")
    e_texts = []
    for k in range(m.dim):
        # f . f^(k)v and e . f^(j)v, j = lam - k, both carry [k+1]: when the
        # two images agree, their coefficient is rendered once for both lines.
        j = lam - k
        f_image, e_image = act_f(m, m.basis_vector(k)), act_e(m, m.basis_vector(j))
        f_text = str(f_image[k + 1]) if f_image else None
        e_text = None
        if e_image:
            same = f_image and e_image[j - 1] == f_image[k + 1]
            e_text = f_text if same else str(e_image[j - 1])
        yield _action_line("f", k, k + 1, k + 1, f_text) + "\n"
        e_texts.append(e_text)  # the e-lines follow the f-lines, j ascending
    yield "e action:\n"
    for j, e_text in enumerate(reversed(e_texts)):
        yield _action_line("e", j, lam - j + 1, j - 1, e_text) + "\n"
    yield "K action:\n"
    for k in range(m.dim):
        yield f"  K . f^({k})v = q^{lam - 2 * k} f^({k})v\n"
    yield "crystal chain: " + " -> ".join(map(str, range(m.dim))) + "\n"
    yield f"sl2 relation (ef - fe = [lambda - 2k]): {'ok' if ok else 'VIOLATED'}\n"


def emit_rank_one(lam, ok, write):
    """The rank-one table of V(lambda): the f, e and K actions, the chain, the sl2 check.

    ``ok`` is the verdict of ``verify_sl2_relation`` on V(lambda).  Lines
    are formatted one at a time; only the e-line coefficient texts, printed
    after every f-line, are held.  Bytes go to ``write`` in chunks.
    """
    _emit(_rank_one_pieces(RankOneModule(lam), ok), write)


# -- verification suite ---------------------------------------------------


def _corrupt(graph, members):
    """members less the top of the first i-string (lowest i, then top) met in its top and child."""
    for i0, column in enumerate(graph.children):
        for b, (child, eps) in enumerate(zip(column, graph.eps_of)):
            if eps[i0] == 0 and child in members and b in members:
                return members - {b}
    raise RuntimeError("no string long enough to corrupt")


def _phase(name, start, detail=""):
    """Log one ``verify`` phase with the seconds since ``start``; returns the time now."""
    now = time.perf_counter()
    log.info("verify phase %s: %.3f s%s", name, now - start, detail)
    return now


def run_verify(job):
    """Run the whole combinatorial suite; returns (report rows, ok).

    Two ``root_data._orbit_walk``s over W.lambda, in the one order of one
    ``_coset_words``, yield every Demazure subset (``demazure._subset_levels``)
    and character (``demazure_operator``); each B_w is checked as it is built,
    and each row keeps its first failure in that order.  B_w must also be
    f_tilde_j closed where s_j fixes w(lambda), for the left descents of the
    longer words with that point.  ``--inject-failure`` corrupts B_{w0} at
    the last point, named by w0's word, for the string and filtration checks.
    Each B_w's child, parent and weight entries are read through one
    ``demazure._gather``, and the character walk keeps one memo of D_i
    expansions.  i-edges that ``demazure._partition_error`` refuses as a
    partition fail the string and filtration rows with its message; saturation
    is plain reachability, so the walk ends on any i-edges and every other row
    still reports its own verdict.
    """
    datum = cartan_datum(job.type_name)
    indices = datum.indices()
    start = time.perf_counter()
    graph = generate_crystal(datum, job.weight, max_elements=job.max_elements)
    start = _phase("generation", start, f", {len(graph)} elements")

    normal = verify_normal(graph)
    start = _phase("normal-crystal-relations", start)

    broken = next(filter(None, (demazure._partition_error(graph, i) for i in indices)), None)
    words, order = _coset_words(graph.orbit)  # order[-1] is w0(lambda)
    strings = filtration = broken
    independence = characters = None
    lam = graph.highest_weight
    peak, shared = 0, {lam: lam}  # the memo of the character walk's D_i expansions
    walk = zip(demazure._subset_levels(graph, words, order),
               _orbit_walk(graph.orbit, words, order, FormalCharacter.monomial(lam),
                           lambda i, chi: demazure_operator(datum, i, chi, shared)))
    for (o, w, members, disagreement, live), (_, _, chi, _) in walk:
        peak = max(peak, live)
        gather = demazure._gather(members)  # one C-level gather per B_w
        if broken is None:
            checked, checked_gather = members, gather
            if job.inject_failure and o == order[-1]:
                w = longest_word(datum)
                checked = _corrupt(graph, members)
                checked_gather = demazure._gather(checked)
                log.info("injected a corrupted subset for %s", w)
            for i in indices:
                string, layers = demazure._string_rule(graph, checked, i, checked_gather)
                if strings is None and not string[0]:
                    strings = (w, string[1])
                if filtration is None and not layers[0]:
                    filtration = (w, layers[1])
        if independence is None and disagreement is not None:
            independence = (w, disagreement)
        if characters is None and char_of(members, graph, gather) != chi:
            characters = (w, "character mismatch")
    start = _phase("orbit walk", start, f", peak {peak} live member slots")

    rows = [("normal-crystal-relations", *normal),
            (f"string-property ({weyl_order(datum)} words x {datum.rank} indices)",
             strings is None, strings),
            ("filtration-structure", filtration is None, filtration),
            ("reduced-word-independence", independence is None, independence),
            ("demazure-character-formula", characters is None, characters)]

    freudenthal = weyl_character(datum, job.weight)
    crystal_char = char_of(graph.all_ids(), graph)
    ok = crystal_char == freudenthal == chi  # chi is D_{w0}(e^lambda)
    rows.append(("weyl-character-agreement", ok, None if ok else "character mismatch"))
    start = _phase("weyl-character-agreement", start)

    dim = weyl_dimension(datum, job.weight)
    ok = len(graph) == dim
    rows.append(("weyl-dimension-agreement", ok,
                 None if ok else (len(graph), dim)))
    _phase("weyl-dimension-agreement", start)

    return rows, all(ok for _, ok, _ in rows)


def _verify_output(job, rows, ok, write):
    """The ``verify`` report, as JSON or one line per row; bytes go to ``write``."""
    if job.fmt == "json":
        payload = {
            "type": job.type_name,
            "weight": list(job.weight),
            "checks": [{"name": name, "ok": good,
                        "witness": None if wit is None else str(wit)}
                       for name, good, wit in rows],
            "ok": ok,
        }
        write((json.dumps(payload, indent=2) + "\n").encode())
        return
    width = max(len(name) for name, _, _ in rows)
    lines = [f"verification suite for {job.type_name}, weight {job.weight}"]
    for name, good, wit in rows:
        status = "PASS" if good else f"FAIL  witness: {wit}"
        lines.append(f"  {name:<{width}}  {status}")
    lines.append(f"result: {'PASS' if ok else 'FAIL'}")
    write(("\n".join(lines) + "\n").encode())


# -- driver ----------------------------------------------------------------


def _write(job, produce):
    """Open the output and let ``produce`` write its bytes there, chunk by chunk."""
    if job.out:
        with open(job.out, "wb") as fh:
            produce(fh.write)
        return
    sys.stdout.flush()
    out = getattr(sys.stdout, "buffer", None)
    if out is None:  # a text stream with no bytes beneath, such as io.StringIO
        produce(lambda chunk: sys.stdout.write(chunk.decode()))
        return
    try:
        produce(out.write)
        out.flush()
    except BrokenPipeError:
        # The reader has gone.  Point stdout at devnull so that the flush
        # at interpreter exit does not raise the same error again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, out.fileno())
        os.close(devnull)
        raise


class _Stderr(logging.StreamHandler):
    """Writes each record to the ``sys.stderr`` of that moment; a stream set on it is ignored."""
    stream = property(lambda self: sys.stderr, lambda self, stream: None)


def _configure_logging():
    level = os.environ.get("CRYSTAL_LOG", "error").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    logging.basicConfig(handlers=[_Stderr()], format="qcrystal %(levelname)s: %(message)s")
    log.setLevel(levels.get(level, logging.ERROR))  # every call: basicConfig acts only once
    if level not in levels:
        log.error("unknown CRYSTAL_LOG value %r, using 'error'", level)


def _run(job):
    """(exit code, produce) for a validated job.

    Everything that can fail runs here, before any output is opened;
    ``produce(write)`` is an emitter with every argument but ``write`` bound,
    and hands the output bytes to ``write``.  The sl2 check runs once, here,
    and a violated relation exits 1 after its table is written, as a failed
    ``verify`` does after its report.
    """
    if job.command == "rank-one":
        lam = job.weight[0]
        if lam + 1 > job.max_elements:
            raise ResourceCapError(f"V({lam}) has {lam + 1} basis elements, "
                                   f"above the cap of {job.max_elements}")
        ok, _ = verify_sl2_relation(RankOneModule(lam))
        code = EXIT_OK if ok else EXIT_VERIFY_FAILED
        return code, functools.partial(emit_rank_one, lam, ok)
    if job.command == "verify":
        rows, ok = run_verify(job)
        code = EXIT_OK if ok else EXIT_VERIFY_FAILED
        return code, functools.partial(_verify_output, job, rows, ok)
    datum = cartan_datum(job.type_name)
    graph = generate_crystal(datum, job.weight, max_elements=job.max_elements)
    members = None if job.word is None else demazure.demazure_crystal(graph, job.word)
    if job.command == "character":
        chi = char_of(graph.all_ids() if members is None else members, graph)
        return EXIT_OK, functools.partial(emit_character, datum, job.weight, job.word, chi, job.fmt)
    emitter = {"json": emit_json, "dot": emit_dot, "text": emit_text}[job.fmt]
    return EXIT_OK, functools.partial(emitter, graph, members)


def main(argv=None):
    _configure_logging()
    job = parse_args(sys.argv[1:] if argv is None else list(argv))
    try:
        code, produce = _run(job)
        _write(job, produce)
        return code
    except ResourceCapError as exc:
        print(f"qcrystal: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except PathKernelError as exc:
        # a path left its grid: a kernel bug on valid input, not a usage error
        print(f"qcrystal: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    except ValueError as exc:
        print(f"qcrystal: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"qcrystal: cannot write output: {exc}", file=sys.stderr)
        return EXIT_WRITE


if __name__ == "__main__":
    sys.exit(main())
