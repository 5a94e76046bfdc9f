"""Span recorder for the traced run, installed from outside the program.

Every public function of each qcrystal module (plus ``LaurentPoly`` product
and exact division) is replaced by a wrapper that records one span: name,
start, end and parent span.  The wrapper is rebound under every module
namespace that holds the function, so calls made inside the defining module
(``crystal.generate_crystal`` calling ``crystal.f_tilde``) and through an
import (``cli.generate_crystal``) are both seen.  Spans live in flat arrays
in memory and are written out once at the end.
"""

import functools
import gzip
import importlib
from array import array
from time import perf_counter

MODULES = ("root_data", "crystal", "demazure", "character", "qarith", "rank_one", "cli")


class Recorder:
    """Flat span arrays plus the exact counters that need call arguments."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.current = -1
        self.job = -1
        self.first_job_span = 0
        self.counters = {"root_data.all_reduced_words.words": 0, "crystal.elements": 0,
                         "crystal.edges": 0, "qarith.mul.term_products": 0}
        self.i_string_inputs: set[tuple[int, int, int]] = set()

    def name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin_job(self):
        """Mark the next spans as belonging to a new job (the first call marks set-up's end)."""
        if self.job < 0:
            self.first_job_span = len(self.start)
        self.job += 1

    def write(self, path):
        """One ``id name start end parent`` line per span, gzip-compressed."""
        names, lines = self.names, []
        for sid, (n, p, s, e) in enumerate(zip(self.name, self.parent, self.start, self.end)):
            lines.append(f"{sid} {names[n]} {s:.9f} {e:.9f} {p}")
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("\n".join(lines) + "\n")


def _wrap(rec, name, fn, count=None):
    nid = rec.name_id(name)
    names, parents, starts, ends = rec.name, rec.parent, rec.start, rec.end

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        sid = len(starts)
        names.append(nid)
        parents.append(rec.current)
        ends.append(0.0)
        rec.current = sid
        starts.append(perf_counter())
        try:
            result = fn(*args, **kwargs)
        finally:
            ends[sid] = perf_counter()
            rec.current = parents[sid]
        if count is not None:
            count(rec, args, result)
        return result

    return wrapper


def _add(key, size):
    def count(rec, args, result):
        rec.counters[key] += size(args, result)
    return count


def _count_graph(rec, args, graph):
    rec.counters["crystal.elements"] += len(graph)
    rec.counters["crystal.edges"] += len(graph.edges)


def _count_i_strings(rec, args, result):
    rec.i_string_inputs.add((rec.job, id(args[0]), args[1]))


def _term_products(args, result):
    a, b = args
    return len(a) * (len(b) if hasattr(b, "_terms") else int(b != 0))


_COUNTS = {
    "root_data.all_reduced_words": _add("root_data.all_reduced_words.words",
                                        lambda args, words: len(words)),
    "crystal.generate_crystal": _count_graph,
    "demazure.i_strings": _count_i_strings,
    "qarith.mul": _add("qarith.mul.term_products", _term_products),
}


def install(rec):
    """Wrap every public qcrystal function and rebind it wherever it is held."""
    package = importlib.import_module("qcrystal")
    modules = {m: importlib.import_module(f"qcrystal.{m}") for m in MODULES}
    wrappers = {}
    for short, mod in modules.items():
        for attr, obj in vars(mod).items():
            if (attr.startswith("_") or isinstance(obj, type) or not callable(obj)
                    or getattr(obj, "__module__", None) != mod.__name__):
                continue
            name = f"{short}.{attr}"
            wrappers[id(obj)] = (obj, _wrap(rec, name, obj, _COUNTS.get(name)))
    for mod in (package, *modules.values()):
        for attr, obj in list(vars(mod).items()):
            hit = wrappers.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])
    poly = modules["qarith"].LaurentPoly
    poly.__mul__ = poly.__rmul__ = _wrap(rec, "qarith.mul", poly.__mul__, _COUNTS["qarith.mul"])
    poly.exact_div = _wrap(rec, "qarith.exact_div", poly.exact_div)


def summarize(rec):
    """Per-name calls, inclusive and self seconds, and per-module self seconds.

    Inclusive time counts only the outermost span of a name, so recursion
    (``qfact``) is not counted twice.  Self time is a span's duration minus
    the durations of its direct children; module self times cover the spans
    recorded during jobs, so they sum to at most the traced job wall time.
    """
    n = len(rec.start)
    dur = [e - s for s, e in zip(rec.start, rec.end)]
    children = [0.0] * n
    for sid, p in enumerate(rec.parent):
        if p >= 0:
            children[p] += dur[sid]
    k = len(rec.names)
    calls, inclusive, self_s = [0] * k, [0.0] * k, [0.0] * k
    module_self = dict.fromkeys(MODULES, 0.0)
    names, parents = rec.name, rec.parent
    for sid in range(n):
        nid = names[sid]
        own = dur[sid] - children[sid]
        calls[nid] += 1
        self_s[nid] += own
        p = parents[sid]
        while p >= 0 and names[p] != nid:
            p = parents[p]
        if p < 0:
            inclusive[nid] += dur[sid]
        if sid >= rec.first_job_span:
            module_self[rec.names[nid].split(".")[0]] += own
    per_name = {name: {"calls": calls[i], "s": inclusive[i], "self_s": self_s[i]}
                for i, name in enumerate(rec.names)}
    return per_name, module_self
