"""Highest-weight crystals via piecewise-linear paths in the weight lattice.

An element of B(lambda) is a piecewise-linear path from the origin, kept
as its maximal straight runs.  The lowering operator cuts the path at the
last time the i-height <h_i, path(t)> reaches its minimum m and at the
first later time it reaches m + 1, and reflects the middle piece by s_i;
raising is its conjugate under path reversal.  Crystal data read off the
height function:

    eps_i = -min(height),   phi_i = height(1) - min(height).

The closure of the straight path to a dominant lambda under lowering is
B(lambda), as Littelmann's LS paths of shape lambda (Invent. Math. 116
(1994)): each run is a positive multiple of a point of the Weyl orbit of
lambda, and breakpoints have denominators dividing the pairings
<lambda, beta^vee> over the positive roots beta.  With D their lcm, a
crystal stores a path as one flat int tuple of (orbit index, length)
pairs (o_1, L_1, o_2, L_2, ...), run k being L_k / D times orbit point
o_k.  Parallel runs share an orbit index, s_i is a table lookup and a
split one divmod; a height minimum, split or endpoint off the grid raises
PathKernelError.  The orbit and its reflection and pairing tables come
from ``root_data._Orbit``, the one Weyl-orbit search of weights, which the
Weyl group is read off as well.

A crystal is stored as columns indexed by element id rather than as one
object per element: a list of path tuples, lists of weight, eps and phi
tuples (one tuple object per distinct value in a generated crystal), and
per index i one ``array('i')`` column of f_tilde_i targets and one of
e_tilde_i sources, -1 for none.  These columns are the one way to read
an element: ``CrystalGraph`` has no per-element accessor.  Its one
constructor takes them and derives the e_tilde_i sources from the
f_tilde_i targets; where two i-edges enter one child, the larger source
id names its parent.
"""

from array import array
from fractions import Fraction
from functools import cache
from itertools import chain
from math import lcm
from operator import sub

from .character import weyl_dimension
from .root_data import _coroots, _Orbit, simple_root

DEFAULT_MAX_ELEMENTS = 200_000


class ResourceCapError(RuntimeError):
    """Crystal generation refused: projected or actual size exceeds the cap."""


class PathKernelError(ValueError):
    """A path left the 1/D grid of its crystal: the denominator bound failed."""


def _denominator(datum, lam):
    """lcm of the nonzero <lam, beta^vee>, dot products with ``_coroots`` rows (1 if none)."""
    return lcm(*filter(None, (sum(x * c for x, c in zip(lam, coroot))
                              for coroot in _coroots(datum))))


def _run_heights(pair, denom, path):
    """i-heights at the breakpoints for one row of pairings, and their minimum."""
    runs, h, x = iter(path), [0], 0
    for o in runs:
        x += next(runs) * pair[o]
        h.append(x)
    m = min(h)
    if m % denom:
        raise PathKernelError(f"non-integral height minimum {Fraction(m, denom)}: "
                              "not a crystal path")
    return h, m


def _lower_runs(pair, refl, denom, path, h, m):
    """Lowering on a canonical path with i-heights h of minimum m.

    Returns the canonical lowered path, or None at the string bottom.
    The reflected piece and the two pieces around it are canonical on
    their own, so runs can merge only where they meet, and only at the head.
    """
    top = m + denom
    if h[-1] < top:
        return None
    j0 = len(h) - 1 - h[::-1].index(m)
    jc = j0 + 1
    while h[jc] < top:
        jc += 1
    a, c = 2 * j0, 2 * jc
    middle = list(chain.from_iterable(zip(map(refl.__getitem__, path[a:c:2]),
                                          path[a + 1:c:2])))
    tail = path[c:]
    if h[jc] > top:
        # the ascent crosses m+1 inside run jc-1: split its length there
        o, length = path[c - 2], path[c - 1]
        head, rest = divmod(top - h[jc - 1], pair[o])
        if rest:
            raise PathKernelError(f"splitting run ({o}, {length}) at height {top - h[jc - 1]} "
                                  f"leaves the 1/{denom} grid: denominator bound violated")
        middle[-1] = head
        tail = (o, length - head) + tail
    if a and path[a - 2] == middle[0]:
        a -= 2
        middle[1] += path[a + 1]
    # no tail merge: local minima of an LS path's i-height are integers, so past
    # t_jc it stays >= m + 1: the tail's first run pairs >= 0 with h_i, the
    # reflected run before it < 0 (raising lowers the dual path, an LS path too)
    return path[:a] + tuple(middle) + tail


def _reversed_runs(path):
    """The runs in reverse order: read with ``_Orbit.neg``, the path reversed."""
    return tuple(chain.from_iterable(zip(path[-2::-2], path[::-2])))


def _lower(pair, refl, denom, path):
    return _lower_runs(pair, refl, denom, path, *_run_heights(pair, denom, path))


def _string_data(denom, h, m):
    """(weight_i, eps_i, phi_i) from scaled i-heights h of minimum m."""
    end, rest = divmod(h[-1], denom)
    if rest:
        raise PathKernelError(f"non-integral endpoint height {Fraction(h[-1], denom)}: "
                              "not a crystal path")
    eps = -m // denom
    return end, eps, end + eps


class CrystalGraph:
    """B(lambda): elements indexed 0..n-1 with i-labeled lowering edges.

    Element 0 is the highest-weight element.  Ids follow breadth-first
    level order (level = height of lambda minus the weight), ties broken
    by the canonical path encoding, so ids are stable across runs.  Paths
    are stored as (orbit index, length) pairs whose lengths sum to
    ``denominator``, the lcm of the pairings <lambda, beta^vee>.

    The graph is the columns indexed by element id, read directly; the one
    constructor takes them: ``runs[b]`` is the path of b over the ``orbit``
    tables; ``weight_of[b]``, ``eps_of[b]`` and ``phi_of[b]`` are rank-tuples
    (eps_i(b) is ``eps_of[b][i - 1]``); ``children[i - 1][b]`` is the id of
    f_tilde_i(b) in an ``array('i')`` column, -1 for none.  It derives the
    matching ``parents`` columns of e_tilde_i sources; where two i-edges enter
    one child, the larger source id names its parent.  ``edges`` builds a
    fresh {(b, i): child} dict.
    """

    def __init__(self, datum, highest_weight, denominator, orbit,
                 runs, weight_of, eps_of, phi_of, children):
        self.datum = datum
        self.highest_weight = tuple(highest_weight)
        self.denominator = denominator
        self.orbit = orbit
        self.runs = runs
        self.weight_of, self.eps_of, self.phi_of = weight_of, eps_of, phi_of
        self.children = children
        self.parents = [array("i", [-1]) * len(runs) for _ in children]
        for column, up in zip(children, self.parents):
            for b, child in enumerate(column):
                if child >= 0:
                    up[child] = b

    def edge_triples(self):
        """(b, i, child) for every edge in (b, i) order, read off the child columns."""
        columns = list(zip(self.indices(), self.children))
        for b in self.all_ids():
            for i, column in columns:
                if column[b] >= 0:
                    yield b, i, column[b]

    @property
    def edges(self):
        """A fresh {(b, i): child} dict of every edge, in (b, i) order."""
        return {(b, i): child for b, i, child in self.edge_triples()}

    def __len__(self):
        return len(self.runs)

    def indices(self):
        return self.datum.indices()

    def all_ids(self):
        return range(len(self.runs))


def generate_crystal(datum, lam, max_elements=DEFAULT_MAX_ELEMENTS):
    """Breadth-first closure of the straight path under all f_tilde.

    Refuses up front when the Weyl dimension exceeds ``max_elements``
    (and again during generation, in case the two ever disagree).  Each
    element's weight, eps and phi are read off the same height functions
    that its lowering uses.  The child columns grow one BFS level at a
    time; the constructor derives the parent columns from them.

    Lowering by f_tilde_i takes a weight down by exactly alpha_i, so every
    child lies one level below its parent, and paths are deduplicated
    within the next level only: no path-to-id map of the whole crystal is
    kept.  A guard keeps that exact: each new element's weight must equal
    its first parent's weight minus alpha_i, else PathKernelError.
    """
    lam = tuple(lam)
    projected = weyl_dimension(datum, lam)
    if projected > max_elements:
        raise ResourceCapError(
            f"B({lam}) for {datum.name} has {projected} elements, "
            f"above the cap of {max_elements}")
    denom, orbit = _denominator(datum, lam), _Orbit(datum, lam)
    rows = list(zip(orbit.pair, orbit.refl))
    alphas = [simple_root(datum, i) for i in datum.indices()]
    run = cache(orbit.run)  # decoded runs, for this call's level order only
    top = (0, denom) if any(lam) else ()  # the straight path to lam
    runs, expected = [top], [lam]  # expected: the weights the current level must have
    weight_of, eps_of, phi_of = [], [], []
    shared = {}  # one tuple object per distinct weight, eps or phi value
    children = [array("i", [-1]) for _ in rows]
    start = 0
    while start < len(runs):
        pending = {}  # child path -> its first parent's weight minus alpha_i
        hits: list[tuple[int, int, tuple]] = []
        for b, want in zip(range(start, len(runs)), expected):
            path = runs[b]
            data = []
            for i0, (pair, refl) in enumerate(rows):
                h, m = _run_heights(pair, denom, path)
                data.append(_string_data(denom, h, m))
                child = _lower_runs(pair, refl, denom, path, h, m)
                if child is None:
                    continue
                hits.append((b, i0, child))
                if child not in pending:
                    lower = tuple(map(sub, want, alphas[i0]))
                    pending[child] = shared.setdefault(lower, lower)
            weight, eps, phi = zip(*data)
            if weight != want:
                raise PathKernelError(f"path {path} has weight {weight}, not {want}: "
                                      "a lowering left its level")
            weight_of.append(want)
            eps_of.append(shared.setdefault(eps, eps))
            phi_of.append(shared.setdefault(phi, phi))
        start = len(runs)
        # a level is ordered by its decoded scaled steps, as ids always were
        level = sorted(pending, key=lambda p: tuple(map(run, p[::2], p[1::2])))
        expected = [pending[key] for key in level]
        for b, key in enumerate(level, start):
            pending[key] = b  # the next level's path -> id map
        runs += level
        if len(runs) > max_elements:
            raise ResourceCapError(f"crystal generation passed {max_elements} elements")
        for column in children:
            column.extend(array("i", [-1]) * len(level))
        for b, i0, key in hits:
            children[i0][b] = pending[key]
    return CrystalGraph(datum, lam, denom, orbit, runs, weight_of, eps_of, phi_of, children)


def verify_normal(graph):
    """Check the normal-crystal bookkeeping on the whole graph.

    Per element: weight coordinate i equals phi_i - eps_i.  Per lowering
    edge: eps goes up by one, phi down by one, and the raising operator
    inverts the edge at the path level.  Also checks that the unique
    source (all eps zero) is element 0 with the highest weight, and that
    an edge exists exactly where phi is positive.  Returns (ok, witness).
    """
    weight_of, eps_of, phi_of = graph.weight_of, graph.eps_of, graph.phi_of
    sources = [b for b, eps in enumerate(eps_of) if not any(eps)]
    if sources != [0] or weight_of[0] != graph.highest_weight:
        return False, ("highest-weight element", sources)
    columns = list(zip(graph.indices(), graph.children, graph.parents))
    for b in graph.all_ids():
        for (i, down, up), wt, eps, phi in zip(columns, weight_of[b], eps_of[b], phi_of[b]):
            if wt != phi - eps:
                return False, ("weight vs phi-eps", b, i)
            if (down[b] >= 0) != (phi > 0):
                return False, ("edge map vs phi", b, i)
            if (up[b] >= 0) != (eps > 0):
                return False, ("parent map vs eps", b, i)
    orbit, denom, runs = graph.orbit, graph.denominator, graph.runs
    # raising is lowering conjugated by reversal: reverse both ends of each edge
    for b in graph.all_ids():
        above = None
        for (i, down, _), neg, refl in zip(columns, orbit.neg, orbit.refl):
            child = down[b]
            if child < 0:
                continue
            i0 = i - 1
            if eps_of[child][i0] != eps_of[b][i0] + 1:
                return False, ("eps along edge", b, i, child)
            if phi_of[child][i0] != phi_of[b][i0] - 1:
                return False, ("phi along edge", b, i, child)
            above = above or _reversed_runs(runs[b])
            if _lower(neg, refl, denom, _reversed_runs(runs[child])) != above:
                return False, ("raising does not invert lowering", b, i, child)
    return True, None
