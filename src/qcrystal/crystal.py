"""Highest-weight crystals via piecewise-linear paths in the weight lattice.

An element of B(lambda) is realized as a piecewise-linear path from the
origin, kept in a canonical reparametrization-free form: the tuple of
displacement vectors of its maximal straight runs.  The lowering operator
cuts the path at the last time the i-height <h_i, path(t)> reaches its
minimum m and at the first later time it reaches m + 1, reflects the middle
piece by s_i, and leaves the rest alone; the raising operator is its
conjugate under path reversal.  Crystal data read off the height function:

    eps_i = -min(height),   phi_i = height(1) - min(height).

Starting from the straight path to a dominant lambda, the closure under the
lowering operators is a model of the crystal B(lambda).  Its paths are
Littelmann's LS paths of shape lambda, whose breakpoints are rationals with
denominators dividing the pairings <lambda, beta^vee> over the positive
roots beta (Littelmann, Invent. Math. 116 (1994)).  A crystal therefore
stores its paths as int step tuples scaled by one common denominator D,
the lcm of those pairings, and every operator works in exact int
arithmetic on that grid.  The kernel checks the bound instead of trusting
it: a height minimum off the grid, or a split that leaves the grid, raises
ValueError.  The public LSPath keeps exact Fraction coordinates and is
scaled onto the grid of its own shape for each operator call.  Sizes,
characters and the rank-one chain are certified against independent
oracles in the test suite rather than trusted.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .character import weyl_dimension
from .root_data import (_check_rank, _coroots, dominant_representative,
                        is_dominant, simple_root)

DEFAULT_MAX_ELEMENTS = 200_000


class ResourceCapError(RuntimeError):
    """Crystal generation refused: projected or actual size exceeds the cap."""


def _positive_parallel(d, e):
    k = next(j for j, x in enumerate(d) if x)
    dk, ek = d[k], e[k]
    if ek == 0 or (ek > 0) != (dk > 0):
        return False
    return all(ei * dk == di * ek for di, ei in zip(d, e))


def _append_step(out, step):
    """Append a nonzero step, merged into its predecessor when positively parallel."""
    if out and _positive_parallel(out[-1], step):
        out[-1] = tuple(a + b for a, b in zip(out[-1], step))
    else:
        out.append(step)


def _canonical_steps(steps):
    """Drop zero steps and merge positively parallel neighbours."""
    out: list[tuple] = []
    for step in steps:
        if any(step):
            _append_step(out, step)
    return tuple(out)


@dataclass(frozen=True)
class LSPath:
    """A path from the origin, as displacements of its maximal straight runs."""

    steps: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        steps = (tuple(Fraction(x) for x in step) for step in self.steps)
        object.__setattr__(self, "steps", _canonical_steps(steps))

    def endpoint(self):
        if not self.steps:
            return ()
        return tuple(sum(col) for col in zip(*self.steps))

    def weight(self, rank=None):
        """Endpoint of the path; integral for every crystal path."""
        end = self.endpoint()
        if not end:
            return (0,) * rank if rank is not None else ()
        if any(x.denominator != 1 for x in end):
            raise ValueError(f"path endpoint {end} is not an integral weight")
        return tuple(int(x) for x in end)

    def sort_key(self):
        return self.steps

    def __repr__(self):
        pretty = [tuple(str(x) for x in s) for s in self.steps]
        return f"LSPath({pretty!r})"


def straight_path(datum, lam):
    """The highest-weight element: one straight segment to lambda."""
    lam = tuple(lam)
    _check_rank(datum, lam)
    if not is_dominant(lam):
        raise ValueError(f"straight_path needs a dominant weight, got {lam}")
    return LSPath((lam,))


# -- the integer kernel ---------------------------------------------------
#
# Steps are int tuples equal to D times the true displacements, for the
# crystal's common denominator D; heights are scaled by D as well.


def _denominator(datum, lam):
    """lcm of the nonzero <lam, beta^vee> over the positive roots beta (1 if none).

    Each pairing is a dot product with a row of the coroot table
    ``root_data._coroots``.
    """
    return lcm(*filter(None, (sum(x * c for x, c in zip(lam, coroot))
                              for coroot in _coroots(datum))))


def _heights(steps, i0, denom):
    """Scaled i-heights at the breakpoints, and their minimum, checked to be integral."""
    h = [0]
    for step in steps:
        h.append(h[-1] + step[i0])
    m = min(h)
    if m % denom:
        raise ValueError(f"non-integral height minimum {Fraction(m, denom)}: "
                         "not a crystal path")
    return h, m


def _reflect_step(alpha, i0, step):
    c = step[i0]
    if c == 0:
        return step
    return tuple(x - c * a for x, a in zip(step, alpha))


def _split_head(step, num, den, denom):
    """The first num/den of a scaled step; raises unless it stays on the 1/denom grid."""
    head = []
    for c in step:
        q, r = divmod(c * num, den)
        if r:
            raise ValueError(f"splitting step {step} at {num}/{den} leaves the "
                             f"1/{denom} grid: denominator bound violated")
        head.append(q)
    return tuple(head)


def _lowered(alpha, i0, denom, steps, h, m):
    """Lowering on canonical scaled steps with i-heights h of minimum m.

    Returns the canonical lowered steps, or None at the string bottom.
    The reflected piece and the two pieces around it are canonical on
    their own, so runs can only merge where they meet.
    """
    top = m + denom
    if h[-1] < top:
        return None
    j0 = len(h) - 1 - h[::-1].index(m)
    jc = j0 + 1
    while h[jc] < top:
        jc += 1
    if h[jc] == top:
        middle = [_reflect_step(alpha, i0, s) for s in steps[j0:jc]]
    else:
        # the ascent crosses m+1 inside segment jc-1: split it there
        cut = steps[jc - 1]
        head = _split_head(cut, top - h[jc - 1], h[jc] - h[jc - 1], denom)
        middle = [_reflect_step(alpha, i0, s) for s in steps[j0:jc - 1]]
        middle += [_reflect_step(alpha, i0, head), tuple(c - x for c, x in zip(cut, head))]
    new = list(steps[:j0])
    _append_step(new, middle[0])
    new.extend(middle[1:])
    if jc < len(steps):
        _append_step(new, steps[jc])
        new.extend(steps[jc + 1:])
    return tuple(new)


def _reversed_steps(steps):
    return tuple(tuple(-x for x in s) for s in reversed(steps))


def _lower(alpha, i0, denom, steps):
    return _lowered(alpha, i0, denom, steps, *_heights(steps, i0, denom))


def _raise(alpha, i0, denom, steps):
    """Raising as lowering conjugated by path reversal t -> 1 - t."""
    low = _lower(alpha, i0, denom, _reversed_steps(steps))
    return None if low is None else _reversed_steps(low)


def _string_data(denom, h, m):
    """(weight_i, eps_i, phi_i) from scaled i-heights h of minimum m."""
    end, rest = divmod(h[-1], denom)
    if rest:
        raise ValueError(f"non-integral endpoint height {Fraction(h[-1], denom)}: "
                         "not a crystal path")
    eps = -m // denom
    return end, eps, end + eps


# -- public operators on LSPath -------------------------------------------


def _on_grid(datum, path):
    """(denominator, scaled steps) of a path, on the grid of its shape.

    The shape lambda is the sum of the dominant representatives of the
    steps, since each step of an LS path is a positive multiple of a Weyl
    conjugate of lambda.
    """
    lam = [Fraction(0)] * datum.rank
    for step in path.steps:
        lam = [a + b for a, b in zip(lam, dominant_representative(datum, step))]
    if any(x.denominator != 1 for x in lam):
        raise ValueError(f"path shape {tuple(map(str, lam))} is not an integral weight")
    denom = _denominator(datum, tuple(int(x) for x in lam))
    scaled = []
    for step in path.steps:
        coords = tuple(x * denom for x in step)
        if any(x.denominator != 1 for x in coords):
            raise ValueError(f"path {path} has a step off the 1/{denom} grid of its shape")
        scaled.append(tuple(int(x) for x in coords))
    return denom, tuple(scaled)


def _from_grid(denom, steps):
    return LSPath(tuple(tuple(Fraction(x, denom) for x in s) for s in steps))


def f_tilde(datum, i, path):
    """Lowering operator: weight drops by alpha_i, or None if phi_i = 0."""
    denom, steps = _on_grid(datum, path)
    steps = _lower(simple_root(datum, i), i - 1, denom, steps)
    return None if steps is None else _from_grid(denom, steps)


def e_tilde(datum, i, path):
    """Raising operator, inverse to f_tilde: None if eps_i = 0.

    Computed by conjugating the lowering operator with path reversal
    t -> 1 - t, which swaps the roles of eps and phi.
    """
    denom, steps = _on_grid(datum, path)
    steps = _raise(simple_root(datum, i), i - 1, denom, steps)
    return None if steps is None else _from_grid(denom, steps)


def eps_phi(datum, i, path):
    """(eps_i, phi_i) read off the i-height function of the path."""
    denom, steps = _on_grid(datum, path)
    _, eps, phi = _string_data(denom, *_heights(steps, i - 1, denom))
    return eps, phi


@dataclass(frozen=True, slots=True)
class CrystalElement:
    """One crystal vertex with its cached weight and string data.

    ``steps`` is its path, scaled by the denominator of its crystal.
    """

    steps: tuple[tuple[int, ...], ...]
    weight: tuple[int, ...]
    eps: tuple[int, ...]
    phi: tuple[int, ...]


class CrystalGraph:
    """B(lambda): elements indexed 0..n-1 with i-labeled lowering edges.

    Element 0 is the highest-weight element.  Ids follow breadth-first
    level order (level = height of lambda minus the weight), ties broken
    by the canonical path encoding, so ids are stable across runs.  Paths
    are stored as int steps over ``denominator``, the lcm of the pairings
    <lambda, beta^vee>.
    """

    def __init__(self, datum, highest_weight, elements, edges, denominator):
        self.datum = datum
        self.highest_weight = tuple(highest_weight)
        self.elements = elements
        self.edges = edges
        self.denominator = denominator
        self._parents = {(child, i): b for (b, i), child in edges.items()}
        self._string_index = {}  # i -> i-string index, filled by demazure.string_index

    def __len__(self):
        return len(self.elements)

    def indices(self):
        return self.datum.indices()

    def f(self, b, i):
        """Id of f_tilde_i(b), or None."""
        return self.edges.get((b, i))

    def e(self, b, i):
        """Id of e_tilde_i(b), or None."""
        return self._parents.get((b, i))

    def eps(self, b, i):
        return self.elements[b].eps[i - 1]

    def phi(self, b, i):
        return self.elements[b].phi[i - 1]

    def weight(self, b):
        return self.elements[b].weight

    def path(self, b):
        """The path of element b as an LSPath with exact Fraction steps."""
        return _from_grid(self.denominator, self.elements[b].steps)

    def all_ids(self):
        return range(len(self.elements))


def generate_crystal(datum, lam, max_elements=DEFAULT_MAX_ELEMENTS):
    """Breadth-first closure of the straight path under all f_tilde.

    Refuses up front when the Weyl dimension exceeds ``max_elements``
    (and again during generation, in case the two ever disagree).  Each
    element's weight, eps and phi are read off the same height functions
    that its lowering uses.
    """
    lam = tuple(lam)
    projected = weyl_dimension(datum, lam)
    if projected > max_elements:
        raise ResourceCapError(
            f"B({lam}) for {datum.name} has {projected} elements, "
            f"above the cap of {max_elements}")
    # the straight path to lam, on the grid of its own shape
    denom = _denominator(datum, lam)
    top = (tuple(denom * x for x in lam),) if any(lam) else ()
    roots = [(i, i - 1, simple_root(datum, i)) for i in datum.indices()]
    paths = [top]
    ids = {top: 0}
    elements = []
    edges: dict[tuple[int, int], int] = {}
    frontier = [0]
    while frontier:
        pending = set()
        hits: list[tuple[int, int, tuple]] = []
        for b in frontier:
            steps = paths[b]
            data = []
            for i, i0, alpha in roots:
                h, m = _heights(steps, i0, denom)
                data.append(_string_data(denom, h, m))
                child = _lowered(alpha, i0, denom, steps, h, m)
                if child is None:
                    continue
                hits.append((b, i, child))
                if child not in ids:
                    pending.add(child)
            weight, eps, phi = zip(*data)
            elements.append(CrystalElement(steps, weight, eps, phi))
        frontier = []
        for key in sorted(pending):
            ids[key] = len(paths)
            paths.append(key)
            frontier.append(ids[key])
        if len(paths) > max_elements:
            raise ResourceCapError(f"crystal generation passed {max_elements} elements")
        for b, i, key in hits:
            edges[(b, i)] = ids[key]
    return CrystalGraph(datum, lam, elements, edges, denom)


def verify_normal(graph):
    """Check the normal-crystal bookkeeping on the whole graph.

    Per element: weight coordinate i equals phi_i - eps_i.  Per lowering
    edge: eps goes up by one, phi down by one, and the raising operator
    inverts the edge at the path level.  Also checks that the unique
    source (all eps zero) is element 0 with the highest weight, and that
    an edge exists exactly where phi is positive.  Returns (ok, witness).
    """
    elements, edges, parents = graph.elements, graph.edges, graph._parents
    sources = [b for b, el in enumerate(elements) if not any(el.eps)]
    if sources != [0] or elements[0].weight != graph.highest_weight:
        return False, ("highest-weight element", sources)
    for b, el in enumerate(elements):
        for i, wt, eps, phi in zip(graph.indices(), el.weight, el.eps, el.phi):
            if wt != phi - eps:
                return False, ("weight vs phi-eps", b, i)
            if ((b, i) in edges) != (phi > 0):
                return False, ("edge map vs phi", b, i)
            if ((b, i) in parents) != (eps > 0):
                return False, ("parent map vs eps", b, i)
    alphas = [simple_root(graph.datum, i) for i in graph.indices()]
    denom = graph.denominator
    # raising is lowering conjugated by reversal: reverse each path once
    reversed_steps = [_reversed_steps(el.steps) for el in elements]
    for (b, i), child in edges.items():
        i0, top, low = i - 1, elements[b], elements[child]
        if low.eps[i0] != top.eps[i0] + 1:
            return False, ("eps along edge", b, i, child)
        if low.phi[i0] != top.phi[i0] - 1:
            return False, ("phi along edge", b, i, child)
        if _lower(alphas[i0], i0, denom, reversed_steps[child]) != reversed_steps[b]:
            return False, ("raising does not invert lowering", b, i, child)
    return True, None
