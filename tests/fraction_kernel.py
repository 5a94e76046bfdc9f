"""Test-only reference: the path crystal on exact Fraction coordinates.

This is the kernel qcrystal used before paths moved to int steps over one
common denominator per crystal.  It keeps every path in Fraction
coordinates and trusts no denominator bound, so the differential tests in
``test_integer_kernel.py`` diff whole crystals built by the library
against it.  The library keeps a path only as (orbit index, length) runs;
``grid_steps`` and ``fraction_steps`` decode them for the tests.  Do not
import it from ``src/``.
"""

from fractions import Fraction

from qcrystal.root_data import simple_root


def _positive_parallel(d, e):
    k = next(j for j, x in enumerate(d) if x)
    if e[k] == 0 or (e[k] > 0) != (d[k] > 0):
        return False
    c = Fraction(e[k]) / d[k]
    return all(ei == c * di for di, ei in zip(d, e))


def canonical_steps(steps):
    out: list[tuple[Fraction, ...]] = []
    for step in steps:
        step = tuple(Fraction(x) for x in step)
        if all(x == 0 for x in step):
            continue
        if out and _positive_parallel(out[-1], step):
            out[-1] = tuple(a + b for a, b in zip(out[-1], step))
        else:
            out.append(step)
    return tuple(out)


def _heights(steps, i0):
    h = [Fraction(0)]
    for step in steps:
        h.append(h[-1] + step[i0])
    return h


def _reflect_step(alpha, i0, step):
    c = step[i0]
    if c == 0:
        return step
    return tuple(x - c * a for x, a in zip(step, alpha))


def lowered(datum, i, steps):
    """Lowering operator on a canonical step tuple; None at string bottom."""
    i0 = i - 1
    h = _heights(steps, i0)
    m = min(h)
    if m.denominator != 1:
        raise ValueError(f"non-integral height minimum {m}: not a crystal path")
    if h[-1] - m < 1:
        return None
    j0 = max(j for j, v in enumerate(h) if v == m)
    jc = next(j for j in range(j0 + 1, len(h)) if h[j] >= m + 1)
    alpha = simple_root(datum, i)
    new = list(steps[:j0])
    if h[jc] == m + 1:
        new.extend(_reflect_step(alpha, i0, s) for s in steps[j0:jc])
        new.extend(steps[jc:])
    else:
        # the ascent crosses m+1 inside segment jc-1: split it there
        x = (m + 1 - h[jc - 1]) / (h[jc] - h[jc - 1])
        head = tuple(c * x for c in steps[jc - 1])
        rest = tuple(c * (1 - x) for c in steps[jc - 1])
        new.extend(_reflect_step(alpha, i0, s) for s in steps[j0:jc - 1])
        new.append(_reflect_step(alpha, i0, head))
        new.append(rest)
        new.extend(steps[jc:])
    return canonical_steps(new)


def reversed_steps(steps):
    return tuple(tuple(-x for x in s) for s in reversed(steps))


def raised(datum, i, steps):
    """Raising operator: lowering conjugated by path reversal."""
    low = lowered(datum, i, reversed_steps(steps))
    return None if low is None else reversed_steps(low)


def eps_phi(datum, i, steps):
    h = _heights(steps, i - 1)
    m = min(h)
    if m.denominator != 1 or h[-1].denominator != 1:
        raise ValueError("non-integral heights: not a crystal path")
    return int(-m), int(h[-1] - m)


def weight(steps, rank):
    end = tuple(sum(col) for col in zip(*steps)) or (0,) * rank
    if any(Fraction(x).denominator != 1 for x in end):
        raise ValueError(f"path endpoint {end} is not an integral weight")
    return tuple(int(x) for x in end)


def reference_crystal(datum, lam):
    """Breadth-first closure of the straight path, as the old generator built it.

    Returns (paths, edges): canonical Fraction step tuples indexed by id,
    and the ``{(b, i): child}`` lowering edges.  Ids follow BFS level order
    with ties broken by the step tuples.
    """
    top = canonical_steps((tuple(lam),))
    paths = [top]
    ids = {top: 0}
    edges: dict[tuple[int, int], int] = {}
    frontier = [0]
    while frontier:
        pending = set()
        hits = []
        for b in frontier:
            for i in datum.indices():
                child = lowered(datum, i, paths[b])
                if child is None:
                    continue
                hits.append((b, i, child))
                if child not in ids:
                    pending.add(child)
        frontier = []
        for key in sorted(pending):
            ids[key] = len(paths)
            paths.append(key)
            frontier.append(ids[key])
        for b, i, key in hits:
            edges[(b, i)] = ids[key]
    return paths, edges


def grid_steps(orbit, runs):
    """The runs of a path decoded to scaled int steps, L * points[o] each."""
    return tuple(map(orbit.run, runs[::2], runs[1::2]))


def fraction_steps(graph, b):
    """The path of element b of a library graph as exact Fraction steps, run by run."""
    denom = graph.denominator
    return tuple(tuple(Fraction(x, denom) for x in step)
                 for step in grid_steps(graph.orbit, graph.runs[b]))
