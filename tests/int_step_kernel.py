"""Test-only reference: the scaled int-step path kernel.

This is the kernel qcrystal used before its paths moved to (orbit index,
length) pairs.  Every run of a path is a tuple of rank-many ints, D times
the true displacement for the crystal's common denominator D, and
positively parallel runs are found by cross-multiplying coordinates.  The
differential tests in ``test_integer_kernel.py`` diff whole crystals built
by the library against ``reference_crystal``.  Do not import it from
``src/``.
"""

from fractions import Fraction
from math import lcm

from qcrystal.root_data import _coroots, simple_root


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


def reference_crystal(datum, lam):
    """The crystal as the int-step generator built it, without the size cap.

    Returns (elements, edges, denom): ``(steps, weight, eps, phi)`` per id,
    the ``{(b, i): child}`` lowering edges and the common denominator.
    """
    lam = tuple(lam)
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
            elements.append((steps, weight, eps, phi))
        frontier = []
        for key in sorted(pending):
            ids[key] = len(paths)
            paths.append(key)
            frontier.append(ids[key])
        for b, i, key in hits:
            edges[(b, i)] = ids[key]
    return elements, edges, denom
