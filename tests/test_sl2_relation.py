"""``verify_sl2_relation`` against the reference that multiplies Laurent polynomials.

``algebra_reference.verify_sl2_relation`` checks the bracket identity
[k+1][lam-k] - [k][lam-k+1] = [lam-2k] with ``LaurentPoly`` products; the
program checks it in big ints at q = 2^bits.  Both must give the same
(ok, witness) for lam <= 60, on the true module and under each tamper of
the arithmetic, the quantum integers or the action maps.
"""

import pytest

import algebra_reference as ref
from qcrystal import qarith, rank_one
from qcrystal.qarith import one, q
from qcrystal.rank_one import RankOneModule, _bracket_bits, _bracket_table

LAMBDAS = range(61)


def _verdicts():
    """(program, reference) verdicts for every lam <= 60."""
    return [(rank_one.verify_sl2_relation(RankOneModule(lam)),
             ref.verify_sl2_relation(RankOneModule(lam))) for lam in LAMBDAS]


def test_sl2_relation_matches_reference_up_to_60():
    for ours, theirs in _verdicts():
        assert ours == theirs == (True, None)


def _kronecker_off_by_one(hit):
    real = qarith._kronecker_product

    def tampered(a, b):
        out = real(a, b)
        if hit(a, b):
            low = min(out)
            out = {**out, low: out[low] + 1}
        return out
    return tampered


def _qint_off(n0, c):
    # [-n] = -[n] is part of qint's contract, so the tamper keeps it.
    real = qarith.qint
    return lambda n: real(n) + (c if n == n0 else -c if n == -n0 else 0)


def _act_f_off_at(k0):
    real = rank_one.act_f
    return lambda m, v: {k: c + q if k == k0 else c for k, c in real(m, v).items()}


def _act_e_stray():
    # The k-th entry of ef - fe stays right; entries appear at keys -5 and -4.
    real = rank_one.act_e
    return lambda m, v: {**real(m, v), -5: one}


TAMPERS = {
    # Symmetric in the two factors: the reference multiplies each pair with
    # the operands swapped, so an asymmetric tamper would fail only there.
    "kronecker-lowest": ((qarith, "_kronecker_product"), _kronecker_off_by_one(lambda a, b: True)),
    "kronecker-[3][4]": ((qarith, "_kronecker_product"),
                         _kronecker_off_by_one(lambda a, b: {len(a), len(b)} == {3, 4})),
    "qint(5)+1": ((rank_one, "qint"), (ref, "qint"), _qint_off(5, 1)),
    "qint(0)+1": ((rank_one, "qint"), (ref, "qint"), _qint_off(0, 1)),
    "qint(3)-1000": ((rank_one, "qint"), (ref, "qint"), _qint_off(3, -1000)),
    "act_f at 3": ((rank_one, "act_f"), (ref, "act_f"), _act_f_off_at(3)),
    "stray act_e entry": ((rank_one, "act_e"), (ref, "act_e"), _act_e_stray()),
}


@pytest.mark.parametrize("name", TAMPERS)
def test_sl2_relation_matches_reference_under_tamper(monkeypatch, name):
    *targets, fake = TAMPERS[name]
    for module, attr in targets:
        monkeypatch.setattr(module, attr, fake)
    verdicts = _verdicts()
    assert all(ours == theirs for ours, theirs in verdicts), name
    assert any(not ok for (ok, _), _ in verdicts), f"{name} was never seen"


def test_tampered_qint_widens_the_digits(monkeypatch):
    monkeypatch.setattr(rank_one, "qint", _qint_off(3, -1000))
    bits, _, _ = _bracket_table(10)  # [3] = q^2 - 999 + q^-2
    assert bits == _bracket_bits(11, 999) > _bracket_bits(11, 1)


@pytest.mark.parametrize("length, top", [(0, 0), (1, 1), (2, 1), (61, 1), (401, 1),
                                         (3, 1001), (5, 7), (11, 1001)])
def test_bracket_bits_is_the_smallest_width_over_the_bound(length, top):
    bound = 2 * length * top * top + top
    bits = _bracket_bits(length, top)
    assert 2 ** (bits - 1) > bound
    assert bits == 1 or 2 ** (bits - 2) <= bound


@pytest.mark.parametrize("lam", [0, 1, 2, 7, 60])
def test_bracket_table_evaluates_each_qint(lam):
    bits, s, values = _bracket_table(lam)
    assert bits == _bracket_bits(lam + 1, 1) and s == lam
    x = 2 ** bits
    for n, value in enumerate(values):
        # [n] q^s at q = x, from the geometric series of its n terms
        assert value == sum(x ** (s + n - 1 - 2 * j) for j in range(n))

