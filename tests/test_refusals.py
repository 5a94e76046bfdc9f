"""Every refusal of the library, with its exception type and exact message.

One parametrized test per module.  A case is a callable of ``monkeypatch``
and the ``graph_of`` fixture that must raise; the internal invariants
(``weyl_dimension``'s and Freudenthal's remainders, a non-integral endpoint
height, the generation cap) are reached by monkeypatching the helper each
one guards.  Two witnesses that a check returns instead of raising are
pinned below the refusals, one of them that of the test reference
``string_reference.quotient_strings``.
"""

import pytest

from conftest import tampered
from qcrystal import character, crystal, qarith, rank_one, root_data
from qcrystal.character import FormalCharacter, verify_demazure_character
from qcrystal.crystal import PathKernelError, ResourceCapError
from qcrystal.demazure import DemazureCrystal, demazure_crystal, extremal_element
from qcrystal.qarith import ExactDivisionError, LaurentPoly
from qcrystal.root_data import CartanDatum, cartan_datum
from string_reference import quotient_strings

A2 = cartan_datum("A2")


def _a2(graph_of):
    return graph_of("A2", (1, 1))


def _a2_without_top_1_edge(graph_of):
    edges = _a2(graph_of).edges  # a fresh dict
    del edges[0, 1]
    return tampered(_a2(graph_of), edges)


def _patched(module, name, value, call):
    """A case that sets ``module.name`` to ``value``, then runs ``call()``."""
    def case(monkeypatch, graph_of):
        monkeypatch.setattr(module, name, value)
        return call()
    return case


def _raises(case, exc, message, monkeypatch, graph_of):
    with pytest.raises(exc) as raised:
        case(monkeypatch, graph_of)
    assert type(raised.value) is exc
    assert str(raised.value) == message


CHARACTER = {
    "highest weight mismatch": (
        lambda mp, g: verify_demazure_character(_a2(g), (1, 0), (1,)),
        ValueError, "graph highest weight does not match lam"),
    "non-integral Weyl dimension": (
        _patched(character, "_coroots", lambda datum: ((1, 1),),
                 lambda: character.weyl_dimension(A2, (1, 0))),
        ArithmeticError, "non-integral Weyl dimension: root enumeration bug"),
    "dimension formula not dominant": (
        lambda mp, g: character.weyl_dimension(A2, [-1, 0]),
        ValueError, "dimension formula needs a dominant weight, got (-1, 0)"),
    "Freudenthal not dominant": (
        lambda mp, g: character.weyl_character(A2, (1, -1)),
        ValueError, "Freudenthal needs a dominant weight, got (1, -1)"),
    "Freudenthal recursion": (
        _patched(character, "positive_roots", lambda datum: ((1, 0), (0, 1)),
                 lambda: character.weyl_character(A2, (1, 1))),
        ArithmeticError, "Freudenthal recursion failed at weight (0, 0)"),
}


@pytest.mark.parametrize("name", CHARACTER)
def test_character_refusals(name, monkeypatch, graph_of):
    _raises(*CHARACTER[name], monkeypatch, graph_of)


def _one_half_heights(pair, denom, path):
    return [0, 1], 0


CRYSTAL = {
    "non-integral endpoint height": (
        _patched(crystal, "_run_heights", _one_half_heights,
                 lambda: crystal.generate_crystal(A2, (1, 1))),
        PathKernelError, "non-integral endpoint height 1/2: not a crystal path"),
    "generation passes the cap": (
        _patched(crystal, "weyl_dimension", lambda datum, lam: 1,
                 lambda: crystal.generate_crystal(A2, (1, 1), max_elements=3)),
        ResourceCapError, "crystal generation passed 3 elements"),
}


@pytest.mark.parametrize("name", CRYSTAL)
def test_crystal_refusals(name, monkeypatch, graph_of):
    _raises(*CRYSTAL[name], monkeypatch, graph_of)


DEMAZURE = {
    "lowering string ends early": (
        lambda mp, g: extremal_element(_a2_without_top_1_edge(g), (1,)),
        RuntimeError, "lowering string ended before the extremal weight"),
    "extremal element of the wrong weight": (
        lambda mp, g: extremal_element(tampered(_a2(g), {**_a2(g).edges, (0, 1): 2}), (1,)),
        RuntimeError, "extremal element has the wrong weight"),
}


@pytest.mark.parametrize("name", DEMAZURE)
def test_demazure_refusals(name, monkeypatch, graph_of):
    _raises(*DEMAZURE[name], monkeypatch, graph_of)


QARITH = {
    "min_exp of zero": (lambda mp, g: LaurentPoly().min_exp(),
                        ValueError, "zero polynomial has no exponents"),
    "max_exp of zero": (lambda mp, g: LaurentPoly().max_exp(),
                        ValueError, "zero polynomial has no exponents"),
    "coefficient remainder": (lambda mp, g: LaurentPoly({0: 1}).exact_div(2),
                              ExactDivisionError, "1 is not divisible by 2"),
    "quotient below its floor": (
        lambda mp, g: LaurentPoly({0: 1, 2: 1}).exact_div(LaurentPoly({0: 1, 1: 1})),
        ExactDivisionError, "q^2 + 1 is not divisible by q + 1"),
    "negative factorial": (lambda mp, g: qarith.qfact(-1),
                           ValueError, "quantum factorial needs n >= 0"),
}


@pytest.mark.parametrize("name", QARITH)
def test_qarith_refusals(name, monkeypatch, graph_of):
    _raises(*QARITH[name], monkeypatch, graph_of)


RANK_ONE = {
    "basis index": (lambda mp, g: rank_one.RankOneModule(2).basis_vector(3),
                    IndexError, "basis index 3 outside 0..2"),
    "negative divided power": (lambda mp, g: rank_one.act_divided_f(rank_one.RankOneModule(2),
                                                                     -1, {}),
                               ValueError, "divided power must be nonnegative"),
}


@pytest.mark.parametrize("name", RANK_ONE)
def test_rank_one_refusals(name, monkeypatch, graph_of):
    _raises(*RANK_ONE[name], monkeypatch, graph_of)


ROOT_DATA = {
    "shape": (lambda mp, g: CartanDatum("A", 2, ((2, -1),), (1, 1)),
              ValueError, "Cartan matrix shape does not match rank"),
    "positive off-diagonal": (lambda mp, g: CartanDatum("A", 2, ((2, 1), (1, 2)), (1, 1)),
                              ValueError, "off-diagonal Cartan entries must be <= 0"),
    "symmetrizer zero": (lambda mp, g: CartanDatum("A", 2, ((2, -1), (-1, 2)), (1, 0)),
                         ValueError, "symmetrizers must be positive"),
    "symmetrizer count": (lambda mp, g: CartanDatum("A", 2, ((2, -1), (-1, 2)), (1,)),
                          ValueError, "symmetrizers must be positive"),
    "not symmetrized": (lambda mp, g: CartanDatum("B", 2, ((2, -1), (-2, 2)), (1, 1)),
                        ValueError, "sym does not symmetrize the Cartan matrix"),
    "outside the root lattice": (lambda mp, g: root_data.root_coords(A2, (1, 0)),
                                 ValueError, "(1, 0) is not in the root lattice of A2"),
}
# every word query reads its word last letter first, so the 0 is refused before the 5
ROOT_DATA.update({
    f"{query} letter out of range": (
        lambda mp, g, query=query: getattr(root_data, query)(A2, (1, 5, 0)),
        IndexError, "simple-root index 0 out of range 1..2")
    for query in ("canonical_word", "is_reduced", "left_descents", "element_key")})
# is_reduced checks every letter: a bad one left of a non-reduced suffix still raises
ROOT_DATA["is_reduced letter left of a repeat"] = (
    lambda mp, g: root_data.is_reduced(A2, (5, 1, 1)),
    IndexError, "simple-root index 5 out of range 1..2")


@pytest.mark.parametrize("name", ROOT_DATA)
def test_root_data_refusals(name, monkeypatch, graph_of):
    _raises(*ROOT_DATA[name], monkeypatch, graph_of)


def test_demazure_character_witness_is_both_sides(graph_of):
    # without its 1-edge from the top, B_{s_1}(lambda) is the top alone
    graph = _a2_without_top_1_edge(graph_of)
    ok, witness = verify_demazure_character(graph, (1, 1), (1,))
    top = FormalCharacter.monomial((1, 1))
    assert (ok, witness) == (False, (top, top + FormalCharacter.monomial((-1, 2))))


def test_quotient_strings_witness_names_the_string(graph_of):
    graph = _a2(graph_of)
    big = DemazureCrystal(graph, (1,), frozenset({0, 1, 2}))  # 2 tops the 1-string (2, 3, 5)
    diff, witness = quotient_strings(big, demazure_crystal(graph, ()), 1)
    assert (diff, witness) == (frozenset({1, 2}), (1, 2, (2,)))
