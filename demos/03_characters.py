"""Tour 3: characters three ways, all exactly equal.

Run as: python3 demos/03_characters.py
"""

import qcrystal as qc
from qcrystal.character import FormalCharacter, apply_demazure_word

datum = qc.cartan_datum("B2")
lam = (1, 1)
graph = qc.generate_crystal(datum, lam)

# Route 1: count crystal elements by weight.
crystal_char = qc.char_of(graph.all_ids(), graph)

# Route 2: Freudenthal's recursion, no crystal anywhere in sight.
freudenthal = qc.weyl_character(datum, lam)

# Route 3: Demazure operators applied along the longest word.
demazure = apply_demazure_word(datum, qc.longest_word(datum),
                               FormalCharacter.monomial(lam))

print(f"three computations of char V{lam} for {datum.name}:")
print("  crystal == freudenthal:", crystal_char == freudenthal)
print("  crystal == demazure w0:", crystal_char == demazure)
print("  total multiplicity:", crystal_char.total(),
      "== dimension formula:", qc.weyl_dimension(datum, lam))

print("\nthe character, weights lex-descending:")
print(crystal_char.render())

# A single Demazure operator is idempotent and sums a monomial along an
# alpha-string; negative pairings annihilate or flip sign.
chi = FormalCharacter.monomial((2, 0))
once = qc.demazure_operator(datum, 1, chi)
twice = qc.demazure_operator(datum, 1, once)
print("\nD_1 e^(2,0) =", dict(once.items()))
print("idempotent:", once == twice)
print("D_1 e^(-1,0) =", dict(qc.demazure_operator(datum, 1, FormalCharacter.monomial((-1, 0))).items()))

# Demazure characters refine the Weyl character word by word.
print("\nchar B_w against the operator formula, every w in W:")
for w in qc.weyl_group(datum):
    members = qc.demazure_crystal(graph, w)
    ok = qc.char_of(members, graph) == apply_demazure_word(datum, w, FormalCharacter.monomial(lam))
    size = len(members)
    print(f"  w = {w!s:<14} |B_w| = {size:>2}  formula agrees: {ok}")

# Negative control: a proper Demazure character is not Weyl-invariant.
partial = qc.char_of(qc.demazure_crystal(graph, (1,)), graph)
reflected = FormalCharacter((qc.reflect(datum, 2, w), m) for w, m in partial.items())
print("\nchar B_(1,) Weyl-invariant?", reflected == partial, "(expected False)")
