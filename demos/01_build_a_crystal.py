"""Tour 1: build a highest-weight crystal and poke at its operators.

Run as: python3 demos/01_build_a_crystal.py
"""

from fractions import Fraction

import qcrystal as qc

# Pick the adjoint-type crystal of A2: highest weight (1, 1), eight elements.
datum = qc.cartan_datum("A2")
lam = (1, 1)
graph = qc.generate_crystal(datum, lam)

print(f"B{lam} for {datum.name} has {len(graph)} elements")
print(f"(the Weyl dimension formula predicts {qc.weyl_dimension(datum, lam)})\n")

# The crystal is a set of columns indexed by element id: weight_of, eps_of
# and phi_of, and per index i the column children[i - 1] of f_tilde_i and
# parents[i - 1] of e_tilde_i, where -1 means no edge.
print("id  weight    eps     phi")
for b in graph.all_ids():
    print(f"{b:>2}  {graph.weight_of[b]}  {graph.eps_of[b]}  {graph.phi_of[b]}")

# Element 0 is always the highest-weight element: every raising operator
# kills it, and its phi values read off the highest weight itself.
print("\nraising operators on element 0:",
      [None if up[0] < 0 else up[0] for up in graph.parents])

# Walk down an f-string: follow the f_tilde_1 column until it holds -1.
down = graph.children[0]
b = 0
chain = [b]
while down[b] >= 0:
    b = down[b]
    chain.append(b)
print("the 1-string through the top:", " -> ".join(map(str, chain)))

# The path level.  A crystal keeps each path only as its maximal straight
# runs: graph.runs[b] is one flat int tuple (o_1, L_1, o_2, L_2, ...), run k
# being L_k / graph.denominator times the Weyl-orbit point
# graph.orbit.points[o_k].  The weight is the endpoint of the path.
b = graph.children[1][graph.children[0][0]]
print(f"\nf_2 f_1 of the top is element {b}, with runs {graph.runs[b]}")
for o, length in zip(graph.runs[b][::2], graph.runs[b][1::2]):
    print(f"  {Fraction(length, graph.denominator)} * {graph.orbit.points[o]}")
print(f"weight {graph.weight_of[b]}, eps {graph.eps_of[b]}, phi {graph.phi_of[b]}")

# Normality bundles the bookkeeping relations: weight = phi - eps per
# index, and eps/phi move by exactly one along every lowering edge.
ok, witness = qc.verify_normal(graph)
print("\nnormal-crystal relations hold:", ok)
