"""Tour 1: build a highest-weight crystal and poke at its operators.

Run as: python3 demos/01_build_a_crystal.py
"""

import qcrystal as qc

# Pick the adjoint-type crystal of A2: highest weight (1, 1), eight elements.
datum = qc.cartan_datum("A2")
lam = (1, 1)
graph = qc.generate_crystal(datum, lam)

print(f"B{lam} for {datum.name} has {len(graph)} elements")
print(f"(the Weyl dimension formula predicts {qc.weyl_dimension(datum, lam)})\n")

print("id  weight    eps     phi")
for b in graph.all_ids():
    print(f"{b:>2}  {graph.weight(b)}  {graph.eps_of[b]}  {graph.phi_of[b]}")

# Element 0 is always the highest-weight element: every raising operator
# kills it, and its phi values read off the highest weight itself.
print("\nraising operators on element 0:",
      [graph.e(0, i) for i in datum.indices()])

# Walk down an f-string: apply f_tilde_1 until it returns None.
b = 0
chain = [b]
while (nxt := graph.f(b, 1)) is not None:
    b = nxt
    chain.append(b)
print("the 1-string through the top:", " -> ".join(map(str, chain)))

# The same walk at the path level.  A crystal stores its paths as
# (orbit index, length) int pairs over one common denominator
# (graph.denominator); an LSPath shows them as exact Fraction displacement
# vectors, and weights are their integral endpoints.
path = qc.straight_path(datum, lam)
print("\nstraight path:", path)
lowered = qc.f_tilde(datum, 2, qc.f_tilde(datum, 1, path))
print("after f_1 then f_2:", lowered, "-> weight", lowered.weight())
print("eps/phi of that path per index:",
      {i: qc.eps_phi(datum, i, lowered) for i in datum.indices()})

# Normality bundles the bookkeeping relations: weight = phi - eps per
# index, and eps/phi move by exactly one along every lowering edge.
ok, witness = qc.verify_normal(graph)
print("\nnormal-crystal relations hold:", ok)
