"""Tour 4: the rank-one quantized module over Z[q, q^-1].

Run as: python3 demos/04_rank_one.py
"""

import qcrystal as qc
from qcrystal.rank_one import iterated_f_over_factorial

lam = 4
m = qc.RankOneModule(lam)
print(f"V({lam}) has basis f^(k)v for k = 0..{lam}\n")

# Generator actions carry quantum-integer coefficients.
print("f, e and K on the basis:")
for k in range(m.dim):
    fv = qc.act_f(m, m.basis_vector(k))
    ev = qc.act_e(m, m.basis_vector(k))
    f_str = str(fv[k + 1]) if fv else "0"
    e_str = str(ev[k - 1]) if ev else "0"
    print(f"  k={k}:  f -> ({f_str}) f^({k + 1})v   e -> ({e_str}) f^({k - 1})v   "
          f"K -> q^{lam - 2 * k}")

# The commutator identity (ef - fe) f^(k)v = [lam - 2k] f^(k)v, checked
# with exact Laurent arithmetic for every basis vector.
ok, witness = qc.verify_sl2_relation(m)
print("\nsl2 relation holds:", ok)

# Divided powers act through quantum binomials and never leave Z[q,q^-1].
v = m.basis_vector(1)
direct = qc.act_divided_f(m, 2, v)
slow = iterated_f_over_factorial(m, 2, v)
print("\nf^(2) f^(1)v, two routes:")
print("  direct binomial:        ", {k: str(c) for k, c in direct.items()})
print("  iterate then divide by [2]!:", {k: str(c) for k, c in slow.items()})
print("  equal:", direct == slow, " (coefficient is [3 choose 1] =", str(qc.qbinom(3, 1)) + ")")

# At q -> 0 only the crystal chain survives: 0 -> 1 -> ... -> lam.
chain = []
k = 0
while k is not None:
    chain.append(k)
    k = qc.crystal_f_tilde(m, k)
print("\ncrystal chain:", " -> ".join(map(str, chain)))

# The chain is exactly B(lam) for A1 as the path model builds it.
graph = qc.generate_crystal(qc.cartan_datum("A1"), (lam,))
f1 = graph.children[0]  # f_tilde_1 as a column of ids, -1 for none
match = all((None if f1[k] < 0 else f1[k]) == qc.crystal_f_tilde(m, k) for k in range(m.dim))
print("agrees with the A1 path-model crystal:", match and len(graph) == m.dim)

# Quantum binomials are bar-symmetric, like everything balanced here.
p = qc.qbinom(6, 2)
print("\n[6 choose 2] =", p)
print("bar-invariant:", qc.bar(p) == p, " value at q=1:", qc.eval_at_one(p))
