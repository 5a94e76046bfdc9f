"""Tour 2: Demazure subsets, the saturation recursion and string structure.

Run as: python3 demos/02_demazure_subsets.py
"""

import itertools

import qcrystal as qc

datum = qc.cartan_datum("A2")
graph = qc.generate_crystal(datum, (1, 1))

# B_w grows along any reduced word: saturate the last letter first.  The
# chain below follows prefixes of w0 = s1 s2 s1 from the right.
w0 = qc.longest_word(datum)
print(f"growth along suffixes of w0 = {w0}:")
for k in range(len(w0) + 1):
    word = w0[len(w0) - k:]
    dc = qc.demazure_crystal(graph, word)
    print(f"  word {word!s:<12} -> {sorted(dc.members)}")

# Different reduced words of the same element cut out the same subset.
# w0 is the one element of its length, so its reduced words are the
# reduced words of that length.
words = tuple(u for u in itertools.product(datum.indices(), repeat=len(w0))
              if qc.is_reduced(datum, u))
for word in words:
    assert qc.demazure_crystal(graph, word).members == set(graph.all_ids())
print("\nall reduced words of w0 give the full crystal:", words)

# The extremal-weight ladder: reflect the highest weight letter by letter;
# the m values count the lowering steps between consecutive extremal
# elements, and the ladder must stay nonnegative along a reduced word.
ladder = qc.extremal_weights(datum, (1, 1), w0)
print("\nextremal ladder for w0:")
for weight, m in ladder:
    print(f"  {weight}" + (f"   (reached by {m} lowering steps)" if m is not None else ""))
print("extremal element of B_w0:", qc.extremal_element(graph, w0),
      "with weight", graph.weight_of[qc.extremal_element(graph, w0)])


def strings(i):
    """The i-strings, read off the columns: from each top (eps_i = 0) down the i-th children."""
    column, out = graph.children[i - 1], []
    for top, eps in enumerate(graph.eps_of):
        if eps[i - 1] == 0:
            chain = [top]
            while column[chain[-1]] >= 0:
                chain.append(column[chain[-1]])
            out.append(tuple(chain))
    return out


# String property: every i-string meets B_w in everything, only its top,
# or nothing.  Show the pattern for B_{s1} against the 2-strings.
dc = qc.demazure_crystal(graph, (1,))
print(f"\nB_(1,) = {sorted(dc.members)} against the 2-strings:")
kinds = []
for s in strings(2):
    hit = dc.members.intersection(s)
    kinds.append("full" if hit == set(s) else "top" if hit == {s[0]} else
                 "partial" if hit else "empty")
    print(f"  string {s} -> {kinds[-1]}")
print("string property verified:", "partial" not in kinds)

# Filtration layers stratify by string length l = eps + phi; singleton
# layers must sit at a string top (eps = 0, so i-weight l) with l > 0.
length = {b: graph.eps_of[b][1] + graph.phi_of[b][1] for b in dc.members}
layers = {l: frozenset(b for b in dc.members if length[b] == l)
          for l in sorted(set(length.values()))}
print("\nfiltration layers of B_(1,) in direction 2:", layers)
ok = all(hit == set(s) or not hit or (hit == {s[0]} and graph.phi_of[s[0]][1] > 0)
         for s in strings(2) for hit in [dc.members.intersection(s)])
print("filtration structure verified:", ok)

# Quotients along a covering pair are strings minus their tops.
big = qc.demazure_crystal(graph, (2, 1))
small = qc.demazure_crystal(graph, (1,))
diff = big.members - small.members
ok = all(not hit or (hit == set(s[1:]) and s[0] in small.members)
         for s in strings(2) for hit in [diff.intersection(s)])
print(f"\nB_(2,1) minus B_(1,) = {sorted(diff)} (strings minus tops: "
      f"{'ok' if ok else 'broken'})")
