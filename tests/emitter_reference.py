"""Reference crystal emitters: the whole document built in memory at once.

These are the builders that the streamed ``cli.emit_json``, ``emit_dot``
and ``emit_text`` replaced: a dict payload through ``json.dumps(indent=2)``
and list-joined lines.  They share no formatting code with the emitters
they check.  ``reference_rank_one`` is the rank-one table as it was before
``cli.emit_rank_one`` rendered each [n] once for its f-line and e-line: it
renders every coefficient on its own line.  Kept for the differential tests
only.
"""

import json

from qcrystal.rank_one import RankOneModule, act_e, act_f, verify_sl2_relation


def _sorted_edges(graph):
    return sorted(graph.edges.items())


def reference_json(graph, members=None):
    payload = {
        "family": graph.datum.family,
        "rank": graph.datum.rank,
        "highest_weight": list(graph.highest_weight),
        "elements": [
            {"id": b,
             "weight": list(graph.weight_of[b]),
             "eps": list(graph.eps_of[b]),
             "phi": list(graph.phi_of[b])}
            for b in graph.all_ids()],
        "edges": [
            {"from": b, "to": child, "i": i}
            for (b, i), child in _sorted_edges(graph)],
    }
    if members is not None:
        payload["members"] = sorted(members)
    return (json.dumps(payload, indent=2) + "\n").encode()


def reference_dot(graph, members=None):
    lines = ["digraph crystal {", "  rankdir=TB;"]
    for b in graph.all_ids():
        label = "(" + ", ".join(str(c) for c in graph.weight_of[b]) + ")"
        extra = ", peripheries=2" if members is not None and b in members else ""
        lines.append(f'  n{b} [label="{label}"{extra}];')
    for (b, i), child in _sorted_edges(graph):
        lines.append(f'  n{b} -> n{child} [label="{i}"];')
    lines.append("}")
    return ("\n".join(lines) + "\n").encode()


def reference_text(graph, members=None):
    name = graph.datum.name
    lam = ", ".join(str(c) for c in graph.highest_weight)
    lines = [f"crystal {name} highest weight ({lam}): {len(graph)} elements"]
    if members is not None:
        lines[0] += f", subset of size {len(members)}"
    for b in graph.all_ids():
        mark = "*" if members is not None and b in members else " "
        wt = ", ".join(str(c) for c in graph.weight_of[b])
        eps = ", ".join(str(c) for c in graph.eps_of[b])
        phi = ", ".join(str(c) for c in graph.phi_of[b])
        lines.append(f"{mark}{b:>4}  weight=({wt})  eps=({eps})  phi=({phi})")
    lines.append("edges:")
    for (b, i), child in _sorted_edges(graph):
        lines.append(f"  {b} -{i}-> {child}")
    return ("\n".join(lines) + "\n").encode()


def reference_rank_one(lam):
    m = RankOneModule(lam)
    lines = [f"rank-one module V({lam}) over Z[q,q^-1], basis f^(k)v, k = 0..{lam}"]
    lines.append("f action:")
    for k in range(m.dim):
        image = act_f(m, m.basis_vector(k))
        desc = f"[{k + 1}] f^({k + 1})v = ({image[k + 1]}) f^({k + 1})v" if image else "0"
        lines.append(f"  f . f^({k})v = {desc}")
    lines.append("e action:")
    for k in range(m.dim):
        image = act_e(m, m.basis_vector(k))
        co = m.lam - k + 1
        desc = f"[{co}] f^({k - 1})v = ({image[k - 1]}) f^({k - 1})v" if image else "0"
        lines.append(f"  e . f^({k})v = {desc}")
    lines.append("K action:")
    for k in range(m.dim):
        lines.append(f"  K . f^({k})v = q^{m.lam - 2 * k} f^({k})v")
    chain = " -> ".join(str(k) for k in range(m.dim))
    lines.append(f"crystal chain: {chain}")
    ok, _ = verify_sl2_relation(m)
    lines.append(f"sl2 relation (ef - fe = [lambda - 2k]): {'ok' if ok else 'VIOLATED'}")
    return ("\n".join(lines) + "\n").encode()
