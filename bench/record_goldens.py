"""Writes goldens.json: digests of the contractual outputs of every input the
workloads can draw, computed by the program as it stands.

    python3 bench/record_goldens.py

Record again only in a change that is meant to alter one of these outputs,
and say so in that change.  Closure witnesses, order-ideal counterexamples
and the edges of the generalized graph are not recorded: only the closure
members, the certified flags and the graph's reachability are contractual.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys

from worker import HERE, import_program


def record() -> dict:
    import conedec
    from workloads import (
        BuildWalk, CertifySweep, Enumerate, LargeSlice, OpLog, build_walk, certify_pair,
        closure_digest, digest, edge_digest, generalized_digest, pair_consistent,
        pair_digest, reach_map, seed_of, walk_seed,
    )

    text = Enumerate.stream()
    goldens = {"enumerate": {
        "lines": [digest(line) for line in text.split("\n")[:-1]],
        "stream": hashlib.sha256(text.encode()).hexdigest(),
    }}

    divs = list(conedec.enumerate_divisions(CertifySweep.N, CertifySweep.D))
    graphs = [conedec.generalized_graph(div) for div in divs]
    pairs = []
    for div, g in zip(divs, graphs):
        for mask in range(CertifySweep.MASKS):
            out = certify_pair(div, g, seed_of(div, mask))
            if not pair_consistent(out):
                raise SystemExit(f"closures disagree with the oracle on {div.mult}, mask {mask}")
            pairs.append(pair_digest(out))
    goldens["certify-sweep"] = {
        "reach": [digest(reach_map(g.nodes, g.edges)) for g in graphs],
        "pairs": pairs,
    }

    large = {}
    for n, d, k in LargeSlice.SLICES:
        div = conedec.pommaret_on_slice(n, d)
        ident = tuple(range(1, n + 1))
        g = conedec.generalized_graph(div)
        rng = random.Random(f"closure seeds {n},{d}")
        closures = []
        for _ in range(k):
            seed = sorted(rng.sample(div.support, rng.randint(1, 3)))
            comp = conedec.compliant_closure(div, seed)
            rev = conedec.revenant_closure(div, seed)
            if (set(comp.closure) != conedec.reachable_backward(g, seed)
                    or set(rev.closure) != conedec.reachable_forward(g, seed)):
                raise SystemExit(f"closures disagree with graph reachability on ({n},{d})")
            closures.append({"seed": [list(t) for t in seed],
                             "compliant": closure_digest(comp, ident),
                             "revenant": closure_digest(rev, ident)})
        large[f"{n},{d}"] = {
            "canonical": digest(conedec.canonical_form(div)),
            "ufnarovsky": edge_digest(conedec.ufnarovsky_graph(div), ident),
            "redundant": edge_digest(conedec.redundant_graph(div), ident),
            "generalized_reach": generalized_digest(g, ident),
            "closures": closures,
        }
    goldens["large-slice"] = large

    goldens["build-walk"] = {
        f"{n},{d}": [digest(build_walk(n, d, walk_seed(n, d, w), OpLog()))
                     for w in range(BuildWalk.CATALOGUE)]
        for n, d in BuildWalk.SLICES
    }
    return goldens


def main() -> int:
    import_program()
    goldens = record()
    (HERE / "goldens.json").write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
