"""Broadcast pin rewiring (paper §V-B, Fig. 8).

Delay matching can leave a register pyramid behind a broadcast source
(one register stack per destination).  The three-stage heuristic:

1. re-run the LP with a *virtual* cost for broadcast out-edges (only the
   maximum EL per source counts) — an optimistic estimate, because a
   broadcast can always be converted into a forwarding chain;
2. per broadcast source, run an MST over {source} ∪ destinations where a
   source→dest edge costs that destination's latency and a dest→dest edge
   (spatially adjacent destinations only) costs the latency *difference*;
   rewire along the tree, materializing forwarding relays;
3. re-run the plain LP on the rewired DAG to redistribute the remaining
   latencies correctly.

Stage 1 and 3 live in :mod:`repro.backend.delay_matching`; this module
implements stage 2 plus the orchestration.
"""

from __future__ import annotations

import heapq
import itertools

from .codegen import Design, compute_liveness
from .delay_matching import broadcast_sources, delay_match

__all__ = ["broadcast_tree", "rewire_broadcasts", "run_rewiring"]


def broadcast_tree(dests: list[tuple[int, tuple]]) -> dict[int, int | None]:
    """Prim's MST over a broadcast source and its destinations.

    *dests* holds each destination's ``(EL, placement)``.  A destination
    hangs off the source at cost EL, or off a spatially adjacent tree
    member (placements at L-infinity distance 1) at the EL difference.
    Returns ``{destination index: parent index or None}`` in the order
    the tree grew.  Candidates compare as ``(cost, index, parent)`` with
    parent -1 for the source, so ties go to the source, then to the
    lowest indices.
    """
    by_place: dict[tuple, list[int]] = {}
    for idx, (_el, place) in enumerate(dests):
        by_place.setdefault(place, []).append(idx)
    best = [(el, idx, -1) for idx, (el, _place) in enumerate(dests)]
    heap = list(best)
    heapq.heapify(heap)
    tree: dict[int, int | None] = {}
    while heap:
        _cost, idx, parent = heapq.heappop(heap)
        if idx in tree:
            continue
        tree[idx] = None if parent == -1 else parent
        el, place = dests[idx]
        for offset in itertools.product((-1, 0, 1), repeat=len(place)):
            if not any(offset):
                continue  # equal placements are not adjacent
            near = tuple(x + d for x, d in zip(place, offset))
            for nxt in by_place.get(near, ()):
                cand = (abs(dests[nxt][0] - el), nxt, idx)
                if nxt not in tree and cand < best[nxt]:
                    best[nxt] = cand
                    heapq.heappush(heap, cand)
    return tree


def rewire_broadcasts(design: Design, min_fanout: int = 3) -> int:
    """Stage 2: convert broadcast trees into forwarding chains using a
    Prim-style MST per source.  Returns the number of rewired edges."""
    dag = design.dag
    rewired = 0
    for src in broadcast_sources(design):
        outs = dag.out_edges(src)
        if len(outs) < min_fanout:
            continue
        # Only destinations with spatial placements can forward to each
        # other.
        places = [dag.nodes[e.dst].place for e in outs]
        if any(not isinstance(p, tuple) for p in places):
            continue
        tree = broadcast_tree([(e.el, p) for e, p in zip(outs, places)])

        # Materialize: destinations with a dest-parent get a relay chain.
        relays: dict[int, int] = {}

        def relay_of(idx: int) -> int:
            if idx in relays:
                return relays[idx]
            relay = dag.add_node("wire", width=outs[idx].width,
                                 place=places[idx],
                                 params={"role": "bcast_relay", "source": src})
            parent = tree[idx]
            dag.add_edge(src if parent is None else relay_of(parent), relay)
            relays[idx] = relay
            return relay

        for idx, parent in tree.items():
            if parent is None:
                continue  # keep the direct edge
            e_i = outs[idx]
            dag.add_edge(relay_of(idx), e_i.dst, e_i.dst_pin)
            dag.remove_edge(e_i)
            rewired += 1
    if rewired:
        compute_liveness(design)
    return rewired


def run_rewiring(design: Design) -> dict[str, float]:
    """Full three-stage §V-B pass.  Returns combined statistics."""
    stage1 = delay_match(design, broadcast_virtual_cost=True)
    n_rewired = rewire_broadcasts(design)
    stage3 = delay_match(design)
    return {
        "stage1_objective": stage1["objective"],
        "edges_rewired": float(n_rewired),
        "register_bits": stage3["register_bits"],
    }
