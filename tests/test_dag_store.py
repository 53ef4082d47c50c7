"""The DAG's indexed edge store and the heap-based broadcast Prim,
checked against the plain definitions they replace: per-node queries
against a filtered scan of the global edge list, and the MST against
the quadratic-per-step Prim loop it superseded (kept here as the
oracle)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend.dag import DAG, Edge
from repro.backend.rewiring import broadcast_tree


def _scan(edges, node, end):
    return [e.uid for e in edges if getattr(e, end) == node]


class TestEdgeStore:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_queries_match_a_filtered_scan(self, data):
        """Random add/remove/remove_node sequences: the store keeps
        global insertion order, and per-node queries equal, in order,
        a scan of that order — also against an independently kept
        list with the old append/remove semantics."""
        dag = DAG()
        reference: list[Edge] = []
        for _ in range(data.draw(st.integers(1, 60))):
            op = data.draw(st.sampled_from(
                ["node", "edge", "edge", "edge", "remove_edge",
                 "remove_node"]))
            nodes = sorted(dag.nodes)
            if op == "node" or not nodes:
                dag.add_node("wire")
            elif op == "edge":
                src = data.draw(st.sampled_from(nodes))
                dst = data.draw(st.sampled_from(nodes))
                reference.append(dag.add_edge(
                    src, dst, data.draw(st.integers(0, 2))))
            elif op == "remove_edge" and reference:
                edge = data.draw(st.sampled_from(reference))
                dag.remove_edge(edge)
                reference.remove(edge)
            elif op == "remove_node":
                nid = data.draw(st.sampled_from(nodes))
                dag.remove_node(nid)
                reference = [e for e in reference
                             if nid not in (e.src, e.dst)]
            assert [e.uid for e in dag.edges] == [e.uid for e in reference]
            for nid in [*dag.nodes, max(dag.nodes, default=0) + 1]:
                assert [e.uid for e in dag.in_edges(nid)] == \
                    _scan(reference, nid, "dst")
                assert [e.uid for e in dag.out_edges(nid)] == \
                    _scan(reference, nid, "src")

    def test_removing_an_absent_edge_raises(self):
        dag = DAG()
        a, b = dag.add_node("wire"), dag.add_node("wire")
        edge = dag.add_edge(a, b)
        dag.remove_edge(edge)
        with pytest.raises(ValueError):
            dag.remove_edge(edge)
        with pytest.raises(ValueError):
            dag.remove_edge(Edge(a, b, uid=99))

    def test_remove_node_drops_incident_edges_and_self_loops(self):
        dag = DAG()
        a, b, c = (dag.add_node("wire") for _ in range(3))
        dag.add_edge(a, b)
        dag.add_edge(b, b)
        keep = dag.add_edge(a, c)
        dag.add_edge(b, c)
        dag.remove_node(b)
        assert b not in dag.nodes
        assert dag.edges == (keep,)
        assert dag.out_edges(a) == [keep] and dag.in_edges(c) == [keep]
        with pytest.raises(KeyError):
            dag.remove_node(b)

    def test_explicit_uids_keep_numbering_monotonic(self):
        dag = DAG()
        a, b = dag.add_node("wire"), dag.add_node("wire")
        dag.add_edge(a, b, 0, 16, el=3, uid=7)
        assert dag.add_edge(b, a).uid == 8
        with pytest.raises(ValueError):
            dag.add_edge(a, b, uid=7)
        assert dag.in_edges(b)[0].el == 3

    def test_edges_view_is_read_only(self):
        dag = DAG()
        a = dag.add_node("wire")
        with pytest.raises(AttributeError):
            dag.edges.append(Edge(a, a))


def _adjacent(a, b) -> bool:
    """Spatial adjacency of two placements (FU grid L-infinity
    distance 1)."""
    if not (isinstance(a, tuple) and isinstance(b, tuple)):
        return False
    if len(a) != len(b):
        return False
    return max(abs(x - y) for x, y in zip(a, b)) <= 1 and a != b


def _cubic_prim(dests):
    """The superseded Prim loop: every step rescans every remaining
    destination against every tree member."""
    in_tree: dict[int, int | None] = {}
    remaining = set(range(len(dests)))
    tree_order: list[int] = []
    while remaining:
        best = None
        for idx in remaining:
            el_i, p_i = dests[idx]
            cand = (float(el_i), idx, -1)
            if best is None or cand < best:
                best = cand
            for t_idx in tree_order:
                el_t, p_t = dests[t_idx]
                if _adjacent(p_i, p_t):
                    cand = (abs(float(el_i - el_t)), idx, t_idx)
                    if cand < best:
                        best = cand
        _cost, idx, parent = best
        in_tree[idx] = None if parent == -1 else parent
        tree_order.append(idx)
        remaining.discard(idx)
    return in_tree


def _dests(dims: int):
    """Destinations on a small grid, so duplicate placements and tied
    ELs are common."""
    return st.lists(st.tuples(
        st.integers(0, 4),
        st.tuples(*[st.integers(-1, 3)] * dims)), min_size=1, max_size=24)


class TestBroadcastTree:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(_dests(1), _dests(2), _dests(3)))
    def test_heap_prim_matches_the_cubic_oracle(self, dests):
        assert list(broadcast_tree(dests).items()) == \
            list(_cubic_prim(dests).items())

    def test_ties_prefer_the_source_then_low_indices(self):
        # all ELs tie: 0 takes the source, 1 shares 0's placement and
        # so cannot hang off it, and the zero-cost candidates go in
        # index order, each to its lowest-index adjacent tree member
        dests = [(2, (0, 0)), (2, (0, 0)), (2, (0, 1)), (2, (1, 1))]
        assert list(broadcast_tree(dests).items()) == \
            [(0, None), (2, 0), (1, 2), (3, 0)]
