"""The detailed architecture graph (DAG) — the back end's working IR (§V).

Nodes are :class:`~repro.backend.primitives.Primitive` instances; edges
carry bit-width and the number of pipeline registers (``el``) inserted by
delay matching.  FIFO primitives additionally carry per-dataflow
programmable depths in their params; those registers are accounted
separately from ``el``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .primitives import Primitive

__all__ = ["Edge", "DAG"]


@dataclass
class Edge:
    """A directed wire bundle from ``src``'s output to pin ``dst_pin`` of
    ``dst``.  ``el`` counts inserted pipeline registers (delay matching);
    ``width`` is inherited from the source node by bit-width inference."""

    src: int
    dst: int
    dst_pin: int = 0
    width: int = 8
    el: int = 0
    uid: int = -1


@dataclass
class DAG:
    """A primitive-level architecture graph with cycle checking and the
    register accounting the backend passes optimize.

    Edges live in one store keyed by ``uid`` (insertion order), indexed
    per node by destination and by source.  Mutate the graph only through
    the methods below; ``edges``, ``in_edges`` and ``out_edges`` return
    edges in insertion order, which Verilog pin resolution and the delay
    LP's variable order rely on.
    """

    nodes: dict[int, Primitive] = field(default_factory=dict)
    _next_id: int = 0
    _next_edge_uid: int = 0
    _edges: dict[int, Edge] = field(default_factory=dict, repr=False)
    _in: dict[int, dict[int, Edge]] = field(default_factory=dict, repr=False)
    _out: dict[int, dict[int, Edge]] = field(default_factory=dict,
                                             repr=False)

    # -- construction ------------------------------------------------------------

    def add_node(self, kind: str, *, width: int = 8, latency: int | None = None,
                 params: dict | None = None, place=None,
                 pins: tuple[str, ...] = ()) -> int:
        node = Primitive(self._next_id, kind, pins=pins, width=width,
                         latency=latency, params=params or {}, place=place)
        self.nodes[node.node_id] = node
        self._next_id += 1
        return node.node_id

    def add_edge(self, src: int, dst: int, dst_pin: int = 0,
                 width: int | None = None, *, el: int = 0,
                 uid: int | None = None) -> Edge:
        """Connect *src* to pin *dst_pin* of *dst*.  ``uid`` is assigned
        unless given (reloading a serialized design keeps its uids)."""
        if src not in self.nodes or dst not in self.nodes:
            raise KeyError("edge endpoints must be existing nodes")
        if uid is None:
            uid = self._next_edge_uid
        elif uid in self._edges:
            raise ValueError(f"duplicate edge uid {uid}")
        edge = Edge(src, dst, dst_pin,
                    width if width is not None else self.nodes[src].width,
                    el, uid=uid)
        self._next_edge_uid = max(self._next_edge_uid, uid + 1)
        self._edges[uid] = edge
        self._in.setdefault(dst, {})[uid] = edge
        self._out.setdefault(src, {})[uid] = edge
        return edge

    def remove_edge(self, edge: Edge) -> None:
        if self._edges.get(edge.uid) != edge:
            raise ValueError(f"{edge} is not in the graph")
        del self._edges[edge.uid]
        del self._in[edge.dst][edge.uid]
        del self._out[edge.src][edge.uid]

    def remove_node(self, node_id: int) -> None:
        """Drop a node and every edge incident to it."""
        del self.nodes[node_id]
        for edge in [*self._in.pop(node_id, {}).values(),
                     *self._out.pop(node_id, {}).values()]:
            if self._edges.pop(edge.uid, None) is not None:
                self._out.get(edge.src, {}).pop(edge.uid, None)
                self._in.get(edge.dst, {}).pop(edge.uid, None)

    # -- queries -----------------------------------------------------------------

    @property
    def edges(self) -> tuple[Edge, ...]:
        return tuple(self._edges.values())

    def in_edges(self, node_id: int) -> list[Edge]:
        return list(self._in.get(node_id, {}).values())

    def out_edges(self, node_id: int) -> list[Edge]:
        return list(self._out.get(node_id, {}).values())

    def topo_order(self, sequential_break: bool = True,
                   edge_filter=None) -> list[int]:
        """Topological order; raises on combinational cycles.

        With ``sequential_break`` (default) FIFO outputs do not impose
        ordering: FIFOs are sequential elements, so a static cycle through
        a FIFO is legal hardware (e.g. two dataflows driving a link pair
        in opposite directions — only one is ever active).  Pass
        ``edge_filter`` to restrict to a per-dataflow active subgraph.
        """
        indeg = {nid: 0 for nid in self.nodes}
        succ: dict[int, list[int]] = {nid: [] for nid in self.nodes}
        for e in self.edges:
            if edge_filter is not None and not edge_filter(e):
                continue
            if sequential_break and self.nodes[e.src].kind == "fifo":
                continue
            indeg[e.dst] += 1
            succ[e.src].append(e.dst)
        ready = sorted(nid for nid, d in indeg.items() if d == 0)
        order: list[int] = []
        while ready:
            nid = ready.pop()
            order.append(nid)
            for nxt in succ[nid]:
                indeg[nxt] -= 1
                if indeg[nxt] == 0:
                    ready.append(nxt)
        if len(order) != len(self.nodes):
            raise ValueError("DAG contains a combinational cycle")
        return order

    def validate(self) -> None:
        """Structural sanity: acyclic, pins exist, sinks have no fan-out."""
        self.topo_order(sequential_break=True)
        for e in self.edges:
            node = self.nodes[e.dst]
            if node.pins and e.dst_pin >= len(node.pins):
                raise ValueError(f"edge targets pin {e.dst_pin} of {node}")
        for nid, node in self.nodes.items():
            if node.is_sink and self.out_edges(nid):
                raise ValueError(f"sink {node} has outgoing edges")

    # -- register accounting (the optimization target of §V) ---------------------

    def pipeline_register_bits(self) -> int:
        """Bits of pipeline registers inserted by delay matching."""
        return sum(e.el * e.width for e in self.edges)

    def fifo_register_bits(self) -> int:
        """Bits of delay-FIFO storage (max programmed depth per FIFO)."""
        total = 0
        for node in self.nodes.values():
            if node.kind == "fifo":
                depths = node.params.get("depths", {})
                depth = max(depths.values()) if depths else node.params.get(
                    "depth", 0)
                total += depth * node.width
        return total

    def count(self, kind: str) -> int:
        return sum(1 for n in self.nodes.values() if n.kind == kind)

    def stats(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for node in self.nodes.values():
            out[node.kind] = out.get(node.kind, 0) + 1
        out["pipeline_register_bits"] = self.pipeline_register_bits()
        out["fifo_register_bits"] = self.fifo_register_bits()
        out["n_edges"] = len(self.edges)
        return out
