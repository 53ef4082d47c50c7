"""Vectorized execution of a design's cycle schedule — the fast cold path.

The per-cycle interpreter in :mod:`.dag_sim` walks every active primitive
every cycle in Python: ``O(nodes x cycles)`` dict lookups, param reads,
and branch dispatch.  This module compiles the same schedule *once* into
a **step program**: the active topological order is partitioned into
steps of same-kind primitives (splitting whenever a node feeds another
node of its own step, so every step's inputs are fully computed series),
and every static table the interpreter consults per cycle — input
sources, edge + latency lookbacks, physical FIFO depths, mux selects and
timestamp policies, affine address matrices, LUT contents — is
precomputed into numpy arrays at construction.  Execution is then one
batched numpy column operation per node (and one fancy-indexed 2-D
assignment per pass-through partition) over the value/valid matrices
``V``/``K`` of shape ``(active primitives, cycles)``.

Outputs, cycle counts, per-node toggle counts, and memory access
counters are **bit-identical** to the interpreter, which stays available
as the ``Simulator(..., reference=True)`` oracle — the property tests in
``tests/test_vector_sim.py`` assert the equivalence across every kernel
family.  Designs the vectorization cannot honour exactly (a tensor both
read and written by one configuration, or non-accumulating commits) are
detected at compile time and fall back to the interpreter.
"""

from __future__ import annotations

import numpy as np

__all__ = ["StepProgram"]

#: kinds executed by one shifted copy of their single input series
_PASS_KINDS = ("ctrl_tap", "wire", "output", "fifo")
_ALU_KINDS = ("mul", "add", "sub", "shl", "shr", "max")

#: magnitude ceiling for the int64 engine: if any value the program can
#: produce may reach this, the run falls back to the interpreter (whose
#: Python ints never wrap) instead of silently wrapping
_SAFE_LIMIT = 1 << 62


class _Unsupported(Exception):
    """Design feature the vectorized path cannot reproduce bit-exactly."""


class StepProgram:
    """Precompiled vectorized execution plan for one dataflow config.

    Built from a :class:`~repro.sim.dag_sim.Simulator` (which owns the
    graph preparation: active order, per-pin input map, pipeline bound).
    ``supported`` is False when the design needs the reference
    interpreter; ``run`` then must not be called.
    """

    def __init__(self, sim):
        self.sim = sim
        self.n_cycles = sim.cfg.total_timestamps + sim.pipeline_bound + 2
        self.order = list(sim.order)
        self.row = {nid: i for i, nid in enumerate(self.order)}
        self.steps: list[tuple[str, list[dict]]] = []
        self.supported = True
        try:
            self._compile()
        except _Unsupported:
            self.supported = False

    # -- compilation -------------------------------------------------------

    def _input(self, nid: int, pin: int, extra: int):
        """(source row, total lookback) of one input pin, or None when
        the pin is unconnected in this dataflow."""
        entry = self.sim.inputs.get(nid, {}).get(pin)
        if entry is None:
            return None
        src, el = entry
        return self.row[src], el + extra

    def _compile(self) -> None:
        sim = self.sim
        dag = sim.dag
        cfg = sim.cfg
        rt = tuple(int(r) for r in sim.rt)
        total = 1
        for r in rt:
            total *= r
        # t // stride[i] % rt[i] == unrank digit i (t always >= 0 here).
        strides = np.ones(len(rt), dtype=np.int64)
        for i in range(len(rt) - 2, -1, -1):
            strides[i] = strides[i + 1] * rt[i + 1]
        self._rt = np.array(rt, dtype=np.int64)
        self._strides = strides
        self._total = total

        read_tensors = {dag.nodes[n].params["tensor"]
                        for n in cfg.read_enable if n in self.row}
        written = {dag.nodes[n].params["tensor"]
                   for n in cfg.write_enable if n in self.row}
        if read_tensors & written:
            # Memory feedback the DAG does not express: the interpreter
            # interleaves the accesses cycle by cycle, we cannot.
            raise _Unsupported

        specs = [self._compile_node(nid) for nid in self.order]
        # Group consecutive same-executor nodes, splitting when a node
        # consumes a series produced inside the open step (batched 2-D
        # assignment needs every source series finished).
        steps: list[tuple[str, list[dict]]] = []
        open_rows: set[int] = set()
        for nid, (kind, spec) in zip(self.order, specs):
            sources = spec.get("_srcs", ())
            if (not steps or steps[-1][0] != kind
                    or any(s in open_rows for s in sources)):
                steps.append((kind, []))
                open_rows = set()
            steps[-1][1].append(spec)
            open_rows.add(self.row[nid])
        self.steps = steps

    def _compile_node(self, nid: int) -> tuple[str, dict]:
        sim = self.sim
        node = sim.dag.nodes[nid]
        cfg = sim.cfg
        kind = node.kind
        row = self.row[nid]
        spec: dict = {"row": row}

        def srcs(*entries):
            spec["_srcs"] = tuple(e[0] for e in entries if e is not None)

        if kind == "const":
            spec["value"] = int(node.params.get("value", 0))
            return "const", spec
        if kind == "ctrl":
            spec["offset"] = int(cfg.ctrl_offset.get(nid, 0))
            return "ctrl", spec
        if kind in _PASS_KINDS:
            extra = sim._node_delay(nid) if kind == "fifo" else 0
            spec["input"] = self._input(nid, 0, extra)
            srcs(spec["input"])
            return "pass", spec
        if kind == "mux":
            policy = cfg.mux_policy.get(nid)
            if policy is None:
                sel = cfg.mux_select.get(nid, 0)
                spec["input"] = self._input(nid, sel, 0)
                srcs(spec["input"])
                return "pass", spec
            spec["ts"] = self._input(nid, 0, 0)
            spec["policy"] = [
                (self._input(nid, pin, 0),
                 None if dt is None else np.array([int(d) for d in dt],
                                                 dtype=np.int64))
                for pin, dt in policy]
            srcs(spec["ts"], *(entry for entry, _dt in spec["policy"]))
            return "mux_dyn", spec
        if kind == "addrgen":
            agc = cfg.addrgen.get(nid)
            spec["input"] = self._input(nid, 0, node.latency)
            if agc is None or spec["input"] is None:
                return "idle", spec
            nt = len(agc.rt)
            assert tuple(int(r) for r in agc.rt) == tuple(
                int(r) for r in sim.rt), \
                "address generators share the dataflow's temporal basis"
            spec["mdt"] = np.array(agc.mdt, dtype=np.int64).reshape(
                len(agc.offset), nt)
            spec["offset"] = np.array(agc.offset, dtype=np.int64)
            spec["dims"] = np.array(agc.dims, dtype=np.int64)
            spec["gate"] = (None if agc.gate_dt is None
                            else np.array(agc.gate_dt, dtype=np.int64))
            srcs(spec["input"])
            return "addrgen", spec
        if kind == "mem_read":
            spec["input"] = self._input(nid, 0, node.latency)
            spec["tensor"] = node.params["tensor"]
            if nid not in cfg.read_enable or spec["input"] is None:
                return "idle", spec
            srcs(spec["input"])
            return "mem_read", spec
        if kind == "mem_write":
            if nid not in cfg.write_enable:
                return "idle", spec
            spec["addr"] = self._input(nid, 0, 0)
            spec["data"] = self._input(nid, 1, 0)
            spec["tensor"] = node.params["tensor"]
            if spec["addr"] is None or spec["data"] is None:
                return "idle", spec
            if not node.params.get("accumulate", True):
                # Overwriting commits are order-sensitive across write
                # ports; only the interpreter serializes them exactly.
                raise _Unsupported
            srcs(spec["addr"], spec["data"])
            return "mem_write", spec
        if kind in _ALU_KINDS:
            spec["op"] = kind
            spec["a"] = self._input(nid, 0, node.latency)
            spec["b"] = self._input(nid, 1, node.latency)
            if spec["a"] is None or spec["b"] is None:
                return "idle", spec
            srcs(spec["a"], spec["b"])
            return "alu", spec
        if kind == "reducer":
            pin_dfs = node.params.get("pin_dataflows", {})
            pins = []
            for pin in sim.inputs.get(nid, {}):
                if pin_dfs and sim.dataflow not in pin_dfs.get(pin, ()):
                    continue
                pins.append(self._input(nid, pin, node.latency))
            spec["pins"] = pins
            srcs(*pins)
            return "reducer", spec
        if kind == "lut":
            spec["input"] = self._input(nid, 0, node.latency)
            table = node.params.get("table")
            if spec["input"] is None or table is None:
                return "idle", spec
            spec["table"] = np.array([int(v) for v in table],
                                     dtype=np.int64)
            srcs(spec["input"])
            return "lut", spec
        # Unknown kinds produce None every cycle in the interpreter.
        return "idle", spec

    # -- magnitude safety --------------------------------------------------

    def magnitude_safe(self, storage: dict[str, np.ndarray]) -> bool:
        """Conservative interval check that every value this run can
        produce — and every accumulated memory commit — provably fits
        int64.

        The reference interpreter computes on Python ints (unbounded)
        and only overflows loudly when committing to the int64 tensor
        memories; the vectorized engine would *wrap silently* instead.
        So before running we propagate worst-case magnitude bounds (in
        exact Python ints) through the step program from the actual
        input data; any possible excursion past ``_SAFE_LIMIT`` makes
        the caller fall back to the interpreter.  Typical generator
        stimuli (small integers) pass by many orders of magnitude.
        """
        bound: dict[int, int] = {}
        commit: dict[str, int] = {}
        for tensor, arr in storage.items():
            commit[tensor] = int(np.abs(arr).max()) if arr.size else 0

        def inb(entry):
            return bound.get(entry[0], 0) if entry is not None else 0

        for kind, specs in self.steps:
            for s in specs:
                b = 0
                if kind == "const":
                    b = abs(s["value"])
                elif kind == "ctrl":
                    b = self.n_cycles + abs(s["offset"])
                elif kind == "pass":
                    b = inb(s["input"])
                elif kind == "mux_dyn":
                    b = max([inb(e) for e, _dt in s["policy"]] + [0])
                elif kind == "addrgen":
                    b = int(np.prod(s["dims"])) + 1
                elif kind == "mem_read":
                    b = commit[s["tensor"]]
                elif kind == "mem_write":
                    # every cycle may add the worst-case datum
                    commit[s["tensor"]] += inb(s["data"]) * self.n_cycles
                    if commit[s["tensor"]] >= _SAFE_LIMIT:
                        return False
                elif kind == "alu":
                    ba, bb = inb(s["a"]), inb(s["b"])
                    op = s["op"]
                    if op == "mul":
                        b = ba * bb
                    elif op in ("add", "sub"):
                        b = ba + bb
                    elif op == "max":
                        b = max(ba, bb)
                    elif op == "shl":
                        if bb > 63:
                            # Python << has no 63-bit ceiling; the
                            # engine's clamp would diverge.
                            return False
                        b = ba << bb
                    else:  # shr never grows magnitude
                        b = ba
                elif kind == "reducer":
                    b = sum(inb(e) for e in s["pins"])
                elif kind == "lut":
                    table = s["table"]
                    b = int(np.abs(table).max()) if table.size else 0
                if b >= _SAFE_LIMIT:
                    return False
                bound[s["row"]] = b
        return True

    # -- execution ---------------------------------------------------------

    def _shift(self, V, K, entry):
        """The (value, valid) series one input sees: its source's series
        delayed by the lookback (invalid before the first arrival)."""
        n = self.n_cycles
        if entry is None:
            return (np.zeros(n, dtype=np.int64), np.zeros(n, dtype=bool))
        src, lb = entry
        if lb <= 0:
            return V[src], K[src]
        v = np.zeros(n, dtype=np.int64)
        k = np.zeros(n, dtype=bool)
        if lb < n:
            v[lb:] = V[src, :n - lb]
            k[lb:] = K[src, :n - lb]
        return v, k

    def run(self, storage: dict[str, np.ndarray]):
        """Execute the program; returns ``(V, K, toggles, mem_reads,
        mem_writes)`` — the caller (the simulator) assembles the
        :class:`~repro.sim.dag_sim.SimResult`."""
        n = self.n_cycles
        V = np.zeros((len(self.order), n), dtype=np.int64)
        K = np.zeros((len(self.order), n), dtype=bool)
        mem_reads: dict[str, int] = {}
        mem_writes: dict[str, int] = {}
        for kind, specs in self.steps:
            getattr(self, f"_exec_{kind}")(specs, V, K, storage,
                                           mem_reads, mem_writes)

        # Toggle counts: a change of validity, or of value while valid
        # on both sides — exactly the interpreter's `prev != out` test
        # (None==None never toggles, None vs value always does).  Counted
        # in blocks of rows so the bool temporaries stay near 1 MB each.
        counts = np.zeros(len(self.order), dtype=np.int64)
        block = max(1, (1 << 20) // n)
        for lo in range(0, len(self.order), block):
            v, k = V[lo:lo + block], K[lo:lo + block]
            both = k[:, 1:] & k[:, :-1]
            changed = ((k[:, 1:] != k[:, :-1])
                       | (both & (v[:, 1:] != v[:, :-1])))
            counts[lo:lo + block] = changed.sum(axis=1)
        toggles = {nid: int(counts[self.row[nid]]) for nid in self.order}
        return V, K, toggles, mem_reads, mem_writes

    # Each executor handles one step (a batch of same-kind specs) as
    # column operations over the full cycle range.

    def _exec_idle(self, specs, V, K, storage, mem_reads, mem_writes):
        pass  # series stays all-invalid, like the interpreter's None

    def _exec_const(self, specs, V, K, storage, mem_reads, mem_writes):
        rows = np.array([s["row"] for s in specs])
        values = np.array([s["value"] for s in specs], dtype=np.int64)
        V[rows] = values[:, None]
        K[rows] = True

    def _exec_ctrl(self, specs, V, K, storage, mem_reads, mem_writes):
        cycle = np.arange(self.n_cycles, dtype=np.int64)
        rows = np.array([s["row"] for s in specs])
        offsets = np.array([s["offset"] for s in specs], dtype=np.int64)
        V[rows] = cycle[None, :] - offsets[:, None]
        K[rows] = True

    def _exec_pass(self, specs, V, K, storage, mem_reads, mem_writes):
        # Partition by lookback: each partition is one 2-D shifted copy.
        n = self.n_cycles
        by_lb: dict[int, list[tuple[int, int]]] = {}
        for s in specs:
            if s["input"] is None:
                continue
            src, lb = s["input"]
            by_lb.setdefault(min(lb, n), []).append((s["row"], src))
        for lb, pairs in by_lb.items():
            dst = np.array([d for d, _ in pairs])
            src = np.array([s for _, s in pairs])
            if lb <= 0:
                V[dst] = V[src]
                K[dst] = K[src]
            else:
                V[dst, lb:] = V[src, :n - lb]
                K[dst, lb:] = K[src, :n - lb]

    def _exec_alu(self, specs, V, K, storage, mem_reads, mem_writes):
        for s in specs:
            av, ak = self._shift(V, K, s["a"])
            bv, bk = self._shift(V, K, s["b"])
            op = s["op"]
            if op == "mul":
                out = av * bv
            elif op == "add":
                out = av + bv
            elif op == "sub":
                out = av - bv
            elif op == "max":
                out = np.maximum(av, bv)
            elif op == "shl":
                # Invalid lanes may carry garbage shift counts; clamping
                # them never touches valid data (Python << would have
                # raised on a negative count).
                out = np.left_shift(av, np.clip(bv, 0, 63))
            else:  # shr
                out = np.right_shift(av, np.clip(bv, 0, 63))
            V[s["row"]] = out
            K[s["row"]] = ak & bk

    def _unrank_digits(self, t):
        """(digits, in_range) of the scalar timestamps in *t* (garbage
        digits where out of range — callers mask)."""
        ok = (t >= 0) & (t < self._total)
        safe = np.where(ok, t, 0)
        digits = (safe[None, :] // self._strides[:, None]) \
            % self._rt[:, None]
        return digits, ok

    def _exec_mux_dyn(self, specs, V, K, storage, mem_reads, mem_writes):
        for s in specs:
            row = s["row"]
            tv, tk = self._shift(V, K, s["ts"])
            digits, in_range = self._unrank_digits(tv)
            live = tk & in_range
            assigned = ~live  # no timestamp -> stays invalid
            out_v = np.zeros(self.n_cycles, dtype=np.int64)
            out_k = np.zeros(self.n_cycles, dtype=bool)
            for entry, dt in s["policy"]:
                if dt is None:
                    cond = ~assigned
                else:
                    shifted = digits - dt[:, None]
                    cond = ~assigned & np.all(
                        (shifted >= 0) & (shifted < self._rt[:, None]),
                        axis=0)
                if not cond.any():
                    continue
                v, k = self._shift(V, K, entry)
                out_v[cond] = v[cond]
                out_k[cond] = k[cond]
                assigned |= cond
            V[row] = out_v
            K[row] = out_k

    def _exec_addrgen(self, specs, V, K, storage, mem_reads, mem_writes):
        for s in specs:
            tv, tk = self._shift(V, K, s["input"])
            digits, in_range = self._unrank_digits(tv)
            ok = tk & in_range
            if s["gate"] is not None:
                shifted = digits + s["gate"][:, None]
                covered = np.all((shifted >= 0)
                                 & (shifted < self._rt[:, None]), axis=0)
                ok &= ~covered
            idx = s["mdt"] @ digits + s["offset"][:, None]
            dims = s["dims"][:, None]
            in_bounds = np.all((idx >= 0) & (idx < dims), axis=0)
            addr = np.zeros(self.n_cycles, dtype=np.int64)
            for r in range(len(s["dims"])):
                addr = addr * s["dims"][r] + idx[r]
            V[s["row"]] = np.where(in_bounds, addr, -1)
            K[s["row"]] = ok

    def _exec_mem_read(self, specs, V, K, storage, mem_reads, mem_writes):
        for s in specs:
            av, ak = self._shift(V, K, s["input"])
            arr = storage[s["tensor"]]
            fetch = ak & (av >= 0)
            out = np.zeros(self.n_cycles, dtype=np.int64)
            out[fetch] = arr[av[fetch]]
            V[s["row"]] = out
            K[s["row"]] = ak
            count = int(np.count_nonzero(fetch))
            if count:
                mem_reads[s["tensor"]] = \
                    mem_reads.get(s["tensor"], 0) + count

    def _exec_mem_write(self, specs, V, K, storage, mem_reads, mem_writes):
        for s in specs:
            av, ak = self._shift(V, K, s["addr"])
            dv, dk = self._shift(V, K, s["data"])
            commit = ak & dk & (av >= 0)
            np.add.at(storage[s["tensor"]], av[commit], dv[commit])
            count = int(np.count_nonzero(commit))
            if count:
                mem_writes[s["tensor"]] = \
                    mem_writes.get(s["tensor"], 0) + count

    def _exec_reducer(self, specs, V, K, storage, mem_reads, mem_writes):
        for s in specs:
            acc = np.zeros(self.n_cycles, dtype=np.int64)
            seen = np.zeros(self.n_cycles, dtype=bool)
            for entry in s["pins"]:
                v, k = self._shift(V, K, entry)
                acc += np.where(k, v, 0)
                seen |= k
            V[s["row"]] = acc
            K[s["row"]] = seen

    def _exec_lut(self, specs, V, K, storage, mem_reads, mem_writes):
        for s in specs:
            v, k = self._shift(V, K, s["input"])
            table = s["table"]
            V[s["row"]] = table[v % len(table)]
            K[s["row"]] = k
