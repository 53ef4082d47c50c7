"""cold-ladder: cold single-design requests at growing sizes.

Each rung is one design requested cold, first as Verilog and then as
HLS-C (the second pays staged emission plus the golden-vector
simulation), through one empty ``DesignCache``.  The backend passes do
most of the work here, so this is the workload a pass speed-up moves.
"""

from __future__ import annotations

import gc
import re
import subprocess

import numpy as np

from common import (Meter, digest, measure, median, peak_rss_mb,
                    pin_to_one_cpu, start_up)
from oracles import check_design
from tracer import Tracer

#: (rung name, DesignRequest fields).  The large rungs are 12x12, not
#: 16x16: one 16x16 request alone takes 12-15 s today, more than a
#: run's share of the benchmark's time budget.
RUNGS = (
    ("gemm8", dict(kernel="gemm", dataflows=("IJ", "KJ"), array=(8, 8))),
    ("gemm12", dict(kernel="gemm", dataflows=("IJ", "KJ"),
                    array=(12, 12))),
    ("gemm12-bcast", dict(kernel="gemm", dataflows=("IJ", "KJ"),
                          array=(12, 12), systolic=False)),
    ("conv8", dict(kernel="conv2d", dataflows=("ICOC", "OHOW"),
                   array=(8, 8))),
    ("attn8", dict(kernel="attention", dataflows=("QK", "PV"),
                   array=(8, 8))),
    ("mttkrp8", dict(kernel="mttkrp", dataflows=("IJ", "KJ"),
                     array=(8, 8))),
)
BACKENDS = ("verilog", "hls_c")
#: rungs whose HLS-C testbench is compiled with gcc and run
GCC_RUNGS = ("gemm8", "conv8", "attn8", "mttkrp8")

IMPORTS = ["repro.service.engine", "repro.backends", "repro.sim.dag_sim"]


def _ladder(ctx, meter, order, tag: str, keep: bool):
    """One pass over the rungs into a fresh cache.  Returns per-rung
    seconds and, if *keep*, ``{rung: {backend: result}}`` (else None)."""
    from repro.service.cache import DesignCache
    from repro.service.engine import BatchEngine
    from repro.service.spec import DesignRequest

    engine = BatchEngine(cache=DesignCache(root=ctx.fresh_dir(tag)),
                         workers=1)
    rung_s, results = {}, {}
    for name in order:
        fields = dict(RUNGS)[name]
        results[name] = {}
        rung_s[name] = 0.0
        for backend in BACKENDS:
            request = DesignRequest(backend=backend, **fields)
            gc.collect()
            results[name][backend], dt, _ = meter.span(engine.submit,
                                                       request)
            rung_s[name] += dt
    return rung_s, results if keep else None


def _run_testbench(ctx, name: str, artifacts: dict) -> bool:
    """Compile the HLS-C kernel and its self-checking testbench with gcc
    and run it; True if it reports a pass."""
    build = ctx.fresh_dir(f"gcc-{name}")
    for fname, text in artifacts.items():
        (build / fname).write_text(text)
    sources = sorted(str(build / f) for f in artifacts if f.endswith(".c"))
    exe = build / "tb"
    compiled = subprocess.run(["gcc", "-O0", "-o", str(exe), *sources],
                              cwd=build, capture_output=True, timeout=120,
                              env=ctx.env())
    if compiled.returncode != 0:
        return False
    ran = subprocess.run([str(exe)], cwd=build, capture_output=True,
                         text=True, timeout=60)
    return ran.returncode == 0 and "TESTBENCH PASSED" in ran.stdout


def _warm_up(ctx) -> None:
    """Pay one-time lazy imports and first-call costs on a tiny design
    so the ladder times steady-state compilation."""
    from repro.service.cache import DesignCache
    from repro.service.engine import BatchEngine
    from repro.service.spec import DesignRequest

    engine = BatchEngine(cache=DesignCache(root=ctx.fresh_dir("warm")))
    for backend in BACKENDS:
        engine.submit(DesignRequest(kernel="gemm", dataflows=("IJ", "KJ"),
                                    array=(2, 2), backend=backend))


def run(ctx, out) -> None:
    out.params["cpu"] = pin_to_one_cpu()
    meter = Meter()
    out.e2e["setup_s"] = (start_up(ctx, meter, IMPORTS)
                          + meter.span(_warm_up, ctx)[1])

    # The rungs run in a fixed order (peak memory depends on it); the
    # seed draws the oracle's input tensors.
    rng = np.random.default_rng(ctx.seed)
    order = [name for name, _ in RUNGS]
    out.params.update(rungs={n: dict(f) for n, f in RUNGS},
                      order=order, backends=list(BACKENDS),
                      gcc_rungs=list(GCC_RUNGS), oracle_seed=ctx.seed)

    tracer = Tracer() if ctx.trace else None
    first_span = len(meter.spans)
    # One ladder fills most of the window; the median of two is steadier.
    # Only the first untraced and the first traced ladder (which always
    # run) keep their results, for the oracles and the fidelity guard:
    # results held across ladders would make peak memory grow with the
    # number of ladders a faster compiler fits in the window.
    plain, traced = measure(ctx.seconds, lambda i: _ladder(
        ctx, meter, order, f"ladder-{i}", keep=i < 2), tracer, minimum=2)
    plain = _summary(order, plain)
    first = plain["results"]

    if ctx.trace:
        traced = _summary(order, traced)
        reps = len(traced["ladders"])
        scale = meter.scale_since(first_span)
        for stem, busy in tracer.busy.items():
            out.layers[f"{stem}.s"] = busy * scale / reps
        out.layers["backend.infer_bitwidths.calls"] = \
            tracer.calls["backend.infer_bitwidths"] / reps
        for name, times in traced["rungs"].items():
            out.layers[f"rung.{name}.s"] = median(times)
        out.trace_overhead(median(plain["ladders"]),
                           median(traced["ladders"]))
        out.missing.extend(tracer.missing)
        # Fidelity guard: tracing must not change what is generated.
        for name in order:
            for backend in BACKENDS:
                a = first[name][backend]
                b = traced["results"][name][backend]
                out.attempted += 1
                if not (a.ok and b.ok and a.design_bytes() == b.design_bytes()
                        and a.artifacts == b.artifacts):
                    out.fail(f"traced {name}/{backend} differs from the "
                             "untraced design")

    out.e2e["wall_s"] = sum(median(t) for t in plain["rungs"].values())
    out.e2e["peak_rss_mb"] = peak_rss_mb()
    _check(ctx, out, order, first, rng)


def _summary(order, runs) -> dict:
    """Per-rung times, ladder totals, and the first ladder's results."""
    return {"rungs": {name: [rung_s[name] for rung_s, _ in runs]
                      for name in order},
            "ladders": [sum(rung_s.values()) for rung_s, _ in runs],
            "results": runs[0][1]}


def _check(ctx, out, order, results, rng) -> None:
    """Outputs against compiler-independent oracles, plus the design
    quality figures (all outside the timed window)."""
    from repro.serialize import design_from_dict
    from repro.sim.energy_model import evaluate_design

    area = bits = cycles = 0.0
    for name in order:
        pair = results[name]
        out.attempted += len(pair)
        for backend, result in pair.items():
            if not result.ok:
                out.fail(f"{name}/{backend}: {result.error}")
        if not all(r.ok for r in pair.values()):
            continue
        verilog, hls = pair["verilog"], pair["hls_c"]
        out.attempted += 1
        if verilog.design_bytes() != hls.design_bytes():
            out.fail(f"{name}: hls_c scheduled a different design")
        design = design_from_dict(verilog.design)
        dag = design.dag
        reg = dag.pipeline_register_bits() + dag.fifo_register_bits()
        area += evaluate_design(design).total_area_mm2
        bits += reg
        out.layers[f"ir.{name}.nodes"] = len(dag.nodes)
        out.layers[f"ir.{name}.edges"] = len(dag.edges)
        out.layers[f"ir.{name}.register_bits"] = reg
        found = re.search(r"'edges_rewired': ([0-9.]+)", verilog.summary)
        out.layers["backend.edges_rewired"] = (
            out.layers.get("backend.edges_rewired", 0)
            + (float(found.group(1)) if found else 0.0))
        out.digests[name] = digest(verilog.design_bytes())
        out.digests[f"{name}.rtl"] = digest(repr(
            sorted(verilog.artifacts.items()) + sorted(hls.artifacts.items())))
        bad, rung_cycles = check_design(verilog.request.kernel, design, rng)
        cycles += rung_cycles
        out.attempted += len(design.configs)
        for dataflow in bad:
            out.fail(f"{name}/{dataflow}: simulated output differs from "
                     "the numpy reference")
        if name in GCC_RUNGS:
            out.attempted += 1
            if not _run_testbench(ctx, name, hls.artifacts):
                out.fail(f"{name}: HLS-C testbench failed under gcc")
    out.layers["area_mm2"] = area
    out.layers["register_bits"] = bits
    out.layers["sim_cycles"] = cycles
