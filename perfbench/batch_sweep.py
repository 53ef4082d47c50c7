"""batch-sweep: one planned 1000-request batch into an empty cache.

``BatchEngine.generate_many(workers=2)`` over every spec of a fixed
pool (63 scheduling-distinct small designs x {verilog, hls_c}) plus
Zipf-skewed duplicates, in seeded order.  This exercises per-design
fixed costs — planner, pool IPC, serialization, emission, cache writes
— more than pass asymptotics, and is the write side of the cache.
"""

from __future__ import annotations

import numpy as np

from common import Meter, digest, measure, median, peak_rss_mb, start_up
from specs import EXPONENT, design_pool, requests, zipf_stream
from tracer import Tracer

ARRAYS = ((2, 2), (4, 4), (2, 4))
N_REQUESTS = 1000
WORKERS = 2
IMPORTS = ["repro.service.engine", "repro.backends"]
PHASES = ("adg", "schedule", "emit", "design_load", "flight_wait")


def _batch(ctx, meter, stream, out, tag: str) -> dict:
    """One ``generate_many`` call into a fresh cache, checked and then
    reduced to the figures the report needs (results are dropped, so
    peak memory does not grow with the number of batches)."""
    from repro.service.cache import DesignCache
    from repro.service.engine import BatchEngine

    root = ctx.fresh_dir(tag)
    engine = BatchEngine(cache=DesignCache(root=root), workers=WORKERS)
    results, wall, scale = meter.span(engine.generate_many, stream)
    # Duplicates carry their leader's phases dict: count each spec once.
    unique = {r.spec_hash: r.phases for r in results}
    phases = {p: scale * sum(ph.get(p, 0.0) for ph in unique.values())
              for p in PHASES}
    stats = engine.cache.stats
    return {"wall": wall, "phases": phases,
            "fingerprint": _check(out, results),
            "counters": {"cache.puts": stats.puts,
                         "cache.phase_hits": stats.phase_hits,
                         "cache.phase_misses": stats.phase_misses,
                         "cache.disk_bytes": sum(
                             p.stat().st_size for p in root.rglob("*.json"))}}


def _check(out, results) -> str:
    """Every request succeeds; duplicates are byte-identical to their
    leader; backend variants share their leader's scheduled design.
    Returns a fingerprint of everything generated."""
    by_hash, by_design, bodies = {}, {}, {}
    for res in results:
        out.attempted += 1
        if not res.ok:
            out.fail(f"{res.request.kernel} {res.request.array}: "
                     f"{res.error}")
            continue
        if id(res) not in bodies:  # duplicates may share one object
            bodies[id(res)] = (res.design_bytes(),
                               tuple(sorted(res.artifacts.items())))
        body = bodies[id(res)]
        if by_hash.setdefault(res.spec_hash, body) != body:
            out.fail(f"duplicate {res.spec_hash[:12]} differs from its "
                     "leader")
        if by_design.setdefault(res.request.design_key(), body[0]) \
                != body[0]:
            out.fail(f"variant {res.spec_hash[:12]} scheduled a "
                     "different design")
    return digest(repr(sorted((h, digest(b[0]), digest(repr(b[1])))
                              for h, b in by_hash.items())))


def run(ctx, out) -> None:
    from repro.service.cache import DesignCache
    from repro.service.engine import BatchEngine

    meter = Meter()
    out.e2e["setup_s"] = start_up(ctx, meter, IMPORTS)

    rng = np.random.default_rng(ctx.seed)
    specs = requests(design_pool(ARRAYS))
    extra = zipf_stream(len(specs), N_REQUESTS - len(specs), rng)
    order = list(range(len(specs))) + extra
    rng.shuffle(order)
    stream = [specs[i] for i in order]
    out.params.update(arrays=[list(a) for a in ARRAYS],
                      n_requests=len(stream), n_specs=len(specs),
                      workers=WORKERS, exponent=EXPONENT,
                      stream_digest=digest(",".join(map(str, order))))

    plan = BatchEngine(cache=DesignCache(root=ctx.fresh_dir("plan"))
                       ).plan(stream)
    out.layers.update({"planner.schedules": plan.n_schedules,
                       "planner.variants": plan.n_variants,
                       "planner.duplicates": plan.n_duplicates})

    tracer = Tracer() if ctx.trace else None
    first_span = len(meter.spans)
    plain, traced = measure(ctx.seconds, lambda i: _batch(
        ctx, meter, stream, out, f"batch-{i}"), tracer, minimum=2)
    if ctx.trace:
        out.layers["planner.plan.s"] = (tracer.busy["planner.plan"]
                                        * meter.scale_since(first_span)
                                        / len(traced))
        out.missing.extend(tracer.missing)
        out.trace_overhead(median(r["wall"] for r in plain),
                           median(r["wall"] for r in traced))
        for p in PHASES:
            out.layers[f"phase.{p}.s"] = median(r["phases"][p]
                                                for r in plain)
        out.layers.update(plain[0]["counters"])

    out.e2e["wall_s"] = median(r["wall"] for r in plain)
    out.e2e["peak_rss_mb"] = peak_rss_mb()
    fingerprints = {r["fingerprint"] for r in plain + traced}
    out.attempted += 1
    if len(fingerprints) != 1:
        out.fail("batches generated different bytes")
    out.digests["batch"] = sorted(fingerprints)[0]
