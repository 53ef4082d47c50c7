"""dse-explore: exhaustive design-space exploration into an empty cache.

``run_search`` over the default ``DesignSpace`` for ResNet50, BERT,
MobileNetV2 and GPT2 with one worker, then a replay of the same search
against the filled cache (timed separately, not part of the end-to-end
figures).  This measures the dse, perf-model and mapping layers behind
the paper's Fig. 11 / Table II numbers.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from common import (Meter, digest, measure, median, peak_rss_mb,
                    pin_to_one_cpu, start_up)
from tracer import Tracer

MODELS = ("ResNet50", "BERT", "MobileNetV2", "GPT2")
IMPORTS = ["repro.dse.strategies", "repro.models.zoo",
           "repro.service.cache"]
BUILD = ("from repro.models import zoo\n"
         f"[zoo.MODEL_BUILDERS[m]() for m in {MODELS!r}]\n")


def _ranking(result) -> str | None:
    """Digest of the ranked design points; None when there are none."""
    points = [(p.arch.name, p.cycles, p.energy_pj) for p in result.points]
    return digest(repr(points)) if points else None


def _search(ctx, meter, models, space, tag: str, keep: bool) -> dict:
    """One search and its cache replay, reduced to figures; the search
    result itself only if *keep* (results held across repetitions would
    make peak memory grow with the repetitions that fit the window)."""
    from repro.dse.strategies import run_search
    from repro.service.cache import DesignCache

    cache = DesignCache(root=ctx.fresh_dir(tag))

    def search():
        return run_search(models, space, strategy="exhaustive", workers=1,
                          cache=cache)
    result, wall, _ = meter.span(search)
    hits = cache.stats.hits
    replay, replay_s, _ = meter.span(search)
    return {"wall": wall, "replay": replay_s,
            "rankings": (_ranking(result), _ranking(replay)),
            "result": result if keep else None,
            "eval_hits": cache.stats.hits - hits}


def run(ctx, out) -> None:
    from repro.dse.explorer import DesignSpace
    from repro.models import zoo

    out.params["cpu"] = pin_to_one_cpu()
    meter = Meter()
    out.e2e["setup_s"] = start_up(ctx, meter, IMPORTS, BUILD)
    models = [zoo.MODEL_BUILDERS[m]() for m in MODELS]

    # The seed permutes the order of every axis: the same space visited
    # in another order must give the same answer.
    rng = np.random.default_rng(ctx.seed)
    base = DesignSpace()
    axes = {f.name: tuple(getattr(base, f.name)[i] for i in
                          rng.permutation(len(getattr(base, f.name))))
            for f in dataclasses.fields(base) if f.name != "freq_mhz"}
    space = dataclasses.replace(base, **axes)
    out.params.update(models=list(MODELS), strategy="exhaustive",
                      workers=1, space={k: [list(v) if isinstance(v, tuple)
                                            else v for v in vals]
                                        for k, vals in axes.items()})

    tracer = Tracer() if ctx.trace else None
    first_span = len(meter.spans)
    plain, traced = measure(ctx.seconds, lambda i: _search(
        ctx, meter, models, space, f"search-{i}", keep=i == 0), tracer,
        minimum=3)
    if ctx.trace:
        reps = len(traced)
        scale = meter.scale_since(first_span)
        for stem in ("perf_model.evaluate_model", "mapper.evaluate_layer"):
            out.layers[f"{stem}.s"] = tracer.busy[stem] * scale / reps
            out.layers[f"{stem}.calls"] = tracer.calls[stem] / reps
        out.missing.extend(tracer.missing)
        out.trace_overhead(median(r["wall"] for r in plain),
                           median(r["wall"] for r in traced))
        first = plain[0]
        out.layers.update({
            "dse.points_evaluated": first["result"].points_evaluated,
            "dse.evals_used": first["result"].evals_used,
            "dse.replay_s": median(r["replay"] for r in plain),
            "cache.eval_hits": first["eval_hits"]})

    walls = [r["wall"] for r in plain]
    out.e2e["wall_s"] = median(walls)
    out.e2e["peak_rss_mb"] = peak_rss_mb()

    # Every search, traced or not and replayed or not, must rank the
    # same points identically.
    reference = plain[0]["rankings"][0]
    for r in plain + traced:
        for ranking in r["rankings"]:
            out.attempted += 1
            if ranking is None or ranking != reference:
                out.fail("a search ranked the design points differently")
    best = plain[0]["result"].best
    out.layers["best_edp"] = best.edp if best else 0.0
    out.params["best"] = best.arch.name if best else None
