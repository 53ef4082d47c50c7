"""warm-serve: warm hits in-process, over HTTP, and through the router.

A ``repro serve`` process and a ``repro route`` process in front of it
share one cache that set-up fills with 168 small specs (84 designs x
{verilog, hls_c}) — more than the 128-entry memory LRU, so the disk
tier serves the tail.  Each round is a closed loop: an in-process
``BatchEngine.submit`` block, then 2 client threads (one persistent
connection each) sending seeded Zipf-skewed ``/generate`` requests
directly to the server, then the same through the router.  No pass
runs here, so a compiler change must not move this workload.
"""

from __future__ import annotations

import http.client
import json
import threading
import time

import numpy as np

from common import (Meter, digest, free_port, get_json,
                    host_speed, median, peak_rss_mb, percentile,
                    measure, pin_to_one_cpu, spawn, stop, wait_healthy)
from specs import EXPONENT, design_pool, requests, zipf_stream
from tracer import Tracer

ARRAYS = ((2, 2), (4, 4), (2, 4), (4, 2))
CLIENTS = 2
N_INPROC = 500        # in-process submits per round
N_HTTP = 100          # requests per client per block
N_PROFILE = 400       # requests per client per profiler-overhead block


class Fleet:
    """One server and one router on free loopback ports."""

    def __init__(self, ctx, cache_dir, profile: bool = False,
                 router: bool = True):
        self.procs = []
        self.port = free_port()
        self.url = f"http://127.0.0.1:{self.port}"
        args = ["serve", "--port", str(self.port), "--cache-dir",
                str(cache_dir), "--no-persist-jobs"]
        self.procs.append(spawn(ctx, args + (["--profile"] if profile
                                             else []), "server.log"))
        self.route_port = self.route_url = None
        if router:
            self.route_port = free_port()
            self.route_url = f"http://127.0.0.1:{self.route_port}"
            self.procs.append(spawn(ctx, ["route", "--backend", self.url,
                                          "--port", str(self.route_port)],
                                    "router.log"))

    def wait(self) -> None:
        wait_healthy(self.url, self.procs[0])
        if self.route_url:
            wait_healthy(self.route_url, self.procs[1])

    def close(self) -> None:
        for proc in self.procs:
            stop(proc)


def _boot(ctx, cache_dir) -> Fleet:
    fleet = Fleet(ctx, cache_dir)
    try:
        fleet.wait()
    except BaseException:
        fleet.close()
        raise
    return fleet


class Checker:
    """Each response must be ok, served from cache, and carry the spec
    hash and design summary the warm-up produced."""

    def __init__(self, specs, expected: dict[str, str]):
        self.keys = [s.spec_hash() for s in specs]
        self.expected = expected
        self.lock = threading.Lock()
        self.attempted = self.failed = 0
        self.errors: list[str] = []

    def check(self, idx: int, status: int, payload: dict | None) -> None:
        key = self.keys[idx]
        good = (status == 200 and payload is not None
                and payload.get("ok") and payload.get("from_cache")
                and payload.get("spec_hash") == key
                and digest(payload.get("summary", "")) == self.expected[key])
        with self.lock:
            self.attempted += 1
            if not good:
                self.failed += 1
                if len(self.errors) < 5:
                    self.errors.append(f"spec {key[:12]}: status {status}")


def _client(port: int, indices, bodies, checker: Checker,
            latency: list[float]) -> None:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    headers = {"Content-Type": "application/json"}
    try:
        for idx in indices:
            t0 = time.perf_counter()
            conn.request("POST", "/generate", body=bodies[idx],
                         headers=headers)
            resp = conn.getresponse()
            data = resp.read()
            latency.append(time.perf_counter() - t0)
            try:
                payload = json.loads(data)
            except ValueError:
                payload = None
            checker.check(idx, resp.status, payload)
    finally:
        conn.close()


def _http_block(port: int, streams, bodies, checker) -> list[float]:
    """One closed-loop block: a thread per client stream."""
    lats = [[] for _ in streams]
    threads = [threading.Thread(target=_client,
                                args=(port, s, bodies, checker, lat))
               for s, lat in zip(streams, lats)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return [x for lat in lats for x in lat]


def _inproc_block(engine, specs, stream, checker) -> list[float]:
    latency = []
    for idx in stream:
        t0 = time.perf_counter()
        result = engine.submit(specs[idx])
        latency.append(time.perf_counter() - t0)
        checker.check(idx, 200 if result.ok else 500,
                      {"ok": result.ok, "from_cache": result.from_cache,
                       "spec_hash": result.spec_hash,
                       "summary": result.summary})
    return latency


def _round(meter, fleet, engine, specs, bodies, rng, checker) -> dict:
    """One in-process, one direct and one routed block, each a metered
    span; latencies in normalised seconds."""
    n = len(specs)
    stream = zipf_stream(n, N_INPROC, rng)
    latency, wall, scale = meter.span(_inproc_block, engine, specs, stream,
                                      checker)
    out = {"inproc": [x * scale for x in latency]}
    for name, port in (("direct", fleet.port), ("routed", fleet.route_port)):
        streams = [zipf_stream(n, N_HTTP, rng) for _ in range(CLIENTS)]
        latency, dt, scale = meter.span(_http_block, port, streams, bodies,
                                        checker)
        out[name] = [x * scale for x in latency]
        wall += dt
    out["wall"] = wall
    return out


def _merge(rounds) -> dict:
    """Per-round results -> pooled latencies plus round walls."""
    merged = {key: [x for r in rounds for x in r[key]]
              for key in ("inproc", "direct", "routed")}
    merged["walls"] = [r["wall"] for r in rounds]
    return merged


def _figures(url: str) -> dict[str, float]:
    """Cumulative counters read from ``<url>/metrics?format=json``."""
    from repro.obs.history import histogram_totals, snapshot_children

    snapshot = get_json(url + "/metrics?format=json")
    totals = histogram_totals(snapshot, "repro_http_request_seconds",
                              route="/generate")
    _, _, gen_sum, gen_count = totals or (None, None, 0.0, 0.0)
    paths = {labels.get("path"): value for labels, value in
             snapshot_children(snapshot, "repro_generate_path_total")}
    return {"gen_sum": gen_sum, "gen_count": gen_count,
            "event_loop": paths.get("event_loop", 0.0),
            "executor": paths.get("executor", 0.0),
            "retries": sum(v for _, v in snapshot_children(
                snapshot, "repro_router_retries_total"))}


def _server_layers(out, fleet, run) -> dict:
    """Wrap *run* with snapshots of the server's and router's own
    metrics and book the deltas as per-layer metrics."""
    s0, r0 = _figures(fleet.url), _figures(fleet.route_url)
    h0 = get_json(fleet.url + "/healthz")["cache"]
    result = run()
    s1, r1 = _figures(fleet.url), _figures(fleet.route_url)
    h1 = get_json(fleet.url + "/healthz")["cache"]
    s = {k: s1[k] - s0[k] for k in s1}
    r = {k: r1[k] - r0[k] for k in r1}

    server_ms = s["gen_sum"] / max(s["gen_count"], 1) * 1e3
    # The router's snapshot folds its backends' registries into its
    # own; subtracting the server's leaves the router's handler alone.
    r_count = r["gen_count"] - s["gen_count"]
    router_ms = (r["gen_sum"] - s["gen_sum"]) / max(r_count, 1) * 1e3
    memory = h1["memory_hits"] - h0["memory_hits"]
    hits = h1["hits"] - h0["hits"]
    lookups = hits + h1["misses"] - h0["misses"]
    out.layers.update({
        "server.generate.mean_ms": server_ms,
        "router.hop_ms": router_ms - server_ms,
        "router.retries": r["retries"],
        "server.event_loop_share": s["event_loop"] / max(
            s["event_loop"] + s["executor"], 1),
        "cache.memory_hits": memory,
        "cache.disk_hits": hits - memory,
        "cache.hit_rate": hits / max(lookups, 1),
    })
    return result


def _profiler_overhead(ctx, meter, cache_dir, specs, bodies, rng,
                       checker) -> float:
    """Direct-path throughput of two fresh servers on the same cache,
    one running ``--profile``, in alternating blocks; the overhead is
    the rate lost, in percent."""
    servers = {False: Fleet(ctx, cache_dir, router=False),
               True: Fleet(ctx, cache_dir, profile=True, router=False)}
    try:
        n = len(specs)
        for server in servers.values():
            server.wait()
            _http_block(server.port, [list(range(n))], bodies, checker)
        rates = {False: [], True: []}
        for on in (False, True) * 5:
            streams = [zipf_stream(n, N_PROFILE, rng) for _ in range(CLIENTS)]
            _, dt, _ = meter.span(_http_block, servers[on].port, streams,
                                  bodies, checker)
            rates[on].append(CLIENTS * N_PROFILE / dt)
        return (median(rates[False]) / median(rates[True]) - 1.0) * 100.0
    finally:
        for server in servers.values():
            server.close()


def run(ctx, out) -> None:
    from repro.service.cache import DesignCache
    from repro.service.engine import BatchEngine

    meter = Meter()
    rng = np.random.default_rng(ctx.seed)
    specs = requests(design_pool(ARRAYS))
    bodies = [json.dumps(s.to_dict()).encode() for s in specs]
    out.params.update(arrays=[list(a) for a in ARRAYS], n_specs=len(specs),
                      clients=CLIENTS, inproc_per_round=N_INPROC,
                      http_per_client_block=N_HTTP, exponent=EXPONENT,
                      memory_lru=DesignCache().memory_entries)

    # Fill the shared cache (the data the fleet serves).
    cache_dir = ctx.fresh_dir("cache")
    warmed, out.layers["setup.warm_s"], _ = meter.span(
        BatchEngine(cache=DesignCache(root=cache_dir), workers=2)
        .generate_many, specs)
    # A spec that fails to warm is a failed operation; the rounds serve
    # the specs that warmed.
    expected, kept = {}, []
    for idx, result in enumerate(warmed):
        out.attempted += 1
        if result.ok:
            expected[result.spec_hash] = digest(result.summary)
            kept.append(idx)
        else:
            out.fail(f"warm-up {result.spec_hash[:12]}: {result.error}")
    if not kept:
        return
    specs = [specs[i] for i in kept]
    bodies = [bodies[i] for i in kept]
    checker = Checker(specs, expected)

    # Set-up: fresh server + router processes until both are healthy,
    # three times; the last fleet serves the measurement.  Client,
    # server and router share one CPU with the calibration kernel.
    out.params["cpu"] = pin_to_one_cpu()
    meter.speed = host_speed()
    boots, fleet = [], None
    try:
        for _ in range(3):
            if fleet is not None:
                fleet.close()
            fleet, dt, _ = meter.span(_boot, ctx, cache_dir)
            boots.append(dt)
        out.e2e["setup_s"] = median(boots)

        engine = BatchEngine(cache=DesignCache(root=cache_dir))
        everything = list(range(len(specs)))
        _inproc_block(engine, specs, everything, checker)  # fill the LRUs
        _http_block(fleet.port, [everything], bodies, checker)

        tracer = Tracer() if ctx.trace else None
        first_span = len(meter.spans)

        def rounds():
            return measure(ctx.seconds, lambda i: _round(
                meter, fleet, engine, specs, bodies, rng, checker), tracer,
                minimum=2)
        plain, traced = (_server_layers(out, fleet, rounds) if ctx.trace
                         else rounds())
        plain = _merge(plain)
        if ctx.trace:
            traced = _merge(traced)
            scale = meter.scale_since(first_span)
            for stem in ("spec.spec_hash", "cache.get", "result.from_record"):
                out.layers[f"{stem}.us"] = (tracer.busy[stem] * scale * 1e6
                                            / max(tracer.calls[stem], 1))
            out.missing.extend(tracer.missing)
            out.trace_overhead(median(plain["walls"]),
                               median(traced["walls"]))
            out.layers["obs.profiler_overhead"] = _profiler_overhead(
                ctx, meter, cache_dir, specs, bodies, rng, checker)
    finally:
        if fleet is not None:
            fleet.close()

    out.e2e["wall_s"] = median(plain["walls"])
    out.layers["warm_p50_ms"] = median(plain["direct"]) * 1e3
    out.layers["warm_p99_ms"] = percentile(plain["direct"], 99) * 1e3
    out.e2e["peak_rss_mb"] = peak_rss_mb()
    out.layers["warm_inproc_us"] = median(plain["inproc"]) * 1e6
    out.layers["routed_p50_ms"] = median(plain["routed"]) * 1e3
    out.layers["routed_p99_ms"] = percentile(plain["routed"], 99) * 1e3
    out.attempted += checker.attempted
    out.failed += checker.failed
    out.errors.extend(checker.errors)
    out.digests["warm_set"] = digest(repr(sorted(expected.items())))
