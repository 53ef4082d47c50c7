"""Shared plumbing: run context, statistics, processes, provenance."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pathlib
import platform
import resource
import shutil
import socket
import subprocess
import sys
import tempfile
import time
import urllib.request


@dataclasses.dataclass
class Context:
    """One benchmark run: where the program lives and what to measure."""

    root: pathlib.Path
    workload: str
    seed: int
    seconds: float
    trace: bool
    work: pathlib.Path  # work directory inside the checkout

    @property
    def src(self) -> pathlib.Path:
        return self.root / "src"

    def env(self) -> dict:
        """Environment for child processes: the checkout's sources
        first on the path, temporary files inside the checkout."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(self.src)] + [p for p in env.get("PYTHONPATH", "").split(
                os.pathsep) if p])
        env["TMPDIR"] = str(self.work)
        return env

    def fresh_dir(self, name: str) -> pathlib.Path:
        path = self.work / name
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path


def make_context(root: pathlib.Path, workload: str, seed: int,
                 seconds: float, trace: bool) -> Context:
    work = root / ".perfbench_work" / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    # Everything this process (and gcc, numpy, the pool) writes to a
    # temporary file stays inside the checkout, and so would any design
    # cache opened without an explicit directory.
    os.environ["TMPDIR"] = str(work)
    os.environ["REPRO_CACHE_DIR"] = str(work / "default-cache")
    tempfile.tempdir = str(work)
    return Context(root, workload, seed, seconds, trace, work)


# -- statistics -------------------------------------------------------------

def median(values) -> float:
    values = sorted(values)
    n = len(values)
    if n == 0:
        raise ValueError("median of no values")
    mid = n // 2
    return values[mid] if n % 2 else (values[mid - 1] + values[mid]) / 2


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100)."""
    values = sorted(values)
    if not values:
        raise ValueError("percentile of no values")
    rank = max(1, -(-len(values) * q // 100))
    return values[int(rank) - 1]


def peak_rss_mb() -> float:
    """Largest resident set of this process or any waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def digest(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


# -- host-normalised timing -------------------------------------------------
#
# The benchmark runs on shared machines whose speed drifts by tens of
# percent within seconds (other tenants on the same cores).  Every timed
# span is therefore flanked by a short, fixed, pure-Python calibration
# kernel, and its time is scaled to what the span would have taken on a
# host where the kernel runs in CALIBRATION_S.  The kernel is the
# benchmark's own code, so a change to the program cannot move it.

class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b


def _kernel() -> int:
    counts: dict[int, int] = {}
    acc = 0
    for i in range(12000):
        key = (i * 7919) % 1021
        counts[key] = counts.get(key, 0) + i
        acc += len(str(i))
    pairs = [_Pair(i, -i) for i in range(6000)]
    pairs.sort(key=lambda p: (p.a % 97, p.b))
    acc += sum(p.a for p in pairs[::7])
    return acc + len(json.loads(json.dumps(sorted(counts.items()))))


#: the kernel's time on the reference host (2-core Xeon VM, quiet)
CALIBRATION_S = 0.006


def _kernel_seconds() -> float:
    samples = []
    for _ in range(5):
        t0 = time.perf_counter()
        _kernel()
        samples.append(time.perf_counter() - t0)
    return median(samples)


def host_speed() -> float:
    """Seconds the calibration kernel takes right now (median of 5),
    averaged over the CPUs this process may run on: work spread over
    both cores (a worker pool) is slowed by both cores' neighbours."""
    cpus = os.sched_getaffinity(0)
    if len(cpus) == 1:
        return _kernel_seconds()
    samples = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            samples.append(_kernel_seconds())
    finally:
        os.sched_setaffinity(0, cpus)
    return sum(samples) / len(samples)


class Meter:
    """Times spans of work in reference-host seconds.  Consecutive
    spans share their flanking calibration samples."""

    def __init__(self):
        self.speed = host_speed()
        self.spans: list[tuple[float, float]] = []  # (raw, normalised)

    def span(self, fn, *args):
        """``(fn's result, normalised seconds, scale)``; multiply any
        latency measured inside the span by *scale*."""
        before = self.speed
        t0 = time.perf_counter()
        result = fn(*args)
        raw = time.perf_counter() - t0
        self.speed = host_speed()
        scale = CALIBRATION_S / ((before + self.speed) / 2)
        self.spans.append((raw, raw * scale))
        return result, raw * scale, scale

    def scale_since(self, index: int) -> float:
        """Overall scale of the spans metered since ``len(spans)`` was
        *index*: converts busy seconds measured inside them."""
        raw = sum(r for r, _ in self.spans[index:])
        return sum(n for _, n in self.spans[index:]) / raw if raw else 1.0


def pin_to_one_cpu() -> int | None:
    """Pin this process, and every process it starts from now on, to one
    CPU, so the calibration samples the core the measured work runs on
    (the VM's two cores see different neighbours).  Returns the CPU, or
    None where affinity is unsupported."""
    try:
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


def repeat(window: float, unit, minimum: int = 1) -> list:
    """``[unit(0), unit(1), ...]`` until the measuring *window* is spent:
    another repetition starts only if the median one so far still fits,
    and at least *minimum* always run."""
    end = time.perf_counter() + window
    results, durations = [], []
    while (len(results) < minimum
           or time.perf_counter() + median(durations) <= end):
        t0 = time.perf_counter()
        results.append(unit(len(results)))
        durations.append(time.perf_counter() - t0)
    return results


def measure(window: float, unit, tracer=None, minimum: int = 1):
    """Repetitions of *unit* until *window* is spent, as ``(untraced,
    traced)`` result lists.  With a *tracer* the repetitions alternate,
    the tracer installed around every second one only, so host drift
    hits both sides alike; without one, all are untraced."""
    if tracer is None:
        return repeat(window, unit, minimum), []

    def step(i):
        if i % 2 == 0:
            return unit(i)
        with tracer:
            return unit(i)
    runs = repeat(window, step, 2 * minimum)
    return runs[::2], runs[1::2]


# -- processes --------------------------------------------------------------

def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def spawn(ctx: Context, args: list[str], log_name: str
          ) -> subprocess.Popen:
    """Start ``python3 -m repro <args>`` from the checkout; output goes
    to a log file in the work directory."""
    log = open(ctx.work / log_name, "ab")
    try:
        return subprocess.Popen([sys.executable, "-m", "repro", *args],
                                cwd=ctx.root, env=ctx.env(), stdout=log,
                                stderr=subprocess.STDOUT)
    finally:
        log.close()


def stop(proc: subprocess.Popen | None, timeout: float = 10.0) -> None:
    """Terminate *proc* and wait for it; kill if it lingers."""
    if proc is None or proc.poll() is not None:
        if proc is not None:
            proc.wait()
        return
    proc.terminate()
    try:
        proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


def get_json(url: str, timeout: float = 10.0) -> dict:
    with urllib.request.urlopen(url, timeout=timeout) as resp:
        return json.loads(resp.read())


def wait_healthy(url: str, proc: subprocess.Popen,
                 timeout: float = 60.0) -> None:
    """Poll ``<url>/healthz`` until it answers 200."""
    end = time.monotonic() + timeout
    while time.monotonic() < end:
        if proc.poll() is not None:
            raise RuntimeError(f"{url}: process exited with "
                               f"{proc.returncode} before becoming healthy")
        try:
            get_json(url + "/healthz", timeout=2.0)
            return
        except OSError:
            time.sleep(0.02)
    raise RuntimeError(f"{url}: not healthy after {timeout:.0f} s")


def start_up(ctx: Context, meter: Meter, modules: list[str],
             code: str = "") -> float:
    """Median seconds, over three tries, for a fresh interpreter to
    import *modules* and run *code* — the start-up every process that
    uses these layers pays."""
    script = "".join(f"import {m}\n" for m in modules) + code

    def probe():
        subprocess.run([sys.executable, "-c", script], cwd=ctx.root,
                       env=ctx.env(), check=True, stdout=subprocess.DEVNULL)
    return median([meter.span(probe)[1] for _ in range(3)])


# -- provenance -------------------------------------------------------------

def provenance(ctx: Context, params: dict) -> dict:
    """Where a result came from: code version, host, toolchain, inputs."""
    import numpy
    import scipy

    try:
        # The ceiling keeps git from reporting an enclosing repository
        # when the checkout is not one itself.
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ctx.root.parent))
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ctx.root,
                             capture_output=True, text=True, env=env,
                             timeout=10).stdout.strip() or None
    except OSError:
        sha = None
    return {"git_sha": sha, "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "platform": platform.platform(), "workload": ctx.workload,
            "seed": ctx.seed, "seconds": ctx.seconds,
            "trace": int(ctx.trace), "params": params}


# -- results ----------------------------------------------------------------

@dataclasses.dataclass
class Outcome:
    """What a workload reports: operations attempted and failed (a wrong
    output is a failed operation), end-to-end metrics, per-layer
    metrics (traced runs), the generated parameters, and digests of
    what was generated."""

    attempted: int = 0
    failed: int = 0
    e2e: dict = dataclasses.field(default_factory=dict)
    layers: dict = dataclasses.field(default_factory=dict)
    params: dict = dataclasses.field(default_factory=dict)
    digests: dict = dataclasses.field(default_factory=dict)
    missing: list = dataclasses.field(default_factory=list)
    errors: list = dataclasses.field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)

    def trace_overhead(self, untraced_s: float, traced_s: float) -> None:
        """Tracing cost of one repetition, as a share of the untraced
        time in percent."""
        self.layers["trace.overhead_pct"] = \
            (traced_s - untraced_s) / untraced_s * 100.0
