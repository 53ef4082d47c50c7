"""Run one benchmark workload (or all of them) against the checkout in
the current directory.

    python3 perfbench/run.py --workload cold-ladder --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

With ``--trace 0`` the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` whose metrics are the
end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` they are
its per-layer metrics, measured by a separate traced pass.  Lines
before it carry the provenance record, the generated parameters, the
design digests and any failures.  ``--workload all`` runs every
workload in its own fresh process and prints a table.
"""

from __future__ import annotations

import argparse
import importlib
import json
import pathlib
import shutil
import subprocess
import sys

WORKLOADS = {"cold-ladder": "cold_ladder", "warm-serve": "warm_serve",
             "batch-sweep": "batch_sweep", "dse-explore": "dse_explore"}


def run_one(root: pathlib.Path, args) -> int:
    from common import Outcome, make_context, provenance

    spec = json.loads((root / "BENCHMARK.json").read_text())
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to benchmark: {root / 'src' / 'repro'} is "
              "missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    ctx = make_context(root, args.workload, args.seed, args.seconds,
                       bool(args.trace))
    out = Outcome()
    try:
        module = importlib.import_module(WORKLOADS[args.workload])
        module.run(ctx, out)
    finally:
        shutil.rmtree(ctx.work, ignore_errors=True)
        try:
            ctx.work.parent.rmdir()
        except OSError:
            pass

    if ctx.trace:
        out.layers["trace.missing_targets"] = len(out.missing)
    declared = spec["per_layer"] if ctx.trace else spec["end_to_end"]
    source = out.layers if ctx.trace else out.e2e
    # A workload whose every operation failed may have nothing to
    # measure; its metrics then read 0 and the result is not correct.
    if not ctx.trace and out.failed == 0:
        absent = [m["name"] for m in declared if m["name"] not in source]
        if absent:
            raise RuntimeError(f"workload reported no {absent}")
    metrics = {m["name"]: {"value": float(source.get(m["name"], 0.0)),
                           "unit": m["unit"]} for m in declared}
    print("provenance: " + json.dumps(provenance(ctx, out.params)))
    if out.digests:
        print("digests: " + json.dumps(out.digests, sort_keys=True))
    if ctx.trace:
        print("trace: missing layer targets: " + json.dumps(out.missing))
    for message in out.errors:
        print("FAILED: " + message)
    if not ctx.trace:
        print("detail: " + json.dumps(dict(sorted(out.layers.items()))))
    print(json.dumps({"correct": out.failed == 0,
                      "attempted": out.attempted, "failed": out.failed,
                      "metrics": metrics}))
    return 0


def run_all(root: pathlib.Path, args) -> int:
    """Each workload in a fresh process; one table of every metric."""
    ok = True
    for name in WORKLOADS:
        cmd = [sys.executable, str(pathlib.Path(__file__)), "--workload",
               name, "--seed", str(args.seed), "--seconds",
               str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}")
            ok = False
            continue
        result = json.loads(lines[-1])
        share = result["failed"] / result["attempted"]
        ok = ok and result["correct"]
        print(f"{name}: correct={result['correct']} attempted="
              f"{result['attempted']} failed={result['failed']} "
              f"({share:.1%})")
        for metric, cell in result["metrics"].items():
            print(f"  {metric:36s} {cell['value']:14.6g} {cell['unit']}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = pathlib.Path.cwd()
    if args.workload == "all":
        return run_all(root, args)
    return run_one(root, args)


if __name__ == "__main__":
    sys.exit(main())
