"""Per-layer timing from outside the program.

:class:`Tracer` replaces named module or class attributes with timing
wrappers for the duration of a ``with`` block and restores them on
exit.  The program's source is never touched: a layer is addressed as
``"module:attr"`` or ``"module:Class.attr"``, exactly where the program
looks it up at call time.  A target that no longer resolves (a moved
or renamed pass) is recorded in :attr:`Tracer.missing` and skipped, so
a traced run reports it by name instead of failing.

Wrappers measure inclusive wall time with ``perf_counter`` and count
calls.  They are meant for code driven from one thread of the
benchmark process; work a forked pool worker does is not seen.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

#: (metric stem, target, optional splitter).  A splitter maps the call's
#: ``(args, kwargs)`` to a suffix; the time is then also booked under
#: ``<stem>.<suffix>``.
LAYERS = (
    ("frontend.build_adg", "repro.core.frontend:build_adg", None),
    ("backend.generate", "repro.backend:generate", None),
    ("backend.infer_bitwidths", "repro.backend.passes:infer_bitwidths",
     None),
    ("backend.reduction", "repro.backend.passes:extract_reduction_trees",
     None),
    ("backend.rewire_lp", "repro.backend.rewiring:delay_match",
     lambda args, kwargs: ("stage1" if kwargs.get("broadcast_virtual_cost")
                           else "stage3")),
    ("backend.rewire_prim", "repro.backend.rewiring:rewire_broadcasts",
     None),
    ("backend.pin_reuse", "repro.backend.passes:reuse_pins", None),
    ("backend.power_gate", "repro.backend.passes:power_gate", None),
    ("serialize.design_to_dict", "repro.serialize:design_to_dict", None),
    ("emit.verilog", "repro.backend.verilog:emit_verilog", None),
    ("emit.hls_c", "repro.backends.hls_c:emit_hls_c", None),
    ("emit.hls_c", "repro.backends.hls_c:emit_hls_testbench", None),
    ("sim.golden_vectors", "repro.sim.dag_sim:golden_vectors", None),
    ("cache.put", "repro.service.cache:DesignCache.put", None),
    ("cache.get", "repro.service.cache:DesignCache.get", None),
    ("spec.spec_hash", "repro.service.spec:DesignRequest.spec_hash", None),
    ("result.from_record", "repro.service.spec:DesignResult.from_record",
     None),
    ("planner.plan", "repro.service.engine:BatchEngine._group_by_design",
     None),
    ("perf_model.evaluate_model", "repro.sim.perf_model:evaluate_model",
     None),
    ("mapper.evaluate_layer", "repro.sim.perf_model:evaluate_layer", None),
)


def _resolve(target: str):
    """``(owner, attribute name, raw attribute)`` of *target*; raises
    ``ImportError``/``AttributeError`` when it no longer resolves."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    if not isinstance(owner, type):
        return owner, attr, getattr(owner, attr)
    # The class's own entry: a classmethod must be rewrapped as one.
    if attr not in owner.__dict__:
        raise AttributeError(f"{target} is not defined on its class")
    return owner, attr, owner.__dict__[attr]


class Tracer:
    """Accumulates busy seconds and call counts per layer stem."""

    def __init__(self):
        self.busy: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []
        self._saved: list[tuple[object, str, object]] = []

    def _timed(self, stem: str, fn, split):
        busy, calls = self.busy, self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                busy[stem] += dt
                calls[stem] += 1
                if split is not None:
                    sub = f"{stem}.{split(args, kwargs)}"
                    busy[sub] += dt
                    calls[sub] += 1
        return wrapper

    def install(self) -> None:
        for stem, target, split in LAYERS:
            try:
                owner, attr, raw = _resolve(target)
            except (ImportError, AttributeError):
                self.missing.append(f"{stem} ({target})")
                continue
            if isinstance(raw, classmethod):
                new = classmethod(self._timed(stem, raw.__func__, split))
            elif isinstance(raw, staticmethod):
                new = staticmethod(self._timed(stem, raw.__func__, split))
            else:
                new = self._timed(stem, raw, split)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()
