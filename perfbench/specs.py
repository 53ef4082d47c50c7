"""Seeded request streams over a fixed pool of small designs."""

from __future__ import annotations

import numpy as np

#: kernel -> dataflow sets (fused sets joined by "+")
DATAFLOWS = {
    "gemm": ("IJ", "IK", "KJ", "IJ+KJ", "IK+KJ"),
    "conv2d": ("ICOC", "OHOW", "OCOH", "KHOH", "ICOC+OHOW"),
    "mttkrp": ("IJ", "KJ", "IJ+KJ"),
}
BACKENDS = ("verilog", "hls_c")
#: skew of every request stream's popularity ranking
EXPONENT = 1.1


def design_pool(arrays) -> list[dict]:
    """Scheduling-distinct small designs: every kernel x dataflow set x
    array shape, systolic and broadcast where the kernel has both."""
    pool = []
    for kernel, sets in DATAFLOWS.items():
        for dataflows in sets:
            for array in arrays:
                for systolic in ((True,) if kernel == "conv2d"
                                 else (True, False)):
                    pool.append(dict(kernel=kernel,
                                     dataflows=tuple(dataflows.split("+")),
                                     array=tuple(array), systolic=systolic))
    return pool


def requests(pool: list[dict]):
    """One ``DesignRequest`` per design x backend family."""
    from repro.service.spec import DesignRequest

    return [DesignRequest(backend=backend, **fields)
            for fields in pool for backend in BACKENDS]


def zipf_stream(n_items: int, n_draws: int,
                rng: np.random.Generator) -> list[int]:
    """*n_draws* item indices, Zipf-skewed over a seeded popularity
    ranking of the *n_items* items."""
    ranking = rng.permutation(n_items)
    weights = 1.0 / np.arange(1, n_items + 1) ** EXPONENT
    draws = rng.choice(n_items, size=n_draws, p=weights / weights.sum())
    return [int(ranking[d]) for d in draws]
