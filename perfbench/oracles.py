"""Compiler-independent output references.

Each generated design is simulated on seeded random inputs and its
outputs are compared with a numpy reference written here from the
kernel's mathematical definition (the same references
``tests/test_integration.py`` uses), never with anything the compiler
produced.
"""

from __future__ import annotations

import numpy as np


def conv_ref(x: np.ndarray, w: np.ndarray, oh: int, ow: int) -> np.ndarray:
    """Unit-stride conv with ih = oh + kh - 1 and index -1 reading zero
    (one implicit top/left padding row and column)."""
    n, ic, ih, iw = x.shape
    oc, _, kh_n, kw_n = w.shape
    xp = np.zeros((n, ic, ih + 1, iw + 1), dtype=np.int64)
    xp[:, :, 1:, 1:] = x
    y = np.zeros((n, oc, oh, ow), dtype=np.int64)
    for kh in range(kh_n):
        for kw in range(kw_n):
            y += np.einsum("nchw,oc->nohw",
                           xp[:, :, kh:kh + oh, kw:kw + ow],
                           w[:, :, kh, kw])
    return y


#: kernel -> input tensor names (inputs the reference consumes)
INPUTS = {"gemm": ("X", "W"), "mttkrp": ("A", "B", "C"),
          "conv2d": ("X", "W")}


def input_names(kernel: str, dataflow: str) -> tuple[str, ...]:
    if kernel == "attention":
        return ("Q", "K") if dataflow.endswith("QK") else ("P", "V")
    return INPUTS[kernel]


def reference(kernel: str, tensors: dict[str, np.ndarray],
              out_shape: tuple[int, ...]) -> tuple[str, np.ndarray]:
    """``(output tensor name, expected value)`` for *kernel* on
    *tensors*."""
    t = tensors
    if kernel == "gemm":
        return "Y", t["X"] @ t["W"]
    if kernel == "mttkrp":
        return "Y", np.einsum("ikl,kj,lj->ij", t["A"], t["B"], t["C"])
    if kernel == "attention" and "Q" in t:
        return "S", np.einsum("hqd,hkd->hqk", t["Q"], t["K"])
    if kernel == "attention":
        return "O", np.einsum("hqk,hkd->hqd", t["P"], t["V"])
    if kernel == "conv2d":
        return "Y", conv_ref(tensors["X"], tensors["W"],
                             out_shape[2], out_shape[3])
    raise ValueError(f"no reference for kernel {kernel!r}")


def check_design(kernel: str, design, rng: np.random.Generator
                 ) -> tuple[list[str], int]:
    """Simulate every dataflow of *design* on inputs drawn from *rng*
    and compare with the numpy reference.  Returns ``(mismatching
    dataflows, summed cycles)``."""
    from repro.sim.dag_sim import Simulator, make_input

    bad, cycles = [], 0
    for dataflow in sorted(design.configs):
        tensors = {name: make_input(design, dataflow, name, rng)
                   for name in input_names(kernel, dataflow)}
        result = Simulator(design, dataflow).run(tensors)
        cycles += int(result.cycles)
        out_name, want = reference(
            kernel, tensors,
            next(iter(result.outputs.values())).shape)
        got = result.outputs.get(out_name)
        if got is None or not np.array_equal(got, want):
            bad.append(dataflow)
    return bad, cycles
