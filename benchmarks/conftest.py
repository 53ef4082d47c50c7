"""Shared infrastructure for the benchmark harness.

Every benchmark reproduces one table or figure of the paper.  Besides the
pytest-benchmark timing, each writes the regenerated rows to
``benchmarks/results/<name>.txt`` so the evidence persists regardless of
output capturing, and prints them (run with ``-s`` to see them live).
"""

from __future__ import annotations

import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def record_table(name: str, title: str, lines: list[str]) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    text = "\n".join([title, "=" * len(title), *lines, ""])
    (RESULTS_DIR / f"{name}.txt").write_text(text)
    print(f"\n{text}")


def fig10_suite() -> dict[str, list]:
    """The eleven kernel-dataflow configurations of Figs. 10/13/14,
    built on 8x8 arrays with broadcast/reduction control so every backend
    pass has material to work on.  ``tests/test_golden_digests.py`` pins
    the designs generated from it."""
    from repro.core import kernels
    from repro.core.dataflow import Dataflow

    suite: dict[str, list] = {}
    gemm = kernels.gemm(16, 16, 16)
    for kind in ("IJ", "IK", "KJ"):
        suite[f"GEMM-{kind}"] = [
            kernels.gemm_dataflow(kind, gemm, 8, 8, systolic=False)]
    suite["GEMM-MJ"] = [
        kernels.gemm_dataflow("IJ", gemm, 8, 8, systolic=False),
        kernels.gemm_dataflow("KJ", gemm, 8, 8, systolic=False)]

    conv = kernels.conv2d(1, 16, 16, 8, 8, 3, 3)
    suite["Conv2d-ICOC"] = [kernels.conv2d_dataflow("ICOC", conv, 8, 8,
                                                    systolic=False)]
    suite["Conv2d-OHOW"] = [kernels.conv2d_dataflow("OHOW", conv, 8, 8)]
    suite["Conv2d-MNICOC"] = [
        kernels.conv2d_dataflow("OHOW", conv, 8, 8),
        kernels.conv2d_dataflow("ICOC", conv, 8, 8, systolic=False)]

    mttkrp = kernels.mttkrp(16, 16, 8, 8)
    for kind in ("IJ", "KJ"):
        suite[f"MTTKRP-{kind}"] = [
            kernels.mttkrp_dataflow(kind, mttkrp, 8, 8, systolic=False)]
    suite["MTTKRP-MJ"] = [
        kernels.mttkrp_dataflow("IJ", mttkrp, 8, 8, systolic=False),
        kernels.mttkrp_dataflow("KJ", mttkrp, 8, 8, systolic=False)]

    qk = kernels.attention_qk(2, 8, 8, 8)
    pv = kernels.attention_pv(2, 8, 8, 8)
    suite["Attention"] = [
        Dataflow.build(qk, spatial=[("q", 8), ("k", 8)], control=(0, 0),
                       name="Attn-QK"),
        Dataflow.build(pv, spatial=[("q", 8), ("d", 8)], control=(0, 0),
                       name="Attn-PV"),
    ]
    return suite


def ablation_variants() -> dict:
    """Backend option sets used by the ablation figures."""
    from repro.backend import BackendOptions

    return {
        "baseline": BackendOptions.baseline(),
        "+reduction": BackendOptions(True, False, False, False),
        "+rewiring": BackendOptions(True, True, False, False),
        "+pin_reuse": BackendOptions(True, True, True, False),
        "full": BackendOptions(True, True, True, True),
    }


@pytest.fixture(scope="session")
def kernel_dataflow_suite():
    return fig10_suite()


@pytest.fixture(scope="session")
def backend_variants():
    return ablation_variants()


def build_design(dataflows, options=None):
    """Front end + backend for one kernel-dataflow configuration."""
    from repro.backend import BackendOptions, generate, run_backend
    from repro.core.frontend import build_adg

    return run_backend(generate(build_adg(list(dataflows))),
                       options or None)


@pytest.fixture(scope="session")
def suite_designs(kernel_dataflow_suite, backend_variants):
    """All (kernel, variant) designs, built once per session and shared by
    the Fig. 10/13/14 benchmarks."""
    designs = {}
    for name, dataflows in kernel_dataflow_suite.items():
        for variant, options in backend_variants.items():
            designs[(name, variant)] = build_design(dataflows, options)
    return designs
