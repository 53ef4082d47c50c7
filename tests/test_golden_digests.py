"""Golden digests: the compiler's outputs, pinned byte for byte.

SHA-256 digests of
* ``design_to_dict`` for the Fig. 10 suite — its 11 kernel-dataflow
  configurations x 5 backend variants, defined once in
  ``benchmarks/conftest.py``;
* the Verilog and HLS-C kernel of each configuration's ``full`` variant;
* the six cold-ladder rungs of ``perfbench/cold_ladder.py``, digested
  exactly as the benchmark's ``digests:`` line does (the design bytes,
  and the Verilog + HLS-C artifacts as ``<rung>.rtl``).

It also checks that generation does not depend on ``PYTHONHASHSEED``.

A refactor or speed-up of the compiler must leave every digest as it is.
A deliberate change to the generated hardware updates the table below in
the same change, saying why.
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import pathlib
import subprocess
import sys

import pytest

from repro.backend.verilog import emit_verilog
from repro.backends.hls_c import emit_hls_c
from repro.serialize import canonical_dumps, design_to_dict
from repro.service.cache import DesignCache
from repro.service.engine import BatchEngine
from repro.service.spec import DesignRequest

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _load(path: pathlib.Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _ladder_rungs():
    """``RUNGS`` of the cold-ladder workload (its sibling modules import
    each other by bare name, so the directory goes on the path)."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        return _load(ROOT / "perfbench" / "cold_ladder.py",
                     "_cold_ladder").RUNGS
    finally:
        sys.path.remove(str(ROOT / "perfbench"))


def _sha(text) -> str:
    if isinstance(text, str):
        text = text.encode()
    return hashlib.sha256(text).hexdigest()


SUITE = _load(ROOT / "benchmarks" / "conftest.py", "_fig10_suite")
RUNGS = dict(_ladder_rungs())


def suite_digests(name: str) -> dict[str, str]:
    """Digests of one Fig. 10 configuration: every variant's design and
    the ``full`` variant's emitted kernels."""
    dataflows = SUITE.fig10_suite()[name]
    out = {}
    for variant, options in SUITE.ablation_variants().items():
        design = SUITE.build_design(dataflows, options)
        out[f"{name}/{variant}"] = _sha(canonical_dumps(
            design_to_dict(design)))
        if variant == "full":
            out[f"{name}/full.v"] = _sha(emit_verilog(design))
            out[f"{name}/full.c"] = _sha(emit_hls_c(design))
    return out


def rung_digests(name: str, tmp_path) -> dict[str, str]:
    """The cold-ladder benchmark's digests of one rung."""
    engine = BatchEngine(cache=DesignCache(root=tmp_path))
    verilog, hls = (engine.submit(DesignRequest(backend=b, **RUNGS[name]))
                    for b in ("verilog", "hls_c"))
    assert verilog.ok and hls.ok, (verilog.error, hls.error)
    return {name: _sha(verilog.design_bytes()),
            f"{name}.rtl": _sha(repr(sorted(verilog.artifacts.items())
                                     + sorted(hls.artifacts.items())))}


GOLDEN: dict[str, str] = {
    "Attention/baseline":
        "4b9247d75420c77c038f315d895ecf479a7589d3e3579ca813d014adf70501d0",
    "Attention/+reduction":
        "1f785a638a137f19ab0f7e36ead7ff059bd8de00b67431d7e665d2d7e50e1fb6",
    "Attention/+rewiring":
        "35f33a362a3ddb771b7bcfa007857e36c1a197838c81bc6c3a6e2df408055306",
    "Attention/+pin_reuse":
        "475b107837da95b05fd1f9820b79bdaa02e9a2fcd87d2b851116ede9101d9834",
    "Attention/full":
        "13b03ced7bfcf7361ae68fb280481799ed851c7ca33d3628b2b27d383a908863",
    "Attention/full.v":
        "35bf1ee24b621f139a0acb34841d565cfb4b642b3d213a1070295b214b4a605a",
    "Attention/full.c":
        "7aadd7d559697117cb0e6aaa31ed84ad3cfc51eff955920b7a8ca95b50107e9b",
    "Conv2d-ICOC/baseline":
        "321010c3d593d8a0019cd9f00978c3ae6ff1167a84ff0d84cc6be30a470bb9c4",
    "Conv2d-ICOC/+reduction":
        "2a2e5068a6360ad6ae4cc91162a2d43cf95f237c6322226ef8238eacb4b6ab7d",
    "Conv2d-ICOC/+rewiring":
        "6bcd54819ee547f2d6a37205b4d91cd5eaf007d91a8399903fc103205a2bb506",
    "Conv2d-ICOC/+pin_reuse":
        "c042eae2a18a2a761e58005bdd76ebb5d38fdb794fe09e313fddd22f7e044947",
    "Conv2d-ICOC/full":
        "d177a558e1ed5b39a85950c555b957d4e96bf66cacb3ba8c21140d3e6376f1d8",
    "Conv2d-ICOC/full.v":
        "5e56961507f364884255938e1618bac60ad10d05b88ea2f6693ac83118a61165",
    "Conv2d-ICOC/full.c":
        "f9fe7c051a74ff55ed855db6c7153560e0467f56bfba106a2b5f31904ab20f4d",
    "Conv2d-MNICOC/baseline":
        "b8e39ad19549d2f2568066ceabee9d40b1904eee6974ece883e46f1a64a2eb0e",
    "Conv2d-MNICOC/+reduction":
        "9353741e187dca87ea1eb7d2d658d46ddbe1c84748afb4c1278d50f7bbf34d7c",
    "Conv2d-MNICOC/+rewiring":
        "daf17c6382d8ce6ede581b403b8564386c95490960d61fd572801ca3ef86759d",
    "Conv2d-MNICOC/+pin_reuse":
        "84b1ffd11ae249607fd36e38174cf60c8450ee89d4c00a8aaf1362218c5263f0",
    "Conv2d-MNICOC/full":
        "889d7582625e30f75a0440c5c8ff3b098edd157340d4b56a0157c4f72339dbf5",
    "Conv2d-MNICOC/full.v":
        "4e476df305b1b797674f0b0ff6666b24b58f91ce2cdbe75f0504aaaf3707eee5",
    "Conv2d-MNICOC/full.c":
        "545c1826731a93c71723b7578b7036a763affde5efe84bd5e31769009df01eb5",
    "Conv2d-OHOW/baseline":
        "c3120cb8ddf547686ccaa01095bf0dfc5291ac1efbf31d798c62c64bc5c4904c",
    "Conv2d-OHOW/+reduction":
        "a2e2dd3e2fee3a8c3d7bb01cf13c2823e69e1a0226ce2f32020b8c8536036665",
    "Conv2d-OHOW/+rewiring":
        "9c680cb6bed42a02f0157233830038232c282bb84ebf10686b723efcde7f2735",
    "Conv2d-OHOW/+pin_reuse":
        "7a59b55e3867e37c3ca1b2e7c834d6a02c77b4fad0aea9122f4dc08283bb0d39",
    "Conv2d-OHOW/full":
        "fff230c7bd1620448c4fb228f8a542df8c7dcebb4f502f076c4670c2de04c78d",
    "Conv2d-OHOW/full.v":
        "55a5b4b231c2f55a9bbba3b2871bed2752fda27ae3f8bbfa2f25483480587423",
    "Conv2d-OHOW/full.c":
        "986fe77072ab7a501e1a18c8c8ac560a5d55071a70338773771d5ad37f126065",
    "GEMM-IJ/baseline":
        "d29a661923b0acf11f45000f011b74f41a5913c7caf9b47fbaec82408ebcfde7",
    "GEMM-IJ/+reduction":
        "1ec4523c28a25557e67ecc16d3e5247c583233805c195f24847348442428be3b",
    "GEMM-IJ/+rewiring":
        "4b7291c32b1e916e66c85fddc937a153f23ae3d70fc557f7fa7474ab3f7f2572",
    "GEMM-IJ/+pin_reuse":
        "4b01369f2af6faf98f2ee425bc6ad839357ac92bebe08fe4d6fd68a757ad70fa",
    "GEMM-IJ/full":
        "d533cd7d63e415f82275970f5df6fb75ffba411b9ad6c646e48a58ecff1fba17",
    "GEMM-IJ/full.v":
        "d7c810a40ccf07ce907c4b3ebc186e9eb6d6a782b6214da823c8d6e14c10a8e1",
    "GEMM-IJ/full.c":
        "695b5cc177e2720a6dedbd630cc660415a9b249bc674af4740451ea4e3408bf1",
    "GEMM-IK/baseline":
        "6859ad13e79af57bce10a28c431d2645ae3ccc92c5e89858f247e82630e327ea",
    "GEMM-IK/+reduction":
        "343a5559c1e7583cec7a2514ebbef5660b5d35530f39d6d730699c26839a0f06",
    "GEMM-IK/+rewiring":
        "48e29e22f7babd8b5931352a80ec6b1c963a9becb5f3cf6957b5379e55d9d0db",
    "GEMM-IK/+pin_reuse":
        "726439c544a04c3ebcbd4c4791835c356603283f1176de605aa8f07610738b77",
    "GEMM-IK/full":
        "e459cf7ee50565773cc30011700282fcae3964b24525b4a1dfee5e79e3400c22",
    "GEMM-IK/full.v":
        "81fcde6932a9f0b1236491b7a6fd559a17f19e77a72eff1910f72af97e3b019e",
    "GEMM-IK/full.c":
        "a6b32a85f40052ad1cdf53615bc93b618eecebb48dd377223b0dc033a4fdd78c",
    "GEMM-KJ/baseline":
        "a4d59eea52f92c8bcb724a554ee77f8408c8fc463fe446315bed625513f15352",
    "GEMM-KJ/+reduction":
        "e9ddedd75bf032077fb3f1f35ed9e2a84320d3b42ad385e8be110a90e47a2b62",
    "GEMM-KJ/+rewiring":
        "a352b51b581c4a629cfb8f8837483577e13a403baab48febdf2e9ebf09aa0a2f",
    "GEMM-KJ/+pin_reuse":
        "db4b419552539dd07052147d9ff033b92001aa9ff36fc2b83c61d80d62a70262",
    "GEMM-KJ/full":
        "d1aaf83946afff1f08221c1d55fafa5b264cb4ad2ca0fe19c5a57c4428771183",
    "GEMM-KJ/full.v":
        "5e56961507f364884255938e1618bac60ad10d05b88ea2f6693ac83118a61165",
    "GEMM-KJ/full.c":
        "b98bb0710b62061ed0300f97f56552a4bfaf86994ca60fd8a2112b2f115e6af7",
    "GEMM-MJ/baseline":
        "9d8ba106362f812e99ef065fd19d433ee81e17f4f8d4dd4011566d9a9baed78b",
    "GEMM-MJ/+reduction":
        "fcd6664d9f0d5b0c268a07704e91249d9438092b16b66abd128b414f26202f7d",
    "GEMM-MJ/+rewiring":
        "e3e6da4fbd9da4523126d6fd99f9f23f7abc4567830d0a4c6fd74974c1c57acf",
    "GEMM-MJ/+pin_reuse":
        "ba8da2462bc0fe238ad8b40c2385c080899a848c8af4337d8956b29beb647799",
    "GEMM-MJ/full":
        "d29fddf77fe74d319dd1f8620dc09e3597e023bfcce648ac1a94c959a7150365",
    "GEMM-MJ/full.v":
        "ba9b7b55b6c509641ed54b2478da3e550ffa84719d3edbed411a1d1edde6daf7",
    "GEMM-MJ/full.c":
        "1e64cd87d4716697021d34967c043b21de6397e4bcbe80919124d6848b2c128c",
    "MTTKRP-IJ/baseline":
        "f4a8afed5cb2e6ca1e26f391de80866d604fa88f6a66038ce49a4823ff062120",
    "MTTKRP-IJ/+reduction":
        "dcfe46097112b6b9b5605420693536c46888a08db28bd1b29fbd28a0c4d42136",
    "MTTKRP-IJ/+rewiring":
        "a8ab76d613d8769356d451452a47294863519bcf543710ffe6d064ae65d4712e",
    "MTTKRP-IJ/+pin_reuse":
        "e82a24f717a2fe3d6018aee496c4ccca311a497839c5fe5c9ca904eea1bfc367",
    "MTTKRP-IJ/full":
        "5852893b31c87d8a5c4949218a2bf80dc586ec5c0ef718f2cba2f18879a55270",
    "MTTKRP-IJ/full.v":
        "b9414853f174204653f582540fc7d40c0af3fa6034aff0bb57a551bfd7eb4eca",
    "MTTKRP-IJ/full.c":
        "b2b77281a8cb6266ea71bc3a248fe29284a47d707f88b4e63d8fafdf97c987fb",
    "MTTKRP-KJ/baseline":
        "34c5e07b9709d04f24962b74b005667db8cb644134e44ae526668cf5fc8e0263",
    "MTTKRP-KJ/+reduction":
        "2e075a5051aad6518dafaab9a081b8d2ea140a24cfed6a31931c74585a1777e5",
    "MTTKRP-KJ/+rewiring":
        "4e3f800a8101e501865bcb6cdb191d2bed2cbf55a2b8a32ed62b9d2e71fff2f2",
    "MTTKRP-KJ/+pin_reuse":
        "e590b8aacc55506add3d50db6b2d95eaa7e904a68d7dbeec2c994fdd41de8d6c",
    "MTTKRP-KJ/full":
        "85583ff36fc87dd63d52044806b83d14b2403da480a0d84b019f454825262ef4",
    "MTTKRP-KJ/full.v":
        "180f0f20d927071843f9abd9f8587213fe4c2051e38ae6f10982138c7f4dfed2",
    "MTTKRP-KJ/full.c":
        "eddb69a1c271e5c6855f3842299e6770f7c5b32c9e996505697dd6f3452410ec",
    "MTTKRP-MJ/baseline":
        "bed2ea0128ccedaa34b68b3e4721e73d2ff504f601450baaecf36e448476c30c",
    "MTTKRP-MJ/+reduction":
        "caa0ec0bb3780343ac7457acb6b7f3c0980f13a326aeb2ee8932f0c60e0475fb",
    "MTTKRP-MJ/+rewiring":
        "89b599a76336459122c1fbcf09d6db1fe616c1c023650fa5e674a83236d0ab40",
    "MTTKRP-MJ/+pin_reuse":
        "9024efb3611e3d7d325dd59da76956ca0b757205a9e5ed02d6f1577bdf54505a",
    "MTTKRP-MJ/full":
        "930e46bcb6cf058398e3407a4867629ff160e881547a9362add60fbed40b999e",
    "MTTKRP-MJ/full.v":
        "15845bfd53323fa6e13b8f0a44cf41bad70bb90991d7d27f931b25c4e08b64c7",
    "MTTKRP-MJ/full.c":
        "4d7817f20554f55346099b61a6c8c6df1491c33953380b849ae053400f319ddb",
    "gemm8":
        "66352793a7dc0eda242e01560c9a98c422d85b6f19729a9431c71e3aba0a2f65",
    "gemm8.rtl":
        "5059e9647b62065470e536f389c18adc53c2a6892d7fa5759be8827759112258",
    "gemm12":
        "875c4d69760b81375fe1bb25250cb66d3d0549f986a427f0282d19e4082db302",
    "gemm12.rtl":
        "24108437b6a3183d06d51801a53c52913ead5cd4f0cbac40c985e2210ae6c91b",
    "gemm12-bcast":
        "cbb1d9e2420574ecc3c77e216a98847af56f00c763fb52070269d4c86f9520f9",
    "gemm12-bcast.rtl":
        "82a5ad71eff0ef569310063dede8127b01f4dcffd9036a756a552f1b1b6c1501",
    "conv8":
        "be6e3def8d74fa1f594bdbf1e912621c5d965364b377b8ae43691c5fb3093241",
    "conv8.rtl":
        "0d45eec8ba6e6623f2a0db5720552db4848c9f3213feee233f426827f3850a9c",
    "attn8":
        "c9bc6f134dbcfc5d2c5f21c743247c9e165d16dcab8decbadd5f237dcd7448d3",
    "attn8.rtl":
        "e848795360c02caaa3ed022b993ab288c3a72b7b8f084c26c86971bb6cb34c2d",
    "mttkrp8":
        "d02617ea218baf9b7d8d79467dfa0c1379f1ff7bd96e20297da6061185599dad",
    "mttkrp8.rtl":
        "463e15a64e3586d5b8f2a7e4d11293180980c0192534a507a2c4316850091973",
}


@pytest.mark.parametrize("name", sorted(SUITE.fig10_suite()))
def test_fig10_suite_digests(name):
    got = suite_digests(name)
    assert got == {k: GOLDEN[k] for k in got}


@pytest.mark.parametrize("name", list(RUNGS))
def test_cold_ladder_rung_digests(name, tmp_path):
    got = rung_digests(name, tmp_path)
    assert got == {k: GOLDEN[k] for k in got}


_BUILD_IK_KJ = """
import hashlib
from repro.service.engine import BatchEngine
from repro.service.spec import DesignRequest
for systolic in (True, False):
    result = BatchEngine().submit(DesignRequest(
        kernel="gemm", dataflows=("IK", "KJ"), array=(4, 2),
        systolic=systolic))
    print(hashlib.sha256(result.design_bytes()).hexdigest())
"""


def test_design_bytes_independent_of_hash_seed():
    """Fused gemm IK+KJ once scheduled differently under different
    string-hash seeds (code generation iterated a set of dataflow
    names)."""
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH",
                                                             "")])
    outs = [subprocess.run(
        [sys.executable, "-c", _BUILD_IK_KJ], capture_output=True,
        text=True, check=True, timeout=300,
        env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path},
    ).stdout for seed in ("0", "1")]
    assert len(outs[0].split()) == 2
    assert outs[0] == outs[1]
