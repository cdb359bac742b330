"""Workload correctness: every compiled kernel must reproduce its Python reference,
through both the unoptimised and the fully optimised pipeline."""

import pytest

from repro.core.compiler import TwillCompiler
from repro.frontend import compile_c
from repro.interp import run_module
from repro.workloads import all_workloads, get_workload

WORKLOAD_NAMES = [w.name for w in all_workloads()]


def test_registry_contains_all_eight_kernels():
    assert WORKLOAD_NAMES == sorted(["mips", "adpcm", "aes", "blowfish", "gsm", "jpeg", "mpeg2", "sha"])
    for workload in all_workloads():
        assert workload.chstone_name
        assert workload.paper_queues is not None


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_unoptimised_output_matches_reference(name):
    workload = get_workload(name)
    module = compile_c(workload.source, name)
    result = run_module(module)
    assert result.outputs == workload.expected_outputs()


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_optimised_output_matches_reference(name):
    workload = get_workload(name)
    compiler = TwillCompiler()
    module = compiler.compile_module(workload.source, name)
    result = run_module(module)
    assert result.outputs == workload.expected_outputs()


@pytest.mark.parametrize("name", ["mips", "sha", "gsm"])
def test_full_pipeline_on_selected_workloads(name):
    """End-to-end compile_and_simulate on a few kernels (the rest are covered
    by the benchmark harness to keep the unit-test suite fast)."""
    workload = get_workload(name)
    compiler = TwillCompiler()
    result = compiler.compile_and_simulate(workload.source, name=name)
    assert result.outputs == workload.expected_outputs()
    system = result.system
    assert system.speedup_vs_software > 1.0
    assert result.dswp.partitioning.total_queues >= 1
    assert result.dswp.partitioning.hardware_thread_count >= 1
    assert system.twill.timing.forced_events == 0


#: The AES S-box as printed in FIPS-197, Figure 7 (row = high nibble).
FIPS_197_SBOX = bytes.fromhex(
    "637c777bf26b6fc53001672bfed7ab76"
    "ca82c97dfa5947f0add4a2af9ca472c0"
    "b7fd9326363ff7cc34a5e5f171d83115"
    "04c723c31896059a071280e2eb27b275"
    "09832c1a1b6e5aa0523bd6b329e32f84"
    "53d100ed20fcb15b6acbbe394a4c58cf"
    "d0efaafb434d338545f9027f503c9fa8"
    "51a3408f929d38f5bcb6da2110fff3d2"
    "cd0c13ec5f974417c4a77e3d645d1973"
    "60814fdc222a908846eeb814de5e0bdb"
    "e0323a0a4906245cc2d3ac629195e479"
    "e7c8376d8dd54ea96c56f4ea657aae08"
    "ba78252e1ca6b4c6e8dd741f4bbd8b8a"
    "703eb5664803f60e613557b986c11d9e"
    "e1f8981169d98e949b1e87e9ce5528df"
    "8ca1890dbfe6426841992d0fb054bb16"
)


def test_aes_sbox_matches_fips_197_and_source_is_unchanged():
    import hashlib

    from repro.workloads import aes

    assert bytes(aes._SBOX) == FIPS_197_SBOX
    # The generated C source (S-box table included) is what every cache
    # key and golden digest of the aes workload depends on.
    assert (
        hashlib.sha256(aes.SOURCE.encode()).hexdigest()
        == "58addc46e6a1e4e5dce82656492710f2785011ee9566cf32875abdc1c395dcfc"
    )
