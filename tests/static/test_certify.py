"""Certificates: which kernels prove sentinel-free, and why the rest don't."""

from repro.engine.cache import compile_program
from repro.engine.runners import build_dfg
from repro.guard.diff import DIFF_KERNELS, compile_kernel_programs
from repro.static.certify import (
    HAZARD_CLASSES,
    ProgramSafetyCertificate,
    armed_hazards,
    certify_program,
    compiled_certificate,
)
from repro.static.contracts import kernel_contract


def _cell_certificates():
    for kernel in DIFF_KERNELS:
        for name, cell in compile_kernel_programs(kernel).cells.items():
            label = kernel if name == "cell" else f"{kernel}:{name}"
            yield label, certify_program(kernel, cell, name=label)


class TestArmedHazards:
    def test_mirrors_make_sentinel(self):
        # The certificate must arm exactly what the runtime sentinel
        # arms, or "sentinel_free" would claim the wrong thing.
        assert armed_hazards("dtw") == ("int32-overflow",)
        assert armed_hazards("bsw") == ("int32-overflow", "lane-saturation")
        assert armed_hazards("pairhmm") == ("int32-overflow", "log-underflow")
        assert armed_hazards("poa") == ("int32-overflow",)


class TestCertification:
    def test_at_least_two_kernels_certify(self):
        certified = [
            label
            for label, certificate in _cell_certificates()
            if certificate.sentinel_free
        ]
        assert len(certified) >= 2, certified

    def test_bsw_fails_on_lane_saturation_with_witness(self):
        cell = compile_kernel_programs("bsw").cells["cell"]
        certificate = certify_program("bsw", cell)
        assert not certificate.sentinel_free
        verdict = certificate.verdict("lane-saturation")
        assert verdict.armed and not verdict.proven_absent
        assert "observation" in verdict.witness
        # int32 itself is fine -- only the 8-bit lane rail is at risk.
        assert certificate.verdict("int32-overflow").proven_absent

    def test_pairhmm_fails_on_log_underflow(self):
        cell = compile_kernel_programs("pairhmm").cells["cell"]
        certificate = certify_program("pairhmm", cell)
        assert not certificate.sentinel_free
        verdict = certificate.verdict("log-underflow")
        assert verdict.armed and not verdict.proven_absent

    def test_poa_edge_contract_is_inductively_closed(self):
        # The gap-state fold saturates at the boundary clamp, so the
        # declared contract really is a recurrence invariant.
        cell = compile_kernel_programs("poa").cells["edge"]
        certificate = certify_program("poa", cell, name="poa:edge")
        assert certificate.sentinel_free
        assert certificate.inductively_closed

    def test_unknown_contract_reports_uncertified(self):
        cell = compile_kernel_programs("dtw").cells["cell"]
        certificate = certify_program("dtw", cell, name="mystery")
        assert not certificate.contract
        assert not certificate.sentinel_free
        assert certificate.fixpoint_iterations == 0

    def test_observed_intervals_recorded_for_harness(self):
        cell = compile_kernel_programs("dtw").cells["cell"]
        certificate = certify_program("dtw", cell)
        assert certificate.observed_intervals
        assert all(len(pair) == 2 for pair in certificate.observed_intervals)

    def test_round_trips_through_dict(self):
        cell = compile_kernel_programs("chain").cells["cell"]
        certificate = certify_program("chain", cell)
        clone = ProgramSafetyCertificate.from_dict(certificate.to_dict())
        assert clone == certificate

    def test_verdict_order_is_stable(self):
        cell = compile_kernel_programs("dtw").cells["cell"]
        certificate = certify_program("dtw", cell)
        assert tuple(v.hazard for v in certificate.verdicts) == HAZARD_CLASSES


class TestCompiledCertificate:
    def test_engine_compile_payload_certifies(self):
        compiled = compile_program("dtw", 2, build_dfg("dtw"))
        data = compiled_certificate("dtw", compiled)
        assert data is not None and data["sentinel_free"]
        assert data["program_hash"] == compiled.program_hash

    def test_analysis_failure_degrades_to_none(self):
        # A compile seam must never fail the compile: garbage programs
        # produce no certificate (sentinels stay on) rather than raising.
        assert compiled_certificate("dtw", object()) is None

    def test_contracts_exist_for_all_guard_kernels(self):
        for kernel in DIFF_KERNELS:
            for name, _ in compile_kernel_programs(kernel).cells.items():
                label = kernel if name == "cell" else f"{kernel}:{name}"
                assert kernel_contract(label) is not None, label
