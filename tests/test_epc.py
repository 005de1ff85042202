"""Integration tests: the EPC case study at every refinement level."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clocks import analyse_endochrony, build_hierarchy
from repro.core.values import EVENT
from repro.epc import (
    DEFAULT_WORKLOAD,
    ablation_drop_handshake,
    check_refinement_chain,
    check_rtl_bisimulation,
    even_io_process,
    ones_endochronous_process,
    ones_paper_process,
    ones_translated,
    reference_even,
    reference_ones,
    rtl_ones_process,
    rtl_reference_process,
    run_architecture,
    run_communication,
    run_gals_architecture,
    run_rtl,
    run_specification,
)
from repro.signal.printer import render_process
from repro.simulation import Simulator
from repro.verification import BoundReached

WORKLOAD = [13, 7, 0, 255, 128]
EXPECTED_COUNTS = [reference_ones(word) for word in WORKLOAD]
EXPECTED_PARITIES = [1 if reference_even(word) else 0 for word in WORKLOAD]


class TestGoldenModels:
    def test_reference_functions(self):
        assert reference_ones(0b1101) == 3
        assert reference_ones(0) == 0
        assert reference_ones(255) == 8
        assert reference_even(0b11) is True
        assert reference_even(0b111) is False

    @given(st.integers(min_value=0, max_value=255))
    @settings(max_examples=60, deadline=None)
    def test_reference_consistency(self, word):
        assert reference_even(word) == (reference_ones(word) % 2 == 0)


class TestSpecificationLevel:
    def test_specification_matches_reference(self):
        run = run_specification(WORKLOAD)
        assert list(run.counts) == EXPECTED_COUNTS
        assert list(run.parities) == EXPECTED_PARITIES
        assert run.matches_reference()
        assert run.run.finished or run.run.blocked  # the repeating units stay waiting

    def test_specification_preserves_workload_order(self):
        run = run_specification([1, 2, 3])
        assert run.run.flow("data") == [1, 2, 3]


class TestSignalModels:
    def test_paper_listing_parses_and_is_multiclocked(self):
        process = ones_paper_process()
        assert process.input_names == ("Inport", "start")
        assert process.output_names == ("Outport", "done")
        assert not analyse_endochrony(process)
        assert "Outport := ocount when data = 0" in render_process(process)

    def test_endochronous_ones_is_endochronous_with_tick_master(self):
        report = analyse_endochrony(ones_endochronous_process())
        assert report
        assert "tick" in report.master_signals

    def test_endochronous_ones_computes_counts(self):
        simulator = Simulator(ones_endochronous_process())
        trace = simulator.run_flows({"Inport": WORKLOAD}, tick={"tick": EVENT}, max_reactions=500)
        assert trace.values("Outport") == EXPECTED_COUNTS

    def test_even_io_process(self):
        simulator = Simulator(even_io_process())
        trace = simulator.run_synchronous({"ocount": EXPECTED_COUNTS})
        assert trace.values("parity") == EXPECTED_PARITIES

    def test_translated_ones_structure(self):
        translation = ones_translated()
        assert translation.input_ports == ("Inport",)
        assert translation.output_ports == ("Outport",)
        assert translation.wait_events == ("start",)
        assert translation.notify_events == ("done",)
        assert len(translation.steps) == 11  # matches the paper's block decomposition


class TestArchitectureLevel:
    def test_chmp_architecture_matches_reference(self):
        run = run_architecture(WORKLOAD)
        assert run.matches_reference()

    def test_gals_architecture_matches_reference(self):
        run = run_gals_architecture(WORKLOAD)
        assert run.matches_reference()

    @pytest.mark.parametrize(
        "schedule",
        [None, ["ones", "ones", "evenio"], ["evenio", "ones"], ["evenio", "evenio", "ones", "ones"]],
    )
    def test_gals_flows_are_schedule_insensitive(self, schedule):
        run = run_gals_architecture(WORKLOAD, schedule=schedule)
        assert list(run.counts) == EXPECTED_COUNTS
        assert list(run.parities) == EXPECTED_PARITIES


class TestCommunicationAndRtl:
    def test_communication_level_matches_reference(self):
        run = run_communication(WORKLOAD)
        assert run.matches_reference()
        assert list(run.bus_traffic) == WORKLOAD

    def test_rtl_matches_reference(self):
        run = run_rtl(WORKLOAD)
        assert run.matches_reference()
        assert run.cycles > 0

    def test_rtl_is_master_clocked_and_endochronous(self):
        hierarchy = build_hierarchy(rtl_ones_process())
        assert hierarchy.is_singly_rooted()
        assert "clk" in hierarchy.master_signals()
        assert analyse_endochrony(hierarchy)

    def test_rtl_reference_process_agrees_with_implementation(self):
        simulator = Simulator(rtl_reference_process())
        # One full word through the golden FSM via the same handshake.
        word = 11
        instant = simulator.step({"clk": EVENT, "rst": True, "start": False, "ack_idone": False, "inport": 0})
        captured = None
        for _ in range(60):
            instant = simulator.step(
                {"clk": EVENT, "rst": False, "start": captured is None, "ack_idone": False, "inport": word}
            )
            if instant["done"] is True:
                captured = instant["outport"]
                break
        assert captured == reference_ones(word)


class TestRefinementChain:
    def test_full_chain_holds(self):
        chain = check_refinement_chain(WORKLOAD)
        assert chain.holds
        assert chain.step("specification-to-architecture").holds
        assert chain.step("architecture-to-gals").holds
        assert chain.step("architecture-to-communication").holds
        assert chain.step("communication-to-rtl").holds
        assert "CORRECT" in chain.summary()

    def test_unknown_step_lookup(self):
        chain = check_refinement_chain([1])
        with pytest.raises(KeyError):
            chain.step("no-such-step")

    def test_ablation_breaks_flow_preservation(self):
        verdict = ablation_drop_handshake(WORKLOAD)
        assert not verdict.equivalent

    @given(st.lists(st.integers(min_value=0, max_value=255), min_size=1, max_size=5))
    @settings(max_examples=10, deadline=None)
    def test_chain_holds_on_random_workloads(self, workload):
        assert check_refinement_chain(workload).holds

    def test_rtl_bisimulation_against_reference(self):
        assert check_rtl_bisimulation(width=1).bisimilar

    def test_truncated_rtl_bisimulation_refuses_a_verdict(self):
        # 100 states cut the width-3 implementation (209 states) short; a
        # verdict on the partial LTS used to read "NOT bisimilar".
        with pytest.raises(BoundReached, match="max_states=100"):
            check_rtl_bisimulation(width=3, max_states=100)
