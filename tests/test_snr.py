"""Tests for the SNR analysis (paper Section IV.C)."""

from dataclasses import replace

import numpy as np
import pytest

from repro.config import TechnologyParameters
from repro.devices import VcselModel
from repro.errors import AnalysisError
from repro.onoc import Communication, OrnocNetwork, RingTopology, opposite_traffic, shift_traffic
from repro.snr import (
    SNR_TIE_ULPS,
    LaserDriveConfig,
    OniThermalState,
    OpticalLinkEngine,
    SnrAnalyzer,
    SnrReport,
    ThermalStateBatch,
    WaveguidePropagator,
    states_by_name,
)
from snr_reference import analyze_scalar


def make_network(oni_count=6, length_mm=18.0, traffic="shift"):
    names = [f"oni_{i:02d}" for i in range(oni_count)]
    ring = RingTopology.evenly_spaced(names, length_mm * 1e-3)
    if traffic == "shift":
        communications = shift_traffic(ring, max(1, oni_count // 3))
    else:
        communications = opposite_traffic(ring)
    network = OrnocNetwork(ring, communications)
    network.assign_channels()
    return ring, network


def uniform_states(ring, temperature_c):
    return {
        name: OniThermalState(name=name, average_temperature_c=temperature_c)
        for name in ring.node_names
    }


def random_states(ring, seed, base_c=45.0, spread_c=12.0):
    """Reproducible random per-ONI states with distinct laser / MR temperatures."""
    rng = np.random.default_rng(seed)
    return {
        name: OniThermalState(
            name=name,
            average_temperature_c=base_c + spread_c * rng.random(),
            laser_temperature_c=base_c + spread_c * rng.random(),
            microring_temperature_c=base_c + spread_c * rng.random(),
        )
        for name in ring.node_names
    }


class TestStates:
    def test_defaults_fall_back_to_average(self):
        state = OniThermalState(name="oni", average_temperature_c=50.0)
        assert state.laser_c == 50.0
        assert state.microring_c == 50.0
        assert state.internal_gradient_c == 0.0

    def test_explicit_device_temperatures(self):
        state = OniThermalState(
            name="oni",
            average_temperature_c=50.0,
            laser_temperature_c=53.0,
            microring_temperature_c=51.0,
        )
        assert state.internal_gradient_c == pytest.approx(2.0)

    def test_states_by_name_detects_duplicates(self):
        state = OniThermalState(name="oni", average_temperature_c=50.0)
        with pytest.raises(AnalysisError):
            states_by_name([state, state])

    def test_drive_config_requires_exactly_one_mode(self):
        with pytest.raises(AnalysisError):
            LaserDriveConfig()
        with pytest.raises(AnalysisError):
            LaserDriveConfig(current_a=1e-3, dissipated_power_w=1e-3)
        assert LaserDriveConfig.from_current_ma(6.0).current_a == pytest.approx(6e-3)
        assert LaserDriveConfig.from_dissipated_mw(3.6).dissipated_power_w == pytest.approx(
            3.6e-3
        )


class TestPropagation:
    def test_uniform_temperatures_give_negligible_crosstalk(self):
        ring, network = make_network()
        propagator = WaveguidePropagator(network)
        states = uniform_states(ring, 50.0)
        communication = network.assigned_communications()[0]
        trace = propagator.propagate_signal(communication, 1.0e-4, states)
        assert trace.signal_power_w > 0.5e-4
        assert sum(trace.crosstalk_contributions_w.values()) < 1.0e-8

    def test_temperature_difference_creates_crosstalk(self):
        ring, network = make_network()
        propagator = WaveguidePropagator(network)
        states = uniform_states(ring, 50.0)
        # Heat the destination of the first communication by 5 degC.
        communication = network.assigned_communications()[0]
        states[communication.destination] = OniThermalState(
            name=communication.destination, average_temperature_c=55.0
        )
        trace = propagator.propagate_signal(communication, 1.0e-4, states)
        aligned_trace = propagator.propagate_signal(
            communication, 1.0e-4, uniform_states(ring, 50.0)
        )
        assert trace.signal_power_w < aligned_trace.signal_power_w
        # The power not captured by the misaligned destination ring leaks into
        # downstream same-channel receivers as crosstalk.
        assert sum(trace.crosstalk_contributions_w.values()) > sum(
            aligned_trace.crosstalk_contributions_w.values()
        )

    def test_signal_wavelength_tracks_source_temperature(self):
        ring, network = make_network()
        propagator = WaveguidePropagator(network)
        communication = network.assigned_communications()[0]
        cold = propagator.signal_wavelength_nm(
            communication, uniform_states(ring, 20.0)
        )
        hot = propagator.signal_wavelength_nm(communication, uniform_states(ring, 30.0))
        assert hot - cold == pytest.approx(1.0)

    def test_power_conservation_no_amplification(self):
        ring, network = make_network()
        propagator = WaveguidePropagator(network)
        states = uniform_states(ring, 52.0)
        injected = 2.0e-4
        communication = network.assigned_communications()[0]
        trace = propagator.propagate_signal(communication, injected, states)
        total_out = (
            trace.signal_power_w
            + sum(trace.crosstalk_contributions_w.values())
            + trace.residual_power_w
        )
        assert total_out <= injected * (1.0 + 1e-9)

    def test_missing_state_raises(self):
        ring, network = make_network()
        propagator = WaveguidePropagator(network)
        states = uniform_states(ring, 50.0)
        states.pop("oni_00")
        communication = next(
            c for c in network.assigned_communications() if c.source == "oni_00"
        )
        with pytest.raises(AnalysisError, match="no thermal state"):
            propagator.propagate_signal(communication, 1e-4, states)

    def test_invalid_interaction_model(self):
        _, network = make_network()
        with pytest.raises(AnalysisError):
            WaveguidePropagator(network, interaction_model="psychic")

    def test_lineshape_model_adds_adjacent_channel_crosstalk(self):
        ring, network = make_network()
        states = uniform_states(ring, 50.0)
        same_channel = WaveguidePropagator(network, interaction_model="same_channel")
        lineshape = WaveguidePropagator(network, interaction_model="lineshape")
        communication = network.assigned_communications()[0]
        same_trace = same_channel.propagate_signal(communication, 1e-4, states)
        line_trace = lineshape.propagate_signal(communication, 1e-4, states)
        assert sum(line_trace.crosstalk_contributions_w.values()) >= sum(
            same_trace.crosstalk_contributions_w.values()
        )


class TestSnrAnalyzer:
    def test_uniform_temperature_high_snr(self):
        ring, network = make_network()
        analyzer = SnrAnalyzer(network)
        report = analyzer.analyze(
            uniform_states(ring, 45.0), LaserDriveConfig.from_dissipated_mw(3.6)
        )
        assert report.worst_case_snr_db > 30.0
        assert report.all_detected
        assert len(report.links) == len(network.assigned_communications())

    def test_temperature_gradient_reduces_snr(self):
        ring, network = make_network()
        analyzer = SnrAnalyzer(network)
        drive = LaserDriveConfig.from_dissipated_mw(3.6)
        flat = analyzer.analyze(uniform_states(ring, 50.0), drive)
        skewed_states = {
            name: OniThermalState(
                name=name, average_temperature_c=47.0 + 1.5 * index
            )
            for index, name in enumerate(ring.node_names)
        }
        skewed = analyzer.analyze(skewed_states, drive)
        assert skewed.worst_case_snr_db < flat.worst_case_snr_db
        assert skewed.max_crosstalk_power_w > flat.max_crosstalk_power_w

    def test_hotter_lasers_emit_less_signal(self):
        ring, network = make_network()
        analyzer = SnrAnalyzer(network)
        drive = LaserDriveConfig.from_dissipated_mw(3.6)
        cool = analyzer.analyze(uniform_states(ring, 45.0), drive)
        hot = analyzer.analyze(uniform_states(ring, 60.0), drive)
        assert hot.min_signal_power_w < cool.min_signal_power_w

    def test_current_drive_mode(self):
        ring, network = make_network()
        analyzer = SnrAnalyzer(network)
        report = analyzer.analyze(
            uniform_states(ring, 45.0), LaserDriveConfig.from_current_ma(6.0)
        )
        assert report.worst_case_snr_db > 0.0

    def test_injected_power_includes_coupling_efficiency(self):
        ring, network = make_network()
        vcsel = VcselModel()
        technology = TechnologyParameters()
        analyzer = SnrAnalyzer(network, technology=technology, vcsel=vcsel)
        drive = LaserDriveConfig.from_dissipated_mw(3.6)
        report = analyzer.analyze(uniform_states(ring, 45.0), drive)
        optical = vcsel.optical_power_from_dissipated(3.6e-3, 45.0)
        expected = optical * technology.taper_coupling_efficiency
        # The batched VCSEL inversion agrees with the scalar one to ~1e-6.
        for link in report.links:
            assert link.injected_power_w == pytest.approx(expected, rel=1e-6)

    def test_report_accessors(self):
        ring, network = make_network()
        analyzer = SnrAnalyzer(network)
        report = analyzer.analyze(
            uniform_states(ring, 45.0), LaserDriveConfig.from_dissipated_mw(3.6)
        )
        worst = report.worst_case()
        assert worst.snr_db == report.worst_case_snr_db
        assert report.average_snr_db >= report.worst_case_snr_db - 1e-9
        rows = report.as_rows()
        assert len(rows) == len(report.links)
        assert {"communication", "signal_mw", "snr_db"} <= set(rows[0])
        named = report.link(worst.communication.name)
        assert named.communication.name == worst.communication.name
        with pytest.raises(AnalysisError):
            report.link("C_missing->missing")

    def test_link_dbm_properties(self):
        ring, network = make_network()
        analyzer = SnrAnalyzer(network)
        report = analyzer.analyze(
            uniform_states(ring, 45.0), LaserDriveConfig.from_dissipated_mw(3.6)
        )
        link = report.links[0]
        assert link.signal_power_dbm > -40.0
        assert link.crosstalk_power_dbm <= link.signal_power_dbm

    def test_missing_source_state_raises(self):
        ring, network = make_network()
        analyzer = SnrAnalyzer(network)
        states = uniform_states(ring, 45.0)
        states.pop("oni_01")
        with pytest.raises(AnalysisError):
            analyzer.analyze(states, LaserDriveConfig.from_dissipated_mw(3.6))

    def test_negative_noise_floor_rejected(self):
        _, network = make_network()
        with pytest.raises(AnalysisError):
            SnrAnalyzer(network, noise_floor_w=-1.0)

    def test_report_link_lookup_uses_cached_index(self):
        ring, network = make_network()
        analyzer = SnrAnalyzer(network)
        report = analyzer.analyze(
            uniform_states(ring, 45.0), LaserDriveConfig.from_dissipated_mw(3.6)
        )
        name = report.links[0].communication.name
        first = report.link(name)
        assert report._link_index is not None
        assert report.link(name) is first

    def test_zero_injected_power_reports_minus_inf_snr(self):
        # A dissipated power of zero emits no light: every link must report
        # -inf SNR and not-detected, without raising mid-report.
        ring, network = make_network()
        analyzer = SnrAnalyzer(network)
        report = analyzer.analyze(
            uniform_states(ring, 45.0), LaserDriveConfig.from_dissipated_mw(0.0)
        )
        assert all(link.snr_db == float("-inf") for link in report.links)
        assert not report.all_detected
        scalar = analyze_scalar(
            analyzer, uniform_states(ring, 45.0), LaserDriveConfig.from_dissipated_mw(0.0)
        )
        assert all(link.snr_db == float("-inf") for link in scalar.links)

    def test_zero_noise_floor_without_crosstalk_reports_inf_snr(self):
        # A single communication has no same-channel neighbours, so its
        # crosstalk is exactly zero; with a zero noise floor the SNR is +inf
        # (previously this raised a ZeroDivisionError mid-report).
        names = ["a", "b", "c", "d"]
        ring = RingTopology.evenly_spaced(names, 8.0e-3)
        network = OrnocNetwork(ring, [Communication(source="a", destination="c")])
        network.assign_channels()
        analyzer = SnrAnalyzer(network, noise_floor_w=0.0)
        states = uniform_states(ring, 45.0)
        drive = LaserDriveConfig.from_dissipated_mw(3.6)
        report = analyzer.analyze(states, drive)
        assert report.links[0].snr_db == float("inf")
        scalar = analyze_scalar(analyzer, states, drive)
        assert scalar.links[0].snr_db == float("inf")


class TestBatchAnalyzer:
    """The vectorized analyze_many path (paper Fig. 12 at batch scale)."""

    @pytest.mark.parametrize("interaction_model", ["same_channel", "lineshape"])
    @pytest.mark.parametrize(
        "drive",
        [LaserDriveConfig.from_dissipated_mw(3.6), LaserDriveConfig.from_current_ma(6.0)],
    )
    def test_analyze_many_matches_sequential_analyze(self, interaction_model, drive):
        # Acceptance property: a batch of B states returns the same numbers
        # as B sequential analyze() calls (to well within 1e-9 relative —
        # the two paths share every array operation, so they agree exactly).
        ring, network = make_network(oni_count=8)
        analyzer = SnrAnalyzer(network, interaction_model=interaction_model)
        batch = [random_states(ring, seed) for seed in range(6)]
        many = analyzer.analyze_many(batch, drive)
        assert many.batch_size == 6
        for index, states in enumerate(batch):
            report = analyzer.analyze(states, drive)
            for s, link in enumerate(report.links):
                assert link.communication.name == many.link_names[s]
                np.testing.assert_allclose(
                    many.signal_power_w[index, s], link.signal_power_w, rtol=1e-9
                )
                np.testing.assert_allclose(
                    many.crosstalk_power_w[index, s], link.crosstalk_power_w, rtol=1e-9
                )
                np.testing.assert_allclose(
                    many.injected_power_w[index, s], link.injected_power_w, rtol=1e-9
                )
                np.testing.assert_allclose(
                    many.snr_db[index, s], link.snr_db, rtol=1e-9
                )
                assert bool(many.detected[index, s]) == link.detected
            np.testing.assert_allclose(
                many.worst_case_snr_db[index], report.worst_case_snr_db, rtol=1e-9
            )
            np.testing.assert_allclose(
                many.average_snr_db[index], report.average_snr_db, rtol=1e-9
            )
            np.testing.assert_allclose(
                many.min_signal_power_w[index], report.min_signal_power_w, rtol=1e-9
            )
            np.testing.assert_allclose(
                many.max_crosstalk_power_w[index], report.max_crosstalk_power_w, rtol=1e-9
            )
            assert bool(many.all_detected[index]) == report.all_detected

    @pytest.mark.parametrize("interaction_model", ["same_channel", "lineshape"])
    def test_vectorized_path_matches_scalar_reference(self, interaction_model):
        # The compiled engine must reproduce the original pure-Python walk.
        # The only tolerated difference is the VCSEL inversion tolerance
        # (scalar brentq xtol=1e-9 A) and float association order.
        ring, network = make_network(oni_count=8)
        analyzer = SnrAnalyzer(network, interaction_model=interaction_model)
        drive = LaserDriveConfig.from_dissipated_mw(3.6)
        states = random_states(ring, 7)
        vectorized = analyzer.analyze(states, drive)
        scalar = analyze_scalar(analyzer, states, drive)
        assert [l.communication.name for l in vectorized.links] == [
            l.communication.name for l in scalar.links
        ]
        for fast, reference in zip(vectorized.links, scalar.links):
            np.testing.assert_allclose(
                fast.signal_power_w, reference.signal_power_w, rtol=1e-6
            )
            np.testing.assert_allclose(
                fast.crosstalk_power_w, reference.crosstalk_power_w, rtol=1e-6
            )
            np.testing.assert_allclose(fast.snr_db, reference.snr_db, rtol=0, atol=1e-5)
        for fast, reference in zip(vectorized.traces, scalar.traces):
            assert fast.communication.name == reference.communication.name
            assert fast.rings_crossed == reference.rings_crossed
            assert set(fast.crosstalk_contributions_w) == set(
                reference.crosstalk_contributions_w
            )
            np.testing.assert_allclose(
                fast.residual_power_w, reference.residual_power_w, rtol=1e-6
            )

    def test_batch_report_materialization_round_trips(self):
        ring, network = make_network()
        analyzer = SnrAnalyzer(network)
        drive = LaserDriveConfig.from_dissipated_mw(3.6)
        batch = [random_states(ring, seed) for seed in (3, 4)]
        many = analyzer.analyze_many(batch, drive)
        for index in range(many.batch_size):
            report = many.report(index)
            assert len(report.links) == len(many.communications)
            assert report.worst_case_snr_db == many.worst_case_snr_db[index]
            assert len(report.traces) == len(report.links)
        with pytest.raises(AnalysisError):
            many.report(many.batch_size)
        assert len(many.reports()) == many.batch_size
        assert many.worst_case_links()[0] in many.link_names

    def test_empty_batch_is_allowed(self):
        ring, network = make_network()
        analyzer = SnrAnalyzer(network)
        many = analyzer.analyze_many([], LaserDriveConfig.from_dissipated_mw(3.6))
        assert many.batch_size == 0
        assert many.worst_case_snr_db.shape == (0,)

    def test_missing_state_raises(self):
        ring, network = make_network()
        analyzer = SnrAnalyzer(network)
        good = random_states(ring, 1)
        bad = dict(good)
        bad.pop("oni_00")
        with pytest.raises(AnalysisError, match="no thermal state"):
            analyzer.analyze_many([good, bad], LaserDriveConfig.from_dissipated_mw(3.6))

    def test_engine_compiled_once_and_reused(self):
        ring, network = make_network()
        analyzer = SnrAnalyzer(network)
        engine = analyzer.engine
        assert analyzer.engine is engine
        drive = LaserDriveConfig.from_dissipated_mw(3.6)
        analyzer.analyze(uniform_states(ring, 45.0), drive)
        assert analyzer.engine is engine

    def test_invalid_interaction_model_rejected(self):
        _, network = make_network()
        with pytest.raises(AnalysisError):
            OpticalLinkEngine(network, interaction_model="psychic")

    def test_state_batch_shape_validation(self):
        with pytest.raises(AnalysisError):
            ThermalStateBatch(
                oni_names=("a", "b"),
                laser_c=np.zeros((2, 3)),
                microring_c=np.zeros((2, 2)),
            )

    def test_injected_power_shape_validation(self):
        ring, network = make_network()
        analyzer = SnrAnalyzer(network)
        engine = analyzer.engine
        states = engine.states_batch([uniform_states(ring, 45.0)])
        with pytest.raises(AnalysisError, match="shape"):
            engine.propagate_many(states, np.zeros((2, engine.signal_count)))
        with pytest.raises(AnalysisError, match=">= 0"):
            engine.propagate_many(
                states, np.full((1, engine.signal_count), -1.0)
            )


class TestWorstLinkTies:
    """The reported worst link is the first in canonical order within
    ``SNR_TIE_ULPS`` of the minimum, so round-off between symmetric links
    cannot pick it; the worst SNR stays the exact minimum."""

    WORST = 45.16386868715628

    def report(self, values):
        ring, network = make_network()
        report = SnrAnalyzer(network).analyze(
            uniform_states(ring, 45.0), LaserDriveConfig.from_dissipated_mw(3.6)
        )
        assert len(report.links) >= len(values)
        values = list(values) + [60.0] * (len(report.links) - len(values))
        return SnrReport(
            links=[replace(link, snr_db=v) for link, v in zip(report.links, values)],
            traces=report.traces,
        )

    def batch(self, rows):
        ring, network = make_network()
        drive = LaserDriveConfig.from_dissipated_mw(3.6)
        many = SnrAnalyzer(network).analyze_many(
            [uniform_states(ring, 45.0)] * len(rows), drive
        )
        snr = np.full(many.snr_db.shape, 60.0)
        snr[:, : len(rows[0])] = rows
        return replace(many, snr_db=snr)

    def test_links_two_ulp_apart_report_the_first_in_either_order(self):
        above = self.WORST + 2 * np.spacing(self.WORST)
        for values in ([50.0, self.WORST, above], [50.0, above, self.WORST]):
            report = self.report(values)
            assert report.worst_case() is report.links[1]
            assert report.summary_dict()["worst_link"] == report.links[1].communication.name
            assert report.worst_case_snr_db == self.WORST
            assert report.summary_dict()["worst_case_snr_db"] == self.WORST
        many = self.batch([[50.0, self.WORST, above], [50.0, above, self.WORST]])
        assert many.worst_case_links() == [many.link_names[1]] * 2
        assert list(many.worst_case_snr_db) == [self.WORST] * 2

    def test_a_gap_wider_than_the_window_reports_the_true_minimum(self):
        above = self.WORST + 4 * SNR_TIE_ULPS * np.spacing(self.WORST)
        report = self.report([50.0, above, self.WORST])
        assert report.worst_case() is report.links[2]
        assert report.worst_case_snr_db == self.WORST
        many = self.batch([[50.0, above, self.WORST], [50.0, self.WORST, above]])
        assert many.worst_case_links() == [many.link_names[2], many.link_names[1]]

    def test_a_non_finite_minimum_is_an_exact_argmin(self):
        report = self.report([50.0, -np.inf, -np.inf])
        assert report.worst_case() is report.links[1]
        many = self.batch([[50.0, 40.0, -np.inf]])
        assert many.worst_case_links() == [many.link_names[2]]


class TestDetuningRoundOff:
    """Detuning is the channel gap plus ``drift·(T_ring − T_laser)``, so a
    temperature moved by one ulp moves a near-resonant link's SNR by about
    an ulp too, not by the ulp of an absolute wavelength near 1550 nm."""

    #: Two temperatures of the ``workload_grid`` hotspot design, whose ONIs
    #: 0/2 and 1/3 sit symmetrically about the die centre.
    COOL_C, WARM_C = 58.73289925963393, 58.792166696538104

    def symmetric_states(self, ring, warm_c=WARM_C):
        return {
            name: OniThermalState(
                name=name,
                average_temperature_c=self.COOL_C if index % 2 == 0 else warm_c,
            )
            for index, name in enumerate(ring.node_names)
        }

    @staticmethod
    def wavelength_step_c(analyzer, link, start_c):
        """The first temperature from ``start_c`` up at which one more ulp
        moves ``link``'s absolute emitted wavelength by an ulp."""
        engine = analyzer.engine
        design = engine.wavelength_nm[engine.link_names.index(link)]
        reference = engine.microring.parameters.reference_temperature_c
        drift = engine.technology.thermal_sensitivity_nm_per_c
        temperature = start_c
        for _ in range(10_000):
            following = np.nextafter(temperature, np.inf)
            if design + drift * (temperature - reference) != design + drift * (
                following - reference
            ):
                return temperature
            temperature = following
        raise AssertionError("no wavelength step found")

    def test_one_ulp_at_a_wavelength_step_keeps_symmetric_links_tied(self):
        ring, network = make_network(oni_count=4, length_mm=9.0, traffic="shift")
        analyzer = SnrAnalyzer(network)
        drive = LaserDriveConfig.from_dissipated_mw(3.6)
        warm_c = self.wavelength_step_c(analyzer, "C_oni_01->oni_02", self.WARM_C)
        states = self.symmetric_states(ring, warm_c)
        shifted = dict(states)
        shifted["oni_01"] = replace(
            states["oni_01"], laser_temperature_c=np.nextafter(warm_c, np.inf)
        )
        symmetric, moved = (
            {link.communication.name: link.snr_db for link in analyzer.analyze(s, drive).links}
            for s in (states, shifted)
        )
        pairs = [("C_oni_01->oni_02", "C_oni_03->oni_00"), ("C_oni_00->oni_01", "C_oni_02->oni_03")]
        for first, second in pairs:
            assert symmetric[first] == symmetric[second]
            slack = SNR_TIE_ULPS * np.spacing(symmetric[second])
            assert abs(moved[first] - moved[second]) <= slack
        reports = [analyzer.analyze(s, drive) for s in (states, shifted)]
        assert reports[0].worst_case().communication.name == (
            reports[1].worst_case().communication.name
        )
        many = analyzer.analyze_many([states, shifted], drive)
        assert many.worst_case_links()[0] == many.worst_case_links()[1]

    def test_the_scalar_walk_forms_the_engine_detuning(self):
        ring, network = make_network(oni_count=4, length_mm=9.0)
        states = self.symmetric_states(ring)
        propagator = WaveguidePropagator(network)
        engine = SnrAnalyzer(network).engine
        batch = engine.states_batch([states])
        injected = np.full((1, engine.signal_count), 1e-3)
        dropped = engine.propagate_many(batch, injected).event_dropped_w[0]
        for s, communication in enumerate(engine.communications):
            trace = propagator.propagate_signal(communication, 1e-3, states)
            for k, receiver in engine.event_receivers(s):
                if receiver == communication.name:
                    assert dropped[s, k] == pytest.approx(trace.signal_power_w, rel=1e-12)
                else:
                    # The walk stops at a signal its own ring extinguished.
                    expected = trace.crosstalk_contributions_w.get(receiver, 0.0)
                    assert dropped[s, k] == pytest.approx(expected, rel=1e-12)
