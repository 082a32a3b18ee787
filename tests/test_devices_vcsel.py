"""Tests for the CMOS-compatible VCSEL model (paper Figure 8 anchors)."""

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from scipy import optimize

from repro.constants import quantum_slope_efficiency_w_per_a
from repro.devices import VcselModel, VcselParameters
from repro.errors import DeviceError


@pytest.fixture(scope="module")
def vcsel():
    return VcselModel()


def brentq_current(model: VcselModel, power_w: float, base_c: float) -> float:
    """Reference inversion: root of the forward model's dissipated power."""
    if power_w == 0.0:
        return 0.0

    def excess(current_a: float) -> float:
        return model.operating_point(current_a, base_c).dissipated_power_w - power_w

    return optimize.brentq(
        excess, 0.0, model.parameters.max_current_a, xtol=1.0e-13, rtol=1.0e-15
    )


class TestVcselParameters:
    def test_defaults_are_physical(self):
        params = VcselParameters()
        assert params.slope_efficiency_w_per_a < quantum_slope_efficiency_w_per_a(
            params.wavelength_nm
        )
        assert params.footprint_um == (15.0, 30.0)
        assert params.thickness_um <= 4.0
        assert params.modulation_bandwidth_ghz == 12.0

    def test_invalid_parameters_rejected(self):
        with pytest.raises(DeviceError):
            VcselParameters(threshold_current_a=0.0)
        with pytest.raises(DeviceError):
            VcselParameters(slope_efficiency_w_per_a=2.0)  # above quantum limit
        with pytest.raises(DeviceError):
            VcselParameters(slope_decay_span_k=-1.0)
        with pytest.raises(DeviceError):
            VcselParameters(max_current_a=0.0)

    def test_with_thermal_resistance(self):
        params = VcselParameters().with_thermal_resistance(500.0)
        assert params.thermal_resistance_k_per_w == 500.0


class TestTemperatureDependence:
    def test_threshold_increases_with_temperature(self, vcsel):
        assert vcsel.threshold_current_a(60.0) > vcsel.threshold_current_a(20.0)

    def test_slope_efficiency_decreases_with_temperature(self, vcsel):
        assert vcsel.slope_efficiency_w_per_a(60.0) < vcsel.slope_efficiency_w_per_a(20.0)

    def test_slope_efficiency_clamped_at_zero(self, vcsel):
        assert vcsel.slope_efficiency_w_per_a(500.0) == 0.0

    def test_emission_wavelength_drifts_at_paper_rate(self, vcsel):
        cold = vcsel.emission_wavelength_nm(20.0)
        hot = vcsel.emission_wavelength_nm(30.0)
        assert hot - cold == pytest.approx(1.0)  # 0.1 nm/degC x 10 degC

    def test_paper_efficiency_anchors(self, vcsel):
        """Section III.C: efficiency drops from ~15 % at 40 degC to ~4 % at 60 degC."""
        at_40 = vcsel.wall_plug_efficiency(6.0e-3, 40.0)
        at_60 = vcsel.wall_plug_efficiency(6.0e-3, 60.0)
        assert 0.12 <= at_40 <= 0.18
        assert 0.02 <= at_60 <= 0.07
        assert at_40 > 2.5 * at_60


class TestOperatingPoint:
    def test_below_threshold_no_light(self, vcsel):
        point = vcsel.operating_point(0.2e-3, 40.0)
        assert point.optical_power_w == 0.0
        assert not point.is_lasing
        assert point.dissipated_power_w == pytest.approx(point.electrical_power_w)

    def test_above_threshold_emits(self, vcsel):
        point = vcsel.operating_point(6.0e-3, 40.0)
        assert point.is_lasing
        assert point.optical_power_w > 0.0
        assert point.junction_temperature_c > point.base_temperature_c

    def test_energy_balance(self, vcsel):
        point = vcsel.operating_point(8.0e-3, 40.0)
        assert point.electrical_power_w == pytest.approx(
            point.optical_power_w + point.dissipated_power_w
        )

    def test_efficiency_decreases_with_base_temperature(self, vcsel):
        efficiencies = [
            vcsel.wall_plug_efficiency(6.0e-3, temperature)
            for temperature in (20.0, 40.0, 60.0, 70.0)
        ]
        assert all(a >= b for a, b in zip(efficiencies, efficiencies[1:]))

    def test_optical_power_rolls_over_at_high_current(self, vcsel):
        """Figure 8-c: thermal roll-over limits the emitted power."""
        currents_ma = [2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0]
        powers = [vcsel.optical_power_w(ma * 1e-3, 50.0) for ma in currents_ma]
        peak_index = powers.index(max(powers))
        assert 0 < peak_index < len(powers) - 1

    def test_over_current_rejected(self, vcsel):
        with pytest.raises(DeviceError):
            vcsel.operating_point(20.0e-3, 40.0)
        with pytest.raises(DeviceError):
            vcsel.operating_point(-1.0e-3, 40.0)

    @given(
        st.floats(min_value=0.5e-3, max_value=12e-3),
        st.floats(min_value=10.0, max_value=70.0),
    )
    @hyp_settings(max_examples=40, deadline=None)
    def test_operating_point_invariants(self, current, temperature):
        vcsel = VcselModel()
        point = vcsel.operating_point(current, temperature)
        assert 0.0 <= point.wall_plug_efficiency < 1.0
        assert point.optical_power_w >= 0.0
        assert point.dissipated_power_w >= 0.0
        assert point.junction_temperature_c >= temperature - 1e-9


class TestInverseProblems:
    def test_current_for_dissipated_power_roundtrip(self, vcsel):
        current = vcsel.current_for_dissipated_power(3.6e-3, 50.0)
        point = vcsel.operating_point(current, 50.0)
        assert point.dissipated_power_w == pytest.approx(3.6e-3, rel=1e-6)

    def test_current_for_optical_power_roundtrip(self, vcsel):
        current = vcsel.current_for_optical_power(0.2e-3, 45.0)
        assert vcsel.optical_power_w(current, 45.0) == pytest.approx(0.2e-3, rel=1e-6)

    def test_optical_power_from_dissipated_monotone_in_temperature(self, vcsel):
        """Hotter lasers emit less for the same dissipated power (Figure 8-c)."""
        cold = vcsel.optical_power_from_dissipated(3.6e-3, 40.0)
        hot = vcsel.optical_power_from_dissipated(3.6e-3, 60.0)
        assert cold > hot > 0.0

    def test_zero_targets(self, vcsel):
        assert vcsel.current_for_dissipated_power(0.0, 40.0) == 0.0
        assert vcsel.current_for_optical_power(0.0, 40.0) == 0.0

    def test_unreachable_targets_rejected(self, vcsel):
        with pytest.raises(DeviceError):
            vcsel.current_for_optical_power(50.0e-3, 60.0)
        with pytest.raises(DeviceError):
            vcsel.current_for_dissipated_power(1.0, 40.0)

    def test_higher_temperature_requires_more_current_for_same_light(self, vcsel):
        """The methodology's key trade-off: compensating temperature costs current."""
        target = 0.15e-3
        cold_current = vcsel.current_for_optical_power(target, 40.0)
        hot_current = vcsel.current_for_optical_power(target, 55.0)
        assert hot_current > cold_current


class TestBatchedEvaluation:
    """Vectorized operating points / inversions used by the SNR batch path."""

    def test_operating_points_match_scalar_exactly(self, vcsel):
        temperatures = np.array([20.0, 40.0, 45.0, 55.0, 60.0])
        batch = vcsel.operating_points(6.0e-3, temperatures)
        for index, temperature in enumerate(temperatures):
            point = vcsel.operating_point(6.0e-3, float(temperature))
            assert batch.optical_power_w[index] == point.optical_power_w
            assert batch.junction_temperature_c[index] == point.junction_temperature_c
            assert batch.dissipated_power_w[index] == point.dissipated_power_w
            assert batch.wall_plug_efficiency[index] == point.wall_plug_efficiency
        spot = batch[1]
        assert spot.base_temperature_c == 40.0
        assert spot.is_lasing

    def test_operating_points_broadcast_currents_and_temperatures(self, vcsel):
        currents = np.array([[2.0e-3], [6.0e-3]])
        temperatures = np.array([40.0, 50.0, 60.0])
        batch = vcsel.operating_points(currents, temperatures)
        assert batch.optical_power_w.shape == (2, 3)
        assert batch.optical_power_w[1, 0] == vcsel.operating_point(
            6.0e-3, 40.0
        ).optical_power_w

    def test_operating_points_validation(self, vcsel):
        with pytest.raises(DeviceError):
            vcsel.operating_points(np.array([-1.0e-3]), np.array([40.0]))
        with pytest.raises(DeviceError):
            vcsel.operating_points(np.array([1.0]), np.array([40.0]))

    def test_currents_for_dissipated_power_match_brentq(self, vcsel):
        powers = np.array([0.0, 2.0e-3, 3.6e-3, 5.0e-3])
        currents = vcsel.currents_for_dissipated_power(powers, 45.0)
        assert currents[0] == 0.0
        for index, power in enumerate(powers[1:], start=1):
            reference = brentq_current(vcsel, float(power), 45.0)
            assert abs(currents[index] - reference) < 1.0e-9
            scalar = vcsel.current_for_dissipated_power(float(power), 45.0)
            assert scalar == currents[index]

    def test_optical_powers_from_dissipated_match_scalar(self, vcsel):
        powers = np.array([2.0e-3, 3.6e-3, 5.0e-3])
        temperatures = np.array([40.0, 48.0, 56.0])
        optical = vcsel.optical_powers_from_dissipated(powers, temperatures)
        for index in range(len(powers)):
            reference = vcsel.optical_power_from_dissipated(
                float(powers[index]), float(temperatures[index])
            )
            assert optical[index] == pytest.approx(reference, rel=1.0e-6)

    def test_unreachable_dissipated_power_rejected(self, vcsel):
        with pytest.raises(DeviceError):
            vcsel.currents_for_dissipated_power(np.array([1.0]), np.array([40.0]))
        with pytest.raises(DeviceError):
            vcsel.currents_for_dissipated_power(np.array([-1.0e-3]), np.array([40.0]))


class TestClosedFormInversion:
    """The closed-form dissipated-power inversion against the forward model.

    Each parameter set keeps the dissipated power monotone in the current,
    so the ``brentq`` root over the whole drive range is the unique one.
    """

    MODELS = {
        "default": VcselParameters(),
        "ohmic_only": VcselParameters(
            turn_on_voltage_v=0.0, series_resistance_ohm=300.0
        ),
        "diode_only": VcselParameters(series_resistance_ohm=0.0),
    }
    #: Base temperatures; at 90 degC the junction is past the slope decay
    #: span, so the slope is clamped to 0 and the device never lases.
    TEMPERATURES_C = (25.0, 45.0, 70.0, 90.0)
    #: From zero through sub-threshold (~0.2-1 mW) to well above threshold.
    POWERS_W = (0.0, 0.2e-3, 1.0e-3, 2.5e-3, 3.6e-3, 5.0e-3)

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_matches_brentq_on_the_grid(self, name):
        model = VcselModel(self.MODELS[name])
        powers = np.array(self.POWERS_W)[:, None]
        temperatures = np.array(self.TEMPERATURES_C)[None, :]
        currents = model.currents_for_dissipated_power(powers, temperatures)
        optical = model.optical_powers_from_dissipated(powers, temperatures)
        regimes = set()
        for i, power in enumerate(self.POWERS_W):
            for j, base in enumerate(self.TEMPERATURES_C):
                reference = brentq_current(model, power, base)
                assert abs(currents[i, j] - reference) <= 1.0e-9, (power, base)
                point = model.operating_point(reference, base)
                junction = point.junction_temperature_c
                assert optical[i, j] == pytest.approx(
                    point.optical_power_w, abs=1.0e-10
                )
                if power == 0.0:
                    regimes.add("zero")
                elif model.slope_efficiency_w_per_a(junction) == 0.0:
                    regimes.add("slope clamped")
                elif reference < model.threshold_current_a(junction):
                    regimes.add("below threshold")
                else:
                    regimes.add("above threshold")
        assert regimes == {
            "zero",
            "slope clamped",
            "below threshold",
            "above threshold",
        }

    def test_scalar_and_vector_share_the_formula(self):
        model = VcselModel(self.MODELS["diode_only"])
        batch = model.currents_for_dissipated_power(np.array([1.0e-3, 3.6e-3]), 45.0)
        assert model.current_for_dissipated_power(1.0e-3, 45.0) == batch[0]
        assert model.current_for_dissipated_power(3.6e-3, 45.0) == batch[1]
        optical = model.optical_powers_from_dissipated(3.6e-3, 45.0)
        assert model.optical_power_from_dissipated(3.6e-3, 45.0) == optical

    def test_no_voltage_drop_cannot_dissipate(self):
        model = VcselModel(
            VcselParameters(turn_on_voltage_v=0.0, series_resistance_ohm=0.0)
        )
        assert model.current_for_dissipated_power(0.0, 40.0) == 0.0
        assert model.optical_power_from_dissipated(0.0, 40.0) == 0.0
        with pytest.raises(DeviceError, match="not reachable below the maximum"):
            model.current_for_dissipated_power(1.0e-3, 40.0)

    def test_falling_linear_branch_is_unreachable(self):
        # R = 0 and V0 < s: the dissipation falls above threshold, so a
        # target above the threshold dissipation has no root at all.
        model = VcselModel(
            VcselParameters(turn_on_voltage_v=0.3, series_resistance_ohm=0.0)
        )
        with pytest.raises(DeviceError, match="not reachable below the maximum"):
            model.current_for_dissipated_power(1.0e-3, 25.0)

    def test_non_finite_inputs_fail_loudly(self):
        model = VcselModel()
        with pytest.raises(DeviceError, match="not reachable"):
            model.currents_for_dissipated_power(np.nan, 40.0)
        with pytest.raises(DeviceError, match="not reachable"):
            model.optical_powers_from_dissipated(np.array([1.0e-3, 2.0e-3]), np.nan)

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_unreachable_target_keeps_the_message(self, name):
        model = VcselModel(self.MODELS[name])
        top = model.operating_point(model.parameters.max_current_a, 40.0)
        target = 1.01 * top.dissipated_power_w
        with pytest.raises(
            DeviceError,
            match=(
                f"requested dissipated power {target * 1e3:.2f} mW is not "
                "reachable below the maximum drive current"
            ),
        ):
            model.currents_for_dissipated_power(np.array([1.0e-3, target]), 40.0)
