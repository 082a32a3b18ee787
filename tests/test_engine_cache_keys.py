"""Cache-key correctness of the sweep engine and the scenario content hashes.

The engine's caches are keyed purely by content, so two properties are
load-bearing for every sweep and optimiser in the repository:

* **no collisions** — two requests describing *different* physical problems
  must never map to the same key (a collision silently serves wrong
  temperatures);
* **guaranteed hits** — two requests describing the *same* problem must map
  to the same key however the objects were constructed (a miss only costs
  time, but it defeats the engine's whole purpose).

The scenario subsystem inherits the same contract through
:meth:`~repro.scenarios.ScenarioSpec.content_hash`.
"""

import pytest

from repro.activity import ActivityPattern, ActivityTrace, uniform_activity
from repro.methodology import (
    SweepEngine,
    SweepPoint,
    ThermalRequest,
    TransientRequest,
    evaluation_key,
    transient_request_key,
)
from repro.oni import OniPowerConfig
from repro.snr import LaserDriveConfig


def pattern(name, powers):
    return ActivityPattern(name=name, tile_powers_w=dict(powers))


def trace_of(name, *phases):
    trace = ActivityTrace(name=name)
    for activity, duration in phases:
        trace.add_phase(activity, duration)
    return trace


class TestThermalKeys:
    def test_identical_content_same_key(self):
        first = ThermalRequest(
            activity=pattern("a", {"t0": 1.0, "t1": 2.0}),
            power=OniPowerConfig(vcsel_power_w=3.6e-3),
        )
        second = ThermalRequest(
            # Same content, different construction order and object identity.
            activity=pattern("a", {"t1": 2.0, "t0": 1.0}),
            power=OniPowerConfig(vcsel_power_w=3.6e-3),
        )
        assert evaluation_key("f", first) == evaluation_key("f", second)

    @pytest.mark.parametrize(
        "other",
        [
            ThermalRequest(activity=pattern("a", {"t0": 1.0, "t1": 2.0001})),
            ThermalRequest(activity=pattern("a", {"t0": 1.0})),
            ThermalRequest(activity=pattern("a", {"t0": 1.0, "t2": 2.0})),
            ThermalRequest(
                activity=pattern("a", {"t0": 1.0, "t1": 2.0}),
                power=OniPowerConfig(vcsel_power_w=4.0e-3),
            ),
            ThermalRequest(
                activity=pattern("a", {"t0": 1.0, "t1": 2.0}),
                power=OniPowerConfig(heater_power_w=2.0e-3),
            ),
            ThermalRequest(
                activity=pattern("a", {"t0": 1.0, "t1": 2.0}), zoom_oni=None
            ),
            ThermalRequest(
                activity=pattern("a", {"t0": 1.0, "t1": 2.0}), zoom_oni="oni_01"
            ),
        ],
    )
    def test_distinct_content_distinct_key(self, other):
        base = ThermalRequest(activity=pattern("a", {"t0": 1.0, "t1": 2.0}))
        assert evaluation_key("f", base) != evaluation_key("f", other)

    def test_flow_key_separates_flows(self):
        request = ThermalRequest(activity=pattern("a", {"t0": 1.0}))
        assert evaluation_key("f1", request) != evaluation_key("f2", request)

    def test_driver_power_distinguished_from_default(self):
        # driver_power_w=None means Pdriver = PVCSEL; an explicit equal value
        # is the same physical problem... but an explicit *different* one is
        # not, and must get its own key.
        base = ThermalRequest(
            activity=pattern("a", {"t0": 1.0}),
            power=OniPowerConfig(vcsel_power_w=3.6e-3, driver_power_w=1.0e-3),
        )
        other = ThermalRequest(
            activity=pattern("a", {"t0": 1.0}),
            power=OniPowerConfig(vcsel_power_w=3.6e-3, driver_power_w=2.0e-3),
        )
        assert evaluation_key("f", base) != evaluation_key("f", other)


class TestTransientKeys:
    def test_identical_content_same_key(self):
        def build():
            return TransientRequest(
                trace=trace_of(
                    "t",
                    (pattern("p0", {"t0": 1.0, "t1": 2.0}), 1.0),
                    (pattern("p1", {"t1": 2.0, "t0": 1.0}), 2.0),
                ),
                power=OniPowerConfig(),
                dt_s=0.25,
            )

        assert transient_request_key(build()) == transient_request_key(build())

    @pytest.mark.parametrize(
        "mutation",
        [
            lambda r: TransientRequest(trace=r.trace, dt_s=0.5),
            lambda r: TransientRequest(trace=r.trace, theta=0.5),
            lambda r: TransientRequest(trace=r.trace, initial="steady"),
            lambda r: TransientRequest(trace=r.trace, initial=40.0),
            lambda r: TransientRequest(trace=r.trace, snapshot_times_s=(1.0,)),
            lambda r: TransientRequest(
                trace=r.trace, power=OniPowerConfig(vcsel_power_w=5.0e-3)
            ),
        ],
    )
    def test_integrator_knobs_enter_the_key(self, mutation):
        base = TransientRequest(
            trace=trace_of("t", (pattern("p0", {"t0": 1.0}), 1.0)), dt_s=0.25
        )
        assert transient_request_key(base) != transient_request_key(mutation(base))

    def test_phase_content_enters_the_key(self):
        base = TransientRequest(
            trace=trace_of("t", (pattern("p0", {"t0": 1.0}), 1.0))
        )
        longer = TransientRequest(
            trace=trace_of("t", (pattern("p0", {"t0": 1.0}), 2.0))
        )
        hotter = TransientRequest(
            trace=trace_of("t", (pattern("p0", {"t0": 1.5}), 1.0))
        )
        keys = {
            transient_request_key(base),
            transient_request_key(longer),
            transient_request_key(hotter),
        }
        assert len(keys) == 3


class TestEngineBehaviour:
    """The keys drive the actual caches: hits on equal, solves on distinct."""

    def test_identical_specs_hit_across_calls(self, small_flow, coarse_architecture):
        engine = SweepEngine(small_flow)
        activity = uniform_activity(coarse_architecture.floorplan, 20.0)
        first = engine.evaluate_one(
            ThermalRequest(activity=activity, zoom_oni=None)
        )
        # A content-equal request built from scratch must hit.
        rebuilt = ActivityPattern(
            name=activity.name, tile_powers_w=dict(activity.tile_powers_w)
        )
        second = engine.evaluate_one(
            ThermalRequest(activity=rebuilt, zoom_oni=None)
        )
        assert engine.stats["thermal_solves"] == 1
        assert engine.stats["cache_hits"] == 1
        assert second is first

    def test_distinct_specs_never_collide(self, small_flow, coarse_architecture):
        engine = SweepEngine(small_flow)
        activity = uniform_activity(coarse_architecture.floorplan, 20.0)
        powers = [OniPowerConfig(vcsel_power_w=mw * 1.0e-3) for mw in (2.0, 3.0, 4.0)]
        evaluations = engine.evaluate(
            [
                ThermalRequest(activity=activity, power=power, zoom_oni=None)
                for power in powers
            ]
        )
        assert engine.stats["thermal_solves"] == 3
        assert engine.stats["cache_hits"] == 0
        temps = [e.average_oni_temperature_c for e in evaluations]
        # More VCSEL power heats more: all three results are really distinct.
        assert temps[0] < temps[1] < temps[2]

    def test_snr_drive_is_part_of_the_key(self, small_flow, coarse_architecture):
        engine = SweepEngine(small_flow)
        activity = uniform_activity(coarse_architecture.floorplan, 20.0)
        request = ThermalRequest(activity=activity, zoom_oni=None)
        drives = [
            LaserDriveConfig.from_dissipated_mw(3.6),
            LaserDriveConfig.from_dissipated_mw(4.2),
            LaserDriveConfig.from_current_ma(1.0),
        ]
        for drive in drives:
            engine.evaluate_snr([request], drive)
        assert engine.stats["snr_evaluations"] == 3
        assert engine.stats["thermal_solves"] == 1  # thermal half shared
        # Re-issuing any of the drives is now a pure cache hit.
        engine.evaluate_snr([request], LaserDriveConfig.from_dissipated_mw(4.2))
        assert engine.stats["snr_evaluations"] == 3
        assert engine.stats["snr_cache_hits"] == 1

    def test_flows_with_different_networks_never_share_snr_reports(
        self, coarse_architecture
    ):
        """Two flows that differ only in their network never share reports."""
        from repro.casestudy import build_oni_ring_scenario
        from repro.methodology import ThermalAwareDesignFlow

        scenario = build_oni_ring_scenario(
            coarse_architecture, ring_length_mm=18.0, oni_count=6
        )
        engine = SweepEngine(
            {
                "third": ThermalAwareDesignFlow(coarse_architecture, scenario),
                "neighbour": ThermalAwareDesignFlow(
                    coarse_architecture, scenario, shift_hops=1
                ),
            }
        )
        activity = uniform_activity(coarse_architecture.floorplan, 20.0)
        request = ThermalRequest(activity=activity, zoom_oni=None)
        drive = LaserDriveConfig.from_dissipated_mw(3.6)

        third, neighbour = engine.evaluate_snr(
            [SweepPoint(request, "third"), SweepPoint(request, "neighbour")],
            drive,
        )

        # Each flow's report was evaluated on its own network (no cache hit)...
        assert engine.stats["snr_cache_hits"] == 0
        assert engine.stats["snr_evaluations"] == 2
        assert engine.snr_cache_size == 2
        # ...and the reports really describe different traffic.
        third_links = {link.communication.name for link in third.links}
        neighbour_links = {link.communication.name for link in neighbour.links}
        assert third_links != neighbour_links
