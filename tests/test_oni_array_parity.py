"""Parity of the array-native ONI geometry with the object path.

The design flow compiles every ONI device into source rows once and cuts
each request's sources, device queries and transient probes from arrays.
These properties rebuild the same quantities from ``DevicePlacement``,
``Rect.translated``, ``Box`` and ``HeatSource`` objects through
``Mesh3D.box_overlaps`` and require bit-identical results, or the same
exception naming the same ``"<oni>:<placement>"`` source.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.activity import ActivityPattern
from repro.config import SimulationSettings
from repro.errors import GeometryError, SolverError
from repro.geometry import Box, Rect, grid_floorplan
from repro.methodology import ThermalAwareDesignFlow
from repro.methodology.flow import ThermalRequest
from repro.oni import OniLayoutParameters, OniPowerConfig, place_onis
from repro.thermal import HeatSource, ThermalMap, power_density_field
from repro.thermal.mesh import Mesh3D
from repro.thermal import compile_probes

DIE = Rect(0.0, 0.0, 2.0e-3, 2.0e-3)
ELECTRICAL_Z = (2.0e-5, 3.0e-5)


def random_mesh(rng):
    ticks = []
    for upper in (DIE.x_max, DIE.y_max, 1.0e-4):
        inner = rng.uniform(0.0, upper, size=rng.integers(3, 14))
        ticks.append(np.unique(np.concatenate(([0.0, upper], inner))))
    shape = tuple(t.size - 1 for t in ticks)
    return Mesh3D(*ticks, np.ones(shape), np.ones(shape))


powers = st.one_of(st.just(0.0), st.floats(1.0e-4, 1.0e-2))


@st.composite
def cases(draw):
    mr = draw(st.floats(2.0, 30.0))
    vcsel = (draw(st.floats(2.0, 30.0)), draw(st.floats(2.0, 30.0)))
    layout = OniLayoutParameters(
        waveguide_count=draw(st.integers(1, 3)),
        lasers_per_waveguide=draw(st.integers(1, 3)),
        vcsel_footprint_um=vcsel,
        mr_diameter_um=mr,
        site_pitch_um=draw(st.floats(max(vcsel[0], mr), 60.0)),
        waveguide_pitch_um=draw(st.floats(30.0, 60.0)),
        margin_um=draw(st.floats(0.0, 30.0)),
    )
    # Origins up to past the die edge, so some devices leave the mesh.
    origins = draw(st.lists(st.tuples(st.floats(0.0, 2.1e-3), st.floats(0.0, 1.8e-3)), min_size=1, max_size=3))
    own = OniPowerConfig(draw(powers), draw(powers), draw(st.none() | powers))
    request = draw(st.none() | st.builds(OniPowerConfig, powers, powers, st.none() | powers))
    z_low = draw(st.floats(5.0e-5, 8.0e-5))
    thickness = draw(st.one_of(st.just(0.0), st.floats(1.0e-6, 1.0e-5)))
    return SimpleNamespace(
        layout=layout,
        origins=origins,
        own=own,
        request=request,
        optical_z=(z_low, z_low + thickness),
        chip_powers=draw(st.lists(st.one_of(st.just(0.0), st.floats(0.1, 5.0)), min_size=4, max_size=4)),
        seed=draw(st.integers(0, 2**16)),
    )


def build(case):
    onis = place_onis(
        [(f"oni_{i}", origin) for i, origin in enumerate(case.origins)],
        layout_parameters=case.layout,
        power=case.own,
    )
    floorplan = grid_floorplan(DIE, 2, 2)
    architecture = SimpleNamespace(
        floorplan=floorplan,
        optical_z_range=lambda: case.optical_z,
        electrical_z_range=lambda: ELECTRICAL_Z,
        settings=SimulationSettings(),
    )
    flow = ThermalAwareDesignFlow(architecture, SimpleNamespace(onis=onis))
    tiles = [instance.name for instance in floorplan]
    activity = ActivityPattern("act", dict(zip(tiles, case.chip_powers)))
    return flow, onis, floorplan, activity


def object_sources(onis, floorplan, activity, power, optical_z):
    """The sources of a design point, built object by object."""
    sources = [
        HeatSource.from_rect(f"act:{tile}", floorplan.get(tile).rect, *ELECTRICAL_Z, p)
        for tile, p in activity.tile_powers_w.items()
        if p > 0.0
    ]
    for oni in onis:
        config = power or oni.power
        for kind, z_range, p in (
            ("vcsel", optical_z, config.vcsel_power_w),
            ("heater", optical_z, config.heater_power_w),
            ("driver", ELECTRICAL_Z, config.effective_driver_power_w),
        ):
            for placement in oni.layout.devices_of_kind(kind) if p > 0.0 else ():
                rect = placement.rect.translated(*oni.origin)
                name = f"{oni.name}:{placement.name}"
                sources.append(HeatSource.from_rect(name, rect, *z_range, p, group=kind))
    return sources


def object_field(mesh, sources):
    powered = [source for source in sources if source.power_w != 0.0]
    overlaps = mesh.box_overlaps([source.box for source in powered])
    outside = overlaps.first_empty()
    if outside is not None:
        raise SolverError(
            f"heat source {powered[outside].name!r} does not overlap the thermal mesh"
        )
    weights = np.array([source.power_w for source in powered]) / overlaps.volumes
    return overlaps.deposit(weights)


def outcome(compute):
    try:
        return compute()
    except (GeometryError, SolverError) as error:
        return type(error), str(error)


def device_boxes(oni, kind, z_range):
    return [
        Box.from_rect(p.rect.translated(*oni.origin), *z_range)
        for p in oni.layout.devices_of_kind(kind)
    ]


def object_figures(thermal_map, oni, z_range):
    """(average, laser, microring, gradient) through per-kind box queries."""
    region = Box.from_rect(oni.layout.footprint.translated(*oni.origin), *z_range)
    lasers = thermal_map.averages_over(device_boxes(oni, "vcsel", z_range)).tolist()
    rings = thermal_map.averages_over(device_boxes(oni, "microring", z_range)).tolist()
    gradient = max(lasers + rings) - min(lasers + rings)
    return (
        thermal_map.average_over(region),
        sum(lasers) / len(lasers),
        sum(rings) / len(rings),
        gradient,
    )


@settings(max_examples=60, deadline=None)
@given(case=cases())
def test_sources_devices_and_probes_match_the_object_path(case):
    flow, onis, floorplan, activity = build(case)
    mesh = random_mesh(np.random.default_rng(case.seed))
    # Two requests on one flow: the second reuses the compiled overlaps.
    for power in (None, case.request):
        expected = outcome(
            lambda: object_field(
                mesh, object_sources(onis, floorplan, activity, power, case.optical_z)
            )
        )
        actual = outcome(
            lambda: power_density_field(mesh, flow.source_batch(activity, power))
        )
        if isinstance(expected, tuple):
            assert actual == expected
        else:
            assert np.array_equal(actual, expected)

    if case.optical_z[1] == case.optical_z[0]:
        return
    inside = all(
        mesh.box_overlaps(oni.query_bounds(case.optical_z)).first_empty() is None
        for oni in onis
    )
    if not inside:
        return
    thermal_map = ThermalMap(mesh, np.random.default_rng(case.seed).uniform(20, 90, mesh.shape))
    evaluation = flow._finish_thermal(
        ThermalRequest(activity, zoom_oni=None), None, thermal_map
    )
    for oni in onis:
        figures = object_figures(thermal_map, oni, case.optical_z)
        summary = evaluation.oni_summaries[oni.name]
        assert (summary.average_c, summary.laser_c, summary.microring_c) == figures[:3]
        zoomed = thermal_map.averages_over(
            oni.query_bounds(case.optical_z), oni.query_blocks()
        )
        assert oni.query_temperatures(zoomed.tolist()) == figures

    object_probes = {}
    for oni in onis:
        region = Box.from_rect(oni.layout.footprint.translated(*oni.origin), *case.optical_z)
        object_probes[f"{oni.name}:avg"] = region
        object_probes[f"{oni.name}:laser"] = device_boxes(oni, "vcsel", case.optical_z)
        object_probes[f"{oni.name}:mr"] = device_boxes(oni, "microring", case.optical_z)
    compiled = compile_probes(mesh, flow.oni_probes()).functionals
    reference = compile_probes(mesh, object_probes).functionals
    field = thermal_map.temperatures_c.ravel()
    assert list(compiled) == list(reference)
    for name, functional in compiled.items():
        assert np.array_equal(functional.indices, reference[name].indices)
        assert functional.value(field) == reference[name].value(field)


@settings(max_examples=30, deadline=None)
@given(case=cases(), row=st.integers(0, 10_000), power=st.floats(-1.0, -1e-9))
def test_negative_power_is_named_like_heat_source(case, row, power):
    flow, onis, _, _ = build(case)
    optical_z = (case.optical_z[0], case.optical_z[0] + 1.0e-6)
    sources = onis[0].device_sources(optical_z, ELECTRICAL_Z)
    row %= len(sources)
    powers = np.ones(len(sources))
    powers[row] = power
    batch = sources.take(np.arange(len(sources)), powers)
    mesh = random_mesh(np.random.default_rng(case.seed))
    with pytest.raises(GeometryError) as expected:
        HeatSource(batch.name(row), Box(*batch.bounds[row].tolist()), power)
    with pytest.raises(GeometryError) as actual:
        power_density_field(mesh, batch)
    assert str(actual.value) == str(expected.value)
    assert batch.name(row).startswith(f"{onis[0].name}:")
