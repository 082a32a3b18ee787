"""Property tests of the batched box/mesh overlap (``Mesh3D.box_overlaps``).

Seeded random tensor meshes and boxes, with boxes straddling the mesh edge,
thin boxes, several boxes sharing cells and z-extents, and zero-power
sources, are checked against a cell-by-cell reference written with plain
loops.
"""

import numpy as np
import pytest

from repro.errors import AnalysisError, SolverError
from repro.geometry import Box
from repro.thermal import HeatSource, ThermalMap, power_density_field
from repro.thermal.mesh import Mesh3D
from repro.thermal import compile_probes

SEEDS = range(12)


def random_ticks(rng, lower, upper):
    inner = rng.uniform(lower, upper, size=rng.integers(2, 12))
    return np.unique(np.concatenate(([lower, upper], inner)))


def random_mesh(rng):
    ticks = [random_ticks(rng, 0.0, extent) for extent in (4.0e-3, 3.0e-3, 1.0e-3)]
    shape = tuple(t.size - 1 for t in ticks)
    return Mesh3D(*ticks, np.ones(shape), np.ones(shape))


def random_boxes(rng, mesh, count):
    """Boxes inside, across the edge of, and thin within the mesh."""
    bounds = mesh.bounding_box()
    lows = np.array([bounds.x_min, bounds.y_min, bounds.z_min])
    highs = np.array([bounds.x_max, bounds.y_max, bounds.z_max])
    span = highs - lows
    # A few shared z-extents, so the z-grouping carries several boxes.
    z_extents = [sorted(rng.uniform(lows[2], highs[2], size=2)) for _ in range(3)]
    boxes = []
    for index in range(count):
        kind = index % 4
        if kind == 0:  # inside
            a = rng.uniform(lows, highs)
            b = rng.uniform(lows, highs)
        elif kind == 1:  # straddling the mesh edge
            a = rng.uniform(lows - 0.3 * span, lows + 0.5 * span)
            b = a + rng.uniform(0.1, 0.6) * span
        elif kind == 2:  # thin along one axis
            a = rng.uniform(lows, highs)
            b = rng.uniform(lows, highs)
            axis = rng.integers(3)
            b[axis] = a[axis] + 1.0e-9 * span[axis]
        else:  # shares an existing box's cells and its z-extent
            base = boxes[rng.integers(len(boxes))]
            a = np.array([base.x_min, base.y_min, 0.0]) + rng.uniform(0, 1e-5, 3)
            b = np.array([base.x_max, base.y_max, 0.0])
            a[2], b[2] = z_extents[rng.integers(3)]
        low, high = np.minimum(a, b), np.maximum(a, b)
        high = np.maximum(high, low + 1.0e-12)
        boxes.append(Box(low[0], low[1], low[2], high[0], high[1], high[2]))
    return boxes


def reference_volumes(mesh, box):
    """Per-cell overlap volumes of ``box``, cell by cell."""
    lengths = []
    for ticks, lower, upper in (
        (mesh.x_ticks, box.x_min, box.x_max),
        (mesh.y_ticks, box.y_min, box.y_max),
        (mesh.z_ticks, box.z_min, box.z_max),
    ):
        lengths.append(
            np.array(
                [
                    max(0.0, min(upper, ticks[i + 1]) - max(lower, ticks[i]))
                    for i in range(ticks.size - 1)
                ]
            )
        )
    x, y, z = lengths
    return x[:, None, None] * y[None, :, None] * z[None, None, :]


def overlapping(mesh, boxes):
    return [box for box in boxes if reference_volumes(mesh, box).sum() > 0.0]


@pytest.mark.parametrize("seed", SEEDS)
def test_power_field_conserves_power_and_matches_reference(seed):
    rng = np.random.default_rng(seed)
    mesh = random_mesh(rng)
    boxes = overlapping(mesh, random_boxes(rng, mesh, 24))
    powers = rng.uniform(0.0, 2.0, size=len(boxes))
    powers[::5] = 0.0
    sources = [
        HeatSource(f"s{index}", box, float(power))
        for index, (box, power) in enumerate(zip(boxes, powers))
    ]
    field = power_density_field(mesh, sources)
    assert field.sum() == pytest.approx(powers.sum(), rel=1.0e-12)
    expected = np.zeros(mesh.shape)
    for box, power in zip(boxes, powers):
        volumes = reference_volumes(mesh, box)
        expected += volumes * (power / volumes.sum())
    np.testing.assert_allclose(
        field, expected, rtol=1.0e-12, atol=1.0e-14 * powers.sum()
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_batched_averages_match_single_box_queries(seed):
    rng = np.random.default_rng(seed)
    mesh = random_mesh(rng)
    boxes = overlapping(mesh, random_boxes(rng, mesh, 24))
    temperatures = rng.uniform(20.0, 90.0, size=mesh.shape)
    thermal_map = ThermalMap(mesh, temperatures)
    batched = thermal_map.averages_over(boxes)
    for box, average in zip(boxes, batched):
        volumes = reference_volumes(mesh, box)
        reference = float((volumes * temperatures).sum() / volumes.sum())
        assert average == pytest.approx(reference, rel=1.0e-12)
        assert average == pytest.approx(thermal_map.average_over(box), rel=1.0e-12)
        low, high = thermal_map.extrema_over(box)
        assert low == temperatures[volumes > 0.0].min()
        assert high == temperatures[volumes > 0.0].max()


@pytest.mark.parametrize("seed", SEEDS)
def test_probe_functional_is_the_mean_of_box_averages(seed):
    rng = np.random.default_rng(seed)
    mesh = random_mesh(rng)
    boxes = overlapping(mesh, random_boxes(rng, mesh, 8))
    temperatures = rng.uniform(20.0, 90.0, size=mesh.shape)
    functional = compile_probes(mesh, {"probe": boxes}).functionals["probe"]
    assert np.all(np.diff(functional.indices) > 0)
    assert functional.weights.sum() == pytest.approx(1.0, rel=1.0e-12)
    reference = np.mean(
        [
            (reference_volumes(mesh, box) * temperatures).sum()
            / reference_volumes(mesh, box).sum()
            for box in boxes
        ]
    )
    value = functional.value(temperatures.ravel())
    assert value == pytest.approx(reference, rel=1.0e-12)


def test_box_outside_the_mesh_is_named():
    rng = np.random.default_rng(0)
    mesh = random_mesh(rng)
    inside = Box(0.0, 0.0, 0.0, 1.0e-3, 1.0e-3, 1.0e-4)
    outside = Box(1.0, 1.0, 1.0, 2.0, 2.0, 2.0)
    sources = [
        HeatSource("inside", inside, 1.0),
        HeatSource("idle", outside, 0.0),
        HeatSource("stray", outside, 0.5),
    ]
    with pytest.raises(SolverError, match="'stray' does not overlap"):
        power_density_field(mesh, sources)
    # A zero-power source outside the mesh injects nothing and is skipped.
    assert power_density_field(mesh, sources[:2]).sum() == pytest.approx(1.0)
    with pytest.raises(SolverError, match="probe 'p'"):
        compile_probes(mesh, {"p": [inside, outside]})
    with pytest.raises(AnalysisError, match="does not overlap"):
        ThermalMap(mesh, np.zeros(mesh.shape)).averages_over([inside, outside])


def test_empty_batch():
    mesh = random_mesh(np.random.default_rng(1))
    assert power_density_field(mesh, []).sum() == 0.0
    assert ThermalMap(mesh, np.zeros(mesh.shape)).averages_over([]).size == 0
