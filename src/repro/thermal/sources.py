"""Heat sources and their projection onto the thermal mesh.

A heat source is a box (footprint x z-range) dissipating a given power.  The
power is distributed over the mesh cells proportionally to the overlap
volume so that total power is conserved regardless of the mesh resolution —
the same scheme used by finite-volume simulators such as IcTherm when the
source geometry does not line up with the mesh.

The thermal layer works on :class:`SourceBatch`, sources as arrays: box
bounds ``(n, 6)``, powers ``(n,)``, group tags and names.  A batch keeps the
overlaps of its boxes with the last mesh it was deposited on, and the
batches derived from it (:meth:`SourceBatch.take`,
:meth:`SourceBatch.concatenate`) slice those overlaps instead of recomputing
them, so geometry compiled once (e.g. every ONI device of a design flow)
serves every request that only changes powers.  :class:`HeatSource` is the
object view of one row, accepted and returned at the API edge.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import GeometryError, SolverError
from ..geometry import Box, Rect
from ..geometry.box import box_bounds
from .mesh import BoxOverlaps, Mesh3D


@dataclass(frozen=True)
class HeatSource:
    """A rectangular volumetric heat source.

    Attributes
    ----------
    name:
        Identifier, used in reports and error messages.
    box:
        Region over which the power is dissipated.
    power_w:
        Total dissipated power [W]; must be >= 0.
    group:
        Optional tag ("chip", "vcsel", "heater", "driver"...) used to scale or
        filter sources collectively.
    """

    name: str
    box: Box
    power_w: float
    group: str = "chip"

    def __post_init__(self) -> None:
        if not self.name:
            raise GeometryError("heat source name must be non-empty")
        if self.power_w < 0.0:
            raise GeometryError(
                f"heat source {self.name!r}: power must be >= 0, got {self.power_w!r}"
            )
        if self.box.volume <= 0.0:
            raise GeometryError(
                f"heat source {self.name!r}: the source box must have a positive volume"
            )

    @classmethod
    def from_rect(
        cls,
        name: str,
        rect: Rect,
        z_min: float,
        z_max: float,
        power_w: float,
        group: str = "chip",
    ) -> "HeatSource":
        """Build a source from a footprint and a z-range."""
        return cls(name=name, box=Box.from_rect(rect, z_min, z_max), power_w=power_w, group=group)

    def with_power(self, power_w: float) -> "HeatSource":
        """Copy of the source with a different power."""
        return replace(self, power_w=power_w)

    def scaled(self, factor: float) -> "HeatSource":
        """Copy of the source with the power multiplied by ``factor``."""
        if factor < 0.0:
            raise GeometryError("scaling factor must be >= 0")
        return replace(self, power_w=self.power_w * factor)


class SourceBatch:
    """Heat sources as arrays: the collection type of the thermal layer.

    Row ``i`` dissipates ``powers[i]`` W over the box ``bounds[i]`` (columns
    in :class:`~repro.geometry.Box` field order), tagged ``groups[i]`` and
    named ``"<owners[i]>:<labels[i]>"`` (``labels[i]`` for an empty owner),
    joined only when a message or a :class:`HeatSource` needs the name.
    The checks of :class:`HeatSource` run where rows are deposited
    (:meth:`validate`), so compiled geometry may hold rows no request powers.
    """

    def __init__(self, bounds, powers, groups, owners, labels) -> None:
        self.bounds = np.asarray(bounds, dtype=float).reshape(-1, 6)
        self.powers = np.asarray(powers, dtype=float).reshape(-1)
        self.groups, self.owners, self.labels = (
            np.array(column, dtype=object).reshape(-1)
            for column in (groups, owners, labels)
        )
        #: Derives the overlaps with a mesh from the batches this one was
        #: cut from; ``None`` computes them from the bounds.
        self._derive: Optional[Callable[[Mesh3D], BoxOverlaps]] = None
        self._memo: Optional[Tuple[Mesh3D, BoxOverlaps]] = None

    @classmethod
    def of(cls, sources: Union["SourceBatch", Iterable[HeatSource]]) -> "SourceBatch":
        """``sources`` as a batch: a batch passes through, objects convert."""
        if isinstance(sources, SourceBatch):
            return sources
        listed = list(sources)
        return cls(
            box_bounds([source.box for source in listed]),
            [source.power_w for source in listed],
            [source.group for source in listed],
            [""] * len(listed),
            [source.name for source in listed],
        )

    def __len__(self) -> int:
        return self.powers.size

    def __iter__(self) -> Iterator[HeatSource]:
        return iter(self.heat_sources())

    def name(self, index: int) -> str:
        """Name of row ``index``."""
        owner, label = self.owners[index], self.labels[index]
        return f"{owner}:{label}" if owner else label

    def heat_sources(self) -> List[HeatSource]:
        """The rows as :class:`HeatSource` objects (checked on construction)."""
        rows = zip(self.bounds.tolist(), self.powers.tolist(), self.groups)
        return [
            HeatSource(self.name(index), Box(*bounds), power, group)
            for index, (bounds, power, group) in enumerate(rows)
        ]

    @property
    def volumes(self) -> np.ndarray:
        """Box volumes ``(n,)``, with the arithmetic of :attr:`Box.volume`."""
        b = self.bounds
        return (b[:, 3] - b[:, 0]) * (b[:, 4] - b[:, 1]) * (b[:, 5] - b[:, 2])

    def validate(self) -> None:
        """Raise :class:`GeometryError` at the first row a :class:`HeatSource`
        would reject: a negative power, then a box without volume."""
        bad = np.flatnonzero((self.powers < 0.0) | (self.volumes <= 0.0))
        if bad.size:
            name, power = self.name(bad[0]), float(self.powers[bad[0]])
            raise GeometryError(
                f"heat source {name!r}: power must be >= 0, got {power!r}"
                if power < 0.0
                else f"heat source {name!r}: the source box must have a positive volume"
            )

    def overlaps(self, mesh: Mesh3D) -> BoxOverlaps:
        """Overlaps of the source boxes with ``mesh`` (kept for the last mesh)."""
        if self._memo is None or self._memo[0] is not mesh:
            derive = self._derive or (lambda mesh: mesh.box_overlaps(self.bounds))
            self._memo = (mesh, derive(mesh))
        return self._memo[1]

    def take(self, rows: np.ndarray, powers: Optional[np.ndarray] = None) -> "SourceBatch":
        """Rows ``rows`` of the batch, with new ``powers`` (one per row) if
        given; their overlaps are cut from this batch's."""
        batch = SourceBatch(
            self.bounds[rows],
            self.powers[rows] if powers is None else powers,
            *(column[rows] for column in (self.groups, self.owners, self.labels)),
        )
        batch._derive = lambda mesh: self.overlaps(mesh).take(rows)
        return batch

    @staticmethod
    def concatenate(batches: Sequence["SourceBatch"]) -> "SourceBatch":
        """The rows of every batch in turn; when one of them has overlaps to
        reuse, the result's are joined from theirs."""
        names = ("bounds", "powers", "groups", "owners", "labels")
        batch = SourceBatch(
            *(np.concatenate([getattr(part, name) for part in batches]) for name in names)
        )
        if any(part._derive or part._memo for part in batches):
            batch._derive = lambda mesh: BoxOverlaps.concatenate(
                [part.overlaps(mesh) for part in batches]
            )
        return batch


def power_density_field(
    mesh: Mesh3D, sources: Union[SourceBatch, Iterable[HeatSource]]
) -> np.ndarray:
    """Per-cell dissipated power [W], shape ``(nx, ny, nz)``.

    Power of each source is split over cells proportionally to the overlap
    volume, all sources in one batched deposit (:meth:`Mesh3D.box_overlaps`,
    served by :meth:`SourceBatch.overlaps`); zero-power rows are skipped.
    A source entirely outside the mesh raises :class:`SolverError` because
    silently dropping power would corrupt the energy balance.
    """
    batch = SourceBatch.of(sources)
    batch.validate()
    powered = np.flatnonzero(batch.powers != 0.0)
    overlaps = batch.overlaps(mesh)
    if powered.size < len(batch):
        overlaps = overlaps.take(powered)
    outside = overlaps.first_empty()
    if outside is not None:
        raise SolverError(
            f"heat source {batch.name(int(powered[outside]))!r} does not overlap "
            "the thermal mesh"
        )
    return overlaps.deposit(batch.powers[powered] / overlaps.volumes)
