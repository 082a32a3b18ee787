"""Optical Network Interface (ONI) layout generation.

Figure 1-b of the paper shows the chessboard-like ONI layout: four waveguides
cross the interface, and along each waveguide four transmitters (VCSEL above
a CMOS driver, fed through TSVs) and four receivers (passive microring with a
heater on top, next to a photodetector) are placed *alternately*, so the heat
generated by the VCSELs is spread as evenly as possible among the microrings.

The generator produces device placements relative to the ONI origin (its
lower-left corner); :class:`~repro.oni.interface.OpticalNetworkInterface`
instantiates them at an absolute position on the die.  A layout is
immutable and compiles once into arrays: the relative rects of its devices
and their kind codes, which every placement of the layout shares.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Tuple

import numpy as np

from .. import constants
from ..errors import GeometryError
from ..geometry import Rect
from ..units import um_to_m

#: Device kinds produced by the layout generator.
DEVICE_KINDS = ("vcsel", "microring", "photodetector", "heater", "driver")


@dataclass(frozen=True)
class DevicePlacement:
    """One device of the ONI, placed relative to the ONI origin."""

    name: str
    kind: str
    rect: Rect
    waveguide_index: int
    site_index: int
    role: str  # "tx" or "rx"

    def __post_init__(self) -> None:
        if self.kind not in DEVICE_KINDS:
            raise GeometryError(f"unknown device kind {self.kind!r}")
        if self.role not in ("tx", "rx"):
            raise GeometryError(f"role must be 'tx' or 'rx', got {self.role!r}")
        if self.waveguide_index < 0 or self.site_index < 0:
            raise GeometryError("indices must be >= 0")


@dataclass(frozen=True)
class OniLayoutParameters:
    """Geometric parameters of the chessboard ONI layout."""

    #: Number of waveguides crossing the ONI.
    waveguide_count: int = constants.DEFAULT_WAVEGUIDES_PER_ONI
    #: Number of transmitters (and receivers) per waveguide.
    lasers_per_waveguide: int = constants.DEFAULT_LASERS_PER_WAVEGUIDE
    #: VCSEL footprint (width, length) [um].
    vcsel_footprint_um: Tuple[float, float] = constants.VCSEL_FOOTPRINT_UM
    #: Microring diameter [um].
    mr_diameter_um: float = constants.MR_DIAMETER_UM
    #: Photodetector footprint (width, length) [um].
    photodetector_footprint_um: Tuple[float, float] = constants.PHOTODETECTOR_FOOTPRINT_UM
    #: Pitch between neighbouring device sites along a waveguide [um].
    site_pitch_um: float = 50.0
    #: Pitch between neighbouring waveguides [um].
    waveguide_pitch_um: float = 50.0
    #: Margin around the device array [um].
    margin_um: float = 20.0

    def __post_init__(self) -> None:
        if self.waveguide_count <= 0 or self.lasers_per_waveguide <= 0:
            raise GeometryError("waveguide and laser counts must be positive")
        if self.site_pitch_um <= 0.0 or self.waveguide_pitch_um <= 0.0:
            raise GeometryError("pitches must be positive")
        if self.margin_um < 0.0:
            raise GeometryError("margin must be >= 0")
        if self.site_pitch_um < max(self.vcsel_footprint_um[0], self.mr_diameter_um):
            raise GeometryError("site pitch is smaller than the largest device width")

    @property
    def sites_per_waveguide(self) -> int:
        """Total device sites per waveguide (transmitters + receivers)."""
        return 2 * self.lasers_per_waveguide

    @property
    def width_um(self) -> float:
        """ONI width (along the waveguides) [um]."""
        return 2.0 * self.margin_um + self.sites_per_waveguide * self.site_pitch_um

    @property
    def height_um(self) -> float:
        """ONI height (across the waveguides) [um]."""
        return 2.0 * self.margin_um + self.waveguide_count * self.waveguide_pitch_um


@dataclass(frozen=True)
class OniLayout:
    """Concrete set of device placements of one ONI (relative coordinates).

    Immutable, so the arrays compiled from it (:attr:`rects`,
    :attr:`kind_codes`) are computed once and never go stale.
    """

    parameters: OniLayoutParameters
    placements: Tuple[DevicePlacement, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "placements", tuple(self.placements))

    @cached_property
    def rects(self) -> np.ndarray:
        """Relative footprints ``(devices, 4)``: ``x_min, y_min, x_max, y_max``."""
        rects = [p.rect for p in self.placements]
        return np.array(
            [(r.x_min, r.y_min, r.x_max, r.y_max) for r in rects], dtype=float
        ).reshape(-1, 4)

    @cached_property
    def kind_codes(self) -> np.ndarray:
        """Kind of every placement, as an index into :data:`DEVICE_KINDS`."""
        return np.array([DEVICE_KINDS.index(p.kind) for p in self.placements], dtype=np.intp)

    @cached_property
    def _kind_indices(self) -> Dict[str, np.ndarray]:
        return {k: np.flatnonzero(self.kind_codes == c) for c, k in enumerate(DEVICE_KINDS)}

    def indices_of_kind(self, kind: str) -> np.ndarray:
        """Placement indices of the given kind, in layout order (do not mutate)."""
        if kind not in DEVICE_KINDS:
            raise GeometryError(f"unknown device kind {kind!r}")
        return self._kind_indices[kind]

    @property
    def footprint(self) -> Rect:
        """Bounding rectangle of the ONI, relative to its origin."""
        return Rect.from_size(
            0.0, 0.0, um_to_m(self.parameters.width_um), um_to_m(self.parameters.height_um)
        )

    def devices_of_kind(self, kind: str) -> List[DevicePlacement]:
        """All placements of the given kind."""
        return [self.placements[index] for index in self.indices_of_kind(kind)]

    def count_of_kind(self, kind: str) -> int:
        """Number of devices of the given kind."""
        return int(self.indices_of_kind(kind).size)

    def by_name(self) -> Dict[str, DevicePlacement]:
        """Mapping from placement name to placement."""
        return {placement.name: placement for placement in self.placements}


def _centered_rect(center_x_um: float, center_y_um: float, width_um: float, height_um: float) -> Rect:
    return Rect.from_center(
        um_to_m(center_x_um), um_to_m(center_y_um), um_to_m(width_um), um_to_m(height_um)
    )


def generate_chessboard_layout(
    parameters: Optional[OniLayoutParameters] = None,
) -> OniLayout:
    """Generate the chessboard ONI layout of Figure 1-b.

    Along each waveguide, even sites carry a transmitter (VCSEL + driver) and
    odd sites a receiver (microring + heater + photodetector); the pattern is
    shifted by one site on every other waveguide so transmitters of one
    waveguide are adjacent to receivers of the next one, spreading the VCSEL
    heat as evenly as possible.
    """
    params = parameters or OniLayoutParameters()
    placements: List[DevicePlacement] = []
    for waveguide in range(params.waveguide_count):
        row_center_y = (
            params.margin_um + (waveguide + 0.5) * params.waveguide_pitch_um
        )
        indices = {"tx": 0, "rx": 0}
        for site in range(params.sites_per_waveguide):
            site_center_x = params.margin_um + (site + 0.5) * params.site_pitch_um
            # Shift the alternation on odd waveguides (chessboard pattern).
            if (site + waveguide) % 2 == 0:
                role, letter, vcsel = "tx", "t", params.vcsel_footprint_um
                devices = [("vcsel", "vcsel", vcsel, 0.0), ("driver", "driver", vcsel, 0.0)]
            else:
                role, letter = "rx", "r"
                ring = (params.mr_diameter_um, params.mr_diameter_um)
                devices = [
                    ("mr", "microring", ring, 0.0),
                    ("heater", "heater", ring, 0.0),
                    # The photodetector sits one ring diameter below its ring.
                    ("pd", "photodetector", params.photodetector_footprint_um, ring[0]),
                ]
            for prefix, kind, (width_um, height_um), y_shift in devices:
                rect = _centered_rect(site_center_x, row_center_y - y_shift, width_um, height_um)
                name = f"{prefix}_w{waveguide}_{letter}{indices[role]}"
                placements.append(
                    DevicePlacement(name, kind, rect, waveguide, indices[role], role)
                )
            indices[role] += 1
    return OniLayout(parameters=params, placements=tuple(placements))
