"""User-facing configuration objects.

:class:`TechnologyParameters` captures the paper's Table 1 plus the handful of
other technology anchors quoted in the text; :class:`SimulationSettings`
captures numerical knobs of the thermal solver (mesh resolutions, tolerances)
that trade accuracy for runtime.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict
from typing import Any, Dict

from . import constants
from .errors import ConfigurationError


@dataclass(frozen=True)
class TechnologyParameters:
    """Photonic technology parameters (paper Table 1 and Section III).

    Attributes
    ----------
    wavelength_nm:
        Nominal operating wavelength of the interconnect.
    mr_bandwidth_3db_nm:
        3 dB bandwidth (FWHM) of the microring drop response.
    photodetector_sensitivity_dbm:
        Minimum detectable optical power at the photodetector.
    thermal_sensitivity_nm_per_c:
        Thermo-optic drift of the microring resonance per degree Celsius.
    propagation_loss_db_per_cm:
        Waveguide propagation loss.
    vcsel_linewidth_nm:
        3 dB bandwidth of the VCSEL emission (assumed << MR bandwidth).
    taper_coupling_efficiency:
        Fraction of the VCSEL output coupled into the horizontal waveguide.
    max_oni_gradient_c:
        Maximum tolerated intra-ONI temperature gradient.
    channel_spacing_nm:
        Wavelength spacing between adjacent WDM channels on a waveguide.
    mr_drop_loss_db:
        Insertion loss of an aligned drop operation.
    mr_through_loss_db:
        Insertion loss seen by a signal passing a far-detuned microring.
    """

    wavelength_nm: float = constants.DEFAULT_WAVELENGTH_NM
    mr_bandwidth_3db_nm: float = constants.DEFAULT_MR_BANDWIDTH_3DB_NM
    photodetector_sensitivity_dbm: float = (
        constants.DEFAULT_PHOTODETECTOR_SENSITIVITY_DBM
    )
    thermal_sensitivity_nm_per_c: float = (
        constants.DEFAULT_THERMAL_SENSITIVITY_NM_PER_C
    )
    propagation_loss_db_per_cm: float = constants.DEFAULT_PROPAGATION_LOSS_DB_PER_CM
    vcsel_linewidth_nm: float = constants.DEFAULT_VCSEL_LINEWIDTH_NM
    taper_coupling_efficiency: float = constants.DEFAULT_TAPER_COUPLING_EFFICIENCY
    max_oni_gradient_c: float = constants.DEFAULT_MAX_ONI_GRADIENT_C
    channel_spacing_nm: float = 3.2
    mr_drop_loss_db: float = 0.5
    mr_through_loss_db: float = 0.01

    def __post_init__(self) -> None:
        if self.wavelength_nm <= 0.0:
            raise ConfigurationError("wavelength_nm must be positive")
        if self.mr_bandwidth_3db_nm <= 0.0:
            raise ConfigurationError("mr_bandwidth_3db_nm must be positive")
        if not 0.0 < self.taper_coupling_efficiency <= 1.0:
            raise ConfigurationError(
                "taper_coupling_efficiency must be in (0, 1], got "
                f"{self.taper_coupling_efficiency!r}"
            )
        if self.thermal_sensitivity_nm_per_c < 0.0:
            raise ConfigurationError("thermal_sensitivity_nm_per_c must be >= 0")
        if self.propagation_loss_db_per_cm < 0.0:
            raise ConfigurationError("propagation_loss_db_per_cm must be >= 0")
        if self.channel_spacing_nm <= 0.0:
            raise ConfigurationError("channel_spacing_nm must be positive")
        if self.max_oni_gradient_c <= 0.0:
            raise ConfigurationError("max_oni_gradient_c must be positive")
        if self.mr_drop_loss_db < 0.0 or self.mr_through_loss_db < 0.0:
            raise ConfigurationError("MR losses must be >= 0 dB")

    @property
    def photodetector_sensitivity_mw(self) -> float:
        """Photodetector sensitivity expressed in milliwatts."""
        return 10.0 ** (self.photodetector_sensitivity_dbm / 10.0)

    def detuning_for_temperature_difference(self, delta_t_c: float) -> float:
        """Wavelength misalignment (nm) caused by a temperature difference."""
        return self.thermal_sensitivity_nm_per_c * delta_t_c

    def temperature_difference_for_detuning(self, detuning_nm: float) -> float:
        """Temperature difference (degC) that produces a given misalignment."""
        if self.thermal_sensitivity_nm_per_c == 0.0:
            raise ConfigurationError(
                "thermal sensitivity is zero; detuning cannot be mapped back to "
                "a temperature difference"
            )
        return detuning_nm / self.thermal_sensitivity_nm_per_c

    def to_dict(self) -> Dict[str, Any]:
        """Return a plain-dict view (useful for reports and serialisation)."""
        return asdict(self)


#: Cell count up to which a steady solve factors its operator directly;
#: larger meshes take Jacobi-preconditioned conjugate gradients.
DIRECT_SOLVER_CELL_LIMIT = 300_000


@dataclass(frozen=True)
class SimulationSettings:
    """Numerical settings of the thermal simulation.

    The defaults are chosen so the full SCC-scale benchmarks run in seconds on
    a laptop; tightening the resolutions approaches the paper's IcTherm setup
    (5 um cells in the interface region, 100 um for the heat sources, 500 um
    for the package).
    """

    #: Target lateral cell size inside ONI regions [um].
    oni_cell_size_um: float = 40.0
    #: Target lateral cell size over the active die [um].
    die_cell_size_um: float = 1000.0
    #: Target lateral cell size of the zoom (device-level) solver [um].
    zoom_cell_size_um: float = 5.0
    #: Maximum number of cells the flat solver accepts before refusing.
    max_cells: int = 2_000_000
    #: Relative tolerance for iterative solves (when used).
    solver_rtol: float = 1.0e-8
    #: Use the direct sparse solver below this cell count, CG above it.
    direct_solver_cell_limit: int = DIRECT_SOLVER_CELL_LIMIT
    #: Ambient temperature of the environment [degC].
    ambient_temperature_c: float = 35.0
    #: Effective convective coefficient of the heat-sink + fan [W/(m^2 K)].
    heat_sink_coefficient_w_m2k: float = 2400.0
    #: Effective convective coefficient of the board-side boundary.
    board_coefficient_w_m2k: float = 15.0

    def __post_init__(self) -> None:
        for name in (
            "oni_cell_size_um",
            "die_cell_size_um",
            "zoom_cell_size_um",
        ):
            if getattr(self, name) <= 0.0:
                raise ConfigurationError(f"{name} must be positive")
        if self.max_cells <= 0:
            raise ConfigurationError("max_cells must be positive")
        if self.direct_solver_cell_limit <= 0:
            raise ConfigurationError("direct_solver_cell_limit must be positive")
        if self.solver_rtol <= 0.0:
            raise ConfigurationError("solver_rtol must be positive")
        if self.heat_sink_coefficient_w_m2k <= 0.0:
            raise ConfigurationError("heat_sink_coefficient_w_m2k must be positive")

    def to_dict(self) -> Dict[str, Any]:
        """Return a plain-dict view (useful for reports and serialisation)."""
        return asdict(self)


#: Module-level defaults, shared by examples and benchmarks.
DEFAULT_TECHNOLOGY = TechnologyParameters()
DEFAULT_SIMULATION = SimulationSettings()
