"""Boundary conditions of the thermal problem.

Three kinds are supported on each of the six faces of the mesh bounding box:

* ``adiabatic`` — no heat flow (the default for lateral faces);
* ``convective`` — Newton cooling towards an ambient temperature through an
  effective heat-transfer coefficient (models the heat sink + fan on top and
  the board on the bottom);
* ``dirichlet`` — fixed temperature, possibly varying along the face (used by
  the zoom solver, which imposes the coarse solution on the cut faces).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Union

import numpy as np

from ..errors import SolverError

#: Face identifiers, named by the outward normal direction.
FACES = ("x_min", "x_max", "y_min", "y_max", "z_min", "z_max")

#: Signature of a spatially varying Dirichlet temperature [degC].  It is
#: called once per face with the x, y and z coordinate arrays of all the
#: face centres and returns their temperatures: an array of the same shape,
#: or a scalar for a uniform face.
TemperatureField = Callable[
    [np.ndarray, np.ndarray, np.ndarray], Union[float, np.ndarray]
]


@dataclass(frozen=True)
class FaceCondition:
    """Boundary condition applied to one face of the domain."""

    kind: str
    ambient_c: float = 0.0
    coefficient_w_m2k: float = 0.0
    temperature_field: Optional[TemperatureField] = None

    def __post_init__(self) -> None:
        if self.kind not in ("adiabatic", "convective", "dirichlet"):
            raise SolverError(
                f"unknown boundary condition kind {self.kind!r}; expected "
                "'adiabatic', 'convective' or 'dirichlet'"
            )
        if self.kind == "convective" and self.coefficient_w_m2k <= 0.0:
            raise SolverError(
                "convective boundary requires a positive heat-transfer coefficient"
            )
        if self.kind == "dirichlet" and self.temperature_field is None:
            raise SolverError("dirichlet boundary requires a temperature field")

    @classmethod
    def adiabatic(cls) -> "FaceCondition":
        """No heat flow through the face."""
        return cls(kind="adiabatic")

    @classmethod
    def convective(cls, ambient_c: float, coefficient_w_m2k: float) -> "FaceCondition":
        """Newton cooling towards ``ambient_c`` with coefficient ``h``."""
        return cls(
            kind="convective",
            ambient_c=ambient_c,
            coefficient_w_m2k=coefficient_w_m2k,
        )

    @classmethod
    def fixed_temperature(cls, temperature_c: float) -> "FaceCondition":
        """Uniform fixed temperature on the face."""
        return cls(
            kind="dirichlet",
            temperature_field=lambda x, y, z, value=temperature_c: value,
        )

    @classmethod
    def dirichlet(cls, field: TemperatureField) -> "FaceCondition":
        """Spatially varying fixed temperature on the face."""
        return cls(kind="dirichlet", temperature_field=field)


class BoundaryConditions:
    """Boundary conditions for all six faces of the domain."""

    def __init__(self, default: Optional[FaceCondition] = None) -> None:
        default = default or FaceCondition.adiabatic()
        self._faces: Dict[str, FaceCondition] = {face: default for face in FACES}

    def set_face(self, face: str, condition: FaceCondition) -> None:
        """Assign ``condition`` to ``face`` (one of :data:`FACES`)."""
        if face not in FACES:
            raise SolverError(f"unknown face {face!r}; expected one of {FACES}")
        self._faces[face] = condition

    def face(self, face: str) -> FaceCondition:
        """Condition applied to ``face``."""
        if face not in FACES:
            raise SolverError(f"unknown face {face!r}; expected one of {FACES}")
        return self._faces[face]

    def has_fixed_reference(self) -> bool:
        """Whether at least one face pins the temperature (convective/dirichlet).

        A problem with only adiabatic faces and non-zero power has no
        steady-state solution; the solver refuses it upfront.
        """
        return any(
            condition.kind in ("convective", "dirichlet")
            for condition in self._faces.values()
        )

    @classmethod
    def package_default(
        cls,
        ambient_c: float,
        top_coefficient_w_m2k: float,
        bottom_coefficient_w_m2k: float = 0.0,
    ) -> "BoundaryConditions":
        """Typical package setup: heat sink on top, optional board path below,
        adiabatic lateral faces."""
        conditions = cls()
        conditions.set_face(
            "z_max", FaceCondition.convective(ambient_c, top_coefficient_w_m2k)
        )
        if bottom_coefficient_w_m2k > 0.0:
            conditions.set_face(
                "z_min",
                FaceCondition.convective(ambient_c, bottom_coefficient_w_m2k),
            )
        return conditions
