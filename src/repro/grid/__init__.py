"""waLBerla-like block-structured grid substrate.

The paper's framework partitions the domain into equally sized *blocks*,
each carrying a regular grid extended by ghost layers; communication fills
the ghost layers from neighbouring blocks (or boundary conditions at the
domain edge).  This package provides:

* :mod:`repro.grid.field` — ghosted double-buffered fields,
* :mod:`repro.grid.boundary` — Dirichlet/Neumann/periodic handlers,
* :mod:`repro.grid.blockforest` — the block partition and neighbourhood,
* :mod:`repro.grid.balance` — block-to-process assignment.

The time step that runs over them (Algorithms 1 and 2) is
:mod:`repro.core.stepper`.
"""

from repro.grid.field import Field
from repro.grid.boundary import (
    BoundarySpec,
    Dirichlet,
    Neumann,
    Periodic,
    apply_boundaries,
)
from repro.grid.blockforest import Block, BlockForest

__all__ = [
    "Field",
    "BoundarySpec",
    "Dirichlet",
    "Neumann",
    "Periodic",
    "apply_boundaries",
    "Block",
    "BlockForest",
]
