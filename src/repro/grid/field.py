"""Ghosted, double-buffered block fields.

Each model variable keeps two lattices (``src`` holding time ``t``, ``dst``
receiving ``t + dt``) exactly as described in Sec. 2.1; after both sweeps
the roles are swapped without copying.
"""

from __future__ import annotations

import numpy as np


class Field:
    """A multi-component cell field with ghost layers and two buffers.

    Parameters
    ----------
    n_components:
        Leading axis size (order parameters, chemical potentials, ...).
    spatial_shape:
        Interior cell counts per spatial axis.
    ghost:
        Ghost-layer width (1 suffices for the D3C7/D3C19 stencils).
    dtype:
        Storage dtype; computations run in float64, checkpoints may
        down-convert (Sec. 3.2).
    allocator:
        Optional ``allocator(shape, dtype) -> ndarray`` placing the two
        buffers in special memory.  ``None`` means plain heap arrays,
        which is what the solvers use on both simmpi backends: a process
        rank's ghost slabs leave its heap packed into pipe messages.
        Buffers are zeroed either way.
    """

    def __init__(
        self,
        n_components: int,
        spatial_shape: tuple[int, ...],
        ghost: int = 1,
        dtype=np.float64,
        allocator=None,
    ):
        if n_components < 1:
            raise ValueError("need at least one component")
        if any(s < 1 for s in spatial_shape):
            raise ValueError(f"invalid spatial shape {spatial_shape}")
        self.n_components = n_components
        self.spatial_shape = tuple(spatial_shape)
        self.ghost = ghost
        gshape = tuple(s + 2 * ghost for s in spatial_shape)
        full = (n_components,) + gshape
        if allocator is None:
            self.src = np.zeros(full, dtype=dtype)
            self.dst = np.zeros(full, dtype=dtype)
        else:
            self.src = allocator(full, dtype)
            self.dst = allocator(full, dtype)
            self.src.fill(0)
            self.dst.fill(0)

    @property
    def dim(self) -> int:
        """Number of spatial axes."""
        return len(self.spatial_shape)

    @property
    def ghosted_shape(self) -> tuple[int, ...]:
        """Spatial shape including ghost layers."""
        return self.src.shape[1:]

    def _interior_slices(self) -> tuple[slice, ...]:
        g = self.ghost
        return (slice(None),) + tuple(slice(g, -g) for _ in self.spatial_shape)

    @property
    def interior_src(self) -> np.ndarray:
        """Interior view of the current-time buffer."""
        return self.src[self._interior_slices()]

    @property
    def interior_dst(self) -> np.ndarray:
        """Interior view of the next-time buffer."""
        return self.dst[self._interior_slices()]

    def swap(self) -> None:
        """Exchange the roles of ``src`` and ``dst`` (no copy)."""
        self.src, self.dst = self.dst, self.src

    def set_interior(self, values: np.ndarray, buffer: str = "src") -> None:
        """Write *values* (interior-shaped) into the chosen buffer."""
        target = getattr(self, buffer)
        target[self._interior_slices()] = values

    def copy(self) -> "Field":
        """Deep copy (checkpointing, moving-window snapshots)."""
        f = Field(self.n_components, self.spatial_shape, self.ghost, self.src.dtype)
        f.src[...] = self.src
        f.dst[...] = self.dst
        return f
