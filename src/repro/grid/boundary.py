"""Domain boundary handling: Dirichlet, Neumann and periodic conditions.

The directional-solidification setup of Fig. 2 uses periodic conditions in
the transverse directions, a no-flux (Neumann) condition at the solid
bottom and a Dirichlet condition at the liquid top (fresh melt at the
far-field chemical potential).

Handlers fill ghost layers from the interior; they are applied axis by
axis so edge/corner ghost cells receive consistent values (required by the
D3C19 accesses of the mu sweep).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Periodic", "Neumann", "Dirichlet", "BoundarySpec", "apply_boundaries"]


def _edge_slices(arr_ndim: int, dim: int, k: int, side: int, g: int):
    """(ghost, interior-edge) slice tuples for axis *k*, side 0=low/1=high."""
    ax = arr_ndim - dim + k
    ghost = [slice(None)] * arr_ndim
    edge = [slice(None)] * arr_ndim
    if side == 0:
        ghost[ax] = slice(0, g)
        edge[ax] = slice(g, 2 * g)
    else:
        ghost[ax] = slice(-g, None)
        edge[ax] = slice(-2 * g, -g)
    return tuple(ghost), tuple(edge)


# A handler fills the ghost layers of one side of one axis of a ghosted
# array: ``views`` picks the ghost slab and the slab it is filled from,
# ``fill`` computes it, and ``apply`` is the two together.  Exchange
# plans keep the views and call ``fill`` every step.


@dataclass(frozen=True)
class Periodic:
    """Wrap-around: the ghost layer copies the opposite interior edge.

    In multi-block/distributed runs the wrap is realized by the ghost
    exchange instead; this handler covers the single-block case.
    """

    def views(self, arr: np.ndarray, dim: int, k: int, side: int, g: int = 1):
        ax = arr.ndim - dim + k
        ghost, _ = _edge_slices(arr.ndim, dim, k, side, g)
        src = [slice(None)] * arr.ndim
        src[ax] = slice(-2 * g, -g) if side == 0 else slice(g, 2 * g)
        return arr[ghost], arr[tuple(src)]

    def fill(self, ghost: np.ndarray, source: np.ndarray) -> None:
        np.copyto(ghost, source)

    def apply(self, arr: np.ndarray, dim: int, k: int, side: int, g: int = 1) -> None:
        self.fill(*self.views(arr, dim, k, side, g))


@dataclass(frozen=True)
class Neumann:
    """Zero-gradient: the ghost layer mirrors the adjacent interior edge."""

    def views(self, arr: np.ndarray, dim: int, k: int, side: int, g: int = 1):
        ghost, edge = _edge_slices(arr.ndim, dim, k, side, g)
        return arr[ghost], arr[edge]

    def fill(self, ghost: np.ndarray, source: np.ndarray) -> None:
        np.copyto(ghost, source)

    def apply(self, arr: np.ndarray, dim: int, k: int, side: int, g: int = 1) -> None:
        self.fill(*self.views(arr, dim, k, side, g))


@dataclass(frozen=True)
class Dirichlet:
    """Fixed boundary value: linear extrapolation so the *face* value is
    exactly ``value`` (``ghost = 2 v - interior_edge``).

    ``value`` may be a scalar or per-component array of shape ``(C,)``.
    """

    value: object = 0.0

    def views(self, arr: np.ndarray, dim: int, k: int, side: int, g: int = 1):
        ghost, edge = _edge_slices(arr.ndim, dim, k, side, g)
        return arr[ghost], arr[edge]

    def fill(self, ghost: np.ndarray, source: np.ndarray) -> None:
        v = np.asarray(self.value, dtype=ghost.dtype)
        if v.ndim == 1:
            v = v.reshape((-1,) + (1,) * (ghost.ndim - 1))
        np.subtract(2.0 * v, source, out=ghost)

    def apply(self, arr: np.ndarray, dim: int, k: int, side: int, g: int = 1) -> None:
        self.fill(*self.views(arr, dim, k, side, g))


@dataclass(frozen=True)
class BoundarySpec:
    """Per-axis, per-side boundary handlers for one field.

    ``handlers[k] = (low, high)`` for spatial axis *k*.  Periodic handlers
    must come in matching pairs.
    """

    handlers: tuple

    def __post_init__(self) -> None:
        for k, (lo, hi) in enumerate(self.handlers):
            if isinstance(lo, Periodic) != isinstance(hi, Periodic):
                raise ValueError(
                    f"axis {k}: periodic boundaries must be paired on both sides"
                )

    @property
    def dim(self) -> int:
        return len(self.handlers)

    def periodic_axes(self) -> tuple[int, ...]:
        """Axes with periodic wrap."""
        return tuple(
            k for k, (lo, _) in enumerate(self.handlers) if isinstance(lo, Periodic)
        )

    @classmethod
    def directional(
        cls, dim: int, *, bottom=None, top=None
    ) -> "BoundarySpec":
        """Fig.-2 defaults: periodic transverse, Neumann bottom, configurable top."""
        bottom = Neumann() if bottom is None else bottom
        top = Neumann() if top is None else top
        handlers = tuple(
            (Periodic(), Periodic()) for _ in range(dim - 1)
        ) + ((bottom, top),)
        return cls(handlers=handlers)


def apply_boundaries(arr: np.ndarray, spec: BoundarySpec, g: int = 1) -> None:
    """Fill all ghost layers of *arr* according to *spec*, axis by axis."""
    dim = spec.dim
    for k in range(dim):
        lo, hi = spec.handlers[k]
        lo.apply(arr, dim, k, 0, g)
        hi.apply(arr, dim, k, 1, g)
