"""The face temperature of the NumPy rungs' anti-trapping current.

Under the frozen-temperature ansatz ``T = T(z, t)`` the kernels receive
one temperature per z slice; the anti-trapping flux needs it at the faces.
"""

from __future__ import annotations

import numpy as np

from repro.core.kernels.api import KernelContext

__all__ = ["face_temperature"]


def face_temperature(ctx: KernelContext, t_ghost: np.ndarray, k: int) -> np.ndarray:
    """Temperature at the faces along axis *k*, broadcastable over faces.

    Isotherms are orthogonal to the last axis: for transverse axes the
    face temperature equals the slice temperature; for the growth axis it
    is the mean of the two adjacent slices (``nz + 1`` faces).
    """
    t_ghost = np.asarray(t_ghost, dtype=float)
    if k == ctx.dim - 1:
        t_face = 0.5 * (t_ghost[:-1] + t_ghost[1:])
        return t_face.reshape((1,) * (ctx.dim - 1) + t_face.shape)
    return ctx.broadcast_slices(t_ghost[1:-1])
