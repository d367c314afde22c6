"""How the package's exceptions cross a process boundary.

The default exception pickle rebuilds by calling the class with
``args``, the formatted message: the text of a class whose constructor
formats one nests, and keyword-only constructors fail.  Process-backend
ranks ship their exceptions pickled, so the failure path's classes
rebuild from state instead (:class:`PicklableError`).
"""

from __future__ import annotations

__all__ = ["PicklableError"]


def _rebuild(cls, args, state):
    exc = cls.__new__(cls, *args)
    exc.__dict__.update(state)
    return exc


class PicklableError:
    """Exception mixin (listed before the exception base): a pickle
    keeps the type, ``args`` (hence ``str()``) and ``__dict__``, without
    running ``__init__``."""

    __slots__ = ()

    def __reduce__(self):
        return _rebuild, (type(self), self.args, self.__dict__)
