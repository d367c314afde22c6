"""Every exception of the failure path survives a pickle round trip.

Process-backend ranks ship the exceptions they raise to the caller
pickled; a campaign reads their fields (``step``, ``rank``, ``kind``,
``failed_ranks``) and reports their text.  The round trip must keep the
type, the message and every field.
"""

import inspect
import pickle

import pytest

from repro.io import checkpoint
from repro.resilience import errors
from repro.simmpi import comm


def examples() -> list[BaseException]:
    """One instance of every exception class of the failure path, each
    with an attribute added after construction, as the runtime adds
    ``simmpi_rank``."""
    made = [
        checkpoint.CheckpointError("manifest CRC mismatch"),
        errors.InvariantViolation(["phase sum", "simplex"], step=6, rank=1),
        errors.DivergenceError(step=4, violations=["budget"], attempts=2),
        errors.InjectedFault("kill_rank", step=3, rank=1),
        comm.RemoteError("peer rank failed"),
        comm.RankFailure([1]),
        comm.RankTimeout("recv", 2.0, peers=(2, 1)),
    ]
    for exc in made:
        exc.note = ["added", 1]
    return made


def _classes(module) -> set[type]:
    return {
        obj for _name, obj in inspect.getmembers(module, inspect.isclass)
        if issubclass(obj, BaseException)
        and obj.__module__.startswith("repro.")
    }


def test_examples_cover_every_exception_class():
    classes = _classes(errors) | _classes(comm) | _classes(checkpoint)
    assert {type(exc) for exc in examples()} == classes


@pytest.mark.parametrize("exc", examples(), ids=lambda e: type(e).__name__)
def test_round_trip_keeps_type_message_and_fields(exc):
    got = pickle.loads(pickle.dumps(exc))
    assert type(got) is type(exc)
    assert str(got) == str(exc)
    assert got.args == exc.args
    assert got.__dict__ == exc.__dict__


@pytest.mark.parametrize("exc, text", [
    (comm.RankFailure([1]), "peer rank(s) [1] failed"),
    (errors.InjectedFault("kill_rank", step=3, rank=1),
     "injected fault 'kill_rank' at step 3 on rank 1"),
])
def test_messages_read_as_raised(exc, text):
    """The texts a campaign logs and reports are not nested or garbled."""
    assert str(pickle.loads(pickle.dumps(exc))) == text
