"""``repro.settings``: every ``REPRO_*`` name, parsed once per world."""

import json
import re
from pathlib import Path

import pytest

from repro.distributed import DistributedSimulation
from repro.settings import Settings
from repro.simmpi import open_world

SRC = Path(__file__).resolve().parent.parent / "src"

#: name -> (accessor, valid value, its setting, setting when empty,
#: outcome of "off", a malformed value or None when every value is
#: accepted).  An outcome of ``ValueError`` means the value is rejected.
CASES = {
    "REPRO_SIMMPI_BACKEND": (
        lambda s: s.backend, "process", "process", "thread", ValueError,
        "fibers"),
    "REPRO_SIMMPI_TIMEOUT": (
        lambda s: s.deadlines.default, "2.5", 2.5, None, None, "fast"),
    **{
        f"REPRO_SIMMPI_TIMEOUT_{op.upper()}": (
            lambda s, op=op: s.deadlines.limit(op), "0.5", 0.5, None, None,
            "soon")
        for op in ("recv", "send", "barrier")
    },
    "REPRO_SIMMPI_HANG_TIMEOUT": (
        lambda s: s.watchdog.hang_timeout, "2", 2.0, None, None, "never"),
    "REPRO_SIMMPI_HEARTBEAT": (
        lambda s: s.watchdog.heartbeat, "0.1", 0.1, 0.25, 0.25, "often"),
    "REPRO_TRACE": (lambda s: s.trace, "1", True, False, False, None),
    "REPRO_KERNEL_BACKEND": (
        lambda s: s.kernel_backend, "cffi", "cffi", "auto", "none",
        "turbofan"),
    "REPRO_COMPILED_CACHE": (
        lambda s: s.compiled_cache, "/tmp/kernels", "/tmp/kernels", None,
        "off", None),
}


def _outcome(name, raw, expected):
    get = CASES[name][0]
    if expected is ValueError:
        with pytest.raises(ValueError, match=name):
            Settings.from_env({name: raw})
    else:
        assert get(Settings.from_env({name: raw})) == expected


@pytest.mark.parametrize("name", sorted(CASES))
def test_valid_value(name):
    _, raw, expected, *_ = CASES[name]
    _outcome(name, raw, expected)


@pytest.mark.parametrize("name", sorted(CASES))
def test_empty_value_means_unset(name):
    get, _, _, empty, *_ = CASES[name]
    assert get(Settings.from_env({})) == empty
    _outcome(name, "", empty)


@pytest.mark.parametrize("name", sorted(CASES))
def test_off(name):
    _outcome(name, "off", CASES[name][4])


@pytest.mark.parametrize(
    "name", sorted(n for n, case in CASES.items() if case[5] is not None)
)
def test_malformed_value_names_the_variable(name):
    _outcome(name, CASES[name][5], ValueError)


def test_cases_cover_every_name_read_in_src():
    text = (SRC / "repro" / "settings.py").read_text()
    named = set(re.findall(r'"(REPRO_[A-Z_]*[A-Z])"', text))
    per_op = {n for n in CASES if n.startswith("REPRO_SIMMPI_TIMEOUT_")}
    assert set(CASES) - per_op == named


def test_heartbeat_defaults_to_a_quarter_of_the_hang_timeout():
    watchdog = Settings.from_env({"REPRO_SIMMPI_HANG_TIMEOUT": "2"}).watchdog
    assert watchdog.enabled and watchdog.heartbeat == 0.5


def test_as_dict_is_json_ready():
    record = Settings.from_env({"REPRO_SIMMPI_TIMEOUT": "3",
                                "REPRO_SIMMPI_TIMEOUT_RECV": "off"}).as_dict()
    assert json.loads(json.dumps(record)) == record
    assert record["timeout"] == {"recv": None, "send": 3.0, "barrier": 3.0}


@pytest.mark.parametrize("name", ["REPRO_SIMMPI_TIMEOUT_RECIEVE",
                                  "REPRO_SIMMPI_TIMEOUT_SHRINK"])
def test_unknown_deadline_operation_is_rejected(name):
    with pytest.raises(ValueError, match=name) as info:
        Settings.from_env({name: "5"})
    assert "RECV|SEND|BARRIER" in str(info.value)
    # an empty value means unset, for a misspelt name too
    assert Settings.from_env({name: ""}).deadlines.enabled is False


def test_only_settings_reads_the_environment():
    readers = sorted(
        str(path.relative_to(SRC)) for path in SRC.rglob("*.py")
        if re.search(r"os\.environ|getenv", path.read_text())
    )
    assert readers == ["repro/settings.py"]


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_a_world_keeps_the_settings_it_opened_with(backend, monkeypatch):
    monkeypatch.setenv("REPRO_SIMMPI_TIMEOUT", "5")
    world = open_world(2, backend)
    try:
        assert world.settings.backend == backend
        monkeypatch.setenv("REPRO_SIMMPI_TIMEOUT", "7")
        seen = world.call(
            lambda comm: (comm.settings.as_dict(), comm.deadlines.limit("recv"))
        )
    finally:
        world.close()
    assert seen == [(world.settings.as_dict(), 5.0)] * 2


def test_backend_variable_reaches_distributed_simulation(monkeypatch):
    from repro.core.nucleation import voronoi_initial_condition
    from repro.telemetry import RunTelemetry
    from repro.telemetry.report import validate_run_report
    from repro.thermo.system import TernaryEutecticSystem

    monkeypatch.setenv("REPRO_SIMMPI_BACKEND", "process")
    system = TernaryEutecticSystem()
    phi0, mu0 = voronoi_initial_condition(system, (8, 12), solid_height=4,
                                          n_seeds=3)
    with DistributedSimulation((8, 12), (2, 1), system=system) as sim:
        res = sim.run(2, phi0, mu0, telemetry=RunTelemetry())
    validate_run_report(res.report)
    assert res.report["config"]["backend"] == "process"
    assert res.report["config"]["settings"] == sim.settings.as_dict()
    assert sim.settings.backend == "process"
