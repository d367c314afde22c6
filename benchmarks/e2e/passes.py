"""One end-to-end pass of one workload, inside a worker process."""

from __future__ import annotations

import os
import resource
import time
from pathlib import Path

import numpy as np

from benchmarks.e2e import workloads as W
from benchmarks.e2e.spans import SpanRecorder

#: End-to-end passes run with the harness's spans off.
NO_SPANS = SpanRecorder("", enabled=False)


def assert_pinned(runner: W.Runner) -> dict:
    """Refuse to measure in an environment the harness rules exclude, or
    on a kernel rung that fell back to its NumPy twin."""
    if runner.kernel != runner.wl.kernel:
        raise RuntimeError(
            f"kernel rung {runner.wl.kernel!r} fell back to {runner.kernel!r}"
        )
    leaked = sorted(k for k in os.environ if k.startswith("REPRO_"))
    if leaked:
        raise RuntimeError(f"REPRO_* variables reached the worker: {leaked}")
    if os.environ.get("OMP_NUM_THREADS") != "1":
        raise RuntimeError("worker must run with OMP_NUM_THREADS=1")
    from repro.core.kernels import compiled

    backend = compiled.backend_name()
    threads = 1
    if backend == "cffi":
        from repro.core.kernels.compiled import cffi_backend

        threads = cffi_backend.num_threads()
        if threads != 1:
            raise RuntimeError(f"cffi kernels would use {threads} threads")
    return {"compiled_backend": backend, "kernel_threads": threads}


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for.

    This process's own peak is ``VmHWM``: ``ru_maxrss`` would also count
    the driver's memory at the moment it forked the worker.
    """
    own_kib = 0
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            own_kib = int(line.split()[1])
    children_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own_kib, children_kib) / 1024.0


class SegmentLog:
    """Runs a worker's segments and keeps the failure accounting.

    A segment fails if it raises, leaves a non-finite or off-simplex
    field, or - the first one, which ends 1 + S steps after the inputs -
    differs from the serial reference.  Checks run after the clock has
    stopped.
    """

    def __init__(self, spec: dict, runner: W.Runner) -> None:
        self.spec = spec
        self.runner = runner
        self.errors: list[str] = []
        self.verify: dict = {}
        self.attempted = 0
        self.failed = 0

    def run(self, rec: SpanRecorder = NO_SPANS) -> float | None:
        """One segment; its wall seconds, or ``None`` if it failed."""
        runner = self.runner
        self.attempted += 1
        problem = None
        t0 = time.perf_counter()
        with rec.span("segment", segment=self.attempted):
            try:
                runner.segment()
            except Exception as exc:  # a failed segment is a counted outcome
                problem = repr(exc)
        wall = time.perf_counter() - t0  # includes what the span costs
        with rec.span("verify", segment=self.attempted):
            if not problem:
                problem = W.check_state(runner.phi, runner.mu)
            if not problem and self.attempted == 1 and self.spec.get("reference"):
                problem = self._verify()
        if problem:
            self.errors.append(f"segment {self.attempted}: {problem}")
            self.failed += 1
            return None
        return wall

    def _verify(self) -> str | None:
        with np.load(self.spec["reference"]) as ref:
            problem, err_phi, err_mu = W.compare_with_reference(
                self.runner.wl, self.runner.phi, self.runner.mu,
                ref["phi"], ref["mu"],
            )
        self.verify = {"max_abs_err_phi": err_phi, "max_abs_err_mu": err_mu}
        return problem

    def outcome(self) -> dict:
        return {
            "attempted": self.attempted, "failed": self.failed,
            "errors": self.errors, "verify": self.verify,
            "peak_rss_mb": peak_rss_mb(),
        }


def cold_setup(spec: dict):
    """``(runner, seconds)``: import repro, construct, first 1-step segment."""
    wl = W.BY_NAME[spec["workload"]]
    with np.load(spec["inputs"]) as data:
        phi0, mu0 = data["phi"], data["mu"]
    t0 = time.perf_counter()
    import repro  # noqa: F401  (timed: part of set-up)

    runner = W.Runner(wl, phi0, mu0, Path(spec["tmp"]))
    runner.segment(1)
    return runner, time.perf_counter() - t0


def run_setup(spec: dict) -> dict:
    """Set up cold and stop: one more sample of set-up time."""
    runner, setup_s = cold_setup(spec)
    return {"workload": runner.wl.name, "setup_s": setup_s,
            "attempted": 0, "failed": 0, "errors": [], **assert_pinned(runner)}


def run_pass(spec: dict) -> dict:
    """Set up cold, warm up, then time segments for ``budget_s`` seconds."""
    runner, setup_s = cold_setup(spec)
    info = assert_pinned(runner)
    if spec.get("corrupt"):
        runner.poison()  # harness self-test: must be counted as a failure
    log = SegmentLog(spec, runner)
    walls: list[float] = []
    deadline = time.perf_counter() + spec["budget_s"]
    for _ in range(spec["warmups"]):
        log.run()
    timed = 0
    # a broken state fails every later segment too: stop after three
    while log.failed < 3 and (
        timed < spec["min_timed"] or time.perf_counter() < deadline
    ):
        wall = log.run()
        timed += 1
        if wall is not None:
            walls.append(wall)
    return {
        "workload": runner.wl.name, "setup_s": setup_s, "segment_s": walls,
        **log.outcome(), **info,
    }
