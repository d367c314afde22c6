"""Whole-step benchmark driver.

    python3 benchmarks/e2e/run.py [--seed N] [--workload NAME] [--quick]
    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds T --trace 0|1

Without ``--trace`` it runs the end-to-end passes *and* the layer pass of
every selected workload, prints every metric with its unit, the per-layer
budget table and the derived scaling numbers, and writes
``results/latest.json`` plus ``results/trace-<workload>.json``.
``--trace 0`` runs only the end-to-end passes, ``--trace 1`` only the
layer pass.  With ``--workload`` and ``--trace`` it is the form the
pipeline calls: the result as one JSON object on the last line of
standard output.

Each workload is a closed loop with one client: the next segment starts
when the previous one has returned.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
RESULTS = HERE / "results"
for entry in (str(ROOT), str(SRC)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import numpy as np  # noqa: E402

from benchmarks.e2e import workloads as W  # noqa: E402
from benchmarks.e2e.layers import budget_rows  # noqa: E402
from benchmarks.e2e.spans import self_times, write_json  # noqa: E402
from benchmarks.e2e.stats import (  # noqa: E402
    MIN_SAMPLES_BEYOND, percentile, quiet, samples_beyond, spread,
)

#: Seconds one run measures when ``--seconds`` is not given; equals
#: ``run_seconds`` of BENCHMARK.json.
DEFAULT_SECONDS = 20.0
#: Hard limit on one worker process.
WORKER_TIMEOUT_S = 170


def pin_environment() -> None:
    """One kernel thread per rank and no ``REPRO_*`` switch, for this
    process and every worker it starts (ranks x threads <= cores)."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ["OMP_NUM_THREADS"] = "1"
    os.environ["PYTHONPATH"] = os.pathsep.join((str(ROOT), str(SRC)))


def plan(args) -> dict:
    """Passes, set-ups and segment counts of one run (``--quick`` shrinks
    them to 1 pass x 3 segments)."""
    if args.quick:
        return {"passes": 1, "setups": 1, "warmups": 0, "min_timed": 3,
                "pass_budget_s": 0.0, "layer_budget_s": 2.0}
    return {"passes": W.PASSES, "setups": W.SETUPS, "warmups": W.WARMUPS,
            "min_timed": W.MIN_TIMED,
            "pass_budget_s": args.seconds / W.PASSES,
            "layer_budget_s": args.seconds}


def provenance(args) -> dict:
    """How a result was produced: host, versions, commit, settings."""
    from repro.core.kernels import compiled

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    nproc = len(os.sched_getaffinity(0))
    return {
        "nproc": nproc, "cpu_model": cpu, "machine": platform.machine(),
        "python": platform.python_version(), "numpy": np.__version__,
        "compiled_backend": compiled.backend_name(), "git_commit": commit,
        "seed": args.seed, "seconds": args.seconds, "quick": args.quick,
        **plan(args), "omp_num_threads": 1,
        "oversubscribed": nproc < max(w.n_ranks for w in W.WORKLOADS),
        "workloads": {w.name: w.config() for w in W.WORKLOADS},
    }


def prepare_inputs(wl: W.Workload, seed: int, tmp: Path) -> dict:
    """Generate the workload's inputs and serial reference from *seed*.

    Untimed, and it fills the cffi build cache before any worker starts.
    The reference is the state 1 + S steps on: after the set-up step and
    the first segment.
    """
    phi_g, mu_g = W.make_inputs(wl.shape, seed)
    phi0, mu0 = W.interior(phi_g), W.interior(mu_g)
    inputs = tmp / f"inputs-{wl.name}.npz"
    np.savez(inputs, phi=phi0, mu=mu0, phi_ghosted=phi_g, mu_ghosted=mu_g)
    ref_phi, ref_mu = W.reference_state(wl, phi0, mu0, 1 + wl.steps)
    reference = tmp / f"reference-{wl.name}.npz"
    np.savez(reference, phi=ref_phi, mu=ref_mu)
    return {"inputs": str(inputs), "reference": str(reference)}


def run_worker(spec: dict, tmp: Path) -> dict:
    """Run one worker process to completion and parse its result line.

    The worker leads its own process group, so that a worker that hangs
    is ended together with the rank processes it forked.
    """
    work = Path(tempfile.mkdtemp(prefix="worker-", dir=tmp))
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps({**spec, "tmp": str(work)}))
    proc = subprocess.Popen(
        [sys.executable, "-m", "benchmarks.e2e.worker", str(spec_path)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(
            f"worker for {spec['workload']} exceeded {WORKER_TIMEOUT_S} s"
        ) from None
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(
            f"worker for {spec['workload']} exited with {proc.returncode}:\n"
            f"{stderr[-2000:]}"
        )
    return json.loads(stdout.strip().splitlines()[-1])


# --------------------------------------------------------------------- #
# end to end
# --------------------------------------------------------------------- #

def mlups(wl: W.Workload, segment_s: list[float]) -> float:
    """Cell updates per microsecond over the summed wall of *segment_s*."""
    return wl.cells * wl.steps * len(segment_s) / sum(segment_s) / 1e6


def diagnostics(wl: W.Workload, segment_s: list[float]) -> dict:
    """More of the distribution: reported, never gated.

    ``mlups_quiet`` is the throughput of the fastest tenth of the
    segments, what the program does when the host's other tenants leave
    it alone.  A percentile appears only when ten samples lie beyond it.
    """
    per_step_ms = [s / wl.steps * 1e3 for s in segment_s]
    out = {
        "mlups_quiet": wl.cells * wl.steps / quiet(segment_s) / 1e6,
        "step_ms_min": min(per_step_ms),
        "step_ms_max": max(per_step_ms),
    }
    for p in (50, 75, 90):
        if samples_beyond(len(per_step_ms), p) >= MIN_SAMPLES_BEYOND:
            out[f"step_ms_p{p}"] = percentile(per_step_ms, p)
    return out


def summarize_passes(wl: W.Workload, passes: list[dict],
                     setups: list[float]) -> dict:
    """Combine a workload's passes into its end-to-end result.

    ``samples`` holds one value per pass (per set-up for ``setup_s``):
    the spread a single run can show for itself.
    """
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    out = {
        "attempted": attempted, "failed": failed,
        "errors": [e for p in passes for e in p["errors"]],
        "fail_frac": failed / attempted, "n_samples": 0, "metrics": {},
        "diagnostics": {}, "verify": passes[0]["verify"],
    }
    segment_s = [s for p in passes for s in p["segment_s"]]
    if not segment_s:
        return out
    values = {
        "mlups": mlups(wl, segment_s),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
    }
    samples = {
        "mlups": [mlups(wl, p["segment_s"]) for p in passes if p["segment_s"]],
        "setup_s": setups,
        "peak_rss_mb": [p["peak_rss_mb"] for p in passes],
    }
    out["n_samples"] = len(segment_s)
    out["metrics"] = {
        name: {"value": values[name], "unit": unit, "samples": samples[name]}
        for name, unit, *_ in W.END_TO_END
    }
    out["diagnostics"] = diagnostics(wl, segment_s)
    return out


def run_end_to_end(selected, prepared, args, tmp) -> dict:
    """All passes of all selected workloads, interleaved across workloads
    so that machine drift hits them alike; then the extra cold set-ups."""
    p = plan(args)
    passes = {wl.name: [] for wl in selected}
    setups = {wl.name: [] for wl in selected}
    for index in range(max(p["passes"], p["setups"])):
        for wl in selected:
            spec = {
                "mode": "pass" if index < p["passes"] else "setup",
                "workload": wl.name,
                "inputs": prepared[wl.name]["inputs"],
                # only the first pass is compared with the reference
                "reference": prepared[wl.name]["reference"] if index == 0 else None,
                "budget_s": p["pass_budget_s"], "warmups": p["warmups"],
                "min_timed": p["min_timed"],
                "corrupt": args.corrupt == wl.name,
            }
            out = run_worker(spec, tmp)
            setups[wl.name].append(out["setup_s"])
            if index < p["passes"]:
                passes[wl.name].append(out)
    return {
        wl.name: summarize_passes(wl, passes[wl.name], setups[wl.name])
        for wl in selected
    }


# --------------------------------------------------------------------- #
# layers
# --------------------------------------------------------------------- #

def run_layer_pass(wl: W.Workload, prepared, args, tmp) -> dict:
    spec = {
        "mode": "layers", "workload": wl.name, **prepared[wl.name],
        "budget_s": plan(args)["layer_budget_s"], "quick": args.quick,
    }
    out = run_worker(spec, tmp)
    spans = out.pop("spans")
    trace_path = args.out.parent / f"trace-{wl.name}.json"
    write_json(trace_path, spans)
    units = {name: unit for name, unit, _ in W.PER_LAYER}
    out["metrics"] = {
        name: {"value": value, "unit": units[name]}
        for name, value in out["metrics"].items()
    }
    out["self_times"] = self_times(spans)
    out["trace_file"] = os.path.relpath(trace_path)
    return out


def derived(e2e: dict, prov: dict) -> dict:
    """Cross-workload numbers of the summary (not part of BENCHMARK.json)."""
    names = ("serial-1r", "thread-2r", "process-2r")
    if prov["oversubscribed"] or not all(
        e2e.get(n, {}).get("metrics") for n in names
    ):
        return {}
    serial, thread, process = (e2e[n]["metrics"]["mlups"]["value"] for n in names)
    return {
        "scaling.thread_2r_eff": thread / (2 * serial),
        "scaling.process_2r_eff": process / (2 * serial),
        "scaling.process_over_thread": process / thread,
    }


# --------------------------------------------------------------------- #
# output
# --------------------------------------------------------------------- #

def print_summary(result: dict) -> None:
    prov = result["provenance"]
    print(f"host: {prov['cpu_model']}, {prov['nproc']} core(s); python "
          f"{prov['python']}, numpy {prov['numpy']}, kernels "
          f"{prov['compiled_backend']}; commit {prov['git_commit'][:12]}; "
          f"seed {prov['seed']}")
    for name, wl_result in result["end_to_end"].items():
        print(f"\n== {name}: end to end "
              f"(n = {wl_result['n_samples']} timed segments, "
              f"failed {wl_result['failed']}/{wl_result['attempted']})")
        for metric, entry in wl_result["metrics"].items():
            print(f"  {metric:<14}{entry['value']:>12.4f} {entry['unit']:<7}"
                  f" spread within the run {spread(entry['samples']):.3f}")
        for metric, value in wl_result["diagnostics"].items():
            print(f"  {metric:<14}{value:>12.4f}         (not gated)")
        for error in wl_result["errors"]:
            print(f"  FAILED: {error}")
    for name, layer in result["per_layer"].items():
        print(f"\n== {name}: per layer (0 = not on this workload's path)")
        for metric, entry in layer["metrics"].items():
            print(f"  {metric:<48}{entry['value']:>14.6g} {entry['unit']}")
        values = {k: v["value"] for k, v in layer["metrics"].items()}
        step = values["budget.step_ms"]
        print(f"  -- step budget: {step:.3f} ms per step")
        for label, ms in budget_rows(W.BY_NAME[name], values):
            print(f"  {label:<40}{ms:>10.3f} ms{ms / step:>8.1%}")
        print(f"  {'residual':<40}{'':>13}"
              f"{values['budget.residual_frac']:>8.1%}")
        print(f"  -- harness self time per span name (spans in "
              f"{layer['trace_file']})")
        rows = sorted(layer["self_times"].items(),
                      key=lambda kv: -kv[1]["self_s"])
        for span_name, row in rows:
            print(f"  {span_name:<40}{row['count']:>5} x"
                  f"{row['self_s']:>10.4f} s self{row['total_s']:>10.4f} s total")
    if result["derived"]:
        print("\n== derived")
        for name, value in result["derived"].items():
            print(f"  {name:<32}{value:>10.4f}")
    if prov["oversubscribed"]:
        print("\nmore ranks than cores: scaling.* omitted")


def contract_line(wl_result: dict) -> str:
    """The result object the pipeline reads from the last output line."""
    return json.dumps({
        "correct": wl_result["failed"] == 0,
        "attempted": wl_result["attempted"],
        "failed": wl_result["failed"],
        "metrics": {
            name: {"value": entry["value"], "unit": entry["unit"]}
            for name, entry in wl_result["metrics"].items()
        },
    })


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(W.BY_NAME),
                        help="one workload (default: all five)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="seconds one run measures per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0 = end-to-end passes only, 1 = layer pass only; "
                             "with --workload the result is one JSON object "
                             "on the last line (the pipeline's form)")
    parser.add_argument("--quick", action="store_true",
                        help="1 pass x 3 segments, minimal layer pass; "
                             "checks the harness, not the program's speed")
    parser.add_argument("--out", type=Path, default=RESULTS / "latest.json",
                        help="where the result JSON goes; the span files "
                             "land next to it")
    parser.add_argument("--corrupt", metavar="WORKLOAD", default=None,
                        help="harness self-test: poison this workload's state")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        raise SystemExit(f"no program to measure: {SRC / 'repro'} is missing")
    pin_environment()
    selected = [W.BY_NAME[args.workload]] if args.workload else list(W.WORKLOADS)
    RESULTS.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="tmp-", dir=RESULTS))
    started = time.time()
    try:
        prov = provenance(args)
        prepared = {wl.name: prepare_inputs(wl, args.seed, tmp) for wl in selected}
        e2e = per_layer = {}
        if args.trace in (None, 0):
            e2e = run_end_to_end(selected, prepared, args, tmp)
        if args.trace in (None, 1):
            per_layer = {
                wl.name: run_layer_pass(wl, prepared, args, tmp)
                for wl in selected
            }
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    result = {
        "schema": "benchmarks.e2e/1", "provenance": prov,
        "wall_seconds": time.time() - started,
        "end_to_end": e2e, "per_layer": per_layer, "derived": derived(e2e, prov),
    }
    write_json(args.out, result, indent=1)
    failed = sum(r["failed"] for r in (*e2e.values(), *per_layer.values()))
    if args.trace is not None and args.workload:
        wl_result = (e2e if args.trace == 0 else per_layer)[args.workload]
        for error in wl_result["errors"]:
            print(f"FAILED: {error}", file=sys.stderr)
        print(contract_line(wl_result))
    else:
        print_summary(result)
        print(f"\nresult written to {args.out}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
