"""Worker process: one end-to-end pass, or the layer pass, of one workload.

Started by ``run.py`` as ``python -m benchmarks.e2e.worker SPEC.json`` in
a pinned environment; prints one JSON object as its last line.  A fresh
process per pass makes set-up time a cold measurement and lets passes of
different workloads be interleaved.
"""

from __future__ import annotations

import json
import sys
import warnings
from pathlib import Path

from benchmarks.e2e import layers, passes


MODES = {
    "pass": passes.run_pass,
    "setup": passes.run_setup,
    "layers": layers.run_layers,
}


def main(argv: list[str]) -> int:
    spec = json.loads(Path(argv[1]).read_text())
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = MODES[spec["mode"]](spec)
    degraded = [str(w.message) for w in caught
                if issubclass(w.category, RuntimeWarning)]
    if degraded:
        # a fallback rung or degraded transport must not yield a number
        out["errors"] = out["errors"] + degraded
        out["failed"] = out["attempted"]
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
