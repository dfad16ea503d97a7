"""One set-up sample in a fresh interpreter.

Usage: ``python cold_start.py WORKLOAD_JSON INPUTS_NPZ`` (``run.py`` calls
it). Prints ``{"setup_s": ...}``: the time to import ``repro`` plus the
workload's cold start (see ``workloads.cold_start``). Reading the inputs is
not counted.
"""

import time

_t0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

import workloads  # noqa: E402

_imported = time.perf_counter() - _t0


def main() -> None:
    cfg = workloads.workload_from_json(sys.argv[1])
    tensors = workloads.load_tensors(Path(sys.argv[2]))
    start = time.perf_counter()
    workloads.cold_start(cfg, tensors)
    setup_s = _imported + time.perf_counter() - start
    workloads.stop_resource_tracker()
    print(json.dumps({"setup_s": setup_s}))


if __name__ == "__main__":
    main()
