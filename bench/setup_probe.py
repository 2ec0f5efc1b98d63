"""One set-up sample in a fresh interpreter: import ris_linklab.cli, then run a
workload's warm-up calls.  Prints {"import_s": ..., "first_call_s": ...}.

Usage: python3 bench/setup_probe.py <workload> <scratch dir>
"""

import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    from workloads import WORKLOADS, call  # imports nothing of the program or of scipy

    workload = WORKLOADS[sys.argv[1]]
    scratch = Path(sys.argv[2])
    os.environ["RIS_LINKLAB_THREADS"] = str(workload.threads)
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import ris_linklab.cli  # noqa: F401  (the import is what is timed)

    t1 = time.perf_counter()
    for argv in workload.warmup(scratch):
        rc, _ = call(argv)
        if rc != 0:
            print(f"warm-up call {argv} exited {rc}", file=sys.stderr)
            return 1
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "first_call_s": t2 - t1}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
