"""Fresh-process set-up for one workload: import the program and prepare the first op.

    python3 perfbench/setup_probe.py <workload> <seed>

Prints ``ready`` once the first op could be sent, then exits. run.py times
this from process start, so ``setup_s`` covers interpreter start, ``import
prepost.cli`` and the workload's program-side preparation.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (needs src on sys.path)

workloads.WORKLOADS[sys.argv[1]](ROOT, int(sys.argv[2]), ROOT / ".perfbench-probe")
print("ready", flush=True)
