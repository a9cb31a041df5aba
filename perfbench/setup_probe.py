"""Time one fresh-process set-up of a workload and print it in seconds.

The time is this process's CPU time, as for the passes in ``run.py``.
Set-up is the import of hetindex (with numpy and scipy), resolution of
every bundled demo config, and construction of the workload's families;
it stops before the first verdict call.  Interpreter start-up is not
included.

    python3 perfbench/setup_probe.py <workload> <size>
"""

import time

T0 = time.process_time()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from workloads import WORKLOADS  # noqa: E402

WORKLOADS[sys.argv[1]].setup(sys.argv[2])
print(repr(time.process_time() - T0))
