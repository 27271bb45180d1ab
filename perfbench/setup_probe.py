"""Time one workload's set-up in a fresh interpreter and print it in seconds.

    python3 perfbench/setup_probe.py SRC_DIR WORKLOAD

Set-up is the import of chiralbv from SRC_DIR plus ``Workload.setup()``.
run.py calls this several times a run and reports the median as setup_s.
"""

import sys
import time

from workloads import WORKLOADS

src, name = sys.argv[1], sys.argv[2]
sys.path.insert(0, src)
workload = WORKLOADS[name]()
start = time.perf_counter()
import chiralbv  # noqa: E402,F401  (timed)

workload.setup()
print(time.perf_counter() - start)
