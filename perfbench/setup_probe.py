"""Set-up time of one workload, in this fresh interpreter.

    python3 perfbench/setup_probe.py <workload>

Prints two numbers: the seconds that ``import cinedrone`` plus reading,
parsing and validating the workload's scenarios take, then the median
seconds of the reference job (``spans.reference_job``) run afterwards in
the same interpreter, which gives the machine's speed at that moment.
"""

import statistics
import sys
import time

import workloads

#: runs of the reference job after the set-up; about 30 ms in all
REF_RUNS = 10

start = time.perf_counter()
sys.path.insert(0, str(workloads.ROOT / "src"))
from cinedrone import config  # noqa: E402

workload = workloads.WORKLOADS[sys.argv[1]]
for raw in workloads.scenario_dicts(workload.scenarios,
                                    workload.one_period).values():
    config.scenario_from_dict(raw)
setup = time.perf_counter() - start

import spans  # noqa: E402  (after the clock: it imports scipy.optimize)

refs = []
for _ in range(REF_RUNS):
    start = time.perf_counter()
    spans.reference_job()
    refs.append(time.perf_counter() - start)
print(setup, statistics.median(refs))
