"""Time one set-up of a workload in a fresh interpreter and print the seconds.

Set-up is importing every module of projspray (with numpy and scipy) plus
building the catalog entries the workload reads.  ``run.py`` starts this
script several times and reports the median as ``setup_s``.

    python3 perfbench/setup_probe.py <src directory> <workload>
"""

import sys
from time import perf_counter

if __name__ == "__main__":
    t0 = perf_counter()
    sys.path.insert(0, sys.argv[1])
    import common

    common.import_package()
    common.workload(sys.argv[2]).build()
    print(repr(perf_counter() - t0))
