"""Time one cold set-up of a workload in this fresh interpreter.

Usage: python3 bench/cold_setup.py WORKLOAD SEED

Prints the seconds taken to import zecklab from the checkout's src/, parse
every family of the workload, build its handle and extend it past the
largest input.  ``run.py`` starts this several times, one after another, and
reports the median as ``setup_s``: only a fresh interpreter pays for the
package's imports, including any the package adds later.
"""

import sys
import time

import workloads

if __name__ == "__main__":
    name, seed = sys.argv[1], int(sys.argv[2])
    families = workloads.WORKLOADS[name].inputs(seed)["families"]
    started = time.perf_counter()
    zk = workloads.import_zecklab()
    workloads.set_up(zk, families)
    print(repr(time.perf_counter() - started))
