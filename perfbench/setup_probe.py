"""Set-up probe: import ``delayswitch`` and generate one workload's inputs, then exit.

Usage: python perfbench/setup_probe.py WORKLOAD SEED

The caller puts the checkout's ``src`` on PYTHONPATH and times the whole
process, from interpreter start to exit, as the workload's set-up time.
"""

import sys

import delayswitch  # noqa: F401  (importing the package is what is measured)
from workloads import make_inputs

if __name__ == "__main__":
    make_inputs(sys.argv[1], int(sys.argv[2]))
