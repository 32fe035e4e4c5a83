"""Set-up probe: a fresh interpreter imports ncfourier and builds one workload's inputs.

    python3 perfbench/setup_probe.py WORKLOAD SEED

``run.py`` times this whole process to measure ``setup_s``.
"""

import sys

import bootstrap

bootstrap.prepare()

from workloads import WORKLOADS  # noqa: E402  (after bootstrap pins BLAS)

WORKLOADS[sys.argv[1]].setup(int(sys.argv[2]))
