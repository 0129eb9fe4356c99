"""Set-up probe: a fresh interpreter that imports pcnmf and parses one op's config.

Usage: python3 perfbench/probe.py <argv file>

The argv file holds a JSON list of CLI argument lists. The probe prints the
CLOCK_MONOTONIC time at which the first op could start; the parent process
subtracts the time it launched the probe.
"""

import json
import sys
import time

import prepare

prepare.pin_blas()
prepare.import_program()
with open(sys.argv[1]) as fh:
    for argv in json.load(fh):
        prepare.parse_configs(argv)
print(repr(time.monotonic()))
