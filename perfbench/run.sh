#!/usr/bin/env bash
# Build the benchmark and the mrm2 binary it drives from this checkout,
# then run one workload. Usage:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
set -euo pipefail
dune build --root . --display quiet ./perfbench/main.exe ./bin/mrm2.exe 1>&2
exec ./_build/default/perfbench/main.exe --mrm2 ./_build/default/bin/mrm2.exe "$@"
