#!/usr/bin/env bash
# Tier-1 on an emulated AVX2 host: OpenBLAS's Haswell kernels, and numpy
# with its AVX512 dispatch targets off. Trained model bits depend on that
# code path, so a change to training runs this to see the verdict an AVX2
# host would give.
#
#   bash tools/codepath.sh [PYTEST ARGS...]
#
# It runs from the repository root, prints the id of each failing test, one
# a line, after pytest's own output, and exits with pytest's status. On an
# AVX512 host it takes about two minutes on two cores, and the one failure
# expected is test_criterion_6_adam_beats_momentum_vae: its Adam vae trains
# to other bits on this path and misses the bound at e=1.0.
set -uo pipefail
cd "$(dirname "$0")/.."
log="$(mktemp)"
trap 'rm -f "$log"' EXIT
OPENBLAS_CORETYPE=Haswell NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR" \
  PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" \
  python3 -m pytest -q --continue-on-collection-errors "$@" | tee "$log"
status=${PIPESTATUS[0]}
echo "failing on the emulated AVX2 path:"
sed -n 's/^\(FAILED\|ERROR\) \([^ ]*\).*/\2/p' "$log"
exit "$status"
