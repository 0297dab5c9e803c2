#!/usr/bin/env bash
# A tiny generate -> train -> invert -> sweep chain through the capinv
# console script; every file it writes must be there.
#
#   bash tools/e2e.sh [DIR]
#
# It runs in DIR (default: a new temporary directory) and exits non-zero at
# the first command or check that fails.
set -eu
cd "${1:-$(mktemp -d)}"
capinv generate --out train.ds --count 4 --fine-n 41
capinv generate --out test.ds --test-set --fine-n 41
# An even side has no padding row: the parity write-back.
capinv generate --out even.ds --count 2 --fine-n 40 --coarse-n 40
# A v0 whose default tol underflows or whose SOR sums overflow, and a
# separation range that is not finite, are refused before any solve.
for flags in "--v0 1e-320" "--v0 1e308" "--d-max inf"; do
  status=0
  capinv generate --out refused.ds --count 2 --fine-n 21 $flags || status=$?
  test "$status" = 1 && test ! -e refused.ds || { echo "generate $flags exited $status, not 1"; exit 1; }
done
capinv train --kind ae --data train.ds --out ae.model --iters 20 --batch 2
# The buffered Adam step.
capinv train --kind vae --optimizer adam --data train.ds --out vae.model --iters 20 --batch 2
# A negative seed is refused before any file is read, with or without noise.
for command in "train --kind ae --data train.ds" "invert --approach fullspace --data train.ds --d 0.36" \
    "invert --approach fullspace --data train.ds --d 0.36 --noise 0.1"; do
  status=0
  capinv $command --seed=-1 --out refused.out || status=$?
  test "$status" = 1 && test ! -e refused.out && test ! -e refused.out.history.csv \
    || { echo "$command --seed=-1 exited $status, not 1"; exit 1; }
done
capinv invert --approach latent --model ae.model --data train.ds --d 0.36 --out field.csv
# Saved regressions read back through --regression to the same field,
# and a latent one asked for the fullspace approach exits 1.
capinv invert --approach fullspace --data train.ds --save-regression full.reg --d 0.36 --out fit-full.csv
capinv invert --approach latent --model ae.model --data train.ds --save-regression ae.reg \
  --d 0.36 --out fit-ae.csv
capinv invert --approach fullspace --regression full.reg --d 0.36 --out reg-full.csv
capinv invert --approach latent --model ae.model --regression ae.reg --d 0.36 --out reg-ae.csv
cmp fit-full.csv reg-full.csv && cmp fit-ae.csv reg-ae.csv
# A fitted regression and its recovered field have the same bytes at any
# BLAS thread count.
for threads in 1 2; do
  OPENBLAS_NUM_THREADS=$threads capinv invert --approach fullspace --data train.ds \
    --save-regression "full-$threads.reg" --d 0.36 --out "full-$threads.csv"
  OPENBLAS_NUM_THREADS=$threads capinv invert --approach latent --model ae.model --data train.ds \
    --save-regression "ae-$threads.reg" --d 0.36 --out "ae-$threads.csv"
done
cmp full-1.reg full-2.reg && cmp full-1.csv full-2.csv && cmp ae-1.reg ae-2.reg && cmp ae-1.csv ae-2.csv
status=0
capinv invert --approach fullspace --regression ae.reg --d 0.36 --out wrong.csv || status=$?
test "$status" = 1 || { echo "latent .reg for fullspace exited $status, not 1"; exit 1; }
printf '%s\n' "train_data = train.ds" "test_data = test.ds" "out_dir = results" \
  "approaches = fullspace, ae" "model_ae = ae.model" "timing_reps = 3" > sweep.cfg
capinv sweep --config sweep.cfg
# A second sweep exports the same bytes; table2_timing.csv holds wall times.
sed 's/^out_dir = results$/out_dir = results2/' sweep.cfg > sweep2.cfg
capinv sweep --config sweep2.cfg
for f in fig6_fields.csv fig8_ssd.csv fig9_ssd.csv sweep_cells.csv; do
  cmp "results/$f" "results2/$f"
done
# A key given twice is refused before any file the config names is read.
{ sed 's/^out_dir = results$/out_dir = refused/' sweep.cfg; printf '%s\n' "seeds = 0" "seeds = 7"; } > repeat.cfg
status=0
capinv sweep --config repeat.cfg || status=$?
test "$status" = 1 && test ! -e refused || { echo "a repeated sweep key exited $status, not 1"; exit 1; }
# An export that would replace the training set is refused, and the set keeps its bytes.
mkdir own && cp train.ds own/sweep_cells.csv
printf '%s\n' "train_data = own/sweep_cells.csv" "test_data = test.ds" "out_dir = own" > own.cfg
status=0
capinv sweep --config own.cfg || status=$?
test "$status" = 1 || { echo "a sweep over its own training set exited $status, not 1"; exit 1; }
cmp train.ds own/sweep_cells.csv
for f in train.ds test.ds even.ds ae.model ae.model.history.csv vae.model field.csv \
    full.reg ae.reg full-1.reg ae-1.reg fit-full.csv fit-ae.csv reg-full.csv reg-ae.csv \
    results/fig6_fields.csv results/fig8_ssd.csv results/fig9_ssd.csv \
    results/table2_timing.csv results/sweep_cells.csv; do
  test -s "$f" || { echo "missing or empty: $f"; exit 1; }
done
