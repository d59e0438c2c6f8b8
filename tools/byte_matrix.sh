#!/usr/bin/env bash
# Same-bytes matrix: gen-data -> train (2 epochs, 32 px) -> eval -> infer in
# panoptic and instance mode at N=10 and N=100 and in semantic mode, each at
# stages 0 and 2, then `knet grad-check --seeds 3`.  It runs the package of
# the checkout it lives in, and every path it writes is relative to OUT_DIR,
# so `diff -r` of two checkouts' outputs is a byte-identity check.
#
#   tools/byte_matrix.sh OUT_DIR
set -euo pipefail
[ $# -eq 1 ] || { echo "usage: $0 OUT_DIR" >&2; exit 2; }
SRC=$(cd "$(dirname "$0")/../src" && pwd)
mkdir -p "$1" && cd "$1"
knet() { OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 PYTHONPATH="$SRC" python3 -m knet.cli "$@"; }

knet gen-data --seed 1 --count 8 --size 32 --out data/train >/dev/null
knet gen-data --seed 2 --count 4 --size 32 --out data/val >/dev/null
for run in panoptic:10 panoptic:100 instance:10 instance:100 semantic:10; do
  mode=${run%:*} n=${run#*:}
  for s in 0 2; do
    out=runs/$mode-n$n-s$s
    knet train --set model.mode="$mode" --set model.num_instance_kernels="$n" \
      --set model.stages=$s --set model.image_size=32 --set epochs=2 \
      --set train_dir=data/train --set val_dir=data/val --set out_dir="$out" >/dev/null
    knet eval --checkpoint "$out/best.ckpt" --data data/val --out "$out/eval.json" >"$out/eval.txt"
    knet infer --checkpoint "$out/best.ckpt" --image data/val/sample_00000/image.tensor \
      --out "$out/infer" >/dev/null
  done
done
knet grad-check --seeds 3 >grad_check.txt
