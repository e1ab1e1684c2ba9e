#!/bin/sh
# The one list of figure binaries. `sh results/regen.sh` rewrites every
# results/<name>.txt from the tree it runs in, each stamped with the
# commit and host that produced it; `--list` prints the names. CI holds
# the list equal to crates/bench/src/bin/ (plus the kernel_comparison
# example) and to the results/*.txt present.
set -eu
cd "$(dirname "$0")/.."

BINS="table1 fig6 fig7 fig8 fig9 fig9_sim fig10 all_arrays baselines ablations rank_scaling"
EXAMPLES="kernel_comparison"

if [ "${1:-}" = "--list" ]; then
    printf '%s\n' $BINS $EXAMPLES
    exit 0
fi

stamp="# commit $(git describe --always --dirty) | $(nproc) x$(sed -n 's/^model name[^:]*://p' /proc/cpuinfo | head -1) | $(rustc --version)"
# run <name> <cargo target args…>
run() {
    name=$1
    shift
    { echo "$stamp"; cargo run --release --quiet "$@"; } > results/"$name".txt
    echo "results/$name.txt"
}
for name in $BINS; do run "$name" -p ckpt-bench --bin "$name"; done
for name in $EXAMPLES; do run "$name" --example "$name"; done
