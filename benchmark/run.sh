#!/usr/bin/env bash
# Entry point for a CI step: build the benchmark once (release, offline,
# locked) and run the full set, writing out/result-<commit>.json.
# Extra arguments go to the benchmark, e.g. `./run.sh --seed 23 --reps 7`
# or `./run.sh repeat-check`.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"

echo "toolchain: $(rustc --version); $(cargo --version)"
echo "cores: nproc=$(nproc)"

cargo build --release --offline --locked --manifest-path "$here/Cargo.toml"
bin="$CARGO_TARGET_DIR/release/sdr-benchmark"

# The binary itself refuses to measure when built without optimisation;
# this catches a stale or hand-copied debug binary before any time is spent.
if [ "$("$bin" profile)" != "release" ]; then
    echo "run.sh: $bin is not a release build" >&2
    exit 2
fi

commit="$(git -C "$here" rev-parse --short HEAD 2>/dev/null || echo unversioned)"
case "${1:-}" in
    compare | repeat-check) exec "$bin" "$@" ;;
    *) exec "$bin" --out "$here/out/result-$commit.json" "$@" ;;
esac
