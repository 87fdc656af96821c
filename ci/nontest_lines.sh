#!/bin/sh
# Non-test line counts of the crates the ROADMAP tracks for size:
# crates/core, crates/serve, crates/bench, crates/obs, crates/par,
# and the paper pipeline's crates/repro, crates/fit and crates/stats.
#
# Rule: in every `src/**/*.rs` file (bins included), count each line
# before the first top-level `#[cfg(test)]`; a file without one counts
# whole. Print-only: the counts are reported, never gated.
#
# Usage (from the repo root): sh ci/nontest_lines.sh
set -eu

for crate in crates/core crates/serve crates/bench crates/obs crates/par \
    crates/repro crates/fit crates/stats; do
    n=$(find "$crate/src" -name '*.rs' -type f | sort | xargs awk '
        FNR == 1 { done = 0 }
        /^#\[cfg\(test\)\]/ { done = 1 }
        !done { n++ }
        END { print n + 0 }')
    printf '%s\t%s\n' "$crate" "$n"
done
