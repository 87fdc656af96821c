#!/bin/sh
# Optional dynamic-analysis suite:
#   1. ThreadSanitizer over archline-par (fork-join on scoped threads) and
#      the serve chaos tests — the crates whose atomic orderings
#      archline-lint audits statically get their happens-before edges
#      checked dynamically.
#   2. Miri over the archline-core plan kernels — UB check on the batch
#      kernel arithmetic and the parallel dispatch beneath it.
#
# Both need nightly-only toolchain pieces (-Zsanitizer, -Zbuild-std, miri).
# The script PROBES for each and SKIPS missing pieces with exit 0 so the
# job degrades gracefully on runners without nightly or network; an actual
# test failure under a working toolchain still fails the job.
set -u

ran_anything=0
failed=0

note() { printf '== %s\n' "$*"; }

# --- probe: nightly toolchain ------------------------------------------------
if ! cargo +nightly --version >/dev/null 2>&1; then
    note "SKIP: nightly toolchain unavailable; sanitizers need -Z flags"
    exit 0
fi

host_target=$(rustc +nightly -vV 2>/dev/null | sed -n 's/^host: //p')
if [ -z "${host_target}" ]; then
    note "SKIP: cannot determine nightly host target"
    exit 0
fi

# --- ThreadSanitizer ---------------------------------------------------------
# Probe with a trivial build-std compile: proves rust-src is installed and
# the sanitizer runtime links on this host.
tsan_probe_dir=$(mktemp -d)
cargo +nightly new --lib "${tsan_probe_dir}/tsan_probe" >/dev/null 2>&1
if (
    cd "${tsan_probe_dir}/tsan_probe" &&
    RUSTFLAGS="-Zsanitizer=thread" cargo +nightly build -q \
        -Zbuild-std --target "${host_target}" >/dev/null 2>&1
); then
    note "ThreadSanitizer: probe ok, running archline-par + serve chaos tests"
    ran_anything=1
    if ! RUSTFLAGS="-Zsanitizer=thread" RUST_TEST_THREADS=1 \
        cargo +nightly test -q -p archline-par \
        -Zbuild-std --target "${host_target}"; then
        note "FAIL: ThreadSanitizer found issues in archline-par"
        failed=1
    fi
    if ! RUSTFLAGS="-Zsanitizer=thread" RUST_TEST_THREADS=1 \
        cargo +nightly test -q -p archline --test serve_chaos \
        -Zbuild-std --target "${host_target}"; then
        note "FAIL: ThreadSanitizer found issues in the serve chaos suite"
        failed=1
    fi
else
    note "SKIP: ThreadSanitizer probe failed (rust-src missing or tsan runtime unavailable)"
fi
rm -rf "${tsan_probe_dir}"

# --- Miri --------------------------------------------------------------------
if cargo +nightly miri --version >/dev/null 2>&1; then
    note "Miri: probe ok, running archline-core plan kernel tests"
    ran_anything=1
    # Plan kernels only: full-workspace Miri is hours; the plan module holds
    # the batch kernels whose scalar/batch bit-identity contract matters.
    if ! MIRIFLAGS="-Zmiri-deterministic-concurrency" \
        cargo +nightly miri test -q -p archline-core plan; then
        note "FAIL: Miri found undefined behavior in archline-core plan tests"
        failed=1
    fi
else
    note "SKIP: cargo-miri not installed on nightly"
fi

if [ "${failed}" -ne 0 ]; then
    exit 1
fi
if [ "${ran_anything}" -eq 0 ]; then
    note "nothing ran: all sanitizer probes skipped (toolchain incomplete)"
fi
exit 0
