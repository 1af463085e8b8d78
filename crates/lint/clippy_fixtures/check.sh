#!/usr/bin/env bash
# Shows that clippy, under the root `clippy.toml`, rejects what the retired
# pdm-lint token lints (wall-clock, ambient-randomness, unbounded-wait,
# stray-recorder) caught and a lock built without a `pdm_obs::lock` class
# (unnamed-lock), and accepts their corrected twins.
#
#   crates/lint/clippy_fixtures/check.sh
#
# Each `*_bad.rs` must fail with exactly the diagnostics its `//~ <lint>`
# comments name, one per marked line and none elsewhere; each `*_good.rs`
# must compile clean. Every file is built as a library under
# `-D warnings`, against `pdm-obs` and `pdm-prng` from `cargo build`. The
# fixtures sit outside every cargo target and outside pdm-lint's walk.
set -uo pipefail

here="$(cd "$(dirname "$0")" && pwd)"
root="$(cd "$here/../../.." && pwd)"
deps="${CARGO_TARGET_DIR:-$root/target}/debug"
out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT

cargo build -q --manifest-path "$root/Cargo.toml" -p pdm-obs -p pdm-prng || exit 1

# Compiles $1; its JSON diagnostics go to $out/diag.json.
check() {
    CLIPPY_CONF_DIR="$root" clippy-driver --edition 2021 --crate-type lib \
        -D warnings --emit=metadata --out-dir "$out" --error-format=json \
        -L "dependency=$deps/deps" \
        --extern "pdm_obs=$deps/libpdm_obs.rlib" \
        --extern "pdm_prng=$deps/libpdm_prng.rlib" \
        "$1" 2>"$out/diag.json"
}

# One `<line> <lint>` per coded diagnostic in $out/diag.json: a diagnostic's
# first `code` is its own (strings escape their quotes) and its first span
# is its primary one.
diagnostics() {
    grep '"code":{"code":' "$out/diag.json" | while IFS= read -r d; do
        line="$(grep -o '"line_start":[0-9]*' <<<"$d" | head -1 | cut -d: -f2)"
        lint="$(grep -o '"code":{"code":"[^"]*"' <<<"$d" | head -1 |
            sed -E 's/.*"(clippy::)?([^"]*)"$/\2/')"
        echo "$line $lint"
    done | sort -n
}

failed=0
for f in "$here"/*_bad.rs "$here"/*_good.rs; do
    name="$(basename "$f")"
    expected="$(grep -n '//~ ' "$f" | sed -E 's/^([0-9]+):.*\/\/~ ([a-z_]+).*$/\1 \2/' | sort -n)"
    check "$f"
    status=$?
    actual="$(diagnostics)"
    case "$name" in
        *_bad.rs) ok=$([ -n "$expected" ] && [ "$status" -ne 0 ] && echo y) ;;
        *) ok=$([ -z "$expected" ] && [ "$status" -eq 0 ] && echo y) ;;
    esac
    if [ "$ok" = y ] && [ "$actual" = "$expected" ]; then
        echo "ok   $name${expected:+ rejects at: $(tr '\n' ';' <<<"$expected")}"
    else
        echo "FAIL $name (exit $status)"
        echo "  expected: $(tr '\n' ';' <<<"$expected")"
        echo "  actual:   $(tr '\n' ';' <<<"$actual")"
        failed=1
    fi
done
exit "$failed"
