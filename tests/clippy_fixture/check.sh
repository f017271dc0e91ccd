#!/bin/sh
# Runs clippy with the workspace's configuration on the seeded fixture
# crate next to this script. Exits 1 unless it reports exactly one
# diagnostic per compiler-checked rule of the determinism contract:
#
#   sh tests/clippy_fixture/check.sh
here=$(dirname "$0")
out=$(cargo clippy --locked --quiet --message-format short --manifest-path "$here/Cargo.toml" \
    --target-dir "$here/../../target/clippy-fixture" -- -D warnings 2>&1)
expected='#[allow] attribute found: help: replace it with: `expect`
`expect` attribute without specifying a reason
missing documentation for a function
this lint expectation is unfulfilled
use of a disallowed type `std::collections::HashMap`
use of a disallowed type `std::time::Instant`
used `expect()` on an `Option` value'
found=$(printf '%s\n' "$out" | sed -n 's/^src\/lib\.rs:[0-9]*:[0-9]*: error: //p' | LC_ALL=C sort)
if [ "$found" != "$expected" ]; then
    printf 'expected exactly:\n%s\n\nclippy reported:\n%s\n' "$expected" "$out"
    exit 1
fi
