#!/bin/sh
# Counts the non-test lines of Rust source under crates/*/src: each file
# up to its first line that *begins* with `#[cfg(test)]` (a test module at
# the top level), and nothing of crates/engine/src/plan/tests.rs. An
# indented attribute or a doc comment that mentions `#[cfg(test)]` does
# not end the count. Prints the total; run it from the repository root.
set -eu
find crates/*/src -name '*.rs' ! -path crates/engine/src/plan/tests.rs -exec awk '
    FNR == 1 { counting = 1 }
    /^#\[cfg\(test\)\]/ { counting = 0 }
    counting { n++ }
    END { print n + 0 }' {} + |
    awk '{ total += $1 } END { print total }'
