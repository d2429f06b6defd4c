#!/bin/sh
# Counts the non-test lines of Rust source under crates/*/src: each file
# up to its first line that *begins* with `#[cfg(test)]` (a test module at
# the top level), and nothing of crates/engine/src/plan/tests.rs. An
# indented attribute or a doc comment that mentions `#[cfg(test)]` does
# not end the count. A file whose first such attribute is not followed by
# a `mod` line (a test-only impl or function, which would hide the
# non-test lines after it) fails the count, naming the file. Prints the
# total on stdout and each crate's count, `crates/<name> <lines>`, on
# stderr; run it from the repository root.
set -eu
counts=$(find crates/*/src -name '*.rs' ! -path crates/engine/src/plan/tests.rs -exec awk '
    FNR == 1 { counting = 1; attribute = 0 }
    attribute {
        attribute = 0
        if ($0 !~ /^(pub(\(crate\))? )?mod /) {
            print FILENAME ": the first top-level #[cfg(test)] is not on a mod" > "/dev/stderr"
            failed = 1
        }
    }
    counting && /^#\[cfg\(test\)\]/ { counting = 0; attribute = 1 }
    counting { n[FILENAME]++ }
    END {
        for (f in n) {
            split(f, path, "/")
            print path[1] "/" path[2], n[f]
        }
        exit failed
    }' {} +)
echo "$counts" | awk '
    { crate[$1] += $2; total += $2 }
    END {
        for (c in crate) print c, crate[c] | "sort >&2"
        close("sort >&2")
        print total + 0
    }'
