#!/bin/sh
# Prints the workspace's non-test line count: for every Rust file under
# crates/*/src, the lines before its first top-level `#[cfg(test)]` (all of
# them when it has none). Blank lines and comments count; tests/ and
# perfbench/ do not. This is the number the ROADMAP's "same bytes from less
# code" aim is measured in.
#
# Usage: scripts/loc.sh
set -eu

case "${1:-}" in
    "") ;;
    *) echo "usage: scripts/loc.sh" >&2; exit 2 ;;
esac

cd "$(dirname "$0")/.."
find crates/*/src -name '*.rs' | sort | xargs awk '
    FNR == 1 { counting = 1 }
    /^#\[cfg\(test\)\]/ { counting = 0 }
    counting { n++ }
    END { print n + 0 }
'
