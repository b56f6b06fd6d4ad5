#!/usr/bin/env bash
# The public surface is what is called. Lists every `pub fn` in the
# non-test code of crates/*/src that no non-test code calls, and fails
# unless each one is in ci/uncalled_pub_fns.allow with a reason; fails
# too on an allow entry whose function is gone or has gained a caller.
#
# Callers are the non-test code of crates/*/src, src/, examples/ and
# benchmark/src (ci/non_test_code.sh's filter; `tests.rs` and
# `test_support.rs` files are test code). A name counts as called where
# it appears as `.name`, `::name` or `name(`, outside a `fn name`
# declaration. The scan matches names, not paths, so a function whose
# name is used anywhere else (`new`, `get`, a field of the same name)
# counts as called.
#
# Run from the repository root: bash ci/uncalled_pub_fns.sh
set -eu
. ci/non_test_code.sh

rust_files() { find "$@" -name '*.rs' ! -name tests.rs ! -name test_support.rs | sort; }

# `path name` for each pub fn of the libraries.
defined=$(non_test_code $(rust_files crates/*/src) \
    | sed -nE 's/^([^:]+):[0-9]+: +pub fn ([A-Za-z_][A-Za-z0-9_]*).*/\1 \2/p' | sort -u)

# Every name used call-shaped anywhere in caller code.
used=$(non_test_code $(rust_files crates/*/src src examples benchmark/src) \
    | sed -E 's/^[^:]+:[0-9]+: //; s/\bfn [A-Za-z_][A-Za-z0-9_]*//g' \
    | grep -oE '(\.|::)[A-Za-z_][A-Za-z0-9_]*|[A-Za-z_][A-Za-z0-9_]*\(' \
    | sed -E 's/^(\.|::)//; s/\($//' | sort -u)

uncalled=$(echo "$defined" | awk 'NR == FNR { used[$0] = 1; next } !($2 in used)' <(echo "$used") -)

allow=ci/uncalled_pub_fns.allow
allowed=$(grep -vE '^[[:space:]]*(#|$)' "$allow" | awk '{ print $1, $2 }' | sort)
status=0

if no_reason=$(grep -vE '^[[:space:]]*(#|$)' "$allow" | awk 'NF < 3'); [ -n "$no_reason" ]; then
    echo "$allow: an entry without a reason:" >&2
    echo "$no_reason" >&2
    status=1
fi
if new=$(comm -23 <(echo "$uncalled") <(echo "$allowed")); [ -n "$new" ]; then
    echo "pub fn with no caller outside tests (delete it, demote it to #[cfg(test)], or allow-list it in $allow with a reason):" >&2
    echo "$new" >&2
    status=1
fi
if stale=$(comm -13 <(echo "$uncalled") <(echo "$allowed")); [ -n "$stale" ]; then
    echo "stale $allow entry (the function is gone or has a caller now):" >&2
    echo "$stale" >&2
    status=1
fi
exit $status
