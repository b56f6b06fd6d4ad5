#!/usr/bin/env bash
# The public surface is what is called. Lists every `pub fn` in the
# non-test code of crates/*/src that no non-test code calls, and fails
# unless each one is in ci/uncalled_pub_fns.allow with a reason; fails
# too on an allow entry whose function is gone or has gained a caller.
#
# Callers are the non-test code of crates/*/src, src/, examples/ and
# benchmark/src (ci/non_test_code.sh's filter; `tests.rs` and
# `test_support.rs` files are test code). Each `pub fn` has an owner: the
# column-0 `impl` it sits in (a `pub type` alias resolves to its
# target), or none for a free fn. Whether it counts as called depends on
# its shape:
#
# * a method (its first parameter is `self`, on any signature line)
#   through `.name(` or `.name::<`;
# * a receiver-less associated fn through `Owner::name`, or `Self::name`
#   inside an `impl` of the owner;
# * a free fn through a bare `name(` / `name::<` or `::name`.
#
# Methods still match by name: a method counts as called whenever any
# type's method of the same name is called (ROADMAP item 10 lists the
# ones checked by hand). Reported and allow-listed functions are
# `path Owner::name`, or `path name` for a free fn.
#
# Run from the repository root: bash ci/uncalled_pub_fns.sh
set -eu
. ci/non_test_code.sh

rust_files() { find "$@" -name '*.rs' ! -name tests.rs ! -name test_support.rs | sort; }

uncalled=$(non_test_code $(rust_files crates/*/src src examples benchmark/src) | awk "$(cat ci/rust_owner.awk)"'
    # Is the first parameter of the signature text `s` (everything after
    # the fn name) `self`? "" until the parameter list has begun.
    function receiver(s) {
        s = skip_generics(s)
        if (!match(s, /\([ \t]*[^ \t]/)) return ""
        s = substr(s, RSTART + 1)
        sub(/^[ \t]*/, "", s)
        return s ~ /^(&[ \t]*('\''[A-Za-z_]+[ \t]+)?)?(mut[ \t]+)?self([^A-Za-z0-9_]|$)/ ? "method" : "assoc"
    }
    {
        path = $0; sub(/:[0-9]+: .*/, "", path)
        text = $0; sub(/^[^:]+:[0-9]+: /, "", text)
        if (path != file) { file = path; owner = ""; pending = "" }
        lib = file ~ /^crates\/[^\/]+\/src\//
        if (text ~ /^impl[ <]/) owner = impl_owner(text)
        else if (text ~ /^}/) owner = ""
        if (lib) record_alias(text)

        # Definitions: a pub fn, held until its first parameter is seen.
        if (lib && match(text, /^[ \t]*pub fn [A-Za-z_][A-Za-z0-9_]*/)) {
            name = substr(text, RSTART, RLENGTH); sub(/.*pub fn /, "", name)
            pending = file SUBSEP owner SUBSEP name
            sig = substr(text, RSTART + RLENGTH)
        } else if (pending != "") {
            sig = sig " " text
        }
        if (pending != "" && (kind = receiver(sig)) != "") {
            split(pending, d, SUBSEP)
            defs[pending] = d[2] == "" ? "free" : kind
            pending = ""
        }

        # Uses, outside fn declarations.
        s = text
        gsub(/(^|[^A-Za-z0-9_])fn [A-Za-z_][A-Za-z0-9_]*/, " ", s)
        t = s
        while (match(t, /\.[A-Za-z_][A-Za-z0-9_]*(\(|::<)/)) {
            n = substr(t, RSTART + 1, RLENGTH - 1); sub(/(\(|::<)$/, "", n)
            method[n] = 1
            t = substr(t, RSTART + RLENGTH)
        }
        t = s
        while (match(t, /[A-Za-z_][A-Za-z0-9_]*(::[A-Za-z_][A-Za-z0-9_]*)+/)) {
            m = split(substr(t, RSTART, RLENGTH), seg, "::")
            if (RSTART == 1 || substr(t, RSTART - 1, 1) != ".")
                for (i = 2; i <= m; i++) {
                    o = seg[i - 1] == "Self" ? owner : seg[i - 1]
                    assoc[o SUBSEP seg[i]] = 1
                    free[seg[i]] = 1
                }
            t = substr(t, RSTART + RLENGTH)
        }
        t = s
        while (match(t, /(^|[^A-Za-z0-9_.:])[A-Za-z_][A-Za-z0-9_]*(\(|::<)/)) {
            n = substr(t, RSTART, RLENGTH)
            sub(/^[^A-Za-z_]/, "", n); sub(/(\(|::<)$/, "", n)
            free[n] = 1
            t = substr(t, RSTART + RLENGTH)
        }
    }
    END {
        for (a in assoc) {
            split(a, p, SUBSEP)
            if (p[1] in aliased) assoc[aliased[p[1]] SUBSEP p[2]] = 1
        }
        for (k in defs) {
            split(k, d, SUBSEP)
            if (defs[k] == "free") called = d[3] in free
            else if (defs[k] == "method") called = d[3] in method
            else called = (d[2] SUBSEP d[3]) in assoc
            if (!called) print d[1], (d[2] == "" ? "" : d[2] "::") d[3]
        }
    }' | sort)

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
