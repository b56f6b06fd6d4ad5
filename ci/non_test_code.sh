# Non-test library code, for the CI grep guards. Source this file, then
#
#   non_test_code FILE...
#
# prints every line of each FILE that is neither a `//` comment nor test
# code, as `path:line: text`. A file's test code is everything from its
# first column-0 `#[cfg(test)]` on; sibling `tests.rs` files are left out
# (or kept) by the caller's choice of FILEs.
#
# Stopping at the first column-0 `#[cfg(test)]` is sound only while that
# line opens the file's last item, its `mod tests` or `mod test_support`:
# a test-only item placed mid-file would hide the rest of the file from
# every guard. Sourcing this file checks that for every Rust file under
# crates/*/src and src/, and exits 1 naming any file that breaks it. A
# test-only helper inside an `impl` takes an indented `#[cfg(test)]`.

non_test_code() {
    local f
    for f in "$@"; do
        awk -v f="$f" '/^#\[cfg\(test\)\]/ { exit } !/^[[:space:]]*\/\// { print f ":" FNR ": " $0 }' "$f"
    done
}

# Prints `path:line: reason` for each column-0 `#[cfg(test)]` that does not
# open the file's last item, a `mod tests` or `mod test_support`.
test_code_breaks() {
    local f
    for f in "$@"; do
        awk -v f="$f" '
            function fail(why) { print f ":" at ": " why; bad = 1; exit }
            state == 0 && /^#\[cfg\(test\)\]/ { state = 1; at = FNR; next }
            state == 1 {
                if ($0 ~ /^mod (tests|test_support);[[:space:]]*$/) state = 3
                else if ($0 ~ /^mod (tests|test_support) \{[[:space:]]*$/) state = 2
                else fail("column-0 #[cfg(test)] is not followed by `mod tests` or `mod test_support`")
                next
            }
            state == 2 && /^\}/ { state = 3; next }
            state == 3 && /[^[:space:]]/ { fail("column-0 #[cfg(test)] opens a module that is not the file'"'"'s last item") }
            END { if (!bad && (state == 1 || state == 2)) { print f ":" at ": unterminated test module" } }
        ' "$f"
    done
}

breaks=$(test_code_breaks $(find crates/*/src src -name '*.rs' | sort))
if [ -n "$breaks" ]; then
    echo "$breaks" >&2
    exit 1
fi
unset breaks
