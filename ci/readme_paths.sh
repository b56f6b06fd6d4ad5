#!/usr/bin/env bash
# Every repository path and every Rust name README.md cites in backticks
# resolves.
#
# A path is a backticked token ending in .rs, .toml, .json, .txt, .yml or
# .md, with any `:line` suffix dropped, read from the repository root.
#
# A name is a backticked `Owner::name` or `module::…::name` whose last
# segment is lower-case (a trailing `()` or `(..)` is dropped). Under a
# type owner (an upper-case segment before it; a `pub type` alias
# resolves to its target), the name must be a `fn` in an `impl` or
# `trait` of that type, or a field of that struct. Under module segments
# only, the name must be a `fn`, `mod` or `use`d item of a Rust file
# whose module path holds every one of those segments: `prosel` and the
# crate (`prosel_monitor` or `monitor`), then its directories and file
# stem, plus `tests` inside an inline `mod tests`. Names under the std
# owners listed in STD_OWNERS are not checked; upper-case names (types,
# variants, constants) are not checked.
#
# Run from the repository root: bash ci/readme_paths.sh
set -eu
STD_OWNERS="Arc VecDeque"
status=0

missing=$(grep -oE '`[^` ]+`' README.md | tr -d '`' | sed 's/:.*//' \
    | grep -E '\.(rs|toml|json|txt|yml|md)$' | sort -u \
    | while read -r path; do [ -e "$path" ] || echo "$path"; done)
if [ -n "$missing" ]; then
    echo "README.md names paths that do not exist from the repository root:" >&2
    echo "$missing" >&2
    status=1
fi

names=$(grep -oE '`[^` ]+`' README.md | tr -d '`' | sed -E 's/\((\.\.)?\)$//' \
    | grep -E '^[A-Za-z_][A-Za-z0-9_]*(::[A-Za-z_][A-Za-z0-9_]*)+$' \
    | grep -E '::[a-z_][a-z0-9_]*$' | sort -u)
unresolved=$(find crates src tests examples benchmark/src -name '*.rs' ! -path '*/target/*' \
    | sort | xargs awk -v std="$STD_OWNERS" -v names="$names" "$(cat ci/rust_owner.awk)"'
    # The type a column-0 `struct`, `trait` or `impl` header names.
    function block_owner(s) {
        if (s ~ /^impl/) return impl_owner(s)
        sub(/^(pub(\([^)]*\))? )?(struct|trait) /, "", s)
        match(s, /^[A-Za-z_][A-Za-z0-9_]*/)
        return substr(s, 1, RLENGTH)
    }
    # The module path segments of a file: `prosel`, the crate, the
    # directories under src/ and the file stem.
    function components(path,    p, n, i, comps) {
        n = split(path, p, "/")
        comps = " "
        if (p[1] == "src" || (p[1] == "crates" && p[3] == "src")) comps = comps "prosel "
        if (p[1] == "crates") comps = comps "prosel_" p[2] " " p[2] " "
        for (i = 2; i <= n; i++) {
            if (i == n) sub(/\.rs$/, "", p[i])
            if (p[i] != "src" && p[i] != "lib" && p[i] != "mod" && p[i] != "main" && !(p[1] == "crates" && i <= 2))
                comps = comps p[i] " "
        }
        return comps
    }
    FNR == 1 { unit = FILENAME; comps[unit] = components(FILENAME); owner = "" }
    /^(pub(\([^)]*\))? )?(struct|trait) [A-Za-z_][A-Za-z0-9_]*[^;]*\{[ \t]*$/ || /^impl[ <]/ {
        owner = block_owner($0); in_struct = $0 ~ /struct /; next
    }
    /^(pub )?mod tests \{/ { unit = FILENAME "#tests"; comps[unit] = comps[FILENAME] "tests "; next }
    /^}/ { owner = ""; unit = FILENAME; next }
    {
        record_alias($0)
        s = $0
        while (match(s, /(^|[^A-Za-z0-9_])(fn|mod) [a-z_][a-z0-9_]*/)) {
            n = substr(s, RSTART, RLENGTH); sub(/.* /, "", n)
            if (owner != "") typed[owner SUBSEP n] = 1
            moduled[unit SUBSEP n] = 1
            s = substr(s, RSTART + RLENGTH)
        }
        if (owner != "" && in_struct && match($0, /^[ \t]+(pub(\([^)]*\))? )?[a-z_][a-z0-9_]*:/)) {
            n = substr($0, RSTART, RLENGTH); sub(/:$/, "", n); sub(/.*[ \t]/, "", n)
            typed[owner SUBSEP n] = 1
        }
        if (match($0, /^[ \t]*(pub(\([^)]*\))? )?use .*(::|\{|, )[a-z_][a-z0-9_]*(;|\}|,)/)) {
            s = $0; sub(/^[^u]*use /, "", s)
            gsub(/[{},;:]/, " ", s)
            m = split(s, w, " ")
            for (i = 1; i <= m; i++) moduled[unit SUBSEP w[i]] = 1
        }
    }
    END {
        split(std, skip_list, " ")
        for (i in skip_list) skip[skip_list[i]] = 1
        n = split(names, list, "\n")
        for (i = 1; i <= n; i++) {
            m = split(list[i], seg, "::")
            z = seg[m]; y = seg[m - 1]
            if (y ~ /^[A-Z]/) {
                if (y in skip) continue
                if (y in aliased) y = aliased[y]
                if (!((y SUBSEP z) in typed)) print list[i]
                continue
            }
            found = 0
            for (u in comps) {
                if (!((u SUBSEP z) in moduled)) continue
                ok = 1
                for (j = 1; j < m; j++) if (index(comps[u], " " seg[j] " ") == 0) ok = 0
                if (ok) { found = 1; break }
            }
            if (!found) print list[i]
        }
    }')
if [ -n "$unresolved" ]; then
    echo "README.md names Rust items that resolve to no fn, field or module of the workspace:" >&2
    echo "$unresolved" >&2
    status=1
fi
exit $status
