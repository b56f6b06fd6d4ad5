# Awk functions that read Rust item owners line by line, shared by
# ci/uncalled_pub_fns.sh and ci/readme_paths.sh, which put this file in
# front of their own awk programs.

# `s` without a leading `<…>` generic list (a `->` inside does not close
# it); "" when the list does not close on `s`.
function skip_generics(s,    d, i, c) {
    if (substr(s, 1, 1) != "<") return s
    for (i = 1; i <= length(s); i++) {
        c = substr(s, i, 1)
        if (c == "<") d++
        else if (c == ">" && substr(s, i - 1, 1) != "-" && --d == 0) break
    }
    return substr(s, i + 1)
}

# The type a column-0 `impl` header names: generics skipped, the type
# after `for` in a trait impl, the last path segment.
function impl_owner(s,    t) {
    t = substr(s, 5)
    sub(/^[ \t]*/, "", t)
    t = skip_generics(t)
    if (match(t, / for /)) t = substr(t, RSTART + 5)
    sub(/^[ \t&]*(dyn )?/, "", t)
    match(t, /^[A-Za-z_][A-Za-z0-9_:]*/)
    t = substr(t, 1, RLENGTH)
    sub(/.*::/, "", t)
    return t
}

# Records `type Alias = path::Target` on line `s` as aliased[Alias] = Target.
function record_alias(s,    alias, target) {
    if (!match(s, /^(pub(\([^)]*\))? )?type [A-Za-z_][A-Za-z0-9_]*(<[^=]*>)? *= *[A-Za-z_][A-Za-z0-9_:]*/)) return
    s = substr(s, RSTART, RLENGTH)
    alias = s; sub(/^(pub(\([^)]*\))? )?type /, "", alias); sub(/[< =].*/, "", alias)
    target = s; sub(/.*= */, "", target); sub(/.*::/, "", target)
    aliased[alias] = target
}
