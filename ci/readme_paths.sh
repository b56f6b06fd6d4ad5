#!/usr/bin/env bash
# Every repository path README.md names in backticks exists. A path is a
# backticked token ending in .rs, .toml, .json, .txt, .yml or .md, with
# any `:line` suffix dropped, read from the repository root.
#
# Run from the repository root: bash ci/readme_paths.sh
set -eu
missing=$(grep -oE '`[^` ]+`' README.md | tr -d '`' | sed 's/:.*//' \
    | grep -E '\.(rs|toml|json|txt|yml|md)$' | sort -u \
    | while read -r path; do [ -e "$path" ] || echo "$path"; done)
if [ -n "$missing" ]; then
    echo "README.md names paths that do not exist from the repository root:" >&2
    echo "$missing" >&2
    exit 1
fi
