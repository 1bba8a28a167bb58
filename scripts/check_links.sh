#!/usr/bin/env bash
# check_links.sh — documentation integrity gate (the CI docs job).
#
# 1. Every intra-repo markdown link must resolve to an existing file or
#    directory (external http(s)/mailto links and pure #fragments are
#    skipped).
# 2. The README quickstart code block must appear verbatim (modulo
#    indentation) in example_test.go, so the snippet users copy is the
#    one `go test` executes as Example_quickstart.
# 3. Every Test*/Fuzz*/Benchmark*/Example* name cited in README.md,
#    DESIGN.md and docs/*.md must be defined in some _test.go file; a
#    trailing "*" (as in TestSplit*) cites every name with that prefix.
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0

# --- 1. intra-repo link resolution -----------------------------------
while IFS= read -r file; do
    # One inline link target per line; multi-line links don't occur here.
    while IFS= read -r target; do
        case "$target" in
            http://* | https://* | mailto:* | "#"*) continue ;;
        esac
        path="${target%%#*}"
        [ -z "$path" ] && continue
        if [ ! -e "$(dirname "$file")/$path" ]; then
            echo "broken link in $file: ($target)" >&2
            fail=1
        fi
    done < <(grep -o '\[[^]]*\]([^)]*)' "$file" 2>/dev/null | sed 's/^.*](\([^)]*\))$/\1/' || true)
done < <(git ls-files -c -o --exclude-standard '*.md')

# --- 2. README snippets mirror their Example_* tests ------------------
# Extract a README ```go fence (the first one matching the given
# pattern) and require it, line for line in order, inside
# example_test.go. Leading/trailing whitespace is ignored so the test's
# indentation doesn't matter; blank lines are skipped.
norm() { sed -e 's/^[[:space:]]*//' -e 's/[[:space:]]*$//' | grep -v '^$'; }

# check_fence <pattern> <label>: the first go fence whose body matches
# pattern must appear as one contiguous block in example_test.go.
# Contiguity matters: a subsequence match would let insertions in
# example_test.go drift past the gate. Lines are joined on a \001
# separator so the comparison is whole-line substring matching.
check_fence() {
    local pattern="$1" label="$2" block needle hay
    block=$(awk -v pat="$pattern" '
        /^```go$/ { buf = ""; infence = 1; next }
        /^```$/   { if (infence && buf ~ pat) { print buf; exit } infence = 0; next }
        infence   { buf = buf $0 "\n" }
    ' README.md)
    if [ -z "$block" ]; then
        echo "README.md: no $label go fence found (expected a \`\`\`go block matching $pattern)" >&2
        return 1
    fi
    needle=$(printf '%s\n' "$block" | norm | tr '\n' '\001')
    hay=$(norm <example_test.go | tr '\n' '\001')
    case "$hay" in
    *"$needle"*) ;;
    *)
        echo "README $label snippet is not mirrored verbatim (as one contiguous block) in example_test.go" >&2
        return 1
        ;;
    esac
}

check_fence 'iotrace\.New\(' "quickstart (Example_quickstart)" || fail=1
check_fence 'iotrace\.Scheduling\(' "scheduling (Example_scheduling)" || fail=1
check_fence 'iotrace\.Backbone\(' "congestion (Example_congestion)" || fail=1
check_fence 'iotrace\.Faults\(' "faults (Example_faults)" || fail=1
check_fence 'iotrace\.ImportFile\(' "importer (Example_import)" || fail=1

# --- 3. cited test names exist -----------------------------------------
defined=$(git grep --untracked -ohE '^func (Test|Fuzz|Benchmark|Example)[A-Za-z0-9_]*' -- '*_test.go' |
    sed 's/^func //' | sort -u)
while IFS=: read -r file line name; do
    if [ "${name%\*}" != "$name" ]; then
        grep -q "^${name%\*}" <<<"$defined" && continue
    else
        grep -qx "$name" <<<"$defined" && continue
    fi
    echo "$file:$line cites $name, which no _test.go defines" >&2
    fail=1
done < <(grep -onE '\b(Test|Fuzz|Benchmark|Example)[A-Z0-9_][A-Za-z0-9_]*\*?' README.md DESIGN.md docs/*.md)

if [ "$fail" -ne 0 ]; then
    exit 1
fi
echo "docs check: all markdown links resolve; README quickstart, scheduling, congestion, faults, and importer snippets match example_test.go; every cited test name is defined"
