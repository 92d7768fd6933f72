#!/usr/bin/env bash
# gate-patterns.sh [Makefile]
#
# Checks that every alternative of every -run/-fuzz pattern on a `$(GO) test`
# line of the Makefile matches at least one test, fuzz target, benchmark or
# example in that line's package, as listed by `go test -list`. A gate that
# selects tests by name passes silently once a test it names is renamed or
# deleted; this turns that into a failure naming the dead alternative.
#
# Patterns are split at `|`, either at the top level (`TestA|TestB`) or
# inside one anchored group (`^(TestA|TestB)$`). `^$`, which selects nothing
# on purpose, is skipped. Matching uses grep -E over the listed names, which
# agrees with Go's regexp for the plain names and anchors the gates use.
set -euo pipefail

mk=${1:-Makefile}
GO=${GO:-go}
listdir=$(mktemp -d)
trap 'rm -rf "$listdir"' EXIT

# listing PKG prints the file holding PKG's `go test -list` output.
listing() {
	local f="$listdir/$(printf '%s' "$1" | tr '/.' '__')"
	if [ ! -f "$f" ]; then
		"$GO" test -list '.*' "$1" >"$f"
	fi
	printf '%s\n' "$f"
}

checked=0
dead=0
# Join backslash-continued lines, then keep the go test invocations.
while IFS= read -r line; do
	pkg=$(grep -oE '\./[^ ]+' <<<"$line" | head -n 1)
	for flag in -run -fuzz; do
		pat=$(sed -nE "s/.* $flag '([^']*)'.*/\1/p" <<<"$line")
		pat=${pat//\$\$/\$}
		if [ -z "$pat" ] || [ "$pat" = '^$' ]; then
			continue
		fi
		pre='' suf='' inner=$pat
		if [[ $pat =~ ^\^\((.*)\)\$$ ]]; then
			pre='^' suf='$' inner=${BASH_REMATCH[1]}
		elif [[ $pat =~ ^\^([^|]*)\$$ ]]; then
			pre='^' suf='$' inner=${BASH_REMATCH[1]}
		fi
		if [[ $inner == *[\(\)]* ]]; then
			echo "gate-patterns: $pkg $flag '$pat': cannot split nested groups" >&2
			exit 2
		fi
		list=$(listing "$pkg")
		IFS='|' read -ra alts <<<"$inner"
		for alt in "${alts[@]}"; do
			checked=$((checked + 1))
			if ! grep -qE "$pre${alt%%/*}$suf" "$list"; then
				echo "gate-patterns: $pkg $flag '$pat': alternative '$alt' matches no test" >&2
				dead=$((dead + 1))
			fi
		done
	done
done < <(sed -e ':a' -e '/\\$/N; s/\\\n//; ta' "$mk" | grep -E '\$\(GO\) test ')

if [ "$dead" -gt 0 ]; then
	echo "gate-patterns: $dead of $checked alternative(s) match no test" >&2
	exit 1
fi
echo "gate-patterns: all $checked alternative(s) match a test"
