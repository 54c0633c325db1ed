#!/usr/bin/env bash
# check_run_patterns.sh [FILE...]
#
# Checks that every `go test -run` pattern in the given files (default:
# the CI workflow and the verify skill) names only tests that exist.
# Each alternative of a pattern, with its ^ and $ anchors removed, must
# begin the name of a `func Test...` or `func Fuzz...` in one of the
# packages its command names (in the whole module when it names none).
# A step whose pattern names only deleted tests would run nothing and
# pass. The pattern '^$' (run no test) is skipped.
#
#   ci/check_run_patterns.sh
set -euo pipefail

cd "$(dirname "$0")/.."
if [ "$#" -eq 0 ]; then
  set -- .github/workflows/ci.yml .claude/skills/verify/SKILL.md
fi

# tests_in PKG...: the Test and Fuzz functions declared in the test
# files of each package directory (PKG/... takes its subdirectories too).
tests_in() {
  local pkg
  for pkg in "$@"; do
    case $pkg in
      */...) find "${pkg%/...}" -name '*_test.go' ;;
      *) find "$pkg" -maxdepth 1 -name '*_test.go' ;;
    esac
  done | { xargs -r grep -hoE '^func (Test|Fuzz)[A-Za-z0-9_]*\(' || true; } |
    sed -E 's/^func //; s/\($//' | sort -u
}

failed=0
checked=0
for file in "$@"; do
  while IFS= read -r line; do
    pattern=$(sed -nE "s/.*go test .*-run ('([^']*)'|([^ '\`]+)).*/\2\3/p" <<<"$line")
    pattern=${pattern//^/}
    pattern=${pattern//\$/}
    [ -n "$pattern" ] || continue
    read -ra pkgs <<<"$(grep -oE "(^| )\.(/[^ \`;'\"]*)?" <<<"$line" | tr '\n' ' ' || true)"
    [ "${#pkgs[@]}" -gt 0 ] || pkgs=(./...)
    names=$(tests_in "${pkgs[@]}")
    IFS='|' read -ra alts <<<"$pattern"
    for alt in "${alts[@]}"; do
      checked=$((checked + 1))
      if ! grep -q "^${alt}" <<<"$names"; then
        echo "$file: -run alternative '$alt' names no Test or Fuzz function in ${pkgs[*]}" >&2
        failed=1
      fi
    done
  done < <(grep -E 'go test .*-run ' "$file" || true)
done

if [ "$failed" -ne 0 ]; then
  exit 1
fi
echo "check_run_patterns: all $checked -run alternatives name a test"
