#!/usr/bin/env bash
# check_run_patterns.sh [FILE...]
#
# Checks that every `go test -run` pattern names only tests that exist,
# and every `go test -bench` pattern only benchmarks that exist. Each
# alternative of a pattern, with its ^ and $ anchors removed, must begin
# the name of a `func Test...` or `func Fuzz...` (for -run) or a
# `func Benchmark...` (for -bench) in one of the packages its command
# names (in the whole module when it names none). A step whose pattern
# names only deleted tests would run nothing and pass. The -run pattern
# '^$' (run no test) is skipped.
#
# By default -run patterns are read from the CI workflow and the verify
# skill, and -bench patterns from those and from README.md, DESIGN.md
# and EXPERIMENTS.md; FILE arguments replace both lists.
#
#   ci/check_run_patterns.sh
set -euo pipefail

cd "$(dirname "$0")/.."
run_files=(.github/workflows/ci.yml .claude/skills/verify/SKILL.md)
bench_files=("${run_files[@]}" README.md DESIGN.md EXPERIMENTS.md)
if [ "$#" -gt 0 ]; then
  run_files=("$@")
  bench_files=("$@")
fi

# funcs_in KINDS PKG...: the functions whose names begin with one of
# KINDS (an alternation, such as Test|Fuzz) declared in the test files
# of each package directory (PKG/... takes its subdirectories too).
funcs_in() {
  local kinds=$1 pkg
  shift
  for pkg in "$@"; do
    case $pkg in
      */...) find "${pkg%/...}" -name '*_test.go' ;;
      *) find "$pkg" -maxdepth 1 -name '*_test.go' ;;
    esac
  done | { xargs -r grep -hoE "^func ($kinds)[A-Za-z0-9_]*\(" || true; } |
    sed -E 's/^func //; s/\($//' | sort -u
}

failed=0
checked=0

# check FLAG KINDS FILE...: every alternative of every `go test ... FLAG
# PATTERN` in the files must begin the name of a KINDS function.
check() {
  local flag=$1 kinds=$2 file line pattern names alt
  local -a pkgs alts
  shift 2
  for file in "$@"; do
    while IFS= read -r line; do
      pattern=$(sed -nE "s/.*go test .*${flag} ('([^']*)'|([^ '\`]+)).*/\2\3/p" <<<"$line")
      pattern=${pattern//^/}
      pattern=${pattern//\$/}
      [ -n "$pattern" ] || continue
      read -ra pkgs <<<"$(grep -oE "(^| )\.(/[^ \`;'\"]*)?" <<<"$line" | tr '\n' ' ' || true)"
      [ "${#pkgs[@]}" -gt 0 ] || pkgs=(./...)
      names=$(funcs_in "$kinds" "${pkgs[@]}")
      IFS='|' read -ra alts <<<"$pattern"
      for alt in "${alts[@]}"; do
        checked=$((checked + 1))
        if ! grep -q "^${alt}" <<<"$names"; then
          echo "$file: $flag alternative '$alt' names no ${kinds//|/ or } function in ${pkgs[*]}" >&2
          failed=1
        fi
      done
    done < <(grep -E "go test .*${flag} " "$file" || true)
  done
}

check -run 'Test|Fuzz' "${run_files[@]}"
check -bench Benchmark "${bench_files[@]}"

if [ "$failed" -ne 0 ]; then
  exit 1
fi
echo "check_run_patterns: all $checked -run and -bench alternatives name a function"
