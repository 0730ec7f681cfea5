#!/usr/bin/env bash
# Fails when an alternative of a `go test -run '…'` pattern in the CI workflow
# matches no test of the packages its command names: a test that is renamed or
# deleted otherwise drops out of its race or repeat step without a sound.
# Run from the repository root.
set -euo pipefail
workflow=.github/workflows/ci.yml
status=0
while IFS= read -r cmd; do
  pattern=$(sed -E "s/.*-run '?([^' ]+)'?.*/\1/" <<<"$cmd")
  [ "$pattern" = '^$' ] && continue # benchmark and fuzz steps run no test
  packages=$(tr ' ' '\n' <<<"$cmd" | grep -E '^\.(/|$)' | tr '\n' ' ')
  # shellcheck disable=SC2086 # the package list is meant to split
  listed=$(go test -list '.*' $packages | grep -E '^(Test|Fuzz|Benchmark|Example)')
  IFS='|' read -ra alternatives <<<"$pattern"
  for alt in "${alternatives[@]}"; do
    if ! grep -Eq -- "$alt" <<<"$listed"; then
      echo "$workflow: -run alternative '$alt' matches no test in $packages" >&2
      status=1
    fi
  done
done < <(grep -oE "go test[^&]*-run [^&]*" "$workflow")
exit $status
