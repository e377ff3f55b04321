#!/usr/bin/env bash
# Seeded-bug catalogue: every mutants/*.patch is a known bug, and the tests
# its `expect:` lines name must fail with it applied.
#
#   scripts/mutants.sh               try every patch in turn
#   scripts/mutants.sh NAME...       only mutants/NAME.patch
#
# A patch opens with a description and one line per expected failure:
#
#   expect: MODE CARGO-TEST-ARGS
#
# MODE is `debug`, `release` or `both`; CARGO-TEST-ARGS select the tests
# (`-p ioa --lib intern::tests::x`, `--test determinism_matrix`, ...).
# The working tree is copied once to target/mutants/tree, where each patch
# is applied, its selections are built (a patch that no longer applies or
# builds fails the script, so a compile error can never pass for a caught
# bug), run under `timeout` and an address-space cap, and the patch is
# reverted. The script fails when any selection passes with its patch
# applied. A selection killed by the timeout or the cap counts as caught
# and is reported as such.
set -euo pipefail
cd "$(dirname "$0")/.."

TIMEOUT_SECS=900
ADDRESS_SPACE_KIB=$((6 * 1024 * 1024))
WORK=target/mutants
TREE=$WORK/tree

if [[ $# -gt 0 ]]; then
  PATCHES=()
  for name in "$@"; do
    PATCHES+=("mutants/${name%.patch}.patch")
  done
else
  PATCHES=(mutants/*.patch)
fi
for patch in "${PATCHES[@]}"; do
  [[ -f $patch ]] || { echo "mutants: no such patch: $patch" >&2; exit 2; }
done

echo "==> copying the working tree to ${TREE}"
rm -rf "$TREE"
mkdir -p "$TREE"
# -m stamps every copied file with the current time, so the shared build
# directory never mistakes a file a patch touched last run for built.
git ls-files -z --cached --others --exclude-standard |
  tar --null --ignore-failed-read -T - -cf - | tar -xmf - -C "$TREE"
export CARGO_TARGET_DIR=$PWD/$WORK/target
ROOT=$PWD

failures=0
report=()
for patch in "${PATCHES[@]}"; do
  name=$(basename "$patch" .patch)
  echo "==> ${name}"
  if ! (cd "$TREE" && patch -p1 --batch --fuzz=0 --silent --dry-run <"$ROOT/$patch" >/dev/null); then
    echo "mutants: ${name} no longer applies" >&2
    report+=("$(printf '%-32s DOES NOT APPLY' "$name")")
    failures=$((failures + 1))
    continue
  fi
  (cd "$TREE" && patch -p1 --batch --fuzz=0 --silent <"$ROOT/$patch")
  expectations=0
  while read -r mode args; do
    case "$mode" in
      debug) profiles=("") ;;
      release) profiles=(--release) ;;
      both) profiles=("" --release) ;;
      *)
        echo "mutants: ${name}: bad mode '${mode}'" >&2
        exit 2
        ;;
    esac
    for profile in "${profiles[@]}"; do
      expectations=$((expectations + 1))
      label="${profile:---debug} ${args}"
      # shellcheck disable=SC2086 # the selection is a word list
      if ! (cd "$TREE" && cargo test -q $profile $args --no-run 2>&1 | tail -n 20); then
        echo "mutants: ${name}: '${label}' does not build" >&2
        report+=("$(printf '%-32s DOES NOT BUILD  %s' "$name" "$label")")
        failures=$((failures + 1))
        continue
      fi
      set +e
      # shellcheck disable=SC2086
      (cd "$TREE" && ulimit -v "$ADDRESS_SPACE_KIB" &&
        timeout "$TIMEOUT_SECS" cargo test -q $profile $args >"$ROOT/$WORK/last.log" 2>&1)
      status=$?
      set -e
      if [[ $status -eq 0 ]]; then
        echo "mutants: ${name}: '${label}' passed with the bug in" >&2
        report+=("$(printf '%-32s SURVIVED        %s' "$name" "$label")")
        failures=$((failures + 1))
      elif [[ $status -eq 124 ]]; then
        report+=("$(printf '%-32s caught (timeout) %s' "$name" "$label")")
      else
        report+=("$(printf '%-32s caught          %s' "$name" "$label")")
      fi
    done
  done < <(sed -n 's/^expect: //p' "$patch")
  (cd "$TREE" && patch -p1 -R --batch --fuzz=0 --silent <"$ROOT/$patch")
  if [[ $expectations -eq 0 ]]; then
    echo "mutants: ${name} names no expected failure" >&2
    failures=$((failures + 1))
  fi
done

echo
echo "seeded bugs:"
printf '  %s\n' "${report[@]}"
if [[ $failures -gt 0 ]]; then
  echo "mutants: ${failures} problem(s)" >&2
  exit 1
fi
echo "Every seeded bug was caught."
