#!/usr/bin/env bash
# Local CI gate: formatting, lints, rustdoc, the full test suite, the
# event-core golden differential gate, the deterministic perf-smoke
# regression gates (per-instance cold start, single-tenant fleet, and the
# multi-tenant contended-cache scenario with its per-tenant p99
# invariant), the MAF2 artifact size sweep (byte-exact baseline, O(header)
# open, wall-clock speedup floor), the
# large-fleet scale smoke (wall-clock budget), the predictive policy race
# (locality/prewarm/pipeline vs the reactive baseline), the
# content-addressed registry bench (chunk dedup vs whole-artifact
# fetches), every example end-to-end, the proptest regression-corpus
# check, and the concurrency stress test (sized for --release, hence run
# separately).
#
# `./ci.sh` runs everything; `./ci.sh --gate <name>` runs one simulator
# gate in isolation (as the CI matrix does), where <name> is one of:
#   golden | perf-smoke | mt-smoke | artifact | scale-smoke | policy-race |
#   registry
set -euo pipefail
cd "$(dirname "$0")"

GATES="golden perf-smoke mt-smoke artifact scale-smoke policy-race registry"

usage() {
  echo "usage: ./ci.sh [--gate <name>]"
  echo "gates: $GATES"
}

GATE="all"
case "${1:-}" in
"") ;;
--gate)
  GATE="${2:-}"
  if [ -z "$GATE" ]; then
    usage
    exit 2
  fi
  ;;
-h | --help)
  usage
  exit 0
  ;;
*)
  usage
  exit 2
  ;;
esac

prune_stale() {
  # Stale outputs from a previous run can mask a failure: a leftover
  # golden.diff or BENCH_*.json would be diffed/uploaded in place of
  # this run's output. Gates always start from a clean slate.
  mkdir -p target
  rm -rf target/golden-check
  rm -f target/golden.diff target/BENCH_*.json
}

gate_golden() {
  echo "==> event-core differential gate (golden ClusterReports)"
  # Regenerate the seed x scheduler x fault matrix into a scratch dir and
  # byte-diff against the committed oracle; any observable change to the
  # fleet simulator's semantics must re-commit results/golden/ on purpose.
  cargo run -q -p medusa-bench --bin ci-check-bench -- golden target/golden-check
  if ! diff -ru results/golden target/golden-check >target/golden.diff; then
    echo "FAIL: event core diverged from committed golden reports:"
    cat target/golden.diff
    exit 1
  fi
  echo "    all golden reports byte-identical"
}

check_bench() {
  # Runs the bench the committed baseline names, writes the fresh record
  # to target/ (CI uploads it when the gate fails), then gates it against
  # the baseline with the rules the record carries.
  cargo run --release -q -p medusa-bench --bin ci-check-bench -- \
    check "results/BENCH_$1.json" --out "target/BENCH_$1.json"
}

gate_perf_smoke() {
  echo "==> perf smoke (simulated makespans vs committed baselines)"
  check_bench coldstart
  check_bench cluster
}

gate_mt_smoke() {
  echo "==> multi-tenant perf smoke (per-tenant p99 invariant + cache-hit floor)"
  check_bench cluster_multitenant
}

gate_artifact() {
  echo "==> MAF2 artifact size sweep (release; byte-exact baseline + O(header) + speedup floor)"
  # The sweep times JSON parse vs MAF2 open on this host, so it runs the
  # release binary; the byte counts it gates are machine-independent.
  check_bench artifact
}

gate_scale_smoke() {
  echo "==> large-fleet scale smoke (release, wall-clock budget)"
  cargo run --release -q -p medusa-bench --bin ci-check-bench -- scale-smoke
}

gate_policy_race() {
  echo "==> policy race (predictive prewarm + locality + pipeline vs reactive baseline)"
  check_bench policies
}

gate_registry() {
  echo "==> registry bench (content-addressed chunk fetches vs whole-artifact control)"
  check_bench registry
}

if [ "$GATE" != "all" ]; then
  case " $GATES " in
  *" $GATE "*) ;;
  *)
    echo "unknown gate: $GATE"
    usage
    exit 2
    ;;
  esac
  prune_stale
  SECONDS=0
  "gate_${GATE//-/_}"
  echo "CI OK (gate $GATE, ${SECONDS}s)"
  exit 0
fi

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (workspace, all targets, -D warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (workspace, -D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

echo "==> proptest regression corpus (tracked and non-empty when present)"
# Convention (DESIGN.md): proptest failure persistence files are a shared
# regression corpus — when one exists it must be committed, and an empty
# file is a broken merge, not a corpus.
PROPTEST_FILES="$(find . -path ./target -prune -o -path ./.git -prune -o \
  \( -name '*.proptest-regressions' -o -path '*/proptest-regressions/*' \) \
  -type f -print)"
if [ -z "$PROPTEST_FILES" ]; then
  echo "    none present - OK"
else
  while IFS= read -r f; do
    if ! git ls-files --error-unmatch "$f" >/dev/null 2>&1; then
      echo "FAIL: $f is not tracked by git - commit the regression corpus"
      exit 1
    fi
    if [ ! -s "$f" ]; then
      echo "FAIL: $f is empty - delete it or commit the real regressions"
      exit 1
    fi
    echo "    $f - tracked, non-empty"
  done <<<"$PROPTEST_FILES"
fi

echo "==> no deprecation allowances in Rust sources"
if git grep -nE 'allow\([^)]*deprecated' -- '*.rs'; then
  echo "FAIL: a deprecation allowance - migrate the caller off the deprecated name instead"
  exit 1
fi
echo "    none found"

echo "==> cargo test (workspace)"
cargo test --workspace -q

echo "==> perfbench (its own workspace: compile + unit tests)"
# perfbench/ sits outside the workspace; this keeps a public-API change
# from silently breaking the repo benchmark.
cargo test --release --offline -q --manifest-path perfbench/Cargo.toml

prune_stale

gate_golden

echo "==> fault-injection matrix (debug + release)"
cargo test -q --test faults
cargo test --release -q --test faults

echo "==> examples (release, end-to-end)"
cargo build --release -q --examples
for ex in examples/*.rs; do
  name="$(basename "$ex" .rs)"
  echo "    running example $name"
  cargo run --release -q --example "$name" >/dev/null
done

gate_perf_smoke
gate_mt_smoke
gate_artifact
gate_scale_smoke
gate_policy_race
gate_registry

echo "==> stress test (release)"
CORES="$(cargo run -q -p medusa-bench --bin ci-check-bench -- cores)"
if [ "$CORES" -lt 2 ]; then
  echo "SKIP: stress test needs >=2 cores to exercise real thread interleavings;"
  echo "      this host reports available_parallelism=$CORES."
else
  cargo test --release -q --test stress -- --include-ignored
fi

echo "CI OK"
