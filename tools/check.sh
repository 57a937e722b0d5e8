#!/usr/bin/env bash
# One-command correctness gate: plain build + full test suite (including the
# `ctest -L lint` static-analysis pass), then the concurrency suites under
# ThreadSanitizer, then the full suite under AddressSanitizer+UBSan.
#
# Usage:
#   tools/check.sh            # run the whole matrix
#   tools/check.sh plain      # just the plain build + full ctest (+ lint,
#                             # incl. the lock-coverage snapshot gate)
#   tools/check.sh tsan       # just the TSan build + `ctest -L tsan`
#   tools/check.sh asan       # just the ASan/UBSan build + full ctest
#   tools/check.sh lint       # `ctest -L lint` + `shmcaffe-lint --coverage`
#                             # gated against LINT_coverage.json: unannotated
#                             # fields fail, per-class unguarded counts and
#                             # pin_escapes must not grow, and the root/
#                             # contract counters (deterministic_roots,
#                             # hot_kernel_roots, blocking_roots,
#                             # nonblocking_contracts) must not shrink
#                             # (--force overrides)
#   tools/check.sh recovery   # `ctest -L recovery` in the plain AND TSan trees
#   tools/check.sh elastic    # `ctest -L elastic` in the plain AND TSan trees,
#                             # then the Release bench_ext_elastic snapshot into
#                             # BENCH_elastic.json; refuses to overwrite the
#                             # baseline on a >20% throughput regression unless
#                             # --force is also given
#   tools/check.sh integrity  # `ctest -L integrity` in the plain AND ASan
#                             # trees (checksum/repair paths are memory hot
#                             # spots), then the Release bench_ext_integrity
#                             # snapshot into BENCH_integrity.json; refuses to
#                             # overwrite the baseline on a >20% throughput
#                             # regression unless --force is also given
#   tools/check.sh simd       # the `simd`-labelled kernel-equivalence tests in
#                             # the AVX2 tree AND a -DSHMCAFFE_SIMD=OFF scalar
#                             # tree: the SIMD tier must be bitwise identical
#                             # to the scalar cores, build to build
#   tools/check.sh bench      # Release build + three bench_micro_kernels runs,
#                             # snapshotted per row at the median run into
#                             # BENCH_kernels.json; refuses to overwrite the
#                             # baseline on a >20% regression of any row's
#                             # median throughput unless --force is also given
#
# Each configuration builds into its own tree (build/, build-tsan/,
# build-asan/, build-bench/) so incremental reruns are cheap.  Exits non-zero
# on the first failing stage.
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS=${JOBS:-$(nproc)}
FORCE=0
ARGS=()
for arg in "$@"; do
  case "$arg" in
    --force) FORCE=1 ;;
    *) ARGS+=("$arg") ;;
  esac
done
STAGES=("${ARGS[@]:-plain tsan asan}")
STAGES=(${STAGES[@]})  # re-split when the default multi-word string is used

run_stage() {
  local name=$1 build_dir=$2 sanitize=$3 ctest_args=$4
  echo "==> [$name] configure + build ($build_dir)"
  cmake -B "$build_dir" -S . -DSHMCAFFE_SANITIZE="$sanitize" >/dev/null
  cmake --build "$build_dir" -j "$JOBS"
  echo "==> [$name] ctest $ctest_args"
  (cd "$build_dir" && ctest --output-on-failure -j "$JOBS" $ctest_args)
}

# Lock-coverage snapshot: `shmcaffe-lint --coverage` against the committed
# LINT_coverage.json baseline.  Fails if any class has unannotated fields, or
# if a class's `unguarded` count grew versus the baseline (declaring a field
# SHMCAFFE_UNGUARDED is an explicit, reviewed loosening — the snapshot pins
# it).  The flow-sensitive counters are pinned the same way: a class's
# `unguarded_access` count (guarded-field reads/writes the lock-region pass
# could not prove held) and the summary `tainted` count (statements the
# determinism pass reaches from a SHMCAFFE_DETERMINISTIC root) must not grow.
# The summary `deterministic_roots` count must not SHRINK: the roots are the
# cross-stack reproducibility contract (recovery/membership/integrity
# fingerprints), and silently dropping an annotation un-gates its callees.
# On success the new report becomes the baseline; a regression keeps the old
# baseline unless --force is given.
lint_coverage_gate() {
  local build_dir=$1
  echo "==> [lint] shmcaffe-lint --coverage gate"
  if [[ ! -x "./$build_dir/tools/lint/shmcaffe-lint" ]]; then
    echo "==> [lint] ./$build_dir/tools/lint/shmcaffe-lint is missing — the $build_dir tree" \
         "is stale; run 'tools/check.sh plain' (or: cmake --build $build_dir" \
         "--target shmcaffe-lint) and retry" >&2
    exit 1
  fi
  local new_json
  new_json=$(mktemp)
  "./$build_dir/tools/lint/shmcaffe-lint" . --coverage > "$new_json"
  local extract='s/.*"class": "\([^"]*\)".*"unguarded": \([0-9]*\), "unannotated": \([0-9]*\).*/\1 \2 \3/p'
  local extract_access='s/.*"class": "\([^"]*\)".*"unguarded_access": \([0-9]*\).*/\1 \2/p'
  local extract_tainted='s/.*"tainted": \([0-9]*\).*/\1/p'
  if grep -q '"unannotated": [1-9]' "$new_json"; then
    echo "==> [lint] classes with unannotated fields (guarded-by rule should have caught this):" >&2
    sed -n "$extract" "$new_json" | awk '$3 > 0' >&2
    rm -f "$new_json"
    exit 1
  fi
  if [[ -f LINT_coverage.json && "$FORCE" != 1 ]]; then
    if ! awk 'NR==FNR { old[$1] = $2; next }
              ($1 in old) && $2 > old[$1] {
                printf "coverage regression: %s unguarded %d -> %d\n", $1, old[$1], $2
                bad = 1
              }
              END { exit bad }' \
          <(sed -n "$extract" LINT_coverage.json) \
          <(sed -n "$extract" "$new_json"); then
      echo "==> [lint] unguarded field count grew vs LINT_coverage.json;" \
           "baseline kept (rerun with --force after review)" >&2
      rm -f "$new_json"
      exit 1
    fi
    if ! awk 'NR==FNR { old[$1] = $2; next }
              ($1 in old) && $2 > old[$1] {
                printf "coverage regression: %s unguarded_access %d -> %d\n", $1, old[$1], $2
                bad = 1
              }
              END { exit bad }' \
          <(sed -n "$extract_access" LINT_coverage.json) \
          <(sed -n "$extract_access" "$new_json"); then
      echo "==> [lint] unguarded guarded-field accesses grew vs LINT_coverage.json;" \
           "baseline kept (rerun with --force after review)" >&2
      rm -f "$new_json"
      exit 1
    fi
    local old_tainted new_tainted
    old_tainted=$(sed -n "$extract_tainted" LINT_coverage.json | head -1)
    new_tainted=$(sed -n "$extract_tainted" "$new_json" | head -1)
    if [[ -n "$old_tainted" && -n "$new_tainted" && "$new_tainted" -gt "$old_tainted" ]]; then
      echo "==> [lint] determinism-tainted statement count grew vs LINT_coverage.json" \
           "($old_tainted -> $new_tainted); baseline kept (rerun with --force after review)" >&2
      rm -f "$new_json"
      exit 1
    fi
    local extract_roots='s/.*"deterministic_roots": \([0-9]*\).*/\1/p'
    local old_roots new_roots
    old_roots=$(sed -n "$extract_roots" LINT_coverage.json | head -1)
    new_roots=$(sed -n "$extract_roots" "$new_json" | head -1)
    if [[ -n "$old_roots" && -n "$new_roots" && "$new_roots" -lt "$old_roots" ]]; then
      echo "==> [lint] SHMCAFFE_DETERMINISTIC root count shrank vs LINT_coverage.json" \
           "($old_roots -> $new_roots); baseline kept (rerun with --force after review)" >&2
      rm -f "$new_json"
      exit 1
    fi
    # The hot-path allocation counters mirror the determinism pair: the
    # `hot_allocs` count (suppressed allocation sites reachable from
    # SHMCAFFE_HOT_KERNEL roots, net of justified lint:allow escapes) must
    # not grow, and the `hot_kernel_roots` count must not shrink — dropping
    # a root annotation silently un-gates every callee's allocations.
    local extract_hot_allocs='s/.*"hot_allocs": \([0-9]*\).*/\1/p'
    local old_hot new_hot
    old_hot=$(sed -n "$extract_hot_allocs" LINT_coverage.json | head -1)
    new_hot=$(sed -n "$extract_hot_allocs" "$new_json" | head -1)
    if [[ -n "$old_hot" && -n "$new_hot" && "$new_hot" -gt "$old_hot" ]]; then
      echo "==> [lint] hot-kernel allocation count grew vs LINT_coverage.json" \
           "($old_hot -> $new_hot); baseline kept (rerun with --force after review)" >&2
      rm -f "$new_json"
      exit 1
    fi
    local extract_hot_roots='s/.*"hot_kernel_roots": \([0-9]*\).*/\1/p'
    local old_hroots new_hroots
    old_hroots=$(sed -n "$extract_hot_roots" LINT_coverage.json | head -1)
    new_hroots=$(sed -n "$extract_hot_roots" "$new_json" | head -1)
    if [[ -n "$old_hroots" && -n "$new_hroots" && "$new_hroots" -lt "$old_hroots" ]]; then
      echo "==> [lint] SHMCAFFE_HOT_KERNEL root count shrank vs LINT_coverage.json" \
           "($old_hroots -> $new_hroots); baseline kept (rerun with --force after review)" >&2
      rm -f "$new_json"
      exit 1
    fi
    # The blocking-contract counters follow the same grow/shrink discipline:
    # `blocking_roots` (annotated SHMCAFFE_BLOCKS groups) and
    # `nonblocking_contracts` (SHMCAFFE_NONBLOCKING groups, each lint-verified
    # to never reach a blocking root) must not shrink — dropping either kind
    # of annotation silently weakens the no-blocking-under-lock pass — and
    # `pin_escapes` (fields + functions annotated SHMCAFFE_PIN_ESCAPE) must
    # not grow: every new escaped pinned view is a reviewed lifetime hazard.
    local extract_blocking='s/.*"blocking_roots": \([0-9]*\).*/\1/p'
    local old_blk new_blk
    old_blk=$(sed -n "$extract_blocking" LINT_coverage.json | head -1)
    new_blk=$(sed -n "$extract_blocking" "$new_json" | head -1)
    if [[ -n "$old_blk" && -n "$new_blk" && "$new_blk" -lt "$old_blk" ]]; then
      echo "==> [lint] SHMCAFFE_BLOCKS root count shrank vs LINT_coverage.json" \
           "($old_blk -> $new_blk); baseline kept (rerun with --force after review)" >&2
      rm -f "$new_json"
      exit 1
    fi
    local extract_contracts='s/.*"nonblocking_contracts": \([0-9]*\).*/\1/p'
    local old_nbc new_nbc
    old_nbc=$(sed -n "$extract_contracts" LINT_coverage.json | head -1)
    new_nbc=$(sed -n "$extract_contracts" "$new_json" | head -1)
    if [[ -n "$old_nbc" && -n "$new_nbc" && "$new_nbc" -lt "$old_nbc" ]]; then
      echo "==> [lint] SHMCAFFE_NONBLOCKING contract count shrank vs LINT_coverage.json" \
           "($old_nbc -> $new_nbc); baseline kept (rerun with --force after review)" >&2
      rm -f "$new_json"
      exit 1
    fi
    local extract_escapes='s/.*"pin_escapes": \([0-9]*\).*/\1/p'
    local old_esc new_esc
    old_esc=$(sed -n "$extract_escapes" LINT_coverage.json | head -1)
    new_esc=$(sed -n "$extract_escapes" "$new_json" | head -1)
    if [[ -n "$old_esc" && -n "$new_esc" && "$new_esc" -gt "$old_esc" ]]; then
      echo "==> [lint] SHMCAFFE_PIN_ESCAPE count grew vs LINT_coverage.json" \
           "($old_esc -> $new_esc); baseline kept (rerun with --force after review)" >&2
      rm -f "$new_json"
      exit 1
    fi
  fi
  mv "$new_json" LINT_coverage.json
  echo "==> [lint] snapshot written to LINT_coverage.json"
}

MATRIX_START=$(date +%s)
for stage in "${STAGES[@]}"; do
  STAGE_START=$(date +%s)
  case "$stage" in
    plain)
      # The plain tree runs everything: unit + integration suites, the
      # shmcaffe-lint repo scan (`-L lint`), and the lock-order detector
      # guards embedded in the concurrency suites.
      run_stage plain build "" ""
      lint_coverage_gate build
      ;;
    tsan)
      # Data-race + (via the LockOrder guard tests) deadlock-potential pass
      # over the suites that drive real threads.
      run_stage tsan build-tsan thread "-L tsan"
      ;;
    asan)
      # Heap/stack/UB pass over the full suite; `address` also enables UBSan.
      run_stage asan build-asan address ""
      ;;
    lint)
      # Static half (`ctest -L lint`: the repo scan + rule unit tests), then
      # the lock-coverage snapshot gate.
      run_stage lint build "" "-L lint"
      lint_coverage_gate build
      ;;
    recovery)
      # Focused gate for the recovery layer (replicated-SMB failover,
      # checkpoints, re-admission): its suite in the plain tree, then the
      # same tests under ThreadSanitizer — failover and re-admission are
      # concurrency hot spots.
      run_stage recovery-plain build "" "-L recovery"
      run_stage recovery-tsan build-tsan thread "-L recovery"
      ;;
    elastic)
      # Focused gate for the elastic membership layer (live join/drain,
      # shard rebalancing, straggler quarantine): its suite in the plain
      # tree, then under ThreadSanitizer — membership transitions race
      # against live training — and finally the simulated elastic bench
      # snapshotted against the committed baseline.  The bench quantities
      # are simulated (deterministic, build-type independent), so the 20%
      # throughput fence catches modelling regressions, not machine noise.
      run_stage elastic-plain build "" "-L elastic"
      run_stage elastic-tsan build-tsan thread "-L elastic"
      echo "==> [elastic] configure + build (build-bench, Release)"
      cmake -B build-bench -S . -DCMAKE_BUILD_TYPE=Release \
            -DSHMCAFFE_LOCK_ASSERTS=OFF >/dev/null
      cmake --build build-bench -j "$JOBS" --target bench_ext_elastic
      echo "==> [elastic] bench_ext_elastic"
      new_json=$(mktemp)
      ./build-bench/bench/bench_ext_elastic > "$new_json"
      extract='s/.*"name": "\([^"]*\)".*"throughput": \([0-9.eE+-]*\).*/\1 \2/p'
      if [[ -f BENCH_elastic.json && "$FORCE" != 1 ]]; then
        if ! awk 'NR==FNR { old[$1] = $2; next }
                  ($1 in old) && old[$1] > 0 && $2 < 0.8 * old[$1] {
                    printf "regression: %s %.4f -> %.4f (-%.0f%%)\n",
                           $1, old[$1], $2, 100 * (1 - $2 / old[$1]); bad = 1
                  }
                  END { exit bad }' \
              <(sed -n "$extract" BENCH_elastic.json) \
              <(sed -n "$extract" "$new_json"); then
          echo "==> [elastic] >20% throughput regression vs BENCH_elastic.json;" \
               "baseline kept (rerun with --force to overwrite)" >&2
          rm -f "$new_json"
          exit 1
        fi
      fi
      mv "$new_json" BENCH_elastic.json
      echo "==> [elastic] snapshot written to BENCH_elastic.json"
      ;;
    integrity)
      # Focused gate for the data-integrity layer (chunk checksums,
      # verify-on-read, replica read-repair, scrubbing): its suite in the
      # plain tree, then the same tests under AddressSanitizer+UBSan — the
      # checksum and repair paths do raw byte-span arithmetic over segment
      # storage, so memory errors are the failure mode to hunt — and finally
      # the simulated integrity bench snapshotted against the committed
      # baseline.  The bench quantities are simulated (deterministic,
      # build-type independent), so the 20% throughput fence catches
      # modelling regressions, not machine noise.
      run_stage integrity-plain build "" "-L integrity"
      run_stage integrity-asan build-asan address "-L integrity"
      echo "==> [integrity] configure + build (build-bench, Release)"
      cmake -B build-bench -S . -DCMAKE_BUILD_TYPE=Release \
            -DSHMCAFFE_LOCK_ASSERTS=OFF >/dev/null
      cmake --build build-bench -j "$JOBS" --target bench_ext_integrity
      echo "==> [integrity] bench_ext_integrity"
      new_json=$(mktemp)
      ./build-bench/bench/bench_ext_integrity > "$new_json"
      extract='s/.*"name": "\([^"]*\)".*"throughput": \([0-9.eE+-]*\).*/\1 \2/p'
      if [[ -f BENCH_integrity.json && "$FORCE" != 1 ]]; then
        if ! awk 'NR==FNR { old[$1] = $2; next }
                  ($1 in old) && old[$1] > 0 && $2 < 0.8 * old[$1] {
                    printf "regression: %s %.4f -> %.4f (-%.0f%%)\n",
                           $1, old[$1], $2, 100 * (1 - $2 / old[$1]); bad = 1
                  }
                  END { exit bad }' \
              <(sed -n "$extract" BENCH_integrity.json) \
              <(sed -n "$extract" "$new_json"); then
          echo "==> [integrity] >20% throughput regression vs BENCH_integrity.json;" \
               "baseline kept (rerun with --force to overwrite)" >&2
          rm -f "$new_json"
          exit 1
        fi
      fi
      mv "$new_json" BENCH_integrity.json
      echo "==> [integrity] snapshot written to BENCH_integrity.json"
      ;;
    simd)
      # Kernel-core tier cross-check: build a second tree with the SIMD tier
      # compiled out (-DSHMCAFFE_SIMD=OFF forces the scalar cores) and run
      # the kernel-equivalence suites in both.  The contract under test is
      # bitwise identity: the `simd`-labelled tests hash training floats and
      # kernel outputs, and those hashes must agree between the two builds
      # (each build asserts its own invariance; the shared expectations in
      # the tests pin the cross-build equality).
      run_stage simd-on build "" "-L simd"
      echo "==> [simd] configure + build (build-scalar, SIMD tier off)"
      cmake -B build-scalar -S . -DSHMCAFFE_SIMD=OFF >/dev/null
      cmake --build build-scalar -j "$JOBS"
      echo "==> [simd] ctest -L simd (scalar cores)"
      (cd build-scalar && ctest --output-on-failure -j "$JOBS" -L simd)
      ;;
    bench)
      # Micro-kernel throughput snapshot.  Optimised tree (the sanitizer
      # trees and default RelWithDebInfo mismeasure the kernels), three
      # runs, then a guarded overwrite of the committed baseline: every
      # kernel present in both old and new snapshots must keep its median
      # throughput over the three runs within 20% of its recorded
      # throughput, or the stage fails and keeps the baseline (override with
      # --force after an intentional change).  One sample per row is too
      # noisy on a shared host; the median of three is not.
      echo "==> [bench] configure + build (build-bench, Release)"
      # Lock-held assertions off: the kernels are measured, not checked, and
      # the per-call held-list scan would perturb the hot paths.
      cmake -B build-bench -S . -DCMAKE_BUILD_TYPE=Release \
            -DSHMCAFFE_LOCK_ASSERTS=OFF >/dev/null
      cmake --build build-bench -j "$JOBS" --target bench_micro_kernels
      runs=()
      for run in 1 2 3; do
        echo "==> [bench] bench_micro_kernels (run $run of 3)"
        runs+=("$(mktemp)")
        ./build-bench/bench/bench_micro_kernels > "${runs[-1]}"
      done
      # Each kernel row is one JSON line: the snapshot is run 1 with every
      # row replaced by the line of whichever run holds that row's median
      # throughput (the header fields stay run 1's).
      new_json=$(mktemp)
      awk 'function name(line) {
             match(line, /"name": "[^"]*"/); return substr(line, RSTART + 9, RLENGTH - 10)
           }
           function value(line) {
             match(line, /"throughput": [0-9.eE+-]+/)
             return substr(line, RSTART + 14, RLENGTH - 14) + 0
           }
           FNR == 1 { file++ }
           file < 3 && /"name": "/ { row[name($0), file] = $0; next }
           file < 3 { next }
           /"name": "/ {
             a = $0; b = row[name(a), 1]; c = row[name(a), 2]
             if (b == "" || c == "") { print a; next }
             va = value(a); vb = value(b); vc = value(c)
             if ((va - vb) * (va - vc) <= 0) print a
             else if ((vb - va) * (vb - vc) <= 0) print b
             else print c
             next
           }
           { print }' "${runs[1]}" "${runs[2]}" "${runs[0]}" > "$new_json"
      rm -f "${runs[@]}"
      extract='s/.*"name": "\([^"]*\)".*"throughput": \([0-9.eE+-]*\).*/\1 \2/p'
      if [[ -f BENCH_kernels.json && "$FORCE" != 1 ]]; then
        if ! awk 'NR==FNR { old[$1] = $2; next }
                  ($1 in old) && old[$1] > 0 && $2 < 0.8 * old[$1] {
                    printf "regression: %s %.4f -> %.4f (-%.0f%%)\n",
                           $1, old[$1], $2, 100 * (1 - $2 / old[$1]); bad = 1
                  }
                  END { exit bad }' \
              <(sed -n "$extract" BENCH_kernels.json) \
              <(sed -n "$extract" "$new_json"); then
          echo "==> [bench] >20% throughput regression vs BENCH_kernels.json;" \
               "baseline kept (rerun with --force to overwrite)" >&2
          rm -f "$new_json"
          exit 1
        fi
      fi
      mv "$new_json" BENCH_kernels.json
      echo "==> [bench] snapshot written to BENCH_kernels.json"
      ;;
    *)
      echo "unknown stage '$stage' (expected plain|tsan|asan|lint|recovery|elastic|integrity|simd|bench)" >&2
      exit 2
      ;;
  esac
  echo "==> [$stage] stage wall clock: $(( $(date +%s) - STAGE_START ))s"
done

echo "==> all stages passed ($(( $(date +%s) - MATRIX_START ))s total)"
