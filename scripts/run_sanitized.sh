#!/usr/bin/env bash
# Build the tree under a sanitizer and run the tier-1 ctest suite with it.
# Any report aborts the run (-fno-sanitize-recover=all), so a green exit
# means a clean pass.
#
# Default mode is ASan+UBSan (-DDPRANK_SANITIZE=ON). Pass --tsan first to
# build with ThreadSanitizer instead (-DDPRANK_SANITIZE_THREAD=ON,
# separate build directory) — the mode that exercises the parallel pass
# engine, the thread pool and the metrics registry's writers for races.
#
# Usage: scripts/run_sanitized.sh [--tsan] [ctest args...]; ctest -R is
# case-sensitive and gtest names read Suite.Case, so match suite names
# (the script refuses a -R alternative that selects no test):
#   e.g. scripts/run_sanitized.sh -R 'Faults|Recovery'
#        scripts/run_sanitized.sh --tsan -R 'Parallel|ThreadPool|Obs'
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
jobs="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

mode=asan
if [[ "${1:-}" == "--tsan" ]]; then
  mode=tsan
  shift
fi

if [[ "${mode}" == "tsan" ]]; then
  build_dir="${DPRANK_SANITIZE_BUILD_DIR:-${repo_root}/build-tsan}"
  sanitize_flag=-DDPRANK_SANITIZE_THREAD=ON
else
  build_dir="${DPRANK_SANITIZE_BUILD_DIR:-${repo_root}/build-sanitize}"
  sanitize_flag=-DDPRANK_SANITIZE=ON
fi

cmake -B "${build_dir}" -S "${repo_root}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  "${sanitize_flag}"
cmake --build "${build_dir}" -j "${jobs}"

if [[ "${mode}" == "tsan" ]]; then
  export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1:second_deadlock_stack=1}"
else
  export ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1:strict_string_checks=1}"
  export UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1}"
fi

# Refuse a -R filter with a dead alternative: every top-level `|` branch
# (split outside parentheses, so a(b|c)d stays one branch) must select at
# least one test, or a misspelled or deleted suite name silently narrows
# the run.
check_filter_alternatives() {
  local filter="$1" alt="" c i depth=0
  local -a alts=() dead=()
  for ((i = 0; i < ${#filter}; i++)); do
    c="${filter:i:1}"
    case "${c}" in
      '(') depth=$((depth + 1)) ;;
      ')') depth=$((depth - 1)) ;;
      '|')
        if ((depth == 0)); then
          alts+=("${alt}")
          alt=""
          continue
        fi
        ;;
    esac
    alt+="${c}"
  done
  alts+=("${alt}")
  for alt in "${alts[@]}"; do
    if [[ "$(ctest -N -R "${alt}" | sed -n 's/^Total Tests: //p')" == 0 ]]; then
      dead+=("${alt}")
    fi
  done
  if ((${#dead[@]} > 0)); then
    echo "run_sanitized.sh: -R alternatives that select no test:" \
      "${dead[*]}" >&2
    return 1
  fi
}

cd "${build_dir}"
args=("$@")
for ((i = 0; i < ${#args[@]}; i++)); do
  if [[ "${args[i]}" == -R ]]; then
    check_filter_alternatives "${args[i + 1]:-}"
  fi
done
ctest --output-on-failure -j "${jobs}" "$@"

# Sweep the dynamic-membership handoff path (join pulls, leave pushes,
# reconstruct-from-replica, outbox eviction, channel give-up) at bench
# scale under the same sanitizer: the chaos-soak campaign binary exits
# non-zero if any seeded case fails its acceptance bar. Skip with
# DPRANK_SKIP_SOAK=1 when iterating on an unrelated subsystem.
if [[ "${DPRANK_SKIP_SOAK:-0}" != "1" ]]; then
  ./bench/bench_chaos_soak --benchmark_filter='chaos/soak'
fi
