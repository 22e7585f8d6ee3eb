#!/usr/bin/env bash
# Static-analysis gate for ANTSim: the project-specific antsim-lint
# pass (determinism/conservation contracts, scripts/antsim_lint.py),
# clang-tidy over every source file in src/ and tests/oracles/ (using
# the compile_commands.json of an existing build tree), plus a handful
# of grep-level convention checks that clang-tidy cannot express. Run
# from anywhere; exits non-zero on any finding.
#
# Usage: scripts/lint.sh [build-dir]
#   build-dir defaults to ./build and must contain compile_commands.json
#   (the top-level CMakeLists.txt always exports one).
#
# antsim-lint writes its findings as SARIF to
# ${build_dir}/antsim_lint.sarif for CI artifact upload.

set -u
repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-${repo_root}/build}"
status=0

# ---------------------------------------------------------- antsim-lint
if command -v python3 >/dev/null 2>&1; then
    echo "lint: running antsim-lint (determinism/conservation contracts)"
    mkdir -p "${build_dir}"
    if ! python3 "${repo_root}/scripts/antsim_lint.py" \
             --compile-commands "${build_dir}/compile_commands.json" \
             --sarif "${build_dir}/antsim_lint.sarif"; then
        status=1
    fi
else
    echo "lint: python3 not found, skipping antsim-lint stage" >&2
fi

# ------------------------------------------------ validator self-tests
# The Prometheus-exposition linter gates CI artifacts; exercise its own
# fixtures here so a regression in the validator cannot hide one in the
# exposition writer.
if command -v python3 >/dev/null 2>&1; then
    echo "lint: running validate_metrics self-test"
    if ! python3 "${repo_root}/scripts/validate_metrics.py" --self-test; then
        status=1
    fi
fi

# ---------------------------------------------------------------- tidy
if command -v clang-tidy >/dev/null 2>&1; then
    if [ ! -f "${build_dir}/compile_commands.json" ]; then
        echo "lint: no compile_commands.json in ${build_dir};" \
             "configure a build first (cmake -B build -S .)" >&2
        exit 1
    fi
    echo "lint: running clang-tidy ($(clang-tidy --version | head -1))"
    mapfile -t sources < <(cd "${repo_root}" && \
                           find src tests/oracles -name '*.cc' | sort)
    if ! (cd "${repo_root}" && \
          clang-tidy -p "${build_dir}" --quiet "${sources[@]}"); then
        status=1
    fi
else
    echo "lint: clang-tidy not found, skipping tidy stage" \
         "(convention checks still run)" >&2
fi

# --------------------------------------------- convention grep checks
cd "${repo_root}"

# 1. No raw assert(): the repo uses ANT_ASSERT, which survives NDEBUG
#    and prints file:line. static_assert is fine.
raw_asserts=$(grep -rnE '(^|[^_[:alnum:]])assert\(' src/ tests/oracles/ \
              --include='*.cc' --include='*.hh' | grep -v 'static_assert' || true)
if [ -n "${raw_asserts}" ]; then
    echo "lint: raw assert() found; use ANT_ASSERT instead:" >&2
    echo "${raw_asserts}" >&2
    status=1
fi

# 2. No std::cout in library code (src/ and the test oracles):
#    simulation output goes through the Table/stats layer or the tools'
#    own main(), and diagnostics go to stderr via logging.hh.
#    util/table.cc is the sanctioned writer.
cout_uses=$(grep -rn 'std::cout' src/ tests/oracles/ \
            --include='*.cc' --include='*.hh' \
            | grep -v '^src/util/table' || true)
if [ -n "${cout_uses}" ]; then
    echo "lint: std::cout in library code; use Table or logging.hh:" >&2
    echo "${cout_uses}" >&2
    status=1
fi

# 3. No printf-family in src/ or tests/oracles/ (same rationale as
#    std::cout). util/logging.cc is the logging backend and writes
#    stderr itself.
printf_uses=$(grep -rnE '(^|[^_[:alnum:]])f?printf\(' src/ tests/oracles/ \
              --include='*.cc' --include='*.hh' \
              | grep -v '^src/util/logging\.cc' || true)
if [ -n "${printf_uses}" ]; then
    echo "lint: printf in library code; use Table or logging.hh:" >&2
    echo "${printf_uses}" >&2
    status=1
fi

if [ "${status}" -eq 0 ]; then
    echo "lint: clean"
fi
exit "${status}"
