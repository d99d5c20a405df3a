#!/usr/bin/env bash
# The single CI entry point (docs/CHECKING.md): tier-1 build + full test
# suite, the sanitizer matrix (with an ASan leak-detection pass over the
# serve demo and tools), clang-tidy (when installed), an anahy-lint
# round-trip over the race demo's saved trace, and an anahy-aging pass
# over the serve demo's recorded memory-state series.
#
#   scripts/check.sh              # everything
#   scripts/check.sh --tier1      # just the tier-1 build + tests
#   scripts/check.sh --no-san     # skip the sanitizer rebuilds (slow part)
#   scripts/check.sh --rejuv      # just the rejuvenation stage (soak smoke
#                                 # + JSON + tidy over src/anahy/rejuv)
#   scripts/check.sh --mesh       # just the mesh stage (multiprocess TCP
#                                 # demo with seeded sever/heal + scaling
#                                 # bench JSON)
#
# Every build goes into its own directory (build/, build-asan/, ...) so the
# tier-1 build is never clobbered by a sanitizer reconfigure.
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS=${JOBS:-$(nproc)}

tier1_only=0
run_san=1
rejuv_only=0
mesh_only=0
for arg in "$@"; do
  case "$arg" in
    --tier1) tier1_only=1 ;;
    --no-san) run_san=0 ;;
    --rejuv) rejuv_only=1 ;;
    --mesh) mesh_only=1 ;;
    *) echo "usage: scripts/check.sh [--tier1] [--no-san] [--rejuv] [--mesh]" >&2
       exit 2 ;;
  esac
done

step() { printf '\n=== %s ===\n' "$*"; }

# The rejuvenation stage (docs/REJUV.md): a scaled-down rejuv_soak must
# still close the loop — baseline leaky leg trips A001, the rejuv-on leg
# stays flat, A007 marks present (the bench exits non-zero otherwise) —
# and emit valid JSON; then clang-tidy over the subsystem alone, cheap
# enough to run even when the full tidy pass is skipped.
rejuv_stage() {
  step "rejuv: soak smoke — loop must close, JSON must validate"
  ./build/bench/rejuv_soak --fib=20 --reps=3 --jobs=200 --seeds=1 \
      --every=25 --out=check_rejuv.json > /dev/null
  python3 -m json.tool check_rejuv.json > /dev/null
  rm -f check_rejuv.json
  if command -v clang-tidy > /dev/null; then
    step "rejuv: clang-tidy over src/anahy/rejuv"
    clang-tidy -p build --quiet src/anahy/rejuv/*.cpp
  fi
}

if [ "$rejuv_only" = 1 ]; then
  cmake -B build -S . > /dev/null
  cmake --build build -j "$JOBS" --target rejuv_soak
  rejuv_stage
  echo; echo "check.sh: rejuv OK"
  exit 0
fi

# The mesh stage (docs/MESH.md): three REAL worker processes over TCP
# with a seeded sever/heal schedule on the router's links — the demo
# audits fleet-wide exactly-once (per-worker execution counts must sum
# to the resolved jobs) and exits non-zero otherwise; then the scaling
# bench's node-sweep and steal gates, whose JSON must validate.
mesh_stage() {
  step "mesh: multiprocess TCP demo — seeded chaos, exactly-once audit"
  ./build/examples/mesh_demo --seed=20030623 --port=7841
  step "mesh: scaling bench — node sweep + steal gates, JSON must validate"
  ./build/bench/ext_cluster_scaling --jobs=160 \
      --out=check_cluster_scaling.json > /dev/null
  python3 -m json.tool check_cluster_scaling.json > /dev/null
  rm -f check_cluster_scaling.json
}

if [ "$mesh_only" = 1 ]; then
  cmake -B build -S . > /dev/null
  cmake --build build -j "$JOBS" --target mesh_demo ext_cluster_scaling
  mesh_stage
  echo; echo "check.sh: mesh OK"
  exit 0
fi

step "tier-1: build + full test suite"
cmake -B build -S . > /dev/null
cmake --build build -j "$JOBS"
ctest --test-dir build --output-on-failure -j "$JOBS"

step "checker demo: seeded race must be caught, trace must lint"
./build/examples/race_demo
# race_demo exits 0 only when the race IS reported. Its trace must replay
# with diagnostics (the demo leaks a task on purpose), i.e. lint exits 1.
if ./build/tools/anahy-lint --summary race_demo.trace; then
  echo "anahy-lint: expected diagnostics on race_demo.trace" >&2; exit 1
fi
rm -f race_demo.trace

step "serve demo: 8 clients, per-job race attribution, drained trace"
# job_server asserts its own invariants (every handle resolves, callbacks
# fire exactly once, checked job reports its race) and exits non-zero on
# any violation. Its drained trace must lint CLEAN — drain() finishing with
# a leaked task (ANAHY-W005) would mean the service dropped queued work.
./build/examples/job_server > /dev/null
./build/tools/anahy-lint --summary --jobs --stats job_server.trace > /dev/null

step "aging: demo's memory-state series must analyze clean, JSON validate"
# The serve demo records an `anahy-series v1` soak series (docs/AGING.md).
# A healthy demo must come back with zero ANAHY-A00x findings (anahy-aging
# exits 2 on findings, 1 on unreadable input) and machine-readable output.
# The gap floor forgives scheduler stalls of a time-shared CI host in the
# live-sampled series; gap detection is pinned by the aging unit tests.
gap=--gap-min-ns=1000000000
./build/tools/anahy-aging --summary "$gap" job_server.series > /dev/null
./build/tools/anahy-aging --json "$gap" job_server.series > aging_check.json
python3 -m json.tool aging_check.json > /dev/null
rm -f aging_check.json job_server.series

step "chaos: seeded fault-injection suite (fixed seed, replayable)"
# The chaos label is the serve/cluster stack under a scripted lossy link
# (docs/FAULT.md). The seed is pinned so CI failures replay exactly:
#   ANAHY_CHAOS_SEED=0xC0FFEE ./build/tests/test_chaos
ANAHY_CHAOS_SEED=0xC0FFEE \
    ctest --test-dir build --output-on-failure -L chaos

step "wire bench smoke: epoll transport end-to-end, JSON must validate"
# A scaled-down serve_wire_throughput run (docs/WIRE.md) exercises the
# whole wire path — epoll sync, then epoll async with writev coalescing —
# and its BENCH_wire.json must be valid JSON.
./build/bench/serve_wire_throughput --clients=4 --jobs=100 --window=8 \
    --out=check_wire.json > /dev/null
python3 -m json.tool check_wire.json > /dev/null
rm -f check_wire.json

mesh_stage

rejuv_stage

step "profiler: chrome trace JSON from the serve demo's v3 trace"
# The demo runs under profile mode, so its trace carries per-task VP
# identity and stamped edges. anahy-profile must turn that into valid
# JSON (chrome://tracing input) and a per-job work/span report.
./build/tools/anahy-profile --out=job_server.json --work-span \
    job_server.trace > /dev/null
python3 -m json.tool job_server.json > /dev/null
rm -f job_server.trace job_server.json

if [ "$tier1_only" = 1 ]; then
  echo; echo "check.sh: tier-1 OK"
  exit 0
fi

step "clang-tidy (skipped automatically when not installed)"
cmake --build build --target tidy

if [ "$run_san" = 1 ]; then
  for san in address undefined thread; do
    case "$san" in
      address)   label=asan ;;
      undefined) label=ubsan ;;
      thread)    label=tsan ;;
    esac
    # Each labeled suite rides the matching build: the tsan run is what
    # certifies the serve subsystem's submit/drain/shutdown races
    # (tests/serve/test_serve_races.cpp carries all three labels).
    step "sanitizer: ANAHY_SAN=$san, ctest -L $label"
    cmake -B "build-$label" -S . -DANAHY_SAN="$san" > /dev/null
    cmake --build "build-$label" -j "$JOBS"
    ctest --test-dir "build-$label" --output-on-failure -j "$JOBS" -L "$label"

    if [ "$san" = address ]; then
      step "asan leaks: serve demo + tools end-to-end, detect_leaks=1"
      # LeakSanitizer over the full demo (fork/join DAGs, drain, recorder)
      # and every tool reading the artifacts it wrote. The pool cache is a
      # passthrough under ASan, so each task block is tracked individually
      # — a stranded TaskPtr or an unfreed pool block fails this stage.
      (
        cd "build-$label"
        export ASAN_OPTIONS=detect_leaks=1
        ./examples/job_server > /dev/null
        ./tools/anahy-lint --summary --jobs --stats job_server.trace \
            > /dev/null
        ./tools/anahy-profile --out=job_server.json job_server.trace \
            > /dev/null
        ./tools/anahy-aging --json --gap-min-ns=1000000000 \
            job_server.series > /dev/null
        rm -f job_server.trace job_server.json job_server.series
      )
    fi
  done
fi

echo; echo "check.sh: all checks OK"
