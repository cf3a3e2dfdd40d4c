#!/usr/bin/env bash
# Regenerate every paper table/figure at paper scale (--full where the
# bench supports it) plus all ablations and the service load bench.
# Expects the repo already built:
#   cmake -B build -G Ninja && cmake --build build
#
# Every bench runs even if an earlier one fails; each gets an [ok] /
# [FAIL exit N] line and the script exits nonzero when anything failed,
# so a broken bench can't hide in pages of output.
set -uo pipefail
cd "$(dirname "$0")/.."

BENCH=build/bench
FULL="fig10_theta_sensitivity fig15_speedup_degree fig17_speedup_size \
      fig17_machines table2_meshes table3_speedup ablate_gs_reductions \
      ablate_partition ablate_variant ablate_solver_precond \
      ablate_elements ablate_adaptive_theta ablate_reordering \
      ablate_rdd_precond ablate_ebe svc_load"
PLAIN="fig01_neumann_residual fig02_gls_residual fig03_stability \
       fig11_static_precond fig12_dynamic_precond fig13_degree_static \
       fig14_degree_dynamic table1_complexity"

# Seed recorded in every BENCH_*.json provenance block (and passed to
# the seeded benches) so a run is replayable from its artifacts alone.
SEED=${PFEM_SEED:-0}

# Fail fast on an unbuilt tree: missing binaries are a setup error, not
# a bench result.
missing=0
for b in $PLAIN $FULL micro_kernels deflation_scaling micro_comm \
         ext_3d_scaling hetero_scaling; do
  if [ ! -x "$BENCH/$b" ]; then
    echo "error: $BENCH/$b not built" >&2
    missing=1
  fi
done
[ "$missing" -ne 0 ] && exit 2

declare -A status
# run_bench_as KEY BINARY ARGS... — KEY names the run in the summary, so
# one binary can appear under several modes without clobbering status.
run_bench_as() {
  local key=$1 name=$2
  shift 2
  echo "### $key: $name $*"
  "$BENCH/$name" "$@"
  status[$key]=$?
}
run_bench() {
  local name=$1
  shift
  run_bench_as "$name" "$name" "$@"
}

# Stamp provenance into every BENCH_*.json (inserted right after the
# opening brace) so the perf trajectory stays attributable to a commit,
# build type and seed.  Idempotent: files already stamped are skipped.
stamp_provenance() {
  local sha dirty bt ts f
  sha=$(git rev-parse HEAD 2>/dev/null || echo unknown)
  if git diff --quiet 2>/dev/null && git diff --cached --quiet 2>/dev/null; then
    dirty=false
  else
    dirty=true
  fi
  bt=$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' build/CMakeCache.txt \
       2>/dev/null | head -1)
  ts=$(date -u +%Y-%m-%dT%H:%M:%SZ)
  for f in BENCH_*.json; do
    [ -f "$f" ] || continue
    grep -q '"provenance"' "$f" && continue
    sed -i "0,/{/s//{\\n  \"provenance\": {\"git_sha\": \"$sha\", \
\"git_dirty\": $dirty, \"build_type\": \"${bt:-unknown}\", \
\"seed\": $SEED, \"timestamp_utc\": \"$ts\"},/" "$f"
  done
}

for b in $PLAIN; do run_bench "$b"; done
for b in $FULL; do run_bench "$b" --full; done
# The kernel sweep (CSR vs SELL vs fused) lands in BENCH_kernels.json next
# to the table/figure JSON the other benches emit.
run_bench micro_kernels --kernels-json=BENCH_kernels.json
# The matrix-free sweep (Format::Ebe vs CSR vs SELL, with the
# bytes-per-dof column) — same binary, filter out the google benchmarks
# so they run only once, in the micro_kernels invocation above.
run_bench_as micro_kernels_ebe micro_kernels --ebe-json=BENCH_ebe.json \
  '--benchmark_filter=^$'
# The two-level deflation weak-scaling sweep is itself an acceptance
# gate: its exit code is nonzero when deflated P=2 -> P=16 iteration
# growth exceeds 1.3x, so a coarse-space regression fails the whole run.
run_bench deflation_scaling --deflation-json=BENCH_deflation.json
# The 3-D extension sweep (modeled speedup, 3-D deflation, brick3d
# stiffness jumps, RDD duplication factor) records into BENCH_3d.json.
run_bench ext_3d_scaling --full --json=BENCH_3d.json
# The heterogeneous-diffusion sweep is the third acceptance gate:
# nonzero exit when jump-aware deflation at a 1e4 coefficient jump on
# the misaligned checkerboard exceeds 1.5x the homogeneous deflated
# iteration count (GLS(7), Table-2-sized mesh, P = 8).
run_bench hetero_scaling --json=BENCH_hetero.json
# The net sweeps: the transport ladder (in-process ring vs socket
# loopback) and the sharded socket service.  svc_load --socket is
# a second acceptance gate — nonzero exit when the warm stream falls
# below 2x cold throughput or the warm cache-hit rate below 90%.
run_bench_as micro_comm_net micro_comm --net --full \
  --net-json=BENCH_net_comm.json
run_bench_as svc_load_socket svc_load --socket --full --seed="$SEED" \
  --socket-json=BENCH_net_svc.json
# The solve-session replay gate: a drifting-operator trace solved cold
# vs through a session.  Nonzero exit when the warm lane saves less
# than 30% of the cold lane's mean iterations.
run_bench_as svc_load_replay svc_load --replay --full \
  --replay-json=BENCH_sessions.json

# Fold the two net fragments into one BENCH_net.json.
if [ -f BENCH_net_comm.json ] && [ -f BENCH_net_svc.json ]; then
  {
    echo '{'
    echo '  "bench": "net",'
    echo '  "transport_comparison":'
    sed 's/^/  /;$s/}$/},/' BENCH_net_comm.json
    echo '  "sharded_service":'
    sed 's/^/  /' BENCH_net_svc.json
    echo '}'
  } > BENCH_net.json
  rm -f BENCH_net_comm.json BENCH_net_svc.json
  echo "net results folded into BENCH_net.json"
fi

stamp_provenance

echo
echo "### summary"
failed=0
for b in $PLAIN $FULL micro_kernels micro_kernels_ebe deflation_scaling \
         ext_3d_scaling hetero_scaling micro_comm_net svc_load_socket \
         svc_load_replay; do
  code=${status[$b]}
  if [ "$code" -eq 0 ]; then
    echo "[ok]   $b"
  else
    echo "[FAIL exit $code] $b"
    failed=1
  fi
done
exit $failed
