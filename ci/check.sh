#!/usr/bin/env bash
# Repository gate: formatting, lints, build, tests, and a smoke run of the
# CLI's telemetry path. Run from anywhere; operates on the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

echo "==> cargo build --release"
# --workspace so the smoke sections below get every release binary
# (rcfit, rcfitd, gen_mesh, the bench drivers), not just the root bin.
cargo build --release --workspace

echo "==> benchmark smoke (ledger/run.sh --smoke)"
# Every workload on tiny inputs with every correctness gate on: pole
# references, daemon replies byte-identical to one-shot, and the
# reduced-vs-full wave-error ceiling. Exits non-zero when a gate fails;
# results land in the gitignored ledger/out/.
bash ledger/run.sh --smoke

echo "==> cargo test --workspace (tier-1 plus every crate's own tests)"
# The root package's tests are tier-1; --workspace adds the member
# crates' unit and integration tests (pact-lanczos, par_determinism, ...).
cargo test -q --workspace

echo "==> rcfit --trace / --log-json smoke test"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
cat > "$tmp/smoke.sp" <<'EOF'
* rc ladder smoke deck
R1 in n1 100
R2 n1 n2 100
R3 n2 out 100
C1 n1 0 1p
C2 n2 0 2p
C3 out 0 1p
.end
EOF
./target/release/rcfit --port in --port out --fmax 1e9 --trace \
    --log-json "$tmp/telemetry.json" -o "$tmp/reduced.sp" "$tmp/smoke.sp" \
    2> "$tmp/trace.txt"
grep -q "rcfit-telemetry-v1" "$tmp/telemetry.json"
grep -q "supernode_count" "$tmp/telemetry.json"
grep -q "phase" "$tmp/trace.txt"
test -s "$tmp/reduced.sp"

echo "==> rcfit --hier smoke test"
./target/release/gen_mesh 16 16 4 16 "$tmp/hier_mesh.sp" > /dev/null
hier_ports=""
for i in $(seq 0 15); do hier_ports="$hier_ports --port port$i"; done
# shellcheck disable=SC2086
./target/release/rcfit $hier_ports --fmax 2e9 --hier --block-size 128 \
    --log-json "$tmp/hier_telemetry.json" -o "$tmp/hier_reduced.sp" \
    "$tmp/hier_mesh.sp" > /dev/null
test -s "$tmp/hier_reduced.sp"
python3 - "$tmp/hier_telemetry.json" <<'EOF'
import json, sys
d = json.load(open(sys.argv[1]))
assert d["schema"] == "rcfit-telemetry-v1", d.get("schema")
c = d["counters"]
assert c["hier_blocks"] >= 2, f"partition degenerated: {c['hier_blocks']} block(s)"
assert c["hier_separator_nodes"] > 0, "no separator nodes recorded"
assert c["hier_tree_depth"] > 0, "tree depth not recorded"
print(f"hier telemetry ok: {c['hier_blocks']} blocks, "
      f"{c['hier_separator_nodes']} separators, depth {c['hier_tree_depth']}")
EOF

echo "==> flat vs hier A/B (10k + 20k meshes -> results/hier_perf.txt)"
# hier_scaling --smoke times reduce_network only (deck built outside the
# timed regions, min of two runs per side) on the 10k and 20k meshes and
# asserts that flat and hier keep the same pole count on both. It records
# but does not gate on wall clock. Run in a scratch dir so a smoke run can
# never clobber the committed full-size BENCH_hier.json.
root="$PWD"
(cd "$tmp" && "$root/target/release/hier_scaling" --smoke) | tee "$tmp/hier_smoke.txt"
grep -q "hier smoke OK" "$tmp/hier_smoke.txt"
mkdir -p results
{
    echo "# Flat vs hierarchical reduction A/B: 10k (32x32x10) and 20k"
    echo "# (40x40x13) substrate meshes, 64 ports, fmax 500 MHz, $(nproc)"
    echo "# core(s). reduce_network wall clock only, min of two runs per"
    echo "# side (hier_scaling --smoke). Full thread sweep: BENCH_hier.json"
    echo "# (cargo run --release -p pact-bench --bin hier_scaling)."
    grep "^PERF " "$tmp/hier_smoke.txt"
} > results/hier_perf.txt
cat results/hier_perf.txt

echo "==> lanczos cap-scale cost-cliff gate"
# Fails when any cap scale of a ±1% capacitor sweep needs more than 100
# matvecs (deterministic; a block apply counts as its width). Under
# selective orthogonalization ghost Ritz values stalled this mesh at the
# 300-step iteration cap (282-322 matvecs); the block recurrence with
# full reorthogonalization stops at the cutoff (52-53 matvecs in 12
# block applies). The eigen-time ratio is printed but not gated: the
# phase is a few ms.
./target/release/lanczos_cliff | tee "$tmp/cliff.txt"
grep -q "lanczos_cliff OK" "$tmp/cliff.txt"

echo "==> Table 4 mesh (-> results/table4_large_mesh.txt)"
# The paper's headline case: flat, scalar-kernel and hier reductions of
# the 469-port mesh (~10 s). Fails unless the flat row keeps 11 poles,
# or when its Lanczos needs more than 20 block applies: the count is
# deterministic (14 with blocks of 4; a one-vector-at-a-time recurrence
# needs about 50).
./target/release/table4_large_mesh | tee "$tmp/table4.txt"
grep -q "^| reduced, 500 MHz | 469 | 11 |" "$tmp/table4.txt"
applies="$(sed -n 's/^Lanczos: \([0-9]*\) block applies.*/\1/p' "$tmp/table4.txt")"
if [ -z "$applies" ] || [ "$applies" -gt 20 ]; then
    echo "Table 4 Lanczos needed '${applies}' block applies (bound 20)" >&2
    exit 1
fi
mkdir -p results
cp "$tmp/table4.txt" results/table4_large_mesh.txt

echo "==> refactor-determinism smoke (transient + AC sweep, 1 vs 4 threads -> results/sweep_perf.txt)"
# The --smoke mode asserts bit-identical AC voltages and work counters at
# 1 vs 4 threads, bitwise reuse-vs-fresh equivalence, and the linear
# transient's one-symbolic-analysis accounting; its PERF line records the
# factor-vs-refactor sweep wall clock.
./target/release/ac_sweep_scaling --smoke | tee "$tmp/sweep_smoke.txt"
grep -q "ac sweep determinism OK" "$tmp/sweep_smoke.txt"
grep -q "transient accounting OK" "$tmp/sweep_smoke.txt"
mkdir -p results
{
    echo "# Factorization-reuse smoke: 192-node substrate mesh, 16-point AC"
    echo "# sweep, $(nproc) core(s). fresh = full symbolic+numeric LU per"
    echo "# point; refactor = one symbolic analysis, numeric-only replay."
    grep "^PERF " "$tmp/sweep_smoke.txt"
} > results/sweep_perf.txt
cat results/sweep_perf.txt

echo "==> eigen backend parity smoke (--eigen dense vs lanczos vs auto -> results/backend_parity.txt)"
# The numeric guarantee (retained poles agree to <= 1e-8 relative across
# dense / lanczos / lowrank / auto on every generator family) is asserted
# by the backend_equivalence suite; here the compiled test re-runs that
# assertion and the CLI smoke confirms the --eigen flag wires through to
# the same pole counts on the mesh deck.
cargo test -q --release --test backend_equivalence \
    eigen_backends_agree_on_retained_poles -- --exact > "$tmp/parity_test.txt"
./target/release/gen_mesh 16 16 4 16 "$tmp/parity_mesh.sp" > /dev/null
parity_ports=""
for i in $(seq 0 15); do parity_ports="$parity_ports --port port$i"; done
for backend in dense lanczos auto; do
    # shellcheck disable=SC2086
    ./target/release/rcfit $parity_ports --fmax 2e9 --eigen "$backend" \
        -o /dev/null "$tmp/parity_mesh.sp" 2> "$tmp/parity_$backend.txt" > /dev/null
done
dense_poles=$(grep -o "kept [0-9]* pole" "$tmp/parity_dense.txt" | grep -o "[0-9]*")
lanczos_poles=$(grep -o "kept [0-9]* pole" "$tmp/parity_lanczos.txt" | grep -o "[0-9]*")
auto_poles=$(grep -o "kept [0-9]* pole" "$tmp/parity_auto.txt" | grep -o "[0-9]*")
test "$dense_poles" = "$lanczos_poles"
test "$dense_poles" = "$auto_poles"
mkdir -p results
{
    echo "# Eigen backend parity: 16x16x4 substrate mesh (16 ports), fmax 2 GHz."
    echo "# Retained-pole agreement to <= 1e-8 relative is asserted by the"
    echo "# backend_equivalence::eigen_backends_agree_on_retained_poles test"
    echo "# (dense QL vs Lanczos vs low-rank vs auto on mesh/powergrid/line);"
    echo "# the CLI rows below confirm --eigen reaches the same pole counts."
    echo "dense_poles    $dense_poles"
    echo "lanczos_poles  $lanczos_poles"
    echo "auto_poles     $auto_poles"
} > results/backend_parity.txt
cat results/backend_parity.txt

echo "==> supernodal kernel parity + perf A/B (-> results/supernodal_perf.txt)"
# Runs the scalar-vs-supernodal A/B on the paper's Table-4 mesh: isolated
# factor/refactor timings, end-to-end reduction timings, and an asserted
# retained-pole parity gate. The kernel-equivalence guarantee across all
# generator families, strategies, backends, thread counts, and warm
# refactors is asserted by the supernodal_parity suite.
cargo test -q --release --test supernodal_parity > "$tmp/supernodal_test.txt"
./target/release/supernodal_perf | tee "$tmp/supernodal_ab.txt"
grep -q "parity: OK" "$tmp/supernodal_ab.txt"
mkdir -p results
{
    echo "# Supernodal vs scalar Cholesky kernel A/B, $(nproc) core(s)."
    echo "# (A quick small-mesh variant: supernodal_perf --smoke.)"
    cat "$tmp/supernodal_ab.txt"
} > results/supernodal_perf.txt

echo "==> session batch smoke (warm reduce_batch amortization)"
# --smoke asserts bitwise cold-vs-warm equality and the one-symbolic-
# analysis accounting on a small mesh. Run in a scratch dir so the
# committed full-size BENCH_session.json is not overwritten.
root="$PWD"
(cd "$tmp" && "$root/target/release/session_batch" --smoke) | tee "$tmp/session_smoke.txt"
grep -q "smoke OK" "$tmp/session_smoke.txt"
grep -q "^PERF " "$tmp/session_smoke.txt"

echo "==> rcfitd daemon smoke (JSONL over stdin)"
# Two same-topology decks (the second must hit a warm session and reduce
# byte-identically), one request with a misspelled option (typed error),
# a stats probe, and a clean shutdown.
python3 - > "$tmp/serve_requests.jsonl" <<'EOF'
import json
deck = ("* ci ladder\nVdrv in 0 1\nR1 in n1 100\nR2 n1 n2 100\n"
        "R3 n2 out 100\nC1 n1 0 1p\nC2 n2 0 2p\nC3 out 0 1p\n"
        "Iload out 0 1m\n.end\n")
print(json.dumps({"id": "s1", "deck": deck}))
print(json.dumps({"id": "s2", "deck": deck}))
print(json.dumps({"id": "bad", "deck": deck, "options": {"tolerence": 0.1}}))
print(json.dumps({"id": "st", "op": "stats"}))
print(json.dumps({"id": "end", "op": "shutdown"}))
EOF
./target/release/rcfitd --workers 2 < "$tmp/serve_requests.jsonl" \
    > "$tmp/serve_responses.jsonl"
python3 - "$tmp/serve_responses.jsonl" <<'EOF'
import json, sys
docs = {d["id"]: d for d in map(json.loads, open(sys.argv[1]))}
assert len(docs) == 5, sorted(docs)
assert all(d["schema"] == "rcfitd-v1" for d in docs.values())
assert docs["s1"]["ok"] and not docs["s1"]["session_hit"]
assert docs["s2"]["ok"] and docs["s2"]["session_hit"], \
    "second same-topology deck must hit a warm session"
assert docs["s2"]["deck"] == docs["s1"]["deck"], \
    "identical decks must reduce byte-identically"
assert docs["s1"]["telemetry"]["schema"] == "rcfit-telemetry-v1"
assert not docs["bad"]["ok"]
assert docs["bad"]["error"]["code"] == "unknown_option", docs["bad"]["error"]
# Stats is answered inline by the dispatcher, so only the submit-side
# counters are ordered with respect to it.
assert docs["st"]["stats"]["counters"]["requests"] >= 3
assert docs["st"]["stats"]["workers"] == 2
assert docs["end"]["shutdown"] is True
print("daemon smoke ok: warm hit + typed error + stats + clean shutdown")
EOF

echo "==> multipoint strategy parity smoke (CLI + daemon vs one-shot)"
# One-shot CLI run with the multipoint strategy: telemetry must record
# the expansion points and basis; then the same deck through a warm
# rcfitd session (second request hits the cached symbolic) must return
# the one-shot deck byte-identically.
./target/release/gen_mesh 16 16 4 16 "$tmp/mp_mesh.sp" > /dev/null
mp_ports=""
for i in $(seq 0 15); do mp_ports="$mp_ports --port port$i"; done
# shellcheck disable=SC2086
./target/release/rcfit $mp_ports --fmax 2e9 --strategy multipoint \
    --log-json "$tmp/mp_telemetry.json" -o "$tmp/mp_reduced.sp" \
    "$tmp/mp_mesh.sp" > /dev/null
test -s "$tmp/mp_reduced.sp"
python3 - "$tmp/mp_telemetry.json" <<'EOF'
import json, sys
d = json.load(open(sys.argv[1]))
assert d["schema"] == "rcfit-telemetry-v1", d.get("schema")
c = d["counters"]
assert c["multipoint_points"] == 2, c["multipoint_points"]
assert c["multipoint_moment_poles"] > 0, "no shifted moment candidates"
assert c["multipoint_basis_columns"] > 0, "empty projection basis"
print(f"multipoint telemetry ok: {c['multipoint_points']} points, "
      f"{c['multipoint_moment_poles']} moment candidates, "
      f"{c['multipoint_basis_columns']} basis columns")
EOF
python3 - "$tmp/mp_mesh.sp" > "$tmp/mp_requests.jsonl" <<'EOF'
import json, sys
deck = open(sys.argv[1]).read()
ports = [f"port{i}" for i in range(16)]
opts = {"fmax": 2e9, "ports": ports, "strategy": "multipoint"}
print(json.dumps({"id": "mp1", "deck": deck, "options": opts}))
print(json.dumps({"id": "mp2", "deck": deck, "options": opts}))
print(json.dumps({"id": "end", "op": "shutdown"}))
EOF
./target/release/rcfitd --workers 1 < "$tmp/mp_requests.jsonl" \
    > "$tmp/mp_responses.jsonl"
python3 - "$tmp/mp_responses.jsonl" "$tmp/mp_reduced.sp" <<'EOF'
import json, sys
docs = {d["id"]: d for d in map(json.loads, open(sys.argv[1]))}
oneshot = open(sys.argv[2]).read()
assert docs["mp1"]["ok"] and not docs["mp1"]["session_hit"]
assert docs["mp2"]["ok"] and docs["mp2"]["session_hit"], \
    "second multipoint deck must hit a warm session"
assert docs["mp1"]["deck"] == oneshot, \
    "cold daemon multipoint deck differs from one-shot rcfit"
assert docs["mp2"]["deck"] == oneshot, \
    "warm daemon multipoint deck differs from one-shot rcfit"
print("multipoint daemon parity ok: cold + warm responses byte-identical "
      "to one-shot rcfit")
EOF

echo "==> multipoint ablation smoke (accuracy vs poles -> results/multipoint_ablation.txt)"
# --smoke runs scaled-down Table-2/Table-4 meshes: flat vs multipoint
# pole counts at spec plus the ranked truncation curve. Run in a
# scratch dir so the committed full-size BENCH_multipoint.json is not
# overwritten.
(cd "$tmp" && "$root/target/release/multipoint_ablation" --smoke) \
    | tee "$tmp/mp_ablation.txt"
grep -q "smoke OK" "$tmp/mp_ablation.txt"
mkdir -p results
{
    echo "# Multipoint vs flat ablation smoke: scaled-down Table-2/Table-4"
    echo "# meshes, $(nproc) core(s). Full-size study: BENCH_multipoint.json"
    echo "# (cargo run --release -p pact-bench --bin multipoint_ablation)."
    grep -E "^(## |flat:|multipoint:|  mp truncated|PERF )" "$tmp/mp_ablation.txt"
} > results/multipoint_ablation.txt
cat results/multipoint_ablation.txt

echo "==> serve load smoke (daemon vs cold one-shot -> results/serve_perf.txt)"
# --smoke byte-compares every daemon response against the cold one-shot
# loop and reports the latency/throughput PERF line; the committed
# full-size study (1200 decks) lives in BENCH_serve.json.
(cd "$tmp" && "$root/target/release/serve_load" --smoke) | tee "$tmp/serve_smoke.txt"
grep -q "smoke OK" "$tmp/serve_smoke.txt"
mkdir -p results
{
    echo "# rcfitd serving smoke: serve_load --smoke (60 mixed decks, daemon"
    echo "# vs cold one-shot loop), $(nproc) core(s). Full-size study:"
    echo "# BENCH_serve.json (cargo run --release -p pact-bench --bin serve_load)."
    grep "^PERF " "$tmp/serve_smoke.txt"
} > results/serve_perf.txt
cat results/serve_perf.txt

echo "==> extraction + chain-collapse smoke (-> results/extract_perf.txt)"
# chain_collapse --smoke runs the 2000-segment line deck A/B and asserts
# the acceptance gates: collapse eliminates >= 50% of the island's
# internal nodes, two runs emit byte-identical decks (bit-identical port
# responses), the re-stitched deck's in-band AC matches the unreduced
# deck within the collapse budget, and the mixed R/C/L/diode/MOS deck
# extracts end-to-end. Run in a scratch dir so the committed full-size
# BENCH_extract.json is not overwritten.
(cd "$tmp" && "$root/target/release/chain_collapse" --smoke) \
    | tee "$tmp/extract_smoke.txt"
grep -q "chain collapse OK" "$tmp/extract_smoke.txt"
mkdir -p results
{
    echo "# Chain-collapse A/B smoke: 2000-segment line deck, fmax 1 GHz,"
    echo "# $(nproc) core(s). reduce_embedded wall clock, extraction only vs"
    echo "# collapse + extraction. Full run: BENCH_extract.json"
    echo "# (cargo run --release -p pact-bench --bin chain_collapse)."
    grep "^PERF " "$tmp/extract_smoke.txt"
} > results/extract_perf.txt
cat results/extract_perf.txt

echo "==> rcfit --extract --collapse-chains CLI smoke (2000-segment line)"
# The same workload through the CLI flags: telemetry must report the
# collapsed chain and the eliminated nodes, and the re-stitched deck must
# be a parseable SPICE payload.
python3 - > "$tmp/long_line.sp" <<'EOF'
n = 2000
print("* 2000-segment extraction smoke line")
print("Vdrv in 0 1")
print("Rdrv in x0 50")
for i in range(n):
    a, b = f"x{i}", f"x{i+1}"
    print(f"R{i} {a} {b} {250.0 / n:.9g}")
    print(f"C{i} {b} 0 {1.35e-12 / n:.6e}")
print("Iload x2000 0 1m")
print(".end")
EOF
./target/release/rcfit --extract --collapse-chains --chain-tol 1e-4 \
    --fmax 1g --log-json "$tmp/extract_telemetry.json" \
    -o "$tmp/extract_reduced.sp" "$tmp/long_line.sp" > /dev/null
test -s "$tmp/extract_reduced.sp"
python3 - "$tmp/extract_telemetry.json" <<'EOF'
import json, sys
d = json.load(open(sys.argv[1]))
assert d["schema"] == "rcfit-telemetry-v1", d.get("schema")
c = d["counters"]
assert c["extract_subnets"] >= 1, "no RC island extracted"
assert c["chains_collapsed"] >= 1, "chain collapse did not run"
assert c["nodes_eliminated"] > 0, "no nodes eliminated"
assert c["nodes_eliminated"] >= 1000, \
    f"eliminated {c['nodes_eliminated']} of ~2000 internal nodes (< 50%)"
print(f"extraction telemetry ok: {c['extract_subnets']} island(s), "
      f"{c['chains_collapsed']} chain(s) collapsed, "
      f"{c['nodes_eliminated']} nodes eliminated")
EOF

echo "==> all checks passed"
