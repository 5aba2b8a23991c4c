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
# The paper's headline case: flat and hier reductions of the 469-port
# mesh (~2 s). Fails unless the flat row keeps 11 poles,
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

echo "==> Tables 1 and 3: the reduced decks' simulation payoff (-> results/table{1,3}_*.txt)"
# The paper's payoff: the multiplier at the paper's scale (7,296
# MOSFETs, 3,648 RC nets; ~4 s) and the full adder over the substrate
# mesh (~5 s), each simulated full and reduced. Fails unless Table 1
# keeps 0 retained poles across 7,248 ports, with the Elmore bound
# certifying all 3,600 nets that have internal nodes (so none runs
# Lanczos), the reduced deck's v(out0) within 1e-9 V of the full deck's
# (1.774e-15 V when this gate was set: the 76-stage chain has not
# switched out0 by 10 ns, so this holds its settled level) and its
# v(w0_4_end), an early wire end that switches inside the window, within
# 0.195 V (1.25 x the 0.1554 V measured when this gate was set), or
# unless Table 3 keeps 3 poles across 20 ports. Timings are recorded,
# not gated.
./target/release/table1_multiplier | tee "$tmp/table1.txt"
grep -q "^retained poles: 0 across 7248 ports$" "$tmp/table1.txt"
grep -q "^certified pole-free: 3600 of 3648 components (3600 with internal nodes)$" \
    "$tmp/table1.txt"
table1_gate() {
    local err
    err="$(sed -n "s/^max |v($1)_reduced .* = \([0-9.e+-]*\) V over .*/\1/p" "$tmp/table1.txt")"
    if [ -z "$err" ] || ! awk -v e="$err" -v b="$2" 'BEGIN { exit !(e + 0 <= b + 0) }'; then
        echo "Table 1 reduced-vs-full v($1) error '${err}' V (bound $2)" >&2
        exit 1
    fi
}
table1_gate out0 1e-9
table1_gate w0_4_end 0.195
./target/release/table3_adder | tee "$tmp/table3.txt"
grep -q "^reduction: 3 poles retained across 20 ports " "$tmp/table3.txt"
mkdir -p results
cp "$tmp/table1.txt" results/table1_multiplier.txt
cp "$tmp/table3.txt" results/table3_adder.txt

echo "==> Figure 4: parasitics delay the critical path (-> results/fig4_critical_path.txt)"
# The first 50 % crossing of v(out0) after the input edge (~0.1 s), for
# the deck without parasitics, with the full RC network and with the
# PACT-reduced one. Fails unless the parasitics add delay and the reduced
# deck's delay is within 2 % of the full deck's (1419, 3218 and 3223 ps
# when this gate was set).
./target/release/fig4_critical_path | tee "$tmp/fig4.txt"
fig4_delay() { sed -n "s/^| $1 | \([0-9]*\) |$/\1/p" "$tmp/fig4.txt"; }
none="$(fig4_delay "no parasitics")"
full="$(fig4_delay "full parasitics")"
reduced="$(fig4_delay "PACT reduced")"
if [ -z "$none" ] || [ -z "$full" ] || [ -z "$reduced" ] \
    || ! awk -v n="$none" -v f="$full" -v r="$reduced" \
        'BEGIN { d = r - f; if (d < 0) d = -d; exit !(n < f && d <= 0.02 * f) }'; then
    echo "Figure 4 delays: no parasitics '${none}', full '${full}', reduced '${reduced}' ps" >&2
    exit 1
fi
cp "$tmp/fig4.txt" results/fig4_critical_path.txt

echo "==> rcfitd daemon smoke (JSONL over stdin)"
# Sizes the daemon cannot honour are refused as usage errors before any
# worker starts: more workers than the 256-thread limit, or a queue
# deeper than its 4096-slot cap (each queue allocates its slots up front).
for bad in "--workers 257" "--queue-cap 4097"; do
    # shellcheck disable=SC2086
    if ./target/release/rcfitd $bad < /dev/null 2> "$tmp/refused.txt"; then
        echo "rcfitd accepted $bad" >&2
        exit 1
    fi
    grep -q "usage: rcfitd" "$tmp/refused.txt"
    if grep -q "serving" "$tmp/refused.txt"; then
        echo "rcfitd started workers for $bad" >&2
        exit 1
    fi
done
# Two same-topology decks (the second must hit a warm session and reduce
# byte-identically), one request with a misspelled option, two with the
# deleted `eigen` and `components` options, one with an out-of-range
# sparsify threshold, one whose source card is cut short and one whose
# `path` deck (the 16x16x4 mesh) is over the daemon's 4 KiB deck cap
# (typed errors, and the daemon keeps answering), a stats probe, and a
# clean shutdown. One more deck takes
# the tokenizer's general path (a glued `PULSE(`, a `$` comment, a `+`
# continuation, a `GND` ground, mixed-case node names): its reply must
# equal `rcfit -o` on the same file, byte for byte.
cat > "$tmp/general.sp" <<'EOF'
* General Path Deck
Vin IN GND PULSE(0 1 0 1n 1n 5n 20n)  $ glued pulse source
Rdrv IN Mid 50
R1 Mid n1 100
C1 n1 GND 1p
R2 n1 OUT
+ 100
C2 OUT gnd 2p
Iload OUT 0 1m
.tran 0.1n 20n
.end
EOF
./target/release/rcfit -o "$tmp/general_cli.sp" "$tmp/general.sp" > /dev/null
python3 - "$tmp/general.sp" "$tmp/hier_mesh.sp" > "$tmp/serve_requests.jsonl" <<'EOF'
import json, sys
deck = ("* ci ladder\nVdrv in 0 1\nR1 in n1 100\nR2 n1 n2 100\n"
        "R3 n2 out 100\nC1 n1 0 1p\nC2 n2 0 2p\nC3 out 0 1p\n"
        "Iload out 0 1m\n.end\n")
print(json.dumps({"id": "s1", "deck": deck}))
print(json.dumps({"id": "s2", "deck": deck}))
print(json.dumps({"id": "general", "deck": open(sys.argv[1]).read()}))
print(json.dumps({"id": "bad", "deck": deck, "options": {"tolerence": 0.1}}))
print(json.dumps({"id": "eigen", "deck": deck, "options": {"eigen": "dense"}}))
print(json.dumps({"id": "components", "deck": deck, "options": {"components": True}}))
# 1e999 parses to infinity, the JSON spelling of `rcfit --sparsify inf`.
print('{"id": "inf", "deck": %s, "options": {"sparsify": 1e999}}' % json.dumps(deck))
print(json.dumps({"id": "short", "deck": "* short\nV1 a\n.end\n"}))
print(json.dumps({"id": "bigpath", "path": sys.argv[2]}))
print(json.dumps({"id": "st", "op": "stats"}))
print(json.dumps({"id": "end", "op": "shutdown"}))
EOF
./target/release/rcfitd --workers 2 --max-deck-bytes 4096 \
    < "$tmp/serve_requests.jsonl" > "$tmp/serve_responses.jsonl"
python3 - "$tmp/serve_responses.jsonl" "$tmp/general_cli.sp" <<'EOF'
import json, sys
docs = {d["id"]: d for d in map(json.loads, open(sys.argv[1]))}
assert len(docs) == 11, sorted(docs)
assert docs["general"]["ok"], docs["general"].get("error")
assert docs["general"]["deck"] == open(sys.argv[2]).read(), \
    "daemon and CLI reduced the general-path deck differently"
assert all(d["schema"] == "rcfitd-v1" for d in docs.values())
assert docs["s1"]["ok"] and not docs["s1"]["session_hit"]
assert docs["s2"]["ok"] and docs["s2"]["session_hit"], \
    "second same-topology deck must hit a warm session"
assert docs["s2"]["deck"] == docs["s1"]["deck"], \
    "identical decks must reduce byte-identically"
assert docs["s1"]["telemetry"]["schema"] == "rcfit-telemetry-v1"
assert not docs["bad"]["ok"]
assert docs["bad"]["error"]["code"] == "unknown_option", docs["bad"]["error"]
assert not docs["eigen"]["ok"]
assert docs["eigen"]["error"]["code"] == "unknown_option", docs["eigen"]["error"]
assert not docs["components"]["ok"]
assert docs["components"]["error"]["code"] == "unknown_option", docs["components"]["error"]
assert not docs["inf"]["ok"]
assert docs["inf"]["error"]["code"] == "sparsify", docs["inf"]["error"]
assert not docs["short"]["ok"]
assert docs["short"]["error"]["code"] == "parse", docs["short"]["error"]
assert not docs["bigpath"]["ok"]
assert docs["bigpath"]["error"]["code"] == "deck_too_large", docs["bigpath"]["error"]
# Stats is answered inline by the dispatcher, so only the submit-side
# counters are ordered with respect to it.
assert docs["st"]["stats"]["counters"]["requests"] >= 3
assert docs["st"]["stats"]["workers"] == 2
assert docs["end"]["shutdown"] is True
print("daemon smoke ok: warm hit + typed errors + stats + clean shutdown"
      " + daemon deck = CLI deck")
EOF
# The CLI holds sparsify to the same range: `inf` must fail, not
# realize a deck whose ports lost their coupling.
if ./target/release/rcfit --port in --port out --sparsify inf \
    -o /dev/null "$tmp/smoke.sp" 2> "$tmp/sparsify_inf.txt"; then
    echo "rcfit accepted --sparsify inf" >&2
    exit 1
fi
grep -q "error \[sparsify\]" "$tmp/sparsify_inf.txt"
# Every reduction finds its poles with Lanczos: --eigen is gone, in the
# CLI as in the daemon. --components is gone too (every deck is reduced
# per connected component).
for removed in "--eigen dense" "--components"; do
    # shellcheck disable=SC2086
    if ./target/release/rcfit --port in --port out $removed \
        -o /dev/null "$tmp/smoke.sp" 2> "$tmp/removed.txt"; then
        echo "rcfit accepted $removed" >&2
        exit 1
    fi
    grep -q "error \[unknown_option\]" "$tmp/removed.txt"
done

echo "==> CLI and daemon write the same bytes on a 96-port mesh"
# The render walk writes each reduced model straight into the deck text.
# On a deck whose reduced network has thousands of elements, the
# daemon's reply to a `path` request (under a cap the deck fits) must
# equal `rcfit -o` byte for byte.
./target/release/gen_mesh 24 24 4 96 "$tmp/mesh96.sp" > /dev/null
mesh96_ports=""
for i in $(seq 0 95); do mesh96_ports="$mesh96_ports --port port$i"; done
# shellcheck disable=SC2086
./target/release/rcfit $mesh96_ports -o "$tmp/mesh96_cli.sp" "$tmp/mesh96.sp" \
    2> "$tmp/mesh96_cli.txt"
mesh96_elements="$(sed -n 's/^rcfit: reduced network realized with \([0-9]*\) elements$/\1/p' \
    "$tmp/mesh96_cli.txt")"
if [ -z "$mesh96_elements" ] || [ "$mesh96_elements" -lt 5000 ]; then
    echo "the 96-port mesh reduced to '${mesh96_elements}' elements (want >= 5000)" >&2
    exit 1
fi
python3 - "$tmp/mesh96.sp" > "$tmp/mesh96_requests.jsonl" <<'EOF'
import json, sys
ports = [f"port{i}" for i in range(96)]
print(json.dumps({"id": "mesh96", "path": sys.argv[1], "options": {"ports": ports}}))
print(json.dumps({"id": "end", "op": "shutdown"}))
EOF
./target/release/rcfitd --workers 1 --max-deck-bytes 1048576 \
    < "$tmp/mesh96_requests.jsonl" > "$tmp/mesh96_responses.jsonl"
python3 - "$tmp/mesh96_responses.jsonl" "$tmp/mesh96_daemon.sp" <<'EOF'
import json, sys
docs = {d["id"]: d for d in map(json.loads, open(sys.argv[1]))}
assert docs["mesh96"]["ok"], docs["mesh96"].get("error")
with open(sys.argv[2], "w", newline="") as f:
    f.write(docs["mesh96"]["deck"])
EOF
cmp "$tmp/mesh96_cli.sp" "$tmp/mesh96_daemon.sp"
echo "daemon deck = CLI deck on the 96-port mesh (${mesh96_elements} elements)"

echo "==> pole nodes never merge into deck nets"
# `rcfit_p0` is the name the reduction would give its first pole node;
# here it is a net of the deck, driven by V2. The reduced deck must name
# its pole nodes so that none equals a node of the input.
cat > "$tmp/clash.sp" <<'EOF'
* pole node clash
V1 in 0 1
R1 in n1 100
C1 n1 0 1p
R2 n1 n2 100
C2 n2 0 1p
R3 n2 out 100
C3 out 0 1p
M1 d1 out 0 0 nch
M2 d2 rcfit_p0 0 0 nch
V2 rcfit_p0 0 0.5
.model nch nmos()
.end
EOF
./target/release/rcfit --fmax 100g --tol 0.01 -o "$tmp/clash_reduced.sp" "$tmp/clash.sp" \
    2> /dev/null
python3 - "$tmp/clash.sp" "$tmp/clash_reduced.sp" <<'EOF'
import re, sys
deck = set(open(sys.argv[1]).read().lower().split())
poles = set()
for line in open(sys.argv[2]):
    t = line.split()
    if len(t) == 4 and t[0][:1] in "RC":
        poles.update(n for n in t[1:3] if re.fullmatch(r"rcfit\w*_p\d+", n.lower()))
assert poles, "the reduction kept no pole node"
clash = poles & deck
assert not clash, f"pole node(s) merged into deck nets: {sorted(clash)}"
print(f"pole nodes fresh: {' '.join(sorted(poles))}")
EOF

echo "==> rcfit --extract --collapse-chains CLI smoke (2000-segment line)"
# A 2000-segment line through the CLI flags (`--extract` is accepted and
# does nothing): telemetry must report the one reduced component, the
# collapsed chain and the eliminated nodes, and the re-stitched deck
# must be a parseable SPICE payload.
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
assert c["components_reduced"] >= 1, "no RC component reduced"
assert c["chains_collapsed"] >= 1, "chain collapse did not run"
assert c["nodes_eliminated"] > 0, "no nodes eliminated"
assert c["nodes_eliminated"] >= 1000, \
    f"eliminated {c['nodes_eliminated']} of ~2000 internal nodes (< 50%)"
print(f"extraction telemetry ok: {c['components_reduced']} component(s), "
      f"{c['chains_collapsed']} chain(s) collapsed, "
      f"{c['nodes_eliminated']} nodes eliminated")
EOF

echo "==> all checks passed"
