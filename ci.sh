#!/usr/bin/env sh
# Local CI gate: formatting, lints, and the full test suite.
# The workspace vendors all third-party crates, so everything runs offline.
set -eu

cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> cargo doc -p dista-obs -p dista-taintmap -p dista-core -p dista-simnet -p dista-jre -p dista-netty --no-deps (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc -p dista-obs -p dista-taintmap -p dista-core -p dista-simnet -p dista-jre -p dista-netty --no-deps --offline

echo "==> cargo test --workspace (every crate's unit, integration and doc tests, once)"
cargo test -q --workspace --offline

echo "==> chaos suites under fixed seeds (incl. reshard crash-during-migration)"
for seed in 7 42 1337; do
    echo "    seed $seed"
    DISTA_CHAOS_SEED="$seed" cargo test -q --offline --test chaos
done

echo "==> split-while-loaded gate: 1M distinct gids across a crashing migration, three seeds"
for seed in 7 42 1337; do
    echo "    reshard seed $seed"
    DISTA_RESHARD_SEED="$seed" cargo test -q --release --offline -p dista-taintmap \
        --test prop_chaos split_one_million_gids_without_loss -- --ignored
done

echo "==> claim_global_taints --smoke"
cargo run -p dista-bench --bin claim_global_taints --release --offline -- --smoke

echo "==> claim_net_overhead --smoke --metrics (wire-expansion band check)"
cargo run -p dista-bench --bin claim_net_overhead --release --offline -- --smoke --metrics

echo "==> claim_net_overhead --chaos --smoke (degraded-mode soundness check)"
cargo run -p dista-bench --bin claim_net_overhead --release --offline -- --chaos --smoke

echo "==> boundary_codec --smoke (wire bytes bit-identical to reference codec)"
cargo run -p dista-bench --bin boundary_codec --release --offline -- --smoke

echo "==> boundary_codec --wire-v2 (v2 <=1.2x expansion at 1% taint, >=2x retained throughput)"
rm -f BENCH_wire_v2.json
cargo run -p dista-bench --bin boundary_codec --release --offline -- \
    --wire-v2 --out BENCH_wire_v2.json
test -s BENCH_wire_v2.json
grep -q '"expansion_ok": true' BENCH_wire_v2.json
grep -q '"throughput_ok": true' BENCH_wire_v2.json
rm -f BENCH_wire_v2.json

echo "==> cluster_load --smoke (>=10k concurrent connections, p99 gate)"
rm -f BENCH_cluster_load_smoke.json
cargo run -p dista-bench --bin cluster_load --release --offline -- \
    --smoke --gate-p99-us 2000000 --out BENCH_cluster_load_smoke.json
test -s BENCH_cluster_load_smoke.json
grep -q '"peak_concurrent": 1[0-9][0-9][0-9][0-9]' BENCH_cluster_load_smoke.json
if grep -q '"throughput_crossings_per_sec": 0.0' BENCH_cluster_load_smoke.json; then
    echo "FAIL: zero throughput in BENCH_cluster_load_smoke.json"
    exit 1
fi
rm -f BENCH_cluster_load_smoke.json

echo "==> cluster_load --smoke --wire v2 (adaptive v2 frames at load)"
rm -f BENCH_cluster_load_v2.json
cargo run -p dista-bench --bin cluster_load --release --offline -- \
    --smoke --wire v2 --gate-p99-us 2000000 --out BENCH_cluster_load_v2.json
test -s BENCH_cluster_load_v2.json
grep -q '"wire_protocol": "v2"' BENCH_cluster_load_v2.json
rm -f BENCH_cluster_load_v2.json

echo "==> cluster_load --smoke --reshard (live migration throughput + lossless sample + compaction gates)"
rm -f BENCH_cluster_load_reshard.json
cargo run -p dista-bench --bin cluster_load --release --offline -- \
    --smoke --reshard --gate-p99-us 2000000 --out BENCH_cluster_load_reshard.json
test -s BENCH_cluster_load_reshard.json
grep -q '"reshard"' BENCH_cluster_load_reshard.json
grep -q '"splits_completed": 2' BENCH_cluster_load_reshard.json
grep -q '"sample_mismatches": 0' BENCH_cluster_load_reshard.json
grep -Eq '"migration_records_per_sec": [1-9]' BENCH_cluster_load_reshard.json
rm -f BENCH_cluster_load_reshard.json

echo "==> cluster_load --smoke --scrape (live telemetry A/B: overhead + scrape health gates)"
rm -f BENCH_cluster_load_scrape.json
cargo run -p dista-bench --bin cluster_load --release --offline -- \
    --smoke --wire v2 --scrape --out BENCH_cluster_load_scrape.json
test -s BENCH_cluster_load_scrape.json
grep -q '"wire_protocol": "v2"' BENCH_cluster_load_scrape.json
grep -Eq '"scrapes": ([2-9]|[1-9][0-9]+)' BENCH_cluster_load_scrape.json
grep -q '"scrape_counters_monotone": true' BENCH_cluster_load_scrape.json
grep -q '"parse_errors": 0' BENCH_cluster_load_scrape.json
grep -q '"cost_attribution"' BENCH_cluster_load_scrape.json
rm -f BENCH_cluster_load_scrape.json

echo "==> pipeline chaos suite under fixed seeds"
for seed in 7 42 1337; do
    echo "    pipeline seed $seed"
    DISTA_CHAOS_SEED="$seed" cargo test -q --offline --test pipeline_chaos
done

echo "==> pipeline --smoke (cross-system load: throughput + p99 per scenario, detection gates)"
rm -f BENCH_pipeline_smoke.json
cargo run -p dista-bench --bin pipeline --release --offline -- \
    --smoke --out BENCH_pipeline_smoke.json
test -s BENCH_pipeline_smoke.json
grep -q '"systems_spanned": 3' BENCH_pipeline_smoke.json
grep -q '"exact_traces": true' BENCH_pipeline_smoke.json
grep -q '"cross_tenant_hits_clean": 0' BENCH_pipeline_smoke.json
grep -q '"misroute_hits": 1' BENCH_pipeline_smoke.json
grep -Eq '"throughput_records_per_sec": [1-9]' BENCH_pipeline_smoke.json
grep -Eq '"throughput_messages_per_sec": [1-9]' BENCH_pipeline_smoke.json
rm -f BENCH_pipeline_smoke.json

echo "==> hand-off gate: SimNet blocking round trip <= 2x the mpsc round trip of the same process"
# Built on every core first; the run itself is confined to one core,
# like the crossing benchmark confines its workloads. Left to the
# scheduler either ping-pong lands on one core or two (3 us or 35 us
# per round trip here), so without taskset the ratio means nothing and
# the gate is skipped. The bench compares the two numbers itself and
# exits non-zero.
cargo bench --offline -p dista-bench --bench handoff --no-run
if command -v taskset >/dev/null 2>&1; then
    taskset -c 0 cargo bench --offline -p dista-bench --bench handoff -- --smoke
else
    echo "    taskset not found: hand-off gate skipped"
fi

echo "CI OK"
