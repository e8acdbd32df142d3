#!/usr/bin/env sh
# Local CI gate: formatting, lints, and the full test suite.
# The workspace vendors all third-party crates, so everything runs offline.
# Every stanza is a command whose exit status is the gate. Speed is not
# gated here: it is measured by benchmark/ (see BENCHMARK.json).
set -eu

cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> cargo doc -p dista-obs -p dista-taint -p dista-taintmap -p dista-core -p dista-simnet -p dista-jre -p dista-netty --no-deps (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc -p dista-obs -p dista-taint -p dista-taintmap -p dista-core -p dista-simnet -p dista-jre -p dista-netty --no-deps --offline

echo "==> cargo test --workspace (every crate's unit, integration and doc tests, once)"
cargo test -q --workspace --offline

echo "==> lock-free cache hits under --release, where races show: a hit takes no cache lock, two connections' hits race"
cargo test -q --release --offline -p dista-taintmap --lib a_cache_hit_takes_no_cache_lock
cargo test -q --release --offline --test prop_boundary two_connections_on_one_vm_pair_resolve_every_crossing

echo "==> v1 block kernel under --release, where its shifts and masks compile differently: the codec properties, the v1 and v2 unit tests (v2 record frames run the kernel) and the hostile-frame suite (v2 refuses widths past 4)"
cargo test -q --release --offline -p dista-jre --test prop_codec
cargo test -q --release --offline -p dista-jre --lib codec::v1
cargo test -q --release --offline -p dista-jre --lib codec::v2
cargo test -q --release --offline -p dista-jre --test adversarial_decode

echo "==> Taint Map transport under --release, where deadline races show: a late reply is never read, a destination fails on its own"
for name in a_late_reply_after_an_expired_deadline_is_never_read_as_the_next_answer \
    an_open_breaker_on_one_shard_holds_back_only_that_shards_binds \
    a_crashed_split_server_is_retried_and_trips_its_breaker; do
    cargo test -q --release --offline -p dista-taintmap --test sharded_endpoint "$name"
done

echo "==> chaos suites under fixed seeds: rx-to-map cut, shard crash+replay, heal, backlog drain; a VM crash cut from its step; a split whose copy a link reset cuts, with a side crashed at the cut"
for seed in 7 42 1337; do
    echo "    seed $seed"
    DISTA_CHAOS_SEED="$seed" cargo test -q --offline --test chaos
done

echo "==> write-behind registration and standby hand-back: a shard crash before the binds land, and primary/standby crash flips under mirror cuts, splits and a standby promotion, lose no gid, three seeds"
for seed in 7 42 1337; do
    echo "    seed $seed"
    DISTA_CHAOS_SEED="$seed" cargo test -q --offline -p dista-taintmap --test prop_chaos \
        a_shard_crash_before_the_bind_lands_loses_no_gid
    DISTA_CHAOS_SEED="$seed" cargo test -q --offline -p dista-taintmap --test prop_chaos \
        primary_standby_crash_flips_lose_no_bind
done

echo "==> hostile_bytes: every decoder under seeded mutation and the allocation mark, three seeds"
for seed in 7 42 1337; do
    echo "    fuzz seed $seed"
    DISTA_FUZZ_SEED="$seed" cargo test -q --offline --test hostile_bytes
done

echo "==> split-while-loaded gate: 1M distinct gids across a split whose copy link resets cut three times, three seeds"
for seed in 7 42 1337; do
    echo "    reshard seed $seed"
    DISTA_RESHARD_SEED="$seed" cargo test -q --release --offline -p dista-taintmap \
        --test prop_chaos split_one_million_gids_without_loss -- --ignored
done

echo "==> taint tree under --release, where races show: eight threads intern overlapping sets through the lock-free set index, racers build one set from operands in different orders; the tree against its set model"
cargo test -q --release --offline -p dista-taint --test stress_tree
cargo test -q --release --offline -p dista-taint --test prop_taint the_tree_matches_a_set_model

echo "==> bytes per global taint, tree node and sink hit: packed records round-trip in release, as the benchmark runs them; live-byte census of 100k fresh taints, per layer (<= 340 B overall, <= 72 B in the backend, <= 60 B per tag in one VM); 100k sink unions of 8 pool taints (<= 75 B per union) and a 1 000-step ascending accumulation (<= 60 B per step); 100k sink hits (<= 16 B per hit) and a logger that stops growing once its ring is full"
cargo test -q --release --offline -p dista-taint --lib serial
cargo test -q --release --offline -p dista-taintmap --test bytes_per_gid
cargo test -q --release --offline -p dista-taint --test bytes_per_node
cargo test -q --release --offline -p dista-jre --test bytes_per_sink_event

echo "==> claim_global_taints --smoke"
cargo run -p dista-bench --bin claim_global_taints --release --offline -- --smoke

echo "==> claim_net_overhead --smoke --metrics (wire-expansion band check)"
cargo run -p dista-bench --bin claim_net_overhead --release --offline -- --smoke --metrics

echo "==> pipeline chaos suite under fixed seeds"
for seed in 7 42 1337; do
    echo "    pipeline seed $seed"
    DISTA_CHAOS_SEED="$seed" cargo test -q --offline --test pipeline_chaos
done

echo "==> benchmark/smoke.sh (the benchmark builds against the crates' public API; every op of all five workloads verifies)"
# The benchmark is a workspace of its own, so nothing above compiles it.
# Not a measurement: 1% of the op counts, nothing appended to its history.
./benchmark/smoke.sh

echo "==> hand-off gate: SimNet blocking round trip <= 2x the mpsc round trip of the same process"
# Built on every core first; the run itself is confined to one core,
# like the crossing benchmark confines its workloads. Left to the
# scheduler either ping-pong lands on one core or two (3 us or 35 us
# per round trip here), so without taskset the ratio means nothing and
# the gate is skipped. The target compares the two numbers itself and
# exits non-zero.
cargo bench --offline -p dista-bench --bench handoff --no-run
if command -v taskset >/dev/null 2>&1; then
    taskset -c 0 cargo bench --offline -p dista-bench --bench handoff
else
    echo "    taskset not found: hand-off gate skipped"
fi

echo "CI OK"
