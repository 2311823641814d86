#!/usr/bin/env bash
# Full local CI gate: build, test, formatting, lints. Run from the repo root.
#
#   ./scripts/check.sh [--chaos-seeds N] [--serve-smoke] [--cnn-serve-smoke] \
#                      [--async-serve-smoke] [--wire-fuzz-smoke] [--governor-smoke] \
#                      [--silent-ot-smoke] [--transformer-smoke] [--bench]
#
# --chaos-seeds N widens the seeded chaos suite (tests/chaos.rs) from its
# default of 64 seeds without recompiling.
#
# --serve-smoke additionally drives the serving frontend end to end:
# examples/serve_load.rs starts a server and fires 8 concurrent TCP
# clients at it, checking every logit against forward_exact.
#
# --cnn-serve-smoke does the same with a conv→pool→dense model, proving
# the graph executor serves spatial topologies through the same frontend.
#
# --async-serve-smoke exercises the event-driven session engine: the
# sessions-per-worker scaling test (64 clients multiplexed over 4
# event-loop workers, O(workers) protocol threads), the event-loop chaos
# tests (mid-session cut while the driver is parked -> checkpoint ->
# bit-exact resume; delayed frames), and the load generator with more
# clients than workers so warm-pool sessions time-share the event loops.
#
# --wire-fuzz-smoke runs the typed-wire-layer adversarial suites in
# release mode: frame round-trip/truncation/corruption totality
# (tests/wire_roundtrip.rs), the tag-flip sweep over a live session
# (tests/chaos.rs), the per-transport malformed-frame contract
# (tests/transport_contract.rs), and the blocking-vs-event-loop framing
# parity corpus (tests/framing_parity.rs).
#
# --governor-smoke exercises the session governor, panic quarantine and
# worker restart: the hostile-peer chaos tests (slowloris eviction,
# never-draining reader hitting the outbound cap, mid-online panic
# quarantined while bit-exact siblings finish), the retry_after_ms
# load-shed round-trip, a worker loop that dies with a connection queued
# and restarts on its own thread with a fresh seed, and the load generator
# with governor budgets on plus an injected mid-online panic — the clean
# siblings must still verify bit-exact and the metrics must show exactly
# one quarantined session.
#
# --silent-ot-smoke exercises the silent-OT offline subsystem in release
# mode: the η-sweep bit-exactness acceptance (tests/silent_ot.rs), the
# silent chaos batch (seeded cuts, tag flips over the 0x40–0x43 frames,
# cut-after-expansion checkpoint/resume, mixed silent+IKNP fleet), and
# the pinned silent-vs-KK13 byte-count comparison (tests/comm_shape.rs).
#
# --transformer-smoke exercises the generalized op pipeline in release
# mode: the transformer acceptance suite (logits bit-exact vs the
# plaintext oracle across eta in {2,3,4,8}; warm-from-pool with zero
# offline-phase bytes), the transformer chaos tests (tag-flip sweep over
# the new frames; cut during a MATMUL_OPENINGS exchange -> checkpoint ->
# bit-exact resume), and the load generator serving the encoder block
# through the event-loop workers.
#
# --bench regenerates the machine-readable benchmark files:
# BENCH_silent_ot.json (offline/online bytes and wall-clock per table
# workload, with the silent-vs-IKNP offline comparison pinned as the
# first entry — the ≥10× OT-extension reduction is asserted at
# generation time), BENCH_transformer.json (cold vs warm offline and
# online costs of one encoder-block prediction, bit-exactness asserted
# at generation time), and BENCH_crypto.json (blocks/sec per crypto
# backend for AES/MMO/PRG, the wall time of the one IKNP transpose
# kernel, the curve kernels under base-OT setup, ns per fragment-OT mask
# batched and one row at a time, and a 128x128 triplet split into
# extension, masks and pack+decode; with the ≥4× AES-NI speedup and the
# ≥3× of batched masks over the one-row loop asserted at generation time
# where the CPU has AES-NI).
#
# Every run also greps the protocol crates for scalar AES calls
# (`encrypt_block`, `hash_block`, `next_block`, a one-shot
# `Prg::from_seed(..).bytes(..)`), which belong to crates/crypto, test
# modules and benches only, and crates/baselines for the per-layer online
# helpers (`layer_share`, `relu_server`, `relu_client`: the online phase is
# core's, the baselines call it whole), and crates/net/src for a second file
# that checks a frame length (`MAX_FRAME_LEN`, `tags::max_len(`,
# `UNREGISTERED_MAX_LEN`: the length-prefixed stream is parsed in
# framing.rs, TcpTransport and FrameBuffer are its two faces), crates/gc/src
# for a second file that hashes (`hash_blocks(`: garble.rs holds the one
# garbling loop and the one evaluation loop) and crates/core/src for a
# second `Lowering::of(` (an op becomes a circuit once, in the model's slot
# for it), reruns the pinned Yao, triplet, OT-extension and session
# transcripts (and the lineage rules: single-use claim, forfeit on any
# non-clean end, fresh-setup fallback), and
# the garbling loops' parity with their per-gate reference in release under
# the portable crypto backend, and builds and unit-tests the standalone benchmark package under bench/
# (its own manifest and lock file, outside the workspace), so
# an API change that breaks the benchmark fails here rather than in the
# pipeline that runs it, and then runs its smoke test (bench/run.sh
# --quick: 5 predictions on each of the four served workloads, ~10 s) —
# the only place the event loop is checked bit-exact on the warm MLP, the
# warm encoder, and cold IKNP and cold silent sessions over real TCP. It
# fails on any wrong or failed prediction or missing metric.
#
# The container has no network access to crates.io; all dependencies are
# vendored as stubs under stubs/ (see stubs/README.md), so every cargo
# invocation runs offline.
set -euo pipefail
cd "$(dirname "$0")/.."

while [[ $# -gt 0 ]]; do
  case "$1" in
    --chaos-seeds)
      [[ $# -ge 2 ]] || { echo "--chaos-seeds requires a value" >&2; exit 2; }
      export CHAOS_SEEDS="$2"
      shift 2
      ;;
    --serve-smoke)
      SERVE_SMOKE=1
      shift
      ;;
    --cnn-serve-smoke)
      CNN_SERVE_SMOKE=1
      shift
      ;;
    --async-serve-smoke)
      ASYNC_SERVE_SMOKE=1
      shift
      ;;
    --wire-fuzz-smoke)
      WIRE_FUZZ_SMOKE=1
      shift
      ;;
    --governor-smoke)
      GOVERNOR_SMOKE=1
      shift
      ;;
    --silent-ot-smoke)
      SILENT_OT_SMOKE=1
      shift
      ;;
    --transformer-smoke)
      TRANSFORMER_SMOKE=1
      shift
      ;;
    --bench)
      RUN_BENCH=1
      shift
      ;;
    *)
      echo "unknown argument: $1" >&2
      exit 2
      ;;
  esac
done

export CARGO_NET_OFFLINE=true

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q --workspace

echo "==> bench/: build and unit-test the standalone benchmark package"
cargo build --release --offline --manifest-path bench/Cargo.toml
cargo test --offline --manifest-path bench/Cargo.toml

echo "==> bench/run.sh --quick: 5 served predictions per workload, every logit checked"
bash bench/run.sh --quick

# Scalar AES stays an oracle: a protocol path that hashes or expands one
# block at a time runs software AES on AES-NI hosts and pays a key schedule
# or a dispatch per block. Everything outside the crypto crate, the test
# modules and the bench binaries goes through a slice (`hash_blocks`,
# `hash_expand_rows`, `fill_blocks`, `encrypt_blocks`).
echo "==> scalar-AES gate: no one-block crypto call in a protocol path"
scalar_aes=$(find src examples crates -name '*.rs' \
  -not -path 'crates/crypto/*' -not -path 'crates/bench/*' -print0 |
  xargs -0 awk '
    FNR == 1 { in_tests = 0 }
    /#\[cfg\(test\)\]/ { in_tests = 1 }
    !in_tests && !/^[[:space:]]*\/\// &&
      /(\.|Aes128::)encrypt_block\(|(\.|RoHash::)hash_block\(|(\.|Prg::)next_block\(|Prg::from_seed\(.*\)[[:space:]]*\.bytes\(/ {
        print FILENAME ":" FNR ": " $0
      }')
if [[ -n "$scalar_aes" ]]; then
  echo "$scalar_aes" >&2
  echo "scalar AES call outside crates/crypto, test modules and benches (see above)" >&2
  exit 1
fi

# The online phase lives in core: a baseline differs from ABNN2 in how it
# makes triplets and hands `SecureServer::online` / `SecureClient::online_raw`
# a (Yao party, bundle) pair. A layer loop over the per-op helpers in
# crates/baselines would be a second online phase again.
echo "==> one-online-phase gate: no per-layer online helper in crates/baselines"
online_copy=$(find crates/baselines/src -name '*.rs' -print0 |
  xargs -0 awk '
    FNR == 1 { in_tests = 0 }
    /#\[cfg\(test\)\]/ { in_tests = 1 }
    !in_tests && !/^[[:space:]]*\/\// && /layer_share\(|relu_server\(|relu_client\(/ {
      print FILENAME ":" FNR ": " $0
    }')
if [[ -n "$online_copy" ]]; then
  echo "$online_copy" >&2
  echo "online-phase helper called from crates/baselines (see above)" >&2
  exit 1
fi

# The length-prefixed stream is parsed once: `framing.rs` holds the
# header/tag/payload state machine with its `MAX_FRAME_LEN` and tag-ceiling
# checks, and `TcpTransport` and `FrameBuffer` are that codec over a
# blocking and a non-blocking socket. A second file that uses one of the
# three bounds (beyond defining or importing it) is a second parser.
echo "==> one-framing gate: frame lengths are checked in one file of crates/net/src"
for bound in 'MAX_FRAME_LEN' 'tags::max_len(' 'UNREGISTERED_MAX_LEN'; do
  checked_in=$(find crates/net/src -name '*.rs' -print0 |
    xargs -0 awk -v bound="$bound" '
      FNR == 1 { in_tests = 0 }
      /#\[cfg\(test\)\]/ { in_tests = 1 }
      !in_tests && !/^[[:space:]]*\/\// && !/^[[:space:]]*(pub )?(use|const) / &&
        index($0, bound) { print FILENAME }' | sort -u | tr '\n' ' ')
  if [[ "$checked_in" != "crates/net/src/framing.rs " ]]; then
    echo "$bound is checked in: ${checked_in:-no file} (expected crates/net/src/framing.rs only)" >&2
    exit 1
  fi
done

# Garbling runs one group's gates across all lanes, in one place: the loop
# in `garble` and the loop in `evaluate`, both in garble.rs, are the only
# code of the crate that hashes, so a per-gate or per-circuit copy next to
# them shows up as a second file. And an op is lowered to its circuit in
# one place, `SecureGraph::lowering`, which fills the model's slot for it;
# a second `Lowering::of(` is a session building circuits of its own again.
echo "==> one-garbling-loop gate: crates/gc/src hashes in one file, crates/core/src lowers in one place"
hashing=$(find crates/gc/src -name '*.rs' -print0 |
  xargs -0 awk '
    FNR == 1 { in_tests = 0 }
    /#\[cfg\(test\)\]/ { in_tests = 1 }
    !in_tests && !/^[[:space:]]*\/\// && /hash_blocks\(/ { print FILENAME }' | sort -u | tr '\n' ' ')
if [[ "$hashing" != "crates/gc/src/garble.rs " ]]; then
  echo "hash_blocks( is called in: ${hashing:-no file} (expected crates/gc/src/garble.rs only)" >&2
  exit 1
fi
lowerings=$(find crates/core/src -name '*.rs' -print0 |
  xargs -0 awk '
    FNR == 1 { in_tests = 0 }
    /#\[cfg\(test\)\]/ { in_tests = 1 }
    !in_tests && !/^[[:space:]]*\/\// && /Lowering::of\(/ { print FILENAME ":" FNR ": " $0 }')
if [[ $(grep -c . <<<"$lowerings") != 1 ]]; then
  echo "$lowerings" >&2
  echo "Lowering::of( is called in the places above (expected exactly one)" >&2
  exit 1
fi

# The dev profile keeps overflow checks and debug assertions on and the
# default backend is AES-NI where the CPU has it: the pinned transcripts
# must also hold as the served binaries are built, over the software path.
echo "==> pinned Yao, triplet, OT-extension and session transcripts: release, portable backend"
ABNN2_CRYPTO_BACKEND=portable cargo test -q --release \
  --test yao_pins --test triplet_pins --test ot_extension_pins \
  --test lineage_pins --test lineage
# Same build, same backend: the lane-wise garbling against its per-gate
# reference (tables, decode map, both label sets, outputs) and the slot
# allocator's tests.
ABNN2_CRYPTO_BACKEND=portable cargo test -q --release -p abnn2-gc --lib -- garble:: slot

echo "==> cargo fmt --check"
cargo fmt --check

# Every workspace member, test targets and the table binaries included.
echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --no-deps (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace -q

if [[ "${SERVE_SMOKE:-0}" == "1" ]]; then
  echo "==> serve smoke: 8 concurrent clients x 2 requests"
  cargo run --release --example serve_load -- --clients 8 --requests 2
fi

if [[ "${CNN_SERVE_SMOKE:-0}" == "1" ]]; then
  echo "==> CNN serve smoke: 4 concurrent clients x 2 requests"
  cargo run --release --example serve_load -- --cnn --clients 4 --requests 2
fi

if [[ "${ASYNC_SERVE_SMOKE:-0}" == "1" ]]; then
  echo "==> async serve smoke: multiplexed event-loop serving, cut/resume, warm pool"
  cargo test --release --test serve_scale
  cargo test --release --test chaos event_loop
  cargo run --release --example serve_load -- --clients 12 --requests 2 --sessions-per-worker 4
fi

if [[ "${WIRE_FUZZ_SMOKE:-0}" == "1" ]]; then
  echo "==> wire fuzz smoke: frame totality, tag-flip sweep, transport contract, framing parity"
  cargo test --release --test wire_roundtrip
  cargo test --release --test chaos tag_flip_at_every_entry_point_names_the_expected_frame
  cargo test --release --test transport_contract
  cargo test --release --test framing_parity
fi

if [[ "${GOVERNOR_SMOKE:-0}" == "1" ]]; then
  echo "==> governor smoke: hostile-peer eviction, panic quarantine, worker restart, load shedding"
  cargo test --release --test chaos governor_
  cargo test --release --test chaos mid_online_panic
  cargo test --release --test serve retry_after
  cargo test --release --test serve worker
  cargo run --release --example serve_load -- \
    --clients 8 --requests 2 --sessions-per-worker 4 --governor --inject-panic 3
fi

if [[ "${SILENT_OT_SMOKE:-0}" == "1" ]]; then
  echo "==> silent-OT smoke: eta-sweep bit-exactness, silent chaos, pinned byte counts"
  cargo test --release --test silent_ot
  cargo test --release --test chaos silent
  cargo test --release --test comm_shape silent_extension_bytes_beat_kk13_by_an_order_of_magnitude
fi

if [[ "${TRANSFORMER_SMOKE:-0}" == "1" ]]; then
  echo "==> transformer smoke: eta-sweep bit-exactness, warm pool, chaos, served load"
  cargo test --release --test transformer
  cargo test --release --test chaos transformer_tag_flip
  cargo test --release --test chaos cut_during_matmul
  cargo run --release --example serve_load -- --transformer --clients 4 --requests 2
fi

if [[ "${RUN_BENCH:-0}" == "1" ]]; then
  echo "==> bench: regenerating BENCH_silent_ot.json"
  cargo run --release -p abnn2-bench --bin bench_json -- BENCH_silent_ot.json
  echo "==> bench: regenerating BENCH_transformer.json"
  cargo run --release -p abnn2-bench --bin bench_json -- --transformer BENCH_transformer.json
  echo "==> bench: regenerating BENCH_crypto.json"
  cargo run --release -p abnn2-bench --bin bench_json -- --crypto BENCH_crypto.json
fi

echo "All checks passed."
