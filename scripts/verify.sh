#!/usr/bin/env bash
# Repository verification gate: tier-1 build+tests, formatting, lints.
#
# Everything runs --offline against the vendored dependency stubs
# (see DESIGN.md §2 "Dependency policy") — no network is required.
#
#   ./scripts/verify.sh            # full gate
#   SKIP_CLIPPY=1 ./scripts/verify.sh   # when clippy is unavailable
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> tier-1: cargo build --release"
cargo build --release --offline

echo "==> tier-1: cargo test -q"
cargo test -q --offline --workspace

echo "==> doe-bench: builds against the libraries, unit tests + smoke harness"
# doe-bench links `syn_sweep_sharded`, `verify_resolvers_sharded`, `Study`
# and `StudyConfig`, so a library change that breaks it fails here rather
# than when the benchmark next runs. Building it rewrites its lock file
# (patch entries no crate uses), so the file is put back afterwards and
# nothing under doe-bench/ changes.
mkdir -p target
cp doe-bench/Cargo.lock target/doe-bench.Cargo.lock
bench_status=0
cargo test -q --release --offline --manifest-path doe-bench/Cargo.toml || bench_status=$?
mv target/doe-bench.Cargo.lock doe-bench/Cargo.lock
[ "$bench_status" -eq 0 ] || {
    echo "FAIL: doe-bench does not build or pass its tests against the libraries" >&2
    exit 1
}

echo "==> netsim: one shard runner behind every sharded stage"
# Outputs and absorbed workers (`shard_breakdown` ids) come back in shard
# order 0..n for 1, 3 and 8 shards.
cargo test -q --offline -p netsim --lib -- \
    net::tests::run_shards_returns_outputs_and_absorbs_workers_in_shard_order
# Shard 0 runs on the calling thread, so `--shards 1` starts no thread.
cargo test -q --offline -p netsim --lib -- \
    net::tests::run_shards_runs_shard_zero_on_the_calling_thread
# More shards than work items still gives one output per shard.
cargo test -q --offline -p netsim --lib -- \
    net::tests::run_shards_returns_one_output_per_shard_when_shards_outnumber_items
# A shard's panic reaches the caller with that shard's own payload.
cargo test -q --offline -p netsim --lib -- \
    net::tests::run_shards_resumes_a_shard_panic_with_its_own_payload

echo "==> dnswire: round trips + pinned errors + pinned bytes + allocations"
# `MessageView::parse` is the only DNS validation walk; the owned
# `Message::decode` is that parse plus a copy. The gate checks that the
# copy round-trips (view -> owned -> encode -> view) on generated
# messages and on byte-flipped, truncated and random inputs; that every
# adversarial fixture is rejected with its pinned error variant; the
# exact bytes the owned encoder writes, since round trips would also
# accept a different but valid name compression; that the view parse
# never allocates while the owned encode stays within its count; and
# that parsing a 1 MiB name asks for no block above 255 octets.
cargo test -q --offline -p dnswire --test properties --test adversarial \
    --test golden_encode --test alloc_counts
# A name is one flat wire-form buffer and a zone looks owners up by
# borrowed bytes: on random names (parsed and decoded) and random zones,
# every name operation, the encoded bytes and every lookup must equal
# verbatim copies of the label-vector `Name` and the old lookup.
cargo test -q --offline -p dnswire --test differential

echo "==> doe: stub names built from labels + replies kept as validated frames"
# A fleet query name is one allocation, and one clear-text UDP exchange
# allocates a pinned count: a formatted name or an owned reply decode
# that comes back shows here.
cargo test -q --offline -p doe-protocols --test alloc_counts -- \
    a_fleet_query_name_is_one_allocation \
    a_clear_text_fleet_query_allocates_a_pinned_count
# The label-built name must be byte for byte the name its text parses to,
# for counters at 0, at each type's MAX and anywhere between.
cargo test -q --offline -p doe-protocols --test stub_wire -- \
    counter_extremes_build_the_parsed_name \
    label_built_names_equal_parsed_names
# A name too long to build fails its query as a parse error did: a wire
# error, counted as failed and not retransmitted.
cargo test -q --offline -p doe-protocols --lib -- \
    machine::tests::a_name_past_255_octets_fails_the_query_without_a_retry
# A reply is validated on receipt: junk over UDP and TCP must fail with
# the owned decoder's wire error for the same bytes.
cargo test -q --offline -p doe-protocols --test stub_wire -- \
    junk_udp_replies_are_the_owned_decoders_wire_errors \
    junk_tcp_replies_are_the_owned_decoders_wire_errors
# A DoT reply that is not DNS must verify as NotDns, and a DoH candidate
# that answers 200 with a body that is not DNS must not count as working.
cargo test -q --offline -p doe-scanner --lib -- \
    verify::tests::classifies_open_refusing_and_junk \
    doh_discovery::tests::a_200_with_a_body_that_is_not_dns_does_not_work

echo "==> lean stub fleet: 128-byte machines, shared TLS state, frames handed over"
# The machine is exactly 128 B and 64-byte aligned: two cache lines.
cargo test -q --offline -p doe-protocols --lib -- \
    machine::tests::stub_machine_fits_its_footprint_budget
# Peak live heap per client, 20,000 clients of each profile, within budget.
cargo test -q --offline -p doe-traffic --test footprint
# An accept shares the server config, a store clone shares its anchors,
# a resumed session shares its ticket's chain, a flight is one buffer.
cargo test -q --offline -p tlssim --test alloc_counts -- \
    a_tls_accept_allocates_only_its_handler \
    cloning_a_trust_store_allocates_nothing \
    a_resumed_connect_copies_no_certificate_chain \
    a_two_record_flight_is_one_allocation
# The one-buffer flight holds exactly its records' own encodings.
cargo test -q --offline -p tlssim --test properties -- \
    a_mixed_flight_is_its_records_encoded_in_order
# A shared store copies its anchors before it changes them.
cargo test -q --offline -p tlssim --lib -- \
    cert::tests::a_cloned_store_copies_its_anchors_on_write
# RFC 7301: a resumed stream reports the negotiated protocol, and an
# unoffered selection is refused.
cargo test -q --offline -p tlssim --test end_to_end -- \
    a_resumed_stream_keeps_the_negotiated_alpn \
    a_server_selecting_an_unoffered_alpn_is_refused
# A one-frame buffer is handed over without allocating, and a drained
# decoder keeps nothing; pushes ending on frame boundaries reassemble.
cargo test -q --offline -p dnswire --test alloc_counts -- \
    a_one_frame_buffer_is_handed_over_and_nothing_is_kept
cargo test -q --offline -p dnswire --test properties -- \
    framing_reassembles_any_chunking

echo "==> tlssim: pinned handshake bytes + hostile flights"
# Handshake payloads are canonical JSON that tlssim's own codec writes
# and reads. netsim charges transmission time per byte, so the gate pins
# the exact bytes the encoder writes, captured from the serde encoder it
# replaced, and checks that each pinned message decodes back. The
# decoder accepts only those canonical bytes: byte-flipped, inserted,
# truncated and random flights must either fail with a typed error or
# decode to a message that re-encodes to the same bytes, and every
# proper prefix and full records of nesting, quotes, escapes or digits
# must fail on a 2 MB worker stack.
cargo test -q --offline -p tlssim --test golden_handshake --test hostile_handshake

echo "==> tlssim: pinned sealed-record bytes"
# Both ends seal and open with the same code, so a changed keystream or
# tag would round-trip unnoticed: the gate pins the bytes of one sealed
# padded DoT query under a fixed key, captured before the tag became a
# one-pass digest.
cargo test -q --offline -p tlssim --test golden_record

echo "==> tlssim: pinned record-layer errors + hostile record flights"
# Every junk reply a sweep epoch verifies goes through `decode_records`.
# The gate pins the typed error of each malformed shape (truncated header
# and body, unknown content type, a length past the end, zero-length and
# many tiny records) and checks that byte-flipped, truncated and random
# flights either fail with a typed error or re-encode to the same bytes.
cargo test -q --offline -p tlssim --test hostile_records

echo "==> httpsim: pinned request/response errors + hostile messages"
# Every DoH exchange goes through `Request::decode` and
# `Response::decode`. The gate pins the typed error of each malformed
# shape (no head terminator, short start line, non-HTTP version, bad or
# overflowing status, colon-less header, non-UTF-8 head, Content-Length
# past the body, non-numeric or repeated with another value) and checks
# that byte-flipped, truncated and random messages either fail with a
# typed error or re-encode stably.
cargo test -q --offline -p httpsim --test hostile_messages

echo "==> URI corpus: pinned URL, template and base64url outcomes + mutated inputs"
# DoH discovery parses every crawled corpus URL and a DoH server decodes
# every GET's `dns` parameter: the pinned cases fix each refusal (userinfo,
# fragment, stray colon or brace, non-zero unused base64url bits) and each
# authority that ends at `?`; mutated URLs and templates must give `None`
# or a value whose text parses back to it, and mutated base64url must
# decode only where it re-encodes to the same text.
cargo test -q --offline -p httpsim --lib -- uri::tests b64::tests
cargo test -q --offline -p httpsim --test hostile_messages -- \
    hostile_urls_are_none_or_display_round_trip \
    hostile_base64url_decodes_only_canonical_text

echo "==> decoder bounds: deep and long hostile input on a 2 MiB worker stack"
# Every wire decoder and encoder meets input an attacker shapes, so each
# entry point runs its deepest and longest case on a shard worker's stack.
# dnswire: the deepest pointer chain the format allows must hit the 64-jump cap.
cargo test -q --offline -p dnswire --test adversarial -- \
    deepest_pointer_chain_is_a_pointer_loop_on_a_worker_stack \
    pointer_chain_across_answers_is_a_pointer_loop_on_a_worker_stack \
    deep_accepted_names_decode_and_re_encode_on_a_worker_stack \
    oversized_rdata_is_refused_on_a_worker_stack \
    mebibyte_presentation_names_are_refused_on_a_worker_stack
# tlssim: 12 MiB of empty records and a full-length payload, one pass each way.
cargo test -q --offline -p tlssim --test hostile_records -- \
    millions_of_empty_records_round_trip_on_a_worker_stack \
    a_full_length_payload_round_trips_on_a_worker_stack \
    a_payload_past_the_length_field_panics_on_a_worker_stack
# tlssim handshake: full records of nesting, quotes or digits, and every cut flight.
cargo test -q --offline -p tlssim --test hostile_handshake -- \
    full_records_of_one_byte_are_rejected_on_a_worker_stack
cargo test -q --offline -p tlssim --test golden_handshake -- \
    every_proper_prefix_is_a_protocol_violation
# httpsim: huge heads, many headers and mebibyte URLs stay linear.
cargo test -q --offline -p httpsim --test hostile_messages -- \
    a_quarter_million_header_lines_decode_on_a_worker_stack \
    many_equal_content_lengths_decode_on_a_worker_stack \
    an_unterminated_mebibyte_head_is_refused_on_a_worker_stack \
    a_hundred_thousand_headers_round_trip_on_a_worker_stack \
    mebibyte_urls_and_templates_on_a_worker_stack

echo "==> netsim: policy index + resolved paths against the models they replaced"
# `PolicySet::evaluate` looks rules up by destination address and source
# prefix instead of scanning them all: on random rule lists it must return
# the linear scan's first match. A flow resolves its `Path` once: its RTT
# samples and loss rolls must be the per-sample model's draws, in the
# same RNG order.
cargo test -q --offline -p netsim --lib -- \
    policy::tests::indexed_evaluate_equals_the_linear_scan \
    latency::tests::path_draws_what_the_per_sample_model_drew

echo "==> netsim: host-band regions computed once"
# A host band's region is computed once when the band is added: every
# member of every paper-world band must still be attributed
# `region_of(band.country)`.
cargo test -q --offline -p worldgen --test world_smoke -- \
    paper_world_band_members_get_their_band_region

echo "==> telemetry: indexed histogram buckets + allocation-free updates"
# Histogram buckets are a vector indexed by bucket: counts, quantiles,
# bucket lists, equality and snapshot bytes must equal the BTreeMap
# version's, and a warm counter bump or histogram sample must not
# allocate (the per-probe contract of DESIGN.md section 6).
cargo test -q --offline -p doe-telemetry --test properties -- \
    histogram_matches_the_btreemap_reference
cargo test -q --offline -p doe-telemetry --test alloc_counts

echo "==> scanner: verify counters register only the classes that occur"
# Verification counts outcomes through handles registered on first use;
# a series registered up front would print as a zero in metrics.json.
cargo test -q --offline -p doe-scanner --lib -- \
    verify::tests::snapshot_holds_exactly_the_classes_that_occurred

echo "==> every experiment: repro all identical at shards 1, 3 and 8"
# Quick-scale `repro all` on 1, 3 and 8 workers: every artifact, the
# telemetry snapshot and stdout must be byte-identical however many
# workers ran the measurement.
for shards in 1 3 8; do
    dir="target/repro-all/shards$shards"
    rm -rf "$dir" && mkdir -p "$dir"
    cargo run -q --release -p doe-core --bin repro --offline -- \
        --shards "$shards" --json "$dir" --metrics "$dir/metrics.json" all \
        >"$dir/stdout.txt"
done
[ -s target/repro-all/shards1/metrics.json ] || {
    echo "FAIL: repro all wrote no telemetry snapshot" >&2
    exit 1
}
for shards in 3 8; do
    diff -rq target/repro-all/shards1 "target/repro-all/shards$shards" || {
        echo "FAIL: repro all output differs between --shards 1 and --shards $shards" >&2
        exit 1
    }
done
echo "    $(ls target/repro-all/shards1 | wc -l) files identical across shard counts"
rm -rf target/repro-all

echo "==> telemetry: archived snapshot covers every instrumented stage"
# A small campaign covering every instrumented stage: figure3 drives the
# sweep + DoT verification, table4 the vantage reachability tests and
# figure9 the stub-resolver performance comparison.
mkdir -p results
cargo run -q --release -p doe-core --bin repro --offline -- \
    --shards 1 --metrics results/metrics.json figure3 table4 figure9 >/dev/null
[ -s results/metrics.json ] || { echo "FAIL: results/metrics.json is empty" >&2; exit 1; }
for series in stage.sweep.probe_us stage.verify.session_us \
              stage.reach.client_us stage.perf.query_us net.probe.sent; do
    grep -q "$series" results/metrics.json || {
        echo "FAIL: series $series missing from results/metrics.json" >&2
        exit 1
    }
done
echo "    metrics.json archived, all stages present"

echo "==> scheduler: reference-model order + allocations, stub-scale determinism (shards 1 vs 8)"
# The radix heap has no sequence number: equal instants fire in schedule
# order only because every bucket stays a FIFO. The gate checks each pop
# of interleaved scripts (bursts, zero delays, past instants, 2^40 µs
# gaps, instants near u64::MAX, drains and refills) and of a 50,000-client
# stub-shaped run against a binary-heap model of the old (instant, seq)
# order; that an instant before the last pop is clamped to it; that a
# warm heap runs a stub-shaped cycle without allocating; and that moving
# a 262,144-entry bucket stays within 24 B per pending event plus a fixed
# slack of blocks.
cargo test -q --offline -p netsim --lib -- \
    sched::tests::interleaved_ops_match_the_reference_model \
    sched::tests::stub_shaped_run_matches_the_reference_model \
    sched::tests::an_instant_before_the_last_pop_fires_at_the_last_pop
cargo test -q --offline -p netsim --test sched_alloc
# The event-driven client fleet: the same population run on 1 and 8
# workers must produce byte-identical reports and telemetry, and the
# snapshot must carry the per-event-kind scheduler series.
cargo run -q --release -p doe-core --bin repro --offline -- \
    --shards 1 --clients 50000 --json results/stub1 \
    --metrics results/stub1/metrics.json stub-scale >/dev/null
cargo run -q --release -p doe-core --bin repro --offline -- \
    --shards 8 --clients 50000 --json results/stub8 \
    --metrics results/stub8/metrics.json stub-scale >/dev/null
cmp results/stub1/stub-scale.json results/stub8/stub-scale.json || {
    echo "FAIL: stub-scale report differs between --shards 1 and --shards 8" >&2
    exit 1
}
cmp results/stub1/metrics.json results/stub8/metrics.json || {
    echo "FAIL: stub-scale telemetry differs between --shards 1 and --shards 8" >&2
    exit 1
}
for series in sched.event.fired sched.queue.depth stage.stub.queries \
              stage.stub.retransmits stage.stub.idle_closes; do
    grep -q "$series" results/stub1/metrics.json || {
        echo "FAIL: series $series missing from stub-scale metrics" >&2
        exit 1
    }
done
rm -rf results/stub1 results/stub8
echo "    stub-scale report + telemetry identical across shard counts"

echo "==> privacy: padding-leakage determinism (two runs, shards 2 vs 8)"
# The fingerprinting experiment: two independent runs on different shard
# counts must produce byte-identical results/privacy.json — the flows
# are keyed on their global index, so neither repetition nor shard
# layout may leak into the classifier's inputs or the per-policy
# telemetry.
cargo run -q --release -p doe-core --bin repro --offline -- \
    --shards 2 --json results/priv_a \
    --metrics results/priv_a/metrics.json padding-leakage >/dev/null
cargo run -q --release -p doe-core --bin repro --offline -- \
    --shards 8 --json results/priv_b \
    --metrics results/priv_b/metrics.json padding-leakage >/dev/null
cmp results/priv_a/padding-leakage.json results/priv_b/padding-leakage.json || {
    echo "FAIL: padding-leakage report differs between two runs" >&2
    exit 1
}
cmp results/priv_a/metrics.json results/priv_b/metrics.json || {
    echo "FAIL: padding-leakage telemetry differs between two runs" >&2
    exit 1
}
for series in stage.privacy.flows stage.privacy.wire_bytes \
              stage.privacy.dummy_cells stage.privacy.attributed; do
    grep -q "$series" results/priv_a/metrics.json || {
        echo "FAIL: series $series missing from padding-leakage metrics" >&2
        exit 1
    }
done
for policy in none block random-block constant-rate adaptive-padding; do
    grep -q "\"$policy\"" results/priv_a/padding-leakage.json || {
        echo "FAIL: policy $policy missing from padding-leakage report" >&2
        exit 1
    }
done
cp results/priv_a/padding-leakage.json results/privacy.json
rm -rf results/priv_a results/priv_b
echo "    padding-leakage byte-stable; artifact archived as results/privacy.json"

echo "==> privacy: paper-scale padding-leakage identical at shards 1 and 8"
# The same experiment at paper scale (2,400 flows, 160 test traces per
# policy), where the pruned k-NN search does most of its skipping: the
# report and its telemetry must not depend on the worker count.
for shards in 1 8; do
    dir="target/privacy-paper/shards$shards"
    rm -rf "$dir" && mkdir -p "$dir"
    cargo run -q --release -p doe-core --bin repro --offline -- \
        --paper --shards "$shards" --json "$dir" \
        --metrics "$dir/metrics.json" padding-leakage >/dev/null
done
for f in padding-leakage.json metrics.json; do
    cmp "target/privacy-paper/shards1/$f" "target/privacy-paper/shards8/$f" || {
        echo "FAIL: paper-scale padding-leakage $f differs between --shards 1 and 8" >&2
        exit 1
    }
done
rm -rf target/privacy-paper
echo "    paper-scale padding-leakage report + telemetry identical across shard counts"

echo "==> doe-lint (determinism contract: token rules + call-graph reachability)"
# One pass writes the artifacts (v5 report and SARIF, both archived;
# the v3 call graph, regenerated here and git-ignored); a second pass
# re-derives all three so the gate catches any nondeterminism in the
# analyzer itself. A stale entry in lint.toml (renamed function,
# dropped rule root) is a hard error inside the run, so the D007–D015
# roots cannot rot silently.
cargo run -q --release -p doe-lint --offline -- \
    --json-out results/doe-lint.json --graph-out results/callgraph.json \
    --sarif results/doe-lint.sarif
cargo run -q --release -p doe-lint --offline -- \
    --quiet --json-out results/doe-lint.second.json \
    --graph-out results/callgraph.second.json \
    --sarif results/doe-lint.second.sarif
cmp results/callgraph.json results/callgraph.second.json || {
    echo "FAIL: callgraph.json differs between two doe-lint runs" >&2
    exit 1
}
cmp results/doe-lint.json results/doe-lint.second.json || {
    echo "FAIL: doe-lint.json differs between two doe-lint runs" >&2
    exit 1
}
cmp results/doe-lint.sarif results/doe-lint.second.sarif || {
    echo "FAIL: SARIF export differs between two doe-lint runs" >&2
    exit 1
}
rm -f results/callgraph.second.json results/doe-lint.second.json \
      results/doe-lint.second.sarif
grep -q '"nodes"' results/callgraph.json || {
    echo "FAIL: results/callgraph.json lost its node section" >&2
    exit 1
}
grep -q '"version": 5' results/doe-lint.json || {
    echo "FAIL: results/doe-lint.json is not schema v5 (chain + fingerprint)" >&2
    exit 1
}
grep -q '"clean": true' results/doe-lint.json || {
    echo "FAIL: doe-lint reports unsuppressed findings" >&2
    exit 1
}
# Suppressions are a budget, not an escape hatch: interior mutability is
# banned outright (D006), so the three that remain are the documented
# rdata panic (D004/D007) and the masked scanner cast (D005).
suppressed=$(grep -o '"suppressed": [0-9][0-9]*' results/doe-lint.json \
    | grep -o '[0-9][0-9]*$' || true)
[ "${suppressed:-99}" -le 3 ] || {
    echo "FAIL: doe-lint reports $suppressed suppressions (budget: 3)" >&2
    exit 1
}
grep -q '"version": "2.1.0"' results/doe-lint.sarif || {
    echo "FAIL: results/doe-lint.sarif is not SARIF 2.1.0" >&2
    exit 1
}
# Baseline regression gate: a clean workspace diffed against its own
# archived report must stay clean (exit 0, no regressions).
cargo run -q --release -p doe-lint --offline -- \
    --quiet --baseline results/doe-lint.json || {
    echo "FAIL: doe-lint --baseline reports regressions against the archived report" >&2
    exit 1
}
# The reachability rules (D007-D009, D012, D015) must stay rooted in
# lint.toml [graph]; D008 and D015 share the merge roots.
section_has() {
    awk -v sec="[$1]" -v key="$2 = [" '
        /^\[/ { in_sec = ($0 == sec) }
        in_sec && index($0, key) == 1 { found = 1 }
        END { exit !found }' lint.toml
}
for roots in graph:protocol_entries graph:merge_entries graph:step_entries \
             graph:hot_entries; do
    section_has "${roots%%:*}" "${roots#*:}" || {
        echo "FAIL: lint.toml [${roots%%:*}] lost its ${roots#*:} roots" >&2
        exit 1
    }
done
echo "    doe-lint.json (v5) + doe-lint.sarif archived, callgraph.json regenerated, all byte-stable"

if [[ "${FULL_SCALE:-0}" == "1" ]]; then
    echo "==> full scale: 2.5M-host sweep and 1M-client fleet determinism (FULL_SCALE=1)"
    # The paper-scale leg, opt-in because it adds a few minutes: the
    # ignored shard-invariance tests sweep the full space and run the
    # 1M-client stub fleet at shards 1/2/8, then two complete --paper
    # regenerations of the sweep experiments must be byte-identical.
    cargo test -q --offline --release --test shard_invariance -- \
        --ignored full_scale_sweep stub_population_at_one_million_clients_is_invariant
    for run in a b; do
        mkdir -p "results/fullscale_$run"
        cargo run -q --release -p doe-core --bin repro --offline -- \
            --paper --shards 8 --json "results/fullscale_$run" \
            figure3 table2 figure4 >"results/fullscale_$run/report.txt"
    done
    for f in figure3.json table2.json figure4.json report.txt; do
        cmp "results/fullscale_a/$f" "results/fullscale_b/$f" || {
            echo "FAIL: full-scale $f differs between two --paper runs" >&2
            exit 1
        }
    done
    grep -Eq '"port_open": 2[0-9]{6}' results/fullscale_a/figure3.json || {
        echo "FAIL: full-scale open count left the paper's 2-3M band" >&2
        exit 1
    }
    rm -rf results/fullscale_a results/fullscale_b
    echo "    full-scale sweep shard-invariant and byte-stable across runs"
else
    echo "==> full scale: skipped (set FULL_SCALE=1 to run the 2.5M-host gate)"
fi

echo "==> cargo fmt --check"
cargo fmt --check

if [[ "${SKIP_CLIPPY:-0}" != "1" ]]; then
    echo "==> cargo clippy --workspace -D warnings"
    cargo clippy --workspace --all-targets --offline -q -- -D warnings
else
    echo "==> clippy skipped (SKIP_CLIPPY=1)"
fi

echo "==> verify.sh: all gates green"
