#!/usr/bin/env bash
# The CI pipeline, one stage per function. `.github/workflows/ci.yml`
# runs one job per stage by calling this script, so the commands live
# here only.
#
#   ./ci.sh                  # every stage, in order
#   ./ci.sh quick            # every stage, skipping the slow ignored tests
#   ./ci.sh <stage>...       # test | determinism | net-scenarios |
#                            # serve-smoke | benchmark-build | bench-gate
#   ./ci.sh loc              # report only, never fails: Rust line counts
#   ./ci.sh pair <parent-rev> <workload> [pairs] [seed]
#                            # paired parent/change benchmark passes, judged
#   ./ci.sh same-bytes <parent-rev> <experiment> [flags...]
#                            # parent/change cvr-bench stdout, compared
set -euo pipefail
cd "$(dirname "$0")"

# bench-gate goes last: a failed check there must not stop `set -e` before
# the frozen-API benchmark build and its smokes have run.
STAGES=(test determinism net-scenarios serve-smoke benchmark-build bench-gate)

step() { printf '\n=== %s ===\n' "$*"; }

# One EXIT trap for the whole pipeline: any failure after the smoke
# server/clients are spawned must not leak them, and the scratch
# directories always get removed.
SERVE_PID=""
CLIENT_PID=""
SCRATCH_DIRS=()
cleanup() {
    if [ -n "${CLIENT_PID:-}" ]; then kill "$CLIENT_PID" 2>/dev/null || true; fi
    if [ -n "${SERVE_PID:-}" ]; then kill "$SERVE_PID" 2>/dev/null || true; fi
    for dir in "${SCRATCH_DIRS[@]:-}"; do
        if [ -n "$dir" ]; then rm -rf "$dir"; fi
    done
}
trap cleanup EXIT

scratch_dir() {
    SCRATCH="$(mktemp -d)"
    SCRATCH_DIRS+=("$SCRATCH")
}

# The one bench driver: `bench <experiment>|gate|list [flags]`.
bench() { cargo run -p cvr-bench --release -- "$@"; }

# Runs an experiment at 1 and at 4 threads with the given arguments and
# requires byte-identical CSV output.
same_at_1_and_4_threads() {
    local experiment="$1"
    shift
    bench "$experiment" "$@" --csv "$SCRATCH/$experiment-t1" --threads 1
    bench "$experiment" "$@" --csv "$SCRATCH/$experiment-t4" --threads 4
    diff -r "$SCRATCH/$experiment-t1" "$SCRATCH/$experiment-t4"
}

INCLUDE_IGNORED=1

# Ceilings on `./ci.sh loc`'s workspace totals (non-test, all lines) and
# on the byte sizes of the four prose documents. A change that must raise
# one does so here and says why in CHANGES.md.
LOC_CEILING_NON_TEST=18605
LOC_CEILING_ALL=33282
BYTE_CEILING_DESIGN=45786
BYTE_CEILING_CHANGES=51718
BYTE_CEILING_EXPERIMENTS=27837
BYTE_CEILING_README=14596

stage_test() {
    step "Line-count ceilings: non-test <= $LOC_CEILING_NON_TEST, all <= $LOC_CEILING_ALL"
    local non_test all
    read -r _ non_test all < <(loc_table | grep '^total ')
    echo "workspace: $non_test non-test, $all all"
    if [ "$non_test" -gt "$LOC_CEILING_NON_TEST" ] || [ "$all" -gt "$LOC_CEILING_ALL" ]; then
        echo "line count above its ceiling"
        exit 1
    fi

    step "Document byte ceilings"
    local doc ceiling bytes over=0
    for doc in DESIGN CHANGES EXPERIMENTS README; do
        ceiling="BYTE_CEILING_$doc"
        bytes="$(wc -c < "$doc.md")"
        echo "$doc.md: $bytes bytes (ceiling ${!ceiling})"
        if [ "$bytes" -gt "${!ceiling}" ]; then over=1; fi
    done
    if [ "$over" = 1 ]; then
        echo "document above its byte ceiling"
        exit 1
    fi

    step "Format"
    cargo fmt --check

    step "Clippy"
    cargo clippy --workspace --all-targets -- -D warnings

    step "Build"
    cargo build --workspace --all-targets

    if [ "$INCLUDE_IGNORED" = 1 ]; then
        step "Tests (including slow ignored tests)"
        cargo test --workspace --release -- --include-ignored
    else
        step "Tests"
        cargo test --workspace --release
    fi

    step "Docs"
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

    step "Examples"
    local example
    for example in examples/*.rs; do
        example="$(basename "$example" .rs)"
        cargo run --release --example "$example"
    done

    step "Experiment table and smoke figures"
    bench list
    bench fig1
    bench fig2 --runs 2 --duration 5
    bench fig7 --runs 1 --duration 5
}

stage_determinism() {
    step "Determinism: 1 thread vs 4 threads must produce identical outputs"
    scratch_dir
    same_at_1_and_4_threads fig2 --runs 6 --duration 5
    same_at_1_and_4_threads fig7 --runs 4 --duration 5
    echo "determinism: outputs byte-for-byte identical"
}

stage_net_scenarios() {
    step "Net scenarios: pathology matrix at 1 vs 4 threads, byte-identical CSVs"
    scratch_dir
    same_at_1_and_4_threads net_bench --runs 2 --duration 10
    echo "net scenarios: outputs byte-for-byte identical"

    step "Lookahead sweep: horizon matrix at 1 vs 4 threads, byte-identical CSVs"
    same_at_1_and_4_threads lookahead_bench --runs 2 --duration 10
    echo "lookahead sweep: outputs byte-for-byte identical"
}

stage_serve_smoke() {
    step "Serve smoke: 8 TCP clients over 4 multicast sessions on 2 shards, 200 slots, zero protocol errors"
    local serve_port=7015 metrics_port=9091
    cargo build --release -p cvr-serve --bins
    ./target/release/cvr-serve \
        --listen "127.0.0.1:$serve_port" --clients 8 --sessions 4 --shards 2 \
        --slots 200 --metrics-addr "127.0.0.1:$metrics_port" --multicast \
        --horizon 4 &
    SERVE_PID=$!
    ./target/release/cvr-client \
        --connect "127.0.0.1:$serve_port" --count 8 --slots 200 --seed 1 &
    CLIENT_PID=$!
    # All 8 connections are non-blocking and serviced from the client's
    # slot loop: the process must run on exactly one thread.
    if [ -r "/proc/$CLIENT_PID/status" ]; then
        sleep 0.5
        local threads
        threads="$(awk '/^Threads:/ { print $2 }' "/proc/$CLIENT_PID/status")"
        [ "$threads" = 1 ] \
            || { echo "serve smoke: cvr-client runs $threads threads, expected 1"; exit 1; }
        echo "serve smoke: cvr-client drives 8 connections on 1 thread"
    else
        echo "serve smoke: no /proc, thread count not checked"
    fi
    # Obs smoke: scrape the live exposition endpoint mid-run and require the
    # core metric families — including the per-shard session gauges of the
    # merged multi-session snapshot (retrying until the first publish) and,
    # since the host was booted with --horizon 4, the planner's prefetch
    # stage series.
    local scrape="" family
    for _ in $(seq 1 40); do
        scrape="$(curl -sf "http://127.0.0.1:$metrics_port/metrics" || true)"
        if printf '%s' "$scrape" | grep -q cvr_ticks_total; then break; fi
        sleep 0.25
    done
    for family in cvr_slot_stage_ns_bucket 'cvr_slot_stage_ns_bucket{stage="prefetch"' \
        cvr_tick_overruns_total cvr_session_clients cvr_ticks_total \
        cvr_session_joins_total cvr_mcast_groups cvr_lookahead_fov_overlap \
        cvr_sent_bits_total cvr_slot_budget_contended_total \
        'cvr_shard_sessions{shard="0"} 2' 'cvr_shard_sessions{shard="1"} 2'; do
        printf '%s' "$scrape" | grep -qF "$family" \
            || { echo "obs smoke: missing $family in scrape"; exit 1; }
    done
    echo "obs smoke: live /metrics scrape contains all required families"
    wait "$CLIENT_PID"
    CLIENT_PID=""
    wait "$SERVE_PID"
    SERVE_PID=""
    echo "serve smoke: server and all 8 clients exited cleanly"
}

stage_bench_gate() {
    step "Bench gate"
    # Runs every gated experiment and judges the documents it just built;
    # the artifacts land in target/bench/, not over the committed copies.
    bench gate --quick
}

stage_benchmark_build() {
    step "Benchmark crate builds against the public API, dependency graph frozen"
    # benchmark/ is its own workspace with its own lock file. This fails if
    # a refactor breaks the public API the benchmark drives, and --locked
    # fails if a cvr-* dependency edge (or crate) was added or removed.
    cargo build --release --offline --locked --manifest-path benchmark/Cargo.toml

    step "Benchmark traced smoke: lecture32_mcast_h4, 2 s"
    # Multicast + horizon 4 exercises the whole slot path (grouping,
    # staging, prefetch). The pass exits non-zero unless its untraced,
    # obs-traced and span-traced blocks delivered identical frames, another
    # seed delivered different ones, and no operation failed.
    bash benchmark/run.sh --workload lecture32_mcast_h4 --trace 1 --seconds 2

    step "Benchmark timed smokes: classroom8 and lecture32_mcast_h4, 2 s each"
    # The pass the driver judges PRs on, shortened: tracing off, every
    # sub-seed block repeated. Exits non-zero unless the repeats of a
    # sub-seed delivered identical frames and no operation failed.
    bash benchmark/run.sh --workload classroom8 --trace 0 --seconds 2
    bash benchmark/run.sh --workload lecture32_mcast_h4 --trace 0 --seconds 2

    step "Benchmark TCP smokes: tcp_duo timed and traced, 2 s each"
    # The one workload on the production datapath (readiness::Poller over
    # real sockets): the timed pass's repeat-identity check, then the
    # traced pass's layer-separation asserts.
    bash benchmark/run.sh --workload tcp_duo --trace 0 --seconds 2
    bash benchmark/run.sh --workload tcp_duo --trace 1 --seconds 2

    step "Benchmark fleet smokes: fleet64_paced timed and traced, 2 s each"
    # The one open loop (64 sessions paced at 15 ms on one shard over
    # impaired bonded links): the passes fail unless every operation
    # succeeded and, traced, link switches and degrade transitions happened.
    bash benchmark/run.sh --workload fleet64_paced --trace 0 --seconds 2
    bash benchmark/run.sh --workload fleet64_paced --trace 1 --seconds 2
}

# `./ci.sh pair <parent-rev> <workload> [pairs] [seed]`: the paired rule a
# PR is judged by. Exports the parent revision and the working tree under
# target/pair/, builds each side's benchmark, runs `pairs` (default 10)
# alternating 30 s timed passes — parent first on odd pairs, change first
# on even ones — appending each pass's result line to
# target/pair/{parent,change}-<workload>.jsonl (and its `fingerprint`
# lines to .fingerprints beside it), writes target/pair/<workload>.tsv
# (one row per pass, see pair_tsv), then judges the two series with
# `cvr-bench judge` and compares the fingerprint files: `equal` or
# `differ` (with the first differing line) for a closed-loop workload,
# `timing-dependent` for fleet64_paced. Run nothing else on the host
# meanwhile.
stage_pair() {
    if [ "$#" -lt 2 ]; then
        echo "usage: ./ci.sh pair <parent-rev> <workload> [pairs=10] [seed]" >&2
        exit 2
    fi
    local parent="$1" workload="$2" pairs="${3:-10}" seed="${4:-2022}"
    local dir="$PWD/target/pair" side i
    # Build outputs outlive the exports; the parent's are keyed by commit
    # because an archive's file times are its commit's, not the export's.
    local -A targets=([parent]="$dir/target-$(git rev-parse "$parent")" [change]="$dir/target-change")
    step "Pair: $parent vs the working tree on $workload, $pairs pairs"
    export_sides "$parent" "$dir"
    for side in parent change; do
        CARGO_TARGET_DIR="${targets[$side]}" cargo build --release --offline --locked \
            --manifest-path "$dir/$side/benchmark/Cargo.toml"
        : > "$dir/$side-$workload.jsonl"
        : > "$dir/$side-$workload.fingerprints"
    done
    pass() {
        local out
        echo "pair $i/$pairs: $1"
        # A failing pass still prints its result line; the judge reads it.
        out="$(CARGO_TARGET_DIR="${targets[$1]}" bash "$dir/$1/benchmark/run.sh" \
            --workload "$workload" --seed "$seed" --seconds 30 --trace 0 2>/dev/null)" || true
        printf '%s\n' "$out" | grep '^fingerprint' >> "$dir/$1-$workload.fingerprints" || true
        printf '%s\n' "$out" | tail -1 >> "$dir/$1-$workload.jsonl"
    }
    for i in $(seq 1 "$pairs"); do
        if [ $((i % 2)) = 1 ]; then pass parent; pass change; else pass change; pass parent; fi
    done
    pair_tsv "$workload" "$seed" "$dir/parent-$workload.jsonl" "$dir/change-$workload.jsonl" \
        > "$dir/$workload.tsv"
    local judged=0
    bench judge "$dir/parent-$workload.jsonl" "$dir/change-$workload.jsonl" || judged=$?
    # A closed-loop workload delivers the same frames for the same seed, so
    # its two fingerprint files must match byte for byte; the open loop's
    # frames follow the wall clock.
    set -- "$dir/parent-$workload.fingerprints" "$dir/change-$workload.fingerprints"
    if [ "$workload" = fleet64_paced ]; then
        echo "fingerprints: timing-dependent"
    elif cmp -s "$1" "$2"; then
        echo "fingerprints: equal"
    else
        echo "fingerprints: $(first_difference "$1" "$2")"
    fi
    return "$judged"
}

# `export_sides <parent-rev> <dir>`: the parent revision into <dir>/parent
# (git archive) and the working tree into <dir>/change — tracked and
# untracked-but-not-ignored files as they are on disk.
export_sides() {
    rm -rf "$2/parent" "$2/change"
    mkdir -p "$2/parent" "$2/change"
    git archive "$1" | tar -x -C "$2/parent"
    git ls-files -z --cached --others --exclude-standard \
        | tar --null -T - --ignore-failed-read -cf - 2>/dev/null \
        | tar -x -C "$2/change"
}

# `first_difference <parent-file> <change-file>`: "differ at line N" and
# both sides' line N, for two files that differ.
first_difference() {
    local line
    line="$(cmp "$1" "$2" 2>&1 | grep -o 'line [0-9]*' | grep -o '[0-9]*' || true)"
    echo "differ at line ${line:=1}"
    echo "  parent: $(sed -n "${line}p" "$1")"
    echo "  change: $(sed -n "${line}p" "$2")"
}

# `./ci.sh same-bytes <parent-rev> <experiment> [flags...]`: exports both
# sides as `pair` does, builds each side's cvr-bench into its own target
# dir, runs `cvr-bench <experiment> [flags...]` inside each export and
# compares the two stdouts, with each export's own path written as
# `<export>`, and every `target/bench/*.json` the run wrote: `bytes:
# equal (N lines, M documents)`, or `bytes: differ at line N` with both
# lines (or `bytes: <document> differs`) and exit 1.
stage_same_bytes() {
    if [ "$#" -lt 2 ]; then
        echo "usage: ./ci.sh same-bytes <parent-rev> <experiment> [flags...]" >&2
        exit 2
    fi
    local parent="$1" dir="$PWD/target/same-bytes" side
    shift
    local -A targets=([parent]="$dir/target-$(git rev-parse "$parent")" [change]="$dir/target-change")
    step "Same bytes: $parent vs the working tree on cvr-bench $*"
    export_sides "$parent" "$dir"
    for side in parent change; do
        CARGO_TARGET_DIR="${targets[$side]}" cargo build --release --offline --locked \
            -p cvr-bench --manifest-path "$dir/$side/Cargo.toml"
        (cd "$dir/$side" && "${targets[$side]}/release/cvr-bench" "$@") \
            | sed "s#$dir/$side#<export>#g" > "$dir/$side.out"
    done
    if ! cmp -s "$dir/parent.out" "$dir/change.out"; then
        echo "bytes: $(first_difference "$dir/parent.out" "$dir/change.out")"
        return 1
    fi
    local doc docs=0
    for doc in "$dir/change/target/bench/"*.json; do
        [ -e "$doc" ] || continue
        if ! cmp -s "$doc" "$dir/parent/target/bench/${doc##*/}"; then
            echo "bytes: ${doc##*/} differs"
            return 1
        fi
        docs=$((docs + 1))
    done
    echo "bytes: equal ($(wc -l < "$dir/change.out") lines, $docs documents)"
}

# `pair_tsv <workload> <seed> <parent.jsonl> <change.jsonl>`: the two
# series as one table, a row per pass, parent then change within a pair;
# `order` is 1 for the side that ran first (parent on odd pairs). Line i
# of each file is pair i.
pair_tsv() {
    awk -v workload="$1" -v seed="$2" -v parent="$3" '
        # The value after `"key": ` or `"key": {"value": `, as printed.
        function field(line, key,    s) {
            if (!match(line, "\"" key "\": (\\{\"value\": )?[^,}]*")) return ""
            s = substr(line, RSTART, RLENGTH)
            sub(/.*: /, "", s)
            return s
        }
        function row(line, pair, side, order,    m) {
            printf "%s\t%s\t%d\t%s\t%d\t%s\t%s", workload, seed, pair, side, order,
                field(line, "correct"), field(line, "failed")
            for (m = 1; m <= n; m++) printf "\t%s", field(line, metric[m])
            print ""
        }
        BEGIN {
            n = split("setup_s slots_per_s pose_to_frame_us_p50 pose_to_frame_us_p95 " \
                "slot_work_us_p50 slots_on_time_fraction displayed_quality_mean " \
                "qoe_per_slot_mean peak_rss_mb", metric, " ")
            printf "workload\tseed\tpair\tside\torder\tcorrect\tfailed"
            for (m = 1; m <= n; m++) printf "\t%s", metric[m]
            print ""
        }
        FILENAME == parent { parent_line[FNR] = $0; next }
        {
            first = FNR % 2 == 1
            row(parent_line[FNR], FNR, "parent", first ? 1 : 2)
            row($0, FNR, "change", first ? 2 : 1)
        }' "$3" "$4"
}

stage_loc() {
    step "Rust lines: non-test (above a file's first #[cfg(test)]) and all"
    loc_table
}

# The one agreed count for ROADMAP's "fewer lines at the end of the round"
# target, each PR's CHANGES entry and the `test` stage's ceilings.
# Non-test lines are counted in crates/*/src and src only; tests/,
# benches/ and examples/ directories add to the second column alone.
# The vendored dependency stand-ins under shims/ get their own row after
# the total and stay out of it, so the ceilings keep their meaning.
loc_table() {
    { find crates src tests examples -name '*.rs' | sort; find shims -name '*.rs' | sort; } | xargs awk '
        FNR == 1 {
            in_tests = 0
            split(FILENAME, part, "/")
            group = part[1] == "crates" ? "crates/" part[2] : part[1]
            counts = part[1] == "src" || ((part[1] == "crates" || part[1] == "shims") && part[3] == "src")
            if (!(group in all)) { order[++groups] = group; non_test[group] = 0 }
        }
        /^[ \t]*#\[cfg\(test\)\]/ { in_tests = 1 }
        { all[group]++; if (counts && !in_tests) non_test[group]++ }
        END {
            printf "%-18s %9s %9s\n", "", "non-test", "all"
            for (g = 1; g <= groups; g++) {
                group = order[g]
                if (group == "shims") continue
                printf "%-18s %9d %9d\n", group, non_test[group], all[group]
                sum_non_test += non_test[group]; sum_all += all[group]
            }
            printf "%-18s %9d %9d\n", "total", sum_non_test, sum_all
            printf "%-18s %9d %9d\n", "shims (not total)", non_test["shims"], all["shims"]
        }'
}

run_stage() {
    case "$1" in
        test) stage_test ;;
        determinism) stage_determinism ;;
        net-scenarios) stage_net_scenarios ;;
        serve-smoke) stage_serve_smoke ;;
        bench-gate) stage_bench_gate ;;
        benchmark-build) stage_benchmark_build ;;
        loc) stage_loc ;;
        *)
            echo "unknown stage '$1' (stages: ${STAGES[*]} loc; or 'quick', or nothing for all)" >&2
            exit 2
            ;;
    esac
}

if [ "${1:-}" = "pair" ]; then
    shift
    stage_pair "$@"
    exit
fi
if [ "${1:-}" = "same-bytes" ]; then
    shift
    stage_same_bytes "$@"
    exit
fi
if [ "$#" -eq 0 ]; then
    set -- "${STAGES[@]}"
elif [ "$1" = "quick" ]; then
    INCLUDE_IGNORED=0
    set -- "${STAGES[@]}"
fi
for stage in "$@"; do
    run_stage "$stage"
done

step "CI passed: $*"
