//! The bench gate: one check function per gated experiment, each judging
//! the `BENCH_*.json` document that experiment builds. The floors are the
//! constants below; DESIGN.md §4 tabulates what each check holds.
//!
//! Two things are deliberately not judged here. The parallel speedup
//! floors apply only to a paper-scale `scale` document recorded on a host
//! with `available_parallelism` ≥ 4: on fewer cores, or on a scaled-down
//! run of 2 sessions × 0.6 s, the wall-clock ratio is scheduler noise, so
//! it is printed and determinism alone is enforced. And the speed of the
//! slot hot path and the live server's deadlines are judged
//! parent-vs-change by `benchmark/`.

use cvr_bench::json::Json;

use crate::experiments::scale::{PAPER_DURATION_S, PAPER_SESSIONS};

const MIN_PARALLEL_SPEEDUP: f64 = 1.5;
const MIN_PARALLEL_CORES: usize = 4;
const MIN_PARALLEL_EFFICIENCY: f64 = 0.6;
const MAX_OBS_OVERHEAD_PCT: f64 = 2.0;
const NET_PATHOLOGIES: [&str; 5] = [
    "markov-fading",
    "blockage",
    "handover",
    "bufferbloat",
    "flash-crowd",
];
const NET_BASELINES: [&str; 2] = ["firefly", "pavq"];
const MIN_NET_WINS: usize = 4;
const MIN_MCAST_GAIN: f64 = 1.2;
const MIN_MCAST_GAIN_USERS: usize = 32;
const MIN_LOOKAHEAD_WINS: usize = 3;

/// The running verdict on one artifact.
#[derive(Default)]
pub struct Gate {
    pub checks: usize,
    pub failures: Vec<String>,
}

impl Gate {
    fn check(&mut self, ok: bool, message: String) {
        self.checks += 1;
        if ok {
            println!("ok   {message}");
        } else {
            println!("FAIL {message}");
            self.failures.push(message);
        }
    }
}

/// A check function: judges one artifact document.
pub type Check = fn(&mut Gate, &Json);

// Field readers that turn a missing or mistyped field into a value that
// fails its check (NaN, false, an empty list) instead of a panic.

fn num(v: &Json, key: &str) -> f64 {
    v.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN)
}

fn count(v: &Json, key: &str) -> usize {
    v.get(key).and_then(Json::as_f64).unwrap_or(0.0) as usize
}

fn flag(v: &Json, key: &str) -> bool {
    v.get(key).and_then(Json::as_bool).unwrap_or(false)
}

fn text<'a>(v: &'a Json, key: &str) -> &'a str {
    v.get(key).and_then(Json::as_str).unwrap_or("missing")
}

fn list<'a>(v: &'a Json, key: &str) -> &'a [Json] {
    v.get(key).and_then(Json::as_array).unwrap_or(&[])
}

fn check_fingerprints(gate: &mut Gate, what: &str, v: &Json) {
    let (main, check) = (text(v, "fingerprint_main"), text(v, "fingerprint_check"));
    gate.check(
        main != "missing" && main == check,
        format!("{what}: fingerprints match ({main} vs {check})"),
    );
}

pub fn check_parallel(gate: &mut Gate, doc: &Json) {
    let available = count(doc, "available_parallelism");
    gate.check(
        flag(doc, "deterministic"),
        "parallel: all thread counts bit-identical to the 1-thread baseline".to_string(),
    );
    let entries = list(doc, "entries");
    gate.check(
        !entries.is_empty(),
        "parallel: at least one sweep point".to_string(),
    );
    for entry in entries {
        gate.check(
            flag(entry, "identical"),
            format!(
                "parallel {} @ {} threads: results identical",
                text(entry, "setup"),
                count(entry, "threads")
            ),
        );
    }

    // The floors mean something only with cores to spread onto and enough
    // work per session to outweigh thread start-up.
    let judged = available >= MIN_PARALLEL_CORES
        && count(doc, "sessions") >= PAPER_SESSIONS
        && num(doc, "duration_s") >= PAPER_DURATION_S;
    if !judged {
        println!(
            "parallel speedup/efficiency recorded, not judged: needs \
             available_parallelism >= {MIN_PARALLEL_CORES} (document: {available}) and a \
             paper-scale run ({PAPER_SESSIONS} sessions x {PAPER_DURATION_S} s)"
        );
    }

    // Report the largest thread count that fits the host — oversubscribed
    // points (threads > cores) legitimately lose efficiency.
    for setup in ["setup1", "setup2"] {
        let best = entries
            .iter()
            .filter(|e| text(e, "setup") == setup && count(e, "threads") <= available)
            .max_by_key(|e| count(e, "threads"));
        let Some(entry) = best else {
            gate.check(false, format!("parallel {setup}: no in-budget sweep point"));
            continue;
        };
        let threads = count(entry, "threads");
        let speedup = num(entry, "speedup");
        let efficiency = num(entry, "efficiency");
        if !judged {
            println!(
                "     parallel {setup} @ {threads} threads: speedup {speedup:.2}x, \
                 efficiency {efficiency:.2}"
            );
            continue;
        }
        gate.check(
            speedup >= MIN_PARALLEL_SPEEDUP,
            format!(
                "parallel {setup} @ {threads} threads: speedup {speedup:.2}x >= {MIN_PARALLEL_SPEEDUP}x"
            ),
        );
        gate.check(
            efficiency >= MIN_PARALLEL_EFFICIENCY,
            format!(
                "parallel {setup} @ {threads} threads: efficiency {efficiency:.2} >= {MIN_PARALLEL_EFFICIENCY}"
            ),
        );
    }
}

pub fn check_obs(gate: &mut Gate, doc: &Json) {
    let entries = list(doc, "entries");
    gate.check(!entries.is_empty(), "obs: at least one setup".to_string());
    for entry in entries {
        let name = text(entry, "name");
        let overhead = num(entry, "overhead_pct").max(0.0);
        gate.check(
            overhead <= MAX_OBS_OVERHEAD_PCT,
            format!("obs {name}: overhead {overhead:.3}% <= {MAX_OBS_OVERHEAD_PCT}%"),
        );
        gate.check(
            flag(entry, "assignments_identical"),
            format!("obs {name}: instrumented solver output identical"),
        );
        gate.check(
            count(entry, "observations") > 0,
            format!("obs {name}: the instrumented mode actually recorded observations"),
        );
    }
}

pub fn check_net(gate: &mut Gate, doc: &Json) {
    gate.check(
        flag(doc, "deterministic"),
        "net: scenario matrix bit-identical across thread counts".to_string(),
    );
    check_fingerprints(gate, "net", doc);
    let rows = list(doc, "rows");
    let qoe_of = |pathology: &str, algorithm: &str| {
        rows.iter()
            .find(|r| text(r, "pathology") == pathology && text(r, "algorithm") == algorithm)
            .map(|r| num(r, "qoe"))
    };
    let mut wins = [0usize; NET_BASELINES.len()];
    for pathology in NET_PATHOLOGIES {
        let ours = qoe_of(pathology, "ours");
        gate.check(
            ours.is_some(),
            format!("net: pathology `{pathology}` present in the matrix with `ours`"),
        );
        for (baseline, won) in NET_BASELINES.iter().zip(&mut wins) {
            match (ours, qoe_of(pathology, baseline)) {
                (Some(ours), Some(other)) => *won += (ours >= other) as usize,
                (Some(_), None) => {
                    gate.check(false, format!("net {pathology}: `{baseline}` QoE present"))
                }
                (None, _) => {}
            }
        }
    }
    for (baseline, won) in NET_BASELINES.iter().zip(wins) {
        gate.check(
            won >= MIN_NET_WINS,
            format!(
                "net: ours QoE >= {baseline} on {won}/{} pathologies (need >= {MIN_NET_WINS})",
                NET_PATHOLOGIES.len()
            ),
        );
    }
}

pub fn check_mcast(gate: &mut Gate, doc: &Json) {
    gate.check(
        flag(doc, "deterministic"),
        "mcast: classroom bit-identical across repeated runs".to_string(),
    );
    gate.check(
        flag(doc, "singleton_parity"),
        "mcast: one-member groups bit-identical to the unicast path".to_string(),
    );
    let rows = list(doc, "rows");
    gate.check(
        !rows.is_empty(),
        "mcast: at least one classroom size".to_string(),
    );
    let mut saw_crowded = false;
    for row in rows {
        let users = count(row, "users");
        check_fingerprints(gate, &format!("mcast @ {users} users"), row);
        if users < MIN_MCAST_GAIN_USERS {
            continue;
        }
        saw_crowded = true;
        let gain = num(row, "gain");
        let uni_wire = num(row, "unicast_wire_mbit");
        let multi_wire = num(row, "multicast_wire_mbit");
        gate.check(
            gain >= MIN_MCAST_GAIN,
            format!(
                "mcast @ {users} users: delivered-quality gain {gain:.3}x >= {MIN_MCAST_GAIN}x"
            ),
        );
        gate.check(
            multi_wire < uni_wire,
            format!(
                "mcast @ {users} users: wire {multi_wire:.1} Mbit < unicast {uni_wire:.1} Mbit"
            ),
        );
        gate.check(
            count(row, "peak_groups") >= 1,
            format!("mcast @ {users} users: multicast groups actually formed"),
        );
    }
    gate.check(
        saw_crowded,
        format!("mcast: sweep reaches >= {MIN_MCAST_GAIN_USERS} co-located users"),
    );
}

pub fn check_lookahead(gate: &mut Gate, doc: &Json) {
    gate.check(
        flag(doc, "deterministic"),
        "lookahead: horizon sweep bit-identical across thread counts".to_string(),
    );
    check_fingerprints(gate, "lookahead", doc);
    gate.check(
        flag(doc, "h1_equals_myopic"),
        "lookahead: H = 1 column bit-identical to the horizonless config".to_string(),
    );
    let rows = list(doc, "rows");
    for pathology in NET_PATHOLOGIES {
        let of_pathology = || rows.iter().filter(|r| text(r, "pathology") == pathology);
        gate.check(
            of_pathology().any(|r| text(r, "horizon") == "myopic"),
            format!("lookahead: pathology `{pathology}` present in the sweep"),
        );
        gate.check(
            of_pathology().filter(|r| count(r, "horizon") > 1).count() >= 1,
            format!("lookahead {pathology}: sweep covers a horizon beyond myopic"),
        );
    }
    let won = |key: &str| list(doc, "wins").iter().filter(|w| flag(w, key)).count();
    let (qoe_wins, variance_wins) = (won("qoe_win"), won("variance_win"));
    gate.check(
        qoe_wins >= MIN_LOOKAHEAD_WINS,
        format!(
            "lookahead: best horizon QoE >= myopic on {qoe_wins}/{} pathologies \
             (need >= {MIN_LOOKAHEAD_WINS})",
            NET_PATHOLOGIES.len()
        ),
    );
    gate.check(
        variance_wins >= MIN_LOOKAHEAD_WINS,
        format!(
            "lookahead: QoE win with no higher quality variance on {variance_wins}/{} \
             pathologies (need >= {MIN_LOOKAHEAD_WINS})",
            NET_PATHOLOGIES.len()
        ),
    );
}
