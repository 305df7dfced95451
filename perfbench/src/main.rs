//! The repository benchmark: one workload per process run.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads (see README.md for why each exists):
//! * `replay_paper` — `simulate` under self-tuning dynP at the paper's
//!   operating point (median waiting queue near 25 jobs);
//! * `replay_deep` — the same replay with queues in the hundreds;
//! * `exact_table1` — the Table 1 pipeline: dynP snapshots solved
//!   exactly under a node budget;
//! * `serve_http` — a live `ServeServer` under an open-loop request mix,
//!   then a closed-loop burst.
//!
//! With `--trace 0` the last stdout line carries the end-to-end metrics,
//! measured with no benchmark instrumentation inside the timed calls.
//! With `--trace 1` the run also rebuilds each workload's pipeline from
//! its crates' public parts, times every part, checks that the rebuilt
//! pipeline reproduces the library's results exactly, and prints the
//! per-layer metrics plus a ledger whose residual must stay within
//! [`ledger::RESIDUAL_BOUND_PCT`]. The run record (core counts, revision,
//! clock, seed, recorder) goes to stderr.

mod exact;
mod ledger;
mod replay;
mod serve;
mod stats;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Workload names, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 4] = ["replay_paper", "replay_deep", "exact_table1", "serve_http"];

/// End-to-end metrics every workload reports with `--trace 0`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ok_share", "ok/attempted"),
    ("ops_per_s", "op/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
];

/// Per-layer metrics every traced run reports. A layer the workload
/// never enters reads 0.
pub const PER_LAYER: [(&str, &str); 56] = [
    // Tracing itself.
    ("trace.residual_pct", "%"),
    ("trace.overhead_pct", "%"),
    // dynP step, replay workloads (per self-tuning step).
    ("platform.profile_us", "us"),
    ("sched.order_us", "us"),
    ("sched.plan_us", "us"),
    ("sched.eval_us", "us"),
    ("dynp.decide_us", "us"),
    ("dynp.step_us", "us"),
    ("dynp.step_overhead_us", "us"),
    ("dynp.steps", "count"),
    ("dynp.switches", "count"),
    ("queue.depth_p50", "jobs"),
    ("queue.depth_p99", "jobs"),
    ("sched.jobs_placed", "count"),
    ("sim.self_s", "s"),
    ("sim.replays", "count"),
    // Exact pipeline (per snapshot unless a count or ratio).
    ("exact.sample_s", "s"),
    ("exact.snapshots", "count"),
    ("sched.policy_plan_ms", "ms"),
    ("milp.build_ms", "ms"),
    ("milp.root_lp_ms", "ms"),
    ("milp.search_ms", "ms"),
    ("milp.compact_ms", "ms"),
    ("milp.hook.crash_ms", "ms"),
    ("milp.hook.branch_ms", "ms"),
    ("milp.hook.heuristic_ms", "ms"),
    ("milp.node_lp_ms", "ms"),
    ("milp.nodes", "count"),
    ("milp.lp_iterations", "count"),
    ("milp.iters_per_lp", "count"),
    ("milp.warm_lps", "count"),
    ("milp.cold_lps", "count"),
    ("milp.warm_ratio", "ratio"),
    ("milp.heuristic_hit_ratio", "ratio"),
    ("milp.rows_p50", "count"),
    ("milp.cols_p50", "count"),
    ("milp.dense_inverse_mb", "MiB"),
    ("milp.gap_pct", "%"),
    ("milp.loss_pct", "%"),
    // Serving path (per request or batch unless a count).
    ("serve.api.parse_us", "us"),
    ("serve.core.batch_us", "us"),
    ("serve.core.read_us", "us"),
    ("serve.server.submit_ms", "ms"),
    ("serve.queue_ms", "ms"),
    ("watch.http_ms", "ms"),
    ("serve.batches", "count"),
    ("serve.jobs_per_batch", "jobs"),
    ("serve.rejected_429", "count"),
    ("serve.rejected_503", "count"),
    ("obs.batch_overhead_pct", "%"),
    ("gen.late_p99_ms", "ms"),
    ("serve.submit_p50_ms", "ms"),
    ("serve.submit_tail_ms", "ms"),
    ("serve.read_p50_ms", "ms"),
    ("serve.read_tail_ms", "ms"),
    ("serve.burst_jobs_per_s", "jobs/s"),
];

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Args {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Input seed: the same seed always generates the same inputs.
    pub seed: u64,
    /// Measurement budget of the run.
    pub seconds: Duration,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// What one workload run hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations tried and failed, for `attempted`/`failed`/`ok_share`.
    pub attempted: u64,
    /// Failed operations (declined jobs, solve errors, non-200s).
    pub failed: u64,
    /// Failed output checks; empty means correct.
    pub check_failures: Vec<String>,
    /// Metric values by name; units come from the tables above.
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Records a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Records an output check; a false `ok` makes the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        if !ok {
            self.check_failures.push(what.into());
        }
    }
}

/// Median of `reps` timed runs of `setup`, plus the last value built.
pub fn timed_setup<T>(reps: usize, mut setup: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        let value = setup();
        times.push(t.elapsed().as_secs_f64());
        last = Some(value);
    }
    eprintln!(
        "setup: {:?} s, median {:.4} s",
        times
            .iter()
            .map(|t| (t * 1e4).round() / 1e4)
            .collect::<Vec<_>>(),
        stats::median(&times)
    );
    (stats::median(&times), last.expect("at least one setup"))
}

/// CPUs this process may run on, as `nproc` counts them
/// (`Cpus_allowed_list` of `/proc/self/status`, e.g. `0-1,4`).
fn nproc() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
    list.trim()
        .split(',')
        .map(|range| match range.split_once('-') {
            Some((lo, hi)) => Some(hi.parse::<usize>().ok()? + 1 - lo.parse::<usize>().ok()?),
            None => range.parse::<usize>().ok().map(|_| 1),
        })
        .sum()
}

/// A point in time from which to measure the share of CPU time the
/// hypervisor gave to other guests ("steal").
#[derive(Clone, Copy, Debug)]
pub struct StealMark(Option<(u64, u64)>);

impl StealMark {
    /// Marks now.
    pub fn now() -> StealMark {
        StealMark(host_cpu_ticks())
    }

    /// Percent of the VM's CPU time stolen since the mark; 0 where
    /// `/proc/stat` is unreadable.
    pub fn stolen_pct(self) -> f64 {
        match (self.0, host_cpu_ticks()) {
            (Some((steal0, all0)), Some((steal1, all1))) => {
                100.0 * (steal1 - steal0) as f64 / (all1 - all0).max(1) as f64
            }
            _ => 0.0,
        }
    }
}

/// `(steal, total)` CPU ticks of the host so far, from `/proc/stat`.
fn host_cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .filter_map(|t| t.parse().ok())
        .collect();
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// Peak resident set size of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The revision of the checkout, read from `.git` in the working
/// directory when there is one (never from a parent directory).
fn revision() -> String {
    let Ok(head) = std::fs::read_to_string(".git/HEAD") else {
        return "unknown (no .git in the working directory)".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(String::from))
        })
        .unwrap_or_else(|| format!("unknown ({reference})"))
}

fn print_record(args: &Args) {
    let nproc = nproc().map_or("unknown".to_string(), |n| n.to_string());
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    eprintln!(
        "record: workload {} seed {} seconds {} trace {} | nproc {nproc} available_parallelism {parallelism} | rev {} | clock std::time::Instant (CLOCK_MONOTONIC) | recorder {}",
        args.workload,
        args.seed,
        args.seconds.as_secs_f64(),
        u8::from(args.trace),
        revision(),
        if args.workload == "serve_http" {
            "ring(4096) + flight recorder, as `serve --listen` installs"
        } else {
            "none installed"
        }
    );
}

fn result_line(correct: bool, outcome: &Outcome, table: &[(&str, &str)]) -> String {
    let metrics: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            let value = outcome.metrics.get(name).copied().unwrap_or(0.0);
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

/// Full-precision JSON number (non-finite values become 0 and are
/// reported as a check failure by the caller).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".into()
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    print_record(&args);
    let run_mark = StealMark::now();
    let result = match args.workload.as_str() {
        "replay_paper" => replay::run(&args, replay::Depth::Paper),
        "replay_deep" => replay::run(&args, replay::Depth::Deep),
        "exact_table1" => exact::run(&args),
        "serve_http" => serve::run(&args),
        _ => unreachable!("workload validated by parse_args"),
    };
    let mut outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} cannot report: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    let ok_share = if outcome.attempted == 0 {
        0.0
    } else {
        1.0 - outcome.failed as f64 / outcome.attempted as f64
    };
    outcome.check(outcome.attempted > 0, "no operation was attempted");
    outcome.set("ok_share", ok_share);
    match peak_rss_mb() {
        Some(mb) => outcome.set("peak_rss_mb", mb),
        None => outcome.check(false, "peak RSS unreadable from /proc/self/status"),
    }
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for (name, _) in table {
        let known = outcome.metrics.get(name).copied();
        match known {
            Some(v) => outcome.check(v.is_finite(), format!("{name} is not finite")),
            None if args.trace => {}
            None => outcome.check(false, format!("{name} was not measured")),
        }
    }
    for name in outcome.metrics.keys() {
        let listed = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .any(|(n, _)| n == name);
        assert!(listed, "metric {name} is in neither table");
    }
    for failure in &outcome.check_failures {
        eprintln!("check FAILED: {failure}");
    }
    // Runs with a large stolen share read slow for reasons outside the
    // program.
    eprintln!(
        "host: {:.1}% of CPU time stolen by the hypervisor during the run",
        run_mark.stolen_pct()
    );
    let correct = outcome.check_failures.is_empty();
    eprintln!(
        "result: {} attempted, {} failed, output checks {}",
        outcome.attempted,
        outcome.failed,
        if correct { "passed" } else { "FAILED" }
    );
    println!("{}", result_line(correct, &outcome, table));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&argv(
            "--workload replay_deep --seed 7 --seconds 12 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, "replay_deep");
        assert_eq!(a.seed, 7);
        assert_eq!(a.seconds, Duration::from_secs(12));
        assert!(a.trace);
        assert!(parse_args(&argv("--workload nope --seed 1 --seconds 1")).is_err());
        assert!(parse_args(&argv("--workload serve_http --seconds 1")).is_err());
        assert!(parse_args(&argv(
            "--workload serve_http --seed 1 --seconds 1 --trace 2"
        ))
        .is_err());
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(n, _)| *n)
            .collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "duplicate metric name");
        for n in names {
            assert!(n.len() <= 64 && n.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
        }
    }

    /// `BENCHMARK.json` and the tables above name the same metrics with
    /// the same units, in the same order.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let json = dynp_obs::parse_json(&text).expect("BENCHMARK.json is JSON");
        let listed = |key: &str| -> Vec<(String, String)> {
            json.get(key)
                .and_then(|v| v.as_array())
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| {
                        m.get(f)
                            .and_then(|v| v.as_str())
                            .expect("name and unit")
                            .to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let table = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), table(&END_TO_END));
        assert_eq!(listed("per_layer"), table(&PER_LAYER));
        let workloads: Vec<String> = json
            .get("workloads")
            .and_then(|v| v.as_array())
            .expect("workload list")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(|v| v.as_str())
                    .expect("name")
                    .to_string()
            })
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn result_line_lists_every_metric_of_the_table() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.set("setup_s", 0.25);
        let line = result_line(true, &o, &END_TO_END);
        let parsed = dynp_obs::parse_json(&line).expect("result line is JSON");
        let metrics = parsed.get("metrics").unwrap().as_object().unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        assert!(line.contains("\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}"));
    }
}
