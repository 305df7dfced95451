//! `milp_par` — warm-started node LPs and deterministic parallel search
//! for the exact solver (DESIGN.md §14), on one §3.1 time-indexed
//! instance.
//!
//! Two measurements, one committed summary (`BENCH_milp.json`):
//!
//! 1. **Cold vs warm LP path.** Solve the root LP, then re-solve every
//!    branching child of the root twice: once the way the serial solver
//!    used to (crash basis + primal phase 2 from scratch) and once on the
//!    warm path (re-install the parent's optimal basis, dual-simplex
//!    repair). Both reach the same optimum; the time ratio is the
//!    per-node speedup warm starts buy. On the full-size instance
//!    (>= 1000 jobs) the run *asserts* the ratio is at least 1.5x.
//! 2. **Worker sweep.** Run the full branch & bound at each requested
//!    `solver_workers` count and render every [`MipSolution`] through
//!    [`MipSolution::canonical_json`]. The renders are written to
//!    `results/milp_par.solution.w<k>.json` and *asserted byte-identical*
//!    — the solver's determinism contract — before wall-clock speedups
//!    are reported.
//!
//! Usage: `milp_par [jobs] [node_budget] [workers-list]`, defaults
//! `1000 48 1,2,4`. CI runs a small smoke (`120 16 1,2` — the smallest
//! size with a fractional root, so branching and warm starts are really
//! exercised) and diffs the two solution renders byte-for-byte.

use dynp_bench::{busy_snapshot, cli_args_and_watch, start_watch, Report};
use dynp_milp::{
    solve_lp_warm, solve_lp_with_start, BranchBound, BranchLimits, LpOutcome, MipSolution,
    TimeIndexedModel, TimeScaling,
};
use dynp_obs::JsonValue;
use dynp_sched::{plan, Policy};
use std::time::Instant;

/// Per-LP iteration budget; far above anything these instances need.
const MAX_ITERS: usize = 200_000;
/// Machine size of the benchmark snapshot.
const MACHINE_NODES: u32 = 256;
/// Target slot count: the time scale is chosen so the horizon maps to
/// about this many slots, keeping LP rows (jobs + slots) comparable
/// across queue depths.
const TARGET_SLOTS: u64 = 160;

fn validate_or_die(what: &str, json: &str) {
    if let Err(e) = dynp_obs::json::validate(json) {
        eprintln!("{what}: invalid JSON produced: {e}");
        std::process::exit(1);
    }
}

/// One child of the root node: full bound vectors after the branching
/// bound changes.
type ChildBounds = (Vec<f64>, Vec<f64>);

/// The branching children the solver itself would generate at the root:
/// the SOS split plus 0/1 fixings of the three most fractional variables.
fn root_children(ti: &TimeIndexedModel, root: &dynp_milp::LpSolution) -> Vec<ChildBounds> {
    let model = &ti.model;
    let mut children = Vec::new();
    if let Some((a, b)) = ti.sos_branch(root) {
        for set in [a, b] {
            let mut lower = model.lower.clone();
            let mut upper = model.upper.clone();
            for (v, lo, up) in set {
                lower[v] = lo;
                upper[v] = up;
            }
            children.push((lower, upper));
        }
    }
    let mut frac: Vec<(f64, usize)> = root
        .x
        .iter()
        .take(model.num_vars())
        .enumerate()
        .filter(|&(_, &xv)| xv > 1e-6 && xv < 1.0 - 1e-6)
        .map(|(v, &xv)| ((xv - 0.5).abs(), v))
        .collect();
    frac.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    for &(_, v) in frac.iter().take(3) {
        for fix_up in [false, true] {
            let mut lower = model.lower.clone();
            let mut upper = model.upper.clone();
            if fix_up {
                lower[v] = 1.0;
            } else {
                upper[v] = 0.0;
            }
            children.push((lower, upper));
        }
    }
    children
}

fn main() {
    let (args, watch_addr) = cli_args_and_watch();
    let mut args = args.into_iter();
    let jobs: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(1000);
    let node_budget: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(48);
    let workers: Vec<usize> = args
        .next()
        .unwrap_or_else(|| "1,2,4".into())
        .split(',')
        .map(|w| w.trim().parse().expect("workers list: comma-separated usize"))
        .collect();
    assert!(!workers.is_empty(), "workers list must not be empty");

    let mut report = Report::new("milp_par");
    let _watch = start_watch(watch_addr.as_deref());

    // The instance: a busy mid-run snapshot (same shape as the §3 planner
    // timings), horizon from the worst policy makespan per §3.1, and a
    // fixed time scale targeting TARGET_SLOTS slots.
    let problem = busy_snapshot(jobs, MACHINE_NODES, 2004);
    let horizon_end = [Policy::Fcfs, Policy::Sjf, Policy::Ljf]
        .into_iter()
        .filter_map(|p| plan(&problem, p).ok())
        .filter_map(|s| s.makespan_end())
        .max()
        .unwrap_or(problem.now + 3600);
    let span = horizon_end.saturating_sub(problem.now).max(1);
    let scale = span.div_ceil(TARGET_SLOTS).div_ceil(60).max(1) * 60;
    let ti = TimeIndexedModel::build(&problem, TimeScaling::fixed(scale), horizon_end);
    let model = &ti.model;
    let rows = ti.job_ids.len() + ti.horizon_slots;
    report.line(format!(
        "instance: {jobs} waiting jobs on {MACHINE_NODES} nodes, scale {scale} s, \
         {} slots, {} vars x {rows} rows",
        ti.horizon_slots,
        model.num_vars(),
    ));

    // -- Part 1: cold vs warm LP path on the root's children. ------------
    let t = Instant::now();
    let crash = ti.crash_start(&model.lower, &model.upper);
    let LpOutcome::Optimal(root) =
        solve_lp_with_start(model, &model.lower, &model.upper, crash.as_ref(), MAX_ITERS)
    else {
        panic!("root LP of the benchmark instance did not solve");
    };
    let root_seconds = t.elapsed().as_secs_f64();
    let basis = root.basis.clone().expect("optimal LP carries a basis");
    report.line(format!(
        "root LP: {} iterations in {root_seconds:.3} s, objective {:.1}; \
         {} factorizations ({:.3} s), {} pivots, {} factor + eta non-zeros",
        root.iterations,
        root.objective,
        root.stats.refactors,
        root.stats.refactor_time.as_secs_f64(),
        root.stats.pivots,
        root.stats.lu_nnz,
    ));

    let children = root_children(&ti, &root);
    let mut cold_seconds = 0.0;
    let mut cold_iterations = 0usize;
    let mut cold_objs: Vec<Option<f64>> = Vec::new();
    for (lower, upper) in &children {
        let t = Instant::now();
        let start = ti.crash_start(lower, upper);
        let out = solve_lp_with_start(model, lower, upper, start.as_ref(), MAX_ITERS);
        cold_seconds += t.elapsed().as_secs_f64();
        cold_objs.push(match out {
            LpOutcome::Optimal(sol) => {
                cold_iterations += sol.iterations;
                Some(sol.objective)
            }
            _ => None,
        });
    }
    let mut warm_seconds = 0.0;
    let mut warm_iterations = 0usize;
    let mut warm_hits = 0usize;
    for ((lower, upper), cold_obj) in children.iter().zip(&cold_objs) {
        let t = Instant::now();
        let (out, used) = solve_lp_warm(model, lower, upper, &basis, MAX_ITERS);
        warm_seconds += t.elapsed().as_secs_f64();
        warm_hits += used as usize;
        if let LpOutcome::Optimal(sol) = out {
            warm_iterations += sol.iterations;
            if let Some(cold) = cold_obj {
                let tol = 1e-5 * cold.abs().max(1.0);
                assert!(
                    (sol.objective - cold).abs() <= tol,
                    "warm child optimum {} disagrees with cold {cold}",
                    sol.objective
                );
            }
        }
    }
    let warm_speedup = if children.is_empty() {
        1.0
    } else {
        cold_seconds / warm_seconds.max(1e-9)
    };
    report.line(format!(
        "cold vs warm on {} child LPs: cold {cold_iterations} iters / {cold_seconds:.3} s, \
         warm {warm_iterations} iters / {warm_seconds:.3} s ({warm_hits} warm hits) \
         -> {warm_speedup:.2}x",
        children.len()
    ));
    if jobs >= 1000 && !children.is_empty() {
        assert!(
            warm_speedup >= 1.5,
            "warm starts must be >= 1.5x faster than the cold LP path on the \
             full-size instance, measured {warm_speedup:.2}x"
        );
    }

    // -- Part 2: deterministic worker sweep. -----------------------------
    let _ = std::fs::create_dir_all("results");
    let mut runs: Vec<(usize, f64, String, MipSolution)> = Vec::new();
    for &k in &workers {
        let limits = BranchLimits {
            max_nodes: node_budget,
            solver_workers: k,
            ..BranchLimits::default()
        };
        let ti_ref = &ti;
        let t = Instant::now();
        let sol = BranchBound::new(model, limits)
            .with_heuristic(Box::new(move |_, lp| ti_ref.rounding_heuristic(lp)))
            .with_crash(Box::new(move |lower, upper| ti_ref.crash_start(lower, upper)))
            .with_brancher(Box::new(move |_, lp| ti_ref.sos_branch(lp)))
            .solve();
        let seconds = t.elapsed().as_secs_f64();
        let render = sol.canonical_json().to_json_pretty();
        let path = format!("results/milp_par.solution.w{k}.json");
        std::fs::write(&path, &render).expect("write solution render");
        report.line(format!(
            "workers {k}: {:?} in {seconds:.3} s, {} nodes, {} LP iterations, \
             {} warm / {} cold LPs, {} factorizations ({:.3} s) -> {path}",
            sol.status,
            sol.nodes,
            sol.lp_iterations,
            sol.warm_lps,
            sol.cold_lps,
            sol.lp_stats.refactors,
            sol.lp_stats.refactor_time.as_secs_f64(),
        ));
        runs.push((k, seconds, render, sol));
    }
    let (k0, base_seconds, base_render, _) = &runs[0];
    for (k, _, render, _) in &runs[1..] {
        assert!(
            render == base_render,
            "MipSolution diverged between {k0} and {k} workers — determinism broken"
        );
    }
    report.line(format!(
        "byte-identical MipSolution across worker counts {workers:?}: OK"
    ));

    // -- Committed summary. ----------------------------------------------
    let mut sweep = JsonValue::array();
    for (k, seconds, _, sol) in &runs {
        sweep.push(
            JsonValue::object()
                .with("workers", *k)
                .with("seconds", *seconds)
                .with("speedup_vs_first", *base_seconds / (*seconds).max(1e-9))
                .with("status", format!("{:?}", sol.status))
                .with("nodes", sol.nodes)
                .with("lp_iterations", sol.lp_iterations)
                .with("warm_lps", sol.warm_lps)
                .with("cold_lps", sol.cold_lps)
                .with("refactors", sol.lp_stats.refactors)
                .with("refactor_seconds", sol.lp_stats.refactor_time.as_secs_f64())
                .with("pivots", sol.lp_stats.pivots)
                .with("lu_nnz", sol.lp_stats.lu_nnz),
        );
    }
    let summary = JsonValue::object()
        .with("bench", "milp_par")
        .with("jobs", jobs)
        .with("machine_nodes", MACHINE_NODES)
        .with("node_budget", node_budget)
        .with("time_scale", scale)
        .with("horizon_slots", ti.horizon_slots)
        .with("num_variables", model.num_vars())
        .with("num_constraints", rows)
        .with(
            "warm_vs_cold",
            JsonValue::object()
                .with("child_lps", children.len())
                .with("root_lp_seconds", root_seconds)
                .with("root_lp_iterations", root.iterations)
                .with("root_lp_refactors", root.stats.refactors)
                .with(
                    "root_lp_refactor_seconds",
                    root.stats.refactor_time.as_secs_f64(),
                )
                .with("cold_seconds", cold_seconds)
                .with("cold_iterations", cold_iterations)
                .with("warm_seconds", warm_seconds)
                .with("warm_iterations", warm_iterations)
                .with("warm_hits", warm_hits)
                .with("speedup", warm_speedup),
        )
        .with("byte_identical", true)
        .with("sweep", sweep);
    let json = summary.to_json_pretty();
    validate_or_die("BENCH_milp.json", &json);
    std::fs::write("BENCH_milp.json", &json).expect("write BENCH_milp.json");
    report.set("summary", summary);
    report.finish().expect("write report files");
    eprintln!("wrote BENCH_milp.json");
}
