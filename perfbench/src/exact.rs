//! `exact_table1`: the Table 1 pipeline. A dynP replay captures
//! snapshots of 5–18 waiting jobs; a fixed spread sample of them is
//! solved one at a time with `solve_snapshot` under table1's Eq. 6
//! scaling and a node budget, with no wall-clock limit, so status, node
//! counts and gaps are deterministic.
//!
//! The traced pass rebuilds `solve_snapshot` from the public parts of
//! `sched` and `milp`, times each stage and wraps the branch & bound
//! hooks in timers; its node, LP-iteration and gap results must equal
//! the library's.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use dynp_core::SelfTuning;
use dynp_milp::{
    compact, solve_lp_with_start, solve_snapshot, BranchBound, BranchLimits, ExactRun, MipStatus,
    SolveConfig, SolveError, TimeIndexedModel, TimeScaling,
};
#[cfg(test)]
use dynp_sched::Policy;
use dynp_sched::{plan, Metric, Schedule, SchedulingProblem};
use dynp_sim::{simulate, SimConfig, SnapshotFilter, TunedSnapshot};
use dynp_trace::{CtcModel, WorkloadModel};

use crate::ledger::Ledger;
use crate::stats::{self, Latency, SplitMix};
use crate::{timed_setup, Args, Outcome, StealMark};

/// The instance set: `PER_TRACE` snapshots from each of `TRACES` traces
/// of `TRACE_JOBS` jobs at the CTC model's paper load, as table1 replays.
const TABLE1_SEED: u64 = 2004;
const TRACES: u64 = 8;
const TRACE_JOBS: usize = 1200;
const PER_TRACE: usize = 30;
/// Branch & bound node budget per solve.
const MAX_NODES: usize = 4;
/// Eq. 6 memory budget as a fraction of the paper's: table1 uses 1/64;
/// a quarter of that coarsens the slot grid so one pass over the whole
/// sample fits several times into a run.
const MEMORY_DIVISOR: f64 = 256.0;

/// table1's solver settings with a coarser Eq. 6 grid, and a node budget
/// instead of its 60 s wall-clock limit.
pub fn config() -> SolveConfig {
    SolveConfig {
        memory_bytes: dynp_milp::PAPER_MEMORY_BYTES / MEMORY_DIVISOR,
        limits: BranchLimits {
            max_nodes: MAX_NODES,
            time_limit: None,
            ..BranchLimits::default()
        },
        ..SolveConfig::default()
    }
}

/// `count` snapshots evenly spread over `snapshots` (table1's sample).
pub fn spread_sample(snapshots: &[TunedSnapshot], count: usize) -> Vec<SchedulingProblem> {
    let step = (snapshots.len() as f64 / count as f64).max(1.0);
    (0..count.min(snapshots.len()))
        .map(|i| snapshots[(i as f64 * step) as usize].problem.clone())
        .collect()
}

/// The policy baselines every exact solve starts from: the best
/// policy's schedule and the latest end over all policies (the model
/// horizon), exactly as `solve_snapshot` computes them.
fn baselines(
    problem: &SchedulingProblem,
    config: &SolveConfig,
) -> Result<(Schedule, u64), SolveError> {
    let mut best: Option<(f64, Schedule)> = None;
    let mut horizon_end = problem.now;
    for &policy in &config.policies {
        let schedule = plan(problem, policy)?;
        let value = config.metric.eval(problem, &schedule);
        if let Some(end) = schedule.makespan_end() {
            horizon_end = horizon_end.max(end);
        }
        if best
            .as_ref()
            .is_none_or(|(v, _)| config.metric.better(value, *v))
        {
            best = Some((value, schedule));
        }
    }
    let (_, schedule) = best.ok_or(SolveError::NoPolicies)?;
    Ok((schedule, horizon_end))
}

/// The Eq. 6 time scale for a snapshot with the given horizon.
fn scaling(problem: &SchedulingProblem, config: &SolveConfig, horizon_end: u64) -> TimeScaling {
    match config.scale_override {
        Some(s) => TimeScaling::fixed(s),
        None => TimeScaling::from_memory(
            horizon_end - problem.now,
            problem.accumulated_runtime(),
            config.x_bytes,
            config.memory_bytes,
        ),
    }
}

/// The Table 1 instance set: the 5–18-job snapshots of fixed CTC-model
/// traces (generator seeds from table1's default 2004 on) replayed under
/// dynP, evenly spread over each trace. The set does not depend on the
/// workload seed, which only shuffles the solve order: with per-seed
/// instances the sample's difficulty, not the solver's speed, moved the
/// figures by 15-30% between seeds (see README.md).
pub fn snapshots(seed: u64) -> Vec<SchedulingProblem> {
    let mut sample = Vec::with_capacity(TRACES as usize * PER_TRACE);
    for k in 0..TRACES {
        let trace = CtcModel::default().generate(TRACE_JOBS, TABLE1_SEED + k);
        let run = simulate(
            &trace.jobs,
            SelfTuning::paper_config(Metric::SldwA),
            SimConfig::new(trace.machine_size).with_snapshots(SnapshotFilter {
                min_jobs: 5,
                max_jobs: 18,
                ..SnapshotFilter::default()
            }),
        );
        sample.extend(spread_sample(&run.snapshots, PER_TRACE));
    }
    let mut rng = SplitMix::new(seed);
    for i in (1..sample.len()).rev() {
        sample.swap(i, rng.below(i as u64 + 1) as usize);
    }
    sample
}

/// What must repeat exactly between solves of one snapshot.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Fingerprint {
    /// Final status.
    pub status: MipStatus,
    /// Nodes explored.
    pub nodes: usize,
    /// Simplex iterations over all LPs.
    pub lp_iterations: usize,
    /// Final relative gap, bit for bit.
    pub gap_bits: Option<u64>,
}

impl Fingerprint {
    fn of(run: &ExactRun) -> Fingerprint {
        Fingerprint {
            status: run.status,
            nodes: run.nodes,
            lp_iterations: run.lp_iterations,
            gap_bits: run.gap.map(f64::to_bits),
        }
    }
}

/// Checks one library solve's outputs.
fn check_run(out: &mut Outcome, i: usize, problem: &SchedulingProblem, run: &ExactRun) {
    if let Some(schedule) = &run.exact_schedule {
        out.check(
            schedule.validate(problem).is_ok(),
            format!("snapshot {i}: exact schedule fails Schedule::validate"),
        );
    }
    // A seeded solve's trajectory opens with the best-policy incumbent
    // at node 0 and closes with the final one; the search may only
    // improve on it. (The seed is skipped when the best policy's order
    // does not fit the slot grid; such solves have nothing to compare.)
    match (run.trajectory.first(), run.trajectory.last()) {
        (Some(first), Some(last)) if first.nodes == 0 => out.check(
            last.incumbent <= first.incumbent + 1e-9,
            format!("snapshot {i}: exact value exceeds the seeded best-policy value"),
        ),
        _ => {}
    }
}

/// Whether the library solve started from a seeded incumbent.
fn seeded(run: &ExactRun) -> bool {
    run.trajectory.first().is_some_and(|p| p.nodes == 0)
}

/// Busy time of the branch & bound hooks, shared with the solver's
/// (possibly parallel) node loop.
#[derive(Debug, Default)]
struct HookClock {
    crash_ns: AtomicU64,
    branch_ns: AtomicU64,
    heuristic_ns: AtomicU64,
    heuristic_calls: AtomicU64,
    heuristic_hits: AtomicU64,
    /// Best objective known to the wrapper, as `f64` bits.
    best_bits: AtomicU64,
}

fn add_elapsed(counter: &AtomicU64, since: Instant) {
    counter.fetch_add(since.elapsed().as_nanos() as u64, Ordering::Relaxed);
}

/// One stage-timed exact solve.
#[derive(Clone, Debug, Default)]
pub struct Staged {
    /// Policy baselines: plan every policy and evaluate it.
    pub policy_plan: Duration,
    /// `TimeIndexedModel::build`.
    pub build: Duration,
    /// Cold root LP with the crash basis (measured beside the search).
    pub root_lp: Duration,
    /// `BranchBound::solve`.
    pub search: Duration,
    /// `compact` plus the exact schedule's evaluation.
    pub compact: Duration,
    /// The pipeline's wall time, root LP excluded.
    pub wall: Duration,
    /// Hook busy times inside the search.
    pub crash: Duration,
    /// See [`Staged::crash`].
    pub branch: Duration,
    /// See [`Staged::crash`].
    pub heuristic: Duration,
    /// Heuristic invocations and the ones that improved the best known
    /// objective.
    pub heuristic_calls: u64,
    /// See [`Staged::heuristic_calls`].
    pub heuristic_hits: u64,
    /// Model rows and columns.
    pub rows: usize,
    /// See [`Staged::rows`].
    pub cols: usize,
    /// Warm and cold node LPs.
    pub warm_lps: usize,
    /// See [`Staged::warm_lps`].
    pub cold_lps: usize,
    /// The result that must match the library's.
    pub fingerprint: Option<Fingerprint>,
    /// Final incumbent objective and the seeded one.
    pub objective: Option<f64>,
    /// See [`Staged::objective`].
    pub seed_objective: Option<f64>,
}

/// `solve_snapshot` rebuilt from public parts with every stage timed.
/// Mirrors the library's steps and order exactly (see
/// `dynp_milp::solve::solve_snapshot`).
pub fn staged_solve(
    problem: &SchedulingProblem,
    config: &SolveConfig,
) -> Result<Staged, SolveError> {
    if problem.is_empty() {
        return Err(SolveError::EmptySnapshot);
    }
    let mut st = Staged::default();
    let started = Instant::now();
    let t = Instant::now();
    let (best_schedule, horizon_end) = baselines(problem, config)?;
    st.policy_plan = t.elapsed();
    let scaling = scaling(problem, config, horizon_end);
    let t = Instant::now();
    let ti = TimeIndexedModel::build(problem, scaling, horizon_end);
    st.build = t.elapsed();
    st.rows = ti.model.num_constraints();
    st.cols = ti.model.num_vars();

    // The root LP, cold from the crash basis: measured on its own and
    // kept out of the pipeline's wall time (the search solves it again).
    let root_started = Instant::now();
    let crash = ti.crash_start(&ti.model.lower, &ti.model.upper);
    std::hint::black_box(solve_lp_with_start(
        &ti.model,
        &ti.model.lower,
        &ti.model.upper,
        crash.as_ref(),
        config.limits.max_lp_iterations,
    ));
    st.root_lp = root_started.elapsed();

    let clock = HookClock::default();
    let mut bb = BranchBound::new(&ti.model, config.limits);
    if config.seed_incumbent {
        let order: Vec<usize> = best_schedule
            .start_order()
            .iter()
            .map(|e| {
                problem
                    .jobs
                    .iter()
                    .position(|j| j.id == e.id)
                    .expect("schedule entry in snapshot")
            })
            .collect();
        if let Some(seed) = ti.greedy_solution(&order) {
            let seed_objective = ti.model.objective_value(&seed);
            bb = match bb.with_incumbent(seed) {
                Ok(seeded) => {
                    st.seed_objective = Some(seed_objective);
                    clock
                        .best_bits
                        .store(seed_objective.to_bits(), Ordering::Relaxed);
                    seeded
                }
                Err(_) => BranchBound::new(&ti.model, config.limits),
            };
        }
    }
    if st.seed_objective.is_none() {
        clock
            .best_bits
            .store(f64::INFINITY.to_bits(), Ordering::Relaxed);
    }
    let (ti_ref, clock_ref) = (&ti, &clock);
    if config.use_heuristic {
        bb = bb.with_heuristic(Box::new(move |model, lp| {
            let t = Instant::now();
            let x = ti_ref.rounding_heuristic(lp);
            add_elapsed(&clock_ref.heuristic_ns, t);
            clock_ref.heuristic_calls.fetch_add(1, Ordering::Relaxed);
            if let Some(x) = &x {
                let obj = model.objective_value(x);
                let prev = clock_ref.best_bits.fetch_update(
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                    |bits| (obj < f64::from_bits(bits) - 1e-9).then_some(obj.to_bits()),
                );
                if prev.is_ok() {
                    clock_ref.heuristic_hits.fetch_add(1, Ordering::Relaxed);
                }
            }
            x
        }));
    }
    bb = bb
        .with_crash(Box::new(move |lower, upper| {
            let t = Instant::now();
            let start = ti_ref.crash_start(lower, upper);
            add_elapsed(&clock_ref.crash_ns, t);
            start
        }))
        .with_brancher(Box::new(move |_, lp| {
            let t = Instant::now();
            let children = ti_ref.sos_branch(lp);
            add_elapsed(&clock_ref.branch_ns, t);
            children
        }));
    let t = Instant::now();
    let mip = bb.solve();
    st.search = t.elapsed();

    let t = Instant::now();
    if let Some(x) = &mip.x {
        let schedule = if config.skip_compaction {
            ti.slot_schedule(x, problem)
        } else {
            compact(problem, &ti.start_order(x))?
        };
        std::hint::black_box(config.metric.eval(problem, &schedule));
    }
    st.compact = t.elapsed();
    st.wall = started.elapsed() - st.root_lp;

    let ns = |c: &AtomicU64| Duration::from_nanos(c.load(Ordering::Relaxed));
    st.crash = ns(&clock.crash_ns);
    st.branch = ns(&clock.branch_ns);
    st.heuristic = ns(&clock.heuristic_ns);
    st.heuristic_calls = clock.heuristic_calls.load(Ordering::Relaxed);
    st.heuristic_hits = clock.heuristic_hits.load(Ordering::Relaxed);
    st.warm_lps = mip.warm_lps;
    st.cold_lps = mip.cold_lps;
    st.objective = mip.objective;
    st.fingerprint = Some(Fingerprint {
        status: mip.status,
        nodes: mip.nodes,
        lp_iterations: mip.lp_iterations,
        gap_bits: mip.gap().map(f64::to_bits),
    });
    Ok(st)
}

/// Sample-wide results of the untraced passes.
#[derive(Debug, Default)]
struct Passes {
    /// Wall time of each whole-sample pass.
    sample_s: Vec<f64>,
    /// CPU time the hypervisor stole during each pass, percent.
    stolen_pct: Vec<f64>,
    /// Each snapshot's least solve time over the passes, ms.
    best_ms: Vec<f64>,
    /// First pass's result per snapshot (`None` for a solve error).
    first: Vec<Option<ExactRun>>,
}

/// Solves the sample pass after pass while another pass fits in
/// `budget`, with at least `min_passes` passes. Later passes must repeat the first's
/// nodes, iterations and gaps exactly.
fn untraced(
    sample: &[SchedulingProblem],
    config: &SolveConfig,
    budget: Duration,
    min_passes: usize,
    out: &mut Outcome,
) -> Result<Passes, String> {
    let mut p = Passes::default();
    let started = Instant::now();
    while p.sample_s.len() < min_passes
        || started.elapsed() + started.elapsed() / p.sample_s.len().max(1) as u32 <= budget
    {
        let pass_started = Instant::now();
        let mark = StealMark::now();
        let mut solve_ms = Vec::with_capacity(sample.len());
        for (i, problem) in sample.iter().enumerate() {
            let t = Instant::now();
            let result = solve_snapshot(problem, config);
            solve_ms.push(t.elapsed().as_secs_f64() * 1e3);
            out.attempted += 1;
            let run = match result {
                Ok(run) => run,
                Err(e) => {
                    out.failed += 1;
                    eprintln!("exact: snapshot {i}: {e}");
                    if p.first.len() == i {
                        p.first.push(None);
                    }
                    continue;
                }
            };
            check_run(out, i, problem, &run);
            if p.first.len() == i {
                p.first.push(Some(run));
            } else if let Some(first) = &p.first[i] {
                out.check(
                    Fingerprint::of(first) == Fingerprint::of(&run),
                    format!("snapshot {i}: nodes/iterations/gap differ between repeats"),
                );
            }
        }
        p.sample_s.push(pass_started.elapsed().as_secs_f64());
        p.stolen_pct.push(mark.stolen_pct());
        stats::keep_best(&mut p.best_ms, &solve_ms)?;
    }
    Ok(p)
}

/// Runs `exact_table1`.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let config = config();
    let (setup_s, sample) = timed_setup(3, || snapshots(args.seed));
    out.set("setup_s", setup_s);
    let budget = if args.trace {
        args.seconds / 2
    } else {
        args.seconds
    };
    let p = untraced(
        &sample,
        &config,
        budget,
        if args.trace { 1 } else { 2 },
        &mut out,
    )?;

    let jobs: usize = sample.iter().map(SchedulingProblem::len).sum();
    // Passes solve the same sample, so the figures take each snapshot at
    // its least solve time over the passes: a host stall must then recur
    // in every pass to show.
    let best_sample_s = p.best_ms.iter().sum::<f64>() / 1e3;
    let latency = Latency::of(&p.best_ms, 0.99).ok_or("too few snapshots for a median")?;
    // The untraced whole-sample time, as a pass takes it.
    let sample_s = stats::median(&p.sample_s);
    let solved: Vec<&ExactRun> = p.first.iter().flatten().collect();
    let gap_pct = 100.0 * stats::mean(&solved.iter().filter_map(|r| r.gap).collect::<Vec<_>>());
    let loss_pct = stats::mean(
        &solved
            .iter()
            .filter_map(|r| r.perf_loss_percent)
            .collect::<Vec<_>>(),
    );
    let nodes: usize = solved.iter().map(|r| r.nodes).sum();
    let unseeded = solved.iter().filter(|r| !seeded(r)).count();
    eprintln!(
        "exact: {} passes over {} snapshots ({} jobs, {} nodes, {unseeded} solved without a seed incumbent), stolen CPU {:?}%; sample {:.4} s per pass (median), {:.4} s at each snapshot's best; per-snapshot best solve {}; mean gap {:.3}%, mean loss {:.3}%",
        p.sample_s.len(),
        sample.len(),
        jobs,
        nodes,
        p.stolen_pct.iter().map(|s| (s * 10.0).round() / 10.0).collect::<Vec<_>>(),
        sample_s,
        best_sample_s,
        latency.describe("ms"),
        gap_pct,
        loss_pct
    );
    out.set("ops_per_s", sample.len() as f64 / best_sample_s);
    out.set("latency_p50_ms", latency.p50.value);
    out.set("latency_tail_ms", latency.tail.value);
    if !args.trace {
        return Ok(out);
    }

    // Traced pass: the staged pipeline over the same sample.
    let mut staged = Vec::with_capacity(sample.len());
    for (i, problem) in sample.iter().enumerate() {
        out.attempted += 1;
        match staged_solve(problem, &config) {
            Ok(st) => {
                let library = p.first[i].as_ref().map(Fingerprint::of);
                out.check(
                    st.fingerprint == library,
                    format!("snapshot {i}: staged pipeline diverged from solve_snapshot"),
                );
                let library_seeded = p.first[i].as_ref().is_some_and(seeded);
                out.check(
                    match (st.objective, st.seed_objective) {
                        (Some(obj), Some(seed)) => library_seeded && obj <= seed + 1e-9,
                        (_, None) => !library_seeded,
                        (None, Some(_)) => false,
                    },
                    format!(
                        "snapshot {i}: exact objective exceeds the seeded one, or seeding differs"
                    ),
                );
                staged.push(st);
            }
            Err(e) => {
                out.failed += 1;
                eprintln!("exact: staged snapshot {i}: {e}");
            }
        }
    }
    let sum = |f: fn(&Staged) -> Duration| staged.iter().map(f).sum::<Duration>();
    let (wall, policy, build, root, search, compact_t) = (
        sum(|s| s.wall),
        sum(|s| s.policy_plan),
        sum(|s| s.build),
        sum(|s| s.root_lp),
        sum(|s| s.search),
        sum(|s| s.compact),
    );
    let (crash, branch, heuristic) = (sum(|s| s.crash), sum(|s| s.branch), sum(|s| s.heuristic));
    let ledger = Ledger::new("staged pipeline wall, root LP excluded", wall.as_secs_f64())
        .layer("sched.policy_plan", policy.as_secs_f64())
        .layer("milp.build", build.as_secs_f64())
        .layer("milp.search", search.as_secs_f64())
        .layer("milp.compact", compact_t.as_secs_f64());
    eprint!("{}", ledger.render());
    out.check(
        ledger.within_bound(),
        format!(
            "ledger residual {:.2}% exceeds bound",
            ledger.residual_pct()
        ),
    );
    let n = staged.len().max(1) as f64;
    let ms_each = |d: Duration| d.as_secs_f64() * 1e3 / n;
    let fp: Vec<Fingerprint> = staged.iter().filter_map(|s| s.fingerprint).collect();
    let lps: usize = staged.iter().map(|s| s.warm_lps + s.cold_lps).sum();
    let warm: usize = staged.iter().map(|s| s.warm_lps).sum();
    let iterations: usize = fp.iter().map(|f| f.lp_iterations).sum();
    let calls: u64 = staged.iter().map(|s| s.heuristic_calls).sum();
    let hits: u64 = staged.iter().map(|s| s.heuristic_hits).sum();
    let rows = stats::median(&staged.iter().map(|s| s.rows as f64).collect::<Vec<_>>());
    let cols = stats::median(&staged.iter().map(|s| s.cols as f64).collect::<Vec<_>>());
    eprintln!(
        "exact: root LP {:.3} ms per snapshot (beside the search); dense basis inverse at median rows computed as rows^2 x 8 B",
        ms_each(root)
    );
    out.set("trace.residual_pct", ledger.residual_pct());
    out.set(
        "trace.overhead_pct",
        100.0 * (wall.as_secs_f64() / sample_s - 1.0),
    );
    out.set("exact.sample_s", sample_s);
    out.set("exact.snapshots", sample.len() as f64);
    out.set("sched.policy_plan_ms", ms_each(policy));
    out.set("milp.build_ms", ms_each(build));
    out.set("milp.root_lp_ms", ms_each(root));
    out.set("milp.search_ms", ms_each(search));
    out.set("milp.compact_ms", ms_each(compact_t));
    out.set("milp.hook.crash_ms", ms_each(crash));
    out.set("milp.hook.branch_ms", ms_each(branch));
    out.set("milp.hook.heuristic_ms", ms_each(heuristic));
    let hooks = crash + branch + heuristic;
    out.set(
        "milp.node_lp_ms",
        search.saturating_sub(hooks).as_secs_f64() * 1e3 / lps.max(1) as f64,
    );
    out.set(
        "milp.nodes",
        fp.iter().map(|f| f.nodes).sum::<usize>() as f64,
    );
    out.set("milp.lp_iterations", iterations as f64);
    out.set("milp.iters_per_lp", iterations as f64 / lps.max(1) as f64);
    out.set("milp.warm_lps", warm as f64);
    out.set("milp.cold_lps", (lps - warm) as f64);
    out.set("milp.warm_ratio", warm as f64 / lps.max(1) as f64);
    out.set(
        "milp.heuristic_hit_ratio",
        hits as f64 / calls.max(1) as f64,
    );
    out.set("milp.rows_p50", rows);
    out.set("milp.cols_p50", cols);
    out.set(
        "milp.dense_inverse_mb",
        rows * rows * 8.0 / (1024.0 * 1024.0),
    );
    out.set("milp.gap_pct", gap_pct);
    out.set("milp.loss_pct", loss_pct);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynp_trace::Job;

    /// A tiny snapshot the solver needs a few nodes for.
    fn tiny() -> SchedulingProblem {
        SchedulingProblem::on_empty_machine(
            0,
            4,
            vec![
                Job::exact(0, 0, 3, 3600),
                Job::exact(1, 0, 2, 1800),
                Job::exact(2, 0, 2, 600),
                Job::exact(3, 0, 1, 2400),
                Job::exact(4, 0, 4, 1200),
            ],
        )
    }

    #[test]
    fn staged_pipeline_reproduces_solve_snapshot_counts() {
        let problem = tiny();
        let config = SolveConfig {
            scale_override: Some(300),
            ..config()
        };
        let library = solve_snapshot(&problem, &config).unwrap();
        let staged = staged_solve(&problem, &config).unwrap();
        assert_eq!(staged.fingerprint, Some(Fingerprint::of(&library)));
        assert_eq!(staged.warm_lps, library.warm_lps);
        assert_eq!(staged.cold_lps, library.cold_lps);
        assert_eq!(staged.rows, library.num_constraints);
        assert_eq!(staged.cols, library.num_variables);
        assert!(staged.objective.unwrap() <= staged.seed_objective.unwrap() + 1e-9);
        let parts = staged.policy_plan + staged.build + staged.search + staged.compact;
        assert!(parts <= staged.wall);
    }

    #[test]
    fn sample_is_spread_and_bounded() {
        let snaps: Vec<TunedSnapshot> = (0..10)
            .map(|i| TunedSnapshot {
                step: i,
                problem: SchedulingProblem::on_empty_machine(
                    i as u64,
                    4,
                    vec![Job::exact(i as u32, 0, 1, 60)],
                ),
                chosen: Policy::Fcfs,
            })
            .collect();
        let picked: Vec<u64> = spread_sample(&snaps, 4).iter().map(|p| p.now).collect();
        assert_eq!(picked, vec![0, 2, 5, 7]);
        assert_eq!(spread_sample(&snaps, 20).len(), 10);
    }
}
