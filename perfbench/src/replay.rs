//! `replay_paper` and `replay_deep`: `simulate` under self-tuning dynP
//! over several independent CTC-model traces on the paper's 430 nodes.
//!
//! The untraced pass wraps `SelfTuning` in [`Timed`], which only reads
//! the clock around each `select`. The traced pass swaps in
//! [`Piecewise`], which rebuilds the self-tuning step from the public
//! parts of `platform`, `sched` and `dynp` and times each part; its
//! decision stream must equal the library step's exactly.

use std::time::{Duration, Instant};

use dynp_core::{Decider, PolicySelector, SelfTuning};
use dynp_sched::{plan_ordered_in, Metric, PlanError, Policy, SchedulingProblem};
use dynp_sim::{simulate, SimConfig, SimRun};
use dynp_trace::{CtcModel, Job, WorkloadModel};

use crate::ledger::Ledger;
use crate::stats;
use crate::{timed_setup, Args, Outcome, StealMark};

/// The paper's machine.
const NODES: u32 = 430;

/// Queue depth the replay runs at.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Depth {
    /// Median waiting queue near the paper's ~25 jobs.
    Paper,
    /// Arrivals compressed until the median queue is in the hundreds.
    Deep,
}

impl Depth {
    /// `(mean interarrival seconds, jobs per trace, traces per run)`.
    fn params(self) -> (f64, usize, usize) {
        match self {
            Depth::Paper => (400.0, 1000, 32),
            Depth::Deep => (60.0, 1000, 24),
        }
    }

    /// Rank of the reported decision-latency tail, taken per trace. Three
    /// or four passes fit a deep run, and while the hypervisor stole
    /// 10–16% of the CPU time, the per-decision best of three still
    /// carried stalls into the slowest 1% of decisions: the deep p99 read
    /// up to 1.7 times its calm value, so the deep replay reports its p95.
    fn tail_rank(self) -> f64 {
        match self {
            Depth::Paper => 0.99,
            Depth::Deep => 0.95,
        }
    }
}

/// Generator seed of the trace the set-up replays to warm the planner.
/// It is fixed, so the set-up does the same work whatever the workload
/// seed: a replay's cost depends on the queues its trace builds.
const WARMUP_SEED: u64 = 2004;

/// The CTC workload model at `depth`'s interarrival time.
fn model(depth: Depth) -> CtcModel {
    CtcModel {
        nodes: NODES,
        mean_interarrival: depth.params().0,
        ..CtcModel::default()
    }
}

/// The run's input traces: `count` independent CTC-model traces whose
/// generator seeds derive from the workload seed.
pub fn traces(seed: u64, depth: Depth) -> Vec<Vec<Job>> {
    let (_, jobs, count) = depth.params();
    let model = model(depth);
    (0..count as u64)
        .map(|k| {
            model
                .generate(jobs, seed.wrapping_mul(1_000_003).wrapping_add(k))
                .jobs
        })
        .collect()
}

/// The library step, timed from outside.
#[derive(Debug)]
pub struct Timed {
    inner: SelfTuning,
    /// Per-`select` latency in microseconds.
    pub latency_us: Vec<f64>,
    /// Waiting-queue depth at each `select`.
    pub depths: Vec<f64>,
    /// Total time inside `select`.
    pub busy: Duration,
}

impl Timed {
    /// The paper configuration: FCFS/SJF/LJF by SLDwA, advanced decider.
    pub fn paper() -> Timed {
        Timed {
            inner: SelfTuning::paper_config(Metric::SldwA),
            latency_us: Vec::new(),
            depths: Vec::new(),
            busy: Duration::ZERO,
        }
    }
}

impl PolicySelector for Timed {
    fn select(&mut self, problem: &SchedulingProblem) -> Result<Policy, PlanError> {
        let started = Instant::now();
        let chosen = self.inner.select(problem);
        let elapsed = started.elapsed();
        self.busy += elapsed;
        self.latency_us.push(elapsed.as_secs_f64() * 1e6);
        self.depths.push(problem.len() as f64);
        chosen
    }

    fn label(&self) -> String {
        self.inner.label()
    }
}

/// Busy time per part of the self-tuning step.
#[derive(Clone, Copy, Debug, Default)]
pub struct StepParts {
    /// `SchedulingProblem::availability_profile`.
    pub profile: Duration,
    /// `Policy::order`.
    pub order: Duration,
    /// `plan_ordered_in`.
    pub plan: Duration,
    /// `Metric::eval`.
    pub eval: Duration,
    /// `Decider::decide`.
    pub decide: Duration,
}

impl StepParts {
    /// Sum of every part.
    pub fn sum(&self) -> Duration {
        self.profile + self.order + self.plan + self.eval + self.decide
    }
}

/// The self-tuning step rebuilt from public parts, serially, with every
/// part timed. Same policies, metric and decider as
/// `SelfTuning::paper_config`.
#[derive(Debug)]
pub struct Piecewise {
    policies: Vec<Policy>,
    metric: Metric,
    decider: Decider,
    active: Policy,
    /// Part timings.
    pub parts: StepParts,
    /// Total time inside `select`.
    pub busy: Duration,
    /// Steps taken.
    pub steps: u64,
    /// Steps that switched policy.
    pub switches: u64,
    /// Jobs placed by every policy's plan, summed over steps.
    pub jobs_placed: u64,
}

impl Piecewise {
    /// The paper configuration, mirroring [`SelfTuning::paper_config`].
    pub fn paper() -> Piecewise {
        let reference = SelfTuning::paper_config(Metric::SldwA);
        Piecewise {
            policies: reference.policies().to_vec(),
            metric: reference.metric(),
            decider: reference.decider(),
            active: reference.active(),
            parts: StepParts::default(),
            busy: Duration::ZERO,
            steps: 0,
            switches: 0,
            jobs_placed: 0,
        }
    }
}

impl PolicySelector for Piecewise {
    fn select(&mut self, problem: &SchedulingProblem) -> Result<Policy, PlanError> {
        let started = Instant::now();
        if problem.is_empty() {
            return Ok(self.active);
        }
        let t = Instant::now();
        let profile = problem.availability_profile();
        self.parts.profile += t.elapsed();
        let mut evaluations = Vec::with_capacity(self.policies.len());
        let mut placed = 0;
        for &policy in &self.policies {
            let t = Instant::now();
            let order = policy.order(&problem.jobs);
            self.parts.order += t.elapsed();
            let working = profile.clone();
            let t = Instant::now();
            let schedule = plan_ordered_in(problem, &order, working)?;
            self.parts.plan += t.elapsed();
            let t = Instant::now();
            let value = self.metric.eval(problem, &schedule);
            self.parts.eval += t.elapsed();
            placed += schedule.len() as u64;
            evaluations.push((policy, value));
        }
        let t = Instant::now();
        let chosen = self.decider.decide(self.metric, &evaluations, self.active);
        self.parts.decide += t.elapsed();
        self.steps += 1;
        self.switches += u64::from(chosen != self.active);
        self.jobs_placed += placed;
        self.active = chosen;
        self.busy += started.elapsed();
        Ok(chosen)
    }

    fn label(&self) -> String {
        format!("piecewise dynP({})", self.metric)
    }
}

/// One replay of `trace` and its wall time.
fn replay<S: PolicySelector>(trace: &[Job], selector: S) -> (SimRun<S>, Duration) {
    let started = Instant::now();
    let run = simulate(trace, selector, SimConfig::new(NODES));
    (run, started.elapsed())
}

/// Checks every admitted job completed; returns the declined count.
fn check_completion<S>(out: &mut Outcome, k: usize, trace: &[Job], run: &SimRun<S>) -> u64 {
    out.check(
        run.records.len() + run.skipped.len() == trace.len(),
        format!(
            "trace {k}: {} of {} admitted jobs completed",
            run.records.len(),
            trace.len() - run.skipped.len()
        ),
    );
    run.skipped.len() as u64
}

/// Totals of the untraced replays.
#[derive(Debug, Default)]
struct Untraced {
    /// Summed `simulate` wall time over every replay.
    wall: Duration,
    /// Summed time inside `select` over every replay.
    busy: Duration,
    replays: u64,
    decisions: u64,
    passes: usize,
    /// Share of CPU time the hypervisor stole during each pass, percent.
    stolen_pct: Vec<f64>,
    /// Per trace: each decision's least latency (µs) over the passes.
    best_us: Vec<Vec<f64>>,
    /// Per trace: the least replay time outside `select` (s) over the
    /// passes.
    best_self_s: Vec<f64>,
    depths: Vec<f64>,
    steps: u64,
    switches: u64,
}

/// Replays every trace, pass after pass, while another pass fits in
/// `budget` (at least one). Every replay of a trace must log the same
/// policy sequence as its first, so it makes the same decisions on the
/// same queues; each decision keeps its least latency over the passes.
fn untraced(
    traces: &[Vec<Job>],
    budget: Duration,
    logs: &mut Vec<Vec<(u64, Policy)>>,
    out: &mut Outcome,
) -> Result<Untraced, String> {
    let mut u = Untraced::default();
    let started = Instant::now();
    loop {
        let mark = StealMark::now();
        for (k, trace) in traces.iter().enumerate() {
            let (run, elapsed) = replay(trace, Timed::paper());
            out.attempted += trace.len() as u64;
            let declined = check_completion(out, k, trace, &run);
            out.failed += declined;
            if logs.len() == k {
                logs.push(run.policy_log.clone());
                u.steps += run.selector.inner.stats().steps() as u64;
                u.switches += run.selector.inner.stats().switches() as u64;
                u.depths.extend_from_slice(&run.selector.depths);
                u.best_us.push(Vec::new());
                u.best_self_s.push(f64::INFINITY);
            } else {
                out.check(
                    logs[k] == run.policy_log,
                    format!("trace {k}: policy log differs between repeats"),
                );
            }
            let selector = &run.selector;
            stats::keep_best(&mut u.best_us[k], &selector.latency_us)
                .map_err(|e| format!("trace {k}: {e}"))?;
            let outside = elapsed.saturating_sub(selector.busy).as_secs_f64();
            u.best_self_s[k] = u.best_self_s[k].min(outside);
            u.wall += elapsed;
            u.busy += selector.busy;
            u.replays += 1;
            u.decisions += selector.latency_us.len() as u64;
        }
        u.passes += 1;
        u.stolen_pct.push(mark.stolen_pct());
        let per_pass = started.elapsed() / u.passes as u32;
        if started.elapsed() + per_pass > budget {
            return Ok(u);
        }
    }
}

/// Runs `replay_paper` or `replay_deep`.
pub fn run(args: &Args, depth: Depth) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    // Set-up: generate the traces and warm the planner with one replay
    // of a fixed trace.
    let (setup_s, traces) = timed_setup(9, || {
        let traces = traces(args.seed, depth);
        let warmup = model(depth).generate(depth.params().1, WARMUP_SEED).jobs;
        std::hint::black_box(simulate(
            &warmup,
            SelfTuning::paper_config(Metric::SldwA),
            SimConfig::new(NODES),
        ));
        traces
    });
    out.set("setup_s", setup_s);

    let untraced_budget = if args.trace {
        args.seconds / 2
    } else {
        args.seconds
    };
    let mut logs = Vec::new();
    let u = untraced(&traces, untraced_budget, &mut logs, &mut out)?;
    let depth_sorted = stats::sorted(&u.depths);
    let depth_p50 = stats::percentile(&depth_sorted, 0.5).ok_or("too few steps")?;
    let depth_p99 = stats::tail(&depth_sorted, 0.99).ok_or("too few steps")?;
    // Every pass makes the same decisions on the same queues, so the
    // figures take each decision at its least latency over the passes,
    // and each trace's remaining replay time (DES, machine, RMS) at its
    // least: host stalls must then recur in every pass to show.
    let best_us: Vec<f64> = u.best_us.iter().flatten().copied().collect();
    let p50 = stats::percentile(&stats::sorted(&best_us), 0.5).ok_or("too few decisions")?;
    // The tail is each trace's tail, then the median over the traces: a
    // pooled tail is set by the one or two deepest queues the seed drew.
    let trace_tails = u
        .best_us
        .iter()
        .enumerate()
        .map(|(k, v)| {
            stats::percentile(&stats::sorted(v), depth.tail_rank())
                .map(|p| p.value)
                .ok_or_else(|| format!("trace {k}: {} decisions cannot support its tail", v.len()))
        })
        .collect::<Result<Vec<f64>, String>>()?;
    let tail_us = stats::median(&trace_tails);
    let jobs: usize = traces.iter().map(Vec::len).sum();
    let best_pass_s = u.best_self_s.iter().sum::<f64>() + best_us.iter().sum::<f64>() / 1e6;
    eprintln!(
        "replay: {} passes over {} traces, stolen CPU {:?}%; best of the passes per decision: {:.1} jobs/s, decision p50 {:.2} µs (n = {}), p{} {:.2} µs (median over the traces of each trace's tail, n = {} per trace); queue depth p50 {} p{} {}",
        u.passes,
        traces.len(),
        u.stolen_pct
            .iter()
            .map(|s| (s * 10.0).round() / 10.0)
            .collect::<Vec<_>>(),
        jobs as f64 / best_pass_s,
        p50.value,
        p50.samples,
        (depth.tail_rank() * 100.0).round(),
        tail_us,
        u.best_us.iter().map(Vec::len).min().unwrap_or(0),
        depth_p50.value,
        (depth_p99.rank * 100.0).round(),
        depth_p99.value
    );
    out.set("ops_per_s", jobs as f64 / best_pass_s);
    out.set("latency_p50_ms", p50.value / 1e3);
    out.set("latency_tail_ms", tail_us / 1e3);
    if !args.trace {
        return Ok(out);
    }

    // Traced pass: the piecewise step over the same traces.
    let per_pass = |d: Duration| d.as_secs_f64() * traces.len() as f64 / u.replays as f64;
    let mut traced_wall = Duration::ZERO;
    let mut traced_busy = Duration::ZERO;
    let mut parts = StepParts::default();
    let (mut steps, mut switches, mut placed, mut passes) = (0, 0, 0, 0u64);
    let started = Instant::now();
    loop {
        for (k, trace) in traces.iter().enumerate() {
            let (run, wall) = replay(trace, Piecewise::paper());
            out.attempted += trace.len() as u64;
            let declined = check_completion(&mut out, k, trace, &run);
            out.failed += declined;
            out.check(
                run.policy_log == logs[k],
                format!("trace {k}: piecewise step diverged from SelfTuning::step"),
            );
            let p = &run.selector;
            traced_wall += wall;
            traced_busy += p.busy;
            parts.profile += p.parts.profile;
            parts.order += p.parts.order;
            parts.plan += p.parts.plan;
            parts.eval += p.parts.eval;
            parts.decide += p.parts.decide;
            if passes == 0 {
                steps += p.steps;
                switches += p.switches;
                placed += p.jobs_placed;
            }
        }
        passes += 1;
        if started.elapsed() >= args.seconds / 2 {
            break;
        }
    }
    out.check(
        steps == u.steps,
        format!("piecewise took {steps} steps, library {}", u.steps),
    );
    out.check(
        switches == u.switches,
        format!(
            "piecewise switched {switches} times, library {}",
            u.switches
        ),
    );
    let traced_steps = (steps * passes) as f64;
    let us_per_step = |d: Duration| d.as_secs_f64() * 1e6 / traced_steps;
    let step_us = u.busy.as_secs_f64() * 1e6 / u.decisions as f64;
    let ledger = Ledger::new("traced simulate wall", traced_wall.as_secs_f64())
        .layer(
            "sim.self (des, machine, rms)",
            (traced_wall - traced_busy).as_secs_f64(),
        )
        .layer("platform.profile", parts.profile.as_secs_f64())
        .layer("sched.order", parts.order.as_secs_f64())
        .layer("sched.plan", parts.plan.as_secs_f64())
        .layer("sched.eval", parts.eval.as_secs_f64())
        .layer("dynp.decide", parts.decide.as_secs_f64());
    eprint!("{}", ledger.render());
    out.check(
        ledger.within_bound(),
        format!(
            "ledger residual {:.2}% exceeds bound",
            ledger.residual_pct()
        ),
    );
    let traced_per_pass = traced_wall.as_secs_f64() / passes as f64;
    out.set("trace.residual_pct", ledger.residual_pct());
    out.set(
        "trace.overhead_pct",
        100.0 * (traced_per_pass / per_pass(u.wall) - 1.0),
    );
    out.set("platform.profile_us", us_per_step(parts.profile));
    out.set("sched.order_us", us_per_step(parts.order));
    out.set("sched.plan_us", us_per_step(parts.plan));
    out.set("sched.eval_us", us_per_step(parts.eval));
    out.set("dynp.decide_us", us_per_step(parts.decide));
    out.set("dynp.step_us", step_us);
    out.set("dynp.step_overhead_us", step_us - us_per_step(parts.sum()));
    out.set("dynp.steps", steps as f64);
    out.set("dynp.switches", switches as f64);
    out.set("queue.depth_p50", depth_p50.value);
    out.set("queue.depth_p99", depth_p99.value);
    out.set("sched.jobs_placed", placed as f64);
    out.set("sim.self_s", per_pass(u.wall - u.busy));
    out.set("sim.replays", u.replays as f64);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The piecewise step must reproduce `SelfTuning::step`'s decision
    /// stream on a small, busy trace.
    #[test]
    fn piecewise_step_reproduces_the_library_decisions() {
        let trace = CtcModel {
            nodes: 64,
            mean_interarrival: 90.0,
            ..CtcModel::default()
        }
        .generate(300, 11)
        .jobs;
        let library = simulate(
            &trace,
            SelfTuning::paper_config(Metric::SldwA),
            SimConfig::new(64),
        );
        let piecewise = simulate(&trace, Piecewise::paper(), SimConfig::new(64));
        assert_eq!(library.policy_log, piecewise.policy_log);
        assert_eq!(library.records, piecewise.records);
        let p = &piecewise.selector;
        assert_eq!(p.steps, library.selector.stats().steps() as u64);
        assert_eq!(p.switches, library.selector.stats().switches() as u64);
        assert!(p.switches > 0, "trace too calm to exercise switching");
        assert!(p.parts.sum() <= p.busy);
    }

    #[test]
    fn traces_are_a_function_of_the_seed() {
        let a = traces(5, Depth::Deep);
        assert_eq!(a, traces(5, Depth::Deep));
        assert_ne!(a, traces(6, Depth::Deep));
        assert_ne!(a[0], a[1], "traces of one run are independent");
    }
}
