//! Best-first branch & bound over the LP relaxation.
//!
//! This is the "CPLEX" of the reproduction: an exact solver for the mixed
//! 0/1 programs produced by [`crate::timeindex`]. Design choices:
//!
//! * **Best-first** node selection on the LP bound: the first time the best
//!   open bound reaches the incumbent, optimality is proven — mirroring how
//!   MIP solvers close the gap.
//! * **Most-fractional branching** with deterministic tie-breaking.
//! * **Integral-objective rounding**: when every variable is integral and
//!   every objective coefficient is an integer, a node bound `b` can be
//!   lifted to `ceil(b)`, which prunes aggressively on scheduling models
//!   whose objective counts weighted slots.
//! * **Incumbent seeding**: the caller can install a known feasible point
//!   (here: the best dynP policy schedule) before solving, exactly the
//!   "warm start" a practitioner would give CPLEX.
//! * **Primal rounding heuristic** hook invoked on fractional LP solutions
//!   to tighten the incumbent early.
//! * **Warm-started node LPs**: every solved node captures its optimal
//!   basis ([`crate::simplex::Basis`]) and hands it to its children, whose
//!   LPs differ by one variable bound — the child re-installs the basis
//!   and repairs primal feasibility with a few dual simplex pivots instead
//!   of re-running phase 1 from the artificial basis (DESIGN.md §14).
//! * **Deterministic parallel search**: the search runs in synchronous
//!   rounds — pop the [`ROUND_WIDTH`] best open nodes, solve their LPs on
//!   a worker pool ([`crate::par`]), then merge bounds, incumbents and
//!   children *sequentially in pop order*. Each node LP is a pure function
//!   of the model and the node's bounds (never of the incumbent), and the
//!   round width is a constant rather than the worker count, so the
//!   explored tree, the gap trajectory (keyed on the node counter), and
//!   the final [`MipSolution`] are byte-identical for any
//!   [`BranchLimits::solver_workers`] — worker count buys wall-clock time
//!   only (see [`MipSolution::canonical_json`], asserted in the
//!   `milp_par` bench and CI).
//!
//! Limits are deterministic (node count, per-LP and global simplex
//! iteration budgets) plus an optional wall-clock limit for the experiment
//! harness, which reproduces the paper's "CPLEX is still solving the
//! previous problem" regime. The wall clock is read only every
//! [`CLOCK_CHECK_EVERY`] nodes while a time limit is armed, when an
//! incumbent is accepted, and once at exit — never in the per-node
//! steady state — so node-limited runs are clock-free where it matters.

use crate::model::Milp;
use crate::par;
use crate::simplex::{solve_cold, solve_warm, Basis, LpOutcome, LpSolution, LpStats, SimplexStart};
use dynp_obs::{JsonValue, Span};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Integrality tolerance.
const INT_TOL: f64 = 1e-6;
/// Bound comparison tolerance.
const BOUND_TOL: f64 = 1e-9;
/// Open nodes popped per synchronous round. Deliberately a constant and
/// *not* the worker count: the batch (and hence the explored tree) must
/// not depend on how many workers happen to solve it.
const ROUND_WIDTH: usize = 8;
/// With a wall-clock limit armed, the clock is polled once every this
/// many nodes (power of two; gated on the node counter).
const CLOCK_CHECK_EVERY: usize = 64;

/// Resource limits for one solve.
#[derive(Clone, Copy, Debug)]
pub struct BranchLimits {
    /// Maximum branch & bound nodes to explore.
    pub max_nodes: usize,
    /// Simplex iteration budget per LP solve.
    pub max_lp_iterations: usize,
    /// Global simplex iteration budget across *all* LPs of the solve.
    /// `max_lp_iterations` bounds one LP; without this cap a solve could
    /// still spend `max_nodes × max_lp_iterations` iterations via many
    /// cheap LPs and blow its campaign budget. Checked when a round of
    /// nodes is collected, so a solve can overshoot by at most one round
    /// ([`ROUND_WIDTH`] `× max_lp_iterations`) of work already in
    /// flight; exhaustion degrades the result exactly like `max_nodes`
    /// (incumbent kept, status [`MipStatus::Feasible`]/
    /// [`MipStatus::Unknown`]).
    pub max_total_lp_iterations: usize,
    /// Worker threads for the round's node-LP solves. Affects wall-clock
    /// time only: results are byte-identical for any value (see the
    /// module docs). `0` is treated as `1`.
    pub solver_workers: usize,
    /// Optional wall-clock limit (use node limits in tests for
    /// determinism).
    pub time_limit: Option<Duration>,
}

impl Default for BranchLimits {
    fn default() -> Self {
        BranchLimits {
            max_nodes: 1_000_000,
            // Generous for the LP sizes the harness builds (hundreds of
            // rows); a cap keeps one degenerate LP from eating the whole
            // node budget's worth of time.
            max_lp_iterations: 200_000,
            max_total_lp_iterations: usize::MAX,
            solver_workers: 1,
            time_limit: None,
        }
    }
}

/// Final status of a solve.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MipStatus {
    /// Incumbent proven optimal.
    Optimal,
    /// A feasible incumbent exists but a limit stopped the proof.
    Feasible,
    /// Proven infeasible.
    Infeasible,
    /// A limit stopped the search before any incumbent was found.
    Unknown,
}

/// One point of the incumbent/gap trajectory: the solver's view of the
/// primal/dual state at the moment a new incumbent was accepted (plus a
/// seed point at `nodes == 0` when one was installed, and a final point
/// at exit).
#[derive(Clone, Copy, Debug)]
pub struct GapPoint {
    /// Nodes explored when the point was recorded.
    pub nodes: usize,
    /// Wall time into the solve.
    pub elapsed: Duration,
    /// Incumbent objective at that moment.
    pub incumbent: f64,
    /// Best proven lower bound at that moment (`-inf` before the first
    /// node is bounded).
    pub bound: f64,
}

impl GapPoint {
    /// Relative gap at this point, in the same normalization as
    /// [`MipSolution::gap`]; `None` while the bound is still infinite.
    pub fn gap(&self) -> Option<f64> {
        self.bound
            .is_finite()
            .then(|| (self.incumbent - self.bound).max(0.0) / self.incumbent.abs().max(1.0))
    }
}

/// Result of a solve.
#[derive(Clone, Debug)]
pub struct MipSolution {
    /// Outcome status.
    pub status: MipStatus,
    /// Incumbent objective, if any.
    pub objective: Option<f64>,
    /// Incumbent point, if any.
    pub x: Option<Vec<f64>>,
    /// Best lower bound proven over the whole tree.
    pub best_bound: f64,
    /// Nodes explored.
    pub nodes: usize,
    /// Total simplex iterations.
    pub lp_iterations: usize,
    /// Node LPs solved from a parent's warm basis (dual-simplex repair,
    /// phase 1 skipped).
    pub warm_lps: usize,
    /// Node LPs solved cold (phase 1 or a crash basis), including
    /// warm-start attempts that fell back.
    pub cold_lps: usize,
    /// Factorization and pivot counters summed over every node LP,
    /// whatever its outcome.
    pub lp_stats: LpStats,
    /// Wall time spent.
    pub wall_time: Duration,
    /// Incumbent/gap trajectory: one [`GapPoint`] per accepted incumbent
    /// (seed included) plus a closing point at exit. Empty when no
    /// incumbent was ever found.
    pub trajectory: Vec<GapPoint>,
}

impl MipSolution {
    /// Relative optimality gap `(obj - bound) / max(|obj|, 1)`;
    /// `None` without an incumbent.
    pub fn gap(&self) -> Option<f64> {
        let obj = self.objective?;
        Some((obj - self.best_bound).max(0.0) / obj.abs().max(1.0))
    }

    /// A canonical, wall-clock-free JSON rendering of the solution.
    ///
    /// Covers everything the search *decided* — status, objective and
    /// point, proven bound, node and LP-iteration counts, warm/cold LP
    /// split, the LP kernel's factorization, pivot and non-zero counts,
    /// and the gap trajectory keyed on the node counter — and
    /// deliberately omits every timing field (`wall_time`, per-point
    /// `elapsed`, `lp_stats.refactor_time`). Two solves of the same
    /// model under the same limits must render byte-identically
    /// regardless of [`BranchLimits::solver_workers`]; the `milp_par`
    /// bench and the CI `milp-smoke` job diff these renders
    /// byte-for-byte.
    pub fn canonical_json(&self) -> JsonValue {
        let finite = |v: f64| {
            if v.is_finite() {
                JsonValue::Num(v)
            } else {
                JsonValue::Null
            }
        };
        JsonValue::Object(vec![
            (
                "status".to_string(),
                JsonValue::Str(format!("{:?}", self.status)),
            ),
            (
                "objective".to_string(),
                self.objective.map_or(JsonValue::Null, JsonValue::Num),
            ),
            (
                "x".to_string(),
                self.x.as_ref().map_or(JsonValue::Null, |x| {
                    JsonValue::Array(x.iter().map(|&v| JsonValue::Num(v)).collect())
                }),
            ),
            ("best_bound".to_string(), finite(self.best_bound)),
            ("nodes".to_string(), JsonValue::Num(self.nodes as f64)),
            (
                "lp_iterations".to_string(),
                JsonValue::Num(self.lp_iterations as f64),
            ),
            (
                "warm_lps".to_string(),
                JsonValue::Num(self.warm_lps as f64),
            ),
            (
                "cold_lps".to_string(),
                JsonValue::Num(self.cold_lps as f64),
            ),
            (
                "refactors".to_string(),
                JsonValue::Num(self.lp_stats.refactors as f64),
            ),
            (
                "pivots".to_string(),
                JsonValue::Num(self.lp_stats.pivots as f64),
            ),
            (
                "lu_nnz".to_string(),
                JsonValue::Num(self.lp_stats.lu_nnz as f64),
            ),
            (
                "trajectory".to_string(),
                JsonValue::Array(
                    self.trajectory
                        .iter()
                        .map(|p| {
                            JsonValue::Object(vec![
                                ("nodes".to_string(), JsonValue::Num(p.nodes as f64)),
                                ("incumbent".to_string(), JsonValue::Num(p.incumbent)),
                                ("bound".to_string(), finite(p.bound)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// A primal heuristic: turn a fractional LP solution into a feasible
/// integral point (or give up with `None`). The solver validates the
/// result, so a buggy heuristic cannot corrupt exactness.
pub type PrimalHeuristic<'a> = Box<dyn Fn(&Milp, &LpSolution) -> Option<Vec<f64>> + Send + Sync + 'a>;

/// A crash-basis provider: given a node's bound vectors, produce a
/// primal-feasible starting basis so the LP skips phase 1. The simplex
/// verifies the basis, so a wrong crash costs time, never correctness.
pub type CrashHook<'a> = Box<dyn Fn(&[f64], &[f64]) -> Option<SimplexStart> + Send + Sync + 'a>;

/// A custom brancher: given the fractional LP solution, return bound
/// modifications `(var, new_lower, new_upper)` for the two children.
///
/// **Exactness contract**: the two children must cover every integral
/// point of the parent (a partition of the feasible set), otherwise the
/// solver can silently cut off the optimum. Returning `None` falls back to
/// most-fractional single-variable branching, which always satisfies the
/// contract.
pub type BranchHook<'a> = Box<
    dyn Fn(&Milp, &LpSolution) -> Option<(Vec<(usize, f64, f64)>, Vec<(usize, f64, f64)>)>
        + Send
        + Sync
        + 'a,
>;

/// Branch & bound driver.
pub struct BranchBound<'a> {
    model: &'a Milp,
    limits: BranchLimits,
    heuristic: Option<PrimalHeuristic<'a>>,
    crash: Option<CrashHook<'a>>,
    brancher: Option<BranchHook<'a>>,
    incumbent: Option<(f64, Vec<f64>)>,
    trajectory: Vec<GapPoint>,
    /// Objective provably integral on integral points (enables bound
    /// ceiling).
    integral_objective: bool,
}

#[derive(Debug)]
struct Node {
    bound: f64,
    id: u64,
    lower: Vec<f64>,
    upper: Vec<f64>,
    /// The parent's optimal basis, shared by both children (each child
    /// changed one bound, so the basis is dual feasible for both).
    /// `None` at the root or when the parent LP produced no basis.
    warm: Option<Arc<Basis>>,
}

impl PartialEq for Node {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id
    }
}
impl Eq for Node {}
impl Ord for Node {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap on (bound, id): reverse for BinaryHeap.
        other
            .bound
            .partial_cmp(&self.bound)
            .unwrap_or(Ordering::Equal)
            .then(other.id.cmp(&self.id))
    }
}
impl PartialOrd for Node {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<'a> BranchBound<'a> {
    /// A solver for `model` with the given limits.
    pub fn new(model: &'a Milp, limits: BranchLimits) -> BranchBound<'a> {
        let integral_objective = model.integral.iter().all(|&f| f)
            && model
                .objective
                .iter()
                .all(|c| (c - c.round()).abs() < 1e-12);
        BranchBound {
            model,
            limits,
            heuristic: None,
            crash: None,
            brancher: None,
            incumbent: None,
            trajectory: Vec::new(),
            integral_objective,
        }
    }

    /// Installs a crash-basis provider (see [`CrashHook`]).
    pub fn with_crash(mut self, crash: CrashHook<'a>) -> Self {
        self.crash = Some(crash);
        self
    }

    /// Installs a custom brancher (see [`BranchHook`] for the exactness
    /// contract).
    pub fn with_brancher(mut self, brancher: BranchHook<'a>) -> Self {
        self.brancher = Some(brancher);
        self
    }

    /// Installs a primal rounding heuristic.
    pub fn with_heuristic(mut self, heuristic: PrimalHeuristic<'a>) -> Self {
        self.heuristic = Some(heuristic);
        self
    }

    /// Seeds a known feasible point as the starting incumbent.
    ///
    /// # Errors
    /// Rejects an infeasible or fractional point — a wrong seed would
    /// silently destroy exactness, so callers must handle (or at least
    /// acknowledge) the failure instead of the solver aborting the
    /// process.
    pub fn with_incumbent(mut self, x: Vec<f64>) -> Result<Self, String> {
        self.model
            .check_feasible(&x, 1e-6)
            .map_err(|e| format!("seed incumbent infeasible: {e}"))?;
        if !self.model.is_integral(&x, INT_TOL) {
            return Err("seed incumbent is fractional".to_string());
        }
        let obj = self.model.objective_value(&x);
        self.offer_incumbent(obj, x, 0, None, f64::NEG_INFINITY);
        Ok(self)
    }

    /// Accepts `x` as the new incumbent when it improves on the current
    /// one, recording a trajectory point and emitting a `milp.incumbent`
    /// event. `nodes`/`start`/`bound` describe the search state at the
    /// moment of the offer; `start` is the solve's start instant (`None`
    /// for a pre-solve seed), read only when the offer is *accepted* so
    /// rejected offers stay clock-free.
    fn offer_incumbent(
        &mut self,
        obj: f64,
        x: Vec<f64>,
        nodes: usize,
        start: Option<Instant>,
        bound: f64,
    ) {
        if self
            .incumbent
            .as_ref()
            .is_none_or(|(best, _)| obj < best - BOUND_TOL)
        {
            self.incumbent = Some((obj, x));
            let point = GapPoint {
                nodes,
                elapsed: start.map_or(Duration::ZERO, |s| s.elapsed()),
                incumbent: obj,
                bound,
            };
            self.trajectory.push(point);
            if let Some(r) = dynp_obs::recorder() {
                r.event("milp.incumbent")
                    .kv("nodes", nodes)
                    .kv("objective", obj)
                    .kv(
                        "bound",
                        bound.is_finite().then_some(bound),
                    )
                    .kv("gap", point.gap())
                    .emit();
            }
        }
    }

    /// Lifts an LP bound using objective integrality when available.
    fn lift(&self, bound: f64) -> f64 {
        if self.integral_objective {
            (bound - 1e-6).ceil()
        } else {
            bound
        }
    }

    /// Runs the search to completion or a limit.
    pub fn solve(mut self) -> MipSolution {
        let solve_start = Instant::now();
        // The whole B&B search is one traced span (child of milp.solve
        // inside a campaign cell); per-node timing stays a plain
        // histogram span to keep the node loop cheap.
        let _search_span = dynp_obs::span("milp.search");
        // Metric handles are fetched once here; the round loop below only
        // touches atomics (or skips entirely when no recorder is
        // installed).
        let obs = dynp_obs::recorder();
        let m_nodes = obs.map(|r| r.counter("milp.nodes"));
        let m_open = obs.map(|r| r.gauge("milp.open_nodes"));
        let m_lp_iters = obs.map(|r| r.histogram("milp.lp_iterations"));
        let m_rounds = obs.map(|r| r.counter("milp.rounds"));
        let m_warm = obs.map(|r| r.counter("milp.warm_lps"));
        let m_cold = obs.map(|r| r.counter("milp.cold_lps"));
        let m_refactors = obs.map(|r| r.counter("milp.refactors"));
        let m_pivots = obs.map(|r| r.counter("milp.pivots"));
        let m_lu_nnz = obs.map(|r| r.counter("milp.lu_nnz"));
        let m_refactor_us = obs.map(|r| r.counter("milp.refactor_us"));
        let m_cleanup = obs.map(|r| r.counter("milp.cleanup_iterations"));
        let workers = self.limits.solver_workers.max(1);
        if let Some(r) = obs {
            r.gauge("milp.solver_workers").set(workers as i64);
        }
        let mut nodes_explored = 0usize;
        let mut lp_iterations = 0usize;
        let mut warm_lps = 0usize;
        let mut cold_lps = 0usize;
        let mut lp_stats = LpStats::default();
        let mut next_id = 0u64;
        let mut hit_limit = false;
        // Global lower bound starts at -inf and is the min over open nodes.
        let mut heap = BinaryHeap::new();
        heap.push(Node {
            bound: f64::NEG_INFINITY,
            id: next_id,
            lower: self.model.lower.clone(),
            upper: self.model.upper.clone(),
            warm: None,
        });
        next_id += 1;
        let mut proven_bound = f64::NEG_INFINITY;
        loop {
            // ---- Collect: pop the best open nodes for this round. ----
            //
            // Every stop condition is applied here, *in pop order and
            // before any LP runs*, so the batch — and with it the whole
            // explored tree — is a pure function of the model, the limits
            // and the search state, never of worker timing.
            let mut batch: Vec<Node> = Vec::with_capacity(ROUND_WIDTH);
            while batch.len() < ROUND_WIDTH {
                let Some(node) = heap.pop() else { break };
                if let Some((best, _)) = &self.incumbent {
                    if node.bound >= best - BOUND_TOL {
                        // Best-first: every other open node is no better.
                        // With nothing collected ahead of it the proof is
                        // complete (the empty batch ends the search
                        // below); otherwise the pending batch must merge
                        // first — it may improve the incumbent *and* push
                        // children below the bar — so the node goes back
                        // and the test re-runs next round.
                        if batch.is_empty() {
                            proven_bound = *best;
                        } else {
                            heap.push(node);
                        }
                        break;
                    }
                }
                let queued = nodes_explored + batch.len();
                // The wall clock is polled only every CLOCK_CHECK_EVERY
                // queued nodes, and only while a time limit is armed;
                // node-limited runs never read it here. The cooperative
                // cancel token (a campaign cell's wall-clock deadline) is
                // the external analogue of `time_limit`: the search winds
                // down exactly like any other exhausted budget, keeping
                // "CPLEX still running" a value, not an abort.
                let over_budget = queued >= self.limits.max_nodes
                    || lp_iterations >= self.limits.max_total_lp_iterations
                    || (queued.is_multiple_of(CLOCK_CHECK_EVERY)
                        && self
                            .limits
                            .time_limit
                            .is_some_and(|limit| solve_start.elapsed() >= limit))
                    || dynp_obs::cancelled();
                if over_budget {
                    // The triggering node goes back (its bound stays
                    // open); the batch already collected is still solved
                    // and merged — at most one round of work in flight —
                    // then the search winds down.
                    hit_limit = true;
                    heap.push(node);
                    break;
                }
                // The node will be explored this round, so its bound is
                // proven: pops are non-decreasing (best-first, and
                // children never bound below their parent's LP value),
                // hence everything still open is at least this.
                proven_bound = proven_bound.max(node.bound);
                batch.push(node);
            }
            if batch.is_empty() {
                // The heap ran dry, the proof completed, or a budget
                // fired before the first pop.
                break;
            }
            if let Some(m) = &m_rounds {
                m.inc();
            }
            if let Some(m) = &m_open {
                // All of heap plus the collected batch are still open.
                m.set((heap.len() + batch.len()) as i64);
            }
            let _round_span = Span::enter("milp.round");
            // ---- Solve: the batch's node LPs, concurrently. ----
            //
            // Each LP is a pure function of the model and the node's
            // bounds — never of the incumbent — so its result cannot
            // depend on scheduling. A node carrying its parent's optimal
            // basis is warm-started (dual-simplex repair, phase 1
            // skipped); the root, and any warm start the simplex rejects,
            // solves cold via the crash hook.
            let model = self.model;
            let crash = &self.crash;
            let max_lp_iterations = self.limits.max_lp_iterations;
            let outcomes = par::run_indexed(workers, &batch, |_, node| {
                let _lp_span = Span::enter("milp.lp");
                if let Some(warm) = &node.warm {
                    solve_warm(model, &node.lower, &node.upper, warm, max_lp_iterations)
                } else {
                    let start = crash.as_ref().and_then(|c| c(&node.lower, &node.upper));
                    let (outcome, stats) = solve_cold(
                        model,
                        &node.lower,
                        &node.upper,
                        start.as_ref(),
                        max_lp_iterations,
                    );
                    (outcome, false, stats)
                }
            });
            // ---- Merge: sequentially, in pop order. ----
            //
            // Bounds, incumbents, fixings and children are folded in the
            // same order a serial solver would produce them, so the merged
            // state after the round is independent of worker count.
            for (node, slot) in batch.into_iter().zip(outcomes) {
                nodes_explored += 1;
                let _node_span = Span::enter("milp.node");
                if let Some(m) = &m_nodes {
                    m.inc();
                }
                let (outcome, warmed, stats) = match slot {
                    par::SlotOutcome::Done(r) => r,
                    par::SlotOutcome::Panicked => {
                        // A dead LP cannot bound its subtree; exactness is
                        // lost if we drop it silently, so surface the
                        // failure as a limit (mirrors IterationLimit).
                        hit_limit = true;
                        continue;
                    }
                };
                lp_stats += stats;
                for (metric, value) in [
                    (&m_refactors, stats.refactors as u64),
                    (&m_pivots, stats.pivots as u64),
                    (&m_lu_nnz, stats.lu_nnz as u64),
                    (&m_refactor_us, stats.refactor_time.as_micros() as u64),
                    (&m_cleanup, stats.cleanup_iterations as u64),
                ] {
                    if let Some(m) = metric {
                        m.add(value);
                    }
                }
                if warmed {
                    warm_lps += 1;
                    if let Some(m) = &m_warm {
                        m.inc();
                    }
                } else {
                    cold_lps += 1;
                    if let Some(m) = &m_cold {
                        m.inc();
                    }
                }
                let sol = match outcome {
                    LpOutcome::Infeasible => continue,
                    LpOutcome::Optimal(s) => s,
                    LpOutcome::Unbounded | LpOutcome::IterationLimit => {
                        // Cannot bound this node; exactness is lost if we
                        // drop it, so surface the failure as a limit.
                        hit_limit = true;
                        continue;
                    }
                };
                lp_iterations += sol.iterations;
                if let Some(m) = &m_lp_iters {
                    m.record(sol.iterations as u64);
                }
                let bound = self.lift(sol.objective);
                if let Some((best, _)) = &self.incumbent {
                    if bound >= best - BOUND_TOL {
                        continue; // pruned by bound
                    }
                }
                // Reduced-cost fixing (valid for this node's whole
                // subtree): forcing a nonbasic variable off its bound
                // raises the LP value by at least its reduced cost; if
                // that lifted value reaches the incumbent, the variable
                // can be pinned to its bound.
                let mut node = node;
                if let Some((best, _)) = &self.incumbent {
                    for (j, &d) in sol.reduced_costs.iter().enumerate() {
                        if !self.model.integral[j] || node.lower[j] == node.upper[j] {
                            continue;
                        }
                        if d > 0.0 && sol.x[j] <= node.lower[j] + INT_TOL {
                            if self.lift(sol.objective + d) >= best - BOUND_TOL {
                                node.upper[j] = node.lower[j];
                            }
                        } else if d < 0.0
                            && sol.x[j] >= node.upper[j] - INT_TOL
                            && self.lift(sol.objective - d) >= best - BOUND_TOL
                        {
                            node.lower[j] = node.upper[j];
                        }
                    }
                }
                // Integral? New incumbent.
                if self.model.is_integral(&sol.x, INT_TOL) {
                    let rounded: Vec<f64> = sol
                        .x
                        .iter()
                        .zip(&self.model.integral)
                        .map(|(&v, &f)| if f { v.round() } else { v })
                        .collect();
                    // Guard against numerical drift: only a verified-
                    // feasible point may prune the tree. A failed check
                    // degrades the final status to Feasible instead of
                    // corrupting exactness.
                    if self.model.check_feasible(&rounded, 1e-5).is_ok() {
                        let obj = self.model.objective_value(&rounded);
                        self.offer_incumbent(
                            obj,
                            rounded,
                            nodes_explored,
                            Some(solve_start),
                            proven_bound,
                        );
                    } else {
                        debug_assert!(false, "integral LP point failed feasibility");
                        hit_limit = true;
                    }
                    continue;
                }
                // Primal heuristic on fractional solutions.
                if let Some(h) = &self.heuristic {
                    if let Some(hx) = h(self.model, &sol) {
                        if self.model.check_feasible(&hx, 1e-6).is_ok()
                            && self.model.is_integral(&hx, INT_TOL)
                        {
                            let obj = self.model.objective_value(&hx);
                            self.offer_incumbent(
                                obj,
                                hx,
                                nodes_explored,
                                Some(solve_start),
                                proven_bound,
                            );
                        }
                    }
                }
                // Both children differ from this node by one variable
                // bound, so this node's optimal basis warm-starts their
                // LPs (shared — it is read-only on the workers).
                let warm = sol.basis.clone().map(Arc::new);
                // Custom (e.g. SOS) branching first, when installed.
                if let Some(brancher) = &self.brancher {
                    if let Some((mods_a, mods_b)) = brancher(self.model, &sol) {
                        for mods in [mods_a, mods_b] {
                            let mut child = Node {
                                bound,
                                id: next_id,
                                lower: node.lower.clone(),
                                upper: node.upper.clone(),
                                warm: warm.clone(),
                            };
                            next_id += 1;
                            let mut feasible = true;
                            for (var, lo, hi) in mods {
                                child.lower[var] = child.lower[var].max(lo);
                                child.upper[var] = child.upper[var].min(hi);
                                if child.lower[var] > child.upper[var] {
                                    feasible = false;
                                    break;
                                }
                            }
                            if feasible {
                                heap.push(child);
                            }
                        }
                        continue;
                    }
                }
                // Branch on the most fractional integral variable.
                let branch_var = sol
                    .x
                    .iter()
                    .enumerate()
                    .filter(|&(j, _)| self.model.integral[j])
                    .map(|(j, &v)| (j, (v - v.round()).abs()))
                    .filter(|&(_, frac)| frac > INT_TOL)
                    .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(Ordering::Equal))
                    .map(|(j, _)| j)
                    .expect("fractional solution has a fractional integral var");
                let v = sol.x[branch_var];
                // Down child: x_j <= floor(v); up child: x_j >= ceil(v).
                let mut down = Node {
                    bound,
                    id: next_id,
                    lower: node.lower.clone(),
                    upper: node.upper.clone(),
                    warm: warm.clone(),
                };
                next_id += 1;
                down.upper[branch_var] = v.floor();
                if down.lower[branch_var] <= down.upper[branch_var] {
                    heap.push(down);
                }
                let mut up = Node {
                    bound,
                    id: next_id,
                    lower: node.lower,
                    upper: node.upper,
                    warm,
                };
                next_id += 1;
                up.lower[branch_var] = v.ceil();
                if up.lower[branch_var] <= up.upper[branch_var] {
                    heap.push(up);
                }
            }
            if hit_limit {
                break;
            }
        }
        // If the tree is exhausted, the proof is complete.
        let exhausted = heap.is_empty() && !hit_limit;
        let (status, objective, x) = match (self.incumbent, exhausted) {
            (Some((obj, x)), true) => (MipStatus::Optimal, Some(obj), Some(x)),
            (Some((obj, x)), false) => {
                // Stopped early — the incumbent may or may not be optimal.
                // If the break came from the bound test, it *is* optimal.
                let status = if hit_limit {
                    MipStatus::Feasible
                } else {
                    MipStatus::Optimal
                };
                (status, Some(obj), Some(x))
            }
            (None, true) => (MipStatus::Infeasible, None, None),
            (None, false) => (MipStatus::Unknown, None, None),
        };
        let best_bound = match status {
            MipStatus::Optimal => objective.unwrap(),
            _ => heap
                .peek()
                .map(|n| n.bound)
                .unwrap_or(proven_bound)
                .max(proven_bound),
        };
        let wall_time = solve_start.elapsed();
        // Close the trajectory: the exit point carries the final bound,
        // so the last gap always matches `MipSolution::gap()`.
        let mut trajectory = std::mem::take(&mut self.trajectory);
        if let Some(obj) = objective {
            trajectory.push(GapPoint {
                nodes: nodes_explored,
                elapsed: wall_time,
                incumbent: obj,
                bound: best_bound,
            });
        }
        if let Some(r) = obs {
            if hit_limit {
                // Budget-exhausted solves are what the online
                // "milp-budget-exhaustion" alert rate-watches.
                r.counter("milp.budget_exhausted").inc();
            }
            r.event("milp.exit")
                .kv("status", format!("{status:?}"))
                .kv("nodes", nodes_explored)
                .kv("lp_iterations", lp_iterations)
                .kv("warm_lps", warm_lps)
                .kv("cold_lps", cold_lps)
                .kv("refactors", lp_stats.refactors)
                .kv("pivots", lp_stats.pivots)
                .kv("lu_nnz", lp_stats.lu_nnz)
                .kv("objective", objective)
                .kv(
                    "bound",
                    best_bound.is_finite().then_some(best_bound),
                )
                .kv(
                    "gap",
                    trajectory.last().and_then(GapPoint::gap),
                )
                .kv("wall_secs", wall_time.as_secs_f64())
                .emit();
        }
        MipSolution {
            status,
            objective,
            x,
            best_bound,
            nodes: nodes_explored,
            lp_iterations,
            warm_lps,
            cold_lps,
            lp_stats,
            wall_time,
            trajectory,
        }
    }
}

/// Convenience: solve `model` with `limits`.
pub fn solve_mip(model: &Milp, limits: BranchLimits) -> MipSolution {
    BranchBound::new(model, limits).solve()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Sense;
    use crate::sparse::CscMatrix;

    /// Brute-force optimum over {0,1}^n for cross-checking.
    fn brute_force(model: &Milp) -> Option<(f64, Vec<f64>)> {
        let n = model.num_vars();
        assert!(n <= 20);
        let mut best: Option<(f64, Vec<f64>)> = None;
        for mask in 0u32..(1 << n) {
            let x: Vec<f64> = (0..n).map(|j| ((mask >> j) & 1) as f64).collect();
            if model.check_feasible(&x, 1e-9).is_ok() {
                let obj = model.objective_value(&x);
                if best.as_ref().is_none_or(|(b, _)| obj < *b) {
                    best = Some((obj, x));
                }
            }
        }
        best
    }

    fn knapsack(values: &[f64], weights: &[f64], cap: f64) -> Milp {
        // max v.x s.t. w.x <= cap -> min -v.x
        Milp::binary(
            values.iter().map(|v| -v).collect(),
            CscMatrix::from_dense(&[weights.to_vec()]),
            vec![Sense::Le],
            vec![cap],
        )
    }

    #[test]
    fn knapsack_optimum_matches_brute_force() {
        let m = knapsack(
            &[10.0, 13.0, 7.0, 8.0, 2.0],
            &[5.0, 6.0, 3.0, 4.0, 1.0],
            10.0,
        );
        let sol = solve_mip(&m, BranchLimits::default());
        assert_eq!(sol.status, MipStatus::Optimal);
        let (bf_obj, _) = brute_force(&m).unwrap();
        assert!((sol.objective.unwrap() - bf_obj).abs() < 1e-6);
        assert!((sol.best_bound - bf_obj).abs() < 1e-6);
    }

    #[test]
    fn assignment_problem_exact() {
        // 3 jobs, 3 slots, each slot holds one job; costs force a unique
        // optimal matching.
        let costs = [[4.0, 2.0, 8.0], [4.0, 3.0, 7.0], [3.0, 1.0, 6.0]];
        let n = 3;
        let mut rows = vec![vec![0.0; n * n]; 2 * n];
        for i in 0..n {
            for t in 0..n {
                rows[i][i * n + t] = 1.0; // job i assigned once
                rows[n + t][i * n + t] = 1.0; // slot t used once
            }
        }
        let mut senses = vec![Sense::Eq; n];
        senses.extend(vec![Sense::Le; n]);
        let mut rhs = vec![1.0; n];
        rhs.extend(vec![1.0; n]);
        let m = Milp::binary(
            costs.iter().flatten().copied().collect(),
            CscMatrix::from_dense(&rows),
            senses,
            rhs,
        );
        let sol = solve_mip(&m, BranchLimits::default());
        assert_eq!(sol.status, MipStatus::Optimal);
        let (bf_obj, _) = brute_force(&m).unwrap();
        assert!((sol.objective.unwrap() - bf_obj).abs() < 1e-6);
    }

    #[test]
    fn infeasible_model_detected() {
        // x0 + x1 >= 3 with binaries.
        let m = Milp::binary(
            vec![1.0, 1.0],
            CscMatrix::from_dense(&[vec![1.0, 1.0]]),
            vec![Sense::Ge],
            vec![3.0],
        );
        let sol = solve_mip(&m, BranchLimits::default());
        assert_eq!(sol.status, MipStatus::Infeasible);
        assert!(sol.objective.is_none());
    }

    #[test]
    fn node_limit_degrades_to_feasible_or_unknown() {
        let m = knapsack(
            &[10.0, 13.0, 7.0, 8.0, 2.0, 9.0, 4.0],
            &[5.0, 6.0, 3.0, 4.0, 1.0, 5.0, 2.0],
            12.0,
        );
        let sol = solve_mip(
            &m,
            BranchLimits {
                max_nodes: 1,
                ..BranchLimits::default()
            },
        );
        assert!(matches!(
            sol.status,
            MipStatus::Feasible | MipStatus::Unknown
        ));
        // The bound must still be a valid lower bound.
        let (bf_obj, _) = brute_force(&m).unwrap();
        assert!(sol.best_bound <= bf_obj + 1e-6);
    }

    #[test]
    fn incumbent_seeding_is_used() {
        let m = knapsack(&[5.0, 4.0], &[3.0, 3.0], 3.0);
        // Feasible seed: take item 1.
        let sol = BranchBound::new(&m, BranchLimits::default())
            .with_incumbent(vec![0.0, 1.0])
            .expect("seed is feasible")
            .solve();
        assert_eq!(sol.status, MipStatus::Optimal);
        // Optimum is item 0 (value 5) and must beat the seed (value 4).
        assert!((sol.objective.unwrap() + 5.0).abs() < 1e-6);
        // The trajectory starts at the seed (nodes 0, unbounded) and ends
        // at the proven optimum.
        assert!(sol.trajectory.len() >= 2);
        assert_eq!(sol.trajectory[0].nodes, 0);
        assert!((sol.trajectory[0].incumbent + 4.0).abs() < 1e-6);
        assert_eq!(sol.trajectory[0].gap(), None);
        assert!(sol.trajectory.last().unwrap().gap().unwrap() < 1e-9);
    }

    #[test]
    fn bad_seed_is_rejected() {
        let m = knapsack(&[5.0, 4.0], &[3.0, 3.0], 3.0);
        let Err(err) = BranchBound::new(&m, BranchLimits::default()).with_incumbent(vec![1.0, 1.0])
        else {
            panic!("infeasible seed accepted")
        };
        assert!(err.contains("infeasible"), "unexpected error: {err}");
    }

    #[test]
    fn fractional_seed_is_rejected() {
        let m = knapsack(&[5.0, 4.0], &[3.0, 3.0], 3.0);
        let Err(err) = BranchBound::new(&m, BranchLimits::default()).with_incumbent(vec![0.5, 0.0])
        else {
            panic!("fractional seed accepted")
        };
        assert!(err.contains("fractional"), "unexpected error: {err}");
    }

    #[test]
    fn heuristic_improves_incumbent() {
        let m = knapsack(&[10.0, 13.0, 7.0], &[5.0, 6.0, 3.0], 8.0);
        // Hooks are `Send + Sync` (they may run on LP workers), so the
        // test flag must be too.
        let called = std::sync::atomic::AtomicBool::new(false);
        let sol = BranchBound::new(&m, BranchLimits::default())
            .with_heuristic(Box::new(|model, lp| {
                called.store(true, std::sync::atomic::Ordering::Relaxed);
                // Greedy rounding: take items by LP weight while feasible.
                let mut order: Vec<usize> = (0..lp.x.len()).collect();
                order.sort_by(|&a, &b| lp.x[b].partial_cmp(&lp.x[a]).unwrap());
                let mut x = vec![0.0; lp.x.len()];
                for j in order {
                    x[j] = 1.0;
                    if model.check_feasible(&x, 1e-9).is_err() {
                        x[j] = 0.0;
                    }
                }
                Some(x)
            }))
            .solve();
        assert_eq!(sol.status, MipStatus::Optimal);
        let (bf_obj, _) = brute_force(&m).unwrap();
        assert!((sol.objective.unwrap() - bf_obj).abs() < 1e-6);
        assert!(
            called.load(std::sync::atomic::Ordering::Relaxed),
            "heuristic was never invoked"
        );
    }

    #[test]
    fn integral_objective_rounding_enabled_for_integer_costs() {
        let m = knapsack(&[3.0, 2.0], &[2.0, 2.0], 3.0);
        let bb = BranchBound::new(&m, BranchLimits::default());
        assert!(bb.integral_objective);
        assert_eq!(bb.lift(-2.7), -2.0);
    }

    #[test]
    fn random_instances_match_brute_force() {
        // Deterministic pseudo-random small instances.
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _case in 0..25 {
            let n = 3 + (next() % 5) as usize; // 3..7 vars
            let values: Vec<f64> = (0..n).map(|_| (next() % 20) as f64).collect();
            let weights: Vec<f64> = (0..n).map(|_| 1.0 + (next() % 9) as f64).collect();
            let cap = 1.0 + (next() % 20) as f64;
            let m = knapsack(&values, &weights, cap);
            let sol = solve_mip(&m, BranchLimits::default());
            assert_eq!(sol.status, MipStatus::Optimal);
            let (bf_obj, _) = brute_force(&m).unwrap();
            assert!(
                (sol.objective.unwrap() - bf_obj).abs() < 1e-6,
                "mismatch: mip {} vs brute {} on v={values:?} w={weights:?} c={cap}",
                sol.objective.unwrap(),
                bf_obj
            );
        }
    }

    #[test]
    fn gap_is_zero_at_optimality() {
        let m = knapsack(&[10.0, 13.0], &[5.0, 6.0], 10.0);
        let sol = solve_mip(&m, BranchLimits::default());
        assert_eq!(sol.status, MipStatus::Optimal);
        assert!(sol.gap().unwrap() < 1e-9);
    }

    #[test]
    fn gap_is_none_without_incumbent() {
        // Infeasible model: no incumbent ever exists.
        let m = Milp::binary(
            vec![1.0, 1.0],
            CscMatrix::from_dense(&[vec![1.0, 1.0]]),
            vec![Sense::Ge],
            vec![3.0],
        );
        let sol = solve_mip(&m, BranchLimits::default());
        assert_eq!(sol.gap(), None);
        assert!(sol.trajectory.is_empty());
        // Same for a node limit of zero on a feasible model.
        let m = knapsack(&[5.0], &[1.0], 1.0);
        let sol = solve_mip(
            &m,
            BranchLimits {
                max_nodes: 0,
                ..BranchLimits::default()
            },
        );
        assert_eq!(sol.status, MipStatus::Unknown);
        assert_eq!(sol.gap(), None);
    }

    #[test]
    fn gap_is_positive_when_stopped_early() {
        // Seed an incumbent, then stop after one node: the proof is
        // incomplete, so the reported gap must be strictly positive.
        let m = knapsack(
            &[10.0, 13.0, 7.0, 8.0, 2.0, 9.0, 4.0],
            &[5.0, 6.0, 3.0, 4.0, 1.0, 5.0, 2.0],
            12.0,
        );
        // Feasible but far-from-optimal seed: only the lightest item.
        let seed = vec![0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0];
        let sol = BranchBound::new(
            &m,
            BranchLimits {
                max_nodes: 1,
                ..BranchLimits::default()
            },
        )
        .with_incumbent(seed)
        .unwrap()
        .solve();
        assert_eq!(sol.status, MipStatus::Feasible);
        let gap = sol.gap().expect("incumbent exists");
        assert!(gap > 0.0, "gap should be open, got {gap}");
    }

    #[test]
    fn solutions_are_byte_identical_across_worker_counts() {
        // The tentpole guarantee: worker count buys wall-clock time only.
        // Everything the search decided — tree, counts, trajectory —
        // renders byte-identically at 1, 2 and 4 workers. The instance is
        // the one `gap_is_positive_when_stopped_early` shows needs a real
        // tree (its root LP is fractional).
        let m = knapsack(
            &[10.0, 13.0, 7.0, 8.0, 2.0, 9.0, 4.0],
            &[5.0, 6.0, 3.0, 4.0, 1.0, 5.0, 2.0],
            12.0,
        );
        let render = |workers: usize| {
            solve_mip(
                &m,
                BranchLimits {
                    solver_workers: workers,
                    ..BranchLimits::default()
                },
            )
            .canonical_json()
            .to_json_pretty()
        };
        let serial = render(1);
        assert_eq!(serial, render(2), "2 workers diverged from serial");
        assert_eq!(serial, render(4), "4 workers diverged from serial");
        // And the same under a node budget, where the stop condition
        // itself must land on the same node regardless of workers.
        let render_limited = |workers: usize| {
            solve_mip(
                &m,
                BranchLimits {
                    solver_workers: workers,
                    max_nodes: 5,
                    ..BranchLimits::default()
                },
            )
            .canonical_json()
            .to_json_pretty()
        };
        let serial = render_limited(1);
        assert_eq!(serial, render_limited(2));
        assert_eq!(serial, render_limited(4));
    }

    #[test]
    fn warm_starts_are_used_and_counted() {
        let m = knapsack(
            &[10.0, 13.0, 7.0, 8.0, 2.0, 9.0, 4.0, 6.0],
            &[5.0, 6.0, 3.0, 4.0, 1.0, 5.0, 2.0, 3.0],
            14.0,
        );
        let sol = solve_mip(&m, BranchLimits::default());
        assert_eq!(sol.status, MipStatus::Optimal);
        // Every explored node's LP is classified exactly once; LPs that
        // die mid-solve (never here) are the only gap.
        assert_eq!(sol.warm_lps + sol.cold_lps, sol.nodes);
        // Only the root must solve cold; children inherit its basis.
        assert!(sol.cold_lps >= 1, "the root LP cannot be warm");
        if sol.nodes > 1 {
            assert!(sol.warm_lps > 0, "no child LP was warm-started");
        }
    }

    #[test]
    fn total_lp_iteration_cap_stops_the_search() {
        // Fractional at the root (see the byte-identity test), so the
        // unlimited solve needs several LPs and the cap has teeth.
        let m = knapsack(
            &[10.0, 13.0, 7.0, 8.0, 2.0, 9.0, 4.0],
            &[5.0, 6.0, 3.0, 4.0, 1.0, 5.0, 2.0],
            12.0,
        );
        let unlimited = solve_mip(&m, BranchLimits::default());
        assert_eq!(unlimited.status, MipStatus::Optimal);
        assert!(unlimited.lp_iterations > 1);
        // A cap of 1 fires as soon as the root's iterations land: the
        // check runs when a round is collected, so the overshoot is at
        // most one round of LPs.
        let capped = solve_mip(
            &m,
            BranchLimits {
                max_total_lp_iterations: 1,
                ..BranchLimits::default()
            },
        );
        assert!(matches!(
            capped.status,
            MipStatus::Feasible | MipStatus::Unknown
        ));
        assert!(capped.nodes <= ROUND_WIDTH * 2);
        assert!(capped.lp_iterations < unlimited.lp_iterations);
        // The bound reported under the cap is still a valid lower bound.
        let (bf_obj, _) = brute_force(&m).unwrap();
        assert!(capped.best_bound <= bf_obj + 1e-6);
        // A cap of zero stops before any LP runs.
        let zero = solve_mip(
            &m,
            BranchLimits {
                max_total_lp_iterations: 0,
                ..BranchLimits::default()
            },
        );
        assert_eq!(zero.status, MipStatus::Unknown);
        assert_eq!(zero.nodes, 0);
        assert_eq!(zero.lp_iterations, 0);
    }

    #[test]
    fn gap_trajectory_is_monotone_non_increasing() {
        let m = knapsack(
            &[10.0, 13.0, 7.0, 8.0, 2.0, 9.0, 4.0, 6.0],
            &[5.0, 6.0, 3.0, 4.0, 1.0, 5.0, 2.0, 3.0],
            14.0,
        );
        let sol = solve_mip(&m, BranchLimits::default());
        assert_eq!(sol.status, MipStatus::Optimal);
        assert!(!sol.trajectory.is_empty());
        // Incumbents only ever improve and bounds only ever tighten, so
        // wherever the gap is defined it must not increase; node counts
        // are non-decreasing too.
        let mut last_gap = f64::INFINITY;
        let mut last_nodes = 0;
        for point in &sol.trajectory {
            assert!(point.nodes >= last_nodes);
            last_nodes = point.nodes;
            if let Some(gap) = point.gap() {
                assert!(
                    gap <= last_gap + 1e-12,
                    "gap widened: {last_gap} -> {gap}"
                );
                last_gap = gap;
            }
        }
        // The final point agrees with the solution-level gap.
        assert!(
            (sol.trajectory.last().unwrap().gap().unwrap() - sol.gap().unwrap()).abs() < 1e-12
        );
    }
}
