//! A bounded-variable, two-phase revised primal simplex, with a dual
//! simplex repair for warm starts.
//!
//! This is the LP engine under the branch & bound of [`crate::branch`]. It
//! is written for the structure of time-indexed scheduling relaxations —
//! many binary-bounded columns, few rows — but is a general solver:
//!
//! * variables with finite lower/upper bounds (slacks unbounded above),
//! * all three constraint senses (slack/surplus added internally),
//! * phase 1 over a full artificial basis (artificials are fixed to zero
//!   afterwards, which safely neutralizes redundant rows),
//! * a sparse LU of the basis with one product-form eta column per pivot
//!   ([`crate::lu`]), refactorized when the eta file grows too long or
//!   too dense,
//! * the pivot row `αᵣ = ρᵣᵀA` formed row-wise from the matrix's
//!   row-major copy ([`crate::sparse::CscMatrix::row_major`]), visiting
//!   only the rows where `ρᵣ` is non-zero,
//! * reduced costs and the phase objective updated from that pivot row
//!   on every pivot, and recomputed from scratch at every
//!   refactorization, every change of cost vector, and before a phase
//!   declares optimality or unboundedness — so pricing and the dual
//!   ratio test read a maintained vector instead of a column dot product
//!   per column,
//! * per refactorization window, primal pricing from that maintained
//!   vector or partially from freshly computed duals, whichever visited
//!   fewer matrix entries per iteration when last measured (a pivot row
//!   of a very wide model costs more than a pricing block),
//! * Dantzig pricing over rotating blocks with a permanent switch to
//!   Bland's rule after a stall, guaranteeing termination.
//!
//! Determinism: no randomness, and the iteration limit is the only
//! resource bound, so results are reproducible bit-for-bit. The wall
//! clock is read once per refactorization, only to report its time in
//! [`LpStats`].

// The kernels below walk parallel per-row arrays (basis, FTRAN'd
// columns, basic values) by position; iterator adaptors obscure the math
// there.
#![allow(clippy::needless_range_loop)]

use std::ops::AddAssign;
use std::time::{Duration, Instant};

use crate::lu::BasisLu;
use crate::model::{Milp, Sense};
use crate::sparse::{CscBuilder, CscMatrix, CsrMatrix};

/// Feasibility / optimality tolerance.
const TOL: f64 = 1e-7;
/// Smallest pivot magnitude accepted.
const PIVOT_TOL: f64 = 1e-9;
/// Relative disagreement between a pivot element computed from the pivot
/// row and from the entering column beyond which the factorization is
/// renewed at the next iteration.
const DRIFT_TOL: f64 = 1e-7;
/// Switch from Dantzig to Bland pricing after this many iterations without
/// improvement, to break degenerate cycles.
const STALL_LIMIT: usize = 512;
/// Column block size for partial pricing.
const PARTIAL_BLOCK: usize = 512;

/// How a primal phase prices, chosen per refactorization window from the
/// work each way measurably costs.
///
/// *Maintained* pricing reads `d`, which every pivot updates from the
/// pivot row `ρᵀA`. *Partial* pricing recomputes `y = B⁻ᵀc_B` every
/// iteration and the reduced costs of the columns it scans, block by
/// block, and stops maintaining `d`. Both BTRAN once per iteration, so
/// they are compared on the matrix entries they visit beyond that: a
/// pivot row visits the rows where `ρ` is non-zero plus one entry per
/// column for the update, a partial pass visits the columns it scans.
/// Work is counted, not timed, so the choice — and with it the LP — stays
/// a pure function of the model, its bounds and its start.
#[derive(Clone, Copy, Debug, Default)]
struct PricingWork {
    /// Mean entries a pivot row visited, over the last window that
    /// formed one (primal or dual).
    row: Option<f64>,
    /// Mean entries a partial pricing pass visited, over the last window
    /// that priced partially.
    scan: Option<f64>,
    /// The open window's totals: entries and count of pivot rows, and of
    /// partial pricing passes.
    row_work: usize,
    rows: usize,
    scan_work: usize,
    scans: usize,
}

impl PricingWork {
    /// Closes the window at a refactorization: its means replace the
    /// older ones of whichever kinds of work it did.
    fn close_window(&mut self) {
        if self.rows > 0 {
            self.row = Some(self.row_work as f64 / self.rows as f64);
        }
        if self.scans > 0 {
            self.scan = Some(self.scan_work as f64 / self.scans as f64);
        }
        (self.row_work, self.rows, self.scan_work, self.scans) = (0, 0, 0, 0);
    }

    /// Whether partial pricing is the cheaper way for the next window.
    /// Until partial pricing has been measured, one pricing block
    /// (`block`, its least cost) stands in for it; a window of it then
    /// measures the real cost, and the next refactorization switches
    /// back if maintaining `d` was cheaper after all.
    fn prefer_partial(&self, block: f64) -> bool {
        self.row.is_some_and(|row| self.scan.unwrap_or(block) < row)
    }
}

/// Work counters of one LP solve. They are counted per factorization and
/// per pivot; only factorizations are timed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LpStats {
    /// Basis factorizations built.
    pub refactors: usize,
    /// Basis changes, each of which appends one eta column.
    pub pivots: usize,
    /// Non-zeros of every factorization built plus every eta column
    /// appended.
    pub lu_nnz: usize,
    /// Iterations of the final pass on the true (unperturbed) costs.
    pub cleanup_iterations: usize,
    /// Wall time spent building factorizations.
    pub refactor_time: Duration,
}

impl AddAssign for LpStats {
    fn add_assign(&mut self, other: LpStats) {
        self.refactors += other.refactors;
        self.pivots += other.pivots;
        self.lu_nnz += other.lu_nnz;
        self.cleanup_iterations += other.cleanup_iterations;
        self.refactor_time += other.refactor_time;
    }
}

/// A solved LP relaxation.
#[derive(Clone, Debug)]
pub struct LpSolution {
    /// Optimal objective value.
    pub objective: f64,
    /// Values of the *structural* variables (slacks stripped).
    pub x: Vec<f64>,
    /// Phase-2 reduced costs of the structural variables (0 for basic
    /// ones). At optimality these certify the bound and enable
    /// reduced-cost fixing in branch & bound: forcing a nonbasic variable
    /// off its bound costs at least its reduced cost.
    pub reduced_costs: Vec<f64>,
    /// Simplex iterations used (both phases).
    pub iterations: usize,
    /// The optimal basis, captured for warm-starting child node LPs (see
    /// [`Basis`]). `None` only when the solve path cannot certify a basis
    /// worth reusing.
    pub basis: Option<Basis>,
    /// Factorization and pivot counters, abandoned attempts included.
    pub stats: LpStats,
}

/// An optimal basis captured from a solved LP, reusable to warm-start a
/// *child* LP whose only difference is tightened variable bounds (the
/// branch & bound case: one branching variable's bound changed).
///
/// Indexing follows the solver's internal layout (see [`SimplexStart`]):
/// structural variables `0..n`, then one slack per inequality row, then
/// one artificial per row. Unlike a crash basis, a captured basis may
/// contain artificials (they stay basic at zero on redundant rows) and
/// need not be primal feasible for the child — the same basis stays
/// *dual* feasible when only bounds change, so the warm path repairs
/// primal feasibility with dual simplex pivots instead of re-running
/// phase 1.
#[derive(Clone, Debug)]
pub struct Basis {
    /// Basic variable per row.
    pub basis: Vec<usize>,
    /// Nonbasic variables resting at their upper bound; all other
    /// nonbasic variables rest at their lower bound.
    pub at_upper: Vec<usize>,
}

/// Outcome of an LP solve.
#[derive(Clone, Debug)]
pub enum LpOutcome {
    /// Proven optimal.
    Optimal(LpSolution),
    /// No feasible point exists (within tolerance).
    Infeasible,
    /// The objective is unbounded below.
    Unbounded,
    /// Gave up after the iteration limit; no usable bound.
    IterationLimit,
}

impl LpOutcome {
    /// The solution if optimal.
    pub fn optimal(&self) -> Option<&LpSolution> {
        match self {
            LpOutcome::Optimal(s) => Some(s),
            _ => None,
        }
    }
}

/// A primal-feasible starting basis ("crash basis") that skips phase 1.
///
/// `basis[i]` is the variable basic in row `i`. Variable indexing follows
/// the solver's internal layout: structural variables are `0..n`, and the
/// slack of the `k`-th **inequality** row (counting only `≤`/`≥` rows, in
/// row order) has index `n + k`. `at_upper` lists nonbasic variables
/// resting at their *upper* bound; all other nonbasic variables rest at
/// their lower bound.
///
/// The solver factorizes the basis (a triangular crash factors in the
/// singleton passes alone) and verifies it is nonsingular and primal
/// feasible within tolerance, silently falling back to the artificial
/// phase-1 start if not, so a wrong crash can cost time but never
/// correctness.
#[derive(Clone, Debug)]
pub struct SimplexStart {
    /// Basic variable per row.
    pub basis: Vec<usize>,
    /// Nonbasic variables parked at their upper bound.
    pub at_upper: Vec<usize>,
}

/// Solves the LP relaxation of `model` with overridden variable bounds
/// (`node_lower` / `node_upper`, as branch & bound fixes variables).
/// Integrality flags are ignored.
pub fn solve_lp_with_bounds(
    model: &Milp,
    node_lower: &[f64],
    node_upper: &[f64],
    max_iterations: usize,
) -> LpOutcome {
    solve_lp_with_start(model, node_lower, node_upper, None, max_iterations)
}

/// Like [`solve_lp_with_bounds`], optionally crash-starting from a caller
/// supplied basis (see [`SimplexStart`]).
pub fn solve_lp_with_start(
    model: &Milp,
    node_lower: &[f64],
    node_upper: &[f64],
    start: Option<&SimplexStart>,
    max_iterations: usize,
) -> LpOutcome {
    solve_cold(model, node_lower, node_upper, start, max_iterations).0
}

/// Solves the plain LP relaxation of `model`.
pub fn solve_lp(model: &Milp, max_iterations: usize) -> LpOutcome {
    solve_lp_with_bounds(model, &model.lower, &model.upper, max_iterations)
}

/// Like [`solve_lp_with_bounds`], warm-starting from a parent node's
/// captured optimal [`Basis`]: the basis is re-installed under the child
/// bounds, factorized, and repaired with dual simplex pivots — skipping
/// phase 1 entirely on the usual branch & bound path where only one
/// variable's bound changed.
///
/// Returns the outcome plus whether the warm path was actually used.
/// Every failure mode — stale basis (wrong length, duplicates,
/// singular), a dual stall, numerical trouble — falls back to the cold
/// two-phase solve, so a bad basis costs time, never correctness. The
/// fallback's iteration count includes the pivots wasted on the abandoned
/// warm attempt, keeping budget accounting honest and deterministic.
pub fn solve_lp_warm(
    model: &Milp,
    node_lower: &[f64],
    node_upper: &[f64],
    warm: &Basis,
    max_iterations: usize,
) -> (LpOutcome, bool) {
    let (out, warmed, _) = solve_warm(model, node_lower, node_upper, warm, max_iterations);
    (out, warmed)
}

/// [`solve_lp_with_start`], also returning the work counters, which
/// every outcome has (an infeasible LP factorizes and pivots too).
pub(crate) fn solve_cold(
    model: &Milp,
    node_lower: &[f64],
    node_upper: &[f64],
    start: Option<&SimplexStart>,
    max_iterations: usize,
) -> (LpOutcome, LpStats) {
    let mut simplex = Simplex::new(model, node_lower, node_upper);
    let crashed = start.is_some_and(|s| simplex.try_crash(s));
    simplex.solve(max_iterations, crashed)
}

/// [`solve_lp_warm`], also returning the work counters.
pub(crate) fn solve_warm(
    model: &Milp,
    node_lower: &[f64],
    node_upper: &[f64],
    warm: &Basis,
    max_iterations: usize,
) -> (LpOutcome, bool, LpStats) {
    let mut simplex = Simplex::new(model, node_lower, node_upper);
    let mut wasted = 0;
    if simplex.try_warm(warm) {
        match simplex.solve_from_warm(max_iterations) {
            WarmResult::Done(out) => {
                let (out, stats) = with_stats(out, simplex.stats);
                return (out, true, stats);
            }
            WarmResult::Fallback => wasted = simplex.iterations,
        }
    }
    let (mut out, mut stats) = solve_cold(model, node_lower, node_upper, None, max_iterations);
    stats += simplex.stats;
    if let LpOutcome::Optimal(s) = &mut out {
        s.iterations += wasted;
        s.stats = stats;
    }
    (out, false, stats)
}

/// The basis matrix of `basis` (internal indexing, see [`Basis`]) for
/// `model`, as the solver factorizes it.
#[cfg(test)]
pub(crate) fn basis_matrix_of(model: &Milp, basis: &[usize]) -> CscMatrix {
    let mut sx = Simplex::new(model, &model.lower, &model.upper);
    sx.basis = basis.to_vec();
    sx.basis_matrix()
}

/// Stamps `stats` onto an optimal solution and returns both.
fn with_stats(mut out: LpOutcome, stats: LpStats) -> (LpOutcome, LpStats) {
    if let LpOutcome::Optimal(s) = &mut out {
        s.stats = stats;
    }
    (out, stats)
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum VarState {
    Basic,
    AtLower,
    AtUpper,
}

struct Simplex<'a> {
    model: &'a Milp,
    /// Row-major copy of the constraint matrix, for pivot rows.
    rows: &'a CsrMatrix,
    m: usize,
    n_struct: usize,
    n_slack: usize,
    n_total: usize,
    /// Row and sign of each slack variable.
    slack_row: Vec<usize>,
    slack_sign: Vec<f64>,
    /// Sign of the artificial column in each row.
    art_sign: Vec<f64>,
    lower: Vec<f64>,
    upper: Vec<f64>,
    basis: Vec<usize>,
    state: Vec<VarState>,
    /// Factorization of the basis matrix plus its eta file.
    lu: BasisLu,
    /// Set when a pivot element computed two ways disagreed: the next
    /// iteration refactorizes whatever the eta file's size.
    drifted: bool,
    /// Current values of all variables.
    x: Vec<f64>,
    /// Reduced costs of all variables (0 for basic ones) under the cost
    /// vector named by `priced`.
    d: Vec<f64>,
    /// Phase objective under the same cost vector.
    obj: f64,
    /// The cost vector `d` and `obj` refer to, as `(phase1, perturbed)`;
    /// `None` until first priced.
    priced: Option<(bool, bool)>,
    /// Whether `d` was recomputed from scratch with no pivot since.
    fresh: bool,
    /// Whether primal phases currently price partially from fresh duals
    /// instead of from the maintained `d` (see [`PricingWork`]).
    partial: bool,
    /// Measured work of both ways to price.
    pricing: PricingWork,
    /// The current pivot row, one entry per variable.
    alpha: Vec<f64>,
    iterations: usize,
    /// Rotating cursor for partial pricing.
    price_start: usize,
    /// Latched when a refactorization finds the evolved basis
    /// numerically singular (a pivot accepted on drifted values can do
    /// that). [`Simplex::solve`] restarts cold once; the warm path falls
    /// back.
    singular: bool,
    /// Per-structural-column phase-2 cost perturbation, a deterministic
    /// pure function of the column index. Time-indexed models price
    /// thousands of columns identically (`width * t` ties across jobs),
    /// which degenerates Dantzig pricing into near-cycling; the
    /// perturbation breaks every tie so phase 2 makes strict progress.
    /// Applied only while [`Simplex::perturbed`] is set — the final
    /// cleanup pass re-optimizes on the true costs, so the reported
    /// optimum is exact.
    perturbation: Vec<f64>,
    /// Whether [`Simplex::cost`] currently adds the perturbation.
    perturbed: bool,
    stats: LpStats,
}

/// Relative scale of the phase-2 cost perturbation: column `j` gets
/// `PERT * (1 + |c_j|) * xi_j` added while [`Simplex::perturbed`] is set.
/// The relative form keeps the noise proportional to the cost it breaks
/// ties on — large time-indexed costs (`width * t`) get proportionally
/// large noise, so pricing still separates them after the reduced-cost
/// arithmetic loses low bits. The models this solver sees have integral
/// cost data, so only *exact* ties are perturbed, and the true-cost
/// cleanup pass after the perturbed run has at most a few
/// epsilon-reduced-cost columns to reconsider (measured: ~1 iteration)
/// instead of re-fighting the full degeneracy.
const PERT: f64 = 1e-7;

/// SplitMix64: a deterministic index-to-noise mix for the perturbation.
fn mix64(j: u64) -> u64 {
    let mut z = j.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl<'a> Simplex<'a> {
    fn new(model: &'a Milp, node_lower: &[f64], node_upper: &[f64]) -> Simplex<'a> {
        let m = model.num_constraints();
        let n_struct = model.num_vars();
        assert_eq!(node_lower.len(), n_struct);
        assert_eq!(node_upper.len(), n_struct);
        let mut slack_row = Vec::new();
        let mut slack_sign = Vec::new();
        for (i, sense) in model.senses.iter().enumerate() {
            match sense {
                Sense::Le => {
                    slack_row.push(i);
                    slack_sign.push(1.0);
                }
                Sense::Ge => {
                    slack_row.push(i);
                    slack_sign.push(-1.0);
                }
                Sense::Eq => {}
            }
        }
        let n_slack = slack_row.len();
        let n_total = n_struct + n_slack + m;
        let mut lower = Vec::with_capacity(n_total);
        let mut upper = Vec::with_capacity(n_total);
        lower.extend_from_slice(node_lower);
        upper.extend_from_slice(node_upper);
        lower.extend(std::iter::repeat_n(0.0, n_slack));
        upper.extend(std::iter::repeat_n(f64::INFINITY, n_slack));
        lower.extend(std::iter::repeat_n(0.0, m));
        upper.extend(std::iter::repeat_n(f64::INFINITY, m));

        let mut sx = Simplex {
            model,
            rows: model.matrix.row_major(),
            m,
            n_struct,
            n_slack,
            n_total,
            slack_row,
            slack_sign,
            art_sign: vec![1.0; m],
            lower,
            upper,
            basis: Vec::new(),
            state: vec![VarState::AtLower; n_total],
            lu: BasisLu::diagonal(&vec![1.0; m]),
            drifted: false,
            x: vec![0.0; n_total],
            d: vec![0.0; n_total],
            obj: 0.0,
            priced: None,
            fresh: false,
            partial: false,
            pricing: PricingWork::default(),
            alpha: vec![0.0; n_total],
            iterations: 0,
            price_start: 0,
            singular: false,
            perturbation: (0..n_struct)
                .map(|j| {
                    // xi in [0.5, 1.0): never zero, always tie-breaking.
                    let xi = 0.5 + (mix64(j as u64) >> 11) as f64 / (1u64 << 53) as f64 / 2.0;
                    PERT * (1.0 + model.objective[j].abs()) * xi
                })
                .collect(),
            perturbed: false,
            stats: LpStats::default(),
        };
        sx.initialize();
        sx
    }

    /// Iterates the non-zero entries of column `j` (structural, slack or
    /// artificial) as `(row, value)`.
    fn for_column(&self, j: usize, mut f: impl FnMut(usize, f64)) {
        if j < self.n_struct {
            for (r, v) in self.model.matrix.column(j) {
                f(r, v);
            }
        } else if j < self.n_struct + self.n_slack {
            let k = j - self.n_struct;
            f(self.slack_row[k], self.slack_sign[k]);
        } else {
            let r = j - self.n_struct - self.n_slack;
            f(r, self.art_sign[r]);
        }
    }

    /// Number of non-zeros of column `j`.
    fn column_nnz(&self, j: usize) -> usize {
        if j < self.n_struct {
            self.model.matrix.col_nnz(j)
        } else {
            1
        }
    }

    /// The least work of a partial pricing pass: one block of average
    /// columns, counted as [`Simplex::choose_entering`] counts it.
    fn block_work(&self) -> f64 {
        let entries = self.model.matrix.nnz() + self.n_slack + self.m;
        let per_column = 1.0 + entries as f64 / self.n_total as f64;
        PARTIAL_BLOCK.min(self.n_total) as f64 * per_column
    }

    /// Places nonbasic variables on a bound and builds the all-artificial
    /// starting basis with signs chosen so artificial values are >= 0.
    fn initialize(&mut self) {
        // Nonbasic structural + slack variables at their finite bound.
        for j in 0..self.n_struct + self.n_slack {
            if self.lower[j].is_finite() {
                self.state[j] = VarState::AtLower;
                self.x[j] = self.lower[j];
            } else if self.upper[j].is_finite() {
                self.state[j] = VarState::AtUpper;
                self.x[j] = self.upper[j];
            } else {
                // Free variable: park at zero (treated as "at lower" with
                // an infinite bound; it can enter but never flip).
                self.state[j] = VarState::AtLower;
                self.x[j] = 0.0;
            }
        }
        // Residual r = b - A x_N decides artificial signs.
        let mut residual = self.model.rhs.clone();
        for j in 0..self.n_struct + self.n_slack {
            let xj = self.x[j];
            if xj != 0.0 {
                self.for_column(j, |r, v| residual[r] -= v * xj);
            }
        }
        self.basis = Vec::with_capacity(self.m);
        for i in 0..self.m {
            self.art_sign[i] = if residual[i] >= 0.0 { 1.0 } else { -1.0 };
            let art = self.n_struct + self.n_slack + i;
            self.basis.push(art);
            self.state[art] = VarState::Basic;
            self.x[art] = residual[i].abs();
        }
        self.factor_artificial();
    }

    /// Installs the factorization of the all-artificial basis,
    /// `B = diag(art_sign)`.
    fn factor_artificial(&mut self) {
        self.lu = BasisLu::diagonal(&self.art_sign);
        self.drifted = false;
        self.priced = None;
    }

    /// Cost vector of the given phase.
    fn cost(&self, phase1: bool, j: usize) -> f64 {
        if phase1 {
            if j >= self.n_struct + self.n_slack {
                1.0
            } else {
                0.0
            }
        } else if j < self.n_struct {
            if self.perturbed {
                self.model.objective[j] + self.perturbation[j]
            } else {
                self.model.objective[j]
            }
        } else {
            0.0
        }
    }

    /// Recomputes the reduced costs and the phase objective from scratch
    /// for the given phase's cost vector: `y = B⁻ᵀ c_B`, then
    /// `d_j = c_j − yᵀA_j` for every nonbasic column.
    fn price(&mut self, phase1: bool) {
        let y = self.duals(phase1);
        for j in 0..self.n_total {
            self.d[j] = if let VarState::Basic = self.state[j] {
                0.0
            } else {
                self.reduced_cost(phase1, j, &y)
            };
        }
        self.obj = self.phase_objective(phase1);
        self.priced = Some((phase1, self.perturbed));
        self.fresh = true;
    }

    /// The duals `y = B⁻ᵀc_B` of the given phase's cost vector.
    fn duals(&mut self, phase1: bool) -> Vec<f64> {
        let mut y: Vec<f64> = self.basis.iter().map(|&v| self.cost(phase1, v)).collect();
        self.lu.btran(&mut y);
        y
    }

    /// `c_j − yᵀA_j` for the given phase's cost vector.
    fn reduced_cost(&self, phase1: bool, j: usize, y: &[f64]) -> f64 {
        let mut d = self.cost(phase1, j);
        self.for_column(j, |r, v| d -= y[r] * v);
        d
    }

    /// The phase objective `Σ c_j x_j`, computed from scratch.
    fn phase_objective(&self, phase1: bool) -> f64 {
        (0..self.n_total)
            .map(|j| self.cost(phase1, j) * self.x[j])
            .sum()
    }

    /// Prices for `phase1` (at the current perturbation) unless `d`
    /// already refers to that cost vector.
    fn ensure_priced(&mut self, phase1: bool) {
        if self.priced != Some((phase1, self.perturbed)) {
            self.price(phase1);
        }
    }

    /// Reduced-cost test of one nonbasic column: returns `(|d|, direction)`
    /// when entering `j` improves the phase objective.
    fn price_candidate(&self, j: usize) -> Option<(f64, f64)> {
        let dir = match self.state[j] {
            VarState::Basic => return None,
            VarState::AtLower => 1.0,
            VarState::AtUpper => -1.0,
        };
        if self.lower[j] == self.upper[j] {
            return None; // fixed (e.g. neutralized artificials)
        }
        let d = self.d[j];
        let improving = if dir > 0.0 { d < -TOL } else { d > TOL };
        improving.then_some((d.abs(), dir))
    }

    /// Chooses the entering column: partial pricing over rotating blocks
    /// under Dantzig, a full scan from index 0 under Bland (anti-cycling
    /// needs a fixed order). Returns `(column, direction)`. With `duals`
    /// `(y, phase1)` each scanned column's reduced cost is computed from
    /// `y` first; without, the maintained ones are read.
    fn choose_entering(
        &mut self,
        bland: bool,
        duals: Option<(&[f64], bool)>,
    ) -> Option<(usize, f64)> {
        let candidate = |sx: &mut Self, j: usize| {
            if let Some((y, phase1)) = duals {
                if !matches!(sx.state[j], VarState::Basic) {
                    sx.d[j] = sx.reduced_cost(phase1, j, y);
                    sx.pricing.scan_work += 1 + sx.column_nnz(j);
                }
            }
            sx.price_candidate(j)
        };
        if duals.is_some() {
            self.pricing.scans += 1;
        }
        if bland {
            return (0..self.n_total).find_map(|j| candidate(self, j).map(|(_, dir)| (j, dir)));
        }
        // Rotate through blocks; stop at the end of the first block that
        // contained an improving column.
        let n = self.n_total;
        let mut enter: Option<(usize, f64, f64)> = None; // (var, |d|, dir)
        let mut scanned = 0usize;
        while scanned < n {
            let block_end = (scanned + PARTIAL_BLOCK).min(n);
            // The block's indices, `price_start + scanned..` wrapped
            // around `n`, as at most two plain ranges.
            let from = (self.price_start + scanned) % n;
            let len = block_end - scanned;
            let wrapped = (from + len).saturating_sub(n);
            for j in (from..from + len - wrapped).chain(0..wrapped) {
                if let Some((d_abs, dir)) = candidate(self, j) {
                    if enter.is_none_or(|(_, best, _)| d_abs > best) {
                        enter = Some((j, d_abs, dir));
                    }
                }
            }
            scanned = block_end;
            if enter.is_some() {
                self.price_start = (self.price_start + scanned) % n;
                break;
            }
        }
        enter.map(|(j, _, dir)| (j, dir))
    }

    /// w = B⁻¹ A_j, indexed by basis position.
    fn ftran(&mut self, j: usize) -> Vec<f64> {
        let mut w = vec![0.0; self.m];
        self.for_column(j, |r, v| w[r] = v);
        self.lu.ftran(&mut w);
        w
    }

    /// Forms the pivot row `αᵣ = ρᵣᵀ[A | slacks | artificials]` with
    /// `ρᵣ = B⁻ᵀeᵣ` into `alpha`. The structural part accumulates row by
    /// row over the rows where `ρᵣ` is non-zero only; a slack's or an
    /// artificial's entry is its row's `ρ` times its sign.
    fn pivot_row(&mut self, r: usize) {
        let mut rho = vec![0.0; self.m];
        rho[r] = 1.0;
        self.lu.btran(&mut rho);
        let (structural, rest) = self.alpha.split_at_mut(self.n_struct);
        let (slacks, artificials) = rest.split_at_mut(self.n_slack);
        structural.fill(0.0);
        let mut work = self.n_total;
        for (i, &p) in rho.iter().enumerate() {
            if p != 0.0 {
                work += self.rows.row_nnz(i);
                for (j, a) in self.rows.row(i) {
                    structural[j] += p * a;
                }
            }
        }
        self.pricing.row_work += work;
        self.pricing.rows += 1;
        for (k, alpha) in slacks.iter_mut().enumerate() {
            *alpha = rho[self.slack_row[k]] * self.slack_sign[k];
        }
        for (i, alpha) in artificials.iter_mut().enumerate() {
            *alpha = rho[i] * self.art_sign[i];
        }
    }

    /// Dual update for column `q` entering in place of the basic
    /// variable `leaving`, from the pivot row in `alpha`: every nonbasic
    /// reduced cost moves by `−(d_q/α_q)·α_j`. `w_r` is the same pivot
    /// element from the entering column's FTRAN; a disagreement beyond
    /// [`DRIFT_TOL`] schedules a refactorization.
    fn update_duals(&mut self, q: usize, leaving: usize, w_r: f64) {
        let alpha_q = self.alpha[q];
        if (alpha_q - w_r).abs() > DRIFT_TOL * (1.0 + w_r.abs()) {
            self.drifted = true;
        }
        let theta = self.d[q] / alpha_q;
        for (d, &alpha) in self.d.iter_mut().zip(&self.alpha) {
            *d -= theta * alpha;
        }
        // Basic columns' pivot-row entries are 0 (1 for the leaving one)
        // up to rounding; restore their exact values.
        for &var in &self.basis {
            self.d[var] = 0.0;
        }
        self.d[q] = 0.0;
        self.d[leaving] = -theta;
    }

    /// Replaces the basic variable of row `r` by `entering` in the basis
    /// and its factorization (`w` is the entering column's FTRAN).
    fn replace_basic(&mut self, r: usize, entering: usize, w: &[f64]) {
        self.basis[r] = entering;
        self.state[entering] = VarState::Basic;
        self.stats.lu_nnz += self.lu.update(r, w);
        self.stats.pivots += 1;
        self.fresh = false;
    }

    /// Whether the next iteration must refactorize.
    fn refactor_due(&self) -> bool {
        self.drifted || self.lu.needs_refactor()
    }

    /// The basis matrix, column `i` being the basic column of row `i`.
    fn basis_matrix(&self) -> CscMatrix {
        let mut b = CscBuilder::new(self.m);
        let mut column = Vec::new();
        for &var in &self.basis {
            column.clear();
            self.for_column(var, |r, v| column.push((r, v)));
            b.push_column(&column);
        }
        b.build()
    }

    /// Factorizes the current basis, then recomputes the basic values and
    /// (once priced) the reduced costs from scratch. Returns `false` on a
    /// singular basis, leaving the factorization of the previous basis in
    /// place.
    fn try_refactorize(&mut self) -> bool {
        self.pricing.close_window();
        let started = Instant::now();
        let factored = BasisLu::factor(&self.basis_matrix());
        self.stats.refactor_time += started.elapsed();
        let Ok(lu) = factored else {
            return false;
        };
        self.stats.refactors += 1;
        self.stats.lu_nnz += lu.factor_nnz();
        self.lu = lu;
        self.drifted = false;
        self.recompute_basics();
        if let Some((phase1, _)) = self.priced {
            self.price(phase1);
        }
        true
    }

    /// Puts every nonbasic structural and slack variable on a bound —
    /// the lower one unless listed in `at_upper` with a finite upper —
    /// pins the artificials to `[0, 0]`, and installs `basis`. Returns
    /// `false` on a duplicate entry.
    fn install(&mut self, basis: &[usize], at_upper: &[usize]) -> bool {
        let limit = self.n_struct + self.n_slack;
        for j in 0..limit {
            if self.lower[j].is_finite() {
                self.state[j] = VarState::AtLower;
                self.x[j] = self.lower[j];
            } else if self.upper[j].is_finite() {
                self.state[j] = VarState::AtUpper;
                self.x[j] = self.upper[j];
            } else {
                self.state[j] = VarState::AtLower;
                self.x[j] = 0.0;
            }
        }
        for &j in at_upper {
            if j < limit && self.upper[j].is_finite() {
                self.state[j] = VarState::AtUpper;
                self.x[j] = self.upper[j];
            }
        }
        // Artificials pinned to [0,0] exactly as at the end of phase 1:
        // nonbasic ones can never re-enter; basic ones (redundant rows)
        // are driven out or stay at zero.
        for i in 0..self.m {
            let art = limit + i;
            self.state[art] = VarState::AtLower;
            self.x[art] = 0.0;
            self.lower[art] = 0.0;
            self.upper[art] = 0.0;
        }
        let mut seen = vec![false; self.n_total];
        for (row, &var) in basis.iter().enumerate() {
            if seen[var] {
                return false;
            }
            seen[var] = true;
            self.basis[row] = var;
            self.state[var] = VarState::Basic;
        }
        true
    }

    /// Restores the artificial phase-1 start after a failed install.
    fn restore_artificial(&mut self, basis: Vec<usize>, state: Vec<VarState>, x: Vec<f64>) {
        self.basis = basis;
        self.state = state;
        self.x = x;
        let limit = self.n_struct + self.n_slack;
        for i in 0..self.m {
            self.lower[limit + i] = 0.0;
            self.upper[limit + i] = f64::INFINITY;
        }
        self.factor_artificial();
    }

    /// Attempts to install a caller-supplied crash basis; returns whether
    /// the basis is usable (nonsingular and primal feasible), in which case
    /// phase 1 can be skipped. On failure the solver is restored to the
    /// artificial start.
    fn try_crash(&mut self, start: &SimplexStart) -> bool {
        if start.basis.len() != self.m {
            return false;
        }
        let limit = self.n_struct + self.n_slack;
        if start.basis.iter().any(|&v| v >= limit) {
            return false;
        }
        let old = (self.basis.clone(), self.state.clone(), self.x.clone());
        let ok = self.install(&start.basis, &start.at_upper)
            && self.try_refactorize()
            && self.is_primal_feasible();
        if !ok {
            self.restore_artificial(old.0, old.1, old.2);
        }
        ok
    }

    /// Attempts to install a parent node's captured optimal basis under
    /// this LP's (child) bounds; returns whether the install succeeded.
    ///
    /// Unlike [`Self::try_crash`] the basis may contain artificials
    /// (basic at zero on redundant parent rows) and the result need
    /// *not* be primal feasible — bound changes make exactly the
    /// branched variable's row infeasible, which [`Self::run_dual`]
    /// repairs. The parent's at-upper choices stay dual feasible because
    /// reduced costs depend on the basis and objective, not on the bound
    /// values. What the basis must be is structurally sound: right
    /// length, no duplicates, nonsingular. On failure the solver is
    /// restored to the artificial phase-1 start.
    fn try_warm(&mut self, warm: &Basis) -> bool {
        if warm.basis.len() != self.m {
            return false;
        }
        if warm.basis.iter().any(|&v| v >= self.n_total) {
            return false;
        }
        let old = (self.basis.clone(), self.state.clone(), self.x.clone());
        let ok = self.install(&warm.basis, &warm.at_upper) && self.try_refactorize();
        if !ok {
            self.restore_artificial(old.0, old.1, old.2);
        }
        ok
    }

    /// Dual simplex: starting from a dual-feasible basis whose basic
    /// values may violate their bounds, pivot the most-violating basic
    /// variable out (onto the bound it violates) and the cheapest
    /// admissible nonbasic column in, until primal feasible.
    ///
    /// The pivot choice keeps dual feasibility (min-ratio on
    /// `|d_j| / |alpha_j|` over the pivot row's non-zeros), and every tie
    /// breaks on the lowest index, so the repair is deterministic. The
    /// primal objective is non-decreasing along the way; [`STALL_LIMIT`]
    /// degenerate steps in a row abandon the attempt
    /// ([`DualStatus::GiveUp`]) instead of risking a cycle — the caller
    /// falls back to the cold solve.
    fn run_dual(&mut self, max_iterations: usize) -> DualStatus {
        self.ensure_priced(false);
        let mut stall = 0usize;
        let mut last_obj = f64::NEG_INFINITY;
        let mut last_viol = f64::INFINITY;
        loop {
            if self.iterations >= max_iterations {
                return DualStatus::IterationLimit;
            }
            if self.iterations & 0xff == 0 && dynp_obs::cancelled() {
                return DualStatus::IterationLimit;
            }
            if self.refactor_due() && !self.try_refactorize() {
                // The evolved basis went numerically singular; abandon
                // the repair, the caller falls back to the cold solve.
                return DualStatus::GiveUp;
            }
            // Leaving row: the most infeasible basic variable. The scan
            // also totals the infeasibility — reducing it is progress
            // even when the (often degenerate) objective stands still.
            let mut leave: Option<(usize, f64, bool)> = None; // (row, violation, above)
            let mut total_viol = 0.0;
            for i in 0..self.m {
                let var = self.basis[i];
                let xb = self.x[var];
                let (viol, above) = if xb > self.upper[var] + TOL {
                    (xb - self.upper[var], true)
                } else if xb < self.lower[var] - TOL {
                    (self.lower[var] - xb, false)
                } else {
                    continue;
                };
                total_viol += viol;
                if leave.is_none_or(|(_, best, _)| viol > best) {
                    leave = Some((i, viol, above));
                }
            }
            if total_viol < last_viol - TOL {
                stall = 0;
            }
            last_viol = total_viol;
            let Some((r, violation, above)) = leave else {
                return DualStatus::Feasible; // primal repaired
            };
            self.iterations += 1;
            // Entering column: over nonbasic admissible columns, the
            // dual min-ratio |d_j| / |alpha_j| where alpha_j = (B⁻¹A_j)_r
            // is read off the pivot row and d_j is the maintained
            // phase-2 reduced cost. Admissible = moving j off its bound
            // shifts the leaving variable toward the violated bound.
            self.pivot_row(r);
            let mut enter: Option<(usize, f64)> = None; // (var, ratio)
            for (j, &alpha) in self.alpha.iter().enumerate() {
                if alpha == 0.0 {
                    continue;
                }
                let dir = match self.state[j] {
                    VarState::Basic => continue,
                    VarState::AtLower => 1.0,
                    VarState::AtUpper => -1.0,
                };
                if self.lower[j] == self.upper[j] {
                    continue; // fixed (pinned artificials, fixed vars)
                }
                // x_B[r] changes by -dir * alpha * t; "above" needs a
                // decrease, "below" an increase.
                let admissible = if above {
                    dir * alpha > PIVOT_TOL
                } else {
                    dir * alpha < -PIVOT_TOL
                };
                if !admissible {
                    continue;
                }
                let ratio = self.d[j].abs() / alpha.abs();
                if enter.is_none_or(|(_, best)| ratio < best) {
                    enter = Some((j, ratio));
                }
            }
            let Some((j_enter, _)) = enter else {
                // No column can repair row r: a primal infeasibility
                // certificate. Trust it only when the violation is
                // decisively larger than the feasibility tolerance;
                // a borderline certificate falls back to the cold
                // phase-1 proof instead.
                return if violation > 1e-6 {
                    DualStatus::Infeasible
                } else {
                    DualStatus::GiveUp
                };
            };
            let dir = match self.state[j_enter] {
                VarState::AtLower => 1.0,
                VarState::AtUpper => -1.0,
                VarState::Basic => unreachable!("entering var is nonbasic"),
            };
            let w = self.ftran(j_enter);
            if w[r].abs() <= PIVOT_TOL {
                return DualStatus::GiveUp; // drift between rho and w
            }
            let leaving = self.basis[r];
            let target = if above {
                self.upper[leaving]
            } else {
                self.lower[leaving]
            };
            // Step length that lands the leaving variable on its bound.
            let t = ((self.x[leaving] - target) / (dir * w[r])).max(0.0);
            self.obj += self.d[j_enter] * dir * t;
            self.x[j_enter] += dir * t;
            for i in 0..self.m {
                let var = self.basis[i];
                self.x[var] -= dir * t * w[i];
            }
            self.x[leaving] = target;
            self.update_duals(j_enter, leaving, w[r]);
            self.state[leaving] = if above {
                VarState::AtUpper
            } else {
                VarState::AtLower
            };
            self.replace_basic(r, j_enter, &w);
            // The primal objective is non-decreasing in dual simplex;
            // degenerate (zero-progress) steps feed the stall counter.
            if self.obj > last_obj + TOL {
                stall = 0;
                last_obj = self.obj;
            } else {
                stall += 1;
                if stall >= STALL_LIMIT {
                    return DualStatus::GiveUp;
                }
            }
        }
    }

    /// Finishes a successfully warm-started solve: dual repair, then the
    /// primal phase 2 (a no-op at optimality, and the safety net for any
    /// dual-tolerance drift), then extraction.
    fn solve_from_warm(&mut self, max_iterations: usize) -> WarmResult {
        // Repair and polish under the perturbed costs (same tie-breaking
        // as the cold phase 2), then clean up on the true costs.
        self.perturbed = true;
        match self.run_dual(max_iterations) {
            DualStatus::Feasible => {}
            DualStatus::Infeasible => return WarmResult::Done(LpOutcome::Infeasible),
            DualStatus::IterationLimit => return WarmResult::Done(LpOutcome::IterationLimit),
            DualStatus::GiveUp => return WarmResult::Fallback,
        }
        let polish = self.run_phase(false, max_iterations);
        self.perturbed = false;
        let cleanup = polish.and_then(|()| self.run_cleanup(max_iterations));
        if let Err(halt) = cleanup {
            if self.singular {
                // Numerically singular mid-polish: hand the node to
                // the cold path rather than reporting a fake limit.
                return WarmResult::Fallback;
            }
            return WarmResult::Done(halt.into());
        }
        self.recompute_basics();
        WarmResult::Done(self.extract_optimal())
    }

    /// Checks the current basic values against their bounds.
    fn is_primal_feasible(&self) -> bool {
        self.basis.iter().all(|&var| {
            self.x[var] >= self.lower[var] - TOL && self.x[var] <= self.upper[var] + TOL
        })
    }

    /// x_B = B⁻¹ (b − N x_N).
    fn recompute_basics(&mut self) {
        let mut rhs = self.model.rhs.clone();
        for j in 0..self.n_total {
            if let VarState::Basic = self.state[j] {
                continue;
            }
            let xj = self.x[j];
            if xj != 0.0 {
                self.for_column(j, |r, v| rhs[r] -= v * xj);
            }
        }
        self.lu.ftran(&mut rhs);
        for (i, &v) in rhs.iter().enumerate() {
            self.x[self.basis[i]] = v;
        }
    }

    /// One phase of the simplex; returns `Ok(())` at optimality.
    fn run_phase(&mut self, phase1: bool, max_iterations: usize) -> Result<(), Halt> {
        if self.partial {
            // Reduced costs are computed per pricing block below, so the
            // vector as a whole is not current.
            self.priced = None;
            self.obj = self.phase_objective(phase1);
        } else {
            self.ensure_priced(phase1);
        }
        let mut stall = 0usize;
        let mut last_obj = f64::INFINITY;
        loop {
            if self.iterations >= max_iterations {
                return Err(Halt::IterationLimit);
            }
            // Poll the cooperative cancel token every 256 iterations; a
            // cancelled LP surfaces as the iteration limit, which the
            // branch-and-bound loop already folds into its budget
            // accounting. The mask keeps the common-path cost at one
            // branch per iteration.
            if self.iterations & 0xff == 0 && dynp_obs::cancelled() {
                return Err(Halt::IterationLimit);
            }
            self.iterations += 1;
            if self.refactor_due() {
                if !self.try_refactorize() {
                    // Latch the failure for the caller: `solve` restarts
                    // the whole LP cold, the warm path falls back. The
                    // returned outcome is a placeholder both callers
                    // replace.
                    self.singular = true;
                    return Err(Halt::IterationLimit);
                }
                self.choose_pricing(phase1);
            }
            let bland = stall >= STALL_LIMIT;
            let mut enter = if self.partial {
                let y = self.duals(phase1);
                self.choose_entering(bland, Some((&y, phase1)))
            } else {
                self.choose_entering(bland, None)
            };
            if !self.partial && enter.is_none() && !self.fresh && (phase1 || !self.perturbed) {
                // The maintained reduced costs say optimal; decide on
                // freshly computed ones. A perturbed pass skips this:
                // the true-cost cleanup after it reprices and decides.
                self.price(phase1);
                enter = self.choose_entering(bland, None);
            }
            let Some((j_enter, dir)) = enter else {
                return Ok(()); // optimal for this phase
            };
            // Ratio test.
            let w = self.ftran(j_enter);
            let range = self.upper[j_enter] - self.lower[j_enter]; // may be inf
            let mut t_max = range;
            let mut blocking: Option<usize> = None; // basis row
            for i in 0..self.m {
                let delta = dir * w[i]; // x_B[i] decreases by delta * t
                let var = self.basis[i];
                let xb = self.x[var];
                if delta > PIVOT_TOL {
                    let slack = xb - self.lower[var];
                    let t = slack.max(0.0) / delta;
                    if t < t_max {
                        t_max = t;
                        blocking = Some(i);
                    }
                } else if delta < -PIVOT_TOL {
                    let headroom = self.upper[var] - xb;
                    if headroom.is_finite() {
                        let t = headroom.max(0.0) / (-delta);
                        if t < t_max {
                            t_max = t;
                            blocking = Some(i);
                        }
                    }
                }
            }
            if t_max.is_infinite() {
                if phase1 {
                    // Phase 1 objective is bounded below by 0; cannot be
                    // unbounded. Treat as numerical trouble.
                    return Err(Halt::IterationLimit);
                }
                if !self.partial && !self.fresh {
                    // The ray was chosen on maintained reduced costs;
                    // report it only if fresh ones still improve along
                    // it, as they do when the next iteration picks it.
                    self.price(phase1);
                    continue;
                }
                return Err(Halt::Unbounded);
            }
            let t = t_max.max(0.0);
            // Apply the step.
            self.obj += self.d[j_enter] * dir * t;
            self.x[j_enter] += dir * t;
            for i in 0..self.m {
                let var = self.basis[i];
                self.x[var] -= dir * t * w[i];
            }
            match blocking {
                None => {
                    // Bound flip: entering variable hit its opposite bound.
                    self.state[j_enter] = match self.state[j_enter] {
                        VarState::AtLower => {
                            self.x[j_enter] = self.upper[j_enter];
                            VarState::AtUpper
                        }
                        VarState::AtUpper => {
                            self.x[j_enter] = self.lower[j_enter];
                            VarState::AtLower
                        }
                        VarState::Basic => unreachable!("entering var is nonbasic"),
                    };
                }
                Some(r) => {
                    let leaving = self.basis[r];
                    if !self.partial {
                        self.pivot_row(r);
                        self.update_duals(j_enter, leaving, w[r]);
                    }
                    // Snap the leaving variable exactly onto the bound it hit.
                    if dir * w[r] > 0.0 {
                        self.x[leaving] = self.lower[leaving];
                        self.state[leaving] = VarState::AtLower;
                    } else {
                        self.x[leaving] = self.upper[leaving];
                        self.state[leaving] = VarState::AtUpper;
                    }
                    self.replace_basic(r, j_enter, &w);
                }
            }
            // Stall detection on the phase objective.
            if self.obj < last_obj - TOL {
                stall = 0;
                last_obj = self.obj;
            } else {
                stall += 1;
            }
        }
    }

    /// Chooses, after a refactorization, how the primal phase prices
    /// until the next one (see [`PricingWork`]). Switching to maintained
    /// pricing recomputes `d`; switching away stops updating it.
    fn choose_pricing(&mut self, phase1: bool) {
        self.partial = self.pricing.prefer_partial(self.block_work());
        if self.partial {
            self.priced = None;
        } else {
            self.ensure_priced(phase1);
        }
    }

    /// The final phase-2 pass on the true costs, counted separately.
    fn run_cleanup(&mut self, max_iterations: usize) -> Result<(), Halt> {
        let before = self.iterations;
        let out = self.run_phase(false, max_iterations);
        self.stats.cleanup_iterations += self.iterations - before;
        out
    }

    fn solve(mut self, max_iterations: usize, crashed: bool) -> (LpOutcome, LpStats) {
        let out = self.solve_inner(max_iterations, crashed);
        if !self.singular {
            return with_stats(out, self.stats);
        }
        // A refactorization found the evolved basis numerically singular
        // — possible when a pivot was accepted on drifted values. Restart
        // once from scratch on the guaranteed-nonsingular artificial
        // basis (structural node bounds are never mutated mid-solve, so
        // they can be reused), folding the wasted pivots into the count
        // to keep budget accounting honest and deterministic.
        let wasted = self.iterations;
        let mut fresh = Simplex::new(
            self.model,
            &self.lower[..self.n_struct],
            &self.upper[..self.n_struct],
        );
        let mut out = fresh.solve_inner(max_iterations, false);
        fresh.stats += self.stats;
        if fresh.singular {
            // Unrecoverable numerics: report an honest give-up rather
            // than looping.
            return (LpOutcome::IterationLimit, fresh.stats);
        }
        if let LpOutcome::Optimal(s) = &mut out {
            s.iterations += wasted;
        }
        with_stats(out, fresh.stats)
    }

    fn solve_inner(&mut self, max_iterations: usize, crashed: bool) -> LpOutcome {
        // Phase 1: drive artificials to zero (skipped entirely when a
        // verified primal-feasible crash basis is installed).
        if self.m > 0 && !crashed {
            if let Err(halt) = self.run_phase(true, max_iterations) {
                return halt.into();
            }
            self.recompute_basics();
            let art0 = self.n_struct + self.n_slack;
            let infeas: f64 = self.x[art0..].iter().sum();
            if infeas > 1e-6 {
                return LpOutcome::Infeasible;
            }
            // Fix artificials at zero so phase 2 can never reuse them.
            for i in 0..self.m {
                let art = art0 + i;
                self.lower[art] = 0.0;
                self.upper[art] = 0.0;
                if !matches!(self.state[art], VarState::Basic) {
                    self.x[art] = 0.0;
                }
            }
        }
        // Phase 2 on the perturbed objective (every pricing tie broken,
        // so progress is strict), then a cleanup pass on the true costs:
        // the perturbed optimum is almost always already optimal for
        // them, so the cleanup is a handful of pivots at most.
        self.perturbed = true;
        let phase2 = self.run_phase(false, max_iterations);
        self.perturbed = false;
        if let Err(halt) = phase2.and_then(|()| self.run_cleanup(max_iterations)) {
            return halt.into();
        }
        self.recompute_basics();
        self.extract_optimal()
    }

    /// Extracts the optimal solution from the current (phase-2 optimal)
    /// basis: structural values, reduced costs, and the captured basis
    /// for warm-starting children. The reduced costs are fresh true-cost
    /// ones — after a maintained cleanup pass, the very ones it confirmed
    /// optimality on.
    fn extract_optimal(&mut self) -> LpOutcome {
        if !self.fresh || self.priced != Some((false, false)) {
            self.price(false);
        }
        let x = self.x[..self.n_struct].to_vec();
        let reduced_costs = self.d[..self.n_struct].to_vec();
        let at_upper = (0..self.n_total)
            .filter(|&j| matches!(self.state[j], VarState::AtUpper))
            .collect();
        LpOutcome::Optimal(LpSolution {
            objective: self.model.objective_value(&x),
            x,
            reduced_costs,
            iterations: self.iterations,
            basis: Some(Basis {
                basis: self.basis.clone(),
                at_upper,
            }),
            stats: self.stats,
        })
    }
}

/// Why a primal phase stopped short of optimality (see
/// [`Simplex::run_phase`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Halt {
    /// Iteration budget (or a cancel token) expired, or numerical
    /// trouble that the caller treats the same way.
    IterationLimit,
    /// The phase-2 objective decreases without bound.
    Unbounded,
}

impl From<Halt> for LpOutcome {
    fn from(halt: Halt) -> LpOutcome {
        match halt {
            Halt::IterationLimit => LpOutcome::IterationLimit,
            Halt::Unbounded => LpOutcome::Unbounded,
        }
    }
}

/// Outcome of the dual-simplex repair phase (see [`Simplex::run_dual`]).
enum DualStatus {
    /// Primal feasibility restored; the basis is optimal up to phase-2
    /// polishing.
    Feasible,
    /// A row certified primal infeasibility (violation decisively above
    /// tolerance).
    Infeasible,
    /// Iteration budget (or a cancel token) expired mid-repair.
    IterationLimit,
    /// Stalled or hit numerical trouble — not an answer; re-solve cold.
    GiveUp,
}

/// Result of a warm-started solve attempt.
enum WarmResult {
    /// The warm path produced a definitive outcome.
    Done(LpOutcome),
    /// The warm path was abandoned; the caller must re-solve cold and
    /// fold in the iterations spent so far.
    Fallback,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::CscMatrix;

    fn lp(
        c: Vec<f64>,
        rows: &[Vec<f64>],
        senses: Vec<Sense>,
        rhs: Vec<f64>,
        lower: Vec<f64>,
        upper: Vec<f64>,
    ) -> Milp {
        let n = c.len();
        Milp::new(
            c,
            CscMatrix::from_dense(rows),
            senses,
            rhs,
            lower,
            upper,
            vec![false; n],
        )
    }

    fn solve(model: &Milp) -> LpOutcome {
        solve_lp(model, 100_000)
    }

    #[test]
    fn textbook_maximization() {
        // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 (min of the
        // negation): optimum x=2, y=6, obj = -36.
        let m = lp(
            vec![-3.0, -5.0],
            &[vec![1.0, 0.0], vec![0.0, 2.0], vec![3.0, 2.0]],
            vec![Sense::Le, Sense::Le, Sense::Le],
            vec![4.0, 12.0, 18.0],
            vec![0.0, 0.0],
            vec![f64::INFINITY, f64::INFINITY],
        );
        let sol = solve(&m);
        let s = sol.optimal().expect("optimal");
        assert!((s.objective + 36.0).abs() < 1e-6, "obj {}", s.objective);
        assert!((s.x[0] - 2.0).abs() < 1e-6);
        assert!((s.x[1] - 6.0).abs() < 1e-6);
        m.check_feasible(&s.x, 1e-6).unwrap();
    }

    #[test]
    fn equality_constraints() {
        // min x + y s.t. x + y = 2, x - y = 0 -> x = y = 1.
        let m = lp(
            vec![1.0, 1.0],
            &[vec![1.0, 1.0], vec![1.0, -1.0]],
            vec![Sense::Eq, Sense::Eq],
            vec![2.0, 0.0],
            vec![0.0, 0.0],
            vec![f64::INFINITY, f64::INFINITY],
        );
        let s = solve(&m);
        let s = s.optimal().unwrap();
        assert!((s.objective - 2.0).abs() < 1e-6);
        assert!((s.x[0] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn ge_constraints_and_upper_bounds() {
        // min x s.t. x >= 3, x <= 10.
        let m = lp(
            vec![1.0],
            &[vec![1.0]],
            vec![Sense::Ge],
            vec![3.0],
            vec![0.0],
            vec![10.0],
        );
        let s = solve(&m);
        let s = s.optimal().unwrap();
        assert!((s.objective - 3.0).abs() < 1e-7);
    }

    #[test]
    fn bounded_variables_sit_at_upper() {
        // max x + y (min -x - y) with x,y in [0,1] and x + y <= 3: both hit
        // their upper bound 1, not the constraint.
        let m = lp(
            vec![-1.0, -1.0],
            &[vec![1.0, 1.0]],
            vec![Sense::Le],
            vec![3.0],
            vec![0.0, 0.0],
            vec![1.0, 1.0],
        );
        let s = solve(&m);
        let s = s.optimal().unwrap();
        assert!((s.objective + 2.0).abs() < 1e-7);
        assert!((s.x[0] - 1.0).abs() < 1e-7);
        assert!((s.x[1] - 1.0).abs() < 1e-7);
    }

    #[test]
    fn detects_infeasible() {
        // x <= 1 and x >= 2.
        let m = lp(
            vec![0.0],
            &[vec![1.0], vec![1.0]],
            vec![Sense::Le, Sense::Ge],
            vec![1.0, 2.0],
            vec![0.0],
            vec![f64::INFINITY],
        );
        assert!(matches!(solve(&m), LpOutcome::Infeasible));
    }

    #[test]
    fn detects_unbounded() {
        // min -x with x >= 0 unbounded above, one non-binding row.
        let m = lp(
            vec![-1.0],
            &[vec![-1.0]],
            vec![Sense::Le],
            vec![0.0],
            vec![0.0],
            vec![f64::INFINITY],
        );
        assert!(matches!(solve(&m), LpOutcome::Unbounded));
    }

    #[test]
    fn negative_rhs_rows_are_handled() {
        // min x s.t. -x <= -3  (i.e. x >= 3).
        let m = lp(
            vec![1.0],
            &[vec![-1.0]],
            vec![Sense::Le],
            vec![-3.0],
            vec![0.0],
            vec![f64::INFINITY],
        );
        let s = solve(&m);
        let s = s.optimal().unwrap();
        assert!((s.objective - 3.0).abs() < 1e-7);
    }

    #[test]
    fn fixed_variables_respected() {
        // min -x - y, x fixed to 0 via node bounds, y in [0,1].
        let m = lp(
            vec![-1.0, -1.0],
            &[vec![1.0, 1.0]],
            vec![Sense::Le],
            vec![2.0],
            vec![0.0, 0.0],
            vec![1.0, 1.0],
        );
        let out = solve_lp_with_bounds(&m, &[0.0, 0.0], &[0.0, 1.0], 10_000);
        let s = out.optimal().unwrap();
        assert!(s.x[0].abs() < 1e-9);
        assert!((s.x[1] - 1.0).abs() < 1e-7);
    }

    #[test]
    fn degenerate_problem_terminates() {
        // Classic degeneracy: several redundant constraints through the
        // same vertex.
        let m = lp(
            vec![-1.0, -1.0],
            &[
                vec![1.0, 0.0],
                vec![1.0, 0.0],
                vec![0.0, 1.0],
                vec![1.0, 1.0],
            ],
            vec![Sense::Le, Sense::Le, Sense::Le, Sense::Le],
            vec![1.0, 1.0, 1.0, 2.0],
            vec![0.0, 0.0],
            vec![f64::INFINITY, f64::INFINITY],
        );
        let s = solve(&m);
        let s = s.optimal().unwrap();
        assert!((s.objective + 2.0).abs() < 1e-6);
    }

    #[test]
    fn redundant_equality_rows_are_survivable() {
        // x + y = 1 twice: phase 1 leaves an artificial basic at zero.
        let m = lp(
            vec![1.0, 2.0],
            &[vec![1.0, 1.0], vec![1.0, 1.0]],
            vec![Sense::Eq, Sense::Eq],
            vec![1.0, 1.0],
            vec![0.0, 0.0],
            vec![1.0, 1.0],
        );
        let s = solve(&m);
        let s = s.optimal().unwrap();
        assert!((s.objective - 1.0).abs() < 1e-6);
        assert!((s.x[0] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn assignment_like_structure() {
        // Two jobs, two slots, slot capacity 1 each:
        // min 1*x00 + 2*x01 + 1*x10 + 3*x11
        // x00 + x01 = 1; x10 + x11 = 1; x00 + x10 <= 1; x01 + x11 <= 1.
        // Optimum: one job in each slot; cheapest is x00=1, x11=1 (1+3=4)
        // or x01=1, x10=1 (2+1=3) -> 3.
        let m = lp(
            vec![1.0, 2.0, 1.0, 3.0],
            &[
                vec![1.0, 1.0, 0.0, 0.0],
                vec![0.0, 0.0, 1.0, 1.0],
                vec![1.0, 0.0, 1.0, 0.0],
                vec![0.0, 1.0, 0.0, 1.0],
            ],
            vec![Sense::Eq, Sense::Eq, Sense::Le, Sense::Le],
            vec![1.0, 1.0, 1.0, 1.0],
            vec![0.0; 4],
            vec![1.0; 4],
        );
        let s = solve(&m);
        let s = s.optimal().unwrap();
        assert!((s.objective - 3.0).abs() < 1e-6, "obj {}", s.objective);
        m.check_feasible(&s.x, 1e-6).unwrap();
    }

    #[test]
    fn reduced_costs_certify_optimality() {
        // min -3x -5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18.
        let m = lp(
            vec![-3.0, -5.0],
            &[vec![1.0, 0.0], vec![0.0, 2.0], vec![3.0, 2.0]],
            vec![Sense::Le, Sense::Le, Sense::Le],
            vec![4.0, 12.0, 18.0],
            vec![0.0, 0.0],
            vec![f64::INFINITY, f64::INFINITY],
        );
        let out = solve_lp(&m, 100_000);
        let s = out.optimal().unwrap();
        assert_eq!(s.reduced_costs.len(), 2);
        // At optimality, nonbasic-at-lower variables have nonnegative
        // reduced costs (minimization); basic ones report 0.
        for (j, &d) in s.reduced_costs.iter().enumerate() {
            if s.x[j] > 1e-9 {
                assert!(d.abs() < 1e-6, "basic var {j} has rc {d}");
            } else {
                assert!(d >= -1e-6, "at-lower var {j} has negative rc {d}");
            }
        }
    }

    #[test]
    fn reduced_cost_lower_bound_property() {
        // Forcing a nonbasic variable off its bound by delta raises the
        // optimum by at least rc * delta.
        let m = lp(
            vec![2.0, 1.0],
            &[vec![1.0, 1.0]],
            vec![Sense::Ge],
            vec![1.0],
            vec![0.0, 0.0],
            vec![1.0, 1.0],
        );
        let base = solve_lp(&m, 10_000);
        let base = base.optimal().unwrap();
        // Optimal: y = 1 (cost 1), x = 0 nonbasic with rc = 2 - 1 = 1.
        assert!((base.objective - 1.0).abs() < 1e-7);
        let rc_x = base.reduced_costs[0];
        assert!(rc_x > 0.5);
        // Force x = 1: new optimum must be >= base + rc_x * 1.
        let forced = solve_lp_with_bounds(&m, &[1.0, 0.0], &[1.0, 1.0], 10_000);
        let forced = forced.optimal().unwrap();
        assert!(forced.objective >= base.objective + rc_x - 1e-6);
    }

    /// Parent LP for the warm-start tests: the assignment-like model with
    /// a known optimum of 3 and a fractional-friendly structure.
    fn warm_parent() -> Milp {
        lp(
            vec![1.0, 2.0, 1.0, 3.0],
            &[
                vec![1.0, 1.0, 0.0, 0.0],
                vec![0.0, 0.0, 1.0, 1.0],
                vec![1.0, 0.0, 1.0, 0.0],
                vec![0.0, 1.0, 0.0, 1.0],
            ],
            vec![Sense::Eq, Sense::Eq, Sense::Le, Sense::Le],
            vec![1.0, 1.0, 1.0, 1.0],
            vec![0.0; 4],
            vec![1.0; 4],
        )
    }

    #[test]
    fn optimal_solutions_capture_a_basis() {
        let m = warm_parent();
        let out = solve_lp(&m, 100_000);
        let s = out.optimal().unwrap();
        let basis = s.basis.as_ref().expect("basis captured");
        assert_eq!(basis.basis.len(), m.num_constraints());
        // Every captured basic variable is a real internal index.
        let n_total = m.num_vars() + 2 /* slacks */ + m.num_constraints();
        assert!(basis.basis.iter().all(|&v| v < n_total));
    }

    #[test]
    fn warm_started_child_matches_cold_solve() {
        let m = warm_parent();
        let parent = solve_lp(&m, 100_000);
        let parent = parent.optimal().unwrap();
        let warm = parent.basis.clone().unwrap();
        // Branch like B&B would: fix x0 to 0, then to 1.
        for (lo, hi) in [(0.0, 0.0), (1.0, 1.0)] {
            let lower = [lo, 0.0, 0.0, 0.0];
            let upper = [hi, 1.0, 1.0, 1.0];
            let cold = solve_lp_with_bounds(&m, &lower, &upper, 100_000);
            let cold = cold.optimal().expect("child feasible");
            let (out, used) = solve_lp_warm(&m, &lower, &upper, &warm, 100_000);
            let s = out.optimal().expect("warm child optimal");
            assert!(used, "structurally sound basis must install");
            assert!(
                (s.objective - cold.objective).abs() < 1e-6,
                "warm {} vs cold {}",
                s.objective,
                cold.objective
            );
            m.check_feasible(&s.x, 1e-6).unwrap();
        }
    }

    #[test]
    fn warm_start_skips_phase_one_iterations() {
        let m = warm_parent();
        let parent = solve_lp(&m, 100_000);
        let parent = parent.optimal().unwrap();
        let warm = parent.basis.clone().unwrap();
        let lower = [0.0; 4];
        let upper = [0.0, 1.0, 1.0, 1.0];
        let cold = solve_lp_with_bounds(&m, &lower, &upper, 100_000);
        let cold = cold.optimal().unwrap();
        let (out, used) = solve_lp_warm(&m, &lower, &upper, &warm, 100_000);
        let s = out.optimal().unwrap();
        assert!(used);
        assert!(
            s.iterations <= cold.iterations,
            "warm path used {} iterations, cold {}",
            s.iterations,
            cold.iterations
        );
    }

    #[test]
    fn stale_basis_falls_back_to_cold_solve() {
        let m = warm_parent();
        // Wrong length: cannot possibly install.
        let short = Basis {
            basis: vec![0, 1],
            at_upper: vec![],
        };
        let (out, used) = solve_lp_warm(&m, &m.lower, &m.upper, &short, 100_000);
        assert!(!used, "stale basis must not be used");
        assert!((out.optimal().unwrap().objective - 3.0).abs() < 1e-6);
        // Duplicate entries: structurally singular.
        let dup = Basis {
            basis: vec![0, 0, 1, 2],
            at_upper: vec![],
        };
        let (out, used) = solve_lp_warm(&m, &m.lower, &m.upper, &dup, 100_000);
        assert!(!used);
        assert!((out.optimal().unwrap().objective - 3.0).abs() < 1e-6);
        // Numerically singular: x0 and the two Eq rows cannot span; rows
        // 0 and 1 of [x0, x1] are [1,1] and [0,0] -> columns of x2-free
        // rows collapse. Use two columns with identical rows: x0 and x1
        // share row 0 only plus distinct rows, so build singularity from
        // slacks of the same row instead — slack index 4 twice is a
        // duplicate, so pick {x0, x1, slack0, slack0+1} where the two
        // structural columns are dependent on rows {0}: x0=[r0,r2],
        // x1=[r0,r3], slack0=[r2], slack1=[r3] -> B misses row 1 entirely
        // and is singular.
        let singular = Basis {
            basis: vec![0, 1, 4, 5],
            at_upper: vec![],
        };
        let (out, used) = solve_lp_warm(&m, &m.lower, &m.upper, &singular, 100_000);
        assert!(!used, "singular basis must fall back to phase 1");
        assert!((out.optimal().unwrap().objective - 3.0).abs() < 1e-6);
    }

    #[test]
    fn warm_start_detects_child_infeasibility() {
        // min x s.t. x + y >= 2 with x,y in [0,1]; fixing both to 0 is
        // infeasible.
        let m = lp(
            vec![1.0, 0.0],
            &[vec![1.0, 1.0]],
            vec![Sense::Ge],
            vec![2.0],
            vec![0.0, 0.0],
            vec![1.0, 1.0],
        );
        let parent = solve_lp(&m, 10_000);
        let warm = parent.optimal().unwrap().basis.clone().unwrap();
        let (out, _) = solve_lp_warm(&m, &[0.0, 0.0], &[0.0, 0.0], &warm, 10_000);
        assert!(matches!(out, LpOutcome::Infeasible));
    }

    #[test]
    fn warm_start_survives_redundant_rows() {
        // Duplicated equality leaves an artificial basic at zero in the
        // parent basis; the child warm start must accept it.
        let m = lp(
            vec![1.0, 2.0],
            &[vec![1.0, 1.0], vec![1.0, 1.0]],
            vec![Sense::Eq, Sense::Eq],
            vec![1.0, 1.0],
            vec![0.0, 0.0],
            vec![1.0, 1.0],
        );
        let parent = solve_lp(&m, 10_000);
        let warm = parent.optimal().unwrap().basis.clone().unwrap();
        let (out, used) = solve_lp_warm(&m, &[0.0, 0.0], &[0.0, 1.0], &warm, 10_000);
        let s = out.optimal().expect("child solvable");
        assert!(used, "artificial-bearing basis is still warm-startable");
        assert!((s.objective - 2.0).abs() < 1e-6, "obj {}", s.objective);
    }

    #[test]
    fn singular_refactorization_latches_a_cold_restart() {
        let m = warm_parent();
        // Columns x0, x1 and the two slacks leave row 1 empty.
        let singular = vec![0, 1, 4, 5];
        let mut sx = Simplex::new(&m, &m.lower, &m.upper);
        sx.basis = singular.clone();
        assert!(!sx.try_refactorize(), "a singular basis must not factor");
        // A basis that turns singular mid-phase latches the flag at the
        // next refactorization instead of panicking...
        let mut sx = Simplex::new(&m, &m.lower, &m.upper);
        sx.basis = singular.clone();
        sx.drifted = true;
        assert_eq!(sx.run_phase(true, 1_000), Err(Halt::IterationLimit));
        assert!(sx.singular);
        // ...and `solve` restarts cold from the artificial basis, counting
        // the abandoned attempt's work.
        let mut sx = Simplex::new(&m, &m.lower, &m.upper);
        sx.basis = singular;
        sx.drifted = true;
        let (out, stats) = sx.solve(100_000, false);
        let s = out.optimal().expect("the cold restart solves");
        assert!((s.objective - 3.0).abs() < 1e-6);
        assert_eq!(s.stats, stats);
        assert!(stats.pivots > 0 && stats.refactors <= stats.pivots);
    }

    #[test]
    fn wide_models_price_partially_and_stay_optimal() {
        // Enough start slots that a pivot row visits more entries than a
        // pricing block, so the primal phase switches to partial pricing
        // from fresh duals. Optimality is certified independently: the
        // point is feasible and every reduced cost has the sign its
        // bound allows.
        let jobs: Vec<dynp_trace::Job> = (0..16u32)
            .map(|i| {
                let h = mix64(u64::from(i));
                dynp_trace::Job::exact(i, 0, 1 + (h % 8) as u32, 60 * (1 + (h >> 8) % 40))
            })
            .collect();
        let horizon: u64 = jobs.iter().map(|j| j.estimated_duration).sum();
        let problem = dynp_sched::SchedulingProblem::on_empty_machine(0, 8, jobs);
        let ti = crate::TimeIndexedModel::build(&problem, crate::TimeScaling::fixed(60), horizon);
        let model = &ti.model;
        let crash = ti
            .crash_start(&model.lower, &model.upper)
            .expect("crash basis");
        let mut sx = Simplex::new(model, &model.lower, &model.upper);
        assert!(sx.try_crash(&crash));
        let from_crash = sx.solve_inner(200_000, true);
        let (row, scan) = (sx.pricing.row.unwrap(), sx.pricing.scan.unwrap());
        assert!(
            scan < row,
            "partial pricing measured dearer: {scan} vs {row}"
        );
        let s = from_crash.optimal().expect("wide LP solves");
        model.check_feasible(&s.x, 1e-6).unwrap();
        for (j, &d) in s.reduced_costs.iter().enumerate() {
            if s.x[j] <= model.lower[j] + 1e-9 {
                assert!(d >= -1e-6, "x{j} at lower with d = {d}");
            } else if s.x[j] >= model.upper[j] - 1e-9 {
                assert!(d <= 1e-6, "x{j} at upper with d = {d}");
            } else {
                assert!(d.abs() <= 1e-6, "x{j} basic with d = {d}");
            }
        }
        let from_phase1 = solve(model);
        let cold = from_phase1.optimal().expect("phase 1 start solves too");
        assert!((cold.objective - s.objective).abs() < 1e-6 * s.objective.abs().max(1.0));
    }

    #[test]
    fn pricing_follows_the_last_measured_work() {
        let mut w = PricingWork::default();
        assert!(!w.prefer_partial(10.0), "nothing measured: maintain");
        // A window of two pivot rows of 100 entries each, dearer than
        // the one-block estimate: try partial pricing.
        (w.row_work, w.rows) = (200, 2);
        w.close_window();
        assert!(w.prefer_partial(50.0) && !w.prefer_partial(150.0));
        // Partial passes measured at 300 entries: back to maintaining,
        // whatever the estimate; an empty window changes nothing.
        (w.scan_work, w.scans) = (900, 3);
        w.close_window();
        w.close_window();
        assert_eq!((w.row, w.scan), (Some(100.0), Some(300.0)));
        assert!(!w.prefer_partial(50.0));
    }

    #[test]
    fn maintained_pricing_confirms_a_ray_on_fresh_reduced_costs() {
        // min x + y s.t. y <= 5, x and y in [0, inf): bounded, optimum 0
        // at the origin, but x alone is a ray of the feasible set.
        let mut b = crate::sparse::CscBuilder::new(1);
        b.push_column(&[]);
        b.push_column(&[(0, 1.0)]);
        let m = Milp::new(
            vec![1.0, 1.0],
            b.build(),
            vec![Sense::Le],
            vec![5.0],
            vec![0.0, 0.0],
            vec![f64::INFINITY, f64::INFINITY],
            vec![false, false],
        );
        let mut sx = Simplex::new(&m, &m.lower, &m.upper);
        assert_eq!(sx.run_phase(true, 100), Ok(()));
        sx.price(false);
        // A drifted maintained d_x that says entering x improves.
        sx.d[0] = -1.0;
        sx.fresh = false;
        assert_eq!(sx.run_phase(false, 100), Ok(()));
        assert!(sx.d[0] > 0.0 && sx.x[0] == 0.0);
        let s = solve(&m);
        assert_eq!(s.optimal().map(|s| s.objective), Some(0.0));
    }

    #[test]
    fn no_constraints_model() {
        // min -x + y with x,y in [0,1] and no rows: x=1, y=0.
        let mut b = crate::sparse::CscBuilder::new(0);
        b.push_column(&[]);
        b.push_column(&[]);
        let m = Milp::new(
            vec![-1.0, 1.0],
            b.build(),
            vec![],
            vec![],
            vec![0.0, 0.0],
            vec![1.0, 1.0],
            vec![false, false],
        );
        let s = solve(&m);
        let s = s.optimal().unwrap();
        assert!((s.objective + 1.0).abs() < 1e-9);
    }
}
