//! Sparse LU factorization of the simplex basis, with product-form eta
//! updates between refactorizations.
//!
//! [`BasisLu::factor`] eliminates the basis matrix `B` (given as a
//! [`CscMatrix`] whose column `q` is the basic column at basis position
//! `q`) in three passes over one pivot sequence:
//!
//! 1. **Column singletons** — a column with one active entry pivots on
//!    it with no elimination at all (slacks, artificials, the
//!    assignment columns of a crash basis).
//! 2. **Row singletons** — a row with one active entry pivots on it; the
//!    other rows of that column are eliminated without fill.
//! 3. **The nucleus** — whatever the singleton passes leave is
//!    eliminated by Markowitz pivoting on sparse rows: the active column
//!    of least count, and in it the entry of least row count among those
//!    at least [`THRESHOLD`] of the column's largest magnitude, so the
//!    Markowitz product `(row count − 1)·(column count − 1)` is least
//!    for that column. Ties go to the lowest column and row index.
//!
//! The singleton passes never change a value, so the only arithmetic
//! before the nucleus is the multipliers of the row-singleton steps. A
//! time-indexed crash basis (assignment columns plus capacity slacks)
//! leaves no nucleus at all; the optimal bases of Table 1 snapshots
//! (about 190 rows) leave about 50 rows, rarely more than 150, and the
//! elimination there fills in little, because updates between columns
//! that overlap in whole runs of capacity rows mostly cancel.
//!
//! Each simplex pivot then appends one product-form eta column
//! ([`BasisLu::update`]), so FTRAN is `L` → `U` → etas and BTRAN is etas
//! (reversed) → `Uᵀ` → `Lᵀ`. [`BasisLu::needs_refactor`] asks for a fresh
//! factorization once the eta file is [`MAX_ETAS`] long or holds more
//! than twice the factors' non-zeros.
//!
//! Everything is a pure function of the input matrix and the update
//! sequence: no randomness, no wall clock, fixed iteration orders.

use crate::sparse::{CscMatrix, CsrMatrix};

/// Threshold of the nucleus pivot search: a pivot's magnitude must be at
/// least this fraction of the largest active entry in its column.
const THRESHOLD: f64 = 0.1;
/// Pivots at or below this magnitude mean the basis is singular.
const SINGULAR_TOL: f64 = 1e-9;
/// Nucleus entries that an update leaves at or below this magnitude
/// count as cancelled to zero.
const CANCEL_TOL: f64 = 1e-13;
/// Eta entries at or below this magnitude are dropped.
const DROP_TOL: f64 = 1e-14;
/// Refactorize after this many eta updates at the latest.
pub const MAX_ETAS: usize = 100;

/// The basis matrix is singular (or numerically so).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Singular;

/// A factorized basis plus its eta file.
#[derive(Clone, Debug)]
pub struct BasisLu {
    m: usize,
    /// Pivot sequence: step `k` pivots row `prow[k]` on basis position
    /// `pcol[k]` with value `diag[k]`.
    prow: Vec<u32>,
    pcol: Vec<u32>,
    diag: Vec<f64>,
    /// Off-diagonal `U` by step, row-wise: `(position, value)` of later
    /// steps' columns in row `prow[k]`.
    u_row: Packed,
    /// The same entries by step, column-wise: `(row, value)` of earlier
    /// steps' rows in position `pcol[k]`.
    u_col: Packed,
    /// `L` as elimination etas in step order: `(pivot row, entries)`
    /// where each entry `(row, l)` means `v[row] -= l * v[pivot row]`.
    l_piv: Vec<u32>,
    l: Packed,
    /// Product-form etas in update order: basis position replaced, its
    /// pivot `w_r`, and the other entries `(position, w_i)` of the
    /// entering column's FTRAN.
    e_pos: Vec<u32>,
    e_piv: Vec<f64>,
    e: Packed,
    /// Pivot steps taken in the nucleus.
    nucleus: usize,
    /// Scratch vector of length `m`.
    work: Vec<f64>,
}

/// Ragged array of `(index, value)` lists.
#[derive(Clone, Debug, Default)]
struct Packed {
    ptr: Vec<usize>,
    idx: Vec<u32>,
    val: Vec<f64>,
}

impl Packed {
    fn new() -> Packed {
        Packed {
            ptr: vec![0],
            idx: Vec::new(),
            val: Vec::new(),
        }
    }

    fn push(&mut self, i: usize, v: f64) {
        self.idx.push(i as u32);
        self.val.push(v);
    }

    fn close(&mut self) {
        self.ptr.push(self.idx.len());
    }

    fn list(&self, k: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let range = self.ptr[k]..self.ptr[k + 1];
        self.idx[range.clone()]
            .iter()
            .zip(&self.val[range])
            .map(|(&i, &v)| (i as usize, v))
    }

    fn nnz(&self) -> usize {
        self.idx.len()
    }
}

/// Removes `r` from a column pattern.
fn remove(pattern: &mut Vec<u32>, r: usize) {
    if let Some(at) = pattern.iter().position(|&x| x as usize == r) {
        pattern.swap_remove(at);
    }
}

impl BasisLu {
    /// The factorization of `diag(signs)`, e.g. an all-artificial basis.
    pub fn diagonal(signs: &[f64]) -> BasisLu {
        let m = signs.len();
        BasisLu {
            m,
            prow: (0..m as u32).collect(),
            pcol: (0..m as u32).collect(),
            diag: signs.to_vec(),
            u_row: Packed {
                ptr: vec![0; m + 1],
                ..Packed::default()
            },
            u_col: Packed {
                ptr: vec![0; m + 1],
                ..Packed::default()
            },
            l_piv: Vec::new(),
            l: Packed::new(),
            e_pos: Vec::new(),
            e_piv: Vec::new(),
            e: Packed::new(),
            nucleus: 0,
            work: vec![0.0; m],
        }
    }

    /// Factorizes the square matrix `b`.
    ///
    /// # Errors
    /// [`Singular`] when some pivot step finds no entry above the
    /// singularity tolerance.
    pub fn factor(b: &CscMatrix) -> Result<BasisLu, Singular> {
        let m = b.rows();
        assert_eq!(b.cols(), m, "basis matrix must be square");
        let mut lu = BasisLu {
            m,
            prow: Vec::with_capacity(m),
            pcol: Vec::with_capacity(m),
            diag: Vec::with_capacity(m),
            u_row: Packed::new(),
            u_col: Packed::new(),
            l_piv: Vec::new(),
            l: Packed::new(),
            e_pos: Vec::new(),
            e_piv: Vec::new(),
            e: Packed::new(),
            nucleus: 0,
            work: vec![0.0; m],
        };
        // The singleton passes read `b` column-wise and its row-wise copy;
        // finished rows and columns are skipped through the `done` flags.
        let rows = b.row_major();
        let mut row_count: Vec<usize> = (0..m).map(|r| rows.row_nnz(r)).collect();
        let mut col_count: Vec<usize> = (0..m).map(|q| b.col_nnz(q)).collect();
        if row_count.contains(&0) || col_count.contains(&0) {
            return Err(Singular);
        }
        let mut row_done = vec![false; m];
        let mut col_done = vec![false; m];
        // Singleton stacks, lowest index on top to start with.
        let mut col_stack: Vec<usize> = (0..m).rev().filter(|&q| col_count[q] == 1).collect();
        let mut row_stack: Vec<usize> = (0..m).rev().filter(|&r| row_count[r] == 1).collect();
        loop {
            if let Some(q) = col_stack.pop() {
                if col_done[q] {
                    continue;
                }
                // Column singleton: its one active row becomes a U row
                // unchanged; no other row has an entry to eliminate.
                let Some((r, pivot)) = b.column(q).find(|&(r, _)| !row_done[r]) else {
                    return Err(Singular);
                };
                if pivot.abs() <= SINGULAR_TOL {
                    return Err(Singular);
                }
                for (c, v) in rows.row(r) {
                    if c == q || col_done[c] {
                        continue;
                    }
                    lu.u_row.push(c, v);
                    col_count[c] -= 1;
                    match col_count[c] {
                        0 => return Err(Singular),
                        1 => col_stack.push(c),
                        _ => {}
                    }
                }
                lu.u_row.close();
                lu.pivot(r, q, pivot);
                row_done[r] = true;
                col_done[q] = true;
                continue;
            }
            if let Some(r) = row_stack.pop() {
                if row_done[r] {
                    continue;
                }
                // Row singleton: the pivot is the whole U row; the other
                // active rows of its column are eliminated without fill.
                let Some((q, pivot)) = rows.row(r).find(|&(c, _)| !col_done[c]) else {
                    return Err(Singular);
                };
                if pivot.abs() <= SINGULAR_TOL {
                    return Err(Singular);
                }
                lu.u_row.close();
                for (i, v) in b.column(q) {
                    if i == r || row_done[i] {
                        continue;
                    }
                    lu.l.push(i, v / pivot);
                    row_count[i] -= 1;
                    match row_count[i] {
                        0 => return Err(Singular),
                        1 => row_stack.push(i),
                        _ => {}
                    }
                }
                lu.close_l(r);
                lu.pivot(r, q, pivot);
                row_done[r] = true;
                col_done[q] = true;
                continue;
            }
            break;
        }
        lu.eliminate_nucleus(rows, &row_done, &col_done)?;
        lu.build_u_columns();
        Ok(lu)
    }

    /// Records pivot step `(r, q)`; its `U` row must already be closed.
    fn pivot(&mut self, r: usize, q: usize, value: f64) {
        self.prow.push(r as u32);
        self.pcol.push(q as u32);
        self.diag.push(value);
    }

    /// Closes the `L` eta of pivot row `r` (dropped when empty).
    fn close_l(&mut self, r: usize) {
        if self.l.idx.len() > *self.l.ptr.last().expect("ptr starts at 0") {
            self.l_piv.push(r as u32);
            self.l.close();
        }
    }

    /// Markowitz elimination of the nucleus — the rows and columns the
    /// singleton passes left active — on sparse rows with values and a
    /// column pattern, so the work follows the non-zeros and the fill.
    fn eliminate_nucleus(
        &mut self,
        csr: &CsrMatrix,
        row_done: &[bool],
        col_done: &[bool],
    ) -> Result<(), Singular> {
        let m = self.m;
        let mut active_cols: Vec<usize> = (0..m).filter(|&q| !col_done[q]).collect();
        let mut rows: Vec<Vec<(u32, f64)>> = vec![Vec::new(); m];
        let mut cols: Vec<Vec<u32>> = vec![Vec::new(); m];
        let mut active_rows = 0;
        for r in (0..m).filter(|&r| !row_done[r]) {
            active_rows += 1;
            for (q, v) in csr.row(r) {
                if !col_done[q] {
                    rows[r].push((q as u32, v));
                    cols[q].push(r as u32);
                }
            }
        }
        if active_rows != active_cols.len() {
            return Err(Singular);
        }
        let mut slot = vec![usize::MAX; m];
        while !active_cols.is_empty() {
            let (at, q) = active_cols
                .iter()
                .copied()
                .enumerate()
                .min_by_key(|&(_, q)| (cols[q].len(), q))
                .expect("loop runs while columns are active");
            active_cols.swap_remove(at);
            let entries: Vec<(usize, f64)> = std::mem::take(&mut cols[q])
                .into_iter()
                .map(|r| {
                    let r = r as usize;
                    let v = rows[r]
                        .iter()
                        .find(|&&(c, _)| c as usize == q)
                        .map_or(0.0, |e| e.1);
                    (r, v)
                })
                .collect();
            let col_max = entries.iter().fold(0.0f64, |acc, &(_, v)| acc.max(v.abs()));
            if col_max <= SINGULAR_TOL {
                return Err(Singular);
            }
            let (p, pivot) = entries
                .iter()
                .copied()
                .filter(|&(_, v)| v.abs() >= THRESHOLD * col_max)
                .min_by_key(|&(r, _)| (rows[r].len(), r))
                .expect("the column maximum passes the threshold");
            let prow = std::mem::take(&mut rows[p]);
            for &(c, v) in &prow {
                let c = c as usize;
                if c != q {
                    self.u_row.push(c, v);
                    remove(&mut cols[c], p);
                }
            }
            self.u_row.close();
            for &(i, v) in &entries {
                if i == p {
                    continue;
                }
                let l = v / pivot;
                self.l.push(i, l);
                let row = &mut rows[i];
                for (at, &(c, _)) in row.iter().enumerate() {
                    slot[c as usize] = at;
                }
                for &(c, u) in &prow {
                    let cu = c as usize;
                    if cu == q {
                        continue;
                    }
                    if slot[cu] == usize::MAX {
                        row.push((c, -l * u));
                        cols[cu].push(i as u32);
                    } else {
                        row[slot[cu]].1 -= l * u;
                    }
                }
                // Drop the pivot column's entry, and whatever cancelled:
                // time-indexed columns overlap in whole runs of rows, so
                // updates often cancel exactly.
                row.retain(|&(c, v)| {
                    let c = c as usize;
                    slot[c] = usize::MAX;
                    let keep = c != q && v.abs() > CANCEL_TOL;
                    if !keep && c != q {
                        remove(&mut cols[c], i);
                    }
                    keep
                });
            }
            self.close_l(p);
            self.pivot(p, q, pivot);
            self.nucleus += 1;
        }
        Ok(())
    }

    /// Builds the column-wise copy of `U` from the row-wise one.
    fn build_u_columns(&mut self) {
        let m = self.m;
        let mut step_of = vec![0usize; m];
        for (k, &q) in self.pcol.iter().enumerate() {
            step_of[q as usize] = k;
        }
        let mut ptr = vec![0usize; m + 1];
        for &q in &self.u_row.idx {
            ptr[step_of[q as usize] + 1] += 1;
        }
        for k in 0..m {
            ptr[k + 1] += ptr[k];
        }
        let nnz = self.u_row.nnz();
        let mut idx = vec![0u32; nnz];
        let mut val = vec![0.0; nnz];
        let mut next = ptr.clone();
        for k in 0..m {
            let r = self.prow[k];
            for (q, v) in self.u_row.list(k) {
                let j = step_of[q];
                idx[next[j]] = r;
                val[next[j]] = v;
                next[j] += 1;
            }
        }
        self.u_col = Packed { ptr, idx, val };
    }

    /// Solves `B x = v` in place: `v` enters indexed by row and leaves
    /// indexed by basis position.
    pub fn ftran(&mut self, v: &mut [f64]) {
        debug_assert_eq!(v.len(), self.m);
        for (e, &p) in self.l_piv.iter().enumerate() {
            let a = v[p as usize];
            if a != 0.0 {
                for (i, l) in self.l.list(e) {
                    v[i] -= l * a;
                }
            }
        }
        for k in (0..self.m).rev() {
            let xk = v[self.prow[k] as usize] / self.diag[k];
            self.work[self.pcol[k] as usize] = xk;
            if xk != 0.0 {
                for (i, u) in self.u_col.list(k) {
                    v[i] -= u * xk;
                }
            }
        }
        v.copy_from_slice(&self.work);
        for (e, &r) in self.e_pos.iter().enumerate() {
            let r = r as usize;
            if v[r] != 0.0 {
                let t = v[r] / self.e_piv[e];
                for (i, w) in self.e.list(e) {
                    v[i] -= w * t;
                }
                v[r] = t;
            }
        }
    }

    /// Solves `Bᵀ y = v` in place: `v` enters indexed by basis position
    /// and leaves indexed by row.
    pub fn btran(&mut self, v: &mut [f64]) {
        debug_assert_eq!(v.len(), self.m);
        for (e, &r) in self.e_pos.iter().enumerate().rev() {
            let r = r as usize;
            let dot: f64 = self.e.list(e).map(|(i, w)| w * v[i]).sum();
            v[r] = (v[r] - dot) / self.e_piv[e];
        }
        for k in 0..self.m {
            let zk = v[self.pcol[k] as usize] / self.diag[k];
            self.work[self.prow[k] as usize] = zk;
            if zk != 0.0 {
                for (q, u) in self.u_row.list(k) {
                    v[q] -= u * zk;
                }
            }
        }
        v.copy_from_slice(&self.work);
        for (e, &p) in self.l_piv.iter().enumerate().rev() {
            let dot: f64 = self.l.list(e).map(|(i, l)| l * v[i]).sum();
            v[p as usize] -= dot;
        }
    }

    /// Records that the column whose FTRAN is `w` (indexed by basis
    /// position) replaced the basic column at position `r`. Returns the
    /// eta's stored non-zeros.
    pub fn update(&mut self, r: usize, w: &[f64]) -> usize {
        debug_assert!(w[r].abs() > SINGULAR_TOL, "tiny eta pivot {}", w[r]);
        let before = self.e.nnz();
        for (i, &wi) in w.iter().enumerate() {
            if i != r && wi.abs() > DROP_TOL {
                self.e.push(i, wi);
            }
        }
        self.e.close();
        self.e_pos.push(r as u32);
        self.e_piv.push(w[r]);
        self.e.nnz() - before + 1
    }

    /// Non-zeros of `L` and `U`, diagonal included.
    pub fn factor_nnz(&self) -> usize {
        self.m + self.u_row.nnz() + self.l.nnz()
    }

    /// Eta updates since the factorization.
    pub fn etas(&self) -> usize {
        self.e_pos.len()
    }

    /// Whether the eta file has grown enough that a fresh factorization
    /// is cheaper than carrying it: [`MAX_ETAS`] updates, or more than
    /// twice as many eta non-zeros as the factors hold. (Refactorizing
    /// at once the eta file matches the factors spent more time
    /// factorizing than the shorter solves saved, on Table 1 snapshots
    /// and on the 1000-job root LP alike.)
    pub fn needs_refactor(&self) -> bool {
        self.etas() >= MAX_ETAS || self.e.nnz() > 2 * self.factor_nnz()
    }

    /// Pivot steps the factorization took in the nucleus, after the
    /// singleton passes.
    #[cfg(test)]
    pub fn nucleus(&self) -> usize {
        self.nucleus
    }
}

#[cfg(test)]
// The dense reference matrices are indexed `[row][column]`.
#[allow(clippy::needless_range_loop)]
mod tests {
    use super::*;
    use crate::simplex::{basis_matrix_of, solve_lp, LpOutcome};
    use crate::sparse::CscBuilder;
    use crate::{TimeIndexedModel, TimeScaling};
    use dynp_sched::SchedulingProblem;
    use dynp_trace::Job;
    use proptest::prelude::*;

    /// Deterministic xorshift for the random matrices.
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }
        fn unit(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    fn dense(b: &CscMatrix) -> Vec<Vec<f64>> {
        let m = b.rows();
        let mut d = vec![vec![0.0; m]; m];
        for q in 0..m {
            for (r, v) in b.column(q) {
                d[r][q] = v;
            }
        }
        d
    }

    fn mat_vec(d: &[Vec<f64>], x: &[f64]) -> Vec<f64> {
        d.iter()
            .map(|row| row.iter().zip(x).map(|(a, b)| a * b).sum())
            .collect()
    }

    fn mat_t_vec(d: &[Vec<f64>], y: &[f64]) -> Vec<f64> {
        let m = d.len();
        (0..m)
            .map(|q| (0..m).map(|r| d[r][q] * y[r]).sum())
            .collect()
    }

    fn rel_residual(got: &[f64], want: &[f64]) -> f64 {
        let scale = want.iter().fold(1.0f64, |a, v| a.max(v.abs()));
        got.iter()
            .zip(want)
            .fold(0.0f64, |a, (g, w)| a.max((g - w).abs()))
            / scale
    }

    /// A random sparse nonsingular matrix: a permuted diagonal that
    /// dominates a few random off-diagonal entries per column.
    fn random_sparse(rng: &mut Rng, m: usize, per_col: usize) -> CscMatrix {
        let mut perm: Vec<usize> = (0..m).collect();
        for i in (1..m).rev() {
            perm.swap(i, rng.next() as usize % (i + 1));
        }
        let mut b = CscBuilder::new(m);
        for q in 0..m {
            let mut entries = vec![(perm[q], 4.0 + rng.unit())];
            for _ in 0..per_col {
                let r = rng.next() as usize % m;
                if entries.iter().all(|&(e, _)| e != r) {
                    entries.push((r, rng.unit() - 0.5));
                }
            }
            entries.sort_by_key(|&(r, _)| r);
            b.push_column(&entries);
        }
        b.build()
    }

    fn check_solves(lu: &mut BasisLu, d: &[Vec<f64>], rng: &mut Rng) {
        let m = d.len();
        let rhs: Vec<f64> = (0..m).map(|_| rng.unit() * 2.0 - 1.0).collect();
        let mut x = rhs.clone();
        lu.ftran(&mut x);
        assert!(
            rel_residual(&mat_vec(d, &x), &rhs) <= 1e-9,
            "FTRAN residual"
        );
        let mut y = rhs.clone();
        lu.btran(&mut y);
        assert!(
            rel_residual(&mat_t_vec(d, &y), &rhs) <= 1e-9,
            "BTRAN residual"
        );
    }

    #[test]
    fn random_sparse_bases_solve_to_tolerance() {
        let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
        for case in 0..40 {
            let m = 1 + case % 37;
            let b = random_sparse(&mut rng, m, 1 + case % 4);
            let mut lu = BasisLu::factor(&b).expect("diagonally dominant");
            check_solves(&mut lu, &dense(&b), &mut rng);
        }
    }

    #[test]
    fn eta_updates_agree_with_a_fresh_factorization() {
        let mut rng = Rng(42);
        for case in 0..20 {
            let m = 4 + case % 20;
            let b = random_sparse(&mut rng, m, 2);
            let mut d = dense(&b);
            let mut lu = BasisLu::factor(&b).unwrap();
            for _ in 0..(1 + case % 12) {
                // Replace a random position with a random column whose
                // FTRAN pivot is safely away from zero.
                let col: Vec<f64> = (0..m)
                    .map(|_| {
                        if rng.unit() < 0.3 {
                            rng.unit() - 0.5
                        } else {
                            0.0
                        }
                    })
                    .collect();
                let mut w = col.clone();
                lu.ftran(&mut w);
                let Some(r) = (0..m).max_by(|&a, &b| w[a].abs().total_cmp(&w[b].abs())) else {
                    continue;
                };
                if w[r].abs() < 1e-3 {
                    continue;
                }
                lu.update(r, &w);
                for (row, v) in d.iter_mut().zip(&col) {
                    row[r] = *v;
                }
            }
            check_solves(&mut lu, &d, &mut rng);
            // And a fresh factorization of the updated matrix agrees.
            let mut fresh_b = CscBuilder::new(m);
            for q in 0..m {
                let entries: Vec<(usize, f64)> = (0..m)
                    .filter(|&r| d[r][q] != 0.0)
                    .map(|r| (r, d[r][q]))
                    .collect();
                fresh_b.push_column(&entries);
            }
            let mut fresh = BasisLu::factor(&fresh_b.build()).unwrap();
            let rhs: Vec<f64> = (0..m).map(|_| rng.unit()).collect();
            let (mut a, mut b2) = (rhs.clone(), rhs.clone());
            lu.ftran(&mut a);
            fresh.ftran(&mut b2);
            assert!(rel_residual(&a, &b2) <= 1e-9, "eta FTRAN drifted");
        }
    }

    /// A random §3.1 time-indexed model on an empty machine, one
    /// `(width_seed, duration_seed)` pair per waiting job.
    fn time_indexed(capacity: u32, scale: u64, specs: &[(u32, u64)]) -> TimeIndexedModel {
        let jobs: Vec<Job> = specs
            .iter()
            .enumerate()
            .map(|(i, &(w, d))| Job::exact(i as u32, 0, 1 + w % capacity, 60 * (1 + d % 30)))
            .collect();
        let horizon: u64 = jobs.iter().map(|j| j.estimated_duration).sum();
        let problem = SchedulingProblem::on_empty_machine(0, capacity, jobs);
        TimeIndexedModel::build(&problem, TimeScaling::fixed(scale), horizon)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// FTRAN and BTRAN solve random sparse nonsingular bases to a
        /// 1e-9 relative residual, before and after eta updates.
        #[test]
        fn random_bases_solve_to_tolerance(
            seed in 1u64..u64::MAX,
            m in 1usize..60,
            per_col in 0usize..5,
        ) {
            let mut rng = Rng(seed);
            let b = random_sparse(&mut rng, m, per_col);
            let mut lu = BasisLu::factor(&b).expect("diagonally dominant");
            check_solves(&mut lu, &dense(&b), &mut rng);
        }

        /// On random §3.1 models the crash basis factors in the singleton
        /// passes alone (an empty nucleus), and both it and the LP's
        /// optimal basis solve to a 1e-9 relative residual.
        #[test]
        fn time_indexed_crash_and_optimal_bases_factor(
            capacity in 2u32..6,
            scale_idx in 0usize..3,
            specs in prop::collection::vec((0u32..8, 0u64..40), 2..6),
            seed in 1u64..u64::MAX,
        ) {
            let ti = time_indexed(capacity, [60u64, 120, 300][scale_idx], &specs);
            let model = &ti.model;
            let mut rng = Rng(seed);
            let crash = ti
                .crash_start(&model.lower, &model.upper)
                .expect("an empty machine fits every job");
            let b = basis_matrix_of(model, &crash.basis);
            let mut lu = BasisLu::factor(&b).expect("crash bases are nonsingular");
            prop_assert_eq!(lu.nucleus(), 0);
            check_solves(&mut lu, &dense(&b), &mut rng);
            let LpOutcome::Optimal(sol) = solve_lp(model, 200_000) else {
                panic!("root LP of a generated model did not solve");
            };
            let basis = sol.basis.expect("optimal LP carries a basis");
            let b = basis_matrix_of(model, &basis.basis);
            let mut lu = BasisLu::factor(&b).expect("optimal bases are nonsingular");
            check_solves(&mut lu, &dense(&b), &mut rng);
        }
    }

    #[test]
    fn singular_bases_fail_without_panicking() {
        // An empty row.
        let b = CscMatrix::from_dense(&[vec![1.0, 0.0], vec![0.0, 0.0]]);
        assert_eq!(BasisLu::factor(&b).unwrap_err(), Singular);
        // Two identical columns.
        let b = CscMatrix::from_dense(&[
            vec![1.0, 1.0, 0.0],
            vec![2.0, 2.0, 0.0],
            vec![0.0, 0.0, 1.0],
        ]);
        assert_eq!(BasisLu::factor(&b).unwrap_err(), Singular);
        // Dependent through the nucleus: col2 = col0 + col1.
        let b = CscMatrix::from_dense(&[
            vec![1.0, 1.0, 2.0],
            vec![1.0, 2.0, 3.0],
            vec![2.0, 1.0, 3.0],
        ]);
        assert_eq!(BasisLu::factor(&b).unwrap_err(), Singular);
    }
}
