//! Sparse MNA engine with a reusable symbolic factorisation.
//!
//! The fault-simulation hot loop solves the *same-structured* linear
//! system thousands of times: every Newton iteration of every timestep
//! of every fault reassembles a matrix whose nonzero pattern depends
//! only on the circuit topology. This module splits that work the way
//! sparse-SPICE kernels (Kundert's Sparse1.3, KLU) do:
//!
//! * [`Pattern`] — built **once per topology**: the structural nonzero
//!   set, a fill-reducing Markowitz pivot order with a structurally
//!   nonzero diagonal, the symbolic fill-in, and a precomputed
//!   slot→position scatter plan. Building it costs a symbolic
//!   elimination; using it costs nothing.
//! * [`SparseSystem`] — per-solver numeric state. Devices stamp by
//!   *slot* (a precomputed index into the nonzero array, resolved
//!   through an O(1) lookup table instead of `row*n + col`), and each
//!   `solve` runs a numeric-only refactorisation over the frozen
//!   structure: no pivot search, no fill discovery, no allocation.
//! * [`PatternCache`] — a thread-safe map from topology to
//!   `Arc<Pattern>`, shared across a whole fault campaign. Faults that
//!   preserve the stamp structure (soft deviations) hit the cache
//!   outright; bridges and opens add a handful of known slots and get
//!   their variant pattern built exactly once.
//! * [`MnaSolver`] — the dispatcher: a dense [`MnaSystem`] for tiny
//!   systems (below [`DENSE_CUTOFF`] unknowns dense pivoting is both
//!   faster and more robust), sparse otherwise. It also keeps
//!   [`SolverStats`] work counters alive across the sparse → dense
//!   demotion.
//!
//! ## Numeric robustness under a frozen pivot order
//!
//! A purely structural pivot order can die numerically: MNA rows mix
//! gmin-scale diagonals with unit-scale source couplings and
//! milli-siemens transconductances, and eliminating a tiny pivot under
//! large off-diagonals grows the factors until the (row-scale-relative,
//! see [`crate::mna`]) pivot test trips. When that happens the system
//! **re-pivots numerically**: a threshold-Markowitz ordering is
//! recomputed from the *current values* and kept as a solver-local
//! plan, so subsequent refactors stay cheap. Only if the freshly
//! re-pivoted plan also fails does the solve drop to dense partial
//! pivoting — at that point the matrix is singular for any practical
//! purpose, and the dense solver reports it precisely.

use crate::devices::UnknownMap;
use crate::mna::{MnaSystem, Stamper, REL_PIVOT_TOL};
use crate::netlist::{Circuit, ElementKind};
use crate::SpiceError;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Below this many unknowns the dense solver is used under
/// [`SolverKind::Auto`]: dense partial pivoting beats the sparse
/// machinery's bookkeeping on matrices that fit in a couple of cache
/// lines.
pub const DENSE_CUTOFF: usize = 12;

/// Threshold-pivoting acceptance ratio for the numeric re-pivot: a
/// candidate pivot must reach this fraction of the largest magnitude in
/// its active column (Kundert-style partial threshold pivoting).
const PIVOT_THRESHOLD: f64 = 0.01;

/// Consecutive dense rescues after which [`MnaSolver::solve`] demotes
/// a sparse solver to plain dense for the remainder of its analysis.
const DEMOTE_AFTER_FALLBACKS: u32 = 2;

/// Element-growth limit for a frozen-order refactorisation: when a
/// factored row exceeds this multiple of the assembled matrix's
/// largest entry, the elimination has amplified round-off past ~6
/// digits and the row-relative pivot test alone cannot see it (the
/// whole row grew together). Treated like a dead pivot: re-pivot
/// numerically. Kept tight (1e6 ⇒ solution agreement with dense
/// partial pivoting to ~1e-10·‖x‖) because a re-pivot costs tens of
/// microseconds once, while silent precision loss is unbounded.
pub(crate) const GROWTH_LIMIT: f64 = 1e6;

/// Which linear-solver backend to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolverKind {
    /// Pick per system size: dense below [`DENSE_CUTOFF`] unknowns,
    /// sparse at or above it.
    #[default]
    Auto,
    /// Always the dense row-major LU.
    Dense,
    /// Always the sparse engine (still falls back to dense on a
    /// structurally singular pattern or a numerically dead pivot).
    Sparse,
}

/// Marker for "not a structural nonzero" in the slot lookup table.
pub(crate) const NO_SLOT: u32 = u32::MAX;

/// A frozen factorisation plan: pivot order, filled structure and the
/// stamp scatter map. [`Pattern`] holds the structural (topology-only)
/// plan; a [`SparseSystem`] may additionally carry a numerically
/// re-pivoted local plan. Crate-visible so the batched engine
/// ([`crate::batch`]) can run the same plan across many value lanes.
#[derive(Debug, Clone)]
pub(crate) struct Plan {
    /// Elimination step → original row.
    pub(crate) row_perm: Vec<u32>,
    /// Elimination position → original column (unknown index).
    pub(crate) col_perm: Vec<u32>,
    /// CSR over the *filled, permuted* pattern: `row_start[k]..row_start
    /// [k+1]` indexes `cols`/the LU value array for elimination row `k`.
    pub(crate) row_start: Vec<u32>,
    /// Column positions per filled row, ascending.
    pub(crate) cols: Vec<u32>,
    /// Index of the diagonal entry within the LU arrays, per row.
    pub(crate) diag: Vec<u32>,
    /// Scatter plan, parallel to `cols`: the assembled-value slot that
    /// lands on each factor entry, or [`NO_SLOT`] for pure fill — one
    /// linear pass loads a whole row of the workspace.
    pub(crate) slot_at: Vec<u32>,
}

/// Working state for a Markowitz elimination over row/column index
/// sets. Shared by the structural ordering (`Pattern::build`) and the
/// numeric re-pivot, which differ only in how they pick each pivot.
struct Elimination {
    rows: Vec<BTreeSet<u32>>,
    cols_ix: Vec<BTreeSet<u32>>,
    row_active: Vec<bool>,
}

impl Elimination {
    fn new(n: usize, coords: &[(u32, u32)]) -> Self {
        let mut rows: Vec<BTreeSet<u32>> = vec![BTreeSet::new(); n];
        let mut cols_ix: Vec<BTreeSet<u32>> = vec![BTreeSet::new(); n];
        for &(r, c) in coords {
            rows[r as usize].insert(c);
            cols_ix[c as usize].insert(r);
        }
        Elimination {
            rows,
            cols_ix,
            row_active: vec![true; n],
        }
    }

    /// Applies the symbolic Schur update for pivot `(pi, pj)` and
    /// deactivates its row and column.
    fn eliminate(&mut self, pi: u32, pj: u32) {
        let pivot_row: Vec<u32> = self.rows[pi as usize]
            .iter()
            .copied()
            .filter(|&c| c != pj)
            .collect();
        let updating: Vec<u32> = self.cols_ix[pj as usize]
            .iter()
            .copied()
            .filter(|&r| r != pi)
            .collect();
        for &r in &updating {
            for &c in &pivot_row {
                if self.rows[r as usize].insert(c) {
                    self.cols_ix[c as usize].insert(r);
                }
            }
        }
        self.row_active[pi as usize] = false;
        for &c in self.rows[pi as usize].clone().iter() {
            self.cols_ix[c as usize].remove(&pi);
        }
        for &r in self.cols_ix[pj as usize].clone().iter() {
            self.rows[r as usize].remove(&pj);
        }
        self.cols_ix[pj as usize].clear();
    }
}

/// Completes a plan from a chosen pivot order: symbolic up-looking
/// fill over the fixed order, CSR assembly, and the scatter map.
/// Returns `None` when some row lacks its structural diagonal (cannot
/// happen for Markowitz-chosen pivots; checked defensively).
pub(crate) fn finish_plan(
    n: usize,
    coords: &[(u32, u32)],
    row_perm: Vec<u32>,
    col_perm: Vec<u32>,
) -> Option<Plan> {
    let mut rpos = vec![0u32; n];
    let mut cpos = vec![0u32; n];
    for (k, (&r, &c)) in row_perm.iter().zip(&col_perm).enumerate() {
        rpos[r as usize] = k as u32;
        cpos[c as usize] = k as u32;
    }

    // Original pattern per permuted row, in position space.
    let mut orig_rows: Vec<Vec<u32>> = vec![Vec::new(); n];
    for &(r, c) in coords {
        orig_rows[rpos[r as usize] as usize].push(cpos[c as usize]);
    }

    // Symbolic up-looking elimination over the fixed order,
    // materialising the filled structure row by row: row k's final
    // structure is its original entries plus, for every already-
    // factored row j < k it reaches, that row's U entries.
    let mut row_start = vec![0u32; n + 1];
    let mut cols: Vec<u32> = Vec::with_capacity(coords.len() * 2);
    let mut diag = vec![0u32; n];
    let mut mark = vec![false; n];
    for k in 0..n {
        for &p in &orig_rows[k] {
            mark[p as usize] = true;
        }
        for j in 0..k {
            if !mark[j] {
                continue;
            }
            let dj = diag[j] as usize;
            let end = row_start[j + 1] as usize;
            for &t in &cols[dj + 1..end] {
                mark[t as usize] = true;
            }
        }
        if !mark[k] {
            return None;
        }
        for (p, m) in mark.iter_mut().enumerate() {
            if *m {
                if p == k {
                    diag[k] = cols.len() as u32;
                }
                cols.push(p as u32);
                *m = false;
            }
        }
        row_start[k + 1] = cols.len() as u32;
    }

    // Scatter plan: which assembled slot feeds each factor entry
    // (NO_SLOT for pure fill), aligned with `cols` so the refactor
    // loads a row in one linear pass.
    let mut slot_pos = vec![NO_SLOT; n * n]; // (row k, position) → slot
    for (slot, &(r, c)) in coords.iter().enumerate() {
        let k = rpos[r as usize] as usize;
        slot_pos[k * n + cpos[c as usize] as usize] = slot as u32;
    }
    let mut slot_at = Vec::with_capacity(cols.len());
    for k in 0..n {
        for idx in row_start[k] as usize..row_start[k + 1] as usize {
            slot_at.push(slot_pos[k * n + cols[idx] as usize]);
        }
    }

    Some(Plan {
        row_perm,
        col_perm,
        row_start,
        cols,
        diag,
        slot_at,
    })
}

/// The reusable symbolic half of a sparse factorisation: structural
/// nonzeros, pivot order, fill-in, and the stamp scatter plan. Immutable
/// once built; shared via `Arc` across Newton iterations, timesteps and
/// campaign workers.
#[derive(Debug)]
pub struct Pattern {
    n: usize,
    /// Sorted, deduplicated structural coordinates — the cache identity.
    coords: Vec<(u32, u32)>,
    /// Dense `n × n` lookup: `(row, col)` → slot index into the value
    /// array (`NO_SLOT` when absent). O(1) stamp resolution.
    pub(crate) slot_of: Vec<u32>,
    /// The topology-only factorisation plan.
    pub(crate) plan: Plan,
}

impl Pattern {
    /// Symbolic analysis: orders the pivots (structural Markowitz with
    /// fill tracking), computes the fill-in, and freezes the
    /// factorisation structure. Returns `None` when the pattern has no
    /// structural transversal (a structurally singular system — the
    /// caller falls back to dense pivoting, which reports the precise
    /// failure).
    pub fn build(n: usize, coords: Vec<(u32, u32)>) -> Option<Pattern> {
        Self::build_inner(n, coords, None)
    }

    /// Like [`Pattern::build`], but restricts pivot *selection* to the
    /// `allowed` coordinate set (the structure itself is unchanged).
    /// The batched engine uses this to factor a union-of-lanes pattern
    /// while only pivoting on entries structurally present in *every*
    /// lane, so one elimination order is numerically valid for all of
    /// them. Returns `None` when the restriction leaves no transversal.
    pub(crate) fn build_restricted(
        n: usize,
        coords: Vec<(u32, u32)>,
        allowed: &HashSet<(u32, u32)>,
    ) -> Option<Pattern> {
        Self::build_inner(n, coords, Some(allowed))
    }

    fn build_inner(
        n: usize,
        mut coords: Vec<(u32, u32)>,
        allowed: Option<&HashSet<(u32, u32)>>,
    ) -> Option<Pattern> {
        if n == 0 {
            return None;
        }
        coords.sort_unstable();
        coords.dedup();

        // Structural Markowitz ordering: at each step pick the
        // structural nonzero minimising (r−1)(c−1); the symbolic Schur
        // update lets later choices see the fill.
        let mut elim = Elimination::new(n, &coords);
        let mut row_perm = Vec::with_capacity(n);
        let mut col_perm = Vec::with_capacity(n);
        for _ in 0..n {
            let mut best: Option<(usize, u32, u32)> = None;
            for (i, row) in elim.rows.iter().enumerate() {
                if !elim.row_active[i] {
                    continue;
                }
                let rc = row.len();
                for &j in row {
                    if let Some(allowed) = allowed {
                        if !allowed.contains(&(i as u32, j)) {
                            continue;
                        }
                    }
                    let cc = elim.cols_ix[j as usize].len();
                    let cost = rc.saturating_sub(1) * cc.saturating_sub(1);
                    if best.is_none_or(|(bc, _, _)| cost < bc) {
                        best = Some((cost, i as u32, j));
                    }
                }
            }
            let (_, pi, pj) = best?; // no structural pivot left: singular
            row_perm.push(pi);
            col_perm.push(pj);
            elim.eliminate(pi, pj);
        }

        let plan = finish_plan(n, &coords, row_perm, col_perm)?;
        let mut slot_of = vec![NO_SLOT; n * n];
        for (slot, &(r, c)) in coords.iter().enumerate() {
            slot_of[r as usize * n + c as usize] = slot as u32;
        }
        PATTERN_BUILDS.inc();
        Some(Pattern {
            n,
            coords,
            slot_of,
            plan,
        })
    }

    /// System dimension.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Structural nonzeros (before fill).
    pub fn nnz(&self) -> usize {
        self.coords.len()
    }

    /// Nonzeros of the LU factors (including fill-in) under the
    /// structural plan.
    pub fn nnz_factored(&self) -> usize {
        self.plan.cols.len()
    }
}

/// Re-pivots from the currently assembled values: threshold-Markowitz
/// — among structural nonzeros whose magnitude reaches
/// [`PIVOT_THRESHOLD`] of their active column's largest entry, pick the
/// lowest Markowitz cost (ties: larger magnitude). Values are
/// eliminated densely alongside the structural sets so each step sees
/// the real Schur complement.
fn numeric_plan(n: usize, coords: &[(u32, u32)], vals: &[f64]) -> Option<Plan> {
    let mut a = vec![0.0f64; n * n];
    for (slot, &(r, c)) in coords.iter().enumerate() {
        a[r as usize * n + c as usize] += vals[slot];
    }
    let mut elim = Elimination::new(n, coords);
    let mut row_perm = Vec::with_capacity(n);
    let mut col_perm = Vec::with_capacity(n);
    for _ in 0..n {
        // Active-column magnitudes for the threshold test.
        let mut col_max = vec![0.0f64; n];
        for (i, row) in elim.rows.iter().enumerate() {
            if !elim.row_active[i] {
                continue;
            }
            for &j in row {
                let m = a[i * n + j as usize].abs();
                if m > col_max[j as usize] {
                    col_max[j as usize] = m;
                }
            }
        }
        let mut best: Option<(usize, f64, u32, u32)> = None;
        for (i, row) in elim.rows.iter().enumerate() {
            if !elim.row_active[i] {
                continue;
            }
            let rc = row.len();
            for &j in row {
                let mag = a[i * n + j as usize].abs();
                if mag == 0.0 || mag < PIVOT_THRESHOLD * col_max[j as usize] {
                    continue;
                }
                let cc = elim.cols_ix[j as usize].len();
                let cost = rc.saturating_sub(1) * cc.saturating_sub(1);
                let better = match best {
                    None => true,
                    Some((bc, bm, _, _)) => cost < bc || (cost == bc && mag > bm),
                };
                if better {
                    best = Some((cost, mag, i as u32, j));
                }
            }
        }
        let (_, _, pi, pj) = best?; // every remaining entry is zero
                                    // Dense numeric elimination so later threshold tests see the
                                    // updated values.
        let pivot = a[pi as usize * n + pj as usize];
        let updating: Vec<u32> = elim.cols_ix[pj as usize]
            .iter()
            .copied()
            .filter(|&r| r != pi)
            .collect();
        for &r in &updating {
            let f = a[r as usize * n + pj as usize] / pivot;
            if f != 0.0 {
                for c in 0..n {
                    a[r as usize * n + c] -= f * a[pi as usize * n + c];
                }
            }
        }
        row_perm.push(pi);
        col_perm.push(pj);
        elim.eliminate(pi, pj);
    }
    finish_plan(n, coords, row_perm, col_perm)
}

/// Process-wide count of numeric re-pivots (diagnostic; see
/// [`sparse_repivots`]).
static REPIVOTS: AtomicU64 = AtomicU64::new(0);
/// Process-wide count of dense fallbacks after a failed re-pivot
/// (diagnostic; see [`sparse_dense_fallbacks`]).
static DENSE_FALLBACKS: AtomicU64 = AtomicU64::new(0);

/// How many times any sparse solver in this process re-pivoted
/// numerically. Purely diagnostic — lets benches and tests confirm the
/// fast path stays fast.
pub fn sparse_repivots() -> u64 {
    REPIVOTS.load(Ordering::Relaxed)
}

/// How many times any sparse solver in this process dropped to the
/// dense solver after re-pivoting failed. Purely diagnostic.
pub fn sparse_dense_fallbacks() -> u64 {
    DENSE_FALLBACKS.load(Ordering::Relaxed)
}

/// Symbolic pattern builds (cold: once per topology).
static PATTERN_BUILDS: cat_telemetry::StaticCounter =
    cat_telemetry::StaticCounter::new("spice.sparse.pattern_builds");
static CACHE_HITS: cat_telemetry::StaticCounter =
    cat_telemetry::StaticCounter::new("spice.sparse.pattern_cache.hits");
static CACHE_MISSES: cat_telemetry::StaticCounter =
    cat_telemetry::StaticCounter::new("spice.sparse.pattern_cache.misses");
static FLUSH_REFACTORISATIONS: cat_telemetry::StaticCounter =
    cat_telemetry::StaticCounter::new("spice.sparse.refactorisations");
static FLUSH_REPIVOTS: cat_telemetry::StaticCounter =
    cat_telemetry::StaticCounter::new("spice.sparse.repivots");
static FLUSH_DENSE_FALLBACKS: cat_telemetry::StaticCounter =
    cat_telemetry::StaticCounter::new("spice.sparse.dense_fallbacks");
static FLUSH_DEMOTIONS: cat_telemetry::StaticCounter =
    cat_telemetry::StaticCounter::new("spice.sparse.demotions");

/// Per-solver work counters, kept as plain integers on the hot path
/// and flushed into the global [`cat_telemetry`] registry at the end
/// of an analysis (so the per-solve cost of telemetry is a couple of
/// ordinary increments, enabled or not).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Numeric refactorisation + solve passes that ran to completion
    /// or failure over a frozen structure (includes the retry after a
    /// re-pivot, excludes dense solves).
    pub refactorisations: u64,
    /// Threshold re-pivots: the frozen order died numerically and a
    /// fresh values-aware ordering was computed.
    pub repivots: u64,
    /// Dense partial-pivoting rescues after even the re-pivoted plan
    /// failed.
    pub dense_fallbacks: u64,
    /// Sparse solvers demoted to dense for the rest of their analysis
    /// after repeated consecutive rescues.
    pub demotions: u64,
}

impl SolverStats {
    /// Accumulates `other` into `self` (used when merging the stats of
    /// a demoted backend, per-fault totals, campaign aggregates …).
    pub fn merge(&mut self, other: &SolverStats) {
        self.refactorisations += other.refactorisations;
        self.repivots += other.repivots;
        self.dense_fallbacks += other.dense_fallbacks;
        self.demotions += other.demotions;
    }

    /// Re-pivots, dense rescues and demotions so far: every event after
    /// which the same assembled matrix may be solved along a different
    /// path. Each term only grows, so an unchanged sum proves that none
    /// of them happened in between.
    pub(crate) fn path_changes(&self) -> u64 {
        self.repivots + self.dense_fallbacks + self.demotions
    }

    /// Adds these stats to the global telemetry counters
    /// (`spice.sparse.*`). Cheap no-op while telemetry is disabled.
    pub fn flush_to_telemetry(&self) {
        FLUSH_REFACTORISATIONS.add(self.refactorisations);
        FLUSH_REPIVOTS.add(self.repivots);
        FLUSH_DENSE_FALLBACKS.add(self.dense_fallbacks);
        FLUSH_DEMOTIONS.add(self.demotions);
    }
}

/// Per-solver numeric state over a shared [`Pattern`]: assembled values,
/// right-hand side, and the LU workspace for numeric-only refactoring.
#[derive(Debug, Clone)]
pub struct SparseSystem {
    pattern: Arc<Pattern>,
    vals: Vec<f64>,
    /// Right-hand side.
    pub rhs: Vec<f64>,
    lu: Vec<f64>,
    inv_diag: Vec<f64>,
    work: Vec<f64>,
    y: Vec<f64>,
    /// Snapshot of the step-constant (linear) assembly, restored at the
    /// top of every Newton iteration instead of re-stamping it.
    base_vals: Vec<f64>,
    base_rhs: Vec<f64>,
    /// Numerically re-pivoted plan, installed when the shared
    /// structural plan hits a dead pivot at some operating point.
    local_plan: Option<Box<Plan>>,
    /// Consecutive solves rescued only by the dense fallback; when it
    /// keeps happening the dispatcher demotes the solver to dense
    /// outright (see [`MnaSolver::solve`]).
    consecutive_fallbacks: u32,
    /// Work counters for this solver's lifetime.
    stats: SolverStats,
}

impl Stamper for SparseSystem {
    fn dim(&self) -> usize {
        self.pattern.n
    }

    #[inline]
    fn add(&mut self, row: usize, col: usize, g: f64) {
        let slot = self.pattern.slot_of[row * self.pattern.n + col];
        debug_assert!(slot != NO_SLOT, "stamp outside pattern at ({row},{col})");
        self.vals[slot as usize] += g;
    }

    #[inline]
    fn add_rhs(&mut self, row: usize, v: f64) {
        self.rhs[row] += v;
    }

    fn clear(&mut self) {
        self.vals.fill(0.0);
        self.rhs.fill(0.0);
    }
}

/// Refactors and solves over `plan`, writing the solution into `x`
/// (untouched on failure). `lu` is resized to the plan's factor count;
/// `work`/`y` are n-sized scratch buffers.
#[allow(clippy::too_many_arguments)]
fn refactor_and_solve(
    plan: &Plan,
    n: usize,
    vals: &[f64],
    rhs: &[f64],
    lu: &mut Vec<f64>,
    inv_diag: &mut [f64],
    work: &mut [f64],
    y: &mut [f64],
    analysis: &str,
    x: &mut [f64],
) -> Result<(), SpiceError> {
    lu.resize(plan.cols.len(), 0.0);
    // Up-looking row LU: for each elimination row, scatter the
    // assembled values, eliminate against all earlier rows in the
    // (precomputed) structure, gather back into the factor array.
    let mut a_max = 0.0f64; // largest assembled magnitude
    let mut factor_max = 0.0f64; // largest factored magnitude
    for k in 0..n {
        let (start, end) = (plan.row_start[k] as usize, plan.row_start[k + 1] as usize);
        let row = &plan.cols[start..end];
        for (&pos, &slot) in row.iter().zip(&plan.slot_at[start..end]) {
            let v = if slot == NO_SLOT {
                0.0 // pure fill
            } else {
                vals[slot as usize]
            };
            a_max = a_max.max(v.abs());
            work[pos as usize] = v;
        }
        let dk = plan.diag[k] as usize;
        for idx in start..dk {
            let j = plan.cols[idx] as usize;
            let f = work[j] * inv_diag[j];
            work[j] = f;
            if f != 0.0 {
                let dj = plan.diag[j] as usize;
                let jend = plan.row_start[j + 1] as usize;
                for (&t, &u) in plan.cols[dj + 1..jend].iter().zip(&lu[dj + 1..jend]) {
                    work[t as usize] -= f * u;
                }
            }
        }
        let mut row_scale = 0.0f64;
        for (idx, &pos) in row.iter().enumerate() {
            let v = work[pos as usize];
            lu[start + idx] = v;
            row_scale = row_scale.max(v.abs());
        }
        factor_max = factor_max.max(row_scale);
        let pivot = lu[dk];
        if pivot.abs() <= REL_PIVOT_TOL * row_scale || pivot == 0.0 {
            return Err(SpiceError::Singular {
                analysis: analysis.to_string(),
            });
        }
        inv_diag[k] = 1.0 / pivot;
    }
    // Element-growth guard, checked once the assembled scale is fully
    // known: a factor that grew ~8 decades past the matrix has
    // amplified round-off past usefulness even though every row passed
    // its own (row-relative) pivot test.
    if factor_max > GROWTH_LIMIT * a_max {
        return Err(SpiceError::Singular {
            analysis: analysis.to_string(),
        });
    }

    // Forward substitution (L has unit diagonal; factors stored in the
    // sub-diagonal part of each row).
    for k in 0..n {
        let mut sum = rhs[plan.row_perm[k] as usize];
        let start = plan.row_start[k] as usize;
        let dk = plan.diag[k] as usize;
        for idx in start..dk {
            sum -= lu[idx] * y[plan.cols[idx] as usize];
        }
        y[k] = sum;
    }
    // Back substitution.
    for k in (0..n).rev() {
        let mut sum = y[k];
        let dk = plan.diag[k] as usize;
        let end = plan.row_start[k + 1] as usize;
        for idx in dk + 1..end {
            sum -= lu[idx] * y[plan.cols[idx] as usize];
        }
        y[k] = sum * inv_diag[k];
    }
    // Un-permute the unknowns.
    for k in 0..n {
        x[plan.col_perm[k] as usize] = y[k];
    }
    Ok(())
}

impl SparseSystem {
    /// A zeroed system over `pattern`.
    pub fn new(pattern: Arc<Pattern>) -> Self {
        let n = pattern.n;
        let nnz = pattern.coords.len();
        let nnz_lu = pattern.plan.cols.len();
        SparseSystem {
            pattern,
            vals: vec![0.0; nnz],
            rhs: vec![0.0; n],
            lu: vec![0.0; nnz_lu],
            inv_diag: vec![0.0; n],
            work: vec![0.0; n],
            y: vec![0.0; n],
            base_vals: vec![0.0; nnz],
            base_rhs: vec![0.0; n],
            local_plan: None,
            consecutive_fallbacks: 0,
            stats: SolverStats::default(),
        }
    }

    /// The shared pattern.
    pub fn pattern(&self) -> &Arc<Pattern> {
        &self.pattern
    }

    /// Captures the current assembly as the step-constant baseline
    /// (everything except the iterate-dependent device stamps).
    pub fn snapshot_baseline(&mut self) {
        self.base_vals.copy_from_slice(&self.vals);
        self.base_rhs.copy_from_slice(&self.rhs);
    }

    /// Restores the snapshot taken by
    /// [`SparseSystem::snapshot_baseline`] — a pair of memcpys, the
    /// sparse engine's replacement for re-stamping the linear circuit
    /// every Newton iteration.
    pub fn restore_baseline(&mut self) {
        self.vals.copy_from_slice(&self.base_vals);
        self.rhs.copy_from_slice(&self.base_rhs);
    }

    /// True when this solver installed a numerically re-pivoted plan.
    pub fn repivoted(&self) -> bool {
        self.local_plan.is_some()
    }

    /// Work counters accumulated over this solver's lifetime.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// Numeric-only refactorisation + solve over the frozen structure,
    /// re-pivoting from the current values when a pivot dies relative
    /// to its row scale ([`REL_PIVOT_TOL`]). Writes the solution into
    /// `x` (length [`Pattern::dim`]). Assembled values and the
    /// right-hand side are left intact, so the dense fallback can
    /// re-solve the identical system.
    ///
    /// # Errors
    /// [`SpiceError::Singular`] when even the freshly re-pivoted plan
    /// hits a dead pivot — the caller is expected to retry with dense
    /// partial pivoting before declaring the system unsolvable.
    pub fn solve(&mut self, analysis: &str, x: &mut [f64]) -> Result<(), SpiceError> {
        let n = self.pattern.n;
        self.stats.refactorisations += 1;
        let plan = self.local_plan.as_deref().unwrap_or(&self.pattern.plan);
        match refactor_and_solve(
            plan,
            n,
            &self.vals,
            &self.rhs,
            &mut self.lu,
            &mut self.inv_diag,
            &mut self.work,
            &mut self.y,
            analysis,
            x,
        ) {
            Ok(()) => Ok(()),
            Err(_) => {
                // The frozen order died at this operating point:
                // re-pivot from the values actually on hand and retry.
                REPIVOTS.fetch_add(1, Ordering::Relaxed);
                self.stats.repivots += 1;
                let fresh = numeric_plan(n, &self.pattern.coords, &self.vals).ok_or_else(|| {
                    SpiceError::Singular {
                        analysis: analysis.to_string(),
                    }
                })?;
                self.stats.refactorisations += 1;
                refactor_and_solve(
                    &fresh,
                    n,
                    &self.vals,
                    &self.rhs,
                    &mut self.lu,
                    &mut self.inv_diag,
                    &mut self.work,
                    &mut self.y,
                    analysis,
                    x,
                )?;
                self.local_plan = Some(Box::new(fresh));
                Ok(())
            }
        }
    }

    /// Rebuilds the assembled system densely and solves it with partial
    /// pivoting — the robustness net under the frozen pivot orders.
    fn solve_dense_fallback(&mut self, analysis: &str, x: &mut [f64]) -> Result<(), SpiceError> {
        DENSE_FALLBACKS.fetch_add(1, Ordering::Relaxed);
        self.stats.dense_fallbacks += 1;
        let mut dense = MnaSystem::new(self.pattern.n);
        for (slot, &(r, c)) in self.pattern.coords.iter().enumerate() {
            dense.add(r as usize, c as usize, self.vals[slot]);
        }
        dense.set_rhs(&self.rhs);
        dense.solve(analysis, x)
    }
}

/// Enumerates the structural stamp coordinates of a circuit: the union
/// of every slot any device may write in **any** analysis (DC and
/// transient, both MOS drain/source orientations), so one pattern
/// serves the operating point, every timestep and every Newton
/// iteration. Supersets only cost a few structurally zero slots.
pub fn pattern_coords(ckt: &Circuit, map: &UnknownMap) -> Vec<(u32, u32)> {
    let n = map.dim();
    let mut coords: Vec<(u32, u32)> = Vec::with_capacity(16 * ckt.elements().len());
    let pair = |a: Option<usize>, b: Option<usize>, coords: &mut Vec<(u32, u32)>| {
        if let Some(i) = a {
            coords.push((i as u32, i as u32));
        }
        if let Some(j) = b {
            coords.push((j as u32, j as u32));
        }
        if let (Some(i), Some(j)) = (a, b) {
            coords.push((i as u32, j as u32));
            coords.push((j as u32, i as u32));
        }
    };
    // gshunt diagonal on every node row.
    for node_row in 0..(map.node_count() - 1) {
        coords.push((node_row as u32, node_row as u32));
    }
    for (ei, e) in ckt.elements().iter().enumerate() {
        match &e.kind {
            ElementKind::Resistor { .. } => {
                pair(
                    map.node_var(e.nodes[0]),
                    map.node_var(e.nodes[1]),
                    &mut coords,
                );
            }
            ElementKind::Capacitor { .. } => {
                // Transient companion conductance.
                pair(
                    map.node_var(e.nodes[0]),
                    map.node_var(e.nodes[1]),
                    &mut coords,
                );
            }
            ElementKind::Vsource { .. } => {
                let br = map.branch_row(ei) as u32;
                for t in [e.nodes[0], e.nodes[1]] {
                    if let Some(i) = map.node_var(t) {
                        coords.push((i as u32, br));
                        coords.push((br, i as u32));
                    }
                }
            }
            ElementKind::Isource { .. } => {} // RHS only
            ElementKind::Mosfet { .. } => {
                let (d, g, s, b) = (e.nodes[0], e.nodes[1], e.nodes[2], e.nodes[3]);
                // Channel linearisation: rows {d,s} × cols {d,s,g,b},
                // covering both drain/source orientations.
                for row in [d, s] {
                    let Some(r) = map.node_var(row) else { continue };
                    for col in [d, s, g, b] {
                        if let Some(c) = map.node_var(col) {
                            coords.push((r as u32, c as u32));
                        }
                    }
                }
                // Meyer gate-capacitance companions (transient): g–s
                // and g–d conductances.
                pair(map.node_var(g), map.node_var(s), &mut coords);
                pair(map.node_var(g), map.node_var(d), &mut coords);
            }
        }
    }
    debug_assert!(coords
        .iter()
        .all(|&(r, c)| (r as usize) < n && (c as usize) < n));
    coords.sort_unstable();
    coords.dedup();
    coords
}

/// One hash bucket of the pattern cache: the full coordinate list (the
/// exact identity — collisions compare it) paired with the built
/// pattern, or `None` for a structurally singular topology.
type CacheBucket = Vec<(Vec<(u32, u32)>, Option<Arc<Pattern>>)>;

/// A thread-safe topology → [`Pattern`] map. One cache per campaign:
/// the nominal circuit, every soft fault (structure-preserving) and
/// every repeated hard-fault shape pay the symbolic analysis exactly
/// once. Entries are compared by their full coordinate list — a hash
/// collision can never alias two topologies.
#[derive(Debug, Default)]
pub struct PatternCache {
    map: Mutex<HashMap<u64, CacheBucket>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl PatternCache {
    /// An empty cache.
    pub fn new() -> Self {
        PatternCache::default()
    }

    /// Looks up (or builds and inserts) the pattern for `coords`.
    /// `None` means the pattern is structurally singular — that result
    /// is cached too, so repeated faults on a degenerate topology don't
    /// redo the symbolic analysis just to fail again.
    pub fn get_or_build(&self, n: usize, coords: Vec<(u32, u32)>) -> Option<Arc<Pattern>> {
        let mut h = 0xcbf29ce484222325u64; // FNV-1a over (n, coords)
        let mut mix = |v: u64| {
            h ^= v;
            h = h.wrapping_mul(0x100000001b3);
        };
        mix(n as u64);
        for &(r, c) in &coords {
            mix(((r as u64) << 32) | c as u64);
        }
        let mut map = self.map.lock().expect("pattern cache poisoned");
        let bucket = map.entry(h).or_default();
        if let Some((_, pat)) = bucket.iter().find(|(k, _)| *k == coords) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            CACHE_HITS.inc();
            return pat.clone();
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        CACHE_MISSES.inc();
        let pat = Pattern::build(n, coords.clone()).map(Arc::new);
        bucket.push((coords, pat.clone()));
        pat
    }

    /// Cache hits so far (symbolic analyses avoided).
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses so far (symbolic analyses performed).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of cached topologies (including negatively cached
    /// structurally singular ones). Every miss inserts exactly one
    /// entry, so `len() == misses()` at any quiescent point — the
    /// invariant that proves each topology paid its symbolic analysis
    /// exactly once.
    pub fn len(&self) -> usize {
        self.map
            .lock()
            .expect("pattern cache poisoned")
            .values()
            .map(Vec::len)
            .sum()
    }

    /// True when no topology has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The concrete linear-solver backend inside an [`MnaSolver`].
#[derive(Debug)]
pub enum SolverBackend {
    /// Dense row-major LU with partial pivoting.
    Dense(MnaSystem),
    /// Sparse slot-stamped LU with reusable symbolic factorisation.
    Sparse(SparseSystem),
}

/// The linear-solver dispatch used by Newton: dense for tiny systems,
/// the pattern-reusing sparse engine otherwise, with dense partial
/// pivoting as the last-resort fallback when even a numeric re-pivot
/// dies. Carries the work counters of any backend it demoted, so
/// [`MnaSolver::stats`] survives the sparse → dense demotion.
#[derive(Debug)]
pub struct MnaSolver {
    backend: SolverBackend,
    /// Stats inherited from a demoted sparse backend.
    carried: SolverStats,
}

impl MnaSolver {
    /// Builds the solver for a circuit, honouring `kind` and reusing
    /// symbolic work from `cache` when one is supplied. Falls back to
    /// dense when the sparse pattern turns out structurally singular
    /// (dense pivoting then reports the precise failure).
    pub fn for_circuit(
        ckt: &Circuit,
        map: &UnknownMap,
        kind: SolverKind,
        cache: Option<&PatternCache>,
    ) -> MnaSolver {
        let dim = map.dim();
        let want_sparse = match kind {
            SolverKind::Dense => false,
            SolverKind::Sparse => true,
            SolverKind::Auto => dim >= DENSE_CUTOFF,
        };
        if want_sparse {
            let coords = pattern_coords(ckt, map);
            let pattern = match cache {
                Some(cache) => cache.get_or_build(dim, coords),
                None => Pattern::build(dim, coords).map(Arc::new),
            };
            if let Some(pattern) = pattern {
                return MnaSolver::sparse(SparseSystem::new(pattern));
            }
        }
        MnaSolver::dense(MnaSystem::new(dim))
    }

    /// Wraps a dense system.
    pub fn dense(sys: MnaSystem) -> MnaSolver {
        MnaSolver {
            backend: SolverBackend::Dense(sys),
            carried: SolverStats::default(),
        }
    }

    /// Wraps a sparse system.
    pub fn sparse(sys: SparseSystem) -> MnaSolver {
        MnaSolver {
            backend: SolverBackend::Sparse(sys),
            carried: SolverStats::default(),
        }
    }

    /// The active backend (Newton drivers use this to take the
    /// baseline-snapshot shortcut on the sparse engine).
    pub fn backend_mut(&mut self) -> &mut SolverBackend {
        &mut self.backend
    }

    /// The sparse backend, when active.
    pub fn sparse_mut(&mut self) -> Option<&mut SparseSystem> {
        match &mut self.backend {
            SolverBackend::Sparse(sys) => Some(sys),
            SolverBackend::Dense(_) => None,
        }
    }

    /// True when the sparse engine is active.
    pub fn is_sparse(&self) -> bool {
        matches!(self.backend, SolverBackend::Sparse(_))
    }

    /// Work counters over the solver's whole lifetime, including any
    /// sparse backend that has since been demoted to dense.
    pub fn stats(&self) -> SolverStats {
        let mut out = self.carried;
        if let SolverBackend::Sparse(sys) = &self.backend {
            out.merge(&sys.stats());
        }
        out
    }

    /// Solves the assembled system, writing the solution into `x`
    /// (length [`Stamper::dim`]); `x` is left untouched on failure.
    ///
    /// A sparse system that keeps needing the dense rescue (both the
    /// frozen plan and a fresh numeric re-pivot failing, solve after
    /// solve) is paying a failed refactor plus an O(n³) re-pivot
    /// attempt plus the dense solve every iteration — after
    /// [`DEMOTE_AFTER_FALLBACKS`] consecutive rescues the solver
    /// demotes itself to plain dense for the rest of the analysis.
    ///
    /// # Errors
    /// [`SpiceError::Singular`] when the system is singular even under
    /// dense partial pivoting.
    pub fn solve(&mut self, analysis: &str, x: &mut [f64]) -> Result<(), SpiceError> {
        let mut demote = false;
        let out = match &mut self.backend {
            SolverBackend::Dense(sys) => sys.solve(analysis, x),
            SolverBackend::Sparse(sys) => match sys.solve(analysis, x) {
                Err(SpiceError::Singular { .. }) => {
                    let rescued = sys.solve_dense_fallback(analysis, x);
                    if rescued.is_ok() {
                        sys.consecutive_fallbacks += 1;
                        demote = sys.consecutive_fallbacks >= DEMOTE_AFTER_FALLBACKS;
                    }
                    rescued
                }
                other => {
                    sys.consecutive_fallbacks = 0;
                    other
                }
            },
        };
        if demote {
            if let SolverBackend::Sparse(sys) = &self.backend {
                self.carried.merge(&sys.stats());
            }
            self.carried.demotions += 1;
            self.backend = SolverBackend::Dense(MnaSystem::new(Stamper::dim(self)));
        }
        out
    }
}

impl Stamper for MnaSolver {
    fn dim(&self) -> usize {
        match &self.backend {
            SolverBackend::Dense(sys) => Stamper::dim(sys),
            SolverBackend::Sparse(sys) => Stamper::dim(sys),
        }
    }

    #[inline]
    fn add(&mut self, row: usize, col: usize, g: f64) {
        match &mut self.backend {
            SolverBackend::Dense(sys) => sys.add(row, col, g),
            SolverBackend::Sparse(sys) => sys.add(row, col, g),
        }
    }

    #[inline]
    fn add_rhs(&mut self, row: usize, v: f64) {
        match &mut self.backend {
            SolverBackend::Dense(sys) => sys.add_rhs(row, v),
            SolverBackend::Sparse(sys) => sys.add_rhs(row, v),
        }
    }

    fn clear(&mut self) {
        match &mut self.backend {
            SolverBackend::Dense(sys) => sys.clear(),
            SolverBackend::Sparse(sys) => sys.clear(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a sparse system from explicit coordinates and a dense
    /// twin, stamps both identically, and returns both solutions.
    fn solve_both(n: usize, entries: &[(usize, usize, f64)], rhs: &[f64]) -> (Vec<f64>, Vec<f64>) {
        let coords: Vec<(u32, u32)> = entries
            .iter()
            .map(|&(r, c, _)| (r as u32, c as u32))
            .collect();
        let pattern = Pattern::build(n, coords).expect("buildable pattern");
        let mut sp = SparseSystem::new(Arc::new(pattern));
        let mut de = MnaSystem::new(n);
        for &(r, c, v) in entries {
            sp.add(r, c, v);
            de.add(r, c, v);
        }
        for (i, &v) in rhs.iter().enumerate() {
            sp.add_rhs(i, v);
            de.add_rhs(i, v);
        }
        let (mut xs, mut xd) = (vec![0.0; n], vec![0.0; n]);
        sp.solve("sparse", &mut xs).unwrap();
        de.solve("dense", &mut xd).unwrap();
        (xs, xd)
    }

    #[test]
    fn sparse_matches_dense_on_spd_system() {
        // A small conductance-matrix shape (diagonally dominant).
        let entries = [
            (0, 0, 3.0),
            (0, 1, -1.0),
            (1, 0, -1.0),
            (1, 1, 4.0),
            (1, 2, -2.0),
            (2, 1, -2.0),
            (2, 2, 5.0),
        ];
        let (s, d) = solve_both(3, &entries, &[1.0, 2.0, 3.0]);
        for (a, b) in s.iter().zip(&d) {
            assert!((a - b).abs() < 1e-12, "{s:?} vs {d:?}");
        }
    }

    #[test]
    fn sparse_handles_zero_diagonal_vsource_shape() {
        // MNA with an ideal source: branch row 2 has no diagonal.
        // Matches mna.rs's voltage_divider_by_stamps.
        let entries = [
            (0, 0, 1e-3),
            (0, 1, -1e-3),
            (1, 0, -1e-3),
            (1, 1, 2e-3),
            (0, 2, 1.0),
            (2, 0, 1.0),
        ];
        let (s, _) = solve_both(3, &entries, &[0.0, 0.0, 5.0]);
        assert!((s[0] - 5.0).abs() < 1e-9);
        assert!((s[1] - 2.5).abs() < 1e-9);
        assert!((s[2] + 0.0025).abs() < 1e-9);
    }

    #[test]
    fn refactor_reuses_structure_across_value_changes() {
        let coords = vec![(0, 0), (0, 1), (1, 0), (1, 1)];
        let pattern = Arc::new(Pattern::build(2, coords).unwrap());
        let mut sys = SparseSystem::new(pattern);
        for scale in [1.0, 2.0, 0.5, 1e-6] {
            sys.clear();
            sys.add(0, 0, 2.0 * scale);
            sys.add(0, 1, 1.0 * scale);
            sys.add(1, 0, 1.0 * scale);
            sys.add(1, 1, 3.0 * scale);
            sys.add_rhs(0, 5.0 * scale);
            sys.add_rhs(1, 10.0 * scale);
            let mut x = vec![0.0; 2];
            sys.solve("refactor", &mut x).unwrap();
            assert!((x[0] - 1.0).abs() < 1e-12, "scale {scale}: {x:?}");
            assert!((x[1] - 3.0).abs() < 1e-12, "scale {scale}: {x:?}");
        }
    }

    #[test]
    fn structurally_singular_pattern_is_rejected() {
        // Column 1 is structurally empty.
        assert!(Pattern::build(2, vec![(0, 0), (1, 0)]).is_none());
    }

    #[test]
    fn numerically_singular_falls_back_to_dense_and_reports() {
        let coords = vec![(0, 0), (0, 1), (1, 0), (1, 1)];
        let pattern = Arc::new(Pattern::build(2, coords).unwrap());
        let mut solver = MnaSolver::sparse(SparseSystem::new(pattern));
        // Numerically dependent rows: the sparse pivot check trips, the
        // re-pivot cannot help, the dense fallback runs, and still
        // (correctly) reports Singular.
        solver.add(0, 0, 1.0);
        solver.add(0, 1, 2.0);
        solver.add(1, 0, 2.0);
        solver.add(1, 1, 4.0);
        solver.add_rhs(0, 1.0);
        let mut x = vec![0.0; 2];
        assert!(matches!(
            solver.solve("fallback", &mut x),
            Err(SpiceError::Singular { .. })
        ));
        let stats = solver.stats();
        // The re-pivot attempt finds no usable pivot (numeric_plan
        // fails outright), so only the frozen refactor ran.
        assert_eq!(stats.refactorisations, 1);
        assert_eq!(stats.repivots, 1);
        assert_eq!(stats.dense_fallbacks, 1);
    }

    #[test]
    fn stats_survive_demotion_to_dense() {
        // A solvable-only-densely system: each solve takes the frozen
        // try, the re-pivot, and the dense rescue; after the second
        // consecutive rescue the dispatcher demotes, and the counters
        // accumulated by the sparse backend must remain visible.
        // Column 0 is a singleton holding 1e-20, so both the
        // structural order (Markowitz cost 0) and the threshold
        // re-pivot (sole entry ⇒ ratio 1) must pivot on (0,0) — a
        // pivot twenty decades below its own row scale, which trips
        // the sparse engine's row-relative test twice per solve. The
        // dense rescue judges pivots against their *column* scale
        // (tiny but consistent here) and solves it.
        let coords = vec![(0, 0), (0, 1), (1, 1)];
        let pattern = Arc::new(Pattern::build(2, coords).unwrap());
        let mut solver = MnaSolver::sparse(SparseSystem::new(pattern));
        for round in 0..2 {
            solver.clear();
            solver.add(0, 0, 1e-20);
            solver.add(0, 1, 1.0);
            solver.add(1, 1, 1.0);
            solver.add_rhs(0, 1.0);
            solver.add_rhs(1, 1.0);
            let mut x = vec![0.0; 2];
            solver.solve("demote", &mut x).expect("dense rescue solves");
            assert!(x[0].abs() < 1e-9 && (x[1] - 1.0).abs() < 1e-12, "{x:?}");
            let expect_sparse = round == 0;
            assert_eq!(solver.is_sparse(), expect_sparse, "round {round}");
        }
        let stats = solver.stats();
        assert_eq!(stats.dense_fallbacks, 2);
        assert_eq!(stats.demotions, 1);
        assert_eq!(stats.repivots, 2);
        assert_eq!(stats.refactorisations, 4, "frozen try + retry, twice");
        // Further dense solves leave the carried stats untouched.
        solver.clear();
        solver.add(0, 0, 1.0);
        solver.add(1, 1, 1.0);
        solver.solve("post-demotion", &mut [0.0; 2]).unwrap();
        assert_eq!(solver.stats(), stats);
    }

    #[test]
    fn dead_structural_pivot_repivots_numerically() {
        // The structural order can start on a numerically tiny pivot
        // (a gmin-scale diagonal) whose row carries unit-scale
        // couplings — the shape that kills a frozen order through
        // factor growth. The numeric re-pivot must rescue it and stick
        // as the solver-local plan.
        let entries = [
            (0, 0, 1e-12),
            (0, 1, 1.0),
            (1, 0, 1.0),
            (1, 1, 1e-12),
            (0, 2, 0.5),
            (2, 0, 0.5),
            (2, 2, 2.0),
        ];
        let n = 3;
        let coords: Vec<(u32, u32)> = entries
            .iter()
            .map(|&(r, c, _)| (r as u32, c as u32))
            .collect();
        let pattern = Pattern::build(n, coords).unwrap();
        let mut sp = SparseSystem::new(Arc::new(pattern));
        let mut de = MnaSystem::new(n);
        for &(r, c, v) in &entries {
            sp.add(r, c, v);
            de.add(r, c, v);
        }
        for i in 0..n {
            sp.add_rhs(i, (i + 1) as f64);
            de.add_rhs(i, (i + 1) as f64);
        }
        let (mut xs, mut xd) = (vec![0.0; n], vec![0.0; n]);
        sp.solve("repivot", &mut xs).unwrap();
        assert!(sp.repivoted(), "growth guard must trigger the re-pivot");
        de.solve("dense", &mut xd).unwrap();
        for (a, b) in xs.iter().zip(&xd) {
            let scale = b.abs().max(1.0);
            assert!((a - b).abs() < 1e-9 * scale, "{xs:?} vs {xd:?}");
        }
    }

    #[test]
    fn badly_scaled_sparse_system_solves() {
        // Same regression as the dense solver: tiny-but-consistent
        // scale must not be declared singular.
        let entries = [(0, 0, 1e-305), (1, 1, 2e-305)];
        let (s, _) = solve_both(2, &entries, &[3e-305, 2e-305]);
        assert!((s[0] - 3.0).abs() < 1e-9);
        assert!((s[1] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn pattern_cache_shares_and_counts() {
        let cache = PatternCache::new();
        let coords = vec![(0u32, 0u32), (1, 1)];
        let a = cache.get_or_build(2, coords.clone()).unwrap();
        let b = cache.get_or_build(2, coords).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "second lookup reuses the pattern");
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 1);
        // A different topology builds its own pattern.
        let c = cache
            .get_or_build(2, vec![(0, 0), (0, 1), (1, 0), (1, 1)])
            .unwrap();
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    fn fill_in_is_handled() {
        // An arrow matrix factored top-left first fills the last
        // row/column completely — classic fill-in shape.
        let n = 5;
        let mut entries = Vec::new();
        for i in 0..n {
            entries.push((i, i, 4.0));
            if i + 1 < n {
                entries.push((i, n - 1, 1.0));
                entries.push((n - 1, i, 1.0));
            }
        }
        let rhs: Vec<f64> = (0..n).map(|i| i as f64 + 1.0).collect();
        let (s, d) = solve_both(n, &entries, &rhs);
        for (a, b) in s.iter().zip(&d) {
            assert!((a - b).abs() < 1e-12);
        }
    }
}
