//! Row-major dense matrices.
//!
//! [`Matrix`] is the workhorse container of the workspace: a contiguous
//! row-major `Vec<f64>` with shape metadata. Multiplication comes in
//! several flavours — naive (`matmul_naive`, kept for testing and as the
//! autotuner's reference point), cache-blocked (`matmul`, running its shape
//! class's default [`crate::gemm`] plan, and `matmul_with_plan`, running
//! the plan it is given), and the transpose-free variants `matmul_tn` /
//! `matmul_nt` that read one operand through its transpose without
//! materializing it. Every variant runs on one thread: the registry's
//! parallelism comes from running whole experiments on executor jobs, not
//! from splitting one product.
//!
//! The default-plan products also come as `*_into` kernels
//! (`matmul_into`, `matmul_tn_into`, `matmul_nt_into`) that write into a
//! caller-owned matrix, reshaping it and reusing its buffer; the owned
//! forms are wrappers over them. A training loop that keeps its outputs
//! (as `treu-nn` layers do) multiplies without touching the heap.
//!
//! # The ascending-k rule
//!
//! Every multiplication path computes each output element as **one
//! sequential ascending-k chain**: `acc = ((0 + a·b|k=0) + a·b|k=1) + …`.
//! Blocking (MC/KC/NC) reorders only which elements are visited when and
//! what gets packed — never the per-element accumulation order — so naive,
//! blocked and packed results are bitwise-identical at every plan.
//! Spilling a partial accumulator to the output buffer between KC panels
//! and reloading it is exact (each f64 add rounds once either way), so KC
//! blocking preserves the chain too. What would
//! *break* the rule: multiple interleaved accumulators per element (as in
//! `vector::dot`'s 4-way unroll) or skipping zero terms (`0.0` terms still
//! move signed zeros and NaNs). Neither is used on any matmul path.

use crate::gemm::{self, GemmPlan, ShapeClass};
use crate::vector;
use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense row-major matrix of `f64`. The default is the empty `0 x 0`
/// matrix, which holds no allocation.
#[derive(PartialEq, Default)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Clone for Matrix {
    fn clone(&self) -> Self {
        Self { rows: self.rows, cols: self.cols, data: self.data.clone() }
    }

    /// Copies `source` into `self`, reusing `self`'s buffer when it is
    /// large enough (the derived form would allocate a fresh one).
    fn clone_from(&mut self, source: &Self) {
        self.rows = source.rows;
        self.cols = source.cols;
        self.data.clone_from(&source.data);
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            writeln!(f, "  {:?}", &self.row(r)[..self.cols.min(8)])?;
        }
        if self.rows > 8 || self.cols > 8 {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

impl Matrix {
    /// Creates a `rows x cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates a matrix from a flat row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "from_vec: shape/buffer mismatch");
        Self { rows, cols, data }
    }

    /// Creates a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if rows have unequal lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "from_rows: ragged rows");
            data.extend_from_slice(row);
        }
        Self { rows: r, cols: c, data }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix by evaluating `f(row, col)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Reshapes `self` to `rows x cols` and sets every element to `+0.0`,
    /// reusing the buffer's capacity: the in-place equivalent of
    /// `*self = Matrix::zeros(rows, cols)`.
    pub fn reset(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Borrow of row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable borrow of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copy of column `c`.
    pub fn col(&self, c: usize) -> Vec<f64> {
        (0..self.rows).map(|r| self[(r, c)]).collect()
    }

    /// The flat row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable flat row-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Transpose into a fresh matrix.
    pub fn transpose(&self) -> Self {
        let mut out = Self::zeros(self.cols, self.rows);
        // Blocked transpose for cache friendliness on larger matrices.
        const B: usize = 32;
        for rb in (0..self.rows).step_by(B) {
            for cb in (0..self.cols).step_by(B) {
                for r in rb..(rb + B).min(self.rows) {
                    for c in cb..(cb + B).min(self.cols) {
                        out[(c, r)] = self[(r, c)];
                    }
                }
            }
        }
        out
    }

    /// Matrix–vector product `self * x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        let mut y = Vec::with_capacity(self.rows);
        self.matvec_into(x, &mut y);
        y
    }

    /// [`Matrix::matvec`] into `y`, which is cleared and refilled; its
    /// buffer is reused. Element `r` is bitwise `vector::dot(self.row(r), x)`:
    /// rows go four at a time through `dot`'s own kernel, which shares each
    /// load of `x` among them, and the rows after the last full block
    /// through `dot`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    pub fn matvec_into(&self, x: &[f64], y: &mut Vec<f64>) {
        assert_eq!(x.len(), self.cols, "matvec: dimension mismatch");
        y.clear();
        let blocked = self.rows - self.rows % 4;
        for r in (0..blocked).step_by(4) {
            let rows = [self.row(r), self.row(r + 1), self.row(r + 2), self.row(r + 3)];
            y.extend(vector::dot_rows(rows, x));
        }
        y.extend((blocked..self.rows).map(|r| vector::dot(self.row(r), x)));
    }

    /// Naive triple-loop multiplication; the reference implementation used
    /// by tests, the conformance suite and the autotuner baseline.
    ///
    /// Note there is deliberately no `a == 0.0` fast path: skipping zero
    /// terms would change signed-zero and NaN propagation, breaking the
    /// bitwise tuned ≡ naive contract.
    ///
    /// # Panics
    ///
    /// Panics if inner dimensions disagree.
    pub fn matmul_naive(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "matmul: dimension mismatch");
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                let brow = other.row(k);
                let orow = out.row_mut(i);
                vector::axpy(a, brow, orow);
            }
        }
        out
    }

    /// Cache-blocked multiplication: classifies the shape and runs the
    /// class's default plan ([`GemmPlan::default_for`]).
    ///
    /// # Panics
    ///
    /// Panics if inner dimensions disagree.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.matmul_into(other, &mut out);
        out
    }

    /// [`Matrix::matmul`] into `out`, which is reshaped to
    /// `self.rows() x other.cols()` and overwritten; its buffer is reused.
    ///
    /// # Panics
    ///
    /// Panics if inner dimensions disagree.
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, other.rows, "matmul: dimension mismatch");
        let plan = GemmPlan::default_for(ShapeClass::of(self.rows, self.cols, other.cols));
        out.reset(self.rows, other.cols);
        Self::mul_into(self, other, &mut out.data, &plan);
    }

    /// Multiplication under an explicit [`GemmPlan`] — the entry point the
    /// autotuner times candidate schedules through.
    ///
    /// Bitwise-identical to [`Matrix::matmul_naive`] for every plan (the
    /// ascending-k rule).
    ///
    /// # Panics
    ///
    /// Panics if inner dimensions disagree.
    pub fn matmul_with_plan(&self, other: &Matrix, plan: &GemmPlan) -> Matrix {
        assert_eq!(self.cols, other.rows, "matmul: dimension mismatch");
        let mut out = Matrix::zeros(self.rows, other.cols);
        Self::mul_into(self, other, &mut out.data, plan);
        out
    }

    /// Transpose-free `selfᵀ · other`: `self` is stored `k×m` and read
    /// column-wise, so callers holding an activation they would otherwise
    /// `transpose()` (every backward pass) skip the allocation + copy.
    ///
    /// Bitwise-identical to `self.transpose().matmul(other)`.
    ///
    /// # Panics
    ///
    /// Panics if the shared `k` extents disagree (`self.rows != other.rows`).
    pub fn matmul_tn(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.matmul_tn_into(other, &mut out);
        out
    }

    /// [`Matrix::matmul_tn`] into `out`, which is reshaped to
    /// `self.cols() x other.cols()` and overwritten; its buffer is reused.
    /// It is [`Matrix::add_matmul_tn`] onto zeros: a chain from `+0.0` is
    /// never `-0.0`, so adding it to `+0.0` returns it unchanged.
    ///
    /// # Panics
    ///
    /// Panics if the shared `k` extents disagree (`self.rows != other.rows`).
    pub fn matmul_tn_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.rows, other.rows, "matmul_tn: dimension mismatch");
        out.reset(self.cols, other.cols);
        out.add_matmul_tn(self, other);
    }

    /// `self += aᵀ · b` without a product-sized buffer: each product
    /// element is its own ascending-k chain from `+0.0`, added to `self`
    /// once, so the result is bitwise `self.add_in_place(&a.matmul_tn(b))`.
    /// This is a weight-gradient accumulation, `grad_w += xᵀg`, whose
    /// product would otherwise need scratch as large as the weights. A's
    /// logical row `i` is its stored column `i`, read in place; the
    /// chains of one output row run in a stack strip of at most 96
    /// columns, each advanced by one row of B per `k`.
    ///
    /// # Panics
    ///
    /// Panics if `a.rows() != b.rows()` or `self` is not
    /// `a.cols() x b.cols()`.
    pub fn add_matmul_tn(&mut self, a: &Matrix, b: &Matrix) {
        assert_eq!(a.rows, b.rows, "add_matmul_tn: dimension mismatch");
        assert_eq!(self.shape(), (a.cols, b.cols), "add_matmul_tn: shape mismatch");
        let (kdim, m, n) = (a.rows, a.cols, b.cols);
        let mut strip = [0.0f64; TN_STRIP];
        for i in 0..m {
            for jc in (0..n).step_by(TN_STRIP) {
                let chains = &mut strip[..TN_STRIP.min(n - jc)];
                chains.fill(0.0);
                for k in 0..kdim {
                    let av = a.data[k * m + i];
                    let brow = &b.data[k * n + jc..k * n + jc + chains.len()];
                    for (c, bv) in chains.iter_mut().zip(brow) {
                        *c += av * bv;
                    }
                }
                let orow = &mut self.data[i * n + jc..i * n + jc + chains.len()];
                for (o, c) in orow.iter_mut().zip(chains.iter()) {
                    *o += c;
                }
            }
        }
    }

    /// Transpose-free `self · otherᵀ`: `other` is stored `n×k`, so both
    /// operands are read along contiguous rows and each output element is
    /// one sequential dot chain — no packing needed, no `transpose()`
    /// allocation for callers multiplying by a weight transpose.
    ///
    /// Bitwise-identical to `self.matmul(&other.transpose())`.
    ///
    /// # Panics
    ///
    /// Panics if the shared `k` extents disagree (`self.cols != other.cols`).
    pub fn matmul_nt(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.matmul_nt_into(other, &mut out);
        out
    }

    /// [`Matrix::matmul_nt`] into `out`, which is reshaped to
    /// `self.rows() x other.rows()` and overwritten; its buffer is reused.
    ///
    /// # Panics
    ///
    /// Panics if the shared `k` extents disagree (`self.cols != other.cols`).
    pub fn matmul_nt_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, other.cols, "matmul_nt: dimension mismatch");
        let (m, kdim, n) = (self.rows, self.cols, other.rows);
        out.reset(m, n);
        if out.data.is_empty() {
            return;
        }
        for i in 0..m {
            let arow = self.row(i);
            let orow = &mut out.data[i * n..(i + 1) * n];
            let mut j = 0;
            // Four independent per-element chains at a time for ILP; each
            // chain is still one ascending-k reduction.
            while j + 4 <= n {
                let b0 = other.row(j);
                let b1 = other.row(j + 1);
                let b2 = other.row(j + 2);
                let b3 = other.row(j + 3);
                let (mut a0, mut a1, mut a2, mut a3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
                for kk in 0..kdim {
                    let av = arow[kk];
                    a0 += av * b0[kk];
                    a1 += av * b1[kk];
                    a2 += av * b2[kk];
                    a3 += av * b3[kk];
                }
                orow[j] = a0;
                orow[j + 1] = a1;
                orow[j + 2] = a2;
                orow[j + 3] = a3;
                j += 4;
            }
            while j < n {
                orow[j] = vector::dot_chain(arow, other.row(j));
                j += 1;
            }
        }
    }

    /// Computes `a * b` into `out` (row-major, zeroed), blocked and packed
    /// per `plan`.
    ///
    /// Loop nest: NC strips of B are packed contiguous once per strip (a
    /// strip spanning all of B is B, read in place); MC row blocks keep a
    /// C block hot across the KC panel loop; the NR-wide microkernel keeps
    /// per-element accumulator chains in registers for a full panel. Per
    /// output element the reduction order is ascending k regardless of all
    /// three block extents.
    fn mul_into(a: &Matrix, b: &Matrix, out: &mut [f64], plan: &GemmPlan) {
        let n = b.cols;
        let kdim = a.cols;
        let m = a.rows;
        if m == 0 || n == 0 || kdim == 0 {
            return;
        }
        let p = plan.clamped(m, kdim, n);
        let mut bpack = Vec::new();
        for jc in (0..n).step_by(p.nc) {
            let ncur = p.nc.min(n - jc);
            let bstrip = b_strip(&b.data, n, kdim, jc, ncur, &mut bpack);
            for ic in (0..m).step_by(p.mc) {
                let iend = (ic + p.mc).min(m);
                for pc in (0..kdim).step_by(p.kc) {
                    let kcur = p.kc.min(kdim - pc);
                    let bpanel = &bstrip[pc * ncur..(pc + kcur) * ncur];
                    for i in ic..iend {
                        let arow = &a.data[i * kdim + pc..i * kdim + pc + kcur];
                        let crow = &mut out[i * n + jc..i * n + jc + ncur];
                        microkernel_row(arow, bpanel, crow, ncur, p.nr);
                    }
                }
            }
        }
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        vector::dot(&self.data, &self.data).sqrt()
    }

    /// Element-wise maximum absolute difference to another matrix.
    ///
    /// # Panics
    ///
    /// Panics if shapes disagree.
    pub fn max_abs_diff(&self, other: &Matrix) -> f64 {
        assert_eq!(self.shape(), other.shape(), "max_abs_diff: shape mismatch");
        self.data.iter().zip(&other.data).fold(0.0, |m, (a, b)| m.max((a - b).abs()))
    }

    /// `self + other` into a fresh matrix.
    ///
    /// # Panics
    ///
    /// Panics if shapes disagree.
    pub fn add(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.shape(), other.shape(), "add: shape mismatch");
        let data = self.data.iter().zip(&other.data).map(|(a, b)| a + b).collect();
        Matrix::from_vec(self.rows, self.cols, data)
    }

    /// `self - other` into a fresh matrix.
    ///
    /// # Panics
    ///
    /// Panics if shapes disagree.
    pub fn sub(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.shape(), other.shape(), "sub: shape mismatch");
        let data = self.data.iter().zip(&other.data).map(|(a, b)| a - b).collect();
        Matrix::from_vec(self.rows, self.cols, data)
    }

    /// `self += other` in place: the same one add per element as
    /// [`Matrix::add`], without allocating a result.
    ///
    /// # Panics
    ///
    /// Panics if shapes disagree.
    pub fn add_in_place(&mut self, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "add_in_place: shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// Scales every element by `alpha` in place.
    pub fn scale_in_place(&mut self, alpha: f64) {
        vector::scale(alpha, &mut self.data);
    }

    /// Returns `true` if every element is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }
}

/// Widest strip of product chains [`Matrix::add_matmul_tn`] holds on the
/// stack: 768 bytes, L1-resident, and wide enough that the layers'
/// weight gradients run in one or a few strips per row.
const TN_STRIP: usize = 96;

/// B's column strip `[0..kdim) × [jc, jc+ncur)` as a contiguous row-major
/// `kdim × ncur` panel. A strip spanning all `n` columns already is one —
/// B itself, returned without a copy or an allocation; a narrower strip is
/// packed into `bpack` (sized by the first, widest strip and reused by the
/// rest). The pack is an index-ordered copy — row `kk` of the panel is row
/// `kk` of the strip — so either way the panel holds the same values at the
/// same offsets and no reduction is reordered.
fn b_strip<'a>(
    bdata: &'a [f64],
    n: usize,
    kdim: usize,
    jc: usize,
    ncur: usize,
    bpack: &'a mut Vec<f64>,
) -> &'a [f64] {
    if ncur == n {
        return &bdata[..kdim * n];
    }
    bpack.resize(kdim * ncur, 0.0);
    for (kk, dst) in bpack.chunks_exact_mut(ncur).enumerate() {
        dst.copy_from_slice(&bdata[kk * n + jc..kk * n + jc + ncur]);
    }
    bpack
}

/// One output row segment against a packed `kcur × ncur` B panel: NR-wide
/// register tiles, with the tail cascading down through every narrower
/// supported width (so a 23-column panel at `nr = 16` runs one 16-wide
/// tile, one 4-wide, one 2-wide and one scalar column — never a long
/// scalar crawl). Each output element's partial sum is loaded once,
/// extended by `kcur` ascending-k adds in a register, and stored once —
/// the spill/reload between KC panels rounds identically to a
/// register-resident chain, so the tile width never changes a bit.
fn microkernel_row(arow: &[f64], bpanel: &[f64], crow: &mut [f64], ncur: usize, nr: usize) {
    let mut j = 0;
    for w in gemm::NR_CHOICES.into_iter().filter(|&w| w <= nr) {
        while j + w <= ncur {
            let cseg = &mut crow[j..j + w];
            match w {
                16 => microkernel_tile::<16>(arow, bpanel, ncur, j, cseg),
                8 => microkernel_tile::<8>(arow, bpanel, ncur, j, cseg),
                4 => microkernel_tile::<4>(arow, bpanel, ncur, j, cseg),
                2 => microkernel_tile::<2>(arow, bpanel, ncur, j, cseg),
                _ => microkernel_tile::<1>(arow, bpanel, ncur, j, cseg),
            }
            j += w;
        }
    }
}

/// NR independent accumulator chains (one per output element) advanced in
/// lockstep over ascending k. Const-generic width so the accumulators stay
/// in registers.
#[inline]
fn microkernel_tile<const NR: usize>(
    arow: &[f64],
    bpanel: &[f64],
    ncur: usize,
    j: usize,
    cseg: &mut [f64],
) {
    let mut acc = [0.0f64; NR];
    acc.copy_from_slice(&cseg[..NR]);
    for (kk, &av) in arow.iter().enumerate() {
        let b = &bpanel[kk * ncur + j..kk * ncur + j + NR];
        for t in 0..NR {
            acc[t] += av * b[t];
        }
    }
    cseg.copy_from_slice(&acc);
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    fn random_matrix(rng: &mut SplitMix64, r: usize, c: usize) -> Matrix {
        Matrix::from_fn(r, c, |_, _| rng.next_gaussian())
    }

    fn assert_bitwise_eq(a: &Matrix, b: &Matrix, ctx: &str) {
        assert_eq!(a.shape(), b.shape(), "{ctx}: shape");
        for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{ctx}: element {i}: {x} vs {y}");
        }
    }

    #[test]
    fn identity_is_neutral() {
        let mut rng = SplitMix64::new(1);
        let a = random_matrix(&mut rng, 5, 5);
        let i = Matrix::identity(5);
        assert!(a.matmul(&i).max_abs_diff(&a) < 1e-12);
        assert!(i.matmul(&a).max_abs_diff(&a) < 1e-12);
    }

    #[test]
    fn blocked_is_bitwise_naive() {
        let mut rng = SplitMix64::new(2);
        for &(m, k, n) in &[(1, 1, 1), (3, 4, 5), (17, 31, 9), (65, 64, 70), (70, 130, 40)] {
            let a = random_matrix(&mut rng, m, k);
            let b = random_matrix(&mut rng, k, n);
            assert_bitwise_eq(&a.matmul(&b), &a.matmul_naive(&b), &format!("({m},{k},{n})"));
        }
    }

    #[test]
    fn every_plan_is_bitwise_naive() {
        let mut rng = SplitMix64::new(7);
        let a = random_matrix(&mut rng, 37, 53);
        let b = random_matrix(&mut rng, 53, 29);
        let want = a.matmul_naive(&b);
        for &(mc, kc, nc, nr) in &[
            (1, 1, 1, 1),
            (2, 3, 5, 2),
            (8, 16, 8, 4),
            (64, 64, 64, 8),
            (37, 53, 29, 16),
            (usize::MAX, usize::MAX, usize::MAX, 8),
        ] {
            let plan = GemmPlan { mc, kc, nc, nr };
            let got = a.matmul_with_plan(&b, &plan);
            assert_bitwise_eq(&got, &want, &format!("plan {plan:?}"));
        }
    }

    #[test]
    fn zero_terms_keep_bitwise_parity() {
        // Rows of zeros and a NaN exercise the no-zero-skip contract: a
        // skipped 0.0 · NaN term would diverge from the blocked kernel.
        let mut a = Matrix::zeros(4, 4);
        a[(1, 2)] = -0.0;
        a[(2, 1)] = 3.5;
        let mut b = Matrix::from_fn(4, 3, |r, c| (r * 3 + c) as f64 - 5.0);
        b[(3, 0)] = f64::NAN;
        let naive = a.matmul_naive(&b);
        let blocked = a.matmul(&b);
        for (x, y) in naive.as_slice().iter().zip(blocked.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits(), "{x} vs {y}");
        }
    }

    #[test]
    fn matmul_tn_matches_explicit_transpose_bitwise() {
        let mut rng = SplitMix64::new(11);
        for &(k, m, n) in &[(1, 1, 1), (5, 3, 4), (31, 17, 9), (64, 70, 65), (130, 40, 70)] {
            let at = random_matrix(&mut rng, k, m); // stores Aᵀ
            let b = random_matrix(&mut rng, k, n);
            let want = at.transpose().matmul(&b);
            assert_bitwise_eq(&at.matmul_tn(&b), &want, &format!("tn ({k},{m},{n})"));
        }
    }

    #[test]
    fn into_kernels_and_add_matmul_tn_match_the_owned_products_bitwise() {
        let mut rng = SplitMix64::new(13);
        // One reused output, dirty and of the wrong shape on each call.
        let mut out = random_matrix(&mut rng, 3, 200);
        for &(k, m, n) in &[(1, 1, 1), (5, 3, 4), (16, 256, 48), (31, 17, 200), (130, 40, 70)] {
            let at = random_matrix(&mut rng, k, m);
            let b = random_matrix(&mut rng, k, n);
            at.matmul_tn_into(&b, &mut out);
            assert_bitwise_eq(&out, &at.matmul_tn(&b), &format!("tn_into ({k},{m},{n})"));
            let a = random_matrix(&mut rng, m, k);
            a.matmul_into(&b, &mut out);
            assert_bitwise_eq(&out, &a.matmul(&b), &format!("into ({k},{m},{n})"));
            let bt = random_matrix(&mut rng, n, k);
            a.matmul_nt_into(&bt, &mut out);
            assert_bitwise_eq(&out, &a.matmul_nt(&bt), &format!("nt_into ({k},{m},{n})"));
            // A -0.0 accumulator and signed-zero products: the product
            // chain must start at +0.0 and be added once, never seeded.
            let mut acc = random_matrix(&mut rng, m, n);
            acc.as_mut_slice()[0] = -0.0;
            let mut want = acc.clone();
            want.add_in_place(&at.matmul_tn(&b));
            acc.add_matmul_tn(&at, &b);
            assert_bitwise_eq(&acc, &want, &format!("add_matmul_tn ({k},{m},{n})"));
        }
        let mut zero = Matrix::from_rows(&[&[-0.0]]);
        zero.add_matmul_tn(&Matrix::from_rows(&[&[-0.0]]), &Matrix::from_rows(&[&[1.0]]));
        assert_eq!(zero[(0, 0)].to_bits(), (-0.0f64 + 0.0).to_bits());
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose_bitwise() {
        let mut rng = SplitMix64::new(12);
        for &(m, k, n) in &[(1, 1, 1), (5, 3, 4), (31, 17, 9), (64, 70, 65), (40, 130, 70)] {
            let a = random_matrix(&mut rng, m, k);
            let bt = random_matrix(&mut rng, n, k); // stores Bᵀ
            let want = a.matmul(&bt.transpose());
            assert_bitwise_eq(&a.matmul_nt(&bt), &want, &format!("nt ({m},{k},{n})"));
        }
    }

    #[test]
    fn degenerate_shapes_multiply() {
        let a = Matrix::zeros(0, 3);
        let b = Matrix::zeros(3, 4);
        assert_eq!(a.matmul(&b).shape(), (0, 4));
        let a = Matrix::zeros(2, 0);
        let b = Matrix::zeros(0, 4);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), (2, 4));
        assert!(c.as_slice().iter().all(|&v| v == 0.0));
        let a = Matrix::zeros(3, 2);
        let b = Matrix::zeros(3, 2);
        assert_eq!(a.matmul_tn(&b).shape(), (2, 2));
        assert_eq!(a.matmul_nt(&b).shape(), (3, 3));
    }

    #[test]
    fn transpose_involution() {
        let mut rng = SplitMix64::new(4);
        let a = random_matrix(&mut rng, 40, 33);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn transpose_swaps_indices() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let t = a.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t[(2, 1)], 6.0);
        assert_eq!(t[(0, 1)], 4.0);
    }

    #[test]
    fn matvec_matches_matmul() {
        let mut rng = SplitMix64::new(5);
        let a = random_matrix(&mut rng, 12, 7);
        let x: Vec<f64> = (0..7).map(|i| i as f64).collect();
        let xm = Matrix::from_vec(7, 1, x.clone());
        let via_mm = a.matmul(&xm);
        let via_mv = a.matvec(&x);
        for (i, v) in via_mv.iter().enumerate() {
            assert!((v - via_mm[(i, 0)]).abs() < 1e-12);
        }
    }

    #[test]
    fn matvec_equals_per_row_dot_bitwise() {
        // Fewer rows than one block, leftover rows after the last block,
        // and column counts that leave a tail; magnitudes spread over
        // eight decades so that any other summation order rounds apart.
        let mut rng = SplitMix64::new(21);
        let mut y = vec![f64::NAN; 5]; // a dirty output to reuse
        let shapes = (0..=17).flat_map(|r| (0..=9).map(move |c| (r, c))).chain([(256, 256)]);
        for (r, c) in shapes {
            let mut scaled = || rng.next_gaussian() * 10f64.powi(rng.next_bounded(9) as i32 - 4);
            let a = Matrix::from_fn(r, c, |_, _| scaled());
            let x: Vec<f64> = (0..c).map(|_| scaled()).collect();
            let bits = |v: &[f64]| v.iter().map(|e| e.to_bits()).collect::<Vec<_>>();
            let want: Vec<u64> = (0..r).map(|i| vector::dot(a.row(i), &x).to_bits()).collect();
            assert_eq!(bits(&a.matvec(&x)), want, "matvec {r}x{c}");
            a.matvec_into(&x, &mut y);
            assert_eq!(bits(&y), want, "matvec_into {r}x{c}");
        }
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    #[should_panic(expected = "matmul_tn: dimension mismatch")]
    fn matmul_tn_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(3, 3);
        let _ = a.matmul_tn(&b);
    }

    #[test]
    #[should_panic(expected = "matmul_nt: dimension mismatch")]
    fn matmul_nt_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(3, 4);
        let _ = a.matmul_nt(&b);
    }

    #[test]
    fn add_sub_scale() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[0.5, 0.5]]);
        let mut s = a.add(&b);
        assert_eq!(s.row(0), &[1.5, 2.5]);
        s = s.sub(&b);
        assert_eq!(s.row(0), &[1.0, 2.0]);
        s.scale_in_place(2.0);
        assert_eq!(s.row(0), &[2.0, 4.0]);
    }

    #[test]
    fn frobenius() {
        let a = Matrix::from_rows(&[&[3.0], &[4.0]]);
        assert_eq!(a.frobenius_norm(), 5.0);
    }

    #[test]
    fn from_fn_layout() {
        let a = Matrix::from_fn(2, 3, |r, c| (r * 10 + c) as f64);
        assert_eq!(a.row(1), &[10.0, 11.0, 12.0]);
        assert_eq!(a.col(2), vec![2.0, 12.0]);
    }

    #[test]
    fn is_finite_detects_nan() {
        let mut a = Matrix::zeros(2, 2);
        assert!(a.is_finite());
        a[(1, 1)] = f64::NAN;
        assert!(!a.is_finite());
    }
}
