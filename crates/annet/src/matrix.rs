//! A row-major `f64` matrix with exactly the operations backpropagation
//! needs. No BLAS, no intrinsics — the three products share one
//! register-resident block (`strip_block`), cut to the register width, and
//! one row-streaming loop for the shapes where that wins. The three product
//! kernels, and the slice loop of `tanh.rs`, are compiled twice from one
//! source, for baseline x86-64 and for AVX2+FMA, and `Kernel::run` picks by
//! the CPU: the crate's one `unsafe` call (DESIGN.md §8b).

use serde::{Deserialize, Serialize, Sink};

/// A dense row-major matrix.
///
/// # Example
///
/// ```
/// use annet::Matrix;
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// let b = Matrix::identity(2);
/// assert_eq!(a.matmul(&b), a);
/// ```
#[derive(Debug, Clone, PartialEq, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

/// The serialised layout: `rows`, `cols`, then `data` row-major.
fn serialize_fields<'a, S: Sink + ?Sized>(
    sink: &mut S,
    rows: usize,
    cols: usize,
    data: impl Iterator<Item = &'a f64>,
) {
    sink.begin_map();
    sink.key("rows");
    rows.serialize(sink);
    sink.key("cols");
    cols.serialize(sink);
    sink.key("data");
    sink.begin_seq();
    for &x in data {
        sink.float(x);
    }
    sink.end_seq();
    sink.end_map();
}

impl Serialize for Matrix {
    fn serialize<S: Sink + ?Sized>(&self, sink: &mut S) {
        serialize_fields(sink, self.rows, self.cols, self.data.iter());
    }
}

impl Matrix {
    /// A `rows × cols` matrix of zeros.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// The identity matrix of size `n`.
    #[must_use]
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty or the rows have unequal lengths.
    #[must_use]
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        assert!(!rows.is_empty(), "need at least one row");
        let cols = rows[0].len();
        assert!(cols > 0, "rows must be non-empty");
        let mut data = Vec::with_capacity(rows.len() * cols);
        for row in rows {
            assert_eq!(row.len(), cols, "all rows must have equal length");
            data.extend_from_slice(row);
        }
        Matrix {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Builds a matrix from a flat row-major vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    #[must_use]
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "data length must match shape");
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices.
    #[inline]
    #[must_use]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        assert!(r < self.rows && c < self.cols, "index out of range");
        self.data[r * self.cols + c]
    }

    /// Sets the element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, value: f64) {
        assert!(r < self.rows && c < self.cols, "index out of range");
        self.data[r * self.cols + c] = value;
    }

    /// A view of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    #[must_use]
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "row out of range");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        assert!(r < self.rows, "row out of range");
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The flat row-major data.
    #[must_use]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable view of the flat row-major data.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Widest right-hand side the products treat as narrow (backprop's
    /// `W · δᵀ` and the 1–2 column output layers): blocks as tall as the
    /// registers allow and no row streams.
    const STRIP_MAX_COLS: usize = 32;

    /// Matrix product `self · rhs`.
    ///
    /// Allocates the result and runs [`Matrix::matmul_dense_into`], so it
    /// is bit-identical to [`Matrix::matmul_naive`] for finite operands.
    ///
    /// # Panics
    ///
    /// Panics when the inner dimensions disagree.
    #[must_use]
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        self.matmul_dense_into(rhs, &mut out);
        out
    }

    /// Branch-free matrix product `out ← self · rhs` for dense (finite,
    /// mostly non-zero) operands — the inference hot path.
    ///
    /// Bit-identical to [`Matrix::matmul_naive`] for finite inputs: every
    /// output element is its own accumulator, summing its `k` terms in the
    /// same ascending order from `+0.0`, one rounding per multiply and per
    /// add, and since IEEE round-to-nearest never produces `-0.0` from a
    /// sum that started at `+0.0`, adding a `±0.0` term where the naive
    /// product skips an exact-zero `self` element cannot change any bit.
    /// The only divergence is non-finite operands (`0 · ∞`, `0 · NaN`),
    /// where the skipping product would hide the poison — inputs no trained
    /// network produces.
    ///
    /// The operand shape and the register width alone pick the loop nest
    /// (`product`); all of them add the same products in the same order, so
    /// which one ran is invisible in the bits (DESIGN.md §8b).
    ///
    /// # Panics
    ///
    /// Panics when the inner dimensions disagree.
    pub fn matmul_dense_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, rhs.rows,
            "inner dimensions must agree ({}x{} · {}x{})",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        Self::dense_kernel(rhs.cols).run((self, rhs, out));
    }

    /// The kernel [`Matrix::matmul_dense_into`] runs for a right-hand side
    /// of `rhs_cols` columns.
    fn dense_kernel<'a>(rhs_cols: usize) -> Kernel<Product<'a>> {
        if rhs_cols <= Self::STRIP_MAX_COLS {
            Kernel::STRIPS
        } else {
            Kernel::ROWS
        }
    }

    /// Reference matrix product: the textbook `ikj` loop, no blocking.
    ///
    /// This is the implementation the optimised kernels
    /// ([`Matrix::matmul_dense_into`], [`Matrix::matmul_at_b_into`]) are
    /// pinned against (by proptest): they must agree *bit for bit* on
    /// finite operands, exact-zero left-hand elements (skipped here)
    /// included. `pub` because integration tests use it as their oracle.
    ///
    /// # Panics
    ///
    /// Panics when the inner dimensions disagree.
    #[must_use]
    pub fn matmul_naive(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, rhs.rows,
            "inner dimensions must agree ({}x{} · {}x{})",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        // ikj order: the inner loop walks contiguous memory in both
        // `rhs` and `out`.
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.data[i * self.cols + k];
                if a == 0.0 {
                    continue;
                }
                let rhs_row = &rhs.data[k * rhs.cols..(k + 1) * rhs.cols];
                let out_row = &mut out.data[i * rhs.cols..(i + 1) * rhs.cols];
                for (o, &b) in out_row.iter_mut().zip(rhs_row) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// `selfᵀ · rhs` without materialising the transpose, into `out`.
    ///
    /// Bit-identical to `self.transpose().matmul_naive(rhs)` for finite
    /// operands: the same kernels as [`Matrix::matmul_dense_into`] reading
    /// their left terms down the columns of `self`, so every output element
    /// accumulates its terms in ascending order of the shared dimension
    /// (rows of both operands) from `+0.0`. No zero is skipped; as there,
    /// non-finite operands are the one divergence.
    ///
    /// # Panics
    ///
    /// Panics when the row counts disagree.
    pub fn matmul_at_b_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.rows, rhs.rows,
            "row counts must agree (({}x{})ᵀ · {}x{})",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        Kernel::AT_B.run((self, rhs, out));
    }

    /// Serialises the transpose, reading this matrix column by column, so
    /// no transposed copy is built.
    pub(crate) fn serialize_transposed<S: Sink + ?Sized>(&self, sink: &mut S) {
        let columns = (0..self.cols).flat_map(|c| self.data[c..].iter().step_by(self.cols));
        serialize_fields(sink, self.cols, self.rows, columns);
    }

    /// The transpose.
    #[must_use]
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        self.transpose_into(&mut out);
        out
    }

    /// Writes the transpose into `out` (resized to fit), in 8×8 tiles so
    /// the row-wise reads and the column-wise writes both stay within a
    /// handful of cache lines per tile.
    pub fn transpose_into(&self, out: &mut Matrix) {
        const TILE: usize = 8;
        out.reshape_for_overwrite(self.cols, self.rows);
        for rb in (0..self.rows).step_by(TILE) {
            let r_end = (rb + TILE).min(self.rows);
            for cb in (0..self.cols).step_by(TILE) {
                let c_end = (cb + TILE).min(self.cols);
                for r in rb..r_end {
                    for c in cb..c_end {
                        out.data[c * self.rows + r] = self.data[r * self.cols + c];
                    }
                }
            }
        }
    }

    /// Reshapes to `rows × cols` with every element set to zero, reusing
    /// the existing allocation when it is large enough.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn resize_zeroed(&mut self, rows: usize, cols: usize) {
        self.data.clear();
        self.reshape_for_overwrite(rows, cols);
    }

    /// Reshapes to `rows × cols` for a caller that writes every element:
    /// what the buffer already held stays in it, unzeroed.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub(crate) fn reshape_for_overwrite(&mut self, rows: usize, cols: usize) {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// Copies the listed rows of `self` into `out`, in order.
    ///
    /// # Panics
    ///
    /// Panics if `indices` is empty or any index is out of range.
    pub(crate) fn gather_rows_into(&self, indices: &[usize], out: &mut Matrix) {
        assert!(!indices.is_empty(), "need at least one row");
        out.reshape_for_overwrite(indices.len(), self.cols);
        for (r, &i) in indices.iter().enumerate() {
            assert!(i < self.rows, "row out of range");
            out.data[r * self.cols..(r + 1) * self.cols]
                .copy_from_slice(&self.data[i * self.cols..(i + 1) * self.cols]);
        }
    }

    /// Element-wise addition in place.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add_assign(&mut self, rhs: &Matrix) {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "shape mismatch"
        );
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a += b;
        }
    }

    /// Element-wise subtraction in place.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn sub_assign(&mut self, rhs: &Matrix) {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "shape mismatch"
        );
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a -= b;
        }
    }

    /// Fused `self -= factor · rhs`, element-wise.
    ///
    /// Bit-identical to scaling a copy of `rhs` by `factor` and then
    /// subtracting it: both perform one rounding for the product and one
    /// for the subtraction per element.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn sub_scaled_assign(&mut self, rhs: &Matrix, factor: f64) {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "shape mismatch"
        );
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a -= factor * b;
        }
    }

    /// Multiplies every element by `factor`, in place.
    pub fn scale(&mut self, factor: f64) {
        for a in &mut self.data {
            *a *= factor;
        }
    }

    /// Element-wise (Hadamard) product in place.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn hadamard_assign(&mut self, rhs: &Matrix) {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "shape mismatch"
        );
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a *= b;
        }
    }

    /// Applies `f` to every element, returning a new matrix.
    #[must_use]
    pub fn map<F: Fn(f64) -> f64>(&self, f: F) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Sum of all elements.
    #[must_use]
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// The Frobenius norm.
    #[must_use]
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }
}

/// The argument of the three product kernels: `out ← f(a, rhs)`, shapes
/// checked by the caller.
type Product<'a> = (&'a Matrix, &'a Matrix, &'a mut Matrix);

/// One kernel over an argument `A`, compiled twice from the same
/// `#[inline(always)]` body: for the build's baseline target, and (x86-64
/// only) with AVX2 and FMA switched on, where the same safe loops
/// auto-vectorise four doubles wide instead of two and [`f64::mul_add`] is
/// one instruction instead of a library call. Which instantiation ran is
/// invisible in the bits: `mul_add` is exactly rounded in both, and rustc
/// never contracts a written `a * b + c` into a fused multiply-add, so
/// enabling `fma` changes no product's arithmetic — every output element is
/// the same multiplies and adds in the same ascending `k`.
pub(crate) struct Kernel<A> {
    baseline: fn(A),
    /// Must enable no target feature but `avx2` and `fma`: that is the
    /// whole safety condition of the call in [`Kernel::run`]. The field is
    /// private and `kernel!` is local to this module, so every `Kernel` in
    /// the crate is one of the four below.
    #[cfg(target_arch = "x86_64")]
    wide: unsafe fn(A),
}

impl<A> Kernel<A> {
    /// Runs the widest instantiation this CPU has, and says whether that
    /// was the AVX2+FMA one (only the selection tests read the answer). The
    /// CPU alone decides: there is no switch to set.
    #[allow(unsafe_code)]
    #[inline]
    pub(crate) fn run(&self, args: A) -> bool {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            // SAFETY: `self.wide` is a safe function whose only
            // `#[target_feature]`s are `avx2` and `fma` (see `kernel!`, the
            // one place a `Kernel` is built), and the line above found both
            // on this CPU.
            unsafe { (self.wide)(args) };
            return true;
        }
        (self.baseline)(args);
        false
    }

    /// Runs the baseline instantiation, for the tests that hold it to the
    /// dispatched one on a CPU where `run` never picks it.
    #[cfg(test)]
    pub(crate) fn run_baseline(&self, args: A) {
        (self.baseline)(args);
    }
}

/// Both instantiations of `$body` over `$args: $ty`, as a [`Kernel`].
/// `$lanes` names, inside `$body`, the doubles a register holds where that
/// instantiation runs.
macro_rules! kernel {
    ($ty:ty, |$args:pat_param, $lanes:ident| $body:expr) => {{
        #[inline(never)]
        fn baseline($args: $ty) {
            const $lanes: usize = 2;
            $body
        }
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx2,fma")]
        fn wide($args: $ty) {
            const $lanes: usize = 4;
            $body
        }
        Kernel {
            baseline,
            #[cfg(target_arch = "x86_64")]
            wide,
        }
    }};
}

/// The block shapes, by operand shape and register width alone. A narrow
/// `rhs` (`W · δᵀ`) takes eight registers of accumulators as `LANES × 8`
/// (2 × 8, 4 × 8). A wide one (`x · W`, `xᵀ · δ`) takes row pairs, 2 × 16
/// or, where the shared dimension is only a mini-batch long and a bigger
/// block amortises its zeroing and storing better, twelve registers as
/// 2 × 24, on four lanes; two-lane registers stream them
/// (`blocked_under_wide_rhs`).
impl Kernel<Product<'_>> {
    const ROWS: Self = kernel!(Product<'_>, |(a, rhs, out), LANES| {
        let blocked = blocked_under_wide_rhs(a.rows, LANES);
        product::<2, { 8 * LANES }>(Rows(a), a.rows, blocked, rhs, out)
    });
    const STRIPS: Self = kernel!(Product<'_>, |(a, rhs, out), LANES| {
        product::<LANES, { 8 * LANES }>(Rows(a), a.rows, a.rows, rhs, out)
    });
    const AT_B: Self = kernel!(Product<'_>, |(a, rhs, out), LANES| {
        if rhs.cols <= Matrix::STRIP_MAX_COLS {
            product::<LANES, { 8 * LANES }>(Cols(a), a.cols, a.cols, rhs, out)
        } else {
            let blocked = blocked_under_wide_rhs(a.cols, LANES);
            product::<2, { 12 * LANES }>(Cols(a), a.cols, blocked, rhs, out)
        }
    });
}

impl Kernel<&mut [f64]> {
    /// `x ← tanh(x)` over a slice ([`crate::tanh`]).
    pub(crate) const TANH: Self = kernel!(&mut [f64], |xs, _LANES| crate::tanh::slice_body(xs));
}

/// How many leading output rows of a product with a wide `rhs` run as
/// register blocks: the row pairs, on a four-lane machine. An odd last row
/// streams: alone it re-uses no strip of `rhs`, and whole rows of `rhs` are
/// the access pattern the prefetcher follows. On two lanes every row
/// streams: a 2 × 8 block is eight registers of accumulators there too, but
/// it costs as many instructions a term as it does multiply-adds, and loses
/// (measured in DESIGN.md §8b).
const fn blocked_under_wide_rhs(rows: usize, lanes: usize) -> usize {
    if lanes == 2 {
        0
    } else {
        rows - rows % 2
    }
}

/// The left operand of a product as the kernels walk it.
trait Left: Copy {
    /// In ascending `k`, term `k` of output rows `i..i + R`.
    fn terms<const R: usize>(self, i: usize) -> impl Iterator<Item = [f64; R]>;
}

/// `a` as it is stored: output row `i` reads row `i` of `a`.
#[derive(Clone, Copy)]
struct Rows<'a>(&'a Matrix);

/// `aᵀ`, never materialised: output row `i` reads column `i` of `a`, so the
/// `R` left terms of a block are adjacent in memory.
#[derive(Clone, Copy)]
struct Cols<'a>(&'a Matrix);

impl Left for Rows<'_> {
    #[inline(always)]
    fn terms<const R: usize>(self, i: usize) -> impl Iterator<Item = [f64; R]> {
        let Matrix { cols, data, .. } = self.0;
        let rows: [&[f64]; R] = std::array::from_fn(|r| &data[(i + r) * cols..][..*cols]);
        (0..*cols).map(move |k| rows.map(|row| row[k]))
    }
}

impl Left for Cols<'_> {
    #[inline(always)]
    fn terms<const R: usize>(self, i: usize) -> impl Iterator<Item = [f64; R]> {
        let Matrix { cols, data, .. } = self.0;
        data[i..]
            .chunks(*cols)
            .map(|row| *row.first_chunk().expect("R columns right of i"))
    }
}

/// `out ← left · rhs` (`rows × rhs.cols`): output rows `..blocked` as
/// register blocks of up to `ACC` accumulators, `R` rows tall, then a row
/// pair and a last row in blocks of their own; rows `blocked..` streamed, in
/// pairs and a last one. Every element of `out` is written by exactly one of
/// them, whatever it held.
#[inline(always)]
fn product<const R: usize, const ACC: usize>(
    left: impl Left,
    rows: usize,
    blocked: usize,
    rhs: &Matrix,
    out: &mut Matrix,
) {
    out.reshape_for_overwrite(rows, rhs.cols);
    let out = &mut out.data[..];
    let (full, paired) = (blocked - blocked % R, blocked - blocked % 2);
    blocks::<R, ACC>(left, 0..full, rhs, out);
    blocks::<2, ACC>(left, full..paired, rhs, out);
    blocks::<1, ACC>(left, paired..blocked, rhs, out);
    let paired = rows - (rows - blocked) % 2;
    stream::<2>(left, blocked..paired, rhs, out);
    stream::<1>(left, paired..rows, rhs, out);
}

/// Output rows `rows`, `R` at a pass, streaming whole rows of `rhs` eight
/// terms at a time into the output rows, zeroed first. The eight-term update
/// is a left-to-right chain, so every output element is still the sequential
/// sum from `+0.0` in ascending `k`; the `R` rows of a pass share the eight
/// rows of `rhs` while they are in L1 (DESIGN.md §8b has what it is
/// measured against).
#[inline(always)]
fn stream<const R: usize>(
    left: impl Left,
    rows: std::ops::Range<usize>,
    rhs: &Matrix,
    out: &mut [f64],
) {
    let rc = rhs.cols;
    for i in rows.step_by(R) {
        let group = &mut out[i * rc..(i + R) * rc];
        group.fill(0.0);
        let mut terms = left.terms::<R>(i);
        let mut b = rhs.data.chunks_exact(rc);
        for _ in 0..rhs.rows / 8 {
            let c: [[f64; R]; 8] = std::array::from_fn(|_| terms.next().expect("a term"));
            let b: [&[f64]; 8] = std::array::from_fn(|_| b.next().expect("its rhs row"));
            for (r, o) in group.chunks_exact_mut(rc).enumerate() {
                add_eight(o, b, c.map(|c| c[r]));
            }
        }
        for (c, b) in terms.zip(b) {
            for (r, o) in group.chunks_exact_mut(rc).enumerate() {
                for (o, &b) in o.iter_mut().zip(b) {
                    *o += c[r] * b;
                }
            }
        }
    }
}

/// `o[j] ← ((o[j] + c₀·b₀[j]) + c₁·b₁[j]) + …` over one output row. A
/// function of its own so that `o`, the only slice written, is known not to
/// overlap the rows read and the loop vectorises without run-time checks.
#[inline(always)]
fn add_eight(o: &mut [f64], b: [&[f64]; 8], c: [f64; 8]) {
    let b = b.map(|row| &row[..o.len()]);
    for j in 0..o.len() {
        let mut sum = o[j];
        for t in 0..8 {
            sum += c[t] * b[t][j];
        }
        o[j] = sum;
    }
}

/// One `R × W` block of a product, register-resident. `left` yields, in
/// ascending `k`, the `R` left-operand elements of term `k`; `rhs` starts
/// at the block's first column of an `rc`-wide row-major operand. The
/// `R · W` accumulators live in locals across the whole shared dimension
/// and each is the sequential sum `((+0.0 + a₀·b₀) + a₁·b₁) + …`: the order
/// of the `ikj` loops, one rounding per multiply and per add, no FMA.
#[inline(always)]
fn strip_block<const R: usize, const W: usize>(
    left: impl Iterator<Item = [f64; R]>,
    rhs: &[f64],
    rc: usize,
) -> [[f64; W]; R] {
    let mut acc = [[0.0; W]; R];
    let mut rest = rhs;
    for a in left {
        let b: &[f64; W] = rest.first_chunk().expect("one rhs row per term");
        for r in 0..R {
            for w in 0..W {
                acc[r][w] += a[r] * b[w];
            }
        }
        rest = rest.get(rc..).unwrap_or(&[]);
    }
    acc
}

/// Every `W`-column strip that still fits right of `*j`, each down output
/// rows `rows` in steps of `R`, a block stored once. Nothing when `R × W`
/// is more than the `ACC` accumulators the caller has registers for.
#[inline(always)]
fn strips<const R: usize, const W: usize, const ACC: usize>(
    left: impl Left,
    rows: &std::ops::Range<usize>,
    rhs: &Matrix,
    out: &mut [f64],
    j: &mut usize,
) {
    let rc = rhs.cols;
    while R * W <= ACC && *j + W <= rc {
        for i in rows.clone().step_by(R) {
            let acc = strip_block::<R, W>(left.terms(i), &rhs.data[*j..], rc);
            for (r, acc) in acc.iter().enumerate() {
                out[(i + r) * rc + *j..][..W].copy_from_slice(acc);
            }
        }
        *j += W;
    }
}

/// Output rows `rows` (a multiple of `R` of them) as column strips, widest
/// first, so any width is covered without padding: 21 = 16 + 4 + 1. The
/// strip is the outer loop: a `200 × 16` strip of `rhs` (25 KB) stays in L1
/// down every row group instead of all of `rhs` streaming from L2 once per
/// group. Every element of `out` is stored exactly once, never read.
#[inline(always)]
fn blocks<const R: usize, const ACC: usize>(
    left: impl Left,
    rows: std::ops::Range<usize>,
    rhs: &Matrix,
    out: &mut [f64],
) {
    let mut j = 0;
    strips::<R, 32, ACC>(left, &rows, rhs, out, &mut j);
    strips::<R, 24, ACC>(left, &rows, rhs, out, &mut j);
    strips::<R, 16, ACC>(left, &rows, rhs, out, &mut j);
    strips::<R, 8, ACC>(left, &rows, rhs, out, &mut j);
    strips::<R, 4, ACC>(left, &rows, rhs, out, &mut j);
    strips::<R, 2, ACC>(left, &rows, rhs, out, &mut j);
    strips::<R, 1, ACC>(left, &rows, rhs, out, &mut j);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        assert_eq!(m.get(1, 2), 6.0);
        assert_eq!(m.row(0), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn matmul_rectangular() {
        let a = Matrix::from_rows(&[&[1.0, 0.0, 2.0]]);
        let b = Matrix::from_rows(&[&[1.0], &[2.0], &[3.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.rows(), 1);
        assert_eq!(c.cols(), 1);
        assert_eq!(c.get(0, 0), 7.0);
    }

    #[test]
    #[should_panic(expected = "inner dimensions must agree")]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn transpose_round_trips() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let t = m.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.get(2, 1), 6.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn tiled_transpose_covers_vectors_and_ragged_tiles() {
        for (rows, cols) in [(1, 5), (5, 1), (8, 8), (9, 17), (33, 10), (7, 64)] {
            let data = (0..rows * cols).map(|i| i as f64).collect();
            let m = Matrix::from_vec(rows, cols, data);
            // Into a dirty, differently-shaped buffer.
            let mut t = Matrix::from_vec(2, 3, vec![-1.0; 6]);
            m.transpose_into(&mut t);
            assert_eq!((t.rows(), t.cols()), (cols, rows));
            for r in 0..rows {
                for c in 0..cols {
                    assert_eq!(t.get(c, r), m.get(r, c), "{rows}x{cols} at ({r}, {c})");
                }
            }
        }
    }

    fn bits(m: &Matrix) -> Vec<u64> {
        m.as_slice().iter().map(|x| x.to_bits()).collect()
    }

    /// Seeded values in ±1, about one in five an exact `+0.0` or `-0.0`.
    fn sparse(rows: usize, cols: usize, rng: &mut desim::SimRng) -> Matrix {
        let data = (0..rows * cols).map(|_| {
            let v = rng.next_f64() * 2.0 - 1.0;
            match rng.next_u64() % 10 {
                0 => 0.0,
                1 => -0.0,
                _ => v,
            }
        });
        Matrix::from_vec(rows, cols, data.collect())
    }

    /// An output buffer of the wrong shape, larger or smaller than any
    /// result below, holding values no sum may pick up.
    fn dirty(large: bool) -> Matrix {
        if large {
            Matrix::from_vec(65, 65, vec![f64::NAN; 65 * 65])
        } else {
            Matrix::from_vec(1, 3, vec![7.5; 3])
        }
    }

    proptest::proptest! {
        /// Every nest under the three products *is* the product: bit for
        /// bit `matmul_naive`, whose exact-zero skip must stay invisible,
        /// into dirty buffers of the wrong shape; `matmul_at_b_into` is
        /// held to the same oracle through `transpose()`. Right-hand sides
        /// up to 64 columns put every step of the strip cascades (32, 24,
        /// 16, 8, 4, 2, 1) and both sides of the narrow / wide bound under
        /// it; half the cases have 1, 2, 3, 32 or 33 rows, for the blocks of
        /// four, the pair and the last row alone; shared dimensions either side of eight run the streaming
        /// loop's eight-term passes and its one-term remainder. Each runs
        /// twice: through the public entry (the AVX2 instantiation wherever
        /// the CPU has it) and as the baseline instantiation called
        /// directly, which is how that one stays covered on an AVX2 host.
        #[test]
        fn dense_and_at_b_kernels_equal_the_naive_product_bitwise(
            rows in 1usize..41,
            edge in 0usize..10,
            shared in 1usize..41,
            cols in 1usize..65,
            large in proptest::bool::ANY,
            seed in 0u64..u64::MAX,
        ) {
            let rows = [1, 2, 3, 32, 33].get(edge).copied().unwrap_or(rows);
            let mut rng = desim::SimRng::seed_from_u64(seed);
            let a = sparse(rows, shared, &mut rng);
            let b = sparse(shared, cols, &mut rng);
            let at = a.transpose();
            let want = a.matmul_naive(&b);

            type Run<'f> = &'f dyn Fn(&Matrix, &Matrix, &mut Matrix);
            let runs: [(&Matrix, Run); 4] = [
                (&a, &Matrix::matmul_dense_into),
                (&a, &|a, rhs, out| Matrix::dense_kernel(cols).run_baseline((a, rhs, out))),
                (&at, &Matrix::matmul_at_b_into),
                (&at, &|a, rhs, out| Kernel::AT_B.run_baseline((a, rhs, out))),
            ];
            for (i, (left, kernel)) in runs.into_iter().enumerate() {
                let mut out = dirty(large);
                kernel(left, &b, &mut out);
                proptest::prop_assert_eq!((out.rows(), out.cols()), (rows, cols), "run {}", i);
                proptest::prop_assert_eq!(bits(&out), bits(&want), "run {}", i);
            }
        }
    }

    /// Guards the property above, and its sibling in `tanh`, against
    /// comparing the baseline with itself: a misspelt `cfg` or feature name
    /// in [`Kernel::run`] would leave every bit and every test unchanged
    /// and only the speed gone.
    #[test]
    fn the_avx2_instantiation_runs_wherever_avx2_is_detected() {
        #[cfg(target_arch = "x86_64")]
        let detected = std::arch::is_x86_feature_detected!("avx2")
            && std::arch::is_x86_feature_detected!("fma");
        #[cfg(not(target_arch = "x86_64"))]
        let detected = false;
        let m = Matrix::identity(3);
        for i in 0..3 {
            let kernel = &[Kernel::ROWS, Kernel::STRIPS, Kernel::AT_B][i];
            let mut out = dirty(false);
            assert_eq!(kernel.run((&m, &m, &mut out)), detected);
            assert_eq!(out, m);
        }
        let mut xs = [0.3, -1.5, 8.0];
        assert_eq!(Kernel::TANH.run(&mut xs), detected);
        assert_eq!(
            xs.map(f64::to_bits),
            [
                0x3fd2_a4dd_a7d9_14fa,
                0xbfec_f6f9_786d_f577,
                0x3fef_ffff_872a_91f8
            ]
        );
    }

    #[test]
    fn elementwise_operations() {
        let mut a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[3.0, 4.0]]);
        a.add_assign(&b);
        assert_eq!(a.row(0), &[4.0, 6.0]);
        a.sub_assign(&b);
        assert_eq!(a.row(0), &[1.0, 2.0]);
        a.hadamard_assign(&b);
        assert_eq!(a.row(0), &[3.0, 8.0]);
        a.scale(0.5);
        assert_eq!(a.row(0), &[1.5, 4.0]);
    }

    #[test]
    fn map_sum_norm() {
        let m = Matrix::from_rows(&[&[3.0, 4.0]]);
        assert_eq!(m.map(|x| x * x).sum(), 25.0);
        assert!((m.frobenius_norm() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn identity_is_neutral() {
        let m = Matrix::from_rows(&[&[2.0, -1.0], &[0.5, 3.0]]);
        assert_eq!(m.matmul(&Matrix::identity(2)), m);
        assert_eq!(Matrix::identity(2).matmul(&m), m);
    }

    #[test]
    #[should_panic(expected = "data length must match shape")]
    fn from_vec_validates_length() {
        let _ = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn serde_round_trip() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let json = serde_json::to_string(&m).unwrap();
        let back: Matrix = serde_json::from_str(&json).unwrap();
        assert_eq!(m, back);
    }
}
