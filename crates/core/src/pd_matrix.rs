//! Block-permuted-diagonal weight matrices (Section III-A of the paper).

use pd_tensor::init::xavier_uniform;
use pd_tensor::Matrix;
use rand::Rng;

use crate::{PdError, PermutedDiagonalBlock};

/// How the per-block permutation parameters `k_l` are chosen (Section III-D).
///
/// The paper reports no task-performance difference between the two policies; the
/// `perm_indexing` experiment binary reproduces that ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PermutationIndexing {
    /// `k_l = l mod p` — the paper's default ("for a 4-by-16 block-permuted diagonal
    /// weight matrix with p = 4, k0..k3 are set as 0..3").
    #[default]
    Natural,
    /// `k_l` drawn uniformly at random from `0..p`.
    Random,
}

/// An `m × n` block-permuted-diagonal matrix with `p × p` permuted-diagonal blocks.
///
/// The matrix is tiled by `ceil(m/p) × ceil(n/p)` blocks (zero-padding the ragged edge,
/// footnote 3 of the paper). Block `l` (`l = block_row · n_block_cols + block_col`) has a
/// permutation parameter `k_l`, and its only non-zeros are at `(c, (c + k_l) mod p)`
/// within the block. Following Eqn. (1), entry `(i, j)` is
///
/// ```text
/// w_ij = q[l·p + c]   if (c + k_l) mod p == d,   else 0
/// ```
///
/// with `c = i mod p`, `d = j mod p`. Only the `q` vector (one value per block row-slot)
/// and the small `k_l` vector are stored: the compression ratio over a dense matrix is
/// exactly `p`, with no per-entry index storage at all.
///
/// # Example
///
/// ```
/// use permdnn_core::{BlockPermDiagMatrix, PermutationIndexing};
///
/// let w = BlockPermDiagMatrix::zeros(8, 8, 4, PermutationIndexing::Natural).unwrap();
/// assert_eq!(w.compression_ratio(), 4.0);
/// assert_eq!(w.stored_weights(), 16);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BlockPermDiagMatrix {
    rows: usize,
    cols: usize,
    p: usize,
    block_rows: usize,
    block_cols: usize,
    /// Permutation parameter `k_l` per block, indexed `l = block_row * block_cols + block_col`.
    perms: Vec<usize>,
    /// Stored non-zero values `q`, indexed `l * p + c` where `c` is the row within block `l`.
    values: Vec<f32>,
    /// Column-kernel cache: `kernel_col_ptr[j]..kernel_col_ptr[j+1]` indexes
    /// the entries of column `j` in `kernel_rows` / `kernel_w`, in the order
    /// [`column_nonzeros`](Self::column_nonzeros) walks them. Fixed by the
    /// perms, which are immutable after construction.
    kernel_col_ptr: Vec<u32>,
    /// Output row of each cached column entry.
    kernel_rows: Vec<u32>,
    /// Weight of each cached column entry: a column-ordered copy of `values`,
    /// so the matvec hot path streams weights with no gather (one weight-SRAM
    /// row per column, as in Fig. 8). Every mutation of `values` goes through
    /// [`values_mut`](Self::values_mut) or
    /// [`map_values_in_place`](Self::map_values_in_place), which rewrite it.
    kernel_w: Vec<f32>,
}

/// Mutable access to a [`BlockPermDiagMatrix`]'s stored values, returned by
/// [`BlockPermDiagMatrix::values_mut`]. Dereferences to `[f32]`; when it
/// drops, the column-ordered kernel weights are rewritten from the values in
/// one O(nnz) pass, so the kernels never see stale weights.
#[derive(Debug)]
pub struct ValuesMut<'a> {
    matrix: &'a mut BlockPermDiagMatrix,
}

impl std::ops::Deref for ValuesMut<'_> {
    type Target = [f32];

    fn deref(&self) -> &[f32] {
        &self.matrix.values
    }
}

impl std::ops::DerefMut for ValuesMut<'_> {
    fn deref_mut(&mut self) -> &mut [f32] {
        &mut self.matrix.values
    }
}

impl Drop for ValuesMut<'_> {
    fn drop(&mut self) {
        self.matrix.write_column_kernel();
    }
}

impl BlockPermDiagMatrix {
    /// Creates a matrix from explicit permutation parameters and stored values.
    ///
    /// `perms.len()` must equal the number of blocks and `values.len()` must equal
    /// `num_blocks * p`.
    ///
    /// # Errors
    ///
    /// Returns [`PdError`] if `p == 0`, any `k_l >= p`, or the slices have wrong lengths.
    pub fn new(
        rows: usize,
        cols: usize,
        p: usize,
        perms: Vec<usize>,
        values: Vec<f32>,
    ) -> Result<Self, PdError> {
        if p == 0 {
            return Err(PdError::ZeroBlockSize);
        }
        let block_rows = rows.div_ceil(p);
        let block_cols = cols.div_ceil(p);
        let nblocks = block_rows * block_cols;
        if perms.len() != nblocks {
            return Err(PdError::PermutationCountMismatch {
                got: perms.len(),
                expected: nblocks,
            });
        }
        if let Some(&k) = perms.iter().find(|&&k| k >= p) {
            return Err(PdError::InvalidPermutation { k, p });
        }
        if values.len() != nblocks * p {
            return Err(PdError::ValueCountMismatch {
                got: values.len(),
                expected: nblocks * p,
            });
        }
        // Column-kernel structure: column `j` holds one entry per block row,
        // except that the last block row's entry is absent when its row falls
        // past `rows` (the ragged edge).
        let mut kernel_col_ptr = Vec::with_capacity(cols + 1);
        kernel_col_ptr.push(0u32);
        let mut nnz = 0;
        for j in 0..cols {
            nnz += block_rows;
            if let Some(br) = block_rows.checked_sub(1) {
                let c = (j % p + p - perms[br * block_cols + j / p]) % p;
                if br * p + c >= rows {
                    nnz -= 1;
                }
            }
            kernel_col_ptr.push(nnz as u32);
        }
        let mut matrix = BlockPermDiagMatrix {
            rows,
            cols,
            p,
            block_rows,
            block_cols,
            perms,
            values,
            kernel_col_ptr,
            kernel_rows: vec![0; nnz],
            kernel_w: vec![0.0; nnz],
        };
        matrix.write_column_kernel();
        Ok(matrix)
    }

    /// Writes every structural non-zero's row and weight into its column
    /// kernel slot, `kernel_col_ptr[j] + br` (only the last block row can be
    /// missing from a column). Walking blocks rather than columns reads each
    /// block's `p` values together; a column walk reads `values` with a
    /// stride of one block row per entry, which made loading slower.
    fn write_column_kernel(&mut self) {
        let p = self.p;
        for bc in 0..self.block_cols {
            for br in 0..self.block_rows {
                let l = br * self.block_cols + bc;
                for c in 0..p {
                    let i = br * p + c;
                    let j = bc * p + (c + self.perms[l]) % p;
                    if i < self.rows && j < self.cols {
                        let slot = self.kernel_col_ptr[j] as usize + br;
                        self.kernel_rows[slot] = i as u32;
                        self.kernel_w[slot] = self.values[l * p + c];
                    }
                }
            }
        }
    }

    /// Creates an all-zero matrix with permutation parameters chosen by `indexing`.
    ///
    /// # Errors
    ///
    /// Returns [`PdError::ZeroBlockSize`] if `p == 0`.
    pub fn zeros(
        rows: usize,
        cols: usize,
        p: usize,
        indexing: PermutationIndexing,
    ) -> Result<Self, PdError> {
        if p == 0 {
            return Err(PdError::ZeroBlockSize);
        }
        let block_rows = rows.div_ceil(p);
        let block_cols = cols.div_ceil(p);
        let nblocks = block_rows * block_cols;
        let perms = match indexing {
            PermutationIndexing::Natural => (0..nblocks).map(|l| l % p).collect(),
            PermutationIndexing::Random => vec![0; nblocks],
        };
        Self::new(rows, cols, p, perms, vec![0.0; nblocks * p])
    }

    /// Creates a randomly initialised matrix (Xavier-uniform values over the *stored*
    /// weights, natural permutation indexing).
    ///
    /// # Panics
    ///
    /// Panics if `p == 0`.
    pub fn random(rows: usize, cols: usize, p: usize, rng: &mut impl Rng) -> Self {
        Self::random_with_indexing(rows, cols, p, PermutationIndexing::Natural, rng)
    }

    /// Creates a randomly initialised matrix with the requested permutation indexing.
    ///
    /// # Panics
    ///
    /// Panics if `p == 0`.
    pub fn random_with_indexing(
        rows: usize,
        cols: usize,
        p: usize,
        indexing: PermutationIndexing,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(p > 0, "block size p must be non-zero");
        let block_rows = rows.div_ceil(p);
        let block_cols = cols.div_ceil(p);
        let nblocks = block_rows * block_cols;
        let perms: Vec<usize> = match indexing {
            PermutationIndexing::Natural => (0..nblocks).map(|l| l % p).collect(),
            PermutationIndexing::Random => (0..nblocks).map(|_| rng.gen_range(0..p)).collect(),
        };
        // Initialise with the variance the *equivalent dense layer* would use so that
        // activations keep a comparable scale despite the sparsity (the effective fan-in
        // per output is cols / p).
        let init = xavier_uniform(rng, 1, nblocks * p);
        let scale = (p as f32).sqrt();
        let values = init.as_slice().iter().map(|v| v * scale).collect();
        Self::new(rows, cols, p, perms, values).expect("constructed dimensions are consistent")
    }

    /// Logical number of rows `m`.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Logical number of columns `n`.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Shape as `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Block size `p` (equal to the compression ratio).
    pub fn p(&self) -> usize {
        self.p
    }

    /// Number of block rows (`ceil(m / p)`).
    pub fn block_rows(&self) -> usize {
        self.block_rows
    }

    /// Number of block columns (`ceil(n / p)`).
    pub fn block_cols(&self) -> usize {
        self.block_cols
    }

    /// Number of `p × p` blocks.
    pub fn num_blocks(&self) -> usize {
        self.block_rows * self.block_cols
    }

    /// The per-block permutation parameters `k_l`.
    pub fn perms(&self) -> &[usize] {
        &self.perms
    }

    /// The stored non-zero values `q` (including padded slots for ragged edges).
    pub fn values(&self) -> &[f32] {
        &self.values
    }

    /// Mutable access to the stored non-zero values. The returned guard
    /// rewrites the column-ordered kernel weights when it drops.
    pub fn values_mut(&mut self) -> ValuesMut<'_> {
        ValuesMut { matrix: self }
    }

    /// Number of stored weights (`num_blocks * p`, i.e. `⌈m/p⌉·⌈n/p⌉·p`).
    pub fn stored_weights(&self) -> usize {
        self.values.len()
    }

    /// Compression ratio versus the dense `m × n` matrix, counting stored weights.
    ///
    /// For dimensions divisible by `p` this is exactly `p`.
    pub fn compression_ratio(&self) -> f64 {
        (self.rows * self.cols) as f64 / self.stored_weights() as f64
    }

    /// The permutation parameter of the block containing global entry `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if `(i, j)` is out of bounds.
    pub fn perm_at(&self, i: usize, j: usize) -> usize {
        assert!(i < self.rows && j < self.cols, "index out of bounds");
        let l = (i / self.p) * self.block_cols + (j / self.p);
        self.perms[l]
    }

    /// Entry `(i, j)` following Eqn. (1).
    ///
    /// # Panics
    ///
    /// Panics if `(i, j)` is out of bounds.
    pub fn entry(&self, i: usize, j: usize) -> f32 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        let c = i % self.p;
        let d = j % self.p;
        let l = (i / self.p) * self.block_cols + (j / self.p);
        if (c + self.perms[l]) % self.p == d {
            self.values[l * self.p + c]
        } else {
            0.0
        }
    }

    /// The stored value slot for block `(block_row, block_col)` and row-within-block `c`.
    ///
    /// # Panics
    ///
    /// Panics if any coordinate is out of range.
    pub fn value_at(&self, block_row: usize, block_col: usize, c: usize) -> f32 {
        self.values[self.value_index(block_row, block_col, c)]
    }

    /// Flat index into [`values`](Self::values) for `(block_row, block_col, c)`.
    ///
    /// # Panics
    ///
    /// Panics if any coordinate is out of range.
    pub fn value_index(&self, block_row: usize, block_col: usize, c: usize) -> usize {
        assert!(
            block_row < self.block_rows && block_col < self.block_cols && c < self.p,
            "block coordinate ({block_row},{block_col},{c}) out of range"
        );
        (block_row * self.block_cols + block_col) * self.p + c
    }

    /// Extracts block `(block_row, block_col)` as a [`PermutedDiagonalBlock`].
    ///
    /// # Panics
    ///
    /// Panics if the block coordinates are out of range.
    pub fn block(&self, block_row: usize, block_col: usize) -> PermutedDiagonalBlock {
        assert!(
            block_row < self.block_rows && block_col < self.block_cols,
            "block ({block_row},{block_col}) out of range"
        );
        let l = block_row * self.block_cols + block_col;
        let values = self.values[l * self.p..(l + 1) * self.p].to_vec();
        PermutedDiagonalBlock::new(values, self.perms[l])
            .expect("block invariants hold by construction")
    }

    /// Expands into a dense [`Matrix`] (zero everywhere off the permuted diagonals).
    pub fn to_dense(&self) -> Matrix {
        Matrix::from_fn(self.rows, self.cols, |i, j| self.entry(i, j))
    }

    /// Builds a block-permuted-diagonal matrix from a dense matrix that already has the
    /// structure (every non-zero sits on the permuted diagonal implied by `perms`).
    ///
    /// Use [`crate::approx::pd_approximate`] instead when the dense matrix is arbitrary
    /// and you want the l2-optimal projection.
    ///
    /// # Errors
    ///
    /// Returns [`PdError::NotPermutedDiagonal`] if a non-zero lies off the permuted
    /// diagonal, plus the usual construction errors.
    pub fn from_dense_exact(dense: &Matrix, p: usize, perms: Vec<usize>) -> Result<Self, PdError> {
        let (rows, cols) = dense.shape();
        let mut out = Self::new(
            rows,
            cols,
            p,
            perms,
            vec![0.0; rows.div_ceil(p) * cols.div_ceil(p) * p],
        )?;
        for i in 0..rows {
            for j in 0..cols {
                let v = dense[(i, j)];
                if v == 0.0 {
                    continue;
                }
                let c = i % p;
                let d = j % p;
                let l = (i / p) * out.block_cols + (j / p);
                if (c + out.perms[l]) % p == d {
                    out.values[l * p + c] = v;
                } else {
                    return Err(PdError::NotPermutedDiagonal { row: i, col: j });
                }
            }
        }
        out.write_column_kernel();
        Ok(out)
    }

    /// Number of structurally non-zero entries within the logical `m × n` bounds.
    pub fn structural_nonzeros(&self) -> usize {
        let mut count = 0;
        for br in 0..self.block_rows {
            for bc in 0..self.block_cols {
                let l = br * self.block_cols + bc;
                for c in 0..self.p {
                    let i = br * self.p + c;
                    let j = bc * self.p + (c + self.perms[l]) % self.p;
                    if i < self.rows && j < self.cols {
                        count += 1;
                    }
                }
            }
        }
        count
    }

    /// Number of structural non-zeros in each row — constant (`block_cols`) for interior
    /// rows, which is the even-distribution property that eliminates load imbalance
    /// (Section V-D).
    pub fn row_nonzero_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.rows];
        for br in 0..self.block_rows {
            for bc in 0..self.block_cols {
                let l = br * self.block_cols + bc;
                for c in 0..self.p {
                    let i = br * self.p + c;
                    let j = bc * self.p + (c + self.perms[l]) % self.p;
                    if i < self.rows && j < self.cols {
                        counts[i] += 1;
                    }
                }
            }
        }
        counts
    }

    /// Number of structural non-zeros in each column (constant for interior columns).
    pub fn col_nonzero_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.cols];
        for br in 0..self.block_rows {
            for bc in 0..self.block_cols {
                let l = br * self.block_cols + bc;
                for c in 0..self.p {
                    let i = br * self.p + c;
                    let j = bc * self.p + (c + self.perms[l]) % self.p;
                    if i < self.rows && j < self.cols {
                        counts[j] += 1;
                    }
                }
            }
        }
        counts
    }

    /// Applies `f` to every stored weight (used for quantization and weight sharing).
    pub fn map_values_in_place(&mut self, f: impl Fn(f32) -> f32) {
        for v in &mut self.values {
            *v = f(*v);
        }
        self.write_column_kernel();
    }

    /// For column `j`, iterates over the `(row, stored-value-index)` pairs of the
    /// structural non-zeros in that column, in increasing row order.
    ///
    /// This is exactly the set of `(row index, weight)` pairs the PERMDNN hardware fetches
    /// from one weight-SRAM row during column-wise processing (Fig. 8): one non-zero per
    /// block row, whose row index is recovered by the accumulation selector's modulo
    /// circuit rather than stored.
    pub fn column_nonzeros(&self, j: usize) -> impl Iterator<Item = (usize, usize)> + '_ {
        assert!(j < self.cols, "column {j} out of bounds ({})", self.cols);
        let d = j % self.p;
        let bc = j / self.p;
        let rows = self.rows;
        let p = self.p;
        let block_cols = self.block_cols;
        (0..self.block_rows).filter_map(move |br| {
            let l = br * block_cols + bc;
            let c = (d + p - self.perms[l]) % p;
            let i = br * p + c;
            if i < rows {
                Some((i, l * p + c))
            } else {
                None
            }
        })
    }

    /// The cached column-kernel arrays `(col_ptr, rows, weights)`:
    /// `col_ptr[j]..col_ptr[j+1]` indexes column `j`'s entries, in exactly the
    /// order [`column_nonzeros`](Self::column_nonzeros) yields them, with each
    /// entry's output row and weight. The matvec and batched kernels stream
    /// these instead of recomputing the permutation arithmetic per call.
    pub fn column_kernel(&self) -> (&[u32], &[u32], &[f32]) {
        (&self.kernel_col_ptr, &self.kernel_rows, &self.kernel_w)
    }

    /// The pre-cache column-wise matvec: recomputes `(d + p - k_l) % p` for
    /// every entry on every call through [`column_nonzeros`](Self::column_nonzeros).
    ///
    /// Retained as the wall-clock baseline the cached kernel is measured and
    /// bit-compared against (`wall_sweep` / `tests/wall.rs`); production call
    /// sites go through `CompressedLinear::matvec_into`, which uses the cache.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols` or `y.len() != rows`.
    pub fn matvec_reference(&self, x: &[f32], y: &mut [f32]) {
        assert_eq!(x.len(), self.cols, "input length mismatch");
        assert_eq!(y.len(), self.rows, "output length mismatch");
        y.fill(0.0);
        for (j, &xj) in x.iter().enumerate() {
            if xj == 0.0 {
                continue;
            }
            for (i, value_idx) in self.column_nonzeros(j) {
                y[i] += self.values[value_idx] * xj;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pd_tensor::init::seeded_rng;

    fn sample(rows: usize, cols: usize, p: usize) -> BlockPermDiagMatrix {
        BlockPermDiagMatrix::random(rows, cols, p, &mut seeded_rng(17))
    }

    #[test]
    fn construction_validation() {
        assert!(matches!(
            BlockPermDiagMatrix::new(4, 4, 0, vec![], vec![]),
            Err(PdError::ZeroBlockSize)
        ));
        assert!(matches!(
            BlockPermDiagMatrix::new(4, 4, 2, vec![0, 1, 2, 0], vec![0.0; 8]),
            Err(PdError::InvalidPermutation { .. })
        ));
        assert!(matches!(
            BlockPermDiagMatrix::new(4, 4, 2, vec![0, 1, 0], vec![0.0; 8]),
            Err(PdError::PermutationCountMismatch { .. })
        ));
        assert!(matches!(
            BlockPermDiagMatrix::new(4, 4, 2, vec![0, 1, 0, 1], vec![0.0; 7]),
            Err(PdError::ValueCountMismatch { .. })
        ));
        assert!(BlockPermDiagMatrix::new(4, 4, 2, vec![0, 1, 0, 1], vec![0.0; 8]).is_ok());
    }

    #[test]
    fn natural_indexing_assigns_l_mod_p() {
        let w = BlockPermDiagMatrix::zeros(8, 16, 4, PermutationIndexing::Natural).unwrap();
        // 2 block rows x 4 block cols = 8 blocks; k_l = l mod 4.
        assert_eq!(w.perms(), &[0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn entry_matches_eqn1_structure() {
        let w = sample(8, 8, 4);
        for i in 0..8 {
            for j in 0..8 {
                let c = i % 4;
                let d = j % 4;
                let k = w.perm_at(i, j);
                let v = w.entry(i, j);
                if (c + k) % 4 == d {
                    // On the permuted diagonal: the stored value (may be any float).
                    assert_eq!(v, w.value_at(i / 4, j / 4, c));
                } else {
                    assert_eq!(v, 0.0, "off-diagonal entry ({i},{j}) must be zero");
                }
            }
        }
    }

    #[test]
    fn dense_roundtrip_exact() {
        let w = sample(12, 20, 4);
        let dense = w.to_dense();
        let back = BlockPermDiagMatrix::from_dense_exact(&dense, 4, w.perms().to_vec()).unwrap();
        assert_eq!(back.to_dense(), dense);
    }

    #[test]
    fn from_dense_exact_rejects_off_diagonal() {
        let mut dense = sample(8, 8, 4).to_dense();
        let perms = sample(8, 8, 4).perms().to_vec();
        // Find a structurally-zero position and poke a value there.
        let w = sample(8, 8, 4);
        'outer: for i in 0..8 {
            for j in 0..8 {
                if w.entry(i, j) == 0.0 {
                    dense[(i, j)] = 1.0;
                    break 'outer;
                }
            }
        }
        assert!(matches!(
            BlockPermDiagMatrix::from_dense_exact(&dense, 4, perms),
            Err(PdError::NotPermutedDiagonal { .. })
        ));
    }

    #[test]
    fn compression_ratio_is_p_for_divisible_dims() {
        let w = sample(20, 40, 5);
        assert_eq!(w.stored_weights(), 20 * 40 / 5);
        assert!((w.compression_ratio() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn compression_accounts_for_padding() {
        // 10x10 with p=4 pads to 12x12: 3x3 blocks x 4 = 36 stored weights.
        let w = BlockPermDiagMatrix::zeros(10, 10, 4, PermutationIndexing::Natural).unwrap();
        assert_eq!(w.stored_weights(), 36);
        assert!(w.compression_ratio() < 4.0);
    }

    #[test]
    fn row_and_col_nonzeros_are_balanced() {
        let w = sample(16, 32, 4);
        let rows = w.row_nonzero_counts();
        let cols = w.col_nonzero_counts();
        assert!(rows.iter().all(|&c| c == 32 / 4));
        assert!(cols.iter().all(|&c| c == 16 / 4));
        assert_eq!(w.structural_nonzeros(), 16 * 32 / 4);
    }

    #[test]
    fn column_nonzeros_match_dense_column() {
        let w = sample(12, 8, 4);
        let dense = w.to_dense();
        for j in 0..8 {
            let from_iter: Vec<usize> = w.column_nonzeros(j).map(|(i, _)| i).collect();
            let from_dense: Vec<usize> = (0..12).filter(|&i| dense[(i, j)] != 0.0).collect();
            // Structural non-zeros include slots whose stored value may be 0.0; the dense
            // non-zeros must be a subset, and with random init they almost surely match.
            for i in &from_dense {
                assert!(from_iter.contains(i), "col {j} row {i} missing");
            }
            assert_eq!(from_iter.len(), 3, "one non-zero per block row");
            // Values fetched through the stored-value index must match the dense entries.
            for (i, vi) in w.column_nonzeros(j) {
                assert_eq!(w.values()[vi], dense[(i, j)]);
            }
        }
    }

    #[test]
    fn random_indexing_uses_varied_perms() {
        let w = BlockPermDiagMatrix::random_with_indexing(
            64,
            64,
            8,
            PermutationIndexing::Random,
            &mut seeded_rng(3),
        );
        let distinct: std::collections::HashSet<_> = w.perms().iter().copied().collect();
        assert!(distinct.len() > 1, "random indexing should vary k_l");
        assert!(w.perms().iter().all(|&k| k < 8));
    }

    #[test]
    fn map_values_in_place_applies_everywhere() {
        let mut w = sample(8, 8, 2);
        w.map_values_in_place(|_| 1.5);
        assert!(w.values().iter().all(|&v| v == 1.5));
        assert_eq!(w.entry(0, w.perm_at(0, 0)), 1.5);
    }

    #[test]
    fn block_extraction_matches_dense_block() {
        let w = sample(8, 12, 4);
        let dense = w.to_dense();
        for br in 0..2 {
            for bc in 0..3 {
                let blk = w.block(br, bc);
                let dense_blk = dense.block(br, bc, 4);
                assert!(blk.to_dense().approx_eq(&dense_blk, 0.0));
            }
        }
    }
}
