//! Packed, cache-blocked, register-tiled GEMM.
//!
//! One kernel serves every matmul variant in the workspace and every conv
//! pass: the operands are described by (row, column) strides, or, for B, as
//! the implicit im2col view of one convolution input sample, so
//! transposition and lowering are absorbed when the panels are packed and
//! there is a single inner loop to keep fast. The blocking follows the
//! classic GotoBLAS/BLIS decomposition:
//!
//! ```text
//!         NC                 packed B block (KC x NC, column panels of NR)
//!       ┌────┐                 ┌NR┬NR┬NR┬─┐
//!     K │ B  │   KC rows  →    │  │  │  │ │   reused across all of A
//!       └────┘                 └──┴──┴──┴─┘
//!   M ┌────┐       packed A (whole M x K, row panels of MR, packed once)
//!     │ A  │  →   ┌──────────────┐
//!     └────┘   MR ├──────────────┤   each MR x NR tile of C is held in
//!                 └──────────────┘   registers while a KC slice runs
//! ```
//!
//! * A is packed **once per call** into row panels of [`MR`] spanning all of
//!   K ([`PackedA`]). A caller that multiplies one A by many B operands
//!   (conv's weight, one GEMM per sample) packs it once and hands the same
//!   [`PackedA`] to [`gemm_packed`]; [`gemm`] packs into per-thread scratch.
//! * B is packed per ([`NC`], [`KC`]) block into column panels of [`NR`].
//!   An im2col view ([`BOperand::Im2col`], or its transpose) is gathered
//!   from the input sample straight into those panels, one output-row run
//!   at a time, so no im2col matrix is ever materialized. A padded
//!   convolution first copies its sample, once per call, into a zero-padded
//!   buffer, so every run is a plain slice copy with no bounds logic.
//! * Both are zero-padded at the edges so the microkernel never branches on
//!   shape. The microkernel keeps an `MR x NR` accumulator tile in
//!   registers and runs an unrolled multiply-add over the packed panels — a
//!   form LLVM autovectorizes without `-ffast-math` because every C element
//!   keeps its own accumulator.
//! * The tile is **loaded from C and stored back** (rather than computed in
//!   a scratch tile and added), so each output element sees its `K`
//!   contributions in strictly ascending order no matter how the M/N space
//!   is tiled. See [Determinism](#determinism).
//!
//! # Determinism
//!
//! The reduction shape of this kernel is part of the workspace's numerical
//! contract, exactly like `TRAIN_SHARDS`: every `C[i, j]` is accumulated in
//! strictly ascending `k` order with a single scalar accumulator, so results
//! are byte-identical across thread counts, shapes of the surrounding
//! blocking ([`MR`]/[`NR`]/[`MC`]/[`KC`]/[`NC`]), operand forms (strided,
//! pre-packed, im2col view), and machines. Changing the *order* of the `pc`
//! (K-blocking) loop or splitting accumulators in the microkernel would
//! change bits and requires regenerating the goldens in
//! `crates/core/tests/golden.rs`.

use std::cell::RefCell;

/// Rows of the register microkernel tile.
pub const MR: usize = 4;
/// Columns of the register microkernel tile.
pub const NR: usize = 8;
/// Rows of C per cache block (multiple of [`MR`]).
pub const MC: usize = 64;
/// Depth of a packed B block (the K-dimension slice length).
pub const KC: usize = 256;
/// Columns of a packed B block (multiple of [`NR`]).
pub const NC: usize = 256;

const _: () = assert!(MC.is_multiple_of(MR), "MC must be a multiple of MR");
const _: () = assert!(NC.is_multiple_of(NR), "NC must be a multiple of NR");

/// Per-worker packing scratch, reused across calls.
struct PackScratch {
    /// The A of a [`gemm`] call.
    a: PackedA,
    /// One packed B block.
    b: Vec<f32>,
    /// The zero-padded copy of an im2col B's sample.
    sample: Vec<f32>,
}

thread_local! {
    static PACK_SCRATCH: RefCell<PackScratch> = const {
        RefCell::new(PackScratch { a: PackedA::empty(), b: Vec::new(), sample: Vec::new() })
    };
}

/// A GEMM operand described by its buffer and element strides.
///
/// The logical matrix element `(r, c)` lives at `buf[r * rs + c * cs]`;
/// a transposed view is expressed by swapping the strides, so the packed
/// kernel absorbs every transposition at pack time.
#[derive(Clone, Copy, Debug)]
pub struct GemmOperand<'a> {
    buf: &'a [f32],
    rs: usize,
    cs: usize,
}

impl<'a> GemmOperand<'a> {
    /// A row-major matrix with contiguous rows of length `cols`.
    pub fn row_major(buf: &'a [f32], cols: usize) -> Self {
        Self { buf, rs: cols, cs: 1 }
    }

    /// The transpose of a row-major matrix whose *stored* rows have length
    /// `stored_cols` (i.e. the logical matrix is `stored` read column-wise).
    pub fn transposed(buf: &'a [f32], stored_cols: usize) -> Self {
        Self { buf, rs: 1, cs: stored_cols }
    }

    /// A row-major view with an explicit row stride (`ld >= cols`), for
    /// operating on a sub-block of a larger matrix.
    pub fn strided(buf: &'a [f32], ld: usize) -> Self {
        Self { buf, rs: ld, cs: 1 }
    }

    /// Panics unless every element of an `rows x cols` view is in bounds.
    fn check(&self, rows: usize, cols: usize) {
        if rows > 0 && cols > 0 {
            let last = (rows - 1) * self.rs + (cols - 1) * self.cs;
            assert!(last < self.buf.len(), "gemm operand out of bounds: {rows}x{cols}");
        }
    }
}

/// The geometry of a square-kernel convolution over one `[channels, h, w]`
/// input sample, and of its im2col matrix: `channels * kernel²` rows (in
/// `(channel, ky, kx)` order) by `oh * ow` columns (output positions,
/// row-major), where element `((c, ky, kx), (oy, ox))` is
/// `x[c, oy*stride + ky - padding, ox*stride + kx - padding]`, or zero in
/// the padding.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConvGeometry {
    channels: usize,
    h: usize,
    w: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
    oh: usize,
    ow: usize,
}

impl ConvGeometry {
    /// The geometry of a `kernel x kernel` convolution with `stride` and
    /// zero `padding` on every side.
    ///
    /// # Panics
    ///
    /// Panics if `kernel` or `stride` is zero, or if the padded input is
    /// smaller than the kernel.
    pub fn new(
        channels: usize,
        h: usize,
        w: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
    ) -> Self {
        assert!(kernel > 0 && stride > 0, "conv kernel and stride must be positive");
        assert!(
            h + 2 * padding >= kernel && w + 2 * padding >= kernel,
            "input smaller than conv kernel: {h}x{w} padded by {padding} < {kernel}"
        );
        let oh = (h + 2 * padding - kernel) / stride + 1;
        let ow = (w + 2 * padding - kernel) / stride + 1;
        Self { channels, h, w, kernel, stride, padding, oh, ow }
    }

    /// Input channels.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Input height and width.
    pub fn in_size(&self) -> (usize, usize) {
        (self.h, self.w)
    }

    /// Side of the square kernel.
    pub fn kernel(&self) -> usize {
        self.kernel
    }

    /// Step between neighboring output positions, in input pixels.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Output height and width.
    pub fn out_size(&self) -> (usize, usize) {
        (self.oh, self.ow)
    }

    /// Rows of the im2col matrix: `channels * kernel²`.
    pub fn rows(&self) -> usize {
        self.channels * self.kernel * self.kernel
    }

    /// Columns of the im2col matrix: the `oh * ow` output positions.
    pub fn cols(&self) -> usize {
        self.oh * self.ow
    }

    /// Elements of one input sample: `channels * h * w`.
    pub fn sample_len(&self) -> usize {
        self.channels * self.h * self.w
    }

    /// The input row that kernel row `ky` reads at output row `oy`, or
    /// `None` in the padding.
    #[inline]
    pub fn input_row(&self, oy: usize, ky: usize) -> Option<usize> {
        (oy * self.stride + ky).checked_sub(self.padding).filter(|&iy| iy < self.h)
    }

    /// For the run of output columns `ox0 .. ox0 + len` and kernel column
    /// `kx`: the sub-run `lo..hi` whose input columns fall inside the row,
    /// and the input column of `lo` (0 when the sub-run is empty); the
    /// sub-run's input columns are `stride` apart. Positions outside
    /// `lo..hi` read the padding.
    #[inline]
    pub fn row_span(&self, ox0: usize, len: usize, kx: usize) -> (usize, usize, usize) {
        let (s, first, end) = (self.stride, ox0 * self.stride + kx, self.padding + self.w);
        // Run position i reads input column first + i*s - padding, which
        // must lie in 0..w.
        let (lo, hi) = if s == 1 {
            let lo = self.padding.saturating_sub(first).min(len);
            (lo, end.saturating_sub(first).clamp(lo, len))
        } else {
            let lo = self.padding.saturating_sub(first).div_ceil(s).min(len);
            (lo, end.saturating_sub(first).div_ceil(s).clamp(lo, len))
        };
        (lo, hi, if hi > lo { first + lo * s - self.padding } else { 0 })
    }

    /// The kernel offsets `(c, ky, kx)` of im2col row `r`.
    #[inline]
    fn split_row(&self, r: usize) -> (usize, usize, usize) {
        let kk = self.kernel * self.kernel;
        (r / kk, r % kk / self.kernel, r % self.kernel)
    }

    /// Advances `(c, ky, kx)` to the next im2col row.
    #[inline]
    fn next_row(&self, (c, ky, kx): (usize, usize, usize)) -> (usize, usize, usize) {
        match (kx + 1 < self.kernel, ky + 1 < self.kernel) {
            (true, _) => (c, ky, kx + 1),
            (false, true) => (c, ky + 1, 0),
            (false, false) => (c + 1, 0, 0),
        }
    }

    /// Writes im2col row `(c, ky, kx)` at output positions `pos0 ..
    /// pos0 + out.len()` of sample `x` to `out`, copying one output-row run
    /// at a time as a slice (or walking it at `stride`). The geometry must
    /// have no padding (see [`without_padding`]).
    fn gather_row(
        &self,
        out: &mut [f32],
        x: &[f32],
        (c, ky, kx): (usize, usize, usize),
        pos0: usize,
    ) {
        debug_assert_eq!(self.padding, 0, "gather from the padded sample");
        let s = self.stride;
        let base = (c * self.h + ky) * self.w + kx;
        let (mut oy, mut ox0) = (pos0 / self.ow, pos0 % self.ow);
        let mut i = 0;
        while i < out.len() {
            let len = (self.ow - ox0).min(out.len() - i);
            let src = &x[base + (oy * self.w + ox0) * s..];
            let dst = &mut out[i..i + len];
            if s == 1 {
                dst.copy_from_slice(&src[..len]);
            } else {
                for (d, &v) in dst.iter_mut().zip(src.iter().step_by(s)) {
                    *d = v;
                }
            }
            (i, oy, ox0) = (i + len, oy + 1, 0);
        }
    }
}

/// The B operand of a GEMM.
#[derive(Clone, Copy, Debug)]
pub enum BOperand<'a> {
    /// A strided matrix.
    Dense(GemmOperand<'a>),
    /// The `[rows, cols]` im2col matrix of one `[channels, h, w]` sample
    /// (see [`ConvGeometry`]), gathered at pack time.
    Im2col(&'a [f32], ConvGeometry),
    /// Its `[cols, rows]` transpose.
    Im2colT(&'a [f32], ConvGeometry),
}

impl<'a> From<GemmOperand<'a>> for BOperand<'a> {
    fn from(op: GemmOperand<'a>) -> Self {
        Self::Dense(op)
    }
}

impl BOperand<'_> {
    /// Panics unless the operand is a valid `k x n` matrix.
    fn check(&self, k: usize, n: usize) {
        let (x, g, dims) = match *self {
            Self::Dense(op) => return op.check(k, n),
            Self::Im2col(x, g) => (x, g, (g.rows(), g.cols())),
            Self::Im2colT(x, g) => (x, g, (g.cols(), g.rows())),
        };
        assert_eq!((k, n), dims, "im2col view is {}x{}, not {k}x{n}", dims.0, dims.1);
        assert!(x.len() >= g.sample_len(), "im2col sample out of bounds");
    }
}

/// An `m x k` A operand packed once into the GEMM's row-panel layout, for
/// reuse across [`gemm_packed`] calls (a conv layer's weight against every
/// sample of a batch).
#[derive(Debug)]
pub struct PackedA {
    /// Row panels of [`MR`]: `buf[(ir * k + p) * MR + i] = A[ir*MR + i, p]`,
    /// zero-padded past `m`.
    buf: Vec<f32>,
    m: usize,
    k: usize,
}

impl PackedA {
    /// Packs the `m x k` matrix `a`.
    ///
    /// # Panics
    ///
    /// Panics if `a` is too short for the given dimensions.
    pub fn new(a: GemmOperand, m: usize, k: usize) -> Self {
        let mut packed = Self::empty();
        packed.repack(a, m, k);
        packed
    }

    const fn empty() -> Self {
        Self { buf: Vec::new(), m: 0, k: 0 }
    }

    /// Packs `a` into this buffer, reusing its allocation.
    fn repack(&mut self, a: GemmOperand, m: usize, k: usize) {
        a.check(m, k);
        bitrobust_obs::span!("gemm.pack_a");
        self.buf.resize(m.div_ceil(MR) * MR * k, 0.0);
        if k > 0 {
            pack_a(&mut self.buf, a, m, k);
        }
        (self.m, self.k) = (m, k);
    }

    /// The `kc`-long slice from depth `pc` of the row panel starting at
    /// row `i0` (a multiple of [`MR`]).
    #[inline]
    fn panel(&self, i0: usize, pc: usize, kc: usize) -> &[f32] {
        &self.buf[i0 * self.k + pc * MR..][..kc * MR]
    }
}

/// `C += A · B` where `C[i, j]` lives at `c[i * ldc + j]`, `A` is `m x k`,
/// and `B` is `k x n`. This is the path behind [`matmul`], [`matmul_nt`],
/// [`matmul_tn`] and conv's weight gradient; it packs `A` into per-thread
/// scratch, then runs [`gemm_packed`]'s loop nest.
///
/// [`matmul`]: crate::matmul
/// [`matmul_nt`]: crate::matmul_nt
/// [`matmul_tn`]: crate::matmul_tn
///
/// # Panics
///
/// Panics if any operand (including `c` with row stride `ldc`) is too short
/// for the given dimensions, if `ldc < n`, or if an im2col `b` is not
/// `k x n`.
pub fn gemm<'a>(
    c: &mut [f32],
    ldc: usize,
    a: GemmOperand,
    b: impl Into<BOperand<'a>>,
    m: usize,
    k: usize,
    n: usize,
) {
    let b = b.into();
    if !check_c(c, ldc, m, n) || k == 0 {
        return; // accumulate semantics: nothing to add
    }
    b.check(k, n);
    bitrobust_obs::span!("gemm.f32");
    PACK_SCRATCH.with(|scratch| {
        let scratch = &mut *scratch.borrow_mut();
        scratch.a.repack(a, m, k);
        blocked(c, ldc, &scratch.a, b, n, &mut scratch.b, &mut scratch.sample);
    });
}

/// `C += A · B` for a pre-packed `m x k` `A` and a `k x n` `B`, with `C`
/// laid out as in [`gemm`].
///
/// # Panics
///
/// As [`gemm`].
pub fn gemm_packed<'a>(
    c: &mut [f32],
    ldc: usize,
    a: &PackedA,
    b: impl Into<BOperand<'a>>,
    n: usize,
) {
    let b = b.into();
    if !check_c(c, ldc, a.m, n) || a.k == 0 {
        return;
    }
    b.check(a.k, n);
    bitrobust_obs::span!("gemm.f32");
    PACK_SCRATCH.with(|scratch| {
        let scratch = &mut *scratch.borrow_mut();
        blocked(c, ldc, a, b, n, &mut scratch.b, &mut scratch.sample);
    });
}

/// Checks `C`'s bounds; `false` when the product is empty.
fn check_c(c: &[f32], ldc: usize, m: usize, n: usize) -> bool {
    if m == 0 || n == 0 {
        return false;
    }
    assert!(ldc >= n, "ldc ({ldc}) must be >= n ({n})");
    let last = (m - 1) * ldc + (n - 1);
    assert!(last < c.len(), "gemm output out of bounds: {m}x{n} with ldc {ldc}");
    true
}

/// The blocking loop nest behind [`gemm`] and [`gemm_packed`].
fn blocked(
    c: &mut [f32],
    ldc: usize,
    a: &PackedA,
    b: BOperand,
    n: usize,
    b_buf: &mut Vec<f32>,
    sample: &mut Vec<f32>,
) {
    let (m, k) = (a.m, a.k);
    let use_avx = avx_available();
    let b = without_padding(b, sample);
    b_buf.resize(KC * NC, 0.0);
    let mut jc = 0;
    while jc < n {
        let nc = NC.min(n - jc);
        let nr_tiles = nc.div_ceil(NR);
        let mut pc = 0;
        while pc < k {
            let kc = KC.min(k - pc);
            {
                bitrobust_obs::span!("gemm.pack_b");
                pack_b(b_buf, b, pc, jc, kc, nc);
            }
            let mut ic = 0;
            while ic < m {
                let mc = MC.min(m - ic);
                let mr_tiles = mc.div_ceil(MR);
                for jr in 0..nr_tiles {
                    let nr_eff = NR.min(nc - jr * NR);
                    let b_panel = &b_buf[jr * kc * NR..(jr + 1) * kc * NR];
                    for ir in 0..mr_tiles {
                        let mr_eff = MR.min(mc - ir * MR);
                        let a_panel = a.panel(ic + ir * MR, pc, kc);
                        let c_off = (ic + ir * MR) * ldc + jc + jr * NR;
                        let c_tile = &mut c[c_off..];
                        microkernel(use_avx, c_tile, ldc, a_panel, b_panel, mr_eff, nr_eff);
                    }
                }
                ic += MC;
            }
            pc += KC;
        }
        jc += NC;
    }
}

/// An im2col `b` re-expressed over a zero-padded copy of its sample, made
/// once per call in `sample`, so that gathering it reads no padding: every
/// output-row run is then a plain slice of the copy.
fn without_padding<'s>(b: BOperand<'s>, sample: &'s mut Vec<f32>) -> BOperand<'s> {
    let (x, g, transposed) = match b {
        BOperand::Im2col(x, g) if g.padding > 0 => (x, g, false),
        BOperand::Im2colT(x, g) if g.padding > 0 => (x, g, true),
        _ => return b,
    };
    bitrobust_obs::span!("gemm.pack_b");
    let (p, w) = (g.padding, g.w);
    let padded = ConvGeometry { h: g.h + 2 * p, w: w + 2 * p, padding: 0, ..g };
    sample.clear();
    sample.resize(g.channels * padded.h * padded.w, 0.0);
    if g.h * w > 0 {
        let planes = sample.chunks_exact_mut(padded.h * padded.w).zip(x.chunks_exact(g.h * w));
        for (dst, src) in planes {
            for (iy, row) in src.chunks_exact(w).enumerate() {
                dst[(iy + p) * padded.w + p..][..w].copy_from_slice(row);
            }
        }
    }
    if transposed {
        BOperand::Im2colT(sample, padded)
    } else {
        BOperand::Im2col(sample, padded)
    }
}

/// Packs the `m x k` matrix `A` into row panels of [`MR`] spanning all of
/// K: `panel[p * MR + i] = A[ir*MR + i, p]`, zero-padded past `m`.
///
/// Every [`GemmOperand`] has contiguous rows (untransposed A) or
/// contiguous columns (a pack-time transpose), and each gets a
/// branch-free inner loop.
fn pack_a(buf: &mut [f32], a: GemmOperand, m: usize, k: usize) {
    for (ir, panel) in buf.chunks_exact_mut(k * MR).enumerate() {
        let rows = MR.min(m - ir * MR);
        let i0 = ir * MR;
        if rows < MR {
            panel.fill(0.0);
        }
        if a.cs == 1 {
            // Rows of A are contiguous: interleave `rows` row slices.
            for i in 0..rows {
                let src = &a.buf[(i0 + i) * a.rs..][..k];
                for (p, &v) in src.iter().enumerate() {
                    panel[p * MR + i] = v;
                }
            }
        } else {
            // A is a pack-time transpose: each k-slice is contiguous.
            for (p, chunk) in panel.chunks_exact_mut(MR).enumerate() {
                let src = &a.buf[p * a.cs + i0..][..rows];
                chunk[..rows].copy_from_slice(src);
            }
        }
    }
}

/// Packs the `kc x nc` block of `B` at `(pc, jc)` into column panels of
/// [`NR`]: `panel[p * NR + j] = B[pc + p, jc + jr*NR + j]`, zero-padded.
///
/// An im2col view is gathered one im2col row at a time into a stack row
/// (a row of B for [`BOperand::Im2col`], a column for
/// [`BOperand::Im2colT`]) and copied from there into the panels, so the
/// gather works on whole output-row runs rather than panel-sized pieces.
fn pack_b(buf: &mut [f32], b: BOperand, pc: usize, jc: usize, kc: usize, nc: usize) {
    let nr_tiles = nc.div_ceil(NR);
    let buf = &mut buf[..nr_tiles * kc * NR];
    if !nc.is_multiple_of(NR) {
        buf[(nr_tiles - 1) * kc * NR..].fill(0.0);
    }
    match b {
        BOperand::Dense(b) => {
            for (jr, panel) in buf.chunks_exact_mut(kc * NR).enumerate() {
                let cols = NR.min(nc - jr * NR);
                let j0 = jc + jr * NR;
                if b.cs == 1 {
                    // Rows of B are contiguous: straight row copies.
                    for (p, chunk) in panel.chunks_exact_mut(NR).enumerate() {
                        let src = &b.buf[(pc + p) * b.rs + j0..][..cols];
                        chunk[..cols].copy_from_slice(src);
                    }
                } else {
                    // B is a pack-time transpose: each column is contiguous.
                    for j in 0..cols {
                        let src = &b.buf[(j0 + j) * b.cs + pc..][..kc];
                        for (p, &v) in src.iter().enumerate() {
                            panel[p * NR + j] = v;
                        }
                    }
                }
            }
        }
        BOperand::Im2col(x, g) => {
            // B row p is im2col row pc + p at positions jc..jc+nc.
            let mut row = [0f32; NC];
            let mut r = g.split_row(pc);
            for p in 0..kc {
                g.gather_row(&mut row[..nc], x, r, jc);
                let mut chunks = row[..nc].chunks_exact(NR);
                for (jr, chunk) in chunks.by_ref().enumerate() {
                    buf[(jr * kc + p) * NR..][..NR].copy_from_slice(chunk);
                }
                let tail = chunks.remainder();
                buf[((nr_tiles - 1) * kc + p) * NR..][..tail.len()].copy_from_slice(tail);
                r = g.next_row(r);
            }
        }
        BOperand::Im2colT(x, g) => {
            // B column j is im2col row jc + j at positions pc..pc+kc.
            let mut row = [0f32; KC];
            let mut r = g.split_row(jc);
            for j in 0..nc {
                g.gather_row(&mut row[..kc], x, r, pc);
                let panel = &mut buf[(j / NR) * kc * NR..][..kc * NR];
                for (slot, &v) in panel[j % NR..].iter_mut().step_by(NR).zip(&row[..kc]) {
                    *slot = v;
                }
                r = g.next_row(r);
            }
        }
    }
}

/// The register-tiled inner loop: loads the valid `mr_eff x nr_eff` corner
/// of the C tile, accumulates `kc` outer products from the packed panels
/// (fully unrolled over the `MR x NR` tile so LLVM vectorizes the `j` lanes),
/// and stores the corner back. Loading C up front is what keeps each output
/// element's reduction strictly `k`-ascending across KC blocks.
#[inline(always)]
fn microkernel_body(
    c: &mut [f32],
    ldc: usize,
    a_panel: &[f32],
    b_panel: &[f32],
    mr_eff: usize,
    nr_eff: usize,
) {
    let mut acc = [[0.0f32; NR]; MR];
    for (i, row) in acc.iter_mut().enumerate().take(mr_eff) {
        row[..nr_eff].copy_from_slice(&c[i * ldc..i * ldc + nr_eff]);
    }
    for (a_k, b_k) in a_panel.chunks_exact(MR).zip(b_panel.chunks_exact(NR)) {
        let a_k: &[f32; MR] = a_k.try_into().expect("panel chunk");
        let b_k: &[f32; NR] = b_k.try_into().expect("panel chunk");
        for (i, row) in acc.iter_mut().enumerate() {
            let a_ip = a_k[i];
            for (j, slot) in row.iter_mut().enumerate() {
                *slot += a_ip * b_k[j];
            }
        }
    }
    for (i, row) in acc.iter().enumerate().take(mr_eff) {
        c[i * ldc..i * ldc + nr_eff].copy_from_slice(&row[..nr_eff]);
    }
}

/// Baseline-ISA compilation of [`microkernel_body`].
///
/// `inline(never)`: compiled as a standalone function the autovectorizer
/// reliably turns into packed SIMD; inlined into the blocking loops LLVM
/// falls back to scalar code (measured 4x slower).
#[inline(never)]
fn microkernel_portable(
    c: &mut [f32],
    ldc: usize,
    a_panel: &[f32],
    b_panel: &[f32],
    mr_eff: usize,
    nr_eff: usize,
) {
    microkernel_body(c, ldc, a_panel, b_panel, mr_eff, nr_eff);
}

/// AVX compilation of the *same* [`microkernel_body`], dispatched at runtime.
///
/// Bit-safety: the body is identical scalar Rust — wider vectors just carry
/// more of the independent per-element accumulators per instruction, and FMA
/// contraction is never enabled — so this path produces byte-identical
/// results to [`microkernel_portable`] and the determinism contract holds
/// across machines with and without AVX.
///
/// # Safety
///
/// `#[target_feature]` makes this fn unsafe to call: the caller must prove
/// the CPU supports AVX first. The only call site gates on
/// [`avx_available`] (`is_x86_feature_detected!("avx")`); executing it on a
/// non-AVX CPU would be an illegal-instruction fault, not a wrong answer.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
fn microkernel_avx(
    c: &mut [f32],
    ldc: usize,
    a_panel: &[f32],
    b_panel: &[f32],
    mr_eff: usize,
    nr_eff: usize,
) {
    microkernel_body(c, ldc, a_panel, b_panel, mr_eff, nr_eff);
}

/// Whether the AVX compilation of the microkernel can be used.
#[inline]
fn avx_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Invokes the fastest available microkernel compilation.
#[inline]
fn microkernel(
    use_avx: bool,
    c: &mut [f32],
    ldc: usize,
    a_panel: &[f32],
    b_panel: &[f32],
    mr_eff: usize,
    nr_eff: usize,
) {
    #[cfg(target_arch = "x86_64")]
    if use_avx {
        // SAFETY: `use_avx` is only true when `is_x86_feature_detected!`
        // confirmed AVX support at runtime.
        unsafe { microkernel_avx(c, ldc, a_panel, b_panel, mr_eff, nr_eff) };
        return;
    }
    let _ = use_avx;
    microkernel_portable(c, ldc, a_panel, b_panel, mr_eff, nr_eff);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Single-accumulator, k-ascending triple loop: the packed kernel must
    /// match this *bit for bit* (same reduction shape).
    fn sequential_gemm(c: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
        for i in 0..m {
            for j in 0..n {
                let mut acc = c[i * n + j];
                for p in 0..k {
                    acc += a[i * k + p] * b[p * n + j];
                }
                c[i * n + j] = acc;
            }
        }
    }

    fn fill(len: usize, seed: u32) -> Vec<f32> {
        // Small deterministic pseudo-random values; no RNG dependency needed.
        (0..len)
            .map(|i| {
                let x = (i as u32).wrapping_mul(2654435761).wrapping_add(seed);
                (x % 2000) as f32 / 1000.0 - 1.0
            })
            .collect()
    }

    #[test]
    fn matches_sequential_reduction_bit_for_bit() {
        for &(m, k, n) in &[
            (1, 1, 1),
            (MR, KC, NR),
            (MR + 1, KC + 3, NR + 1),
            (MC + 5, 2 * KC + 1, NC + 9),
            (3, 700, 2),
        ] {
            let a = fill(m * k, 1);
            let b = fill(k * n, 2);
            let mut c = fill(m * n, 3);
            let mut c_ref = c.clone();
            gemm(&mut c, n, GemmOperand::row_major(&a, k), GemmOperand::row_major(&b, n), m, k, n);
            sequential_gemm(&mut c_ref, &a, &b, m, k, n);
            assert_eq!(
                c.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                c_ref.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "bits diverged at m={m} k={k} n={n}"
            );
        }
    }

    #[test]
    fn transposed_operands_match_explicit_transpose() {
        let (m, k, n) = (7, 13, 9);
        let a = fill(m * k, 4); // stored [m, k]
        let b = fill(k * n, 5); // stored [k, n]
        let at: Vec<f32> = {
            // stored [k, m]
            let mut t = vec![0.0; k * m];
            for i in 0..m {
                for p in 0..k {
                    t[p * m + i] = a[i * k + p];
                }
            }
            t
        };
        let mut c1 = vec![0.0; m * n];
        let mut c2 = vec![0.0; m * n];
        gemm(&mut c1, n, GemmOperand::row_major(&a, k), GemmOperand::row_major(&b, n), m, k, n);
        gemm(&mut c2, n, GemmOperand::transposed(&at, m), GemmOperand::row_major(&b, n), m, k, n);
        assert_eq!(c1, c2, "pack-time transposition must be exact");
    }

    #[test]
    fn strided_output_leaves_gaps_untouched() {
        let (m, k, n, ldc) = (3, 5, 4, 10);
        let a = fill(m * k, 6);
        let b = fill(k * n, 7);
        let mut c = vec![9.0; m * ldc];
        gemm(&mut c, ldc, GemmOperand::row_major(&a, k), GemmOperand::row_major(&b, n), m, k, n);
        let mut dense = vec![9.0; m * n];
        sequential_gemm(&mut dense, &a, &b, m, k, n);
        for i in 0..m {
            assert_eq!(&c[i * ldc..i * ldc + n], &dense[i * n..(i + 1) * n]);
            assert!(c[i * ldc + n..(i + 1) * ldc].iter().all(|&v| v == 9.0), "gap clobbered");
        }
    }

    #[test]
    fn degenerate_dims_are_no_ops_or_zero_adds() {
        let mut c = vec![1.0; 6];
        gemm(&mut c, 3, GemmOperand::row_major(&[], 0), GemmOperand::row_major(&[], 3), 2, 0, 3);
        assert_eq!(c, vec![1.0; 6], "k == 0 must leave C unchanged (accumulate semantics)");
        gemm(&mut c, 3, GemmOperand::row_major(&[], 5), GemmOperand::row_major(&[], 3), 0, 5, 3);
        assert_eq!(c, vec![1.0; 6], "m == 0 must be a no-op");
        let a = fill(10, 8);
        gemm(&mut c, 0, GemmOperand::row_major(&a, 5), GemmOperand::row_major(&[], 0), 2, 5, 0);
        assert_eq!(c, vec![1.0; 6], "n == 0 must be a no-op");
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn rejects_short_operands() {
        let mut c = vec![0.0; 4];
        let a = vec![0.0; 3]; // needs 4 for 2x2
        let b = vec![0.0; 4];
        gemm(&mut c, 2, GemmOperand::row_major(&a, 2), GemmOperand::row_major(&b, 2), 2, 2, 2);
    }

    /// The explicit im2col matrix `[g.rows(), g.cols()]` of sample `x`,
    /// element by element from the definition on [`ConvGeometry`].
    fn explicit_im2col(x: &[f32], g: ConvGeometry) -> Vec<f32> {
        let (ksz, (oh, ow)) = (g.kernel, g.out_size());
        let mut cols = Vec::with_capacity(g.rows() * g.cols());
        for r in 0..g.rows() {
            let (c, ky, kx) = (r / (ksz * ksz), r / ksz % ksz, r % ksz);
            for pos in 0..oh * ow {
                let iy = ((pos / ow) * g.stride + ky).checked_sub(g.padding).filter(|&i| i < g.h);
                let ix = ((pos % ow) * g.stride + kx).checked_sub(g.padding).filter(|&i| i < g.w);
                cols.push(match (iy, ix) {
                    (Some(iy), Some(ix)) => x[(c * g.h + iy) * g.w + ix],
                    _ => 0.0,
                });
            }
        }
        cols
    }

    /// The im2col views, gathered at pack time, multiply exactly like the
    /// explicit matrix and its transpose, and a pre-packed A exactly like
    /// a strided one.
    #[test]
    fn im2col_views_and_packed_a_match_explicit_operands() {
        // (channels, h, w, kernel, stride, padding): tile-edge widths,
        // K and N past one block, stride and padding edges.
        let geometries = [
            (3, 16, 16, 3, 1, 1),
            (2, 7, 5, 3, 1, 1),
            (64, 6, 6, 3, 1, 1),
            (2, 18, 18, 3, 1, 1),
            (3, 9, 9, 3, 2, 1),
            (4, 8, 8, 1, 2, 0),
            (2, 7, 7, 5, 2, 2),
            (1, 4, 4, 3, 1, 0),
        ];
        for &(ch, h, w, kernel, stride, padding) in &geometries {
            let g = ConvGeometry::new(ch, h, w, kernel, stride, padding);
            let (rows, cols) = (g.rows(), g.cols());
            let x = fill(g.sample_len(), 9);
            let explicit = explicit_im2col(&x, g);
            let m = 5;

            // C [m, cols] += A [m, rows] · im2col.
            let a = fill(m * rows, 10);
            let mut c_view = fill(m * cols, 11);
            let mut c_ref = c_view.clone();
            let packed = PackedA::new(GemmOperand::row_major(&a, rows), m, rows);
            gemm_packed(&mut c_view, cols, &packed, BOperand::Im2col(&x, g), cols);
            let b_ref = GemmOperand::row_major(&explicit, cols);
            gemm(&mut c_ref, cols, GemmOperand::row_major(&a, rows), b_ref, m, rows, cols);
            assert_eq!(bits(&c_view), bits(&c_ref), "im2col view of {g:?}");

            // C [m, rows] += A [m, cols] · im2colᵀ.
            let a = fill(m * cols, 12);
            let mut c_view = fill(m * rows, 13);
            let mut c_ref = c_view.clone();
            let a_op = GemmOperand::row_major(&a, cols);
            gemm(&mut c_view, rows, a_op, BOperand::Im2colT(&x, g), m, cols, rows);
            let bt_ref = GemmOperand::transposed(&explicit, cols);
            gemm(&mut c_ref, rows, a_op, bt_ref, m, cols, rows);
            assert_eq!(bits(&c_view), bits(&c_ref), "transposed im2col view of {g:?}");
        }
    }

    #[test]
    #[should_panic(expected = "input smaller than conv kernel")]
    fn geometry_rejects_input_smaller_than_kernel() {
        ConvGeometry::new(1, 1, 1, 3, 1, 0);
    }

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }
}
