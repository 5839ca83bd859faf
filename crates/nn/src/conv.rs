//! 2-D convolution as implicit GEMMs, parallelized over the batch.
//!
//! No pass materializes an im2col matrix. Each call packs the layer's
//! weight (or its transpose) once into the GEMM's A layout
//! ([`PackedA`]), and the GEMM gathers the im2col view of each sample
//! straight into its B panels ([`BOperand::Im2col`]):
//!
//! * forward/infer: `out_s = W · im2col(x_s)`, one GEMM per sample over all
//!   `oh·ow` output positions;
//! * dW: `dW_s = dY_s · im2col(x_s)ᵀ`, one GEMM per sample with K = `oh·ow`,
//!   the per-sample partials reduced serially in sample order;
//! * dX: `dx_s = col2im(Wᵀ · dY_s)`, one [`CONV_COL_PANEL`]-wide panel of
//!   column gradients at a time, scattered into `dx_s` as it is produced.

use std::cell::RefCell;

use bitrobust_tensor::gemm::{gemm, gemm_packed, BOperand, ConvGeometry, PackedA};
use bitrobust_tensor::{parallel_for_disjoint_chunks, GemmOperand, Tensor};
use rand::Rng;

use crate::{init, Layer, Mode, Param, ParamKind};

/// Output positions per column-gradient panel of the input-gradient pass.
///
/// Like the GEMM's reduction order, this constant is part of the
/// workspace's numerical contract: dX scatters panel by panel, so changing
/// the panel width changes the accumulation order of overlapping windows
/// in `dX` (and therefore training bits). Regenerate the goldens in
/// `crates/core/tests/golden.rs` if it ever changes.
pub const CONV_COL_PANEL: usize = 128;

thread_local! {
    /// Per-worker column-gradient panel scratch of dX, reused across calls.
    static COL_SCRATCH: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// A 2-D convolution over `[batch, in_ch, h, w]` inputs (NCHW).
///
/// Each sample is multiplied by the `[out_ch, in_ch*kh*kw]` weight as an
/// implicit GEMM: the weight is packed once per call and the sample's
/// im2col columns are gathered straight into the GEMM's panels, so neither
/// pass materializes the `[in_ch*kh*kw, oh*ow]` column matrix. Samples are
/// processed in parallel on the workspace thread pool. The backward pass
/// gathers the columns again rather than caching them.
///
/// # Examples
///
/// ```
/// use bitrobust_nn::{Conv2d, Layer, Mode};
/// use bitrobust_tensor::Tensor;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let mut conv = Conv2d::new(3, 8, 3, 1, 1, &mut rng); // 3x3, stride 1, pad 1
/// let x = Tensor::zeros(&[2, 3, 16, 16]);
/// let y = conv.forward(&x, Mode::Eval);
/// assert_eq!(y.shape(), &[2, 8, 16, 16]);
/// ```
#[derive(Debug)]
pub struct Conv2d {
    weight: Param,
    bias: Param,
    kernel: usize,
    stride: usize,
    padding: usize,
    input_cache: Option<Tensor>,
}

impl Conv2d {
    /// Creates a convolution with He-initialized weights and zero bias.
    ///
    /// # Panics
    ///
    /// Panics if `kernel` or `stride` is zero.
    pub fn new(
        in_ch: usize,
        out_ch: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(kernel > 0, "kernel size must be positive");
        assert!(stride > 0, "stride must be positive");
        Self {
            weight: Param::new(
                "weight",
                ParamKind::Weight,
                init::he_conv(out_ch, in_ch, kernel, kernel, rng),
            ),
            bias: Param::new("bias", ParamKind::Bias, Tensor::zeros(&[out_ch])),
            kernel,
            stride,
            padding,
            input_cache: None,
        }
    }

    /// Number of input channels.
    pub fn in_channels(&self) -> usize {
        self.weight.value().dim(1)
    }

    /// Number of output channels.
    pub fn out_channels(&self) -> usize {
        self.weight.value().dim(0)
    }

    /// Output spatial size for a given input spatial size.
    ///
    /// # Panics
    ///
    /// Panics if the padded input is smaller than the kernel.
    pub fn output_size(&self, h: usize, w: usize) -> (usize, usize) {
        self.geometry(h, w).out_size()
    }

    fn geometry(&self, h: usize, w: usize) -> ConvGeometry {
        ConvGeometry::new(self.in_channels(), h, w, self.kernel, self.stride, self.padding)
    }

    /// The batch size and per-sample geometry of applying this layer to
    /// `[batch, ic, h, w]` input.
    fn dims(&self, input: &Tensor) -> (usize, ConvGeometry) {
        assert_eq!(input.ndim(), 4, "Conv2d expects [batch, ch, h, w]");
        assert_eq!(input.dim(1), self.in_channels(), "Conv2d channel mismatch");
        (input.dim(0), self.geometry(input.dim(2), input.dim(3)))
    }

    /// The cache-free forward computation shared by `forward` and `infer`.
    fn compute(&self, input: &Tensor) -> Tensor {
        let (batch, g) = self.dims(input);
        let (oc, k, ohw) = (self.out_channels(), g.rows(), g.cols());
        let (oh, ow) = g.out_size();
        let mut out = Tensor::zeros(&[batch, oc, oh, ow]);
        let sample_in = g.sample_len();
        let weight = PackedA::new(GemmOperand::row_major(self.weight.value().data(), k), oc, k);
        let bias = self.bias.value().data();
        let x = input.data();

        parallel_for_disjoint_chunks(out.data_mut(), oc * ohw, |s, out_s| {
            // out_s [oc, oh·ow] (zeros) += W [oc, k] · im2col(x_s) [k, oh·ow]
            let x_s = &x[s * sample_in..(s + 1) * sample_in];
            gemm_packed(out_s, ohw, &weight, BOperand::Im2col(x_s, g), ohw);
            for (row, &b) in out_s.chunks_exact_mut(ohw).zip(bias) {
                for v in row {
                    *v += b;
                }
            }
        });
        out
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        if mode.is_train() {
            self.input_cache = Some(input.clone());
        }
        self.compute(input)
    }

    fn infer(&self, input: &Tensor, mode: Mode) -> Tensor {
        mode.assert_inference();
        self.compute(input)
    }

    fn clone_layer(&self) -> Box<dyn Layer> {
        Box::new(Self {
            weight: self.weight.clone(),
            bias: self.bias.clone(),
            kernel: self.kernel,
            stride: self.stride,
            padding: self.padding,
            input_cache: None,
        })
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let input = self.input_cache.as_ref().expect("backward before training forward");
        let (batch, g) = self.dims(input);
        let (oc, k, ohw) = (self.out_channels(), g.rows(), g.cols());
        let (oh, ow) = g.out_size();
        assert_eq!(grad_output.shape(), &[batch, oc, oh, ow], "grad_output shape mismatch");

        let sample_in = g.sample_len();
        let sample_out = oc * ohw;
        let x = input.data();
        let dy = grad_output.data();

        // Pass A: per-sample partial dW/db into a scratch buffer, reduced
        // serially afterwards (the per-sample partials are small).
        let part_len = oc * k + oc;
        let mut partials = vec![0f32; batch * part_len];
        parallel_for_disjoint_chunks(&mut partials, part_len, |s, part| {
            let x_s = &x[s * sample_in..(s + 1) * sample_in];
            let dy_s = &dy[s * sample_out..(s + 1) * sample_out];
            let (dw_part, db_part) = part.split_at_mut(oc * k);
            // dW_s [oc, k] = dY_s [oc, oh·ow] · im2col(x_s)ᵀ [oh·ow, k]
            let dy_s_op = GemmOperand::row_major(dy_s, ohw);
            gemm(dw_part, k, dy_s_op, BOperand::Im2colT(x_s, g), oc, ohw, k);
            for (db, dy_c) in db_part.iter_mut().zip(dy_s.chunks_exact(ohw)) {
                *db = dy_c.iter().sum();
            }
        });
        {
            let dw = self.weight.grad_mut().data_mut();
            for s in 0..batch {
                let dw_part = &partials[s * part_len..s * part_len + oc * k];
                for (a, &b) in dw.iter_mut().zip(dw_part) {
                    *a += b;
                }
            }
        }
        {
            let db = self.bias.grad_mut().data_mut();
            for s in 0..batch {
                let db_part = &partials[s * part_len + oc * k..(s + 1) * part_len];
                for (a, &b) in db.iter_mut().zip(db_part) {
                    *a += b;
                }
            }
        }

        // Pass B: per-sample dX = col2im(Wᵀ · dY_s), panel by panel.
        let weight_t = PackedA::new(GemmOperand::transposed(self.weight.value().data(), k), k, oc);
        let (h, w) = g.in_size();
        let mut dx = Tensor::zeros(&[batch, g.channels(), h, w]);
        parallel_for_disjoint_chunks(dx.data_mut(), sample_in, |s, dx_s| {
            COL_SCRATCH.with(|scratch| {
                let dcols = &mut *scratch.borrow_mut();
                let dy_s = &dy[s * sample_out..(s + 1) * sample_out];
                backward_x_sample(dx_s, dy_s, &weight_t, g, dcols);
            });
        });
        dx
    }

    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut Param)) {
        visitor(&mut self.weight);
        visitor(&mut self.bias);
    }

    fn visit_params_ref(&self, visitor: &mut dyn FnMut(&Param)) {
        visitor(&self.weight);
        visitor(&self.bias);
    }

    fn layer_type(&self) -> &'static str {
        "Conv2d"
    }

    fn clear_cache(&mut self) {
        self.input_cache = None;
    }
}

/// Input-gradient pass for one sample: `dx_s += col2im(Wᵀ · dY_s)`, one
/// column panel at a time (`dx_s` starts at zero).
fn backward_x_sample(
    dx_s: &mut [f32],
    dy_s: &[f32],
    weight_t: &PackedA,
    g: ConvGeometry,
    cols: &mut Vec<f32>,
) {
    let (k, ohw) = (g.rows(), g.cols());
    let panel = CONV_COL_PANEL.min(ohw);
    cols.resize(k * panel, 0.0);
    let mut x0 = 0;
    while x0 < ohw {
        let ncols = panel.min(ohw - x0);
        let dcols = &mut cols[..k * ncols];
        dcols.fill(0.0);
        // dcols [k, ncols] = Wᵀ [k, oc] · dY_s[:, x0..x0+ncols]
        gemm_packed(dcols, ncols, weight_t, GemmOperand::strided(&dy_s[x0..], ohw), ncols);
        col2im_panel(dcols, g, x0, ncols, dx_s);
        x0 += ncols;
    }
}

/// Scatters column-gradient panel `[ic*k*k, ncols]` (output positions
/// `x0 .. x0 + ncols`) back into one `[ic, h, w]` input-gradient sample,
/// accumulating overlaps. Each run of positions along one output row adds
/// only its in-bounds part; padding positions have nowhere to go.
fn col2im_panel(dcols: &[f32], g: ConvGeometry, x0: usize, ncols: usize, dx: &mut [f32]) {
    let ((h, w), (_, ow), kernel) = (g.in_size(), g.out_size(), g.kernel());
    let stride = g.stride();
    for (c, dx_c) in dx.chunks_exact_mut(h * w).enumerate() {
        for ky in 0..kernel {
            for kx in 0..kernel {
                let r = (c * kernel + ky) * kernel + kx;
                let row = &dcols[r * ncols..(r + 1) * ncols];
                let mut xi = 0;
                while xi < ncols {
                    let pos = x0 + xi;
                    let (oy, ox0) = (pos / ow, pos % ow);
                    let run = (ow - ox0).min(ncols - xi);
                    if let Some(iy) = g.input_row(oy, ky) {
                        let (lo, hi, ix0) = g.row_span(ox0, run, kx);
                        let src = &row[xi + lo..xi + hi];
                        let dx_row = &mut dx_c[iy * w..(iy + 1) * w];
                        if stride == 1 {
                            for (d, &v) in dx_row[ix0..ix0 + src.len()].iter_mut().zip(src) {
                                *d += v;
                            }
                        } else {
                            for (d, &v) in dx_row.iter_mut().skip(ix0).step_by(stride).zip(src) {
                                *d += v;
                            }
                        }
                    }
                    xi += run;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::{check_layer_gradients, GradCheckConfig};
    use rand::SeedableRng;

    /// Direct (quadruple-loop) convolution as a reference.
    fn naive_conv(x: &Tensor, w: &Tensor, b: &Tensor, stride: usize, padding: usize) -> Tensor {
        let (batch, ic, h, wid) = (x.dim(0), x.dim(1), x.dim(2), x.dim(3));
        let (oc, _, kh, kw) = (w.dim(0), w.dim(1), w.dim(2), w.dim(3));
        let oh = (h + 2 * padding - kh) / stride + 1;
        let ow = (wid + 2 * padding - kw) / stride + 1;
        let mut out = Tensor::zeros(&[batch, oc, oh, ow]);
        for s in 0..batch {
            for o in 0..oc {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = b.data()[o];
                        for c in 0..ic {
                            for ky in 0..kh {
                                for kx in 0..kw {
                                    let iy = (oy * stride + ky) as isize - padding as isize;
                                    let ix = (ox * stride + kx) as isize - padding as isize;
                                    if iy >= 0 && iy < h as isize && ix >= 0 && ix < wid as isize {
                                        acc += x.at(&[s, c, iy as usize, ix as usize])
                                            * w.at(&[o, c, ky, kx]);
                                    }
                                }
                            }
                        }
                        out.set(&[s, o, oy, ox], acc);
                    }
                }
            }
        }
        out
    }

    #[test]
    fn forward_matches_naive_conv() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        for &(stride, padding) in &[(1usize, 0usize), (1, 1), (2, 1)] {
            let mut conv = Conv2d::new(3, 4, 3, stride, padding, &mut rng);
            let x = Tensor::randn(&[2, 3, 7, 7], 1.0, &mut rng);
            let y = conv.forward(&x, Mode::Eval);
            let y_ref = naive_conv(&x, conv.weight.value(), conv.bias.value(), stride, padding);
            assert_eq!(y.shape(), y_ref.shape());
            for (a, b) in y.data().iter().zip(y_ref.data()) {
                assert!((a - b).abs() < 1e-4, "{a} vs {b}");
            }
        }
    }

    /// Forward must agree with the naive reference when `oh*ow` spans
    /// several GEMM column blocks and dX panels (18*18 = 324 positions,
    /// 2*128 + 68 in [`CONV_COL_PANEL`]s).
    #[test]
    fn multi_panel_forward_matches_naive_conv() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let mut conv = Conv2d::new(2, 3, 3, 1, 1, &mut rng);
        let x = Tensor::randn(&[1, 2, 18, 18], 1.0, &mut rng);
        const { assert!(18 * 18 > CONV_COL_PANEL, "shape must span multiple panels") };
        let y = conv.forward(&x, Mode::Eval);
        let y_ref = naive_conv(&x, conv.weight.value(), conv.bias.value(), 1, 1);
        for (a, b) in y.data().iter().zip(y_ref.data()) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    /// No pass materializes the `[k, oh*ow]` column matrix: forward and dW
    /// gather straight into the GEMM's panels and leave the column scratch
    /// untouched, and dX requests exactly one panel. (Batch 1 runs inline,
    /// on this thread, so its scratch is observable here.)
    #[test]
    fn dx_uses_one_panel_and_forward_dw_use_no_column_scratch() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(10);
        let mut conv = Conv2d::new(3, 8, 3, 1, 1, &mut rng);
        let x = Tensor::randn(&[1, 3, 16, 16], 1.0, &mut rng);
        let (_, g) = conv.dims(&x);
        let (k, ohw) = (g.rows(), g.cols());
        assert!(ohw > CONV_COL_PANEL, "16x16 output must span multiple panels");
        let scratch = || COL_SCRATCH.with(|s| s.borrow().capacity());
        COL_SCRATCH.with(|s| *s.borrow_mut() = Vec::new());

        let y = conv.forward(&x, Mode::Train);
        assert_eq!(scratch(), 0, "forward must use no column scratch");
        let _ = conv.infer(&x, Mode::Eval);
        assert_eq!(scratch(), 0, "infer must use no column scratch");

        let _ = conv.backward(&y);
        assert_eq!(scratch(), k * CONV_COL_PANEL, "dX scratch must be exactly one panel");
        assert!(scratch() < k * ohw, "no pass may request the full column matrix");
    }

    /// A test-only reference lowering: the full im2col matrix, the
    /// sequential ascending-k loop, and col2im scattered in
    /// [`CONV_COL_PANEL`] order. The layer must match it bit for bit.
    struct Reference {
        ic: usize,
        h: usize,
        w: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        oh: usize,
        ow: usize,
        oc: usize,
    }

    impl Reference {
        fn new(conv: &Conv2d, h: usize, w: usize) -> Self {
            let (oh, ow) = conv.output_size(h, w);
            let (kernel, stride, padding) = (conv.kernel, conv.stride, conv.padding);
            let (ic, oc) = (conv.in_channels(), conv.out_channels());
            Self { ic, h, w, kernel, stride, padding, oh, ow, oc }
        }

        fn k(&self) -> usize {
            self.ic * self.kernel * self.kernel
        }

        fn ohw(&self) -> usize {
            self.oh * self.ow
        }

        /// The input index im2col element `(r, pos)` reads, or `None` in
        /// the padding.
        fn source(&self, r: usize, pos: usize) -> Option<usize> {
            let (c, ky, kx) =
                (r / (self.kernel * self.kernel), r / self.kernel % self.kernel, r % self.kernel);
            let (oy, ox) = (pos / self.ow, pos % self.ow);
            let iy = (oy * self.stride + ky).checked_sub(self.padding).filter(|&i| i < self.h)?;
            let ix = (ox * self.stride + kx).checked_sub(self.padding).filter(|&i| i < self.w)?;
            Some((c * self.h + iy) * self.w + ix)
        }

        /// The full `[k, oh*ow]` im2col matrix of one sample.
        fn im2col(&self, x_s: &[f32]) -> Vec<f32> {
            let (k, ohw) = (self.k(), self.ohw());
            (0..k * ohw).map(|i| self.source(i / ohw, i % ohw).map_or(0.0, |at| x_s[at])).collect()
        }

        fn forward(&self, x: &[f32], weight: &[f32], bias: &[f32]) -> Vec<f32> {
            let (k, ohw) = (self.k(), self.ohw());
            let mut out = Vec::new();
            for x_s in x.chunks_exact(self.ic * self.h * self.w) {
                let cols = self.im2col(x_s);
                for o in 0..self.oc {
                    for j in 0..ohw {
                        let mut acc = 0.0f32;
                        for p in 0..k {
                            acc += weight[o * k + p] * cols[p * ohw + j];
                        }
                        out.push(acc + bias[o]);
                    }
                }
            }
            out
        }

        /// `(dW, db, dX)` of one backward pass from zero gradients.
        fn backward(&self, x: &[f32], weight: &[f32], dy: &[f32]) -> [Vec<f32>; 3] {
            let (k, ohw) = (self.k(), self.ohw());
            let mut dw = vec![0.0f32; self.oc * k];
            let mut db = vec![0.0f32; self.oc];
            let mut dx = Vec::new();
            let samples =
                x.chunks_exact(self.ic * self.h * self.w).zip(dy.chunks_exact(self.oc * ohw));
            for (x_s, dy_s) in samples {
                let cols = self.im2col(x_s);
                for o in 0..self.oc {
                    for p in 0..k {
                        let mut acc = 0.0f32;
                        for pos in 0..ohw {
                            acc += dy_s[o * ohw + pos] * cols[p * ohw + pos];
                        }
                        dw[o * k + p] += acc;
                    }
                    db[o] += dy_s[o * ohw..(o + 1) * ohw].iter().sum::<f32>();
                }
                let mut dcols = vec![0.0f32; k * ohw];
                for (i, slot) in dcols.iter_mut().enumerate() {
                    let (p, pos) = (i / ohw, i % ohw);
                    let mut acc = 0.0f32;
                    for o in 0..self.oc {
                        acc += weight[o * k + p] * dy_s[o * ohw + pos];
                    }
                    *slot = acc;
                }
                let mut dx_s = vec![0.0f32; self.ic * self.h * self.w];
                for x0 in (0..ohw).step_by(CONV_COL_PANEL) {
                    for r in 0..k {
                        for pos in x0..ohw.min(x0 + CONV_COL_PANEL) {
                            if let Some(at) = self.source(r, pos) {
                                dx_s[at] += dcols[r * ohw + pos];
                            }
                        }
                    }
                }
                dx.extend(dx_s);
            }
            [dw, db, dx]
        }
    }

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// Forward, dW, db and dX match the reference bit for bit across the
    /// geometries the blocking and the gather have edges at.
    #[test]
    fn passes_match_reference_bit_for_bit() {
        // (in_ch, out_ch, h = w, kernel, stride, padding)
        let shapes = [
            (3, 4, 9, 3, 2, 1),   // stride 2
            (3, 5, 8, 3, 1, 0),   // padding 0
            (16, 32, 8, 1, 2, 0), // 1x1 stride 2: the ResNetMini shortcut
            (4, 6, 7, 3, 1, 1),   // oh*ow = 49, not a multiple of the tile
            (64, 8, 6, 3, 1, 1),  // k = 576, deeper than one K block
            (2, 3, 18, 3, 1, 1),  // oh*ow = 324, wider and deeper than a block
            (3, 4, 7, 5, 2, 2),   // padding 2: runs entirely in the padding
        ];
        let mut rng = rand::rngs::StdRng::seed_from_u64(12);
        for &(ic, oc, hw, kernel, stride, padding) in &shapes {
            let case = format!("{ic}->{oc} @{hw} k{kernel} s{stride} p{padding}");
            let mut conv = Conv2d::new(ic, oc, kernel, stride, padding, &mut rng);
            conv.bias = Param::new("bias", ParamKind::Bias, Tensor::randn(&[oc], 1.0, &mut rng));
            let x = Tensor::randn(&[2, ic, hw, hw], 1.0, &mut rng);
            let reference = Reference::new(&conv, hw, hw);
            let (weight, bias) = (conv.weight.value().clone(), conv.bias.value().clone());

            let y = conv.forward(&x, Mode::Train);
            let y_ref = reference.forward(x.data(), weight.data(), bias.data());
            assert_eq!(bits(y.data()), bits(&y_ref), "forward {case}");
            assert_eq!(bits(conv.infer(&x, Mode::Eval).data()), bits(&y_ref), "infer {case}");

            let dy = Tensor::randn(y.shape(), 1.0, &mut rng);
            let dx = conv.backward(&dy);
            let [dw_ref, db_ref, dx_ref] = reference.backward(x.data(), weight.data(), dy.data());
            assert_eq!(bits(conv.weight.grad().data()), bits(&dw_ref), "dW {case}");
            assert_eq!(bits(conv.bias.grad().data()), bits(&db_ref), "db {case}");
            assert_eq!(bits(dx.data()), bits(&dx_ref), "dX {case}");
        }
    }

    #[test]
    #[should_panic(expected = "input smaller than conv kernel")]
    fn rejects_input_smaller_than_kernel() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        let conv = Conv2d::new(1, 2, 3, 1, 0, &mut rng);
        let _ = conv.infer(&Tensor::zeros(&[1, 1, 1, 1]), Mode::Eval);
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let mut conv = Conv2d::new(2, 3, 3, 1, 1, &mut rng);
        check_layer_gradients(&mut conv, &[2, 2, 5, 5], &GradCheckConfig::default(), &mut rng);
    }

    #[test]
    fn strided_gradients_match_finite_differences() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let mut conv = Conv2d::new(2, 2, 3, 2, 1, &mut rng);
        check_layer_gradients(&mut conv, &[1, 2, 6, 6], &GradCheckConfig::default(), &mut rng);
    }

    /// Gradients stay correct when the spatial output spans several dX
    /// panels (exercises the panel-blocked col2im end to end).
    #[test]
    fn multi_panel_gradients_match_finite_differences() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let mut conv = Conv2d::new(1, 2, 3, 1, 1, &mut rng);
        check_layer_gradients(&mut conv, &[1, 1, 12, 12], &GradCheckConfig::default(), &mut rng);
    }

    #[test]
    fn output_size_formula() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let conv = Conv2d::new(1, 1, 3, 2, 1, &mut rng);
        assert_eq!(conv.output_size(16, 16), (8, 8));
        assert_eq!(conv.output_size(7, 9), (4, 5));
    }
}
