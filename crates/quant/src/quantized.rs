//! Quantized weight buffers with bit-exact storage.

use serde::{Deserialize, Serialize};

use crate::QuantScheme;

/// A (possibly asymmetric) quantization range `[lo, hi]`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QuantRange {
    lo: f32,
    hi: f32,
}

impl QuantRange {
    /// Creates a range.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi` or either bound is non-finite.
    pub fn new(lo: f32, hi: f32) -> Self {
        assert!(lo.is_finite() && hi.is_finite(), "range bounds must be finite");
        assert!(lo < hi, "invalid quantization range [{lo}, {hi}]");
        Self { lo, hi }
    }

    /// Lower bound (`qmin`).
    pub fn lo(&self) -> f32 {
        self.lo
    }

    /// Upper bound (`qmax`).
    pub fn hi(&self) -> f32 {
        self.hi
    }

    /// Width of the range.
    pub fn span(&self) -> f32 {
        self.hi - self.lo
    }

    /// The union of two ranges (used to build global ranges).
    pub fn merge(&self, other: &QuantRange) -> QuantRange {
        QuantRange::new(self.lo.min(other.lo), self.hi.max(other.hi))
    }
}

/// A quantized parameter tensor: one `u8` word per weight, with only the low
/// `m` bits live.
///
/// The words are the *exact* bits an accelerator would hold in SRAM — bit
/// error injection XORs them directly (see `bitrobust-biterror`), and
/// [`QuantizedTensor::dequantize`] faithfully decodes whatever the errors
/// produced, including levels outside the clean range (e.g. `-2^(m-1)` in
/// two's complement).
///
/// # Examples
///
/// ```
/// use bitrobust_quant::QuantScheme;
///
/// let scheme = QuantScheme::rquant(8);
/// let mut q = scheme.quantize(&[0.1f32, -0.4, 0.3]);
/// q.words_mut()[0] ^= 0x80; // flip the MSB of the first weight
/// let perturbed = q.dequantize();
/// assert!((perturbed[0] - 0.1).abs() > 0.2); // MSB flip ~ half the range
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedTensor {
    words: Vec<u8>,
    range: QuantRange,
    scheme: QuantScheme,
}

impl QuantizedTensor {
    pub(crate) fn from_parts(words: Vec<u8>, range: QuantRange, scheme: QuantScheme) -> Self {
        debug_assert!(
            words.iter().all(|&w| w & !scheme.live_mask() == 0),
            "dead bits must be zero"
        );
        Self { words, range, scheme }
    }

    /// Number of weights.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Whether the tensor holds no weights.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// The stored words (low `m` bits live).
    pub fn words(&self) -> &[u8] {
        &self.words
    }

    /// Mutable access to the stored words, for bit error injection.
    ///
    /// Injectors must respect [`QuantizedTensor::live_mask`]: bits above the
    /// precision are not backed by memory cells.
    pub fn words_mut(&mut self) -> &mut [u8] {
        &mut self.words
    }

    /// The scheme that produced this tensor.
    pub fn scheme(&self) -> &QuantScheme {
        &self.scheme
    }

    /// The quantization range.
    pub fn range(&self) -> QuantRange {
        self.range
    }

    /// Precision in bits.
    pub fn bits(&self) -> u8 {
        self.scheme.bits()
    }

    /// Bitmask of live bits within each word.
    pub fn live_mask(&self) -> u8 {
        self.scheme.live_mask()
    }

    /// Decodes all weights into a fresh vector.
    pub fn dequantize(&self) -> Vec<f32> {
        let mut out = vec![0f32; self.words.len()];
        self.dequantize_into(&mut out);
        out
    }

    /// Decodes all weights into `out`.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.len()`.
    pub fn dequantize_into(&self, out: &mut [f32]) {
        assert_eq!(out.len(), self.words.len(), "output length mismatch");
        for (o, &w) in out.iter_mut().zip(&self.words) {
            *o = self.scheme.dequantize_word(w, self.range);
        }
    }

    /// Counts differing live bits between two quantized tensors of the same
    /// shape and scheme (used by tests and chip diagnostics).
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn hamming_distance(&self, other: &QuantizedTensor) -> usize {
        assert_eq!(self.len(), other.len(), "length mismatch");
        let mask = self.live_mask();
        self.words
            .iter()
            .zip(&other.words)
            .map(|(&a, &b)| ((a ^ b) & mask).count_ones() as usize)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{IntegerRepr, QuantScheme};

    #[test]
    fn range_accessors_and_merge() {
        let a = QuantRange::new(-0.5, 0.25);
        assert_eq!(a.lo(), -0.5);
        assert_eq!(a.hi(), 0.25);
        assert!((a.span() - 0.75).abs() < 1e-7);
        let b = QuantRange::new(-0.1, 0.6);
        let m = a.merge(&b);
        assert_eq!((m.lo(), m.hi()), (-0.5, 0.6));
    }

    #[test]
    #[should_panic(expected = "invalid quantization range")]
    fn rejects_empty_range() {
        let _ = QuantRange::new(0.3, 0.3);
    }

    #[test]
    fn msb_flip_changes_value_by_about_half_range_signed() {
        let scheme = QuantScheme::symmetric(8);
        assert_eq!(scheme.repr, IntegerRepr::Signed);
        let weights = [0.1f32];
        let mut q = scheme.quantize(&weights);
        let clean = q.dequantize()[0];
        q.words_mut()[0] ^= 0x80; // sign bit
        let dirty = q.dequantize()[0];
        // The single weight defines qmax = 0.1, so it sits at level 127; the
        // sign-bit flip sends it to level -1, an error of ~qmax = half the
        // [-qmax, qmax] range (the paper's Fig. 4 "yellow" error).
        assert!((dirty - clean).abs() > 0.09, "clean {clean} dirty {dirty}");
    }

    #[test]
    fn lsb_flip_changes_value_by_one_delta() {
        let scheme = QuantScheme::rquant(8);
        let weights: Vec<f32> = (0..16).map(|i| i as f32 * 0.01).collect();
        let mut q = scheme.quantize(&weights);
        let clean = q.dequantize();
        q.words_mut()[3] ^= 0x01;
        let dirty = q.dequantize();
        let delta = q.range().span() / (2.0 * scheme.max_level() as f32);
        assert!(((dirty[3] - clean[3]).abs() - delta).abs() < 1e-6);
        for i in (0..16).filter(|&i| i != 3) {
            assert_eq!(clean[i], dirty[i]);
        }
    }

    #[test]
    fn hamming_distance_counts_live_bits_only() {
        let scheme = QuantScheme::rquant(4);
        let a = scheme.quantize(&[0.0f32, 0.1, 0.2]);
        let mut b = a.clone();
        b.words_mut()[0] ^= 0b0101;
        b.words_mut()[2] ^= 0b0001;
        assert_eq!(a.hamming_distance(&b), 3);
    }

    #[test]
    fn dead_bits_are_zero_for_low_precision() {
        let scheme = QuantScheme::rquant(3);
        let q = scheme.quantize(&[-1.0f32, -0.5, 0.0, 0.5, 1.0]);
        assert!(q.words().iter().all(|&w| w & 0xF8 == 0));
    }

    #[test]
    fn bit_error_can_exceed_clean_range_without_panicking() {
        let scheme = QuantScheme::normal(8); // signed
        let mut q = scheme.quantize(&[1.0f32, -1.0]);
        // Force the word to -128 (not producible by clean quantization).
        q.words_mut()[1] = 0x80;
        let v = q.dequantize()[1];
        assert!(v.is_finite());
        assert!(v < -1.0); // -128/127 * qmax
    }
}
