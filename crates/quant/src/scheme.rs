//! Fixed-point quantization schemes (the lattice of Tab. 1 / Tab. 8).

use serde::{Deserialize, Serialize};

use crate::{QuantRange, QuantizedTensor};

/// Smallest representable half-range, guarding against constant tensors.
const MIN_SPAN: f32 = 1e-8;

/// Whether the quantization range is shared across all tensors or adapted
/// per tensor ("per-layer" in the paper: each layer's weights and biases are
/// quantized separately, as in PyTorch).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Granularity {
    /// One range for the entire network (`qmax = max_i |w_i|` over all
    /// layers). The paper's worst case (Tab. 1 row 1).
    Global,
    /// A range per parameter tensor. The paper's default.
    PerTensor,
}

/// Whether the range is symmetric around zero or spans `[min w, max w]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RangeMode {
    /// `[-qmax, qmax]` with `qmax = max |w|`.
    Symmetric,
    /// `[qmin, qmax]` mapped linearly onto `[-1, 1]` before quantization
    /// (Eq. 3 in the paper's App. D).
    Asymmetric,
}

/// Integer representation of the quantization levels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum IntegerRepr {
    /// Two's-complement signed integers in the low `m` bits.
    ///
    /// With an asymmetric range the sign bit no longer mirrors the weight's
    /// sign, which the paper shows is what makes this representation fragile
    /// under MSB flips (Sec. 5.1, App. G.2).
    Signed,
    /// Unsigned integers, implemented via an additive offset of
    /// `2^(m-1) - 1` (Eq. 4 in App. D). The robust choice.
    ///
    /// Note the top code point `2^m - 1` is **dead on the clean path**: the
    /// quantizer clamps levels to `[-L, L]` with `L = 2^(m-1) - 1`, so clean
    /// words span `[0, 2L]` and the all-ones word (level `L + 1`) is only
    /// ever *observed* after a bit error. It still decodes meaningfully —
    /// one step above the top of the clean range — which is exactly why this
    /// representation is robust: an MSB flip moves the value by half the
    /// range instead of flipping its sign.
    Unsigned,
}

/// How `w/Δ` becomes an integer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Rounding {
    /// C-style float-to-integer conversion (truncation toward zero) — the
    /// "commonly implemented" variant the paper warns about.
    Truncate,
    /// Proper round-to-nearest (`⌈·⌋`), the robust choice.
    Nearest,
}

/// A complete fixed-point quantization scheme.
///
/// The paper's evaluation walks a lattice of schemes from the fragile
/// baseline (global, symmetric, signed, truncating) to the robust
/// [`QuantScheme::rquant`] (per-layer, asymmetric, unsigned, rounding);
/// every intermediate point is constructible here.
///
/// # Examples
///
/// ```
/// use bitrobust_quant::QuantScheme;
///
/// let scheme = QuantScheme::rquant(8);
/// let weights = [0.5f32, -0.25, 0.125, 0.0];
/// let q = scheme.quantize(&weights);
/// let back = q.dequantize();
/// for (w, b) in weights.iter().zip(&back) {
///     assert!((w - b).abs() < 0.01);
/// }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct QuantScheme {
    /// Range sharing across tensors.
    pub granularity: Granularity,
    /// Symmetric vs asymmetric range.
    pub range_mode: RangeMode,
    /// Signed vs unsigned integer representation.
    pub repr: IntegerRepr,
    /// Truncation vs round-to-nearest.
    pub rounding: Rounding,
    bits: u8,
}

impl QuantScheme {
    /// Creates a scheme with explicit options.
    ///
    /// # Panics
    ///
    /// Panics unless `2 <= bits <= 8`.
    pub fn new(
        granularity: Granularity,
        range_mode: RangeMode,
        repr: IntegerRepr,
        rounding: Rounding,
        bits: u8,
    ) -> Self {
        assert!((2..=8).contains(&bits), "bits must be in 2..=8, got {bits}");
        Self { granularity, range_mode, repr, rounding, bits }
    }

    /// Eq. (1) with a single global range: the most fragile scheme
    /// (Tab. 1 row 1).
    pub fn eq1_global(bits: u8) -> Self {
        Self::new(
            Granularity::Global,
            RangeMode::Symmetric,
            IntegerRepr::Signed,
            Rounding::Truncate,
            bits,
        )
    }

    /// The paper's `NORMAL` reference: per-layer symmetric signed
    /// quantization with integer conversion (Tab. 1 row 2).
    pub fn normal(bits: u8) -> Self {
        Self::new(
            Granularity::PerTensor,
            RangeMode::Symmetric,
            IntegerRepr::Signed,
            Rounding::Truncate,
            bits,
        )
    }

    /// `NORMAL` + asymmetric ranges, still signed (Tab. 1 row 3; fragile at
    /// high bit error rates).
    pub fn asymmetric_signed(bits: u8) -> Self {
        Self::new(
            Granularity::PerTensor,
            RangeMode::Asymmetric,
            IntegerRepr::Signed,
            Rounding::Truncate,
            bits,
        )
    }

    /// Asymmetric + unsigned integers (Tab. 1 row 4).
    pub fn asymmetric_unsigned(bits: u8) -> Self {
        Self::new(
            Granularity::PerTensor,
            RangeMode::Asymmetric,
            IntegerRepr::Unsigned,
            Rounding::Truncate,
            bits,
        )
    }

    /// The paper's robust quantization `RQUANT`: per-layer, asymmetric,
    /// unsigned, with proper rounding (Tab. 1 row 5).
    pub fn rquant(bits: u8) -> Self {
        Self::new(
            Granularity::PerTensor,
            RangeMode::Asymmetric,
            IntegerRepr::Unsigned,
            Rounding::Nearest,
            bits,
        )
    }

    /// Per-layer symmetric quantization with rounding, used for the
    /// symmetric-quantization ablations (Tab. 9 / Tab. 12).
    pub fn symmetric(bits: u8) -> Self {
        Self::new(
            Granularity::PerTensor,
            RangeMode::Symmetric,
            IntegerRepr::Signed,
            Rounding::Nearest,
            bits,
        )
    }

    /// Precision in bits (`m`).
    pub fn bits(&self) -> u8 {
        self.bits
    }

    /// A stable, filename-safe key encoding the full scheme, e.g. `q8laun`
    /// for 8-bit RQuant (per-**l**ayer, **a**symmetric, **u**nsigned,
    /// **n**earest). Used wherever a scheme is part of a persistent
    /// identity: zoo cache keys and sweep-store cell hashes.
    pub fn key(&self) -> String {
        let g = match self.granularity {
            Granularity::Global => "g",
            Granularity::PerTensor => "l",
        };
        let r = match self.range_mode {
            RangeMode::Symmetric => "s",
            RangeMode::Asymmetric => "a",
        };
        let i = match self.repr {
            IntegerRepr::Signed => "i",
            IntegerRepr::Unsigned => "u",
        };
        let o = match self.rounding {
            Rounding::Truncate => "t",
            Rounding::Nearest => "n",
        };
        format!("q{}{g}{r}{i}{o}", self.bits)
    }

    /// Bitmask of the live (stored) bits within each 8-bit word.
    pub fn live_mask(&self) -> u8 {
        if self.bits == 8 {
            0xFF
        } else {
            (1u8 << self.bits) - 1
        }
    }

    /// Largest positive quantization level, `L = 2^(m-1) - 1`.
    pub fn max_level(&self) -> i32 {
        (1i32 << (self.bits - 1)) - 1
    }

    /// The quantization range this scheme derives from a weight buffer.
    ///
    /// Symmetric mode returns `[-max|w|, max|w|]`; asymmetric returns
    /// `[min w, max w]`. Degenerate (constant) buffers are widened to a tiny
    /// span so that `Δ > 0`.
    pub fn range_for(&self, weights: &[f32]) -> QuantRange {
        match self.range_mode {
            RangeMode::Symmetric => {
                let a = weights.iter().fold(0.0f32, |m, &v| m.max(v.abs())).max(MIN_SPAN);
                QuantRange::new(-a, a)
            }
            RangeMode::Asymmetric => {
                let lo = weights.iter().copied().fold(f32::INFINITY, f32::min);
                let hi = weights.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                let (lo, hi) = if weights.is_empty() { (-MIN_SPAN, MIN_SPAN) } else { (lo, hi) };
                // Widen degenerate (constant) ranges by an amount that stays
                // representable at the magnitude of the values.
                let min_span = (lo.abs().max(hi.abs()) * 1e-4).max(MIN_SPAN);
                if hi - lo < min_span {
                    let mid = 0.5 * (hi + lo);
                    QuantRange::new(mid - min_span, mid + min_span)
                } else {
                    QuantRange::new(lo, hi)
                }
            }
        }
    }

    /// Quantizes `weights` using a range derived from them.
    ///
    /// This is the per-tensor entry point; for [`Granularity::Global`]
    /// schemes, compute the shared range over all tensors first and call
    /// [`QuantScheme::quantize_with_range`].
    pub fn quantize(&self, weights: &[f32]) -> QuantizedTensor {
        self.quantize_with_range(weights, self.range_for(weights))
    }

    /// Quantizes `weights` with an explicit range.
    ///
    /// # Panics
    ///
    /// Panics if any weight is non-finite: `f32::max`/`f32::min` range folds
    /// drop NaN and `as i32` saturates NaN to 0, so without this check a NaN
    /// weight would silently quantize to code 0.
    #[expect(
        clippy::cast_precision_loss,
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "the codec: it rejects non-finite input up front, clamps to [-L, L] and masks to the live bits"
    )]
    pub fn quantize_with_range(&self, weights: &[f32], range: QuantRange) -> QuantizedTensor {
        let level = self.max_level();
        let mask = self.live_mask();
        let words = weights
            .iter()
            .map(|&w| {
                assert!(w.is_finite(), "cannot quantize non-finite weight {w}");
                let normalized = self.normalize(w, range);
                let delta = 1.0 / level as f32;
                let raw = normalized / delta;
                let q = match self.rounding {
                    Rounding::Truncate => raw as i32, // C-style trunc toward zero
                    Rounding::Nearest => raw.round() as i32,
                };
                let q = q.clamp(-level, level);
                match self.repr {
                    IntegerRepr::Signed => (q as u32 as u8) & mask,
                    IntegerRepr::Unsigned => (q + level) as u8 & mask,
                }
            })
            .collect();
        QuantizedTensor::from_parts(words, range, *self)
    }

    /// Decodes a stored word to its integer quantization level.
    ///
    /// This is the single definition of the word → level map behind
    /// [`QuantScheme::dequantize_word`]: signed words sign-extend from the
    /// low `m` bits, unsigned words subtract the [`QuantScheme::max_level`]
    /// offset. Clean levels lie in `[-L, L]`; bit errors can push the result
    /// to `-2^(m-1)` (signed) or `L + 1` (unsigned).
    #[expect(
        clippy::cast_lossless,
        clippy::cast_possible_wrap,
        reason = "pure bit manipulation: the u8 -> i8 -> i32 sign extension defines the word -> level map"
    )]
    pub fn decode_level(&self, word: u8) -> i32 {
        let level = self.max_level();
        let mask = self.live_mask();
        let word = word & mask;
        match self.repr {
            IntegerRepr::Signed => {
                // Sign-extend from the low `m` bits.
                if self.bits < 8 && (word & (1 << (self.bits - 1))) != 0 {
                    (word | !mask) as i8 as i32
                } else {
                    word as i8 as i32
                }
            }
            IntegerRepr::Unsigned => word as i32 - level,
        }
    }

    /// Dequantizes a single stored word.
    #[expect(clippy::cast_precision_loss, reason = "levels are |q| <= 128, exact in f32")]
    pub fn dequantize_word(&self, word: u8, range: QuantRange) -> f32 {
        let level = self.max_level();
        let q = self.decode_level(word);
        let normalized = q as f32 / level as f32;
        self.denormalize(normalized, range)
    }

    /// Maps a weight into the internal `[-1, 1]` domain.
    fn normalize(&self, w: f32, range: QuantRange) -> f32 {
        match self.range_mode {
            RangeMode::Symmetric => (w / range.hi()).clamp(-1.0, 1.0),
            RangeMode::Asymmetric => {
                ((w - range.lo()) / (range.hi() - range.lo()) * 2.0 - 1.0).clamp(-1.0, 1.0)
            }
        }
    }

    /// Inverse of [`QuantScheme::normalize`] (without clamping, so that bit
    /// errors can push values slightly outside the clean range, exactly as
    /// on hardware).
    fn denormalize(&self, n: f32, range: QuantRange) -> f32 {
        match self.range_mode {
            RangeMode::Symmetric => n * range.hi(),
            RangeMode::Asymmetric => (n + 1.0) * 0.5 * (range.hi() - range.lo()) + range.lo(),
        }
    }

    /// A short human-readable description used in experiment tables.
    pub fn describe(&self) -> String {
        let g = match self.granularity {
            Granularity::Global => "global",
            Granularity::PerTensor => "per-layer",
        };
        let r = match self.range_mode {
            RangeMode::Symmetric => "sym",
            RangeMode::Asymmetric => "asym",
        };
        let i = match self.repr {
            IntegerRepr::Signed => "signed",
            IntegerRepr::Unsigned => "unsigned",
        };
        let o = match self.rounding {
            Rounding::Truncate => "trunc",
            Rounding::Nearest => "round",
        };
        format!("{}b {g}/{r}/{i}/{o}", self.bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_the_papers_lattice() {
        let normal = QuantScheme::normal(8);
        assert_eq!(normal.granularity, Granularity::PerTensor);
        assert_eq!(normal.range_mode, RangeMode::Symmetric);
        assert_eq!(normal.repr, IntegerRepr::Signed);
        assert_eq!(normal.rounding, Rounding::Truncate);

        let rq = QuantScheme::rquant(8);
        assert_eq!(rq.range_mode, RangeMode::Asymmetric);
        assert_eq!(rq.repr, IntegerRepr::Unsigned);
        assert_eq!(rq.rounding, Rounding::Nearest);
    }

    #[test]
    #[should_panic(expected = "bits")]
    fn rejects_one_bit() {
        let _ = QuantScheme::rquant(1);
    }

    #[test]
    fn live_mask_matches_bits() {
        assert_eq!(QuantScheme::rquant(8).live_mask(), 0xFF);
        assert_eq!(QuantScheme::rquant(4).live_mask(), 0x0F);
        assert_eq!(QuantScheme::rquant(2).live_mask(), 0x03);
    }

    #[test]
    fn round_trip_error_bounded_by_delta() {
        for bits in [2u8, 3, 4, 8] {
            for scheme in
                [QuantScheme::rquant(bits), QuantScheme::normal(bits), QuantScheme::symmetric(bits)]
            {
                let weights: Vec<f32> = (0..101).map(|i| -0.5 + i as f32 * 0.01).collect();
                let q = scheme.quantize(&weights);
                let back = q.dequantize();
                let range = scheme.range_for(&weights);
                let span = range.hi() - range.lo();
                // Effective step in weight units.
                let delta = span / (2.0 * scheme.max_level() as f32);
                let bound = match scheme.rounding {
                    Rounding::Nearest => delta * 0.5 + 1e-6,
                    Rounding::Truncate => delta + 1e-6,
                };
                for (w, b) in weights.iter().zip(&back) {
                    assert!(
                        (w - b).abs() <= bound,
                        "{}: |{} - {}| > {}",
                        scheme.describe(),
                        w,
                        b,
                        bound
                    );
                }
            }
        }
    }

    #[test]
    fn zero_is_representable_in_symmetric_schemes() {
        let scheme = QuantScheme::symmetric(8);
        let weights = [0.0f32, 0.3, -0.3];
        let q = scheme.quantize(&weights);
        assert_eq!(q.dequantize()[0], 0.0);
    }

    #[test]
    fn constant_tensor_does_not_divide_by_zero() {
        for scheme in [QuantScheme::rquant(8), QuantScheme::normal(8)] {
            let weights = [0.25f32; 10];
            let q = scheme.quantize(&weights);
            for b in q.dequantize() {
                assert!(b.is_finite());
                assert!((b - 0.25).abs() < 1e-3);
            }
        }
    }

    #[test]
    fn truncation_biases_toward_zero() {
        let scheme = QuantScheme::normal(4);
        // With range [-1, 1], delta = 1/7. A weight of 0.9*delta truncates to 0.
        let delta = 1.0 / 7.0;
        let weights = [1.0f32, 0.9 * delta, -0.9 * delta];
        let q = scheme.quantize(&weights);
        let back = q.dequantize();
        assert_eq!(back[1], 0.0);
        assert_eq!(back[2], 0.0);
        // Rounding keeps them at +-delta.
        let q2 = QuantScheme::symmetric(4).quantize(&weights);
        let back2 = q2.dequantize();
        assert!((back2[1] - delta).abs() < 1e-6);
        assert!((back2[2] + delta).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn rejects_nan_weights() {
        let _ = QuantScheme::rquant(8).quantize(&[0.5, f32::NAN, -0.5]);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn rejects_infinite_weights_with_explicit_range() {
        let scheme = QuantScheme::normal(8);
        let _ = scheme.quantize_with_range(&[f32::INFINITY], QuantRange::new(-1.0, 1.0));
    }

    /// Exhaustive decode pin: all 256 words × {signed, unsigned} × {4, 8}
    /// bits, against independent reference arithmetic.
    #[test]
    fn decode_level_pins_all_words() {
        for bits in [4u8, 8] {
            for repr in [IntegerRepr::Signed, IntegerRepr::Unsigned] {
                let scheme = QuantScheme::new(
                    Granularity::PerTensor,
                    RangeMode::Asymmetric,
                    repr,
                    Rounding::Nearest,
                    bits,
                );
                let level = (1i32 << (bits - 1)) - 1;
                for word in 0u16..=255 {
                    let word = word as u8;
                    let live = (word as u32) & ((1u32 << bits) - 1);
                    // Independent reference: interpret the low `bits` bits.
                    let expected = match repr {
                        // Two's complement on `bits` bits.
                        IntegerRepr::Signed => {
                            if live >= (1u32 << (bits - 1)) {
                                live as i32 - (1i32 << bits)
                            } else {
                                live as i32
                            }
                        }
                        IntegerRepr::Unsigned => live as i32 - level,
                    };
                    assert_eq!(
                        scheme.decode_level(word),
                        expected,
                        "{}: word {word:#010b}",
                        scheme.describe()
                    );
                }
            }
        }
    }

    /// `dequantize_word` must stay exactly `denormalize(decode_level / L)` —
    /// the float goldens depend on this composition bit-for-bit.
    #[test]
    fn dequantize_word_is_decode_then_denormalize_bitwise() {
        let range = QuantRange::new(-0.75, 0.5);
        for bits in [4u8, 8] {
            for scheme in [
                QuantScheme::rquant(bits),
                QuantScheme::normal(bits),
                QuantScheme::asymmetric_signed(bits),
                QuantScheme::symmetric(bits),
            ] {
                let level = scheme.max_level();
                for word in 0u16..=255 {
                    let word = word as u8;
                    let q = scheme.decode_level(word);
                    let expected = scheme.denormalize(q as f32 / level as f32, range);
                    assert_eq!(
                        scheme.dequantize_word(word, range).to_bits(),
                        expected.to_bits(),
                        "{}: word {word:#04x}",
                        scheme.describe()
                    );
                }
            }
        }
    }

    /// The unsigned all-ones word (`2^m - 1`, level `L + 1`) is dead on the
    /// clean path: quantization clamps to `[-L, L]`, i.e. words `[0, 2L]`.
    /// It is only reachable via bit errors.
    #[test]
    fn unsigned_top_code_point_is_unreachable_cleanly() {
        for bits in [2u8, 4, 8] {
            for scheme in [QuantScheme::rquant(bits), QuantScheme::asymmetric_unsigned(bits)] {
                let top = scheme.live_mask();
                let weights: Vec<f32> = (0..4001).map(|i| (i - 2000) as f32 / 1000.0).collect();
                let q = scheme.quantize(&weights);
                assert!(
                    q.words().iter().all(|&w| w != top),
                    "{}: clean quantization produced the dead word {top:#04x}",
                    scheme.describe()
                );
                // And yet it decodes, one level above the clean maximum.
                assert_eq!(scheme.decode_level(top), scheme.max_level() + 1);
            }
        }
    }

    #[test]
    fn describe_is_informative() {
        assert_eq!(QuantScheme::rquant(4).describe(), "4b per-layer/asym/unsigned/round");
        assert_eq!(QuantScheme::eq1_global(8).describe(), "8b global/sym/signed/trunc");
    }

    #[test]
    fn keys_are_stable_and_distinct_across_the_lattice() {
        // Pinned: zoo cache filenames and sweep-store cell hashes embed
        // these keys, so changing the encoding invalidates on-disk state.
        assert_eq!(QuantScheme::rquant(8).key(), "q8laun");
        assert_eq!(QuantScheme::eq1_global(8).key(), "q8gsit");
        let lattice = [
            QuantScheme::eq1_global(8),
            QuantScheme::normal(8),
            QuantScheme::asymmetric_signed(8),
            QuantScheme::asymmetric_unsigned(8),
            QuantScheme::rquant(8),
            QuantScheme::symmetric(8),
            QuantScheme::rquant(4),
        ];
        for (i, a) in lattice.iter().enumerate() {
            for b in &lattice[i + 1..] {
                assert_ne!(a.key(), b.key(), "{} vs {}", a.describe(), b.describe());
            }
        }
    }
}
