//! Profiled chips: spatially structured, direction-biased bit errors.
//!
//! The paper evaluates generalization on bit error maps profiled from real
//! 14 nm chips (Fig. 3 / Fig. 8, App. C.1). We synthesize chips with the
//! same *statistical structure*: exponential rate-vs-voltage, errors
//! inherited across voltages, optional column alignment, a 0-to-1 /
//! 1-to-0 flip bias, and a persistent/transient split. The App. C.1 table
//! for the three profiled chips is the calibration target.

use bitrobust_sram::{CellProfile, FaultStats, SramArray, VoltageErrorModel};
use rand::SeedableRng;

use crate::ErrorInjector;

/// Which published chip a synthesized profile imitates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChipKind {
    /// Chip 1: approximately uniform spatial distribution, mild 1-to-0
    /// bias (App. C.1: p ≈ 2.744% with p1t0 1.47 / p0t1 1.27).
    Chip1,
    /// Chip 2: errors strongly aligned along columns and biased toward
    /// 0-to-1 flips (p ≈ 4.707% with p0t1 3.443 / p1t0 1.091).
    Chip2,
    /// Chip 3: 0-to-1 biased without the pronounced column structure
    /// (p ≈ 2.297% with p0t1 1.81 / p1t0 0.48).
    Chip3,
}

impl ChipKind {
    /// The cell profile used to synthesize this chip kind.
    pub fn profile(self) -> CellProfile {
        match self {
            // Slight 1-to-0 bias: stuck-at-0 cells produce 1-to-0 flips.
            ChipKind::Chip1 => CellProfile {
                weak_column_frac: 0.0,
                column_boost: 0.0,
                stuck_one_bias: 0.46,
                persistent_frac: 0.45,
            },
            ChipKind::Chip2 => CellProfile {
                weak_column_frac: 0.08,
                column_boost: 0.04,
                stuck_one_bias: 0.76,
                persistent_frac: 0.6,
            },
            ChipKind::Chip3 => CellProfile {
                weak_column_frac: 0.02,
                column_boost: 0.02,
                stuck_one_bias: 0.79,
                persistent_frac: 0.3,
            },
        }
    }

    /// Array geometry: the paper's bit error maps are 2048×128 bits for
    /// chip 1 and 8192×128 for chips 2 and 3.
    pub fn geometry(self) -> (usize, usize) {
        match self {
            ChipKind::Chip1 => (2048, 128),
            ChipKind::Chip2 | ChipKind::Chip3 => (8192, 128),
        }
    }

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            ChipKind::Chip1 => "chip1",
            ChipKind::Chip2 => "chip2",
            ChipKind::Chip3 => "chip3",
        }
    }

    /// All three kinds.
    pub fn all() -> [ChipKind; 3] {
        [ChipKind::Chip1, ChipKind::Chip2, ChipKind::Chip3]
    }
}

/// A synthesized profiled chip: a fixed map of faulty bit cells per voltage.
///
/// Weights are mapped linearly onto the chip's cells: bit `j` of weight `i`
/// lands in cell `(map_offset + i*m + j) mod n_cells`. Different
/// `map_offset` values simulate different weight-to-memory mappings, as in
/// the paper's App. C.1 evaluation.
///
/// # Examples
///
/// ```
/// use bitrobust_biterror::{ChipKind, ProfiledChip};
///
/// let chip = ProfiledChip::synthesize(ChipKind::Chip1, 1);
/// let v = chip.voltage_for_rate(0.0086); // ~ the paper's p ≈ 0.86% point
/// let stats = chip.stats_at(v);
/// assert!((stats.rate - 0.0086).abs() < 0.002);
/// ```
#[derive(Debug, Clone)]
pub struct ProfiledChip {
    kind: ChipKind,
    array: SramArray,
    model: VoltageErrorModel,
}

impl ProfiledChip {
    /// Synthesizes a chip of the given kind; `seed` selects the instance.
    pub fn synthesize(kind: ChipKind, seed: u64) -> Self {
        let model = VoltageErrorModel::chandramoorthy14nm();
        let (rows, cols) = kind.geometry();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xC4_11_57_00 ^ kind as u64);
        let array = SramArray::sample(rows, cols, &model, &kind.profile(), &mut rng);
        Self { kind, array, model }
    }

    /// The chip kind.
    pub fn kind(&self) -> ChipKind {
        self.kind
    }

    /// Total number of bit cells.
    pub fn n_cells(&self) -> usize {
        self.array.n_cells()
    }

    /// Measured bit error rate at normalized voltage `v`.
    pub fn bit_error_rate_at(&self, v: f64) -> f64 {
        self.array.bit_error_rate_at(v)
    }

    /// Fault statistics at `v` (the App. C.1 table row).
    pub fn stats_at(&self, v: f64) -> FaultStats {
        self.array.stats_at(v)
    }

    /// Whether bit cell `cell` (row-major) is faulty at voltage `v`
    /// (for fault-map visualization and subset-property checks).
    ///
    /// # Panics
    ///
    /// Panics if `cell` is out of range.
    pub fn is_cell_faulty_at(&self, cell: usize, v: f64) -> bool {
        self.array.is_faulty_at(cell, v)
    }

    /// Finds the operating voltage at which this chip's *measured* rate is
    /// closest to `p` (bisection over the monotone rate curve).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < p < 1`.
    pub fn voltage_for_rate(&self, p: f64) -> f64 {
        assert!(p > 0.0 && p < 1.0, "rate must be in (0, 1)");
        let (mut lo, mut hi) = (0.5f64, 1.1f64); // rate(lo) high, rate(hi) ~ 0
        for _ in 0..60 {
            let mid = 0.5 * (lo + hi);
            if self.array.bit_error_rate_at(mid) > p {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        0.5 * (lo + hi)
    }

    /// The underlying voltage model (shared calibration).
    pub fn voltage_model(&self) -> &VoltageErrorModel {
        &self.model
    }

    /// Binds the chip to an operating voltage and weight-to-memory mapping,
    /// producing an [`ErrorInjector`].
    ///
    /// `map_offset` is a bit-cell offset applied before the linear mapping;
    /// `persistent_only` restricts injection to persistent faults.
    pub fn at_voltage(
        &self,
        v: f64,
        map_offset: usize,
        persistent_only: bool,
    ) -> ProfiledInjector<'_> {
        ProfiledInjector { chip: self, voltage: v, map_offset, persistent_only }
    }
}

/// A profiled-chip evaluation axis: target bit error rates (each resolved
/// to an operating voltage on the synthesized chip) crossed with several
/// weight-to-memory mapping offsets per rate — the Tab. 5 / App. C.1
/// protocol as a first-class, iterable description.
///
/// Points are ordered **rate-major**: point `i` is
/// `(rate[i / n_offsets], offset index i % n_offsets)`, and offset index
/// `k` maps weights at bit-cell offset `k * offset_stride`. The order is
/// part of the axis identity ([`ProfiledAxis::key`]) because campaign
/// cells are stored and resumed under per-point content hashes.
///
/// # Examples
///
/// ```
/// use bitrobust_biterror::{ChipKind, ProfiledAxis};
///
/// let axis = ProfiledAxis::tab5(ChipKind::Chip1, 0, vec![0.0086, 0.0275], 4);
/// assert_eq!(axis.n_points(), 8);
/// assert_eq!(axis.point(5), (1, 1)); // second rate, second offset
/// let chip = axis.synthesize();
/// let voltages = axis.voltages(&chip);
/// assert!(voltages[0] > voltages[1], "higher rate needs lower voltage");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ProfiledAxis {
    /// Which published chip to synthesize.
    pub kind: ChipKind,
    /// Seed selecting the chip instance.
    pub chip_seed: u64,
    /// Target bit error rates; each is resolved to the chip voltage whose
    /// measured rate is closest ([`ProfiledChip::voltage_for_rate`]).
    pub rates: Vec<f64>,
    /// Weight-to-memory mapping offsets evaluated per rate.
    pub n_offsets: usize,
    /// Bit-cell stride between consecutive mapping offsets.
    pub offset_stride: usize,
    /// Restrict injection to persistent faults (Tab. 16).
    pub persistent_only: bool,
}

/// The mapping-offset stride of the Tab. 5 protocol (a prime-ish constant
/// so consecutive offsets decorrelate against the chip's column structure).
pub const TAB5_OFFSET_STRIDE: usize = 131_071;

impl ProfiledAxis {
    /// The Tab. 5 protocol axis: all faults, [`TAB5_OFFSET_STRIDE`] between
    /// mapping offsets.
    pub fn tab5(kind: ChipKind, chip_seed: u64, rates: Vec<f64>, n_offsets: usize) -> Self {
        Self {
            kind,
            chip_seed,
            rates,
            n_offsets,
            offset_stride: TAB5_OFFSET_STRIDE,
            persistent_only: false,
        }
    }

    /// Total number of axis points (`rates × offsets`).
    pub fn n_points(&self) -> usize {
        self.rates.len() * self.n_offsets
    }

    /// Decomposes a point index into `(rate index, offset index)`.
    ///
    /// # Panics
    ///
    /// Panics if `point >= self.n_points()`.
    pub fn point(&self, point: usize) -> (usize, usize) {
        assert!(point < self.n_points(), "axis point {point} out of range");
        (point / self.n_offsets, point % self.n_offsets)
    }

    /// Synthesizes the axis's chip (deterministic in `kind` and
    /// `chip_seed`).
    pub fn synthesize(&self) -> ProfiledChip {
        ProfiledChip::synthesize(self.kind, self.chip_seed)
    }

    /// Resolves every target rate to its operating voltage on `chip`, in
    /// rate order. Bisection is deterministic, so callers can resolve once
    /// and share the result across all points.
    pub fn voltages(&self, chip: &ProfiledChip) -> Vec<f64> {
        self.rates.iter().map(|&p| chip.voltage_for_rate(p)).collect()
    }

    /// The injector for axis point `point`, given the synthesized chip and
    /// its pre-resolved [`ProfiledAxis::voltages`].
    ///
    /// # Panics
    ///
    /// Panics if `point` is out of range or `voltages` does not match the
    /// rate count.
    pub fn injector<'c>(
        &self,
        chip: &'c ProfiledChip,
        voltages: &[f64],
        point: usize,
    ) -> ProfiledInjector<'c> {
        assert_eq!(voltages.len(), self.rates.len(), "one voltage per rate");
        let (rate, offset) = self.point(point);
        chip.at_voltage(voltages[rate], offset * self.offset_stride, self.persistent_only)
    }

    /// A stable identity string for persistent cell keys: chip kind, seed,
    /// offset grid, fault filter, and the exact rates (shortest round-trip
    /// float encoding, so re-parsing yields identical `f64`s).
    pub fn key(&self) -> String {
        let rates: Vec<String> = self.rates.iter().map(|r| format!("{r:e}")).collect();
        format!(
            "{}-s{}-o{}x{}-{}-r[{}]",
            self.kind.name(),
            self.chip_seed,
            self.n_offsets,
            self.offset_stride,
            if self.persistent_only { "pers" } else { "all" },
            rates.join(",")
        )
    }
}

/// A [`ProfiledChip`] bound to a voltage and memory mapping.
#[derive(Debug, Clone, Copy)]
pub struct ProfiledInjector<'a> {
    chip: &'a ProfiledChip,
    voltage: f64,
    map_offset: usize,
    persistent_only: bool,
}

impl ProfiledInjector<'_> {
    /// The operating voltage.
    pub fn voltage(&self) -> f64 {
        self.voltage
    }
}

impl ErrorInjector for ProfiledInjector<'_> {
    fn inject(&self, words: &mut [u8], bits: u8, word_offset: usize) {
        let n_cells = self.chip.array.n_cells();
        let array = &self.chip.array;
        for (i, word) in words.iter_mut().enumerate() {
            let base = self.map_offset + (word_offset + i) * bits as usize;
            for bit in 0..bits {
                let cell = (base + bit as usize) % n_cells;
                if array.is_faulty_at(cell, self.voltage)
                    && (!self.persistent_only || array.is_persistent(cell))
                {
                    let stored = (*word >> bit) & 1 == 1;
                    let read = array.stuck_value(cell);
                    if read != stored {
                        *word ^= 1 << bit;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chip_stats_match_app_c1_calibration() {
        // Synthesize each chip and check the direction bias at a voltage
        // close to the published rates.
        let chip1 = ProfiledChip::synthesize(ChipKind::Chip1, 0);
        let v = chip1.voltage_for_rate(0.02744);
        let s = chip1.stats_at(v);
        assert!((s.rate - 0.02744).abs() < 0.004, "rate {}", s.rate);
        assert!(s.rate_1_to_0 > s.rate_0_to_1, "chip 1 is slightly 1-to-0 biased");

        let chip2 = ProfiledChip::synthesize(ChipKind::Chip2, 0);
        let v = chip2.voltage_for_rate(0.047);
        let s = chip2.stats_at(v);
        assert!(s.rate_0_to_1 > 2.0 * s.rate_1_to_0, "chip 2 is strongly 0-to-1 biased");
    }

    #[test]
    fn injection_flips_only_mismatched_stuck_cells() {
        let chip = ProfiledChip::synthesize(ChipKind::Chip1, 1);
        let v = chip.voltage_for_rate(0.02);
        // All-zero words: only stuck-at-1 faults can flip bits (0 -> 1).
        let mut zeros = vec![0u8; 5000];
        chip.at_voltage(v, 0, false).inject(&mut zeros, 8, 0);
        let ones_set: u32 = zeros.iter().map(|w| w.count_ones()).sum();
        // All-one words: only stuck-at-0 faults flip (1 -> 0).
        let mut ones = vec![0xFFu8; 5000];
        chip.at_voltage(v, 0, false).inject(&mut ones, 8, 0);
        let zeros_set: u32 = ones.iter().map(|w| (!w).count_ones()).sum();
        assert!(ones_set > 0 && zeros_set > 0);
        // Combined they should approximate rate * bits * words.
        let total = (ones_set + zeros_set) as f64;
        let expected = 0.02 * 8.0 * 5000.0;
        assert!((total - expected).abs() < expected * 0.3, "{total} vs {expected}");
    }

    #[test]
    fn lower_voltage_is_a_superset_of_higher_voltage() {
        let chip = ProfiledChip::synthesize(ChipKind::Chip2, 2);
        let (v_hi, v_lo) = (0.88, 0.80);
        let mut at_hi = vec![0u8; 2000];
        let mut at_lo = vec![0u8; 2000];
        chip.at_voltage(v_hi, 0, false).inject(&mut at_hi, 8, 0);
        chip.at_voltage(v_lo, 0, false).inject(&mut at_lo, 8, 0);
        for (h, l) in at_hi.iter().zip(&at_lo) {
            assert_eq!(h & !l, 0, "every error at {v_hi} must also occur at {v_lo}");
        }
    }

    #[test]
    fn map_offset_changes_the_pattern() {
        let chip = ProfiledChip::synthesize(ChipKind::Chip1, 3);
        let v = chip.voltage_for_rate(0.02);
        let mut a = vec![0u8; 3000];
        let mut b = vec![0u8; 3000];
        chip.at_voltage(v, 0, false).inject(&mut a, 8, 0);
        chip.at_voltage(v, 12_345, false).inject(&mut b, 8, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn persistent_only_injects_fewer_errors() {
        let chip = ProfiledChip::synthesize(ChipKind::Chip2, 4);
        let v = chip.voltage_for_rate(0.04);
        let mut all = vec![0u8; 4000];
        let mut pers = vec![0u8; 4000];
        chip.at_voltage(v, 0, false).inject(&mut all, 8, 0);
        chip.at_voltage(v, 0, true).inject(&mut pers, 8, 0);
        let c_all: u32 = all.iter().map(|w| w.count_ones()).sum();
        let c_pers: u32 = pers.iter().map(|w| w.count_ones()).sum();
        assert!(c_pers < c_all);
        assert!(c_pers > 0);
    }

    #[test]
    fn axis_points_iterate_rate_major_and_match_manual_injection() {
        let axis = ProfiledAxis::tab5(ChipKind::Chip1, 1, vec![0.01, 0.02], 3);
        assert_eq!(axis.n_points(), 6);
        let order: Vec<(usize, usize)> = (0..axis.n_points()).map(|i| axis.point(i)).collect();
        assert_eq!(order, [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]);

        // Each point's injector must equal the hand-built Tab. 5 loop:
        // voltage from the rate, offset from the stride.
        let chip = axis.synthesize();
        let voltages = axis.voltages(&chip);
        for point in 0..axis.n_points() {
            let (rate, offset) = axis.point(point);
            let mut via_axis = vec![0u8; 2000];
            axis.injector(&chip, &voltages, point).inject(&mut via_axis, 8, 0);
            let mut manual = vec![0u8; 2000];
            let v = chip.voltage_for_rate(axis.rates[rate]);
            chip.at_voltage(v, offset * TAB5_OFFSET_STRIDE, false).inject(&mut manual, 8, 0);
            assert_eq!(via_axis, manual, "point {point}");
        }
    }

    #[test]
    fn axis_keys_encode_every_identity_component() {
        let base = ProfiledAxis::tab5(ChipKind::Chip2, 3, vec![0.0014, 0.0108], 8);
        assert_eq!(base.key(), "chip2-s3-o8x131071-all-r[1.4e-3,1.08e-2]");
        let mut pers = base.clone();
        pers.persistent_only = true;
        assert_ne!(base.key(), pers.key());
        let mut reseeded = base.clone();
        reseeded.chip_seed = 4;
        assert_ne!(base.key(), reseeded.key());
        let mut restrided = base.clone();
        restrided.offset_stride = 1;
        assert_ne!(base.key(), restrided.key());
    }

    #[test]
    fn voltage_for_rate_brackets_target() {
        let chip = ProfiledChip::synthesize(ChipKind::Chip3, 5);
        for &p in &[0.001, 0.01, 0.023] {
            let v = chip.voltage_for_rate(p);
            let measured = chip.bit_error_rate_at(v);
            assert!((measured - p).abs() < p * 0.5 + 1e-4, "p={p}: got {measured}");
        }
    }
}
