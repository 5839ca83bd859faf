// Fixture: the negative control — every pattern here is the *approved*
// counterpart of a violation in the sibling fixtures, so it must produce
// zero findings when scanned as `crates/core/src/qmodel.rs` (numeric
// crate AND quantization boundary, the strictest combination).

use std::collections::BTreeMap;

/// Sound wrapper around a raw write.
///
/// # Safety
///
/// `p` must be valid for writes and properly aligned.
pub unsafe fn write_checked(p: *mut f32) {
    // SAFETY: caller contract (see `# Safety`) guarantees validity.
    unsafe { *p = 1.0 };
}

pub fn deterministic(xs: &[f32], q: i8) -> f32 {
    let mut seen: BTreeMap<usize, f32> = BTreeMap::new();
    assert!(!xs.is_empty(), "survives release builds");
    for (i, &x) in xs.iter().enumerate() {
        seen.insert(i, x);
    }
    let widened = f32::from(q) * f32::from(i16::from(q));
    seen.values().sum::<f32>() + widened
}

#[deprecated(note = "use `deterministic` instead")]
pub fn documented_deprecation() {}
