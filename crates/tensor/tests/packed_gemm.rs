//! Property-based pinning of the packed, cache-blocked GEMM against the
//! naive reference kernels.
//!
//! Shapes are drawn to straddle every tile-edge regime of the blocking
//! (`MR`/`NR` microtile remainders, `MC`/`KC`/`NC` partial blocks, 1×1,
//! K = 1, and empty-tile edges): the packed path must agree with the
//! reference kernels to rounding (the reduction shapes differ) and with
//! itself bit-for-bit across repeated calls and operand forms (a
//! pre-packed A, an im2col view of B).

use bitrobust_tensor::gemm::{gemm_packed, BOperand, ConvGeometry, PackedA, KC, MC, MR, NC, NR};
use bitrobust_tensor::{
    matmul, matmul_nt, matmul_nt_reference, matmul_reference, matmul_tn, matmul_tn_reference,
    GemmOperand, Tensor,
};
use proptest::prelude::*;

/// Dimension sizes that exercise tile edges: 1, exact register-tile
/// multiples, off-by-one remainders around them, and partial cache blocks.
fn edge_dims(tile: usize, block: usize) -> Vec<usize> {
    vec![1, 2, tile - 1, tile, tile + 1, 2 * tile, 2 * tile + 3, block - 1, block, block + tile - 1]
}

/// A deterministic, non-trivial fill keyed by `seed` (mirrors the pattern
/// used by the unit tests in `bitrobust_tensor::gemm`).
fn tensor_from_seed(rows: usize, cols: usize, seed: u64) -> Tensor {
    let data = (0..rows * cols)
        .map(|i| {
            let h = (i as u64 + 1).wrapping_add(seed).wrapping_mul(2654435761);
            ((h % 2000) as f32 - 1000.0) / 500.0
        })
        .collect();
    Tensor::from_vec(vec![rows, cols], data)
}

/// A row-major `[rows, cols]` matrix viewed as the im2col matrix of a
/// `[rows, 1, cols]` sample under a 1×1 kernel, which is the matrix itself.
fn as_im2col(rows: usize, cols: usize) -> ConvGeometry {
    ConvGeometry::new(rows, 1, cols, 1, 1, 0)
}

/// `C = A·B` through a pre-packed `A` (`m x k`) and the B operand `b`.
fn via_packed_a(a: GemmOperand, b: BOperand, m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut c = vec![0.0; m * n];
    gemm_packed(&mut c, n, &PackedA::new(a, m, k), b, n);
    c
}

/// Agreement tolerance between reduction shapes, scaled by the K extent.
fn close(x: f32, y: f32, k: usize) -> bool {
    (x - y).abs() <= 1e-5 * (k as f32).max(1.0) * x.abs().max(y.abs()).max(1.0)
}

proptest! {
    /// `matmul` (packed) vs the naive triple loop, over irregular shapes.
    #[test]
    fn packed_nn_matches_reference(
        (m, k, n) in (
            prop::sample::select(edge_dims(MR, MC)),
            prop::sample::select(edge_dims(MR, KC)),
            prop::sample::select(edge_dims(NR, NC)),
        ),
        seed in any::<u64>(),
    ) {
        let a = tensor_from_seed(m, k, seed);
        let b = tensor_from_seed(k, n, seed ^ 0x9e3779b97f4a7c15);
        let packed = matmul(&a, &b);
        let reference = matmul_reference(&a, &b);
        prop_assert_eq!(packed.shape(), &[m, n]);
        for (x, y) in packed.data().iter().zip(reference.data()) {
            prop_assert!(close(*x, *y, k), "nn {}x{}x{}: {} vs {}", m, k, n, x, y);
        }
        // Bit-exact vs itself: repeated calls take identical reduction paths,
        // and so do a pre-packed A and B gathered as an im2col view.
        prop_assert_eq!(packed.data(), matmul(&a, &b).data());
        let a_op = GemmOperand::row_major(a.data(), k);
        let b_view = BOperand::Im2col(b.data(), as_im2col(k, n));
        prop_assert_eq!(packed.data(), &via_packed_a(a_op, b_view, m, k, n)[..]);
    }

    /// `matmul_nt` (packed, B stored transposed) vs its naive reference.
    #[test]
    fn packed_nt_matches_reference(
        (m, k, n) in (
            prop::sample::select(edge_dims(MR, MC)),
            prop::sample::select(edge_dims(MR, KC)),
            prop::sample::select(edge_dims(NR, NC)),
        ),
        seed in any::<u64>(),
    ) {
        let a = tensor_from_seed(m, k, seed);
        let b = tensor_from_seed(n, k, seed ^ 0x9e3779b97f4a7c15);
        let packed = matmul_nt(&a, &b);
        let reference = matmul_nt_reference(&a, &b);
        prop_assert_eq!(packed.shape(), &[m, n]);
        for (x, y) in packed.data().iter().zip(reference.data()) {
            prop_assert!(close(*x, *y, k), "nt {}x{}x{}: {} vs {}", m, k, n, x, y);
        }
        prop_assert_eq!(packed.data(), matmul_nt(&a, &b).data());
        // Stored `[n, k]`, B is the transposed im2col view of an `[n, 1, k]`
        // sample.
        let a_op = GemmOperand::row_major(a.data(), k);
        let b_view = BOperand::Im2colT(b.data(), as_im2col(n, k));
        prop_assert_eq!(packed.data(), &via_packed_a(a_op, b_view, m, k, n)[..]);
    }

    /// `matmul_tn` (packed, A stored transposed) vs its naive reference.
    #[test]
    fn packed_tn_matches_reference(
        (m, k, n) in (
            prop::sample::select(edge_dims(MR, MC)),
            prop::sample::select(edge_dims(MR, KC)),
            prop::sample::select(edge_dims(NR, NC)),
        ),
        seed in any::<u64>(),
    ) {
        let a = tensor_from_seed(k, m, seed);
        let b = tensor_from_seed(k, n, seed ^ 0x9e3779b97f4a7c15);
        let packed = matmul_tn(&a, &b);
        let reference = matmul_tn_reference(&a, &b);
        prop_assert_eq!(packed.shape(), &[m, n]);
        for (x, y) in packed.data().iter().zip(reference.data()) {
            prop_assert!(close(*x, *y, k), "tn {}x{}x{}: {} vs {}", m, k, n, x, y);
        }
        prop_assert_eq!(packed.data(), matmul_tn(&a, &b).data());
        let a_op = GemmOperand::transposed(a.data(), m);
        let b_op = GemmOperand::row_major(b.data(), n).into();
        prop_assert_eq!(packed.data(), &via_packed_a(a_op, b_op, m, k, n)[..]);
    }
}

/// Deterministic sweep of the degenerate corners random sampling might
/// miss: 1×1, K = 1, and single-row/column strips along every tile edge.
#[test]
fn degenerate_corners_match_reference() {
    let shapes = [
        (1, 1, 1),
        (1, 1, NR),
        (MR, 1, 1),
        (1, KC, 1),
        (MR + 1, 1, NR + 1),
        (MC, 1, NC),
        (1, KC + 1, 1),
        (MR - 1, 2, NR - 1),
    ];
    for &(m, k, n) in &shapes {
        let a = tensor_from_seed(m, k, 7);
        let b = tensor_from_seed(k, n, 13);
        let packed = matmul(&a, &b);
        let reference = matmul_reference(&a, &b);
        for (x, y) in packed.data().iter().zip(reference.data()) {
            assert!(close(*x, *y, k), "{m}x{k}x{n}: {x} vs {y}");
        }
    }
}
