//! Property-based tests of the tensor kernels.

use bitrobust_tensor::{matmul, matmul_nt, matmul_tn, softmax_rows, transpose, Tensor};
use proptest::prelude::*;

fn tensor(rows: usize, cols: usize) -> impl Strategy<Value = Tensor> {
    prop::collection::vec(-2.0f32..2.0, rows * cols)
        .prop_map(move |data| Tensor::from_vec(vec![rows, cols], data))
}

proptest! {
    /// (A·B)ᵀ = Bᵀ·Aᵀ.
    #[test]
    fn matmul_transpose_identity(a in tensor(4, 6), b in tensor(6, 3)) {
        let left = transpose(&matmul(&a, &b));
        let right = matmul(&transpose(&b), &transpose(&a));
        for (x, y) in left.data().iter().zip(right.data()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    /// A·(B + C) = A·B + A·C (distributivity).
    #[test]
    fn matmul_distributes(a in tensor(3, 5), b in tensor(5, 4), c in tensor(5, 4)) {
        let lhs = matmul(&a, &(&b + &c));
        let rhs = &matmul(&a, &b) + &matmul(&a, &c);
        for (x, y) in lhs.data().iter().zip(rhs.data()) {
            prop_assert!((x - y).abs() < 1e-3);
        }
    }

    /// matmul_nt and matmul_tn agree with explicit transposes.
    #[test]
    fn fused_transpose_variants_agree(a in tensor(4, 7), b in tensor(5, 7)) {
        let nt = matmul_nt(&a, &b);
        let explicit = matmul(&a, &transpose(&b));
        for (x, y) in nt.data().iter().zip(explicit.data()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
        let at = transpose(&a); // [7, 4]
        let tn = matmul_tn(&at, &transpose(&b)); // (atᵀ)·bᵀ = a·bᵀ
        for (x, y) in tn.data().iter().zip(explicit.data()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    /// Softmax rows are probability distributions and order-preserving.
    #[test]
    fn softmax_rows_are_distributions(t in tensor(3, 8)) {
        let s = softmax_rows(&t);
        for r in 0..3 {
            let row = s.row(r);
            let sum: f32 = row.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-5);
            prop_assert!(row.iter().all(|&p| p >= 0.0));
            // Order preservation vs the logits.
            let logits = t.row(r);
            for i in 0..8 {
                for j in 0..8 {
                    if logits[i] > logits[j] {
                        prop_assert!(row[i] >= row[j]);
                    }
                }
            }
        }
    }

    /// Transpose is an involution.
    #[test]
    fn transpose_involution(t in tensor(5, 9)) {
        prop_assert_eq!(transpose(&transpose(&t)), t);
    }
}
