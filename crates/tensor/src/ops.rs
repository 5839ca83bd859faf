//! Matrix products and related 2-D kernels.
//!
//! Three matmul variants cover the needs of forward and backward passes
//! without materializing transposes:
//!
//! * [`matmul`]      — `C = A·B`     with `A: [M,K]`, `B: [K,N]`
//! * [`matmul_nt`]   — `C = A·Bᵀ`    with `A: [M,K]`, `B: [N,K]`
//! * [`matmul_tn`]   — `C = Aᵀ·B`    with `A: [K,M]`, `B: [K,N]`
//!
//! All three route through the packed, cache-blocked kernel in [`crate::gemm`]:
//! transposition is absorbed when the operand panels are packed, so there is a
//! single register-tiled inner loop to keep fast and a single reduction shape
//! to keep deterministic (see the `gemm` module docs for the blocking layout
//! and the determinism contract). The original saxpy/dot formulations survive
//! as [`matmul_reference`], [`matmul_nt_reference`], and
//! [`matmul_tn_reference`] — slow paths used by tests and benchmarks to pin
//! the packed kernel.
//!
//! Batch-level parallelism lives in the layer implementations (see
//! `bitrobust-nn`), so these kernels stay single-threaded. Layers that write
//! into existing buffers call [`crate::gemm::gemm`] or
//! [`matmul_tn_accumulate`] directly.

use crate::gemm::{gemm, GemmOperand};
use crate::Tensor;

/// `C = A·B`. See the module docs for shapes.
///
/// # Panics
///
/// Panics if the operands are not 2-D or the inner dimensions differ.
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k, n) = mm_dims(a, b);
    let mut c = Tensor::zeros(&[m, n]);
    gemm(
        c.data_mut(),
        n,
        GemmOperand::row_major(a.data(), k),
        GemmOperand::row_major(b.data(), n),
        m,
        k,
        n,
    );
    c
}

/// `C = A·Bᵀ` with `A: [M,K]`, `B: [N,K]`.
///
/// # Panics
///
/// Panics if the operands are not 2-D or the K dimensions differ.
pub fn matmul_nt(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k, n) = nt_dims(a, b);
    let mut c = Tensor::zeros(&[m, n]);
    // B is stored [N, K]; the packed kernel reads it as its transpose [K, N].
    gemm(
        c.data_mut(),
        n,
        GemmOperand::row_major(a.data(), k),
        GemmOperand::transposed(b.data(), k),
        m,
        k,
        n,
    );
    c
}

/// `C = Aᵀ·B` with `A: [K,M]`, `B: [K,N]`.
///
/// # Panics
///
/// Panics if the operands are not 2-D or the K dimensions differ.
pub fn matmul_tn(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k, n) = tn_dims(a, b);
    let mut c = Tensor::zeros(&[m, n]);
    matmul_tn_accumulate(c.data_mut(), a.data(), b.data(), m, k, n);
    c
}

/// `c += Aᵀ·B` on raw buffers; see [`matmul_tn`].
///
/// # Panics
///
/// Panics if the buffer lengths do not match `k*m`, `k*n`, `m*n`.
pub fn matmul_tn_accumulate(c: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), k * m, "lhs buffer length");
    assert_eq!(b.len(), k * n, "rhs buffer length");
    assert_eq!(c.len(), m * n, "out buffer length");
    // A is stored [K, M]; the packed kernel reads it as its transpose [M, K].
    gemm(c, n, GemmOperand::transposed(a, m), GemmOperand::row_major(b, n), m, k, n);
}

/// Reference `C = A·B`: the original saxpy triple loop (with its
/// vectorization-hostile zero-skip branch), kept for pinning the packed
/// kernel in tests and benchmarks.
///
/// # Panics
///
/// Panics if the operands are not 2-D or the inner dimensions differ.
pub fn matmul_reference(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k, n) = mm_dims(a, b);
    let mut c = Tensor::zeros(&[m, n]);
    let (cd, ad, bd) = (c.data_mut(), a.data(), b.data());
    for i in 0..m {
        let a_row = &ad[i * k..(i + 1) * k];
        let c_row = &mut cd[i * n..(i + 1) * n];
        for (p, &a_ip) in a_row.iter().enumerate() {
            if a_ip == 0.0 {
                continue;
            }
            let b_row = &bd[p * n..(p + 1) * n];
            for (c_v, &b_v) in c_row.iter_mut().zip(b_row) {
                *c_v += a_ip * b_v;
            }
        }
    }
    c
}

/// Reference `C = A·Bᵀ`: the original dot-product formulation.
///
/// # Panics
///
/// Panics if the operands are not 2-D or the K dimensions differ.
pub fn matmul_nt_reference(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k, n) = nt_dims(a, b);
    let mut c = Tensor::zeros(&[m, n]);
    let (cd, ad, bd) = (c.data_mut(), a.data(), b.data());
    for i in 0..m {
        let a_row = &ad[i * k..(i + 1) * k];
        let c_row = &mut cd[i * n..(i + 1) * n];
        for (j, c_v) in c_row.iter_mut().enumerate() {
            let b_row = &bd[j * k..(j + 1) * k];
            *c_v += dot(a_row, b_row);
        }
    }
    c
}

/// Reference `C = Aᵀ·B`: the original rank-1-update formulation.
///
/// # Panics
///
/// Panics if the operands are not 2-D or the K dimensions differ.
pub fn matmul_tn_reference(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k, n) = tn_dims(a, b);
    let mut c = Tensor::zeros(&[m, n]);
    let (cd, ad, bd) = (c.data_mut(), a.data(), b.data());
    for i in 0..m {
        let c_row = &mut cd[i * n..(i + 1) * n];
        for p in 0..k {
            let a_pi = ad[p * m + i];
            if a_pi == 0.0 {
                continue;
            }
            let b_row = &bd[p * n..(p + 1) * n];
            for (c_v, &b_v) in c_row.iter_mut().zip(b_row) {
                *c_v += a_pi * b_v;
            }
        }
    }
    c
}

/// Dot product of two equal-length slices: the inner loop of
/// [`matmul_nt_reference`].
fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot length mismatch");
    // Four-way unrolled accumulation: keeps the FP dependency chain short so
    // LLVM vectorizes without -ffast-math.
    let mut acc = [0.0f32; 4];
    let chunks = a.len() / 4;
    for i in 0..chunks {
        let ai = &a[i * 4..i * 4 + 4];
        let bi = &b[i * 4..i * 4 + 4];
        acc[0] += ai[0] * bi[0];
        acc[1] += ai[1] * bi[1];
        acc[2] += ai[2] * bi[2];
        acc[3] += ai[3] * bi[3];
    }
    let mut s = acc[0] + acc[1] + acc[2] + acc[3];
    for i in chunks * 4..a.len() {
        s += a[i] * b[i];
    }
    s
}

/// Transpose of a 2-D tensor.
///
/// # Panics
///
/// Panics if the tensor is not 2-D.
pub fn transpose(t: &Tensor) -> Tensor {
    assert_eq!(t.ndim(), 2, "transpose requires a 2-D tensor");
    let (m, n) = (t.dim(0), t.dim(1));
    let src = t.data();
    let mut out = Tensor::zeros(&[n, m]);
    let dst = out.data_mut();
    for i in 0..m {
        for j in 0..n {
            dst[j * m + i] = src[i * n + j];
        }
    }
    out
}

/// Row-wise softmax of a 2-D tensor of logits.
///
/// Numerically stable (subtracts each row's max before exponentiation).
///
/// # Panics
///
/// Panics if the tensor is not 2-D.
pub fn softmax_rows(logits: &Tensor) -> Tensor {
    assert_eq!(logits.ndim(), 2, "softmax_rows requires a 2-D tensor");
    let (rows, cols) = (logits.dim(0), logits.dim(1));
    let mut out = logits.clone();
    let data = out.data_mut();
    for r in 0..rows {
        let row = &mut data[r * cols..(r + 1) * cols];
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        let inv = 1.0 / sum;
        for v in row.iter_mut() {
            *v *= inv;
        }
    }
    out
}

fn mm_dims(a: &Tensor, b: &Tensor) -> (usize, usize, usize) {
    assert_eq!(a.ndim(), 2, "lhs must be 2-D");
    assert_eq!(b.ndim(), 2, "rhs must be 2-D");
    let (m, k) = (a.dim(0), a.dim(1));
    let (kb, n) = (b.dim(0), b.dim(1));
    assert_eq!(k, kb, "inner dimension mismatch: [{m},{k}] x [{kb},{n}]");
    (m, k, n)
}

fn nt_dims(a: &Tensor, b: &Tensor) -> (usize, usize, usize) {
    assert_eq!(a.ndim(), 2, "lhs must be 2-D");
    assert_eq!(b.ndim(), 2, "rhs must be 2-D");
    let (m, k) = (a.dim(0), a.dim(1));
    let (n, kb) = (b.dim(0), b.dim(1));
    assert_eq!(k, kb, "inner dimension mismatch: [{m},{k}] x [{n},{kb}]^T");
    (m, k, n)
}

fn tn_dims(a: &Tensor, b: &Tensor) -> (usize, usize, usize) {
    assert_eq!(a.ndim(), 2, "lhs must be 2-D");
    assert_eq!(b.ndim(), 2, "rhs must be 2-D");
    let (k, m) = (a.dim(0), a.dim(1));
    let (kb, n) = (b.dim(0), b.dim(1));
    assert_eq!(k, kb, "inner dimension mismatch: [{k},{m}]^T x [{kb},{n}]");
    (m, k, n)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_matmul(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k, n) = (a.dim(0), a.dim(1), b.dim(1));
        let mut c = Tensor::zeros(&[m, n]);
        for i in 0..m {
            for j in 0..n {
                let mut s = 0.0;
                for p in 0..k {
                    s += a.at(&[i, p]) * b.at(&[p, j]);
                }
                c.set(&[i, j], s);
            }
        }
        c
    }

    fn assert_close(a: &Tensor, b: &Tensor, tol: f32) {
        assert_eq!(a.shape(), b.shape());
        for (x, y) in a.data().iter().zip(b.data()) {
            assert!((x - y).abs() <= tol, "{x} vs {y}");
        }
    }

    #[test]
    fn matmul_matches_naive() {
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(1);
        for &(m, k, n) in &[(1, 1, 1), (3, 5, 7), (8, 16, 4), (17, 9, 13)] {
            let a = Tensor::rand_uniform(&[m, k], -1.0, 1.0, &mut rng);
            let b = Tensor::rand_uniform(&[k, n], -1.0, 1.0, &mut rng);
            assert_close(&matmul(&a, &b), &naive_matmul(&a, &b), 1e-4);
        }
    }

    #[test]
    fn matmul_is_bit_identical_to_sequential_reduction() {
        // The packed kernel's contract: every output element is accumulated
        // in ascending-k order with a single accumulator — i.e. exactly the
        // naive ijk loop.
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(9);
        let a = Tensor::rand_uniform(&[17, 300], -1.0, 1.0, &mut rng);
        let b = Tensor::rand_uniform(&[300, 13], -1.0, 1.0, &mut rng);
        let (packed, naive) = (matmul(&a, &b), naive_matmul(&a, &b));
        let pb: Vec<u32> = packed.data().iter().map(|v| v.to_bits()).collect();
        let nb: Vec<u32> = naive.data().iter().map(|v| v.to_bits()).collect();
        assert_eq!(pb, nb);
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(2);
        let a = Tensor::rand_uniform(&[6, 11], -1.0, 1.0, &mut rng);
        let b = Tensor::rand_uniform(&[9, 11], -1.0, 1.0, &mut rng);
        assert_close(&matmul_nt(&a, &b), &matmul(&a, &transpose(&b)), 1e-4);
    }

    #[test]
    fn matmul_tn_matches_explicit_transpose() {
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(3);
        let a = Tensor::rand_uniform(&[11, 6], -1.0, 1.0, &mut rng);
        let b = Tensor::rand_uniform(&[11, 9], -1.0, 1.0, &mut rng);
        assert_close(&matmul_tn(&a, &b), &matmul(&transpose(&a), &b), 1e-4);
    }

    #[test]
    fn reference_kernels_agree_with_packed_path() {
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(11);
        let a = Tensor::rand_uniform(&[9, 21], -1.0, 1.0, &mut rng);
        let b = Tensor::rand_uniform(&[21, 6], -1.0, 1.0, &mut rng);
        assert_close(&matmul_reference(&a, &b), &matmul(&a, &b), 1e-4);
        let bt = transpose(&b); // [6, 21]
        assert_close(&matmul_nt_reference(&a, &bt), &matmul_nt(&a, &bt), 1e-4);
        let at = transpose(&a); // [21, 9]
        assert_close(&matmul_tn_reference(&at, &b), &matmul_tn(&at, &b), 1e-4);
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn matmul_rejects_bad_shapes() {
        let _ = matmul(&Tensor::zeros(&[2, 3]), &Tensor::zeros(&[4, 5]));
    }

    #[test]
    fn dot_handles_remainders() {
        let a: Vec<f32> = (0..7).map(|i| i as f32).collect();
        let b: Vec<f32> = (0..7).map(|i| (i * 2) as f32).collect();
        let expected: f32 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        assert_eq!(dot(&a, &b), expected);
    }

    #[test]
    fn transpose_round_trips() {
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(4);
        let t = Tensor::rand_uniform(&[5, 8], -1.0, 1.0, &mut rng);
        assert_eq!(transpose(&transpose(&t)), t);
    }

    #[test]
    fn softmax_rows_are_distributions() {
        let t = Tensor::from_vec(vec![2, 3], vec![1.0, 2.0, 3.0, -5.0, 0.0, 5.0]);
        let s = softmax_rows(&t);
        for r in 0..2 {
            let sum: f32 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
            assert!(s.row(r).iter().all(|&p| (0.0..=1.0).contains(&p)));
        }
        // Monotone in logits.
        assert!(s.at(&[0, 2]) > s.at(&[0, 1]));
    }

    #[test]
    fn softmax_is_stable_for_large_logits() {
        let t = Tensor::from_vec(vec![1, 3], vec![1000.0, 1001.0, 999.0]);
        let s = softmax_rows(&t);
        assert!(s.data().iter().all(|p| p.is_finite()));
        assert!((s.row(0).iter().sum::<f32>() - 1.0).abs() < 1e-6);
    }
}
