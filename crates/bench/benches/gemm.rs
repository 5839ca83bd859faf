//! Packed GEMM vs the naive reference kernels on the actual layer shapes of
//! the paper's scaled-down models.
//!
//! Shapes (all single-threaded — batch parallelism lives above the kernel):
//!
//! * `fc_head` — the MLP hidden layer as executed by `Linear::forward`
//!   (`x·Wᵀ`, `matmul_nt`): batch 256 × 196 features → 128.
//! * `conv_early/mid/late` — `W·cols` im2col products of the SimpleNet
//!   stack on 16×16 inputs (`matmul`): early layers are wide-and-shallow
//!   (large `oh*ow`, small K), late layers deep-and-narrow.
//!
//! Running this bench writes `BENCH_gemm.json` at the workspace root with
//! naive vs packed GFLOP/s per shape. CI uploads it and fails the build if
//! the packed kernel loses its edge (graded floors, relaxed on 1-thread
//! runners).

#![expect(
    clippy::disallowed_methods,
    reason = "a benchmark: it times kernels and grades its floors by thread count"
)]

use std::time::Instant;

use bitrobust_bench::{best_of, json_str, object, write_bench_json};
use bitrobust_tensor::gemm::{KC, MC, MR, NC, NR};
use bitrobust_tensor::{
    matmul, matmul_nt, matmul_nt_reference, matmul_reference, transpose, Tensor,
};
use rand::SeedableRng;

/// Which kernel pair a shape exercises.
#[derive(Clone, Copy, PartialEq)]
enum Variant {
    /// `C = A·B` (the im2col conv product).
    Nn,
    /// `C = A·Bᵀ` (the `Linear` forward product).
    Nt,
}

struct Shape {
    name: &'static str,
    variant: Variant,
    m: usize,
    k: usize,
    n: usize,
}

/// The gated shapes. `fc_head` carries the 2.0× floor; the conv shapes 1.5×.
const SHAPES: &[Shape] = &[
    Shape { name: "fc_head", variant: Variant::Nt, m: 256, k: 196, n: 128 },
    Shape { name: "conv_early", variant: Variant::Nn, m: 16, k: 144, n: 256 },
    Shape { name: "conv_mid", variant: Variant::Nn, m: 32, k: 288, n: 64 },
    Shape { name: "conv_late", variant: Variant::Nn, m: 96, k: 576, n: 16 },
];

/// Builds the operands for a shape: `A: [m, k]` and `B` in the layout the
/// variant's kernel expects (`[k, n]` for NN, `[n, k]` for NT).
fn operands(s: &Shape) -> (Tensor, Tensor) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(42);
    let a = Tensor::rand_uniform(&[s.m, s.k], -1.0, 1.0, &mut rng);
    let b = match s.variant {
        Variant::Nn => Tensor::rand_uniform(&[s.k, s.n], -1.0, 1.0, &mut rng),
        Variant::Nt => Tensor::rand_uniform(&[s.n, s.k], -1.0, 1.0, &mut rng),
    };
    (a, b)
}

fn run_packed(s: &Shape, a: &Tensor, b: &Tensor) -> Tensor {
    match s.variant {
        Variant::Nn => matmul(a, b),
        Variant::Nt => matmul_nt(a, b),
    }
}

fn run_naive(s: &Shape, a: &Tensor, b: &Tensor) -> Tensor {
    match s.variant {
        Variant::Nn => matmul_reference(a, b),
        Variant::Nt => matmul_nt_reference(a, b),
    }
}

/// What the *disabled* obs instrumentation costs relative to the packed
/// kernel: times a burst of off-level `span!` + `counter_add` calls
/// (each a relaxed atomic load and a branch) and scales by the number of
/// obs call sites one `gemm` call executes — the outer kernel span, the
/// `pack_a` span of its once-per-call A pack, and one `pack_b` span per
/// `(jc, pc)` cache block. CI gates this below 1%.
fn obs_off_overhead_pct(packed_secs: f64, s: &Shape) -> f64 {
    bitrobust_obs::init(&bitrobust_obs::ObsConfig::off());
    const OPS: usize = 1_000_000;
    let start = Instant::now();
    for _ in 0..OPS {
        let g = bitrobust_obs::span("bench.obs_off_probe");
        std::hint::black_box(&g);
        bitrobust_obs::counter_add("bench.obs_off_probe", std::hint::black_box(1));
    }
    let per_call_site = start.elapsed().as_secs_f64() / OPS as f64;
    let pack_spans = s.k.div_ceil(KC) * s.n.div_ceil(NC);
    per_call_site * (2 + pack_spans) as f64 / packed_secs * 100.0
}

fn main() {
    let mut rows = Vec::new();
    let mut fc_speedup = f64::NAN;
    let mut fc_packed_secs = f64::NAN;
    let mut conv_min_speedup = f64::INFINITY;

    for s in SHAPES {
        let (a, b) = operands(s);

        // Correctness first: the packed path must agree with the naive
        // reference (approximately — the reduction shapes differ) and with
        // itself bit-for-bit across repeated calls.
        let packed = run_packed(s, &a, &b);
        let naive = run_naive(s, &a, &b);
        for (x, y) in packed.data().iter().zip(naive.data()) {
            assert!((x - y).abs() <= 1e-3 * x.abs().max(1.0), "packed vs naive: {x} vs {y}");
        }
        assert_eq!(
            packed.data(),
            run_packed(s, &a, &b).data(),
            "packed kernel must be bit-stable across calls"
        );
        // And the explicit-transpose identity for the NT variant.
        if s.variant == Variant::Nt {
            let explicit = matmul(&a, &transpose(&b));
            for (x, y) in packed.data().iter().zip(explicit.data()) {
                assert!((x - y).abs() <= 1e-3 * x.abs().max(1.0), "nt vs explicit: {x} vs {y}");
            }
        }

        let flops = 2.0 * s.m as f64 * s.k as f64 * s.n as f64;
        let iters = (2e7 / flops).clamp(1.0, 500.0) as usize;
        let naive_secs = best_of(5, iters, || drop(run_naive(s, &a, &b)));
        let packed_secs = best_of(5, iters, || drop(run_packed(s, &a, &b)));
        let (naive_gflops, packed_gflops) = (flops / naive_secs / 1e9, flops / packed_secs / 1e9);
        let speedup = naive_secs / packed_secs;
        if s.name == "fc_head" {
            fc_speedup = speedup;
            fc_packed_secs = packed_secs;
        } else {
            conv_min_speedup = conv_min_speedup.min(speedup);
        }
        println!(
            "{:>11} [{:>3}x{:>3}x{:>3}] naive {:6.2} GFLOP/s  packed {:6.2} GFLOP/s  ({:.2}x)",
            s.name, s.m, s.k, s.n, naive_gflops, packed_gflops, speedup
        );
        let variant = match s.variant {
            Variant::Nn => "nn",
            Variant::Nt => "nt",
        };
        rows.push(object(&[
            ("name", json_str(s.name)),
            ("variant", json_str(variant)),
            ("m", s.m.to_string()),
            ("k", s.k.to_string()),
            ("n", s.n.to_string()),
            ("naive_secs", format!("{naive_secs:.9}")),
            ("packed_secs", format!("{packed_secs:.9}")),
            ("naive_gflops", format!("{naive_gflops:.3}")),
            ("packed_gflops", format!("{packed_gflops:.3}")),
            ("speedup", format!("{speedup:.3}")),
        ]));
    }

    let fc_shape = SHAPES.iter().find(|s| s.name == "fc_head").expect("fc_head shape");
    let obs_overhead = obs_off_overhead_pct(fc_packed_secs, fc_shape);
    println!("obs-off overhead on fc_head packed kernel: {obs_overhead:.4}%");

    let tile = [("mr", MR), ("nr", NR), ("mc", MC), ("kc", KC), ("nc", NC)];
    write_bench_json(
        "gemm",
        &[
            ("bench", json_str("gemm")),
            ("threads", bitrobust_tensor::pool_parallelism().to_string()),
            ("tile", object(&tile.map(|(k, v)| (k, v.to_string())))),
            ("shapes", format!("[{}]", rows.join(", "))),
            ("fc_speedup", format!("{fc_speedup:.3}")),
            ("conv_min_speedup", format!("{conv_min_speedup:.3}")),
            ("obs_off_overhead_pct", format!("{obs_overhead:.4}")),
            ("packed_matches_reference", "true".to_string()),
        ],
    );
}
