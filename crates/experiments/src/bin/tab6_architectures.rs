//! **Tab. 6** — Architectures, weight counts, and expected bit errors.
//!
//! Prints the per-dataset model summaries (layers, parameter counts) and
//! the expected number of random bit errors `p·m·W` at the paper's rates.

use bitrobust_biterror::expected_bit_errors;
use bitrobust_core::{build, ArchKind, NormKind};
use bitrobust_experiments::{DatasetKind, ExpOptions, Table};
use rand::SeedableRng;

fn main() {
    let opts = ExpOptions::from_args();
    let mut rng = rand::rngs::StdRng::seed_from_u64(opts.seed);

    println!("Tab. 6 (left/middle): architectures\n");
    for kind in [DatasetKind::Mnist, DatasetKind::Cifar10, DatasetKind::Cifar100] {
        let built = build(
            kind.default_arch(),
            kind.image_shape(),
            kind.n_classes(),
            NormKind::Group,
            &mut rng,
        );
        println!("{}: {}", kind.name(), built.model.summary());
    }
    let resnet = build(ArchKind::ResNetMini, [3, 16, 16], 10, NormKind::Group, &mut rng);
    println!("resnet-mini: {}\n", resnet.model.summary());

    println!("Tab. 6 (right): expected number of bit errors p*m*W (m = 8 bits)\n");
    for (kind, rates) in [
        (DatasetKind::Mnist, vec![0.10, 0.05, 0.015, 0.01, 0.005]),
        (DatasetKind::Cifar10, vec![0.01, 0.005, 1e-4]),
    ] {
        let built = build(
            kind.default_arch(),
            kind.image_shape(),
            kind.n_classes(),
            NormKind::Group,
            &mut rng,
        );
        let w = built.model.num_params();
        let mut table = Table::new(&["p %", "expected bit errors"]);
        for p in rates {
            table.row_owned(vec![
                format!("{:.2}", 100.0 * p),
                format!("{:.0}", expected_bit_errors(p, w, 8)),
            ]);
        }
        println!("{} (W = {w}):\n{}", kind.name(), table.render());
    }
    bitrobust_experiments::finish_obs();
}
