//! Calibration utility: reports training throughput, clean accuracy, and
//! baseline robustness for each synthetic dataset. Useful for sizing epoch
//! budgets before running the full experiment suite.

use std::time::Instant;

use bitrobust_core::{robust_eval, ArchKind, NormKind, TrainMethod};
use bitrobust_experiments::{
    dataset_pair, protocol_axis, zoo_model, DatasetKind, ExpOptions, Table,
};
use bitrobust_quant::QuantScheme;

fn main() {
    let opts = ExpOptions::from_args();
    let mut table = Table::new(&["dataset", "arch", "params", "train s", "Err %", "RErr p=0.5% %"]);

    for kind in [DatasetKind::Mnist, DatasetKind::Cifar10, DatasetKind::Cifar100] {
        let (_, test_ds) = dataset_pair(kind, opts.seed);
        let scheme = QuantScheme::rquant(8);
        let spec = opts.zoo_spec(kind, Some(scheme), TrainMethod::Normal);
        let start = Instant::now();
        let (model, report) = zoo_model(&spec, opts.no_cache);
        let train_time = start.elapsed().as_secs_f64();
        let axis = protocol_axis(&[0.005], opts.chips.min(10));
        let robust = robust_eval(&model, scheme, &test_ds, axis).remove(0);
        let arch_name = match spec.arch {
            ArchKind::SimpleNet => "simplenet",
            ArchKind::WideSimpleNet => "wide-simplenet",
            ArchKind::ResNetMini => "resnet-mini",
            ArchKind::Mlp => "mlp",
        };
        assert_eq!(spec.norm, NormKind::Group);
        table.row_owned(vec![
            kind.name().to_string(),
            arch_name.to_string(),
            format!("{}", model.num_params()),
            format!("{train_time:.1}"),
            format!("{:.2}", 100.0 * report.clean_error),
            format!("{:.2}±{:.2}", 100.0 * robust.mean_error, 100.0 * robust.std_error),
        ]);
    }
    println!("{}", table.render());
    bitrobust_experiments::finish_obs();
}
