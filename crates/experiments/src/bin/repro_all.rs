//! Master driver: runs every experiment binary in sequence, teeing each
//! one's stdout into `results/<name>.txt` at the workspace root.
//!
//! ```text
//! cargo run --release -p bitrobust-experiments --bin repro_all [-- --quick]
//! ```

#![expect(
    clippy::disallowed_methods,
    reason = "reports each experiment's wall-clock time; the timing feeds no result"
)]

use std::fs;
use std::path::PathBuf;
use std::process::Command;
use std::time::Instant;

const EXPERIMENTS: &[&str] = &[
    "fig1_energy_voltage",
    "fig3_chip_patterns",
    "tab6_architectures",
    "calibrate",
    "tab1_robust_quant",
    "tab2_clipping",
    "tab3_pattbet",
    "tab4_randbet",
    "tab5_profiled",
    "tab7_accuracy",
    "tab10_batchnorm",
    "tab11_scaling",
    "tab13_variants",
    "tab14_resnets",
    "tab17_guarantees",
    "fig2_headline",
    "fig4_quant_errors",
    "fig6_redundancy",
    "fig9_linf",
    "exp_ecc_secded",
    "exp_layer_vulnerability",
    "exp_ablations",
    "fig7_summary",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let bin_dir = std::env::current_exe()
        .expect("current exe path")
        .parent()
        .expect("exe directory")
        .to_path_buf();
    let results_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results");
    fs::create_dir_all(&results_dir).expect("create results dir");

    let total_start = Instant::now();
    let mut failures = Vec::new();
    for name in EXPERIMENTS {
        let start = Instant::now();
        print!("== {name} ... ");
        use std::io::Write;
        std::io::stdout().flush().ok();
        let output = Command::new(bin_dir.join(name))
            .args(&args)
            .output()
            .unwrap_or_else(|e| panic!("failed to spawn {name}: {e}"));
        let text = String::from_utf8_lossy(&output.stdout);
        fs::write(results_dir.join(format!("{name}.txt")), text.as_bytes())
            .expect("write result file");
        if output.status.success() {
            println!("ok ({:.1}s)", start.elapsed().as_secs_f64());
        } else {
            println!("FAILED ({:.1}s)", start.elapsed().as_secs_f64());
            eprintln!("{}", String::from_utf8_lossy(&output.stderr));
            failures.push(*name);
        }
    }
    println!(
        "\nDone in {:.1} min; results under {}",
        total_start.elapsed().as_secs_f64() / 60.0,
        results_dir.display()
    );
    if !failures.is_empty() {
        eprintln!("failures: {failures:?}");
        std::process::exit(1);
    }
}
