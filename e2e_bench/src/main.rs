//! Command-line entry point of the end-to-end benchmark; see the library
//! docs for what each workload runs and reports.

use std::process::ExitCode;

use bitrobust_e2e_bench::{
    procfs, report, run_e2e, run_traced, Checks, Metric, Opts, Workload, END_TO_END,
};

const USAGE: &str = "usage: e2e_bench --workload <train_randbet|sweep_profiled|serve_open_loop> \
                     --seed <u64> --seconds <1..600> --trace <0|1> [--smoke]";

/// Parsed arguments: the run's options plus the internal switch of the
/// one-thread training child (see `train::run_traced`).
struct Args {
    opts: Opts,
    one_thread_train: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0u64;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut smoke = false;
    let mut one_thread_train = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(1.0..=600.0).contains(&seconds) {
                    return Err(format!("--seconds {seconds} outside 1..600"));
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => smoke = true,
            "--one-thread-train" => one_thread_train = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { opts: Opts { workload, seed, seconds, trace, smoke }, one_thread_train })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("e2e_bench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // The pool reads BITROBUST_THREADS once, on first use; nothing has
    // used it yet. One thread per core, except in the one-thread child.
    let threads = if args.one_thread_train {
        1
    } else {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    };
    std::env::set_var(bitrobust_tensor::THREADS_ENV, threads.to_string());
    // End-to-end numbers are measured untraced whatever BITROBUST_OBS says;
    // the traced run switches obs on itself.
    bitrobust_obs::init(&bitrobust_obs::ObsConfig::off());
    let opts = args.opts;

    if args.one_thread_train {
        println!("{}", bitrobust_e2e_bench::train::one_repeat_rate(&opts));
        return ExitCode::SUCCESS;
    }

    println!(
        "manifest {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"smoke\": {}, \"threads\": {}, \"available_parallelism\": {}}}",
        opts.workload.name(),
        opts.seed,
        opts.seconds,
        opts.trace,
        opts.smoke,
        bitrobust_e2e_bench::threads(),
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
    );

    let (checks, metrics): (Checks, Vec<Metric>) = if opts.trace {
        let traced = run_traced(&opts);
        (traced.checks, traced.metrics)
    } else {
        let e = run_e2e(&opts);
        let values =
            [e.setup_s, procfs::peak_rss_mb(), e.throughput, e.latency_p50_ms, e.error_pct];
        let metrics: Vec<Metric> =
            END_TO_END.iter().zip(values).map(|(&(n, u), v)| Metric::new(n, v, u)).collect();
        for m in &e.named {
            println!("metric {} {} {}", m.name, m.value, m.unit);
        }
        let failed_frac = e.checks.failed as f64 / e.checks.attempted.max(1) as f64;
        println!("metric failed_frac {failed_frac} ratio");
        (e.checks, metrics)
    };
    for m in &metrics {
        println!("metric {} {} {}", m.name, m.value, m.unit);
    }
    for failure in &checks.failures {
        eprintln!("check failed: {failure}");
    }
    println!("{}", report::result_json(&checks, &metrics));
    if checks.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
