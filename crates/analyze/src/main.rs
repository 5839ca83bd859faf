//! CLI entry point. See `--help` (printed on bad usage) and the crate
//! docs in `lib.rs`.

use std::path::PathBuf;
use std::process::ExitCode;

use bitrobust_analyze::{analyze_workspace, find_workspace_root, rules};

const USAGE: &str = "\
bitrobust-analyze: repo-specific determinism & unsafety lints

USAGE:
    cargo run -p bitrobust-analyze -- [OPTIONS]

OPTIONS:
    --deny             exit non-zero on any finding without an inline
                       `// analyze:allow(rule, reason)` (CI mode)
    --root <DIR>       workspace root (default: walk up from cwd)
    --json <FILE>      also write the machine-readable report there
    --list-rules       print the rule catalogue and exit
";

struct Args {
    deny: bool,
    root: Option<PathBuf>,
    json: Option<PathBuf>,
    list_rules: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { deny: false, root: None, json: None, list_rules: false };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--deny" => args.deny = true,
            "--list-rules" => args.list_rules = true,
            "--root" => args.root = Some(next_path(&mut it, "--root")?),
            "--json" => args.json = Some(next_path(&mut it, "--json")?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn next_path(it: &mut impl Iterator<Item = String>, flag: &str) -> Result<PathBuf, String> {
    it.next().map(PathBuf::from).ok_or_else(|| format!("{flag} requires a value"))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    if args.list_rules {
        for r in rules::RULES {
            println!("{:<22} {}", r.id, r.doc.split_whitespace().collect::<Vec<_>>().join(" "));
        }
        return ExitCode::SUCCESS;
    }

    let cwd = std::env::current_dir().expect("cwd");
    let Some(root) = args.root.or_else(|| find_workspace_root(&cwd)) else {
        eprintln!("error: no workspace root found (pass --root)");
        return ExitCode::from(2);
    };

    let report = match analyze_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };

    print!("{}", report.render_text());

    if let Some(json_path) = args.json {
        if let Err(e) = std::fs::write(&json_path, report.render_json()) {
            eprintln!("error: writing {}: {e}", json_path.display());
            return ExitCode::from(2);
        }
    }

    if args.deny && report.violations() > 0 {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
