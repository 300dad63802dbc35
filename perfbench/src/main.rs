//! Command line: `lbrm-perfbench --workload <name> --seed <n>
//! --seconds <s> --trace <0|1>`, or `--smoke` for one sample of every
//! workload. Prints one line per metric, then the result as one JSON
//! object on the last line.

use std::process::ExitCode;
use std::time::Duration;

use lbrm_perfbench::{report, run_workload, Opts};

const USAGE: &str = "usage: lbrm-perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]\n       lbrm-perfbench --smoke [--seed N] [--trace 0|1]";

fn main() -> ExitCode {
    match real_main() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("lbrm-perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn real_main() -> Result<ExitCode, String> {
    let mut workload = None;
    let mut opts = Opts {
        seed: 1,
        seconds: Duration::from_secs(10),
        trace: false,
        smoke: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut val = || {
            args.next()
                .ok_or_else(|| format!("{a} needs a value\n{USAGE}"))
        };
        match a.as_str() {
            "--workload" => workload = Some(val()?),
            "--seed" => opts.seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = val()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                opts.seconds = Duration::from_secs_f64(s);
            }
            "--trace" => {
                opts.trace = match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got {v:?}")),
                }
            }
            "--smoke" => opts.smoke = true,
            "-h" | "--help" => {
                println!("{USAGE}");
                return Ok(ExitCode::SUCCESS);
            }
            _ => return Err(format!("unknown argument {a:?}\n{USAGE}")),
        }
    }
    refuse_knobs()?;
    println!("# {}", report::fingerprint(opts.seed));
    let workloads: Vec<String> = match (workload, opts.smoke) {
        (Some(w), _) => vec![w],
        (None, true) => report::WORKLOADS.iter().map(|w| w.to_string()).collect(),
        (None, false) => return Err(format!("--workload is required\n{USAGE}")),
    };
    let mut all_correct = true;
    for w in &workloads {
        println!(
            "# workload {w} seed={} trace={} smoke={}",
            opts.seed,
            u8::from(opts.trace),
            opts.smoke
        );
        let rep = run_workload(w, &opts)?;
        all_correct &= rep.problems.is_empty();
        rep.print(opts.trace);
    }
    // A single workload exits 0 once its result is printed (the verdict
    // is the result's `correct` field); a smoke run fails if any failed.
    Ok(if all_correct || !opts.smoke {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// Refuses to run under any `LBRM_*` environment knob: CI's test matrix
/// sets several (`LBRM_SIM_QUEUE`, `LBRM_SIM_SHARDS`, `LBRM_LOG_STORE`,
/// `LBRM_BUNDLE`), and a benchmark result must not silently measure a
/// non-default configuration.
fn refuse_knobs() -> Result<(), String> {
    let set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("LBRM_"))
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "refusing to run with {} set: every workload measures the default configuration",
            set.join(", ")
        ))
    }
}
