//! CLI contract tests for the `trace_doctor` binary: `--mem-budget`
//! and `--horizon-ms` must reject malformed or overflowing values with
//! a usage error (not silently misread them), replayed captures with
//! extreme timestamps must not overflow the analyzer, and
//! `--assert-clean` must turn protocol anomalies into a nonzero exit
//! code for CI.

use std::io::Write as _;
use std::process::{Command, Output};

use lbrm_bench::doctor::analyze_jsonl;
use lbrm_core::trace::analyze::AnalyzeConfig;
use lbrm_core::trace::ProtocolEvent;
use lbrm_wire::{EpochId, HostId, Seq};

fn doctor(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_trace_doctor"))
        .args(args)
        .output()
        .expect("spawn trace_doctor")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn write_trace(name: &str, lines: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!(
        "lbrm-doctor-cli-{}-{name}.jsonl",
        std::process::id()
    ));
    let mut f = std::fs::File::create(&path).expect("create temp trace");
    f.write_all(lines.as_bytes()).expect("write temp trace");
    path
}

/// A minimal anomaly-free capture: one data packet, no open recoveries.
fn clean_trace() -> String {
    ProtocolEvent::DataSent {
        seq: Seq(1),
        epoch: EpochId(0),
    }
    .to_json(1_000_000, HostId(1))
        + "\n"
}

/// A capture with a gap that is never repaired: the analyzer must close
/// it as an `unrecovered_gap` anomaly at end-of-run.
fn unclean_trace() -> String {
    let src = HostId(1);
    let rx = HostId(2);
    let mut s = String::new();
    for seq in [1u32, 3] {
        s += &ProtocolEvent::DataSent {
            seq: Seq(seq),
            epoch: EpochId(0),
        }
        .to_json(u64::from(seq) * 1_000_000, src);
        s.push('\n');
    }
    s += &ProtocolEvent::GapDetected {
        first: Seq(2),
        last: Seq(2),
    }
    .to_json(4_000_000, rx);
    s.push('\n');
    s
}

#[test]
fn malformed_mem_budget_is_a_usage_error() {
    for bad in ["12T", "1.5M", "K", "12XB"] {
        let out = doctor(&["--mem-budget", bad]);
        assert!(!out.status.success(), "--mem-budget {bad} must be rejected");
        let err = stderr(&out);
        assert!(
            err.contains("--mem-budget"),
            "error must name the flag: {err}"
        );
    }
    let out = doctor(&["--mem-budget", "12T"]);
    assert!(stderr(&out).contains("unknown size suffix"));
}

#[test]
fn overflowing_horizon_is_a_usage_error() {
    // 18446744073710 ms is the first value whose nanoseconds exceed u64.
    let out = doctor(&["--horizon-ms", "18446744073710"]);
    assert!(
        !out.status.success(),
        "an overflowing horizon must be rejected"
    );
    let err = stderr(&out);
    assert!(
        err.contains("--horizon-ms"),
        "error must name the flag: {err}"
    );
    assert!(err.contains("overflows"), "{err}");
}

#[test]
fn extreme_timestamps_do_not_overflow_the_settle_check() {
    // A send stamped at the end of the clock in an active epoch: the
    // settle deadline saturates instead of wrapping into a false
    // stalled-settlement anomaly (or a debug-build panic).
    let capture = "{\"at_ns\":1,\"host\":1,\"event\":\"epoch_active\",\"epoch\":1,\"ackers\":1}\n\
                   {\"at_ns\":18446744073709551615,\"host\":1,\"event\":\"data_sent\",\"seq\":1,\"epoch\":1}\n";
    let run = analyze_jsonl(capture, &AnalyzeConfig::default());
    assert_eq!(run.records, 2);
    assert_eq!(run.skipped, 0);
    assert!(run.report.is_clean(), "{:?}", run.report.anomalies);
}

#[test]
fn mem_budget_without_value_is_a_usage_error() {
    let out = doctor(&["--mem-budget"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("needs a value"), "{}", stderr(&out));
}

#[test]
fn well_formed_mem_budget_suffixes_are_accepted() {
    let path = write_trace("budget-ok", &clean_trace());
    // A generous budget in every suffix form: all must parse and pass.
    for budget in ["1073741824", "1048576K", "1024M", "1G"] {
        let out = doctor(&[path.to_str().unwrap(), "--stream", "--mem-budget", budget]);
        assert!(
            out.status.success(),
            "--mem-budget {budget} should parse and pass: {}",
            stderr(&out)
        );
    }
    let _ = std::fs::remove_file(path);
}

#[test]
fn assert_clean_exit_codes_follow_the_report() {
    let clean = clean_trace();
    let unclean = unclean_trace();
    // Anchor the fixtures to the analyzer before trusting exit codes.
    assert!(analyze_jsonl(&clean, &AnalyzeConfig::default())
        .report
        .is_clean());
    assert!(!analyze_jsonl(&unclean, &AnalyzeConfig::default())
        .report
        .is_clean());

    let clean_path = write_trace("clean", &clean);
    let unclean_path = write_trace("unclean", &unclean);

    let out = doctor(&[clean_path.to_str().unwrap(), "--assert-clean", "--json"]);
    assert!(
        out.status.success(),
        "clean trace must exit 0: {}",
        stderr(&out)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("\"clean\":true"));

    let out = doctor(&[unclean_path.to_str().unwrap(), "--assert-clean"]);
    assert!(!out.status.success(), "anomalies must fail --assert-clean");
    assert!(
        stderr(&out).contains("--assert-clean failed"),
        "{}",
        stderr(&out)
    );

    // Without the flag the same anomalies only get reported.
    let out = doctor(&[unclean_path.to_str().unwrap()]);
    assert!(out.status.success(), "reporting mode must exit 0");

    let _ = std::fs::remove_file(clean_path);
    let _ = std::fs::remove_file(unclean_path);
}
