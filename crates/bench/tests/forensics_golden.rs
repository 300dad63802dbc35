//! Golden forensic reports: the batch `analyze()` report and the default
//! `OnlineAnalyzer` fold's report, pinned byte for byte on seeded
//! captures that cover every correlator path the protocol exercises —
//! secondary/parent/late-original repairs (the demo DIS runs), a lossier
//! WAN, a partitioned stale primary that an election deposes (the
//! election detectors), a stale serve the receiver fences (the
//! split-brain detectors and the fenced-reject count), and two captures
//! concatenated out of timestamp order (the batch sort and the online
//! out-of-order count).
//!
//! Each golden file holds the report's `to_json()` line followed by one
//! `render()` line per retained timeline, in report order. The online
//! files blank `stream.peak_resident_bytes`: that figure estimates the
//! fold's own resident state and moves with the indexes the fold keeps;
//! it is not a forensic result.
//!
//! Regenerate with `LBRM_BLESS_GOLDEN=1 cargo test -p lbrm-bench --test
//! forensics_golden` — only when a report change is intended.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use lbrm::harness::{DisScenario, DisScenarioConfig};
use lbrm::sim::loss::LossModel;
use lbrm::sim::time::SimTime;
use lbrm::sim::topology::SiteParams;
use lbrm_bench::chaos::run_shape_with_capture;
use lbrm_bench::doctor::{demo_config, run_scenario};
use lbrm_core::trace::analyze::{analyze, AnalyzeConfig, RecoveryReport};
use lbrm_core::trace::{
    CollectorSink, OnlineAnalyzer, OnlineConfig, ProtocolEvent, TraceRecord, TraceSink,
};
use lbrm_sim::queue::QueueBackend;

#[path = "../../../tests/support/fenced_stale_primary.rs"]
mod fenced_stale_primary;

use fenced_stale_primary::OLD_PRIMARY;

/// Renders a report the way the golden files store it.
fn render(report: &RecoveryReport, blank_peak_bytes: bool) -> String {
    let mut json = report.to_json();
    if blank_peak_bytes {
        let key = "\"peak_resident_bytes\":";
        let start = json.find(key).expect("stream stats in report JSON") + key.len();
        let end = start
            + json[start..]
                .find(|c: char| !c.is_ascii_digit())
                .expect("number is followed by more JSON");
        json.replace_range(start..end, "_");
    }
    let mut out = json;
    out.push('\n');
    for t in &report.timelines {
        out.push_str(&t.render());
        out.push('\n');
    }
    out
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.txt"))
}

fn check_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("LBRM_BLESS_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).expect("create golden dir");
        std::fs::write(&path, actual).expect("write golden file");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{}: {e} (bless with LBRM_BLESS_GOLDEN=1)", path.display()));
    if actual != expected {
        let line = actual
            .lines()
            .zip(expected.lines())
            .position(|(a, e)| a != e)
            .unwrap_or_else(|| actual.lines().count().min(expected.lines().count()));
        panic!(
            "{name}: report differs from {} at line {}\n  actual:   {}\n  expected: {}",
            path.display(),
            line + 1,
            actual.lines().nth(line).unwrap_or("<end>"),
            expected.lines().nth(line).unwrap_or("<end>"),
        );
    }
}

/// Pins both engines on `records`; `batch` is the report `analyze()`
/// produced for them (possibly through a driver such as `run_scenario`).
fn pin(name: &str, records: &[TraceRecord], batch: &RecoveryReport) {
    assert!(!records.is_empty(), "{name}: capture is empty");
    assert_eq!(
        render(batch, false),
        render(&analyze(records, &AnalyzeConfig::default()), false),
        "{name}: the driver's report must be analyze() over the capture"
    );
    check_golden(&format!("{name}.batch"), &render(batch, false));
    let mut online = OnlineAnalyzer::new(OnlineConfig::default());
    for r in records {
        online.push_record(r);
    }
    check_golden(&format!("{name}.online"), &render(&online.finish(), true));
}

/// `trace_doctor`'s built-in run for `seed`, with the raw capture.
fn demo_capture(seed: u64) -> (Vec<TraceRecord>, RecoveryReport) {
    let collector = Arc::new(CollectorSink::default());
    let (run, _) = run_scenario(
        demo_config(seed),
        20,
        SimTime::from_secs(30),
        &AnalyzeConfig::default(),
        Some(collector.clone() as Arc<dyn TraceSink>),
    );
    (collector.take(), run.report)
}

#[test]
fn demo_runs_seeds_1_to_3() {
    for seed in 1..=3 {
        let (records, report) = demo_capture(seed);
        pin(&format!("demo_seed{seed}"), &records, &report);
    }
}

/// The lossy-WAN scenario of the root crate's `forensics_sim` tests.
#[test]
fn lossy_wan() {
    let collector = Arc::new(CollectorSink::default());
    let mut sc = DisScenario::build_with_sink(
        DisScenarioConfig {
            sites: 6,
            receivers_per_site: 4,
            site_params: SiteParams {
                tail_in_loss: LossModel::rate(0.08),
                ..SiteParams::distant()
            },
            receiver_nack_delay: Duration::from_millis(5),
            seed: 4242,
            ..DisScenarioConfig::default()
        },
        Some(collector.clone() as Arc<dyn TraceSink>),
    );
    for i in 0..20 {
        sc.send_at(SimTime::from_millis(1_000 + 400 * i), format!("update-{i}"));
    }
    sc.world.run_until(SimTime::from_secs(60));
    let records = collector.take();
    let report = analyze(&records, &AnalyzeConfig::default());
    pin("lossy_wan", &records, &report);
}

/// The chaos matrix's partition-then-heal shape at seed 1 (wheel
/// backend): the old primary is cut off, a new term is elected, and the
/// heal deposes the old primary. Every serve carries its term, so the
/// election detectors run on real input.
#[test]
fn chaos_partition_stale_primary_seed1() {
    let (cell, records) = run_shape_with_capture("partition-stale-primary", 1, QueueBackend::Wheel);
    let count = |key: &str| records.iter().filter(|r| r.event.key() == key).count();
    assert!(
        count("term_elected") > 0,
        "the partition must force an election"
    );
    assert!(
        count("authority_serve") > 0,
        "serves must carry term authority"
    );
    pin("chaos_partition_seed1", &records, &cell.report);
}

/// The sans-IO fenced-stale-primary script of the root crate's
/// `chaos_sim` test: the deposed primary serves a repair under its old
/// term and the receiver fences it, so the split-brain detectors and
/// the fenced-reject count run on a real stale serve.
#[test]
fn chaos_fenced_stale_serve() {
    let records = fenced_stale_primary::capture();
    assert!(
        records.iter().any(|r| r.host == OLD_PRIMARY
            && matches!(r.event, ProtocolEvent::AuthorityServe { term: 0, .. })),
        "the deposed primary must serve under its old term"
    );
    let report = analyze(&records, &AnalyzeConfig::default());
    assert!(
        report.fenced_rejects >= 1,
        "the fence must reject the serve"
    );
    pin("chaos_fenced_stale_serve", &records, &report);
}

/// Two seeded captures back to back: the second restarts at t = 0, so
/// the concatenation is out of timestamp order at the seam.
#[test]
fn concatenated_captures_out_of_order() {
    let (mut records, _) = demo_capture(4);
    let seam = records.len();
    records.extend(demo_capture(5).0);
    assert!(records[seam].at_nanos < records[seam - 1].at_nanos);
    let report = analyze(&records, &AnalyzeConfig::default());
    assert!(report.stream.out_of_order > 0);
    pin("concat_seed4_seed5", &records, &report);
}
