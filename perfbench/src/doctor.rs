//! The `doctor_replay` workload: forensic correlation of a storm trace.
//!
//! Set-up captures the full host-tagged event stream of one
//! `sim_dis_storm` run through a `CollectorSink` (about 650 thousand
//! records). The timed part replays that capture through the batch
//! `analyze()` and through an `OnlineAnalyzer` fold, alternately, and
//! checks that the two reports agree. The protocol figures describe the
//! run the capture replays: its delivered ratio and wire overhead as
//! the simulator counted them, and its recovery latencies as the
//! correlator reconstructs them from the trace.

use std::sync::Arc;
use std::time::Instant;

use lbrm::harness::DisScenario;
use lbrm_core::trace::analyze::{analyze, AnalyzeConfig, RecoveryReport};
use lbrm_core::trace::{CollectorSink, OnlineAnalyzer, OnlineConfig, TraceRecord, TraceSink};

use crate::report::{fmt_num, median, peak_rss_mb, percentile, Report};
use crate::sim::{payload, Outcome, Shape};
use crate::span::{self, per, Layer, LayerTimes};

/// Captures set up per run (the last one is replayed).
const CAPTURES: usize = 3;

/// Runs a sim workload (`sim_dis_storm` for this workload) with a
/// collector attached and returns its trace and what the run produced.
pub fn capture(shape: &Shape, seed: u64) -> (Vec<TraceRecord>, Outcome) {
    let collector = Arc::new(CollectorSink::default());
    let sink: Arc<dyn TraceSink> = collector.clone();
    let mut sc = DisScenario::build_with_sink(shape.config(seed), Some(sink));
    for seq in 1..=shape.packets {
        sc.send_at(shape.due(seq), payload(seed, seq));
    }
    let until = shape.horizon();
    while sc.world.now() < until && sc.world.step() {}
    let out = Outcome::of_scenario(&sc, shape, seed);
    drop(sc);
    (collector.take(), out)
}

/// The report fields both correlators must agree on.
fn verdict(r: &RecoveryReport) -> (usize, usize, Vec<&'static str>) {
    let mut kinds: Vec<&'static str> = r.anomalies.iter().map(|a| a.kind()).collect();
    kinds.sort_unstable();
    (r.recovered, r.unrecovered, kinds)
}

/// One batch pass and one online pass; with `traced`, the batch pass
/// and every online push are spans.
struct Pass {
    analyze_s: f64,
    online_s: f64,
    agree: bool,
    recovered: usize,
    /// Reconstructed loss-to-recovery latencies, ns, ascending; emptied
    /// by [`settle`] once compared, so a run holds a single copy.
    recovery_ns: Vec<u64>,
    /// Whether `recovery_ns` equalled the first pass's.
    same_latencies: bool,
    peak_resident_bytes: u64,
}

fn pass(records: &[TraceRecord], traced: bool) -> Pass {
    let t = Instant::now();
    let batch = {
        let _g = traced.then(|| span::enter(Layer::Analyze));
        analyze(records, &AnalyzeConfig::default())
    };
    let analyze_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let mut online = OnlineAnalyzer::new(OnlineConfig::default());
    if traced {
        for r in records {
            let _g = span::enter(Layer::Online);
            online.push_record(r);
        }
    } else {
        for r in records {
            online.push_record(r);
        }
    }
    let peak_resident_bytes = online.peak_resident_bytes();
    let streamed = online.finish();
    let online_s = t.elapsed().as_secs_f64();
    let mut recovery_ns: Vec<u64> = batch
        .timelines
        .iter()
        .filter_map(|t| t.recovery_latency_nanos)
        .collect();
    recovery_ns.sort_unstable();
    Pass {
        analyze_s,
        online_s,
        agree: verdict(&batch) == verdict(&streamed),
        recovered: batch.recovered,
        recovery_ns,
        same_latencies: true,
        peak_resident_bytes,
    }
}

/// Compares a pass's reconstructed latencies with the first pass's,
/// which `first` keeps, and drops the pass's own copy.
fn settle(mut p: Pass, first: &mut Option<Vec<u64>>) -> Pass {
    let mine = std::mem::take(&mut p.recovery_ns);
    match first {
        None => *first = Some(mine),
        Some(f) => p.same_latencies = *f == mine,
    }
    p
}

/// Runs the workload.
pub fn run(opts: &crate::Opts) -> Report {
    let mut rep = Report::default();
    let captures = if opts.smoke { 1 } else { CAPTURES };
    let mut setup_s = Vec::new();
    let mut records = Vec::new();
    let mut replayed = None;
    for _ in 0..captures {
        drop(std::mem::take(&mut records));
        let t = Instant::now();
        let (r, out) = capture(&Shape::storm(), opts.seed);
        setup_s.push(t.elapsed().as_secs_f64());
        records = r;
        replayed = Some(out);
    }
    let replayed = replayed.expect("at least one capture");
    let n = records.len() as u64;
    let start = Instant::now();
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut times = LayerTimes::default();
    let mut lat = None;
    loop {
        plain.push(settle(pass(&records, false), &mut lat));
        if opts.trace {
            drop(span::take_local());
            span::reserve(records.len() + 1);
            traced.push(settle(pass(&records, true), &mut lat));
            times.add(&span::take_local());
        }
        if opts.smoke || start.elapsed() >= opts.seconds {
            break;
        }
    }
    let all: Vec<&Pass> = plain.iter().chain(&traced).collect();
    rep.attempted = all.len() as u64;
    rep.failed = all.iter().filter(|p| !p.agree).count() as u64;
    let failed = rep.failed;
    rep.check(failed == 0, || {
        format!("{failed} passes: batch and online reports disagree")
    });
    rep.check(
        all.iter()
            .all(|p| p.recovered == all[0].recovered && p.same_latencies)
            && lat.as_ref().is_some_and(|l| !l.is_empty()),
        || "passes over the same capture reconstructed different recoveries".into(),
    );
    rep.note(format!(
        "{n} records, {} recoveries, {} untraced passes",
        plain[0].recovered,
        plain.len()
    ));
    let k = plain.len();
    if !opts.trace {
        let fastest = |f: fn(&Pass) -> f64| plain.iter().map(f).fold(f64::INFINITY, f64::min);
        rep.note(format!(
            "fastest pass: analyze {} records/s, online {} records/s",
            fmt_num(n as f64 / fastest(|p| p.analyze_s)),
            fmt_num(n as f64 / fastest(|p| p.online_s)),
        ));
        let out = &replayed;
        let lat = lat.as_deref().unwrap_or_default();
        rep.put("setup_s", median(&setup_s), setup_s.len());
        rep.put("peak_rss_mb", peak_rss_mb(), 1);
        rep.put(
            "host_us_per_op",
            (fastest(|p| p.analyze_s) + fastest(|p| p.online_s)) * 1e6 / n as f64,
            k,
        );
        rep.put(
            "delivered_ratio",
            per(out.delivered_pairs, out.expected_pairs),
            out.expected_pairs as usize,
        );
        rep.put("recovery_ms_p50", percentile(lat, 0.50) as f64 / 1e6, lat.len());
        rep.put("recovery_ms_p99", percentile(lat, 0.99) as f64 / 1e6, lat.len());
        rep.put(
            "overhead_bytes_per_delivery",
            per(out.wire_bytes(), out.deliveries()),
            out.deliveries() as usize,
        );
        return rep;
    }
    for line in times.table() {
        rep.note(line);
    }
    let passes = traced.len() as u64;
    rep.put(
        "trace.analyze.ns_per_record",
        per(times.total_ns[Layer::Analyze.idx()], n * passes),
        traced.len(),
    );
    rep.put(
        "trace.online.ns_per_record",
        per(times.total_ns[Layer::Online.idx()], n * passes),
        traced.len(),
    );
    rep.put(
        "trace.online.peak_resident_bytes",
        traced[0].peak_resident_bytes as f64,
        1,
    );
    let cost = |ps: &[Pass]| {
        median(
            &ps.iter()
                .map(|p| p.analyze_s + p.online_s)
                .collect::<Vec<_>>(),
        )
    };
    rep.put(
        "tracing.overhead_ratio",
        cost(&traced) / cost(&plain),
        traced.len(),
    );
    rep
}
