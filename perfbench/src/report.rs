//! Metric names, statistics helpers and the result printer.
//!
//! The benchmark prints one human-readable line per metric (name,
//! value, unit, sample count), then the machine-readable result as the
//! last line of standard output:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.

use std::fmt::Write as _;

/// The four workloads, in the order `--smoke` runs them.
pub const WORKLOADS: [&str; 4] = [
    "sim_dis_steady",
    "sim_dis_storm",
    "udp_loopback",
    "doctor_replay",
];

/// End-to-end metrics: (name, unit). Every workload prints every one
/// of them; `perfbench/README.md` says what each means on each workload
/// (an "op" is a delivered (receiver, seq) pair on the protocol
/// workloads and a correlated trace record on `doctor_replay`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("host_us_per_op", "us"),
    ("delivered_ratio", "fraction"),
    ("recovery_ms_p50", "ms"),
    ("recovery_ms_p99", "ms"),
    ("overhead_bytes_per_delivery", "B"),
];

const SIM: [&str; 2] = ["sim_dis_steady", "sim_dis_storm"];
const SIM_UDP: [&str; 3] = ["sim_dis_steady", "sim_dis_storm", "udp_loopback"];
const UDP: [&str; 1] = ["udp_loopback"];
const DOCTOR: [&str; 1] = ["doctor_replay"];

/// Per-layer metrics of the traced run: (name, unit, the workloads
/// that exercise the layer). Every traced run prints every one of them;
/// a workload that does not exercise a layer prints 0 for its metrics
/// (no calls, no time, no bytes), with a sample count of 0.
pub const PER_LAYER: &[(&str, &str, &[&str])] = &[
    // lbrm-sim
    ("sim.events", "count", &SIM),
    ("sim.ns_per_event", "ns", &SIM),
    ("sim.self_ns_per_event", "ns", &SIM),
    ("sim.queue_depth_max", "count", &SIM),
    ("sim.net.data_bytes", "B", &SIM),
    ("sim.net.heartbeat_bytes", "B", &SIM),
    ("sim.net.nack_bytes", "B", &SIM),
    ("sim.net.retrans_bytes", "B", &SIM),
    // lbrm::harness
    ("harness.self_ns_per_call", "ns", &SIM),
    ("harness.allocs_per_call", "allocs", &SIM),
    // lbrm-core
    ("core.sender.calls", "count", &SIM_UDP),
    ("core.sender.ns_per_call", "ns", &SIM_UDP),
    ("core.sender.allocs_per_call", "allocs", &SIM_UDP),
    ("core.primary.calls", "count", &SIM_UDP),
    ("core.primary.ns_per_call", "ns", &SIM_UDP),
    ("core.primary.allocs_per_call", "allocs", &SIM_UDP),
    ("core.secondary.calls", "count", &SIM),
    ("core.secondary.ns_per_call", "ns", &SIM),
    ("core.secondary.allocs_per_call", "allocs", &SIM),
    ("core.receiver.calls", "count", &SIM_UDP),
    ("core.receiver.ns_per_call", "ns", &SIM_UDP),
    ("core.receiver.allocs_per_call", "allocs", &SIM_UDP),
    ("core.receiver.nacks_sent", "count", &SIM_UDP),
    ("core.receiver.duplicates", "count", &SIM_UDP),
    ("core.receiver.abandoned", "count", &SIM_UDP),
    ("core.logger.repairs_sent", "count", &SIM_UDP),
    ("core.repair_useful_ratio", "fraction", &SIM_UDP),
    ("core.sender.heartbeats_sent", "count", &SIM_UDP),
    // lbrm-trace
    ("trace.records", "count", &SIM),
    ("trace.ns_per_record", "ns", &SIM),
    ("trace.allocs_per_record", "allocs", &SIM),
    ("trace.analyze.ns_per_record", "ns", &DOCTOR),
    ("trace.online.ns_per_record", "ns", &DOCTOR),
    ("trace.online.peak_resident_bytes", "B", &DOCTOR),
    // lbrm-net
    ("net.endpoint.call_wait_us_p50", "us", &UDP),
    ("net.endpoint.call_wait_us_p99", "us", &UDP),
    ("net.endpoint.sender.cpu_us", "us", &UDP),
    ("net.endpoint.logger.cpu_us", "us", &UDP),
    ("net.endpoint.receiver.cpu_us", "us", &UDP),
    ("net.send.calls", "count", &UDP),
    ("net.send.ns_per_call", "ns", &UDP),
    ("net.send.datagrams", "count", &UDP),
    ("net.send.packets_per_datagram", "ratio", &UDP),
    ("net.send.bytes", "B", &UDP),
    ("net.send.errors", "count", &UDP),
    ("net.recv.calls", "count", &UDP),
    ("net.recv.empty_ratio", "fraction", &UDP),
    ("net.recv.truncated", "count", &UDP),
    ("net.recv.decode_errors", "count", &UDP),
    // lbrm-wire
    ("wire.encode_ns_per_packet", "ns", &UDP),
    ("wire.decode_ns_per_packet", "ns", &UDP),
    // whole program
    ("alloc.count_per_event", "allocs", &SIM),
    ("alloc.bytes_per_event", "B", &SIM),
    // the tracing itself
    ("tracing.overhead_ratio", "x", &WORKLOADS),
    ("tracing.span_coverage", "fraction", &SIM),
];

/// The metrics every run prints: end-to-end ones untraced, per-layer
/// ones traced.
pub fn expected(traced: bool) -> Vec<(&'static str, &'static str)> {
    if traced {
        PER_LAYER.iter().map(|(n, u, _)| (*n, *u)).collect()
    } else {
        END_TO_END.to_vec()
    }
}

/// Whether `workload` exercises the layer a per-layer metric measures.
pub fn exercises(workload: &str, metric: &str) -> bool {
    PER_LAYER
        .iter()
        .any(|(n, _, ws)| *n == metric && ws.contains(&workload))
}

/// One measured value.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name (see [`END_TO_END`] / [`PER_LAYER`]).
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
    /// How many samples the value summarises.
    pub samples: usize,
}

/// The result of one benchmark run.
#[derive(Debug, Default)]
pub struct Report {
    /// Metrics, in table order once [`Report::finish`] ran.
    pub metrics: Vec<Metric>,
    /// Failed correctness checks (empty = correct).
    pub problems: Vec<String>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Informational lines printed before the result.
    pub notes: Vec<String>,
}

impl Report {
    /// Records a metric.
    pub fn put(&mut self, name: &'static str, value: f64, samples: usize) {
        self.metrics.push(Metric {
            name,
            value,
            samples,
        });
    }

    /// Records a correctness check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    /// Adds an informational line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Orders metrics by the table, fills in 0 for the per-layer
    /// metrics of layers `workload` does not exercise, and flags any
    /// missing, extra, duplicated or non-finite value as a problem (a
    /// per-layer metric measured on a workload not declared to exercise
    /// its layer counts as extra).
    pub fn finish(&mut self, workload: &str, traced: bool) {
        let want = expected(traced);
        let mut ordered = Vec::with_capacity(want.len());
        for (name, _) in &want {
            let found: Vec<&Metric> = self.metrics.iter().filter(|m| m.name == *name).collect();
            let idle = traced && !exercises(workload, name);
            match found.as_slice() {
                [] if idle => ordered.push(Metric {
                    name,
                    value: 0.0,
                    samples: 0,
                }),
                [_] if idle => self
                    .problems
                    .push(format!("metric {name} is not declared for {workload}")),
                [m] if m.value.is_finite() => ordered.push((*m).clone()),
                [m] => self
                    .problems
                    .push(format!("metric {name} is not finite: {}", m.value)),
                [] => self
                    .problems
                    .push(format!("metric {name} was not measured")),
                _ => self
                    .problems
                    .push(format!("metric {name} was measured twice")),
            }
        }
        for m in &self.metrics {
            if !want.iter().any(|(n, _)| *n == m.name) {
                self.problems
                    .push(format!("metric {} is not declared for {workload}", m.name));
            }
        }
        self.metrics = ordered;
    }

    /// Prints the human-readable lines and the final JSON line.
    pub fn print(&self, traced: bool) {
        let units = expected(traced);
        for n in &self.notes {
            println!("# {n}");
        }
        for p in &self.problems {
            println!("# CHECK FAILED: {p}");
        }
        for m in &self.metrics {
            let unit = unit_of(&units, m.name);
            println!(
                "{:<36} {:>16} {:<10} n={}",
                m.name,
                fmt_num(m.value),
                unit,
                m.samples
            );
        }
        let mut json = String::new();
        let _ = write!(
            json,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.problems.is_empty(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                json,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                fmt_num(m.value),
                unit_of(&units, m.name)
            );
        }
        json.push_str("}}");
        println!("{json}");
    }
}

fn unit_of(units: &[(&'static str, &'static str)], name: &str) -> &'static str {
    units
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .unwrap_or("?")
}

/// A finite number in JSON syntax with all its digits (Rust's shortest
/// round-trip form).
pub fn fmt_num(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Median of `v` (mean of the middle two for even lengths).
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of nothing");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` in `[0, 1]` of an ascending slice.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of nothing");
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}

/// CPU time the calling thread has run, in nanoseconds (from the
/// scheduler's per-thread accounting).
pub fn thread_cpu_ns() -> u64 {
    schedstat("/proc/thread-self/schedstat")
}

/// The first field of a `schedstat` file: nanoseconds on a CPU.
pub fn schedstat(path: &str) -> u64 {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|v| v.parse().ok()))
        .unwrap_or(0)
}

/// The machine and build a result was measured on.
pub fn fingerprint(seed: u64) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rustc = command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into());
    // Only this directory's own repository counts, not an enclosing one.
    let commit = std::path::Path::new(".git")
        .exists()
        .then(|| command_line("git", &["rev-parse", "--short=12", "HEAD"]))
        .flatten()
        .unwrap_or_else(|| "none (not a git checkout)".into());
    format!(
        "fingerprint nproc={nproc} cpu=\"{cpu}\" rustc=\"{rustc}\" commit={commit} tree={:016x} seed={seed}",
        tree_digest()
    )
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// FNV-1a digest of the program's sources (`Cargo.*`, `src/`,
/// `crates/*/src`, and the benchmark's own sources), so results from a
/// checkout that is not a git repository still name the code measured.
fn tree_digest() -> u64 {
    let mut files = Vec::new();
    for root in ["Cargo.toml", "Cargo.lock", "src", "crates", "perfbench/src"] {
        collect(std::path::Path::new(root), &mut files);
    }
    files.sort();
    let mut h = Fnv::new();
    for f in files {
        if let Ok(bytes) = std::fs::read(&f) {
            h.write(f.to_string_lossy().as_bytes());
            h.write(&bytes);
        }
    }
    h.finish()
}

fn collect(p: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
    if p.is_file() {
        if p.extension()
            .is_some_and(|e| e == "rs" || e == "toml" || e == "lock")
        {
            out.push(p.to_path_buf());
        }
    } else if let Ok(rd) = std::fs::read_dir(p) {
        for e in rd.flatten() {
            let path = e.path();
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            collect(&path, out);
        }
    }
}

/// 64-bit FNV-1a, for digests that must not depend on `HashMap` seeds.
pub struct Fnv(u64);

impl Fnv {
    /// A fresh digest.
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Mixes `bytes` in.
    pub fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Mixes a `u64` in.
    pub fn u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The digest.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv {
    fn default() -> Self {
        Fnv::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50);
        assert_eq!(percentile(&v, 0.99), 99);
    }

    #[test]
    fn numbers_print_as_json() {
        assert_eq!(fmt_num(3.0), "3");
        assert_eq!(fmt_num(0.25), "0.25");
    }
}
