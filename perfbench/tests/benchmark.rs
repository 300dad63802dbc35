//! The benchmark's own tests: metric names against `BENCHMARK.json`,
//! seed-determinism of the workload generators, exact reproduction of
//! the untraced run by the traced one, repeatable allocation counts,
//! and a planted allocation showing up as exactly +1 per machine call.
//!
//! Run from the repository root:
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::sync::Mutex;

use lbrm_core::machine::{Actions, Machine};
use lbrm_core::time::Time;
use lbrm_core::trace::Tracer;
use lbrm_perfbench::report::{self, Report, END_TO_END, PER_LAYER, WORKLOADS};
use lbrm_perfbench::sim::{self, payload, run_plain, run_traced, Bare, Plant, Shape};
use lbrm_perfbench::span::Layer;
use lbrm_wire::{HostId, Packet};

/// The allocation counters are process-wide: tests that run workloads
/// take this lock so no other test allocates inside their spans.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// A paper-shaped world small enough for a debug build.
fn small(shape: Shape) -> Shape {
    Shape {
        sites: 4,
        receivers_per_site: 3,
        packets: 60,
        ..shape
    }
}

/// `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{list}\""))
        .expect("metric list present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("list closes")];
    let field = |obj: &str, key: &str| -> String {
        let k = format!("\"{key}\": \"");
        let at = obj.find(&k).unwrap_or_else(|| panic!("{key} in {obj}")) + k.len();
        obj[at..at + obj[at..].find('"').expect("string closes")].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

#[test]
fn metric_names_match_benchmark_json() {
    let _g = serial();
    let owned = |t: Vec<(&str, &str)>| -> Vec<(String, String)> {
        t.into_iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(declared("end_to_end"), owned(END_TO_END.to_vec()));
    assert_eq!(declared("per_layer"), owned(report::expected(true)));
    assert_eq!(report::expected(false), END_TO_END);
    // Every per-layer metric measures a layer some workload exercises.
    for (name, _, ws) in PER_LAYER {
        assert!(!ws.is_empty(), "{name} is measured by no workload");
        assert!(ws.iter().all(|w| WORKLOADS.contains(w)), "{name}: {ws:?}");
    }
}

#[test]
fn workload_names_match_benchmark_json() {
    let _g = serial();
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let start = text.find("\"workloads\"").expect("workloads listed");
    let body = &text[start..start + text[start..].find(']').expect("list closes")];
    let names: Vec<&str> = body
        .split("\"name\": \"")
        .skip(1)
        .map(|s| &s[..s.find('"').expect("string closes")])
        .collect();
    assert_eq!(names, WORKLOADS);
}

#[test]
fn refuses_to_run_under_an_lbrm_knob() {
    for knob in [
        "LBRM_SIM_QUEUE",
        "LBRM_SIM_SHARDS",
        "LBRM_LOG_STORE",
        "LBRM_BUNDLE",
    ] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_lbrm-perfbench"))
            .args(["--workload", "sim_dis_steady", "--seconds", "1"])
            .env(knob, "1")
            .output()
            .expect("benchmark binary runs");
        assert!(!out.status.success(), "{knob} must be refused");
        assert!(out.stdout.is_empty(), "{knob}: no result may be printed");
    }
}

#[test]
fn a_missing_or_undeclared_metric_fails_the_run() {
    let _g = serial();
    let mut rep = Report::default();
    for (name, _) in report::expected(false).into_iter().skip(1) {
        rep.put(name, 1.0, 1);
    }
    rep.put("sim.events", 1.0, 1);
    rep.finish("udp_loopback", false);
    assert_eq!(rep.problems.len(), 2, "{:?}", rep.problems);

    let mut rep = Report::default();
    for (name, _) in report::expected(false) {
        rep.put(name, 1.5, 1);
    }
    rep.finish("udp_loopback", false);
    assert!(rep.problems.is_empty(), "{:?}", rep.problems);
    assert_eq!(rep.metrics.len(), END_TO_END.len());
}

#[test]
fn a_traced_run_prints_every_per_layer_metric() {
    let _g = serial();
    // Measuring a layer the workload does not exercise is a problem;
    // the metrics of idle layers are filled in as 0.
    let mut rep = Report::default();
    rep.put("net.send.calls", 4.0, 1);
    rep.finish("doctor_replay", true);
    assert_eq!(rep.problems.len(), 5, "{:?}", rep.problems);

    let mut rep = Report::default();
    for (name, _, ws) in PER_LAYER {
        if ws.contains(&"doctor_replay") {
            rep.put(name, 2.5, 1);
        }
    }
    rep.finish("doctor_replay", true);
    assert!(rep.problems.is_empty(), "{:?}", rep.problems);
    let names: Vec<&str> = rep.metrics.iter().map(|m| m.name).collect();
    let want: Vec<&str> = report::expected(true).iter().map(|(n, _)| *n).collect();
    assert_eq!(names, want);
    assert!(rep
        .metrics
        .iter()
        .all(|m| (m.value == 0.0) != report::exercises("doctor_replay", m.name)));
}

#[test]
fn generators_are_seed_deterministic() {
    let _g = serial();
    assert_eq!(payload(7, 3), payload(7, 3));
    assert_ne!(payload(7, 3), payload(8, 3));
    assert_ne!(payload(7, 3), payload(7, 4));
    assert_eq!(payload(7, 3).len(), sim::PAYLOAD_BYTES);
    for shape in [Shape::steady(), Shape::storm()] {
        let shape = small(shape);
        let a = run_plain(&shape, 11).out;
        let b = run_plain(&shape, 11).out;
        let c = run_plain(&shape, 12).out;
        assert_eq!(a, b, "same seed, same outputs");
        assert_ne!(a.digests, c.digests, "another seed, other inputs");
        assert!(a.delivered_pairs > 0 && a.bad_payloads == 0 && a.repeated_pairs == 0);
    }
    let shape = small(Shape::storm());
    let one = lbrm_perfbench::doctor::capture(&shape, 5);
    let two = lbrm_perfbench::doctor::capture(&shape, 5);
    assert!(!one.0.is_empty());
    assert_eq!(one, two, "the doctor capture is a function of the seed");
    assert_eq!(one.1, run_plain(&shape, 5).out, "capturing changes nothing the run produces");
}

#[test]
fn traced_run_reproduces_the_untraced_run() {
    let _g = serial();
    for shape in [Shape::steady(), Shape::storm()] {
        let shape = small(shape);
        let plain = run_plain(&shape, 3);
        let traced = run_traced::<Bare>(&shape, 3, 0);
        assert_eq!(traced.sample.out.events, plain.out.events);
        assert_eq!(traced.sample.out.net, plain.out.net);
        assert_eq!(traced.sample.out.digests, plain.out.digests);
        assert_eq!(traced.sample.out, plain.out);
        let t = &traced.times;
        assert_eq!(
            t.count[Layer::SimStep.idx()],
            plain.out.events,
            "one step span per event"
        );
        assert!(t.count[Layer::Receiver.idx()] > 0 && t.count[Layer::Sink.idx()] > 0);
    }
}

#[test]
fn allocation_counts_repeat_exactly() {
    let _g = serial();
    for shape in [Shape::steady(), Shape::storm()] {
        let shape = small(shape);
        let a = run_traced::<Bare>(&shape, 9, 0);
        let b = run_traced::<Bare>(&shape, 9, 0);
        assert_eq!(a.sample.allocs, b.sample.allocs, "per-layer counts");
        assert!(a.sample.allocs.count_of(Layer::Receiver) > 0);
        assert_eq!(
            run_plain(&shape, 9).allocs,
            run_plain(&shape, 9).allocs,
            "untraced totals"
        );
    }
}

/// Allocates once on every machine call, inside the machine's span.
struct PlantOne;

struct Planted<T>(T);

fn plant() {
    std::hint::black_box(Box::new(0u64));
}

impl<T: Machine> Machine for Planted<T> {
    fn on_start(&mut self, now: Time, out: &mut Actions) {
        plant();
        self.0.on_start(now, out);
    }
    fn set_tracer(&mut self, tracer: Tracer) {
        self.0.set_tracer(tracer);
    }
    fn on_packet(&mut self, now: Time, from: HostId, packet: Packet, out: &mut Actions) {
        plant();
        self.0.on_packet(now, from, packet, out);
    }
    fn poll(&mut self, now: Time, out: &mut Actions) {
        plant();
        self.0.poll(now, out);
    }
    fn next_deadline(&self) -> Option<Time> {
        plant();
        self.0.next_deadline()
    }
}

impl Plant for PlantOne {
    type M<T: Machine + Send + 'static> = Planted<T>;
    fn wrap<T: Machine + Send + 'static>(m: T) -> Planted<T> {
        Planted(m)
    }
    fn get<T: Machine + Send + 'static>(m: &Planted<T>) -> &T {
        &m.0
    }
    fn app<T: Machine + Send + 'static>(m: &mut Planted<T>) -> &mut T {
        plant();
        &mut m.0
    }
}

#[test]
fn a_planted_allocation_shows_as_one_more_per_call() {
    let _g = serial();
    let shape = small(Shape::storm());
    let bare = run_traced::<Bare>(&shape, 4, 0);
    let planted = run_traced::<PlantOne>(&shape, 4, 0);
    assert_eq!(
        planted.sample.out, bare.sample.out,
        "planting changes no behaviour"
    );
    for l in [
        Layer::Sender,
        Layer::Primary,
        Layer::Secondary,
        Layer::Receiver,
    ] {
        let calls = bare.times.count[l.idx()];
        assert!(calls > 0, "{l:?} was called");
        assert_eq!(planted.times.count[l.idx()], calls, "{l:?} calls");
        assert_eq!(
            planted.sample.allocs.count_of(l) - bare.sample.allocs.count_of(l),
            calls,
            "{l:?}: exactly one extra allocation per call"
        );
    }
    let per_call = |t: &sim::TracedSample, name: &str| -> f64 {
        let plain = run_plain(&shape, 4);
        sim::layer_metrics(t, &plain)
            .into_iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v)
            .expect("metric present")
    };
    for role in ["sender", "primary", "secondary", "receiver"] {
        let name = format!("core.{role}.allocs_per_call");
        let d = per_call(&planted, &name) - per_call(&bare, &name);
        assert!((d - 1.0).abs() < 1e-9, "{name} moved by {d}");
    }
    for name in ["harness.allocs_per_call", "trace.allocs_per_record"] {
        assert_eq!(
            per_call(&planted, name),
            per_call(&bare, name),
            "{name} unchanged"
        );
    }
}
