//! The simulated workloads, `sim_dis_steady` and `sim_dis_storm`.
//!
//! Both run the paper-scale `DisScenario` (50 sites × 20 receivers,
//! site secondaries, variable heartbeat) on one shard: 1,200 updates of
//! 128 bytes, open loop in simulated time, then 10 s of settling, run to
//! completion in host time. The untraced run is `DisScenario` itself.
//! The traced run builds the same world from the same public
//! constructors with the [`wrap`](crate::wrap) pass-throughs inserted,
//! and must reproduce the untraced run's event count, network
//! statistics and per-receiver delivery digests exactly.

use std::marker::PhantomData;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use lbrm::harness::{DisScenario, DisScenarioConfig, MachineActor};
use lbrm_core::logger::{Logger, LoggerConfig};
use lbrm_core::machine::{Delivery, Machine};
use lbrm_core::receiver::{Receiver, ReceiverConfig, ReceiverStats};
use lbrm_core::sender::{Sender, SenderConfig};
use lbrm_core::trace::{MetricsRegistry, TraceSink, Tracer};
use lbrm_sim::loss::LossModel;
use lbrm_sim::queue::QueueBackend;
use lbrm_sim::stats::{NetStats, SegmentClass};
use lbrm_sim::time::SimTime;
use lbrm_sim::topology::{SiteParams, TopologyBuilder};
use lbrm_sim::world::World;
use lbrm_wire::HostId;

use crate::alloc::{self, AllocSnapshot};
use crate::report::{fmt_num, median, peak_rss_mb, percentile, Report};
use crate::span::{self, per, Layer, LayerTimes};
use crate::wrap::{Tally, TimedActor, TimedMachine, TimedSink};

/// Size of every update's payload.
pub const PAYLOAD_BYTES: usize = 128;

/// The shape of a simulated workload.
#[derive(Clone, Debug)]
pub struct Shape {
    /// Receiver sites.
    pub sites: usize,
    /// Receivers per site.
    pub receivers_per_site: usize,
    /// Update rate, in updates per simulated second.
    pub hz: u64,
    /// Updates sent.
    pub packets: u32,
    /// Inbound tail-circuit loss at every receiver site.
    pub tail_in: LossModel,
    /// LAN loss at every receiver site.
    pub lan: LossModel,
    /// Per-copy delivery jitter at every receiver site.
    pub jitter: Duration,
    /// Simulated time run after the last update.
    pub settle: Duration,
}

/// Simulated time of the first update.
const FIRST_SEND: SimTime = SimTime::from_secs(1);

impl Shape {
    /// `sim_dis_steady`: 2% Bernoulli tail-in loss, 10 Hz.
    pub fn steady() -> Shape {
        Shape {
            sites: 50,
            receivers_per_site: 20,
            hz: 10,
            packets: 1200,
            tail_in: LossModel::rate(0.02),
            lan: LossModel::None,
            jitter: Duration::from_millis(1),
            settle: Duration::from_secs(10),
        }
    }

    /// `sim_dis_storm`: bursty Gilbert tail-in loss plus 2% LAN loss,
    /// 20 Hz.
    pub fn storm() -> Shape {
        Shape {
            hz: 20,
            tail_in: LossModel::Gilbert {
                p_enter_bad: 0.02,
                p_exit_bad: 0.25,
                loss_good: 0.01,
                loss_bad: 0.8,
            },
            lan: LossModel::rate(0.02),
            ..Shape::steady()
        }
    }

    /// The shape of a named sim workload.
    pub fn named(workload: &str) -> Option<Shape> {
        match workload {
            "sim_dis_steady" => Some(Shape::steady()),
            "sim_dis_storm" => Some(Shape::storm()),
            _ => None,
        }
    }

    /// The scenario configuration, every `LBRM_*` knob at its default
    /// except the shard count, pinned to 1.
    pub fn config(&self, seed: u64) -> DisScenarioConfig {
        DisScenarioConfig {
            sites: self.sites,
            receivers_per_site: self.receivers_per_site,
            site_params: SiteParams {
                tail_in_loss: self.tail_in.clone(),
                lan_loss: self.lan.clone(),
                jitter: self.jitter,
                ..SiteParams::distant()
            },
            seed,
            shards: Some(1),
            ..DisScenarioConfig::default()
        }
    }

    /// When update `seq` (1-based) is due.
    pub fn due(&self, seq: u32) -> SimTime {
        FIRST_SEND + Duration::from_nanos(u64::from(seq - 1) * 1_000_000_000 / self.hz)
    }

    /// Where the run stops: the first event at or past this time is
    /// the last one processed.
    pub fn horizon(&self) -> SimTime {
        self.due(self.packets) + self.settle
    }
}

/// The payload of update `seq`: the sequence number, then bytes drawn
/// from `seed`, so a corrupted or misattributed delivery is caught.
pub fn payload(seed: u64, seq: u32) -> Bytes {
    let mut v = Vec::with_capacity(PAYLOAD_BYTES);
    v.extend_from_slice(&seq.to_le_bytes());
    let mut s = seed ^ u64::from(seq).wrapping_mul(0xD6E8_FEB8_6659_FD93);
    while v.len() < PAYLOAD_BYTES {
        s = splitmix(&mut s);
        v.extend_from_slice(&s.to_le_bytes()[..(PAYLOAD_BYTES - v.len()).min(8)]);
    }
    Bytes::from(v)
}

/// One splitmix64 step.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What a run produced: everything the traced run must reproduce, plus
/// the end-to-end quantities derived from it.
#[derive(Clone, Debug, PartialEq)]
pub struct Outcome {
    /// Events the world processed.
    pub events: u64,
    /// Simulated time at the end of the run.
    pub sim_end: SimTime,
    /// Network statistics.
    pub net: NetStats,
    /// Per-receiver digest of (arrival time, seq, recovered, payload).
    pub digests: Vec<u64>,
    /// (receiver, seq) pairs that should be delivered.
    pub expected_pairs: u64,
    /// Distinct (receiver, seq) pairs delivered.
    pub delivered_pairs: u64,
    /// Deliveries of a pair already delivered.
    pub repeated_pairs: u64,
    /// Deliveries whose payload did not match the update sent.
    pub bad_payloads: u64,
    /// Recovered deliveries' latency from the update's due time, ns,
    /// ascending.
    pub recovery_ns: Vec<u64>,
    /// Receiver statistics summed over all receivers.
    pub rx_stats: ReceiverStats,
    /// Highest event-queue depth.
    pub queue_depth_max: usize,
}

impl Outcome {
    fn collect<'w>(
        world: &'w World,
        shape: &Shape,
        seed: u64,
        receivers: &[HostId],
        view: impl Fn(HostId) -> (&'w [(SimTime, Delivery)], ReceiverStats),
    ) -> Outcome {
        let expected: Vec<Bytes> = (1..=shape.packets).map(|s| payload(seed, s)).collect();
        let mut out = Outcome {
            events: world.events_processed(),
            sim_end: world.now(),
            net: world.stats(),
            digests: Vec::with_capacity(receivers.len()),
            expected_pairs: receivers.len() as u64 * u64::from(shape.packets),
            delivered_pairs: 0,
            repeated_pairs: 0,
            bad_payloads: 0,
            recovery_ns: Vec::new(),
            rx_stats: ReceiverStats::default(),
            queue_depth_max: world.queue_depth_max(),
        };
        let mut seen = vec![false; shape.packets as usize + 1];
        for &rx in receivers {
            let (deliveries, stats) = view(rx);
            seen.iter_mut().for_each(|s| *s = false);
            let mut h = crate::report::Fnv::new();
            for (at, d) in deliveries {
                let seq = d.seq.raw();
                h.u64(at.nanos());
                h.u64(u64::from(seq));
                h.u64(u64::from(d.recovered));
                h.write(&d.payload);
                let Some(want) = seq.checked_sub(1).and_then(|i| expected.get(i as usize)) else {
                    out.bad_payloads += 1;
                    continue;
                };
                if d.payload != *want {
                    out.bad_payloads += 1;
                }
                if std::mem::replace(&mut seen[seq as usize], true) {
                    out.repeated_pairs += 1;
                } else {
                    out.delivered_pairs += 1;
                }
                if d.recovered {
                    out.recovery_ns.push(at.nanos() - shape.due(seq).nanos());
                }
            }
            out.digests.push(h.finish());
            let s = &mut out.rx_stats;
            s.delivered += stats.delivered;
            s.recovered += stats.recovered;
            s.losses_detected += stats.losses_detected;
            s.abandoned += stats.abandoned;
            s.duplicates += stats.duplicates;
        }
        out.recovery_ns.sort_unstable();
        out
    }

    /// What a finished `DisScenario` run of `shape` produced.
    pub fn of_scenario(sc: &DisScenario, shape: &Shape, seed: u64) -> Outcome {
        let receivers = sc.all_receivers();
        Outcome::collect(&sc.world, shape, seed, &receivers, |rx| {
            let a = sc.world.actor::<MachineActor<Receiver>>(rx);
            (&a.deliveries[..], a.machine().stats())
        })
    }

    /// Deliveries made (every pair delivered, counting repeats).
    pub fn deliveries(&self) -> u64 {
        self.delivered_pairs + self.repeated_pairs
    }

    /// Bytes carried on every network segment.
    pub fn wire_bytes(&self) -> u64 {
        [
            SegmentClass::Lan,
            SegmentClass::TailOut,
            SegmentClass::TailIn,
            SegmentClass::Wan,
        ]
        .iter()
        .map(|c| self.net.class_total(*c).bytes)
        .sum()
    }

    /// Bytes of one packet kind carried on every segment.
    pub fn kind_bytes(&self, kind: &str) -> u64 {
        [
            SegmentClass::Lan,
            SegmentClass::TailOut,
            SegmentClass::TailIn,
            SegmentClass::Wan,
        ]
        .iter()
        .map(|c| self.net.class_kind(*c, kind).bytes)
        .sum()
    }
}

/// One untraced or traced sample.
pub struct Sample {
    /// Host seconds to build the world and schedule the updates.
    pub setup_s: f64,
    /// Host seconds to run it.
    pub run_s: f64,
    /// Host seconds per leg of the simulated span (untraced samples;
    /// see [`LEGS`]).
    pub leg_s: Vec<f64>,
    /// Allocations while running, by layer.
    pub allocs: AllocSnapshot,
    /// What it produced.
    pub out: Outcome,
}

/// Runs the world until the first event at or past `until`.
fn drive(world: &mut World, until: SimTime) {
    while world.now() < until && world.step() {}
}

/// Equal slices of simulated time an untraced sample is timed in. Every
/// sample of a seed does identical work in each leg, so
/// `host_us_per_op` takes each leg's fastest time over the run's
/// samples: interference from other tenants comes in bursts shorter
/// than a sample and only ever adds time. Short legs (about 10 ms of
/// host time) catch more of the quiet moments between bursts.
pub const LEGS: usize = 100;

/// One untraced sample: `DisScenario` as the program ships it.
pub fn run_plain(shape: &Shape, seed: u64) -> Sample {
    let t0 = Instant::now();
    let mut sc = DisScenario::build(shape.config(seed));
    for seq in 1..=shape.packets {
        sc.send_at(shape.due(seq), payload(seed, seq));
    }
    let setup_s = t0.elapsed().as_secs_f64();
    let until = shape.horizon().nanos();
    let mut leg_s = Vec::with_capacity(LEGS);
    let a0 = alloc::snapshot();
    let t1 = Instant::now();
    span::charge(Layer::SimStep, || {
        for k in 1..=LEGS as u64 {
            let t = Instant::now();
            drive(&mut sc.world, SimTime::from_nanos(until * k / LEGS as u64));
            leg_s.push(t.elapsed().as_secs_f64());
        }
    });
    let run_s = t1.elapsed().as_secs_f64();
    let allocs = alloc::snapshot().since(&a0);
    let out = Outcome::of_scenario(&sc, shape, seed);
    Sample {
        setup_s,
        run_s,
        leg_s,
        allocs,
        out,
    }
}

/// How the traced world wraps each machine inside its
/// [`TimedMachine`]: [`Bare`] in the benchmark; the benchmark's tests
/// plant extra work here to check that the counters see it.
pub trait Plant: 'static {
    /// The wrapped machine type.
    type M<T: Machine + Send + 'static>: Machine + Send + 'static;
    /// Wraps a machine.
    fn wrap<T: Machine + Send + 'static>(m: T) -> Self::M<T>;
    /// The machine, for reading results.
    fn get<T: Machine + Send + 'static>(m: &Self::M<T>) -> &T;
    /// The machine an application call (e.g. `Sender::send`) runs on.
    fn app<T: Machine + Send + 'static>(m: &mut Self::M<T>) -> &mut T;
}

/// No extra wrapping.
pub struct Bare;

impl Plant for Bare {
    type M<T: Machine + Send + 'static> = T;
    fn wrap<T: Machine + Send + 'static>(m: T) -> T {
        m
    }
    fn get<T: Machine + Send + 'static>(m: &T) -> &T {
        m
    }
    fn app<T: Machine + Send + 'static>(m: &mut T) -> &mut T {
        m
    }
}

type Timed<W, T> = TimedActor<MachineActor<TimedMachine<<W as Plant>::M<T>>>>;

fn actor<W: Plant, T: Machine + Send + 'static>(
    m: T,
    role: Layer,
    groups: Vec<lbrm_wire::GroupId>,
) -> Timed<W, T> {
    TimedActor {
        inner: MachineActor::new(TimedMachine::new(W::wrap(m), role), groups),
    }
}

/// The traced world: `DisScenario::build`'s construction, in the same
/// order (so host ids, RNG streams and event keys match), with every
/// actor, machine and role sink wrapped.
struct TracedWorld<W: Plant> {
    world: World,
    src_host: HostId,
    primary: HostId,
    secondaries: Vec<HostId>,
    receivers: Vec<HostId>,
    _plant: PhantomData<W>,
}

impl<W: Plant> TracedWorld<W> {
    fn build(config: &DisScenarioConfig) -> Self {
        assert!(
            config.secondary_loggers
                && config.regional_fanout.is_none()
                && config.replicas == 0
                && config.site_params_for.is_none()
                && config.statack.is_none(),
            "the traced builder mirrors the benchmark's DisScenario shape only"
        );
        let group = DisScenario::GROUP;
        let source = DisScenario::SOURCE;
        let mut b = TopologyBuilder::new();
        let source_site = b.site(config.source_site_params.clone());
        let src_host = b.host(source_site);
        let primary = b.host(source_site);
        let mut site_hosts = Vec::new();
        for _ in 0..config.sites {
            let site = b.site(config.site_params.clone());
            let sec = b.host(site);
            site_hosts.push((sec, b.hosts(site, config.receivers_per_site)));
        }
        b.wan_loss(config.wan_loss.clone());
        let backend = config.queue_backend.unwrap_or_else(QueueBackend::from_env);
        let shards = config.shards.expect("the benchmark pins the shard count");
        let mut world = World::with_options(b.build(), config.seed, backend, shards);

        let reg =
            || -> Arc<dyn TraceSink> { TimedSink::wrap(Arc::new(MetricsRegistry::default())) };
        let net_metrics = Arc::new(MetricsRegistry::default());
        world.set_trace(Tracer::to(TimedSink::wrap(net_metrics.clone())));
        world.set_gauges(net_metrics);
        let sender_sink = world.wrap_sink(reg());
        let primary_sink = world.wrap_sink(reg());
        let secondary_sink = world.wrap_sink(reg());
        let receiver_sink = world.wrap_sink(reg());

        let mut cfg = LoggerConfig::primary(group, source, primary, src_host);
        cfg.retention = config.retention;
        cfg.store_backend = config.log_store;
        let mut lg = Logger::new(cfg);
        lg.set_tracer(Tracer::to(primary_sink));
        world.add_actor(primary, actor::<W, _>(lg, Layer::Primary, vec![group]));

        let mut secondaries = Vec::new();
        let mut receivers = Vec::new();
        for (sec, rxs) in &site_hosts {
            let mut c = LoggerConfig::secondary(group, source, *sec, primary, src_host);
            c.retention = config.retention;
            c.store_backend = config.log_store;
            c.level = 1;
            let mut lg = Logger::new(c);
            lg.set_tracer(Tracer::to(secondary_sink.clone()));
            world.add_actor(*sec, actor::<W, _>(lg, Layer::Secondary, vec![group]));
            secondaries.push(*sec);
            for &rx in rxs {
                let mut c = ReceiverConfig::new(group, source, rx, src_host, vec![*sec, primary]);
                c.mode = config.mode;
                c.nack_delay = config.receiver_nack_delay;
                let mut m = Receiver::new(c);
                m.set_tracer(Tracer::to(receiver_sink.clone()));
                world.add_actor(rx, actor::<W, _>(m, Layer::Receiver, vec![group]));
                receivers.push(rx);
            }
        }

        let mut cfg = SenderConfig::new(group, source, src_host, primary);
        cfg.heartbeat = config.heartbeat;
        cfg.scheme = config.scheme;
        let mut s = Sender::new(cfg);
        s.set_tracer(Tracer::to(sender_sink));
        world.add_actor(src_host, actor::<W, _>(s, Layer::Sender, vec![]));

        TracedWorld {
            world,
            src_host,
            primary,
            secondaries,
            receivers,
            _plant: PhantomData,
        }
    }

    /// `DisScenario::send_at`, through the wrappers.
    fn send_at(&mut self, at: SimTime, payload: Bytes) {
        let call = move |m: &mut TimedMachine<W::M<Sender>>, now, out: &mut Vec<_>| {
            m.app_call(out, |s, out| W::app(s).send(now, payload.clone(), out));
        };
        let token = self
            .world
            .actor_mut::<Timed<W, Sender>>(self.src_host)
            .inner
            .schedule(at, call);
        self.world.schedule_timer(self.src_host, at, token);
    }

    fn tally<T: Machine + Send + 'static>(&self, hosts: &[HostId]) -> Tally {
        let mut t = Tally::default();
        for &h in hosts {
            t.add(&self.world.actor::<Timed<W, T>>(h).inner.machine().tally());
        }
        t
    }
}

/// One traced sample with its per-layer attribution.
pub struct TracedSample {
    /// The sample itself (`run_s` is the traced run's host time).
    pub sample: Sample,
    /// Span totals per layer.
    pub times: LayerTimes,
    /// Tally of the sender.
    pub sender: Tally,
    /// Tally of the primary and the secondaries.
    pub loggers: Tally,
    /// Tally of the receivers.
    pub receivers: Tally,
}

/// One traced sample, machines wrapped by `W`.
pub fn run_traced<W: Plant>(shape: &Shape, seed: u64, span_hint: usize) -> TracedSample {
    let t0 = Instant::now();
    let mut tw = TracedWorld::<W>::build(&shape.config(seed));
    for seq in 1..=shape.packets {
        tw.send_at(shape.due(seq), payload(seed, seq));
    }
    let setup_s = t0.elapsed().as_secs_f64();
    // The first span on a thread sets up its recorder (allocating
    // outside any layer); do that before counting.
    drop(span::enter(Layer::Bench));
    drop(span::take_local());
    span::reserve(span_hint);
    let until = shape.horizon();
    let a0 = alloc::snapshot();
    let t1 = Instant::now();
    loop {
        if tw.world.now() >= until {
            break;
        }
        let _g = span::enter(Layer::SimStep);
        if !tw.world.step() {
            break;
        }
    }
    let run_s = t1.elapsed().as_secs_f64();
    let allocs = alloc::snapshot().since(&a0);
    let spans = span::take_local();
    let mut times = LayerTimes::default();
    times.add(&spans);
    drop(spans);

    let out = Outcome::collect(&tw.world, shape, seed, &tw.receivers, |rx| {
        let a = &tw.world.actor::<Timed<W, Receiver>>(rx).inner;
        (&a.deliveries[..], W::get(a.machine().inner()).stats())
    });
    let mut loggers = tw.tally::<Logger>(&[tw.primary]);
    loggers.add(&tw.tally::<Logger>(&tw.secondaries));
    TracedSample {
        sender: tw.tally::<Sender>(&[tw.src_host]),
        receivers: tw.tally::<Receiver>(&tw.receivers),
        loggers,
        times,
        sample: Sample {
            setup_s,
            run_s,
            leg_s: Vec::new(),
            allocs,
            out,
        },
    }
}

/// Spans a traced sample records per event (step, actor, machine calls
/// and sink records), rounded up, to size the span vector up front.
pub const SPANS_PER_EVENT: usize = 5;

/// Per-layer values of one traced sample, given the untraced sample it
/// is compared against.
pub fn layer_metrics(t: &TracedSample, plain: &Sample) -> Vec<(&'static str, f64)> {
    let tm = &t.times;
    let out = &t.sample.out;
    let events = out.events;
    let self_per = |l: Layer| tm.self_per(l);
    let allocs_per = |l: Layer| per(t.sample.allocs.count_of(l), tm.count[l.idx()]);
    let mut m = vec![
        ("sim.events", events as f64),
        (
            "sim.ns_per_event",
            per(tm.total_ns[Layer::SimStep.idx()], events),
        ),
        (
            "sim.self_ns_per_event",
            per(tm.self_ns[Layer::SimStep.idx()], events),
        ),
        ("sim.queue_depth_max", out.queue_depth_max as f64),
        ("sim.net.data_bytes", out.kind_bytes("data") as f64),
        (
            "sim.net.heartbeat_bytes",
            out.kind_bytes("heartbeat") as f64,
        ),
        ("sim.net.nack_bytes", out.kind_bytes("nack") as f64),
        ("sim.net.retrans_bytes", out.kind_bytes("retrans") as f64),
        ("harness.self_ns_per_call", self_per(Layer::Harness)),
        ("harness.allocs_per_call", allocs_per(Layer::Harness)),
    ];
    for (role, l) in [
        ("sender", Layer::Sender),
        ("primary", Layer::Primary),
        ("secondary", Layer::Secondary),
        ("receiver", Layer::Receiver),
    ] {
        m.extend(role_metrics(
            role,
            tm.count[l.idx()] as f64,
            self_per(l),
            allocs_per(l),
        ));
    }
    m.extend([
        ("core.receiver.nacks_sent", t.receivers.nacks_sent as f64),
        ("core.receiver.duplicates", out.rx_stats.duplicates as f64),
        ("core.receiver.abandoned", out.rx_stats.abandoned as f64),
        ("core.logger.repairs_sent", t.loggers.repairs_sent as f64),
        (
            "core.repair_useful_ratio",
            per(out.rx_stats.recovered, t.receivers.repairs_received),
        ),
        (
            "core.sender.heartbeats_sent",
            t.sender.heartbeats_sent as f64,
        ),
        ("trace.records", tm.count[Layer::Sink.idx()] as f64),
        ("trace.ns_per_record", self_per(Layer::Sink)),
        ("trace.allocs_per_record", allocs_per(Layer::Sink)),
        (
            "alloc.count_per_event",
            per(plain.allocs.program_count(), events),
        ),
        (
            "alloc.bytes_per_event",
            per(plain.allocs.program_bytes(), events),
        ),
        ("tracing.overhead_ratio", t.sample.run_s / plain.run_s),
        (
            "tracing.span_coverage",
            tm.self_sum_ns() as f64 / (t.sample.run_s * 1e9),
        ),
    ]);
    m
}

/// The three `core.<role>.*` cost metrics.
pub fn role_metrics(role: &str, calls: f64, ns: f64, allocs: f64) -> [(&'static str, f64); 3] {
    let name = |suffix: &str| -> &'static str {
        crate::report::PER_LAYER
            .iter()
            .map(|(n, _, _)| *n)
            .find(|n| *n == format!("core.{role}.{suffix}"))
            .expect("role metric is declared")
    };
    [
        (name("calls"), calls),
        (name("ns_per_call"), ns),
        (name("allocs_per_call"), allocs),
    ]
}

/// Runs a sim workload: untraced samples for the end-to-end metrics, or
/// alternating untraced and traced samples for the per-layer ones.
pub fn run(opts: &crate::Opts, shape: &Shape) -> Report {
    let mut rep = Report::default();
    let start = Instant::now();
    let mut plain: Vec<Sample> = Vec::new();
    let mut traced: Vec<TracedSample> = Vec::new();
    // The first sample of a process runs on fresh pages from the kernel
    // and is consistently slower; it is checked but not timed.
    let warm_up = usize::from(!opts.smoke && !opts.trace);
    for _ in 0..warm_up {
        plain.push(run_plain(shape, opts.seed));
    }
    loop {
        plain.push(run_plain(shape, opts.seed));
        if opts.trace {
            let hint = plain[0].out.events as usize * SPANS_PER_EVENT;
            traced.push(run_traced::<Bare>(shape, opts.seed, hint));
        }
        if opts.smoke || start.elapsed() >= opts.seconds {
            break;
        }
    }
    let first = &plain[0];
    let o = &first.out;
    rep.attempted = o.expected_pairs;
    rep.failed = o.expected_pairs - o.delivered_pairs;
    rep.note(format!(
        "{} samples: {} events, {} of {} (receiver, seq) pairs delivered, {} recovered, {} abandoned",
        plain.len(),
        o.events,
        o.delivered_pairs,
        o.expected_pairs,
        o.rx_stats.recovered,
        o.rx_stats.abandoned
    ));
    rep.check(o.bad_payloads == 0, || {
        format!("{} deliveries carried a wrong payload", o.bad_payloads)
    });
    rep.check(o.repeated_pairs == 0, || {
        format!("{} (receiver, seq) pairs delivered twice", o.repeated_pairs)
    });
    rep.check(o.delivered_pairs > 0 && !o.recovery_ns.is_empty(), || {
        "nothing delivered or recovered".into()
    });
    for s in &plain[1..] {
        rep.check(s.out == *o, || {
            "a repeated sample with the same seed produced different outputs".into()
        });
        rep.check(s.allocs == first.allocs, || {
            "allocation counts differ between identical samples".into()
        });
    }
    let timed = &plain[warm_up..];
    let n = timed.len();
    if !opts.trace {
        let setups: Vec<f64> = timed.iter().map(|s| s.setup_s).collect();
        let fastest_legs: f64 = (0..LEGS)
            .map(|k| {
                timed
                    .iter()
                    .map(|s| s.leg_s[k])
                    .fold(f64::INFINITY, f64::min)
            })
            .sum();
        rep.note(format!(
            "sim_speed {} sim-s/s (simulated span / summed fastest legs)",
            fmt_num(o.sim_end.as_secs_f64() / fastest_legs)
        ));
        rep.put("setup_s", median(&setups), n);
        rep.put("peak_rss_mb", peak_rss_mb(), 1);
        rep.put(
            "host_us_per_op",
            fastest_legs * 1e6 / o.deliveries() as f64,
            n,
        );
        rep.put(
            "delivered_ratio",
            per(o.delivered_pairs, o.expected_pairs),
            o.expected_pairs as usize,
        );
        let k = o.recovery_ns.len();
        rep.put(
            "recovery_ms_p50",
            percentile(&o.recovery_ns, 0.50) as f64 / 1e6,
            k,
        );
        rep.put(
            "recovery_ms_p99",
            percentile(&o.recovery_ns, 0.99) as f64 / 1e6,
            k,
        );
        rep.put(
            "overhead_bytes_per_delivery",
            per(o.wire_bytes(), o.deliveries()),
            o.deliveries() as usize,
        );
        return rep;
    }
    for (i, t) in traced.iter().enumerate() {
        rep.check(t.sample.out.events == o.events, || {
            format!(
                "traced run processed {} events, untraced {}",
                t.sample.out.events, o.events
            )
        });
        rep.check(t.sample.out.net == o.net, || {
            "traced run's NetStats differ from the untraced run's".into()
        });
        rep.check(t.sample.out.digests == o.digests, || {
            "traced run's deliveries differ from the untraced run's".into()
        });
        rep.check(t.sample.out == *o, || {
            "traced run's outputs differ from the untraced run's".into()
        });
        if i > 0 {
            rep.check(t.sample.allocs == traced[0].sample.allocs, || {
                "per-layer allocation counts differ between identical traced samples".into()
            });
        }
    }
    for line in traced[0].times.table() {
        rep.note(line);
    }
    // Rows: one per traced sample, metrics in `layer_metrics` order.
    let rows: Vec<Vec<(&'static str, f64)>> = traced
        .iter()
        .zip(&plain)
        .map(|(t, p)| layer_metrics(t, p))
        .collect();
    for (j, (name, _)) in rows[0].iter().enumerate() {
        let vals: Vec<f64> = rows.iter().map(|r| r[j].1).collect();
        rep.put(name, median(&vals), vals.len());
    }
    let coverage = rep
        .metrics
        .iter()
        .find(|m| m.name == "tracing.span_coverage")
        .map_or(0.0, |m| m.value);
    rep.check((1.0 - SPAN_COVERAGE_TOLERANCE..=1.0).contains(&coverage), || {
        format!("per-layer self times cover {coverage:.3} of the traced wall time (tolerance {SPAN_COVERAGE_TOLERANCE})")
    });
    rep
}

/// How far the summed per-layer self times may fall short of the traced
/// run's wall time (the rest is the step loop and span bookkeeping
/// between steps).
pub const SPAN_COVERAGE_TOLERANCE: f64 = 0.10;
