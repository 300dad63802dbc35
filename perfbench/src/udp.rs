//! The `udp_loopback` workload: real endpoints over UDP multicast on
//! 127.0.0.1.
//!
//! A sender, a primary logger and two receivers run as `lbrm-net`
//! endpoint threads; each receiver's transport drops 5% of data packets
//! on receive (a seeded `LossyTransport`), so NACK recovery runs. One
//! generator thread — the benchmark's main thread — publishes 128-byte
//! updates open loop at 2,000 per second and drains both receivers'
//! event channels between sends; there are no collector threads. Every
//! delivery is timed from its update's *due* time, so a stalled
//! endpoint delays every update queued behind it.
//!
//! There is no fallback: when loopback multicast does not work the
//! workload fails instead of silently measuring the in-process hub.

use std::net::{Ipv4Addr, UdpSocket};
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::Bytes;
use lbrm_core::logger::{Logger, LoggerConfig};
use lbrm_core::machine::{Actions, Machine};
use lbrm_core::receiver::{Receiver, ReceiverConfig, ReceiverStats};
use lbrm_core::sender::{Sender, SenderConfig};
use lbrm_net::{
    Endpoint, EndpointEvent, EndpointHandle, GroupMap, LossyTransport, RecvCounters, SendCounters,
    Transport, UdpTransport,
};
use lbrm_wire::{GroupId, Packet, SourceId};

use crate::alloc::{self, AllocSnapshot};
use crate::report::{fmt_num, median, peak_rss_mb, percentile, schedstat, thread_cpu_ns, Report};
use crate::sim::payload;
use crate::span::{self, per, Layer, LayerTimes};
use crate::wrap::{Tally, TimedMachine, TimedTransport, TransportTally};

const GROUP: GroupId = GroupId(7);
const SRC: SourceId = SourceId(1);
/// Updates published per second.
pub const RATE_HZ: u64 = 2_000;
/// Receiver endpoints.
pub const RECEIVERS: usize = 2;
/// Data packets each receiver's transport drops on receive.
pub const LOSS: f64 = 0.05;
/// Time after the last update for recoveries to finish.
const SETTLE: Duration = Duration::from_secs(1);
/// Set-ups timed per run (the last one is kept and measured).
const SETUP_REPS: usize = 9;
/// How long the group may take to carry a first packet to every
/// receiver before loopback multicast is declared unavailable.
const READY_TIMEOUT: Duration = Duration::from_secs(3);
/// Longest the generator sleeps between looks at the event channels.
const POLL: Duration = Duration::from_micros(200);

/// How endpoints are built: bare (untraced) or with the timing wrappers.
trait Mode: 'static {
    type M<T: Machine + Send + 'static>: Machine + Send + 'static;
    type T<X: Transport>: Transport;
    const TRACED: bool;
    fn machine<T: Machine + Send + 'static>(m: T, role: Layer) -> Self::M<T>;
    fn transport<X: Transport>(t: X, tallies: &mut Vec<Arc<TransportTally>>) -> Self::T<X>;
    fn get<T: Machine + Send + 'static>(m: &Self::M<T>) -> &T;
    fn app<T: Machine + Send + 'static>(
        m: &mut Self::M<T>,
        out: &mut Actions,
        f: impl FnOnce(&mut T, &mut Actions),
    );
    fn tally<T: Machine + Send + 'static>(m: &Self::M<T>) -> Tally;
}

struct Plain;

impl Mode for Plain {
    type M<T: Machine + Send + 'static> = T;
    type T<X: Transport> = X;
    const TRACED: bool = false;
    fn machine<T: Machine + Send + 'static>(m: T, _: Layer) -> T {
        m
    }
    fn transport<X: Transport>(t: X, _: &mut Vec<Arc<TransportTally>>) -> X {
        t
    }
    fn get<T: Machine + Send + 'static>(m: &T) -> &T {
        m
    }
    fn app<T: Machine + Send + 'static>(
        m: &mut T,
        out: &mut Actions,
        f: impl FnOnce(&mut T, &mut Actions),
    ) {
        f(m, out);
    }
    fn tally<T: Machine + Send + 'static>(_: &T) -> Tally {
        Tally::default()
    }
}

struct Traced;

impl Mode for Traced {
    type M<T: Machine + Send + 'static> = TimedMachine<T>;
    type T<X: Transport> = TimedTransport<X>;
    const TRACED: bool = true;
    fn machine<T: Machine + Send + 'static>(m: T, role: Layer) -> TimedMachine<T> {
        TimedMachine::new(m, role)
    }
    fn transport<X: Transport>(t: X, tallies: &mut Vec<Arc<TransportTally>>) -> TimedTransport<X> {
        let (t, tally) = TimedTransport::new(t);
        tallies.push(tally);
        t
    }
    fn get<T: Machine + Send + 'static>(m: &TimedMachine<T>) -> &T {
        m.inner()
    }
    fn app<T: Machine + Send + 'static>(
        m: &mut TimedMachine<T>,
        out: &mut Actions,
        f: impl FnOnce(&mut T, &mut Actions),
    ) {
        m.app_call(out, f);
    }
    fn tally<T: Machine + Send + 'static>(m: &TimedMachine<T>) -> Tally {
        m.tally()
    }
}

/// CPU time per thread of this process, by thread id.
fn process_cpu_ns() -> Vec<(u32, u64)> {
    let mut v = Vec::new();
    if let Ok(rd) = std::fs::read_dir("/proc/self/task") {
        for e in rd.flatten() {
            if let Some(tid) = e.file_name().to_str().and_then(|s| s.parse().ok()) {
                v.push((tid, schedstat(&format!("/proc/self/task/{tid}/schedstat"))));
            }
        }
    }
    v
}

/// A free UDP port for the group socket.
fn free_port() -> Result<u16, String> {
    let s = UdpSocket::bind((Ipv4Addr::UNSPECIFIED, 0)).map_err(|e| format!("probe bind: {e}"))?;
    Ok(s.local_addr()
        .map_err(|e| format!("probe addr: {e}"))?
        .port())
}

fn rx_seed(seed: u64, i: usize) -> u64 {
    seed ^ (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Runs `f` against an endpoint's machine and waits for its answer.
fn ask<M: Machine, R: Send + 'static>(
    h: &EndpointHandle<M>,
    f: impl FnOnce(&mut M) -> R + Send + 'static,
) -> Result<R, String> {
    let (tx, rx) = mpsc::channel();
    h.call(move |m, _, _| {
        let _ = tx.send(f(m));
    })
    .map_err(|e| format!("endpoint closed: {e}"))?;
    rx.recv_timeout(Duration::from_secs(2))
        .map_err(|_| "endpoint did not answer within 2 s".to_string())
}

/// The running endpoints of one session.
struct Rig<Md: Mode> {
    sender: EndpointHandle<Md::M<Sender>>,
    logger: EndpointHandle<Md::M<Logger>>,
    receivers: Vec<EndpointHandle<Md::M<Receiver>>>,
    threads: Vec<JoinHandle<std::io::Result<()>>>,
    send_counters: Vec<Arc<SendCounters>>,
    recv_counters: Vec<Arc<RecvCounters>>,
    tallies: Vec<Arc<TransportTally>>,
    /// Delivery events seen per receiver (warm-up included).
    events: Vec<u64>,
    /// Updates sent so far (the next update's seq is `sent + 1`).
    sent: u32,
}

impl<Md: Mode> Rig<Md> {
    /// Binds the transports, starts the endpoints, and waits until every
    /// receiver has delivered a first (warm-up) update. Also returns the
    /// set-up time: binding every transport and spawning every endpoint
    /// (each joins its group first thing on its thread). The wait for
    /// the warm-up update is left out: the endpoint picks up commands
    /// only every 10 ms, which would quantize the figure.
    fn start(seed: u64) -> Result<(Self, Duration), String> {
        let t0 = Instant::now();
        let groups = GroupMap::new(free_port()?);
        let bind = || {
            UdpTransport::bind(Ipv4Addr::LOCALHOST, groups.clone())
                .map_err(|e| format!("UDP bind on 127.0.0.1 failed: {e}"))
        };
        let origin = Instant::now();
        let mut tallies = Vec::new();
        let mut send_counters = Vec::new();
        let mut recv_counters = Vec::new();
        let mut threads = Vec::new();
        let mut watch = |t: &UdpTransport| {
            send_counters.push(t.shared_send_counters());
            recv_counters.push(t.shared_recv_counters());
        };

        let sender_t = bind()?;
        let logger_t = bind()?;
        watch(&sender_t);
        watch(&logger_t);
        let src_host = sender_t.local_host();
        let log_host = logger_t.local_host();
        let sender_m = Sender::new(SenderConfig::new(GROUP, SRC, src_host, log_host));
        let (mut ep, sender) = Endpoint::new(
            Md::machine(sender_m, Layer::Sender),
            Md::transport(sender_t, &mut tallies),
            vec![],
        );
        ep.set_origin(origin);
        threads.push(ep.spawn());
        let logger_m = Logger::new(LoggerConfig::primary(GROUP, SRC, log_host, src_host));
        let (mut ep, logger) = Endpoint::new(
            Md::machine(logger_m, Layer::Primary),
            Md::transport(logger_t, &mut tallies),
            vec![GROUP],
        );
        ep.set_origin(origin);
        threads.push(ep.spawn());
        let mut receivers = Vec::new();
        for i in 0..RECEIVERS {
            let t = bind()?;
            watch(&t);
            let host = t.local_host();
            let m = Receiver::new(ReceiverConfig::new(
                GROUP,
                SRC,
                host,
                src_host,
                vec![log_host],
            ));
            let (mut ep, h) = Endpoint::new(
                Md::machine(m, Layer::Receiver),
                Md::transport(LossyTransport::new(t, LOSS, rx_seed(seed, i)), &mut tallies),
                vec![GROUP],
            );
            ep.set_origin(origin);
            threads.push(ep.spawn());
            receivers.push(h);
        }
        let setup = t0.elapsed();
        let mut rig = Rig {
            sender,
            logger,
            receivers,
            threads,
            send_counters,
            recv_counters,
            tallies,
            events: vec![0; RECEIVERS],
            sent: 0,
        };
        // Warm-up: an update every 20 ms until each receiver has
        // delivered one. This also fixes every receiver's join point
        // before the measured updates start.
        let deadline = Instant::now() + READY_TIMEOUT;
        let mut resend = Instant::now();
        while rig.events.contains(&0) {
            let now = Instant::now();
            if now >= deadline {
                rig.stop();
                return Err(format!(
                    "loopback multicast unavailable: no update reached every receiver within {READY_TIMEOUT:?} \
                     (no fallback to the in-process hub)"
                ));
            }
            if now >= resend {
                rig.send(seed, None)?;
                resend = now + Duration::from_millis(20);
            }
            rig.drain(|_, _, _| {});
            std::thread::sleep(POLL);
        }
        Ok((rig, setup))
    }

    /// Publishes the next update; with `wait` set, the closure records
    /// how long the command waited for the endpoint loop.
    fn send(
        &mut self,
        seed: u64,
        wait: Option<(&Arc<Mutex<Vec<u64>>>, Instant)>,
    ) -> Result<(), String> {
        self.sent += 1;
        let p = payload(seed, self.sent);
        let waits = wait.map(|(w, at)| (Arc::clone(w), at));
        self.sender
            .call(move |m, now, out| {
                if let Some((w, at)) = waits {
                    let waited = at.elapsed().as_nanos() as u64;
                    w.lock().expect("wait log poisoned").push(waited);
                }
                Md::app(m, out, |s, out| s.send(now, p, out));
            })
            .map_err(|e| format!("sender endpoint closed: {e}"))
    }

    /// Takes every pending delivery event; `f(receiver, delivery, seen_at)`.
    fn drain(&mut self, mut f: impl FnMut(usize, lbrm_core::machine::Delivery, Instant)) {
        for (i, h) in self.receivers.iter_mut().enumerate() {
            while let Some(ev) = h.event_timeout(Duration::ZERO) {
                if let EndpointEvent::Delivery(d) = ev {
                    self.events[i] += 1;
                    f(i, d, Instant::now());
                }
            }
        }
    }

    fn send_totals(&self) -> (u64, u64, u64, u64) {
        let c = &self.send_counters;
        (
            c.iter().map(|c| c.datagrams()).sum(),
            c.iter().map(|c| c.packets()).sum(),
            c.iter().map(|c| c.bytes()).sum(),
            c.iter().map(|c| c.errors()).sum(),
        )
    }

    /// Drops the handles (which shuts the endpoints down) and joins the
    /// endpoint threads.
    fn stop(self) -> Vec<String> {
        let Rig {
            sender,
            logger,
            receivers,
            threads,
            ..
        } = self;
        drop((sender, logger, receivers));
        let mut errs = Vec::new();
        for t in threads {
            match t.join() {
                Ok(Ok(())) => {}
                Ok(Err(e)) => errs.push(format!("endpoint failed: {e}")),
                Err(_) => errs.push("endpoint thread panicked".into()),
            }
        }
        errs
    }
}

/// What one measured session produced.
struct Session {
    setup_s: Vec<f64>,
    wall_s: f64,
    sent: u64,
    /// Distinct (receiver, seq) pairs of measured updates delivered.
    delivered_pairs: u64,
    repeated_pairs: u64,
    bad_payloads: u64,
    first_copy_ns: Vec<u64>,
    recovery_ns: Vec<u64>,
    max_late_ns: u64,
    /// CPU of every thread but the generator, over the window.
    program_cpu_ns: u64,
    generator_cpu_ns: u64,
    /// Bytes every transport sent over the window.
    wire_bytes: u64,
    /// Send totals over the whole measured rig, warm-up included.
    send_all: (u64, u64, u64, u64),
    truncated: u64,
    decode_errors: u64,
    rx_stats: ReceiverStats,
    problems: Vec<String>,
    // Traced sessions only.
    call_wait_ns: Vec<u64>,
    endpoint_cpu_ns: [u64; 3],
    tallies: [Tally; 3],
    transports: Vec<Arc<TransportTally>>,
    times: LayerTimes,
    allocs: AllocSnapshot,
}

impl Session {
    fn deliveries(&self) -> u64 {
        self.delivered_pairs + self.repeated_pairs
    }
}

fn session<Md: Mode>(opts: &crate::Opts) -> Result<Session, String> {
    let seed = opts.seed;
    let reps = if opts.smoke { 1 } else { SETUP_REPS };
    let mut setup_s = Vec::new();
    let mut rig = None;
    for i in 0..reps {
        let (r, setup) = Rig::<Md>::start(seed)?;
        setup_s.push(setup.as_secs_f64());
        if i + 1 < reps {
            let errs = r.stop();
            if !errs.is_empty() {
                return Err(errs.join("; "));
            }
        } else {
            rig = Some(r);
        }
    }
    let mut rig = rig.expect("at least one set-up");
    let _ = span::take_finished();
    let a0 = alloc::snapshot();

    let n = (opts.seconds.as_secs_f64() * RATE_HZ as f64)
        .round()
        .max(1.0) as u64;
    let n = if opts.smoke { n.min(RATE_HZ) } else { n };
    let first_seq = rig.sent + 1;
    let period = Duration::from_nanos(1_000_000_000 / RATE_HZ);
    let waits = Arc::new(Mutex::new(Vec::with_capacity(n as usize)));
    let gen_tid = std::fs::read_link("/proc/thread-self").ok().and_then(|p| {
        p.file_name()
            .and_then(|f| f.to_str())
            .and_then(|s| s.parse::<u32>().ok())
    });

    let cpu_of = |rig: &Rig<Md>| -> Result<[u64; 3], String> {
        if !Md::TRACED {
            return Ok([0; 3]);
        }
        let s = ask(&rig.sender, |_| thread_cpu_ns())?;
        let l = ask(&rig.logger, |_| thread_cpu_ns())?;
        let mut r = 0;
        for h in &rig.receivers {
            r += ask(h, |_| thread_cpu_ns())?;
        }
        Ok([s, l, r])
    };
    let ep_cpu0 = cpu_of(&rig)?;
    let cpu0 = process_cpu_ns();
    let gen0 = thread_cpu_ns();
    let send0 = rig.send_totals();

    let mut seen = vec![vec![false; n as usize]; RECEIVERS];
    let mut s = Session {
        setup_s,
        wall_s: 0.0,
        sent: n,
        delivered_pairs: 0,
        repeated_pairs: 0,
        bad_payloads: 0,
        first_copy_ns: Vec::with_capacity(n as usize * RECEIVERS),
        recovery_ns: Vec::new(),
        max_late_ns: 0,
        program_cpu_ns: 0,
        generator_cpu_ns: 0,
        wire_bytes: 0,
        send_all: (0, 0, 0, 0),
        truncated: 0,
        decode_errors: 0,
        rx_stats: ReceiverStats::default(),
        problems: Vec::new(),
        call_wait_ns: Vec::new(),
        endpoint_cpu_ns: [0; 3],
        tallies: [Tally::default(); 3],
        transports: Vec::new(),
        times: LayerTimes::default(),
        allocs: alloc::snapshot().since(&a0),
    };
    let t0 = Instant::now() + Duration::from_millis(1);
    let due = |i: u64| t0 + period * i as u32;
    let end = due(n - 1) + SETTLE;
    let mut next = 0u64;
    let mut on_delivery =
        |s: &mut Session, rx: usize, d: lbrm_core::machine::Delivery, at: Instant| {
            let seq = d.seq.raw();
            if d.payload != payload(seed, seq) {
                s.bad_payloads += 1;
            }
            let Some(i) = seq.checked_sub(first_seq).map(u64::from).filter(|&i| i < n) else {
                return; // a warm-up update
            };
            if std::mem::replace(&mut seen[rx][i as usize], true) {
                s.repeated_pairs += 1;
                return;
            }
            s.delivered_pairs += 1;
            let lat = at.saturating_duration_since(due(i)).as_nanos() as u64;
            if d.recovered {
                s.recovery_ns.push(lat);
            } else {
                s.first_copy_ns.push(lat);
            }
        };
    loop {
        let now = Instant::now();
        while next < n && due(next) <= now {
            s.max_late_ns = s
                .max_late_ns
                .max(now.saturating_duration_since(due(next)).as_nanos() as u64);
            let wait = Md::TRACED.then(|| (&waits, Instant::now()));
            rig.send(seed, wait)?;
            next += 1;
        }
        rig.drain(|rx, d, at| on_delivery(&mut s, rx, d, at));
        if next == n && now >= end {
            break;
        }
        let wake = if next < n { due(next) } else { end };
        std::thread::sleep(wake.saturating_duration_since(Instant::now()).min(POLL));
    }
    s.wall_s = t0.elapsed().as_secs_f64();
    let cpu1 = process_cpu_ns();
    s.generator_cpu_ns = thread_cpu_ns() - gen0;
    for (tid, ns) in &cpu1 {
        if Some(*tid) == gen_tid {
            continue;
        }
        let before = cpu0.iter().find(|(t, _)| t == tid).map_or(0, |(_, v)| *v);
        s.program_cpu_ns += ns.saturating_sub(before);
    }
    let ep_cpu1 = cpu_of(&rig)?;
    s.endpoint_cpu_ns = std::array::from_fn(|i| ep_cpu1[i] - ep_cpu0[i]);
    let send1 = rig.send_totals();
    s.wire_bytes = send1.2 - send0.2;
    s.send_all = send1;
    s.truncated = rig.recv_counters.iter().map(|c| c.truncated()).sum();
    s.decode_errors = rig.recv_counters.iter().map(|c| c.decode_errors()).sum();

    // The receivers' own counts must match the events we drained: the
    // endpoint drops events when its channel is full.
    let mut settled = false;
    for _ in 0..5 {
        let before: Vec<ReceiverStats> = rig
            .receivers
            .iter()
            .map(|h| ask(h, |m| Md::get(m).stats()))
            .collect::<Result<_, _>>()?;
        std::thread::sleep(Duration::from_millis(30));
        rig.drain(|rx, d, at| on_delivery(&mut s, rx, d, at));
        let after: Vec<ReceiverStats> = rig
            .receivers
            .iter()
            .map(|h| ask(h, |m| Md::get(m).stats()))
            .collect::<Result<_, _>>()?;
        rig.drain(|rx, d, at| on_delivery(&mut s, rx, d, at));
        if before == after {
            for (i, st) in after.iter().enumerate() {
                let made = st.delivered + st.recovered;
                if made != rig.events[i] {
                    s.problems.push(format!(
                        "receiver {i} made {made} deliveries but the event channel carried {} \
                         (events were dropped)",
                        rig.events[i]
                    ));
                }
                let t = &mut s.rx_stats;
                t.delivered += st.delivered;
                t.recovered += st.recovered;
                t.losses_detected += st.losses_detected;
                t.abandoned += st.abandoned;
                t.duplicates += st.duplicates;
            }
            settled = true;
            break;
        }
    }
    if !settled {
        s.problems
            .push("receivers kept delivering after the settle time".into());
    }
    if Md::TRACED {
        let waits = std::mem::take(&mut *waits.lock().expect("wait log poisoned"));
        s.call_wait_ns = waits;
        s.tallies[0] = ask(&rig.sender, |m| Md::tally(m))?;
        s.tallies[1] = ask(&rig.logger, |m| Md::tally(m))?;
        for h in &rig.receivers {
            s.tallies[2].add(&ask(h, |m| Md::tally(m))?);
        }
        s.transports = rig.tallies.clone();
    }
    let errs = rig.stop();
    s.problems.extend(errs);
    s.allocs = alloc::snapshot().since(&a0);
    for spans in span::take_finished() {
        s.times.add(&spans);
    }
    s.first_copy_ns.sort_unstable();
    s.recovery_ns.sort_unstable();
    Ok(s)
}

fn check(rep: &mut Report, s: &Session) {
    rep.check(s.bad_payloads == 0, || {
        format!("{} deliveries carried a wrong payload", s.bad_payloads)
    });
    rep.check(s.repeated_pairs == 0, || {
        format!("{} (receiver, seq) pairs delivered twice", s.repeated_pairs)
    });
    rep.check(s.send_all.3 == 0, || {
        format!("{} send errors", s.send_all.3)
    });
    rep.check(s.truncated == 0, || {
        format!("{} truncated datagrams", s.truncated)
    });
    rep.check(s.decode_errors == 0, || {
        format!("{} undecodable datagrams", s.decode_errors)
    });
    rep.check(
        !s.first_copy_ns.is_empty() && !s.recovery_ns.is_empty(),
        || "no first-copy or no recovered delivery was measured".into(),
    );
    for p in &s.problems {
        rep.check(false, || p.clone());
    }
}

/// Runs the workload.
pub fn run(opts: &crate::Opts) -> Result<Report, String> {
    let mut rep = Report::default();
    let plain = session::<Plain>(opts)?;
    check(&mut rep, &plain);
    let pairs = plain.sent * RECEIVERS as u64;
    rep.attempted = pairs;
    rep.failed = pairs - plain.delivered_pairs;
    rep.note(format!(
        "{} updates at {RATE_HZ}/s to {RECEIVERS} receivers: {} of {pairs} pairs delivered, {} recovered; \
         generator at most {:.0} us late; endpoint threads used {:.1}% of one core (generator {:.1}%)",
        plain.sent,
        plain.delivered_pairs,
        plain.recovery_ns.len(),
        plain.max_late_ns as f64 / 1e3,
        100.0 * plain.program_cpu_ns as f64 / 1e9 / plain.wall_s,
        100.0 * plain.generator_cpu_ns as f64 / 1e9 / plain.wall_s,
    ));
    let cpu_per = per(plain.program_cpu_ns, plain.deliveries()) / 1e3;
    if !opts.trace {
        let d = plain.deliveries() as usize;
        rep.put("setup_s", median(&plain.setup_s), plain.setup_s.len());
        rep.put("peak_rss_mb", peak_rss_mb(), 1);
        rep.put(
            "delivered_ratio",
            per(plain.delivered_pairs, pairs),
            pairs as usize,
        );
        let k = plain.recovery_ns.len();
        rep.put(
            "recovery_ms_p50",
            percentile(&plain.recovery_ns, 0.50) as f64 / 1e6,
            k,
        );
        rep.put(
            "recovery_ms_p99",
            percentile(&plain.recovery_ns, 0.99) as f64 / 1e6,
            k,
        );
        rep.put(
            "overhead_bytes_per_delivery",
            per(plain.wire_bytes, plain.deliveries()),
            d,
        );
        rep.note(format!(
            "first-copy delivery from the send's due time: p50 {} us, p99 {} us",
            fmt_num(percentile(&plain.first_copy_ns, 0.50) as f64 / 1e3),
            fmt_num(percentile(&plain.first_copy_ns, 0.99) as f64 / 1e3),
        ));
        rep.put("host_us_per_op", cpu_per, d);
        return Ok(rep);
    }
    let t = session::<Traced>(opts)?;
    check(&mut rep, &t);
    traced_metrics(&mut rep, &t, cpu_per);
    Ok(rep)
}

fn traced_metrics(rep: &mut Report, t: &Session, plain_cpu_per: f64) {
    let tm = &t.times;
    for line in tm.table() {
        rep.note(line);
    }
    let n = |l: Layer| tm.count[l.idx()];
    for (role, l) in [
        ("sender", Layer::Sender),
        ("primary", Layer::Primary),
        ("receiver", Layer::Receiver),
    ] {
        for (name, v) in crate::sim::role_metrics(
            role,
            n(l) as f64,
            tm.self_per(l),
            per(t.allocs.count_of(l), n(l)),
        ) {
            rep.put(name, v, n(l) as usize);
        }
    }
    let [sender, loggers, receivers] = t.tallies;
    let one = 1;
    rep.put("core.receiver.nacks_sent", receivers.nacks_sent as f64, one);
    rep.put(
        "core.receiver.duplicates",
        t.rx_stats.duplicates as f64,
        one,
    );
    rep.put("core.receiver.abandoned", t.rx_stats.abandoned as f64, one);
    rep.put("core.logger.repairs_sent", loggers.repairs_sent as f64, one);
    rep.put(
        "core.repair_useful_ratio",
        per(t.rx_stats.recovered, receivers.repairs_received),
        one,
    );
    rep.put(
        "core.sender.heartbeats_sent",
        sender.heartbeats_sent as f64,
        one,
    );
    let w = {
        let mut w = t.call_wait_ns.clone();
        w.sort_unstable();
        w
    };
    rep.put(
        "net.endpoint.call_wait_us_p50",
        percentile(&w, 0.50) as f64 / 1e3,
        w.len(),
    );
    rep.put(
        "net.endpoint.call_wait_us_p99",
        percentile(&w, 0.99) as f64 / 1e3,
        w.len(),
    );
    rep.put(
        "net.endpoint.sender.cpu_us",
        t.endpoint_cpu_ns[0] as f64 / 1e3,
        one,
    );
    rep.put(
        "net.endpoint.logger.cpu_us",
        t.endpoint_cpu_ns[1] as f64 / 1e3,
        one,
    );
    rep.put(
        "net.endpoint.receiver.cpu_us",
        t.endpoint_cpu_ns[2] as f64 / 1e3,
        one,
    );
    let (datagrams, packets, bytes, errors) = t.send_all;
    rep.put("net.send.calls", n(Layer::NetSend) as f64, one);
    rep.put(
        "net.send.ns_per_call",
        per(tm.total_ns[Layer::NetSend.idx()], n(Layer::NetSend)),
        n(Layer::NetSend) as usize,
    );
    rep.put("net.send.datagrams", datagrams as f64, one);
    rep.put(
        "net.send.packets_per_datagram",
        per(packets, datagrams),
        datagrams as usize,
    );
    rep.put("net.send.bytes", bytes as f64, one);
    rep.put("net.send.errors", errors as f64, one);
    let empty: u64 = t
        .transports
        .iter()
        .map(|x| x.recv_empty.load(Ordering::Relaxed))
        .sum();
    rep.put("net.recv.calls", n(Layer::NetRecv) as f64, one);
    rep.put(
        "net.recv.empty_ratio",
        per(empty, n(Layer::NetRecv)),
        n(Layer::NetRecv) as usize,
    );
    rep.put("net.recv.truncated", t.truncated as f64, one);
    rep.put("net.recv.decode_errors", t.decode_errors as f64, one);
    let mix: Vec<Packet> = t
        .transports
        .iter()
        .flat_map(|x| x.sent.lock().expect("capture lock poisoned").clone())
        .collect();
    let (enc, dec) = codec_replay(&mix, &mut rep.problems);
    rep.put("wire.encode_ns_per_packet", enc, mix.len());
    rep.put("wire.decode_ns_per_packet", dec, mix.len());
    let traced_cpu_per = per(t.program_cpu_ns, t.deliveries()) / 1e3;
    rep.put(
        "tracing.overhead_ratio",
        traced_cpu_per / plain_cpu_per,
        one,
    );
}

/// Encodes and decodes the carried packet mix repeatedly (at least
/// 100 ms each) and returns ns per packet for each direction.
fn codec_replay(mix: &[Packet], problems: &mut Vec<String>) -> (f64, f64) {
    if mix.is_empty() {
        problems.push("no packets were captured for the codec replay".into());
        return (0.0, 0.0);
    }
    let min = Duration::from_millis(100);
    let encoded: Vec<Bytes> = match mix.iter().map(lbrm_wire::encode).collect() {
        Ok(v) => v,
        Err(e) => {
            problems.push(format!("a carried packet failed to encode: {e}"));
            return (0.0, 0.0);
        }
    };
    for (p, b) in mix.iter().zip(&encoded) {
        if lbrm_wire::decode_bytes(b.clone()).ok().as_ref() != Some(p) {
            problems.push("a carried packet did not survive encode/decode".into());
            break;
        }
    }
    let time = |f: &mut dyn FnMut()| -> f64 {
        let t = Instant::now();
        let mut rounds = 0u64;
        while rounds == 0 || t.elapsed() < min {
            f();
            rounds += 1;
        }
        t.elapsed().as_nanos() as f64 / (rounds * mix.len() as u64) as f64
    };
    let enc = time(&mut || {
        for p in mix {
            std::hint::black_box(lbrm_wire::encode(std::hint::black_box(p)).ok());
        }
    });
    let dec = time(&mut || {
        for b in &encoded {
            std::hint::black_box(lbrm_wire::decode_bytes(std::hint::black_box(b.clone())).ok());
        }
    });
    (enc, dec)
}
