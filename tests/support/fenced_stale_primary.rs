//! The fenced-stale-primary script: a partitioned stale primary keeps
//! serving repairs after a new term is elected, and the receiver
//! rejects them.
//!
//! The machines are driven directly (sans-IO) so the partition can be
//! surgical: the deposed primary never hears the `TermAnnounce`, keeps
//! believing it holds serving authority, and answers a NACK that was in
//! flight to it — a genuine stale serve. The receiver must fence the
//! resulting retransmission (no delivery, no gap bookkeeping), re-aim
//! its NACK at the elected leader, and recover there. [`capture`]
//! asserts that machine-level behaviour and returns the trace.
//!
//! Shared by `tests/chaos_sim.rs` (the fencing forensics) and
//! `crates/bench/tests/forensics_golden.rs` (the pinned reports).

use std::sync::Arc;

use bytes::Bytes;
use lbrm_core::logger::{Logger, LoggerConfig};
use lbrm_core::machine::{deliveries, notices, Action, Actions, Machine, Notice};
use lbrm_core::receiver::{Receiver, ReceiverConfig};
use lbrm_core::sender::{Sender, SenderConfig};
use lbrm_core::time::Time;
use lbrm_core::trace::analyze::{CollectorSink, TraceRecord};
use lbrm_core::trace::{TraceSink, Tracer};
use lbrm_wire::{GroupId, HostId, Packet, Seq, SourceId};

const GROUP: GroupId = GroupId(7);
const SOURCE: SourceId = SourceId(7);
const SRC: HostId = HostId(1);
pub const OLD_PRIMARY: HostId = HostId(2);
const REPLICA_B: HostId = HostId(3);
const REPLICA_C: HostId = HostId(4);
const RX: HostId = HostId(5);

/// Pulls the first unicast `Nack` out of `out`, panicking with `what`
/// if none is there.
fn take_nack(out: &Actions, what: &str) -> (HostId, Packet) {
    out.iter()
        .find_map(|a| match a {
            Action::Unicast {
                to,
                packet: p @ Packet::Nack { .. },
            } => Some((*to, p.clone())),
            _ => None,
        })
        .unwrap_or_else(|| panic!("expected {what}: {out:?}"))
}

/// Runs the script and returns every trace record the five machines
/// emitted.
pub fn capture() -> Vec<TraceRecord> {
    let sink = Arc::new(CollectorSink::default());
    let tracer = || Tracer::to(sink.clone() as Arc<dyn TraceSink>);

    let mut cfg = SenderConfig::new(GROUP, SOURCE, SRC, OLD_PRIMARY);
    cfg.replicas = vec![REPLICA_B, REPLICA_C];
    let mut sender = Sender::new(cfg);
    sender.set_tracer(tracer());

    let mut acfg = LoggerConfig::primary(GROUP, SOURCE, OLD_PRIMARY, SRC);
    acfg.replicas = vec![REPLICA_B, REPLICA_C];
    let mut stale = Logger::new(acfg);
    stale.set_tracer(tracer());
    let mut rep_b = Logger::new(LoggerConfig::replica(
        GROUP,
        SOURCE,
        REPLICA_B,
        OLD_PRIMARY,
        SRC,
    ));
    rep_b.set_tracer(tracer());
    let mut rep_c = Logger::new(LoggerConfig::replica(
        GROUP,
        SOURCE,
        REPLICA_C,
        OLD_PRIMARY,
        SRC,
    ));
    rep_c.set_tracer(tracer());
    let mut rx = Receiver::new(ReceiverConfig::new(
        GROUP,
        SOURCE,
        RX,
        SRC,
        vec![OLD_PRIMARY],
    ));
    rx.set_tracer(tracer());

    let mut out = Actions::new();
    let mut now = Time::ZERO;
    sender.on_start(now, &mut out);
    stale.on_start(now, &mut out);
    rep_b.on_start(now, &mut out);
    rep_c.on_start(now, &mut out);
    rx.on_start(now, &mut out);
    out.clear();

    // Three data packets; the old primary and replica B log all of
    // them, replica C none (so the election must pick B).
    let mut datas = Vec::new();
    for i in 0..3u32 {
        now = Time::from_millis(10 + 10 * u64::from(i));
        sender.send(now, Bytes::from(format!("u{i}")), &mut out);
    }
    for a in out.iter() {
        if let Action::Multicast {
            packet: p @ Packet::Data { .. },
            ..
        } = a
        {
            datas.push(p.clone());
        }
    }
    assert_eq!(datas.len(), 3);
    out.clear();
    for p in &datas {
        stale.on_packet(now, SRC, p.clone(), &mut out);
        rep_b.on_packet(now, SRC, p.clone(), &mut out);
    }
    // The primary's LogAcks are lost from here on (it is about to be
    // partitioned), so the sender's handoff retries go unanswered.
    out.clear();

    // The receiver misses #2: deliver #1 and #3, then drive its NACK
    // out — and hold it in flight toward the (still-believed) primary.
    rx.on_packet(now, SRC, datas[0].clone(), &mut out);
    rx.on_packet(now, SRC, datas[2].clone(), &mut out);
    assert_eq!(deliveries(&out).len(), 2);
    out.clear();
    let held_nack = {
        now = rx.next_deadline().expect("receiver scheduled its NACK");
        rx.poll(now, &mut out);
        let (to, nack) = take_nack(&out, "a NACK aimed at the old primary");
        assert_eq!(to, OLD_PRIMARY);
        out.clear();
        nack
    };

    // Unanswered handoff retries push the sender into failover.
    for _ in 0..60 {
        now = sender.next_deadline().expect("sender keeps timers armed");
        sender.poll(now, &mut out);
        if notices(&out)
            .iter()
            .any(|n| matches!(n, Notice::PrimaryUnresponsive { .. }))
        {
            break;
        }
    }
    let prepares: Vec<(HostId, Packet)> = out
        .iter()
        .filter_map(|a| match a {
            Action::Unicast {
                to,
                packet: p @ Packet::ElectPrepare { .. },
            } => Some((*to, p.clone())),
            _ => None,
        })
        .collect();
    assert_eq!(
        prepares.iter().map(|(to, _)| *to).collect::<Vec<_>>(),
        vec![REPLICA_B, REPLICA_C],
        "failover must solicit both replicas"
    );
    out.clear();

    // Both replicas vote; B reports the longer log and wins term 1.
    let mut votes = Actions::new();
    for (to, prep) in &prepares {
        let m: &mut Logger = if *to == REPLICA_B {
            &mut rep_b
        } else {
            &mut rep_c
        };
        m.on_packet(now, SRC, prep.clone(), &mut votes);
    }
    for v in votes {
        if let Action::Unicast {
            packet: p @ Packet::ElectPromise { .. },
            ..
        } = v
        {
            let from = match p {
                Packet::ElectPromise { voter, .. } => voter,
                _ => unreachable!(),
            };
            sender.on_packet(now, from, p, &mut out);
        }
    }
    assert_eq!(sender.primary(), REPLICA_B);
    assert_eq!(sender.term(), 1);
    let announce = out
        .iter()
        .find_map(|a| match a {
            Action::Multicast {
                packet: p @ Packet::TermAnnounce { .. },
                ..
            } => Some(p.clone()),
            _ => None,
        })
        .expect("election must announce the new term");
    out.clear();

    // Everyone on the majority side hears the announcement — the old
    // primary, partitioned away, does not.
    rx.on_packet(now, SRC, announce.clone(), &mut out);
    rep_b.on_packet(now, SRC, announce.clone(), &mut out);
    rep_c.on_packet(now, SRC, announce, &mut out);
    out.clear();

    // The held NACK finally lands at the stale primary. It still
    // believes it is the authority and serves the repair.
    stale.on_packet(now, RX, held_nack, &mut out);
    let stale_retrans = out
        .iter()
        .find_map(|a| match a {
            Action::Unicast {
                to: RX,
                packet: p @ Packet::Retrans { .. },
            } => Some(p.clone()),
            _ => None,
        })
        .expect("the stale primary must still serve the repair");
    out.clear();

    // The receiver fences it: no delivery, the gap stays open.
    rx.on_packet(now, OLD_PRIMARY, stale_retrans, &mut out);
    assert!(
        deliveries(&out).is_empty(),
        "a fenced retransmission must not deliver: {out:?}"
    );
    out.clear();

    // The receiver's recovery was re-aimed at the elected leader by the
    // announcement; the retry goes to B, which serves under term 1.
    let renack = {
        let mut found = None;
        for _ in 0..20 {
            now = now.max(rx.next_deadline().expect("retry still pending"));
            rx.poll(now, &mut out);
            if let Some((to, nack)) = out.iter().find_map(|a| match a {
                Action::Unicast {
                    to,
                    packet: p @ Packet::Nack { .. },
                } => Some((*to, p.clone())),
                _ => None,
            }) {
                found = Some((to, nack));
                break;
            }
        }
        let (to, nack) = found.expect("receiver must retry its NACK");
        assert_eq!(to, REPLICA_B, "retry must target the elected leader");
        out.clear();
        nack
    };
    rep_b.on_packet(now, RX, renack, &mut out);
    let good_retrans = out
        .iter()
        .find_map(|a| match a {
            Action::Unicast {
                to: RX,
                packet: p @ Packet::Retrans { .. },
            } => Some(p.clone()),
            _ => None,
        })
        .expect("the elected leader must serve the repair");
    out.clear();
    rx.on_packet(now, REPLICA_B, good_retrans, &mut out);
    let recovered = deliveries(&out);
    assert_eq!(recovered.len(), 1, "seq 2 must recover via the new leader");
    assert!(recovered[0].recovered);
    assert_eq!(recovered[0].seq, Seq(2));
    sink.take()
}
