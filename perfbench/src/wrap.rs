//! Pass-through wrappers that time calls into each layer from outside.
//!
//! Each wrapper implements the layer's public trait by forwarding to the
//! wrapped value inside a [`span`](crate::span) and is installed with
//! the program's existing constructors (`World::add_actor`,
//! `MachineActor::new`, `Tracer::to`, `Endpoint::new`). They change no
//! behaviour: a traced sim world produces the same events, network
//! statistics and deliveries as the untraced one, which the benchmark
//! checks on every traced run.

use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use lbrm_core::machine::{Action, Actions, Machine};
use lbrm_core::time::Time;
use lbrm_core::trace::{ProtocolEvent, TraceSink, Tracer};
use lbrm_net::Transport;
use lbrm_sim::world::{Actor, Ctx};
use lbrm_wire::{GroupId, HostId, Packet, TtlScope};

use crate::span::{enter, Layer};

/// Times every `lbrm_sim::world::Actor` callback as a harness span.
pub struct TimedActor<A> {
    /// The wrapped actor.
    pub inner: A,
}

impl<A: Actor> Actor for TimedActor<A> {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let _g = enter(Layer::Harness);
        self.inner.on_start(ctx);
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, from: HostId, packet: Packet) {
        let _g = enter(Layer::Harness);
        self.inner.on_packet(ctx, from, packet);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        let _g = enter(Layer::Harness);
        self.inner.on_timer(ctx, token);
    }
}

/// Protocol work a machine did, counted from its inputs and outputs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// NACK packets emitted.
    pub nacks_sent: u64,
    /// Repair (`Retrans`) packets emitted.
    pub repairs_sent: u64,
    /// Heartbeat packets emitted.
    pub heartbeats_sent: u64,
    /// Repair packets received.
    pub repairs_received: u64,
}

impl Tally {
    /// Field-wise sum.
    pub fn add(&mut self, o: &Tally) {
        self.nacks_sent += o.nacks_sent;
        self.repairs_sent += o.repairs_sent;
        self.heartbeats_sent += o.heartbeats_sent;
        self.repairs_received += o.repairs_received;
    }

    fn count_out(&mut self, out: &[Action]) {
        for a in out {
            if let Action::Unicast { packet, .. } | Action::Multicast { packet, .. } = a {
                match packet {
                    Packet::Nack { .. } => self.nacks_sent += 1,
                    Packet::Retrans { .. } => self.repairs_sent += 1,
                    Packet::Heartbeat { .. } => self.heartbeats_sent += 1,
                    _ => {}
                }
            }
        }
    }
}

/// Times every `lbrm_core::machine::Machine` call as a span of the
/// machine's role, and tallies the packets it handles.
pub struct TimedMachine<M> {
    inner: M,
    role: Layer,
    tally: Tally,
}

impl<M> TimedMachine<M> {
    /// Wraps `inner`, charging its calls to `role`.
    pub fn new(inner: M, role: Layer) -> Self {
        TimedMachine {
            inner,
            role,
            tally: Tally::default(),
        }
    }

    /// The wrapped machine.
    pub fn inner(&self) -> &M {
        &self.inner
    }

    /// Runs an application call (e.g. `Sender::send`) against the
    /// wrapped machine inside a span of its role.
    pub fn app_call<R>(
        &mut self,
        out: &mut Actions,
        f: impl FnOnce(&mut M, &mut Actions) -> R,
    ) -> R {
        let n = out.len();
        let r = {
            let _g = enter(self.role);
            f(&mut self.inner, out)
        };
        self.tally.count_out(&out[n..]);
        r
    }

    /// Packets this machine sent and repairs it received.
    pub fn tally(&self) -> Tally {
        self.tally
    }
}

impl<M: Machine> Machine for TimedMachine<M> {
    fn on_start(&mut self, now: Time, out: &mut Actions) {
        self.app_call(out, |m, out| m.on_start(now, out));
    }

    fn set_tracer(&mut self, tracer: Tracer) {
        self.inner.set_tracer(tracer);
    }

    fn on_packet(&mut self, now: Time, from: HostId, packet: Packet, out: &mut Actions) {
        if matches!(packet, Packet::Retrans { .. }) {
            self.tally.repairs_received += 1;
        }
        self.app_call(out, |m, out| m.on_packet(now, from, packet, out));
    }

    fn poll(&mut self, now: Time, out: &mut Actions) {
        self.app_call(out, |m, out| m.poll(now, out));
    }

    fn next_deadline(&self) -> Option<Time> {
        let _g = enter(self.role);
        self.inner.next_deadline()
    }
}

/// Times every `lbrm_core::trace::TraceSink::record` as a sink span.
pub struct TimedSink {
    inner: Arc<dyn TraceSink>,
}

impl TimedSink {
    /// Wraps `inner` as a new shared sink.
    pub fn wrap(inner: Arc<dyn TraceSink>) -> Arc<dyn TraceSink> {
        Arc::new(TimedSink { inner })
    }
}

impl TraceSink for TimedSink {
    fn record(&self, at_nanos: u64, host: HostId, event: &ProtocolEvent) {
        let _g = enter(Layer::Sink);
        self.inner.record(at_nanos, host, event);
    }
}

/// Counters a [`TimedTransport`] shares with the benchmark (the
/// transport itself moves into its endpoint thread).
#[derive(Debug, Default)]
pub struct TransportTally {
    /// Receive calls that returned no packet.
    pub recv_empty: AtomicU64,
    /// Packets handed to the send calls, kept for the codec replay.
    pub sent: Mutex<Vec<Packet>>,
}

/// Most packets one transport keeps for the codec replay.
const CAPTURE_CAP: usize = 1 << 16;

/// Times every `lbrm_net::Transport` send and receive call.
pub struct TimedTransport<T> {
    inner: T,
    tally: Arc<TransportTally>,
}

impl<T: Transport> TimedTransport<T> {
    /// Wraps `inner`; the returned tally stays readable after the
    /// transport moves into an endpoint.
    pub fn new(inner: T) -> (Self, Arc<TransportTally>) {
        let tally = Arc::new(TransportTally::default());
        (
            TimedTransport {
                inner,
                tally: Arc::clone(&tally),
            },
            tally,
        )
    }

    fn capture(&self, packets: &[Packet]) {
        let mut sent = self.tally.sent.lock().expect("capture lock poisoned");
        let room = CAPTURE_CAP.saturating_sub(sent.len());
        sent.extend(packets.iter().take(room).cloned());
    }

    fn send(
        &mut self,
        packets: &[Packet],
        f: impl FnOnce(&mut T) -> io::Result<()>,
    ) -> io::Result<()> {
        let r = {
            let _g = enter(Layer::NetSend);
            f(&mut self.inner)
        };
        self.capture(packets);
        r
    }
}

impl<T: Transport> Transport for TimedTransport<T> {
    fn local_host(&self) -> HostId {
        self.inner.local_host()
    }

    fn send_unicast(&mut self, to: HostId, packet: &Packet) -> io::Result<()> {
        self.send(std::slice::from_ref(packet), |t| t.send_unicast(to, packet))
    }

    fn send_multicast(&mut self, scope: TtlScope, packet: &Packet) -> io::Result<()> {
        self.send(std::slice::from_ref(packet), |t| {
            t.send_multicast(scope, packet)
        })
    }

    fn send_unicast_bundle(&mut self, to: HostId, packets: &[Packet]) -> io::Result<()> {
        self.send(packets, |t| t.send_unicast_bundle(to, packets))
    }

    fn send_multicast_bundle(&mut self, scope: TtlScope, packets: &[Packet]) -> io::Result<()> {
        self.send(packets, |t| t.send_multicast_bundle(scope, packets))
    }

    fn send_unicast_fanout(&mut self, dests: &[HostId], packet: &Packet) -> io::Result<()> {
        self.send(std::slice::from_ref(packet), |t| {
            t.send_unicast_fanout(dests, packet)
        })
    }

    fn recv_timeout(&mut self, timeout: Duration) -> io::Result<Option<(HostId, Packet)>> {
        let r = {
            let _g = enter(Layer::NetRecv);
            self.inner.recv_timeout(timeout)
        };
        if matches!(r, Ok(None)) {
            self.tally.recv_empty.fetch_add(1, Ordering::Relaxed);
        }
        r
    }

    fn join(&mut self, group: GroupId) -> io::Result<()> {
        self.inner.join(group)
    }

    fn leave(&mut self, group: GroupId) -> io::Result<()> {
        self.inner.leave(group)
    }
}
