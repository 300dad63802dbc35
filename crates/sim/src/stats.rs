//! Traffic accounting.
//!
//! The paper's evaluation counts packets crossing particular *classes* of
//! network segment: the LAN, a site's tail circuit (in either direction),
//! and the WAN backbone. [`NetStats`] records carried and dropped
//! traversals per segment class and per packet kind (`"data"`,
//! `"heartbeat"`, `"nack"`, ...), plus per-site tail-circuit detail for
//! the Figure-7 NACK-reduction experiment.
//!
//! [`BundleStats`] is the datagram-level companion: it models DIS-style
//! PDU bundling (`lbrm_wire::bundle`) arithmetically, so experiments can
//! report datagrams-saved deterministically without serializing a byte.
//! Bundle accounting is deliberately separate from [`NetStats`]: the
//! protocol-visible traffic model is identical across `LBRM_BUNDLE`
//! legs (pinned by a differential test), and only this ledger differs.

use std::collections::BTreeMap;

use lbrm_wire::bundle::{
    BundleMode, BUNDLE_HEADER_LEN, DEFAULT_BUNDLE_MTU, ENTRY_PREFIX_LEN, MAX_BUNDLE_PACKETS,
};
use lbrm_wire::SiteId;

use crate::time::SimTime;

/// The four classes of network segment in the Figure-1 topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SegmentClass {
    /// A site's local network.
    Lan,
    /// A site's tail circuit, outbound (site → backbone).
    TailOut,
    /// A site's tail circuit, inbound (backbone → site).
    TailIn,
    /// The wide-area backbone.
    Wan,
}

/// Number of [`SegmentClass`] variants: the width of a counter row.
const CLASSES: usize = 4;

/// Carried/dropped counters for one key.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter {
    /// Traversals that crossed the segment.
    pub carried: u64,
    /// Bytes carried.
    pub bytes: u64,
    /// Traversals dropped by the segment's loss model.
    pub dropped: u64,
}

impl Counter {
    fn bump(&mut self, bytes: usize, dropped: bool) {
        if dropped {
            self.dropped += 1;
        } else {
            self.carried += 1;
            self.bytes += bytes as u64;
        }
    }

    /// Every traversal bumps `carried` or `dropped`, so a zero counter
    /// is one that never saw a traversal.
    fn is_zero(&self) -> bool {
        self.carried == 0 && self.dropped == 0
    }
}

/// One packet kind's counters on each segment class, indexed by
/// [`SegmentClass`].
type Row = [Counter; CLASSES];

/// Everything counted for one packet kind.
#[derive(Clone)]
struct KindCounters {
    kind: &'static str,
    /// Totals per segment class.
    total: Row,
    /// Per-site counters, by site index (grown on demand; a missing row
    /// is all zeros).
    by_site: Vec<Row>,
}

impl KindCounters {
    fn site(&self, site: usize) -> Row {
        self.by_site.get(site).copied().unwrap_or_default()
    }

    fn site_mut(&mut self, site: usize) -> &mut Row {
        if self.by_site.len() <= site {
            self.by_site.resize(site + 1, Row::default());
        }
        &mut self.by_site[site]
    }
}

/// Aggregated network statistics for a simulation run.
///
/// Counters are dense: packet kinds are interned on first sight and
/// each kind keeps flat per-class and per-site rows, so recording a
/// traversal is a short scan of the (handful of) kinds plus array
/// indexing — no hashing on the per-copy path — and a ledger is one
/// allocation per kind. Equality compares the counters of every
/// (class, site, kind) key and ignores the interning order, which
/// differs between shards that meet the kinds in different orders.
#[derive(Clone, Default)]
pub struct NetStats {
    /// Per-kind counters, in first-seen order.
    kinds: Vec<KindCounters>,
}

impl NetStats {
    /// Records a traversal of `class` by a packet of `kind`.
    pub fn record(
        &mut self,
        class: SegmentClass,
        site: Option<SiteId>,
        kind: &'static str,
        bytes: usize,
        dropped: bool,
    ) {
        let k = self.intern(kind);
        let kc = &mut self.kinds[k];
        kc.total[class as usize].bump(bytes, dropped);
        if let Some(site) = site {
            kc.site_mut(site.raw() as usize)[class as usize].bump(bytes, dropped);
        }
    }

    /// Index of `kind`, interning it if new. Kinds are `'static` labels,
    /// so the pointer test nearly always decides; the string test keeps
    /// two copies of one label a single kind.
    fn intern(&mut self, kind: &'static str) -> usize {
        if let Some(k) = self.kinds.iter().position(|c| std::ptr::eq(c.kind, kind)) {
            return k;
        }
        if let Some(k) = self.index_of(kind) {
            return k;
        }
        self.kinds.push(KindCounters {
            kind,
            total: Row::default(),
            by_site: Vec::new(),
        });
        self.kinds.len() - 1
    }

    fn index_of(&self, kind: &str) -> Option<usize> {
        self.kinds.iter().position(|c| c.kind == kind)
    }

    fn get(&self, kind: &str) -> Option<&KindCounters> {
        self.index_of(kind).map(|k| &self.kinds[k])
    }

    /// Every nonzero counter keyed by `(site, class, kind)` (`site` is
    /// `None` for the per-class totals): the interning-order-free view
    /// that equality and `Debug` use.
    fn canonical(&self) -> BTreeMap<(Option<usize>, usize, &'static str), Counter> {
        let mut out = BTreeMap::new();
        for kc in &self.kinds {
            let rows = std::iter::once((None, &kc.total))
                .chain(kc.by_site.iter().enumerate().map(|(s, r)| (Some(s), r)));
            for (site, row) in rows {
                for (class, c) in row.iter().enumerate() {
                    if !c.is_zero() {
                        out.insert((site, class, kc.kind), *c);
                    }
                }
            }
        }
        out
    }

    /// Counter for a segment class and packet kind.
    pub fn class_kind(&self, class: SegmentClass, kind: &str) -> Counter {
        self.get(kind)
            .map_or_else(Counter::default, |kc| kc.total[class as usize])
    }

    /// Total counter for a segment class across all packet kinds.
    pub fn class_total(&self, class: SegmentClass) -> Counter {
        self.kinds
            .iter()
            .map(|kc| kc.total[class as usize])
            .fold(Counter::default(), add)
    }

    /// Counter for one site's tail circuit in one direction and kind.
    pub fn site_tail(&self, site: SiteId, class: SegmentClass, kind: &str) -> Counter {
        self.get(kind).map_or_else(Counter::default, |kc| {
            kc.site(site.raw() as usize)[class as usize]
        })
    }

    /// Folds another accounting into this one (counter-wise sums over
    /// the key union). Merging is commutative and associative, so the
    /// sharded world can accumulate per-shard `NetStats` independently
    /// and merge them in any order with one deterministic result.
    pub fn merge(&mut self, other: &NetStats) {
        for theirs in &other.kinds {
            let k = self.intern(theirs.kind);
            let mine = &mut self.kinds[k];
            add_row(&mut mine.total, &theirs.total);
            for (site, row) in theirs.by_site.iter().enumerate() {
                add_row(mine.site_mut(site), row);
            }
        }
    }

    /// All packet kinds seen on a class, with counters (sorted by kind for
    /// deterministic reporting).
    pub fn kinds_on(&self, class: SegmentClass) -> Vec<(&'static str, Counter)> {
        let mut v: Vec<_> = self
            .kinds
            .iter()
            .map(|kc| (kc.kind, kc.total[class as usize]))
            .filter(|(_, c)| !c.is_zero())
            .collect();
        v.sort_by_key(|(k, _)| *k);
        v
    }
}

impl PartialEq for NetStats {
    fn eq(&self, other: &NetStats) -> bool {
        self.canonical() == other.canonical()
    }
}

impl Eq for NetStats {}

impl std::fmt::Debug for NetStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map().entries(self.canonical()).finish()
    }
}

fn add_row(into: &mut Row, from: &Row) {
    for (a, b) in into.iter_mut().zip(from) {
        *a = add(*a, *b);
    }
}

fn add(a: Counter, b: Counter) -> Counter {
    Counter {
        carried: a.carried + b.carried,
        bytes: a.bytes + b.bytes,
        dropped: a.dropped + b.dropped,
    }
}

/// Per-packet-kind bundle accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KindBundle {
    /// Protocol packets of this kind sent.
    pub packets: u64,
    /// Datagram frames *opened* by a packet of this kind. A mixed-kind
    /// frame is charged to the kind that opened it, so per-kind frames
    /// sum exactly to [`BundleStats::frames`].
    pub frames: u64,
}

/// Datagram-level accounting under the simulator's bundle-framing model.
///
/// Both ledgers are always maintained — `packets`/`bytes_unbundled`
/// count one datagram per packet, `frames`/`bytes_bundled` count
/// MTU-bounded coalesced frames — and [`mode`](Self::mode) selects
/// which one [`datagrams`](Self::datagrams) and
/// [`wire_bytes`](Self::wire_bytes) report. One run therefore yields
/// both legs' datagram counts, while differential tests can still pin
/// that the mode changes *nothing else*.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BundleStats {
    /// The mode the reporting accessors answer for (the world's
    /// `LBRM_BUNDLE` setting at collection time).
    pub mode: BundleMode,
    /// Protocol packets sent (= datagrams with bundling off).
    pub packets: u64,
    /// Datagrams with bundling on: consecutive same-instant sends to
    /// one destination share MTU-bounded frames.
    pub frames: u64,
    /// Wire bytes with one datagram per packet.
    pub bytes_unbundled: u64,
    /// Wire bytes under bundle framing (single-packet frames carry no
    /// framing overhead — they go out as bare packets).
    pub bytes_bundled: u64,
    /// Per-kind breakdown (deterministically ordered).
    pub per_kind: BTreeMap<&'static str, KindBundle>,
}

impl BundleStats {
    /// Datagrams sent under the recorded [`mode`](Self::mode).
    pub fn datagrams(&self) -> u64 {
        if self.mode.is_on() {
            self.frames
        } else {
            self.packets
        }
    }

    /// Wire bytes sent under the recorded [`mode`](Self::mode).
    pub fn wire_bytes(&self) -> u64 {
        if self.mode.is_on() {
            self.bytes_bundled
        } else {
            self.bytes_unbundled
        }
    }

    /// Per-kind counters (zero for kinds never sent).
    pub fn kind(&self, kind: &str) -> KindBundle {
        self.per_kind.get(kind).copied().unwrap_or_default()
    }

    /// Folds another accounting into this one (`mode` is left alone —
    /// it is a reporting selector, not a counter). Commutative and
    /// associative like [`NetStats::merge`].
    pub fn merge(&mut self, other: &BundleStats) {
        self.packets += other.packets;
        self.frames += other.frames;
        self.bytes_unbundled += other.bytes_unbundled;
        self.bytes_bundled += other.bytes_bundled;
        for (k, v) in &other.per_kind {
            let c = self.per_kind.entry(k).or_default();
            c.packets += v.packets;
            c.frames += v.frames;
        }
    }
}

/// Where a metered send was headed. Unicast sends key on the target
/// host; multicast sends key on (group, TTL) — one IP-multicast datagram
/// regardless of receiver count.
pub(crate) type DestKey = (u8, u64, u64);

/// One host's deterministic bundle-framing fold.
///
/// Mirrors `lbrm_wire::BundleBuilder`'s flush rule arithmetically: a
/// send joins the open frame iff it happens at the same virtual instant,
/// to the same destination, the frame holds fewer than
/// [`MAX_BUNDLE_PACKETS`], and the entry still fits the MTU. Because a
/// host's sends are processed in a placement-invariant order, the fold —
/// and thus every reported count — is identical for any shard count.
#[derive(Debug, Default)]
pub(crate) struct BundleMeter {
    stats: BundleStats,
    open: Option<OpenFrame>,
}

#[derive(Debug)]
struct OpenFrame {
    at: SimTime,
    dest: DestKey,
    count: usize,
    /// Modeled frame size: header + Σ(prefix + packet).
    frame_bytes: usize,
}

impl BundleMeter {
    /// Accounts one packet send of `len` encoded bytes.
    pub fn record(&mut self, at: SimTime, dest: DestKey, kind: &'static str, len: usize) {
        self.stats.packets += 1;
        self.stats.bytes_unbundled += len as u64;
        self.stats.per_kind.entry(kind).or_default().packets += 1;
        if let Some(open) = &mut self.open {
            if open.at == at
                && open.dest == dest
                && open.count < MAX_BUNDLE_PACKETS
                && open.frame_bytes + ENTRY_PREFIX_LEN + len <= DEFAULT_BUNDLE_MTU
            {
                if open.count == 1 {
                    // The frame just became a real bundle: charge the
                    // header and the first entry's prefix retroactively
                    // (a frame that stays single goes out bare).
                    self.stats.bytes_bundled += (BUNDLE_HEADER_LEN + ENTRY_PREFIX_LEN) as u64;
                }
                self.stats.bytes_bundled += (ENTRY_PREFIX_LEN + len) as u64;
                open.count += 1;
                open.frame_bytes += ENTRY_PREFIX_LEN + len;
                return;
            }
        }
        self.open = Some(OpenFrame {
            at,
            dest,
            count: 1,
            frame_bytes: BUNDLE_HEADER_LEN + ENTRY_PREFIX_LEN + len,
        });
        self.stats.frames += 1;
        self.stats.bytes_bundled += len as u64;
        self.stats.per_kind.entry(kind).or_default().frames += 1;
    }

    /// The accumulated accounting (`mode` is the default — the world
    /// stamps its own mode when merging).
    pub fn stats(&self) -> &BundleStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_query() {
        let mut s = NetStats::default();
        s.record(SegmentClass::Wan, None, "nack", 40, false);
        s.record(SegmentClass::Wan, None, "nack", 40, false);
        s.record(SegmentClass::Wan, None, "nack", 40, true);
        s.record(SegmentClass::Wan, None, "data", 100, false);
        s.record(SegmentClass::TailIn, Some(SiteId(3)), "data", 100, true);

        let n = s.class_kind(SegmentClass::Wan, "nack");
        assert_eq!(n.carried, 2);
        assert_eq!(n.dropped, 1);
        assert_eq!(n.bytes, 80);

        let t = s.class_total(SegmentClass::Wan);
        assert_eq!(t.carried, 3);

        let tail = s.site_tail(SiteId(3), SegmentClass::TailIn, "data");
        assert_eq!(tail.dropped, 1);
        assert_eq!(tail.carried, 0);

        assert_eq!(
            s.site_tail(SiteId(9), SegmentClass::TailIn, "data"),
            Counter::default()
        );
    }

    #[test]
    fn merge_sums_counters_and_is_order_free() {
        let mut a = NetStats::default();
        a.record(SegmentClass::Wan, None, "data", 100, false);
        a.record(SegmentClass::TailIn, Some(SiteId(1)), "data", 100, true);
        let mut b = NetStats::default();
        b.record(SegmentClass::Wan, None, "data", 50, false);
        b.record(SegmentClass::Wan, None, "nack", 40, true);

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba, "merge must be commutative");

        let w = ab.class_kind(SegmentClass::Wan, "data");
        assert_eq!((w.carried, w.bytes), (2, 150));
        assert_eq!(ab.class_kind(SegmentClass::Wan, "nack").dropped, 1);
        assert_eq!(
            ab.site_tail(SiteId(1), SegmentClass::TailIn, "data")
                .dropped,
            1
        );
    }

    /// Shards meet packet kinds in different orders, so the interning
    /// order differs between ledgers that hold the same counts: equality
    /// and merge must not see it.
    #[test]
    fn equality_and_merge_ignore_kind_first_seen_order() {
        let traversals = [
            (SegmentClass::Lan, Some(SiteId(2)), "data", 100, false),
            (SegmentClass::TailIn, Some(SiteId(5)), "nack", 40, true),
            (SegmentClass::Wan, None, "heartbeat", 30, false),
            (
                SegmentClass::TailOut,
                Some(SiteId(0)),
                "retrans",
                120,
                false,
            ),
            (SegmentClass::Lan, Some(SiteId(2)), "nack", 40, false),
        ];
        let mut a = NetStats::default();
        for &(class, site, kind, bytes, dropped) in &traversals {
            a.record(class, site, kind, bytes, dropped);
        }
        let mut b = NetStats::default();
        for &(class, site, kind, bytes, dropped) in traversals.iter().rev() {
            b.record(class, site, kind, bytes, dropped);
        }
        let order = |s: &NetStats| s.kinds.iter().map(|kc| kc.kind).collect::<Vec<_>>();
        assert_ne!(
            order(&a),
            order(&b),
            "the ledgers interned in different orders"
        );
        assert_eq!(a, b);

        // A kind spelled by a different `'static` copy is the same kind.
        let mut c = NetStats::default();
        c.record(SegmentClass::Wan, None, "heartbeat", 30, false);
        c.record(
            SegmentClass::Wan,
            None,
            String::from("heartbeat").leak(),
            30,
            false,
        );
        assert_eq!(c.kinds_on(SegmentClass::Wan).len(), 1);
        assert_eq!(c.class_kind(SegmentClass::Wan, "heartbeat").carried, 2);

        let mut e = NetStats::default();
        e.record(SegmentClass::Wan, None, "data", 100, false);
        e.record(SegmentClass::TailIn, Some(SiteId(5)), "repair", 90, false);
        e.record(SegmentClass::TailIn, Some(SiteId(7)), "nack", 40, false);
        let mut ae = a.clone();
        ae.merge(&e);
        let mut ea = e.clone();
        ea.merge(&a);
        assert_eq!(ae, ea, "merge must be commutative");
        assert_eq!(ae.class_kind(SegmentClass::TailIn, "nack").dropped, 1);
        assert_eq!(
            ae.site_tail(SiteId(7), SegmentClass::TailIn, "nack")
                .carried,
            1
        );
        assert_eq!(
            ae.site_tail(SiteId(5), SegmentClass::TailIn, "repair")
                .bytes,
            90
        );
        assert_ne!(ae, a, "a merged ledger differs from its part");
    }

    #[test]
    fn bundle_meter_coalesces_same_instant_same_dest() {
        let mut m = BundleMeter::default();
        let t0 = SimTime::ZERO;
        let dest = (0u8, 7u64, 0u64);
        m.record(t0, dest, "retrans", 100);
        m.record(t0, dest, "retrans", 100);
        m.record(t0, dest, "retrans", 100);
        let s = m.stats();
        assert_eq!(s.packets, 3);
        assert_eq!(s.frames, 1, "same instant + dest must share a frame");
        assert_eq!(s.bytes_unbundled, 300);
        // 8-byte header + three (2-byte prefix + 100-byte packet) entries.
        assert_eq!(s.bytes_bundled, 8 + 3 * 102);
        assert_eq!(s.kind("retrans").frames, 1);
        assert_eq!(s.kind("retrans").packets, 3);

        // A later instant opens a new frame even to the same dest.
        let t1 = t0 + std::time::Duration::from_millis(1);
        m.record(t1, dest, "retrans", 100);
        assert_eq!(m.stats().frames, 2);
        // A different dest at that instant opens another.
        m.record(t1, (0, 8, 0), "retrans", 100);
        assert_eq!(m.stats().frames, 3);
    }

    #[test]
    fn single_packet_frames_are_billed_bare() {
        let mut m = BundleMeter::default();
        m.record(SimTime::ZERO, (0, 1, 0), "data", 64);
        assert_eq!(m.stats().bytes_bundled, 64, "no framing for a lone packet");
        assert_eq!(m.stats().bytes_unbundled, 64);
    }

    #[test]
    fn bundle_meter_respects_mtu_and_count_cap() {
        // Two 700-byte packets: 8 + 702 + 702 > 1400, so the second
        // opens a new frame.
        let mut m = BundleMeter::default();
        let dest = (1u8, 1u64, 15u64);
        m.record(SimTime::ZERO, dest, "data", 700);
        m.record(SimTime::ZERO, dest, "data", 700);
        assert_eq!(m.stats().frames, 2);

        // 300 one-byte packets fit the MTU but overflow the u8 count.
        let mut m = BundleMeter::default();
        for _ in 0..300 {
            m.record(SimTime::ZERO, dest, "nack", 1);
        }
        assert_eq!(m.stats().packets, 300);
        assert_eq!(m.stats().frames, 2, "count cap at 255 splits the frame");
    }

    #[test]
    fn bundle_stats_mode_selects_ledger_and_merge_is_order_free() {
        let mut m = BundleMeter::default();
        let dest = (0u8, 2u64, 0u64);
        for _ in 0..10 {
            m.record(SimTime::ZERO, dest, "retrans", 50);
        }
        let mut off = m.stats().clone();
        off.mode = BundleMode::Off;
        assert_eq!(off.datagrams(), 10);
        assert_eq!(off.wire_bytes(), 500);
        let mut on = off.clone();
        on.mode = BundleMode::On;
        assert_eq!(on.datagrams(), 1);
        assert_eq!(on.wire_bytes(), 8 + 10 * 52);

        let mut a = BundleStats::default();
        a.merge(&off);
        a.merge(&on);
        let mut b = BundleStats::default();
        b.merge(&on);
        b.merge(&off);
        assert_eq!(a, b, "merge must be commutative");
        assert_eq!(a.packets, 20);
        assert_eq!(a.kind("retrans").packets, 20);
    }

    #[test]
    fn kinds_listing_sorted() {
        let mut s = NetStats::default();
        s.record(SegmentClass::Lan, Some(SiteId(0)), "nack", 1, false);
        s.record(SegmentClass::Lan, Some(SiteId(0)), "data", 1, false);
        let kinds = s.kinds_on(SegmentClass::Lan);
        assert_eq!(
            kinds.iter().map(|(k, _)| *k).collect::<Vec<_>>(),
            vec!["data", "nack"]
        );
    }
}
