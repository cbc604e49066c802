//! Causal flight recorder — typed cross-layer packet tracing.
//!
//! The paper's key claims are causal chains: a delayed 802.11 BlockAck
//! starves the TCP self-clock, which shrinks the next A-MPDU, which
//! wastes airtime (§5). The metrics registry says *that* aggregation
//! collapsed; this module records *which* frame chain caused it. One
//! byte of payload can be followed from TCP segment → MAC frame →
//! A-MPDU slot → airtime span → (fast) ACK, across every layer that
//! emits records.
//!
//! ## Design
//!
//! * **Typed records** — [`TraceRecord`] is a plain enum of `Copy`
//!   fields; emission never formats or allocates per record (the ring
//!   slot is overwritten in place once the buffer is warm).
//! * **Causal identity** — every event carries a [`CauseId`] built by
//!   [`cause_for`]`(flow, seq)`: the flow id in the high 16 bits, the
//!   stream offset of the first byte in the low 48. Records emitted at
//!   different layers for the same payload share the id, so a chain is
//!   reconstructible without any cross-layer bookkeeping.
//! * **Fixed-capacity rings** — one ring buffer per component
//!   (`"mac.tx"`, `"tcp.wire"`, …); when full, the oldest record is
//!   overwritten and the component's `dropped` count grows. The
//!   recorder is always a *last-N* window, usable at fleet scale.
//! * **Deterministic dumps** — [`FlightDump::to_bytes`] serializes
//!   length-prefixed records in sorted component order, little-endian
//!   throughout. Identical runs produce byte-identical dumps — the same
//!   contract as `Registry::to_json`, and the artifact `simctl trace diff`
//!   triages.
//! * **Violation-triggered dumps** — [`install_violation_dump`] arms
//!   `sim::sanitize` so any invariant panic first writes the last-N
//!   records to disk: every `#[should_panic]` becomes a post-mortem.
//!
//! ```
//! use sim::SimTime;
//! use telemetry::flight::{cause_for, FlightRecorder, TraceRecord};
//!
//! let rec = FlightRecorder::new(64);
//! let cause = cause_for(7, 1460);
//! rec.emit(
//!     "tcp.wire",
//!     SimTime::from_micros(10),
//!     cause,
//!     TraceRecord::TcpSeg { flow: 7, seq: 1460, len: 1460, retransmit: false },
//! );
//! let dump = rec.snapshot();
//! assert_eq!(dump.chain(7).len(), 1);
//! ```

use sim::{SimDuration, SimTime};
use std::cell::RefCell;
use std::fmt;
use std::path::PathBuf;
use std::rc::Rc;

/// Causal identity shared by every record describing the same payload:
/// flow id in the high 16 bits, first stream-byte offset in the low 48.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct CauseId(pub u64);

/// Offset bits reserved for the stream position inside a [`CauseId`].
pub const CAUSE_SEQ_BITS: u32 = 48;

/// Build the causal id for `(flow, seq)`. Flow ids are small and
/// sequence offsets stay far below 2^48 in any practical run, so the
/// packing is collision-free in practice; it is also exactly the MPDU
/// id convention the testbed uses, which is what makes MAC delivery
/// reports joinable with transport records.
pub const fn cause_for(flow: u64, seq: u64) -> CauseId {
    CauseId((flow << CAUSE_SEQ_BITS) | (seq & ((1 << CAUSE_SEQ_BITS) - 1)))
}

impl CauseId {
    /// No causal link (beacons, collisions, controller housekeeping).
    pub const NONE: CauseId = CauseId(0);

    /// The flow id packed into this cause, 0 if none.
    pub const fn flow_hint(self) -> u64 {
        self.0 >> CAUSE_SEQ_BITS
    }

    /// The stream offset packed into this cause.
    pub const fn seq_hint(self) -> u64 {
        self.0 & ((1 << CAUSE_SEQ_BITS) - 1)
    }
}

/// What an [`TraceRecord::AirtimeSpan`] paid the medium for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AirKind {
    /// Downlink A-MPDU TXOP (protection + aggregate + SIFS + BlockAck).
    ApTxop,
    /// Uplink client TXOP (TCP ACK burst).
    ClientTxop,
    /// Beacon at the legacy basic rate.
    Beacon,
    /// Collision cost (all colliding transmissions lost).
    Collision,
    /// Non-WiFi interferer occupying the medium (fault injection).
    Interferer,
}

impl AirKind {
    const fn tag(self) -> u8 {
        match self {
            AirKind::ApTxop => 0,
            AirKind::ClientTxop => 1,
            AirKind::Beacon => 2,
            AirKind::Collision => 3,
            AirKind::Interferer => 4,
        }
    }

    fn from_tag(tag: u8) -> Result<AirKind, String> {
        Ok(match tag {
            0 => AirKind::ApTxop,
            1 => AirKind::ClientTxop,
            2 => AirKind::Beacon,
            3 => AirKind::Collision,
            4 => AirKind::Interferer,
            t => return Err(format!("unknown AirKind tag {t}")),
        })
    }

    fn name(self) -> &'static str {
        match self {
            AirKind::ApTxop => "ap_txop",
            AirKind::ClientTxop => "client_txop",
            AirKind::Beacon => "beacon",
            AirKind::Collision => "collision",
            AirKind::Interferer => "interferer",
        }
    }
}

/// One typed, allocation-free trace record. Variants are per-layer; the
/// causal [`CauseId`] carried next to the record (see [`FlightEvent`])
/// is what stitches them into chains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceRecord {
    /// A TCP data segment crossed the wired/forwarding plane (AP
    /// ingress, or a FastACK local retransmission when `retransmit`).
    TcpSeg {
        flow: u64,
        seq: u64,
        len: u32,
        retransmit: bool,
    },
    /// Per-MPDU MAC transmit outcome inside an A-MPDU.
    MacTx {
        flow: u64,
        seq: u64,
        delivered: bool,
    },
    /// An A-MPDU was assembled for one destination.
    AmpduBuild { flow: u64, frames: u32, bytes: u64 },
    /// BlockAck delivery report for one aggregate.
    BlockAck { flow: u64, acked: u32, lost: u32 },
    /// Medium occupancy attributed to one transmission (or loss).
    AirtimeSpan { kind: AirKind, dur: SimDuration },
    /// An ACK left the AP upstream: synthesized by FastACK on the MAC
    /// delivery report (`synthetic`), or a forwarded client ACK.
    FastAckSynth {
        flow: u64,
        ack: u64,
        synthetic: bool,
    },
    /// One controller epoch of the fleet collect→plan→push loop.
    FleetEpoch { epoch: u64, networks: u64 },
    /// A synthetic QoE probe crossed the application layer: injected
    /// at the AP (`delay_ns == 0`) or delivered at the client with the
    /// measured one-way delay.
    QoeProbe { flow: u64, seq: u64, delay_ns: u64 },
}

impl TraceRecord {
    /// The flow this record belongs to, if any.
    pub fn flow(&self) -> Option<u64> {
        match *self {
            TraceRecord::TcpSeg { flow, .. }
            | TraceRecord::MacTx { flow, .. }
            | TraceRecord::AmpduBuild { flow, .. }
            | TraceRecord::BlockAck { flow, .. }
            | TraceRecord::FastAckSynth { flow, .. }
            | TraceRecord::QoeProbe { flow, .. } => Some(flow),
            TraceRecord::AirtimeSpan { .. } | TraceRecord::FleetEpoch { .. } => None,
        }
    }

    /// Short layer label (`tcp-seg`, `mac-tx`, …) for summaries.
    pub fn layer(&self) -> &'static str {
        match self {
            TraceRecord::TcpSeg { .. } => "tcp-seg",
            TraceRecord::MacTx { .. } => "mac-tx",
            TraceRecord::AmpduBuild { .. } => "ampdu-build",
            TraceRecord::BlockAck { .. } => "block-ack",
            TraceRecord::AirtimeSpan { .. } => "airtime-span",
            TraceRecord::FastAckSynth { .. } => "fastack-synth",
            TraceRecord::FleetEpoch { .. } => "fleet-epoch",
            TraceRecord::QoeProbe { .. } => "qoe-probe",
        }
    }
}

impl fmt::Display for TraceRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            TraceRecord::TcpSeg {
                flow,
                seq,
                len,
                retransmit,
            } => write!(
                f,
                "tcp-seg flow={flow} seq={seq} len={len}{}",
                if retransmit { " retransmit" } else { "" }
            ),
            TraceRecord::MacTx {
                flow,
                seq,
                delivered,
            } => write!(
                f,
                "mac-tx flow={flow} seq={seq} {}",
                if delivered { "delivered" } else { "lost" }
            ),
            TraceRecord::AmpduBuild {
                flow,
                frames,
                bytes,
            } => {
                write!(f, "ampdu-build flow={flow} frames={frames} bytes={bytes}")
            }
            TraceRecord::BlockAck { flow, acked, lost } => {
                write!(f, "block-ack flow={flow} acked={acked} lost={lost}")
            }
            TraceRecord::AirtimeSpan { kind, dur } => {
                write!(f, "airtime-span kind={} dur={dur}", kind.name())
            }
            TraceRecord::FastAckSynth {
                flow,
                ack,
                synthetic,
            } => write!(
                f,
                "{} flow={flow} ack={ack}",
                if synthetic { "fast-ack" } else { "client-ack" }
            ),
            TraceRecord::FleetEpoch { epoch, networks } => {
                write!(f, "fleet-epoch epoch={epoch} networks={networks}")
            }
            TraceRecord::QoeProbe {
                flow,
                seq,
                delay_ns,
            } => {
                if delay_ns == 0 {
                    write!(f, "qoe-probe flow={flow} seq={seq} sent")
                } else {
                    write!(f, "qoe-probe flow={flow} seq={seq} delay_ns={delay_ns}")
                }
            }
        }
    }
}

/// One recorded event: when, what chain, and the typed payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightEvent {
    pub at: SimTime,
    pub cause: CauseId,
    pub record: TraceRecord,
}

impl FlightEvent {
    /// The flow this event belongs to: the record's own flow, falling
    /// back to the one packed in the cause (airtime spans).
    pub fn flow(&self) -> Option<u64> {
        self.record.flow().or_else(|| {
            let hint = self.cause.flow_hint();
            (hint != 0).then_some(hint)
        })
    }
}

/// Fixed-capacity ring with wraparound accounting.
#[derive(Debug, Clone, Default)]
struct Ring {
    cap: usize,
    buf: Vec<FlightEvent>,
    /// Next slot to write (== oldest slot once the buffer is full).
    next: usize,
    /// Records overwritten after the ring filled.
    dropped: u64,
}

impl Ring {
    fn new(cap: usize) -> Ring {
        Ring {
            cap,
            buf: Vec::new(),
            next: 0,
            dropped: 0,
        }
    }

    fn push(&mut self, ev: FlightEvent) {
        if self.buf.len() < self.cap {
            self.buf.push(ev);
            self.next = self.buf.len() % self.cap;
        } else {
            self.buf[self.next] = ev;
            self.next = (self.next + 1) % self.cap;
            self.dropped += 1;
        }
    }

    /// Records in chronological order (oldest kept first).
    fn ordered(&self) -> Vec<FlightEvent> {
        let mut out = Vec::with_capacity(self.buf.len());
        if self.buf.len() == self.cap && self.cap > 0 {
            out.extend_from_slice(&self.buf[self.next..]);
            out.extend_from_slice(&self.buf[..self.next]);
        } else {
            out.extend_from_slice(&self.buf);
        }
        out
    }
}

#[derive(Debug, Default)]
struct Inner {
    cap: usize,
    /// Component rings in first-emit order; looked up by a linear scan
    /// (component counts are small and static-str pointer equality
    /// short-circuits almost every probe), sorted only at snapshot time.
    rings: Vec<(&'static str, Ring)>,
}

impl Inner {
    fn ring_mut(&mut self, component: &'static str) -> &mut Ring {
        // Pointer equality first: `component` is a static literal, so
        // repeat emits from the same call site hit the same pointer.
        let pos = self
            .rings
            .iter()
            .position(|&(name, _)| std::ptr::eq(name, component) || name == component);
        let idx = match pos {
            Some(i) => i,
            None => {
                self.rings.push((component, Ring::new(self.cap)));
                self.rings.len() - 1
            }
        };
        &mut self.rings[idx].1
    }
}

/// Cloneable handle to a shared flight recorder. Single-threaded by
/// design: `Rc<RefCell<…>>`, no locks. A
/// capacity of 0 disables recording entirely — [`FlightRecorder::emit`]
/// is then a single branch.
#[derive(Debug, Clone, Default)]
pub struct FlightRecorder {
    inner: Rc<RefCell<Inner>>,
}

impl FlightRecorder {
    /// A recorder keeping the last `capacity` records per component.
    pub fn new(capacity: usize) -> FlightRecorder {
        FlightRecorder {
            inner: Rc::new(RefCell::new(Inner {
                cap: capacity,
                rings: Vec::new(),
            })),
        }
    }

    /// A recorder that drops everything (capacity 0).
    pub fn disabled() -> FlightRecorder {
        FlightRecorder::new(0)
    }

    /// Whether emission stores anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.borrow().cap > 0
    }

    /// Record one event under `component`. `component` must be a static
    /// dotted path (`"mac.tx"`) so the hot path does no string work.
    #[inline]
    pub fn emit(&self, component: &'static str, at: SimTime, cause: CauseId, record: TraceRecord) {
        let mut inner = self.inner.borrow_mut();
        if inner.cap == 0 {
            return;
        }
        inner
            .ring_mut(component)
            .push(FlightEvent { at, cause, record });
    }

    /// Total records overwritten across all components (wraparound
    /// accounting); export as the `trace.dropped` metric.
    pub fn total_dropped(&self) -> u64 {
        self.inner
            .borrow()
            .rings
            .iter()
            .map(|(_, r)| r.dropped)
            .sum()
    }

    /// Immutable snapshot of every ring, in sorted component order.
    pub fn snapshot(&self) -> FlightDump {
        let inner = self.inner.borrow();
        let mut components: Vec<ComponentTrace> = inner
            .rings
            .iter()
            .map(|&(name, ref ring)| ComponentTrace {
                name: name.to_owned(),
                capacity: ring.cap as u64,
                dropped: ring.dropped,
                records: ring.ordered(),
            })
            .collect();
        // Rings live in first-emit order; the dump format (and every
        // byte-identity pin downstream) requires sorted component order.
        components.sort_by(|a, b| a.name.cmp(&b.name));
        FlightDump { components }
    }
}

/// The last-N records of one component, in chronological order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComponentTrace {
    pub name: String,
    pub capacity: u64,
    pub dropped: u64,
    pub records: Vec<FlightEvent>,
}

/// A parsed (or snapshotted) flight dump: every component's last-N
/// window, components sorted by name. The owned form both serializes
/// ([`FlightDump::to_bytes`]) and parses ([`FlightDump::parse`]); the
/// two round-trip byte-identically.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FlightDump {
    pub components: Vec<ComponentTrace>,
}

/// Dump file magic: "FLT" + format version.
const MAGIC: &[u8; 4] = b"FLT1";

impl FlightDump {
    /// Merge `other` into this dump, prefixing its component names with
    /// `label.` (empty label = verbatim). Same-named components merge
    /// record lists time-ordered; the result stays sorted by name, so
    /// serialization remains deterministic regardless of absorb order.
    pub fn absorb(&mut self, label: &str, other: &FlightDump) {
        for comp in &other.components {
            let name = if label.is_empty() {
                comp.name.clone()
            } else {
                format!("{label}.{}", comp.name)
            };
            match self.components.binary_search_by(|c| c.name.cmp(&name)) {
                Ok(i) => {
                    let dst = &mut self.components[i];
                    dst.records.extend(comp.records.iter().copied());
                    dst.records.sort_by_key(|r| r.at);
                    dst.dropped += comp.dropped;
                    dst.capacity = dst.capacity.max(comp.capacity);
                }
                Err(i) => self.components.insert(
                    i,
                    ComponentTrace {
                        name,
                        capacity: comp.capacity,
                        dropped: comp.dropped,
                        records: comp.records.clone(),
                    },
                ),
            }
        }
    }

    /// A copy keeping only components whose name starts with `prefix`
    /// (`None` keeps everything).
    pub fn filtered(&self, prefix: Option<&str>) -> FlightDump {
        match prefix {
            None => self.clone(),
            Some(p) => FlightDump {
                components: self
                    .components
                    .iter()
                    .filter(|c| c.name.starts_with(p))
                    .cloned()
                    .collect(),
            },
        }
    }

    /// Total records across all components.
    pub fn total_records(&self) -> usize {
        self.components.iter().map(|c| c.records.len()).sum()
    }

    /// Total wraparound drops across all components.
    pub fn total_dropped(&self) -> u64 {
        self.components.iter().map(|c| c.dropped).sum()
    }

    /// Every flow id appearing in the dump, ascending.
    pub fn flows(&self) -> Vec<u64> {
        let mut flows: Vec<u64> = self
            .components
            .iter()
            .flat_map(|c| c.records.iter())
            .filter_map(|r| r.flow())
            .collect();
        flows.sort_unstable();
        flows.dedup();
        flows
    }

    /// The full causal chain for one flow: every record belonging to the
    /// flow (directly or via its cause's flow hint), across all
    /// components, time-ordered. Ties break by component name so the
    /// output is deterministic.
    pub fn chain(&self, flow: u64) -> Vec<(&str, FlightEvent)> {
        let mut out: Vec<(&str, FlightEvent)> = Vec::new();
        for comp in &self.components {
            for ev in &comp.records {
                if ev.flow() == Some(flow) {
                    out.push((comp.name.as_str(), *ev));
                }
            }
        }
        out.sort_by(|a, b| a.1.at.cmp(&b.1.at).then_with(|| a.0.cmp(b.0)));
        out
    }

    // ---- binary serialization ------------------------------------

    /// Serialize to the deterministic, byte-stable dump format:
    ///
    /// ```text
    /// "FLT1"
    /// u32  component count
    /// per component (sorted by name):
    ///   u16 name length, name bytes (UTF-8)
    ///   u64 ring capacity
    ///   u64 dropped (wraparound count)
    ///   u32 record count
    ///   per record (chronological):
    ///     u16 payload length
    ///     u64 at (ns), u64 cause, u8 tag, variant fields
    /// ```
    ///
    /// All integers little-endian. Identical dumps serialize to
    /// identical bytes; `scripts/ci.sh` diffs exactly this.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.total_records() * 40);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(
            &u32::try_from(self.components.len())
                .expect("component count")
                .to_le_bytes(),
        );
        let mut sorted: Vec<&ComponentTrace> = self.components.iter().collect();
        sorted.sort_by(|a, b| a.name.cmp(&b.name));
        for comp in sorted {
            let name = comp.name.as_bytes();
            out.extend_from_slice(
                &u16::try_from(name.len())
                    .expect("component name length")
                    .to_le_bytes(),
            );
            out.extend_from_slice(name);
            out.extend_from_slice(&comp.capacity.to_le_bytes());
            out.extend_from_slice(&comp.dropped.to_le_bytes());
            out.extend_from_slice(
                &u32::try_from(comp.records.len())
                    .expect("record count")
                    .to_le_bytes(),
            );
            for ev in &comp.records {
                let payload = encode_event(ev);
                out.extend_from_slice(
                    &u16::try_from(payload.len())
                        .expect("record length")
                        .to_le_bytes(),
                );
                out.extend_from_slice(&payload);
            }
        }
        out
    }

    /// Parse a dump produced by [`FlightDump::to_bytes`]. Strict: any
    /// truncation, unknown tag, or trailing garbage is an error.
    pub fn parse(bytes: &[u8]) -> Result<FlightDump, String> {
        let mut r = Reader { bytes, off: 0 };
        let magic = r.take(4)?;
        if magic != MAGIC {
            return Err(format!("bad magic {magic:02x?}, want {MAGIC:02x?}"));
        }
        let n_components = r.u32()? as usize;
        let mut components = Vec::with_capacity(n_components);
        for _ in 0..n_components {
            let name_len = r.u16()? as usize;
            let name = String::from_utf8(r.take(name_len)?.to_vec())
                .map_err(|e| format!("component name not UTF-8: {e}"))?;
            let capacity = r.u64()?;
            let dropped = r.u64()?;
            let n_records = r.u32()? as usize;
            let mut records = Vec::with_capacity(n_records);
            for _ in 0..n_records {
                let len = r.u16()? as usize;
                let payload = r.take(len)?;
                records.push(decode_event(payload)?);
            }
            components.push(ComponentTrace {
                name,
                capacity,
                dropped,
                records,
            });
        }
        if r.off != bytes.len() {
            return Err(format!(
                "trailing garbage: {} bytes after the last component",
                bytes.len() - r.off
            ));
        }
        Ok(FlightDump { components })
    }
}

struct Reader<'a> {
    bytes: &'a [u8],
    off: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self
            .off
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| format!("truncated dump at offset {}", self.off))?;
        let s = &self.bytes[self.off..end];
        self.off = end;
        Ok(s)
    }

    fn u16(&mut self) -> Result<u16, String> {
        Ok(u16::from_le_bytes(
            self.take(2)?.try_into().expect("2 bytes"),
        ))
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }
}

fn encode_event(ev: &FlightEvent) -> Vec<u8> {
    let mut p = Vec::with_capacity(40);
    p.extend_from_slice(&ev.at.as_nanos().to_le_bytes());
    p.extend_from_slice(&ev.cause.0.to_le_bytes());
    match ev.record {
        TraceRecord::TcpSeg {
            flow,
            seq,
            len,
            retransmit,
        } => {
            p.push(0);
            p.extend_from_slice(&flow.to_le_bytes());
            p.extend_from_slice(&seq.to_le_bytes());
            p.extend_from_slice(&len.to_le_bytes());
            p.push(u8::from(retransmit));
        }
        TraceRecord::MacTx {
            flow,
            seq,
            delivered,
        } => {
            p.push(1);
            p.extend_from_slice(&flow.to_le_bytes());
            p.extend_from_slice(&seq.to_le_bytes());
            p.push(u8::from(delivered));
        }
        TraceRecord::AmpduBuild {
            flow,
            frames,
            bytes,
        } => {
            p.push(2);
            p.extend_from_slice(&flow.to_le_bytes());
            p.extend_from_slice(&frames.to_le_bytes());
            p.extend_from_slice(&bytes.to_le_bytes());
        }
        TraceRecord::BlockAck { flow, acked, lost } => {
            p.push(3);
            p.extend_from_slice(&flow.to_le_bytes());
            p.extend_from_slice(&acked.to_le_bytes());
            p.extend_from_slice(&lost.to_le_bytes());
        }
        TraceRecord::AirtimeSpan { kind, dur } => {
            p.push(4);
            p.push(kind.tag());
            p.extend_from_slice(&dur.as_nanos().to_le_bytes());
        }
        TraceRecord::FastAckSynth {
            flow,
            ack,
            synthetic,
        } => {
            p.push(5);
            p.extend_from_slice(&flow.to_le_bytes());
            p.extend_from_slice(&ack.to_le_bytes());
            p.push(u8::from(synthetic));
        }
        TraceRecord::FleetEpoch { epoch, networks } => {
            p.push(6);
            p.extend_from_slice(&epoch.to_le_bytes());
            p.extend_from_slice(&networks.to_le_bytes());
        }
        TraceRecord::QoeProbe {
            flow,
            seq,
            delay_ns,
        } => {
            p.push(7);
            p.extend_from_slice(&flow.to_le_bytes());
            p.extend_from_slice(&seq.to_le_bytes());
            p.extend_from_slice(&delay_ns.to_le_bytes());
        }
    }
    p
}

fn decode_event(payload: &[u8]) -> Result<FlightEvent, String> {
    let mut r = Reader {
        bytes: payload,
        off: 0,
    };
    let at = SimTime::from_nanos(r.u64()?);
    let cause = CauseId(r.u64()?);
    let tag = r.u8()?;
    let record = match tag {
        0 => TraceRecord::TcpSeg {
            flow: r.u64()?,
            seq: r.u64()?,
            len: r.u32()?,
            retransmit: r.u8()? != 0,
        },
        1 => TraceRecord::MacTx {
            flow: r.u64()?,
            seq: r.u64()?,
            delivered: r.u8()? != 0,
        },
        2 => TraceRecord::AmpduBuild {
            flow: r.u64()?,
            frames: r.u32()?,
            bytes: r.u64()?,
        },
        3 => TraceRecord::BlockAck {
            flow: r.u64()?,
            acked: r.u32()?,
            lost: r.u32()?,
        },
        4 => TraceRecord::AirtimeSpan {
            kind: AirKind::from_tag(r.u8()?)?,
            dur: SimDuration::from_nanos(r.u64()?),
        },
        5 => TraceRecord::FastAckSynth {
            flow: r.u64()?,
            ack: r.u64()?,
            synthetic: r.u8()? != 0,
        },
        6 => TraceRecord::FleetEpoch {
            epoch: r.u64()?,
            networks: r.u64()?,
        },
        7 => TraceRecord::QoeProbe {
            flow: r.u64()?,
            seq: r.u64()?,
            delay_ns: r.u64()?,
        },
        t => return Err(format!("unknown record tag {t}")),
    };
    if r.off != payload.len() {
        return Err(format!(
            "record payload has {} trailing bytes",
            payload.len() - r.off
        ));
    }
    Ok(FlightEvent { at, cause, record })
}

/// Arm flight-recorder mode: on the next sim-sanitizer violation, write
/// the recorder's snapshot to `path` before the panic unwinds. The dump
/// is the post-mortem artifact — parse it with [`FlightDump::parse`] or
/// inspect it with `simctl trace`.
pub fn install_violation_dump(recorder: &FlightRecorder, path: PathBuf) {
    let rec = recorder.clone();
    sim::sanitize::set_violation_hook(Box::new(move || {
        let bytes = rec.snapshot().to_bytes();
        if let Err(e) = std::fs::write(&path, bytes) {
            eprintln!(
                "flight recorder: could not write violation dump {}: {e}",
                path.display()
            );
        }
    }));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(flow: u64, seq: u64) -> TraceRecord {
        TraceRecord::TcpSeg {
            flow,
            seq,
            len: 1460,
            retransmit: false,
        }
    }

    #[test]
    fn cause_packs_flow_and_seq() {
        let c = cause_for(7, 1460);
        assert_eq!(c.flow_hint(), 7);
        assert_eq!(c.seq_hint(), 1460);
        assert_eq!(CauseId::NONE.flow_hint(), 0);
    }

    #[test]
    fn disabled_recorder_stores_nothing() {
        let rec = FlightRecorder::disabled();
        assert!(!rec.is_enabled());
        rec.emit("x", SimTime::ZERO, CauseId::NONE, seg(1, 0));
        assert_eq!(rec.snapshot().total_records(), 0);
        assert_eq!(rec.total_dropped(), 0);
    }

    #[test]
    fn ring_wraps_and_accounts_for_drops() {
        let rec = FlightRecorder::new(4);
        for i in 0..10u64 {
            rec.emit(
                "tcp.wire",
                SimTime::from_micros(i),
                cause_for(1, i),
                seg(1, i),
            );
        }
        let dump = rec.snapshot();
        assert_eq!(dump.components.len(), 1);
        let c = &dump.components[0];
        assert_eq!(c.records.len(), 4);
        assert_eq!(c.dropped, 6);
        assert_eq!(rec.total_dropped(), 6);
        // Last-N window, chronological: seqs 6..=9.
        let seqs: Vec<u64> = c
            .records
            .iter()
            .map(|r| match r.record {
                TraceRecord::TcpSeg { seq, .. } => seq,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(seqs, vec![6, 7, 8, 9]);
    }

    #[test]
    fn ring_under_capacity_keeps_everything() {
        let rec = FlightRecorder::new(100);
        for i in 0..5u64 {
            rec.emit("c", SimTime::from_micros(i), CauseId::NONE, seg(1, i));
        }
        let dump = rec.snapshot();
        assert_eq!(dump.components[0].records.len(), 5);
        assert_eq!(dump.components[0].dropped, 0);
    }

    fn sample_dump() -> FlightDump {
        let rec = FlightRecorder::new(64);
        let t = SimTime::from_micros;
        let c = cause_for(3, 1460);
        rec.emit("tcp.wire", t(1), c, seg(3, 1460));
        rec.emit(
            "mac.ampdu",
            t(2),
            c,
            TraceRecord::AmpduBuild {
                flow: 3,
                frames: 12,
                bytes: 17520,
            },
        );
        rec.emit(
            "mac.tx",
            t(3),
            c,
            TraceRecord::MacTx {
                flow: 3,
                seq: 1460,
                delivered: true,
            },
        );
        rec.emit(
            "mac.back",
            t(4),
            c,
            TraceRecord::BlockAck {
                flow: 3,
                acked: 12,
                lost: 0,
            },
        );
        rec.emit(
            "air",
            t(4),
            c,
            TraceRecord::AirtimeSpan {
                kind: AirKind::ApTxop,
                dur: SimDuration::from_micros(900),
            },
        );
        rec.emit(
            "fastack.synth",
            t(5),
            c,
            TraceRecord::FastAckSynth {
                flow: 3,
                ack: 2920,
                synthetic: true,
            },
        );
        rec.emit(
            "fleet.epoch",
            t(6),
            CauseId::NONE,
            TraceRecord::FleetEpoch {
                epoch: 0,
                networks: 4,
            },
        );
        let pc = cause_for(0x4000, 7);
        rec.emit(
            "qoe.tx",
            t(7),
            pc,
            TraceRecord::QoeProbe {
                flow: 0x4000,
                seq: 7,
                delay_ns: 0,
            },
        );
        rec.emit(
            "qoe.rx",
            t(8),
            pc,
            TraceRecord::QoeProbe {
                flow: 0x4000,
                seq: 7,
                delay_ns: 850_000,
            },
        );
        rec.snapshot()
    }

    #[test]
    fn dump_roundtrips_through_bytes() {
        let dump = sample_dump();
        let bytes = dump.to_bytes();
        let parsed = FlightDump::parse(&bytes).expect("parse");
        assert_eq!(parsed, dump);
        // Byte-stability: serialize → parse → serialize is identity.
        assert_eq!(parsed.to_bytes(), bytes);
    }

    #[test]
    fn parse_rejects_corruption() {
        let dump = sample_dump();
        let bytes = dump.to_bytes();
        assert!(FlightDump::parse(&bytes[..bytes.len() - 1]).is_err());
        assert!(FlightDump::parse(b"NOPE").is_err());
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(FlightDump::parse(&trailing).is_err());
        let mut bad_tag = bytes.clone();
        // Flip the tag byte of the first record of the first component
        // ("air": name at 8, fixed header 20, record prefix 2, at+cause 16).
        let tag_off = 4 + 4 + 2 + 3 + 8 + 8 + 4 + 2 + 16;
        bad_tag[tag_off] = 250;
        assert!(FlightDump::parse(&bad_tag).is_err());
    }

    #[test]
    fn chain_spans_all_layers_time_ordered() {
        let dump = sample_dump();
        let chain = dump.chain(3);
        let layers: Vec<&str> = chain.iter().map(|(_, ev)| ev.record.layer()).collect();
        assert_eq!(
            layers,
            vec![
                "tcp-seg",
                "ampdu-build",
                "mac-tx",
                "airtime-span", // t=4, "air" sorts before "mac.back"
                "block-ack",
                "fastack-synth",
            ]
        );
        // The airtime span has no flow field: it joined via cause hint.
        assert!(chain.iter().any(|(c, _)| *c == "air"));
        // Chains are per-flow.
        assert!(dump.chain(99).is_empty());
        assert_eq!(dump.flows(), vec![3, 0x4000]);
        // The probe flow chains independently of the TCP flow.
        let probe = dump.chain(0x4000);
        let probe_layers: Vec<&str> = probe.iter().map(|(_, ev)| ev.record.layer()).collect();
        assert_eq!(probe_layers, vec!["qoe-probe", "qoe-probe"]);
        assert!(probe.windows(2).all(|w| w[0].1.at <= w[1].1.at));
    }

    #[test]
    fn absorb_prefixes_and_stays_sorted() {
        let a = sample_dump();
        let mut merged = FlightDump::default();
        merged.absorb("base", &a);
        merged.absorb("fast", &a);
        let names: Vec<&str> = merged.components.iter().map(|c| c.name.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted);
        assert!(names.contains(&"base.mac.tx") && names.contains(&"fast.mac.tx"));
        assert_eq!(merged.total_records(), 2 * a.total_records());
        // Absorbing the same label twice merges time-ordered.
        merged.absorb("fast", &a);
        let c = merged
            .components
            .iter()
            .find(|c| c.name == "fast.tcp.wire")
            .unwrap();
        assert_eq!(c.records.len(), 2);
        assert!(c.records[0].at <= c.records[1].at);
    }

    #[test]
    fn empty_dump_roundtrips() {
        let empty = FlightDump::default();
        let bytes = empty.to_bytes();
        assert_eq!(FlightDump::parse(&bytes).unwrap(), empty);
    }

    #[test]
    #[cfg(any(feature = "sanitize", debug_assertions))]
    #[should_panic(expected = "sim-sanitizer: flight-recorder post-mortem")]
    fn violation_dump_is_written_and_parses() {
        // Arm the recorder, trip a violation, then — after catching the
        // unwind — assert the post-mortem artifact exists and parses
        // before re-raising the original panic for #[should_panic].
        let rec = FlightRecorder::new(8);
        for i in 0..20u64 {
            rec.emit(
                "tcp.wire",
                SimTime::from_micros(i),
                cause_for(1, i),
                seg(1, i),
            );
        }
        let path = std::env::temp_dir().join("imc-flight-violation-test.bin");
        let _ = std::fs::remove_file(&path);
        install_violation_dump(&rec, path.clone());

        let err = std::panic::catch_unwind(|| {
            sim::sanitize::check(false, "flight-recorder post-mortem");
        })
        .expect_err("the violation must panic");

        let bytes = std::fs::read(&path).expect("violation dump must exist");
        let dump = FlightDump::parse(&bytes).expect("violation dump must parse");
        assert_eq!(dump.components.len(), 1);
        assert_eq!(dump.components[0].records.len(), 8, "last-N window");
        assert_eq!(dump.components[0].dropped, 12);
        let _ = std::fs::remove_file(&path);

        std::panic::resume_unwind(err);
    }
}
