//! Wire-format front end: packet inspection with real 32-bit wrapped
//! TCP sequence numbers.
//!
//! The agent core works in unwrapped 64-bit stream offsets, but an AP
//! inspecting packets (§5.7: "FastACK relies on packet inspection, and
//! will not work when payload is encrypted") sees 32-bit sequence
//! numbers relative to a random ISN. This adapter owns one
//! [`Unwrapper`] per flow direction and translates both ways, so a
//! deployment can feed it raw header fields.

use crate::agent::{Action, Agent};
use std::collections::BTreeMap;
use tcpsim::segment::{AckSegment, DataSegment, FlowId};
use tcpsim::seq::{Unwrapper, WireSeq};

/// Reasons the inspector refuses to touch a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InspectError {
    /// Payload is encrypted (IPsec/ESP); §5.7: FastACK cannot operate.
    Encrypted,
    /// A data packet for a flow whose SYN was never seen: without the
    /// ISN the sequence numbers cannot be anchored.
    UnknownFlow,
}

/// Raw wire view of a TCP data packet (the fields the AP parses).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireData {
    pub flow: FlowId,
    pub seq: WireSeq,
    pub len: u32,
    pub encrypted: bool,
}

/// Raw wire view of a TCP ACK.
#[derive(Debug, Clone)]
pub struct WireAck {
    pub flow: FlowId,
    pub ack: WireSeq,
    /// Already-scaled receive window in bytes.
    pub rwnd: u64,
    pub sack: Vec<(WireSeq, WireSeq)>,
    pub encrypted: bool,
}

struct FlowAnchors {
    /// Unwraps data sequence numbers (sender → client direction).
    data: Unwrapper,
    /// Wire ISN, to re-wrap the fast ACKs we emit.
    isn: WireSeq,
}

/// The inspection front end wrapping an [`Agent`].
pub struct WireAgent {
    agent: Agent,
    anchors: BTreeMap<FlowId, FlowAnchors>,
}

/// An action with its ACK fields re-wrapped for the wire.
#[derive(Debug, Clone, PartialEq)]
pub enum WireAction {
    Forward {
        seg: WireData,
        priority: bool,
    },
    DropData,
    /// (cumulative ack, rwnd, sack) to put in the emitted TCP ACK.
    SendAckUpstream {
        ack: WireSeq,
        rwnd: u64,
        sack: Vec<(WireSeq, WireSeq)>,
    },
    SuppressClientAck,
    LocalRetransmit {
        seq: WireSeq,
        len: u32,
    },
}

impl WireAgent {
    pub fn new(agent: Agent) -> WireAgent {
        WireAgent {
            agent,
            anchors: BTreeMap::new(),
        }
    }

    /// Register a flow when its SYN is observed, anchoring the ISN.
    /// (The byte after the SYN consumes sequence number `isn + 1`; we
    /// anchor at the first data byte.)
    pub fn on_syn(&mut self, flow: FlowId, isn: WireSeq) {
        let first_data = isn.add(1);
        self.anchors.insert(
            flow,
            FlowAnchors {
                data: Unwrapper::new(first_data.0),
                isn: first_data,
            },
        );
    }

    /// Inspect a downlink data packet.
    pub fn on_wire_data(&mut self, p: &WireData) -> Result<Vec<WireAction>, InspectError> {
        if p.encrypted {
            return Err(InspectError::Encrypted);
        }
        let anchor = self
            .anchors
            .get_mut(&p.flow)
            .ok_or(InspectError::UnknownFlow)?;
        let seq = anchor.data.unwrap(p.seq);
        let isn = anchor.isn;
        let acts = self.agent.on_wire_data(&DataSegment {
            flow: p.flow,
            seq,
            len: p.len,
            retransmit: false,
        });
        Ok(acts.into_iter().map(|a| Self::wrap(a, isn, p)).collect())
    }

    /// Report a MAC-layer delivery (BlockAck) for a wire-seq range.
    pub fn on_mac_ack(
        &mut self,
        flow: FlowId,
        seq: WireSeq,
        len: u32,
    ) -> Result<Vec<WireAction>, InspectError> {
        let anchor = self
            .anchors
            .get_mut(&flow)
            .ok_or(InspectError::UnknownFlow)?;
        let off = anchor.data.unwrap(seq);
        let isn = anchor.isn;
        let acts = self.agent.on_mac_ack(flow, off, len);
        Ok(acts
            .into_iter()
            .map(|a| Self::wrap_ack_only(a, isn))
            .collect())
    }

    /// Inspect a client uplink TCP ACK.
    pub fn on_client_ack(&mut self, p: &WireAck) -> Result<Vec<WireAction>, InspectError> {
        if p.encrypted {
            return Err(InspectError::Encrypted);
        }
        let anchor = self
            .anchors
            .get_mut(&p.flow)
            .ok_or(InspectError::UnknownFlow)?;
        let ack = anchor.data.unwrap(p.ack);
        let sack: Vec<(u64, u64)> = p
            .sack
            .iter()
            .map(|&(s, e)| (anchor.data.unwrap(s), anchor.data.unwrap(e)))
            .collect();
        let isn = anchor.isn;
        let acts = self.agent.on_client_ack(&AckSegment {
            flow: p.flow,
            ack,
            rwnd: p.rwnd,
            sack,
        });
        Ok(acts
            .into_iter()
            .map(|a| Self::wrap_ack_only(a, isn))
            .collect())
    }

    fn rewrap(isn: WireSeq, seq_off: u64) -> WireSeq {
        // Intentional modular truncation: (isn + off) mod 2^32 is the
        // wire representation of an unwrapped stream offset.
        isn.add(seq_off as u32) // simcheck: allow(narrowing-cast)
    }

    fn wrap(a: Action, isn: WireSeq, original: &WireData) -> WireAction {
        match a {
            Action::Forward { seg, priority } => WireAction::Forward {
                seg: WireData {
                    flow: seg.flow,
                    seq: Self::rewrap(isn, seg.seq),
                    len: seg.len,
                    encrypted: original.encrypted,
                },
                priority,
            },
            other => Self::wrap_ack_only(other, isn),
        }
    }

    fn wrap_ack_only(a: Action, isn: WireSeq) -> WireAction {
        match a {
            Action::Forward { seg, priority } => WireAction::Forward {
                seg: WireData {
                    flow: seg.flow,
                    seq: Self::rewrap(isn, seg.seq),
                    len: seg.len,
                    encrypted: false,
                },
                priority,
            },
            Action::DropData(_) => WireAction::DropData,
            Action::SendAckUpstream(k) => WireAction::SendAckUpstream {
                ack: Self::rewrap(isn, k.ack),
                rwnd: k.rwnd,
                sack: k
                    .sack
                    .iter()
                    .map(|&(s, e)| (Self::rewrap(isn, s), Self::rewrap(isn, e)))
                    .collect(),
            },
            Action::SuppressClientAck(_) => WireAction::SuppressClientAck,
            Action::LocalRetransmit(seg) => WireAction::LocalRetransmit {
                seq: Self::rewrap(isn, seg.seq),
                len: seg.len,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::AgentConfig;

    fn mk(isn: u32) -> WireAgent {
        let mut w = WireAgent::new(Agent::new(AgentConfig::default()));
        w.on_syn(FlowId(1), WireSeq(isn));
        w
    }

    fn data(isn: u32, off: u32, len: u32) -> WireData {
        WireData {
            flow: FlowId(1),
            seq: WireSeq(isn).add(1).add(off),
            len,
            encrypted: false,
        }
    }

    #[test]
    fn fast_acks_carry_wrapped_numbers() {
        let isn = u32::MAX - 2000; // wrap within the first few segments
        let mut w = mk(isn);
        for i in 0..4u32 {
            w.on_wire_data(&data(isn, i * 1460, 1460)).unwrap();
            let acts = w
                .on_mac_ack(FlowId(1), WireSeq(isn).add(1).add(i * 1460), 1460)
                .unwrap();
            match &acts[0] {
                WireAction::SendAckUpstream { ack, .. } => {
                    assert_eq!(*ack, WireSeq(isn).add(1).add((i + 1) * 1460));
                }
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn encrypted_packets_are_refused() {
        let mut w = mk(100);
        let mut p = data(100, 0, 1460);
        p.encrypted = true;
        assert_eq!(w.on_wire_data(&p), Err(InspectError::Encrypted));
        let ack = WireAck {
            flow: FlowId(1),
            ack: WireSeq(200),
            rwnd: 1 << 20,
            sack: Vec::new(),
            encrypted: true,
        };
        assert_eq!(w.on_client_ack(&ack), Err(InspectError::Encrypted));
    }

    #[test]
    fn unknown_flow_is_refused() {
        let mut w = WireAgent::new(Agent::new(AgentConfig::default()));
        assert_eq!(
            w.on_wire_data(&data(5, 0, 100)),
            Err(InspectError::UnknownFlow)
        );
    }

    #[test]
    fn client_acks_suppress_through_the_wire_view() {
        let isn = 7_000_000;
        let mut w = mk(isn);
        w.on_wire_data(&data(isn, 0, 1460)).unwrap();
        w.on_mac_ack(FlowId(1), WireSeq(isn).add(1), 1460).unwrap();
        let acts = w
            .on_client_ack(&WireAck {
                flow: FlowId(1),
                ack: WireSeq(isn).add(1).add(1460),
                rwnd: 1 << 20,
                sack: Vec::new(),
                encrypted: false,
            })
            .unwrap();
        assert!(acts
            .iter()
            .any(|a| matches!(a, WireAction::SuppressClientAck)));
    }

    #[test]
    fn local_retransmits_rewrap() {
        let isn = u32::MAX - 100;
        let mut w = mk(isn);
        w.on_wire_data(&data(isn, 0, 1460)).unwrap();
        w.on_mac_ack(FlowId(1), WireSeq(isn).add(1), 1460).unwrap();
        // Client progress, then dupacks at the same point.
        let ackpt = WireSeq(isn).add(1).add(1460);
        let mk_ack = || WireAck {
            flow: FlowId(1),
            ack: WireSeq(isn).add(1),
            rwnd: 1 << 20,
            sack: Vec::new(),
            encrypted: false,
        };
        let _ = ackpt;
        w.on_client_ack(&mk_ack()).unwrap();
        let acts = w.on_client_ack(&mk_ack()).unwrap();
        let has_retx = acts.iter().any(|a| {
            matches!(a, WireAction::LocalRetransmit { seq, len: 1460 } if *seq == WireSeq(isn).add(1))
        });
        assert!(has_retx, "{acts:?}");
    }

    #[test]
    fn stream_far_past_one_wrap_stays_consistent() {
        let isn = 0xFFFF_0000u32;
        let mut w = mk(isn);
        let mut off = 0u64;
        for i in 0..5_000u32 {
            w.on_wire_data(&data(isn, i.wrapping_mul(1460), 1460))
                .unwrap();
            let acts = w
                .on_mac_ack(
                    FlowId(1),
                    WireSeq(isn).add(1).add(i.wrapping_mul(1460)),
                    1460,
                )
                .unwrap();
            off += 1460;
            match &acts[0] {
                WireAction::SendAckUpstream { ack, .. } => {
                    assert_eq!(*ack, WireSeq(isn).add(1).add(off as u32));
                }
                other => panic!("at {i}: {other:?}"),
            }
        }
        assert!(off > u32::MAX as u64 / 1000, "sanity");
    }
}
