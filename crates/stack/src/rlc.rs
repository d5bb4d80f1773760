//! RLC: per-logical-channel transmission queues with segmentation.
//!
//! The RLC entity is where the paper's "transmission queue sizes of UEs" —
//! the statistic every scheduling application consumes — lives. The model
//! is an unacknowledged-mode entity with the parts the control plane can
//! observe and influence: queueing, segmentation into MAC-sized PDUs,
//! buffer-occupancy and head-of-line-delay reporting, and front-requeueing
//! for HARQ-failure recovery.

use std::collections::VecDeque;

use flexran_types::time::Tti;
use flexran_types::units::Bytes;

/// RLC UM header (5-bit SN + framing info).
pub const RLC_HEADER_BYTES: u64 = 2;

/// One SDU waiting in (or partially transmitted from) the queue.
#[derive(Debug, Clone, Copy)]
struct QueuedSdu {
    remaining: u64,
    enqueued: Tti,
}

/// A segment pulled from the queue for inclusion in a MAC PDU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RlcPdu {
    /// Payload bytes carried (excluding the RLC header).
    pub payload: Bytes,
    /// Size on the air including the RLC header.
    pub size: Bytes,
    /// Number of SDUs completed by this PDU.
    pub sdus_completed: u32,
}

/// Transmit-side RLC entity for one logical channel.
#[derive(Debug, Clone, Default)]
pub struct RlcTx {
    queue: VecDeque<QueuedSdu>,
    buffered: u64,
    /// Cumulative payload bytes handed to MAC.
    pub tx_payload_bytes: Bytes,
    /// Cumulative SDUs fully transmitted.
    pub tx_sdus: u64,
    /// SDUs dropped after HARQ exhaustion (see [`RlcTx::account_loss`]).
    pub dropped_sdus: u64,
}

impl RlcTx {
    pub fn new() -> Self {
        Self::default()
    }

    /// Enqueue an SDU of `size` bytes (as delivered by PDCP).
    pub fn enqueue(&mut self, size: Bytes, now: Tti) {
        if size.is_zero() {
            return;
        }
        self.queue.push_back(QueuedSdu {
            remaining: size.as_u64(),
            enqueued: now,
        });
        self.buffered += size.as_u64();
    }

    /// Bytes waiting for transmission (the "transmission queue size" of the
    /// Agent API statistics calls).
    pub fn buffer_occupancy(&self) -> Bytes {
        Bytes(self.buffered)
    }

    /// Whether any data is pending.
    pub fn has_data(&self) -> bool {
        self.buffered > 0
    }

    /// Age in TTIs of the head-of-line SDU, 0 when empty.
    pub fn hol_delay(&self, now: Tti) -> u64 {
        self.queue
            .front()
            .map(|s| now.saturating_since(s.enqueued))
            .unwrap_or(0)
    }

    /// Pull up to `capacity` bytes (header included) into one RLC PDU.
    ///
    /// Returns `None` if the queue is empty or the capacity cannot fit the
    /// header plus at least one payload byte. Partially transmitted SDUs
    /// stay at the head with their remaining bytes.
    pub fn dequeue_pdu(&mut self, capacity: Bytes, _now: Tti) -> Option<RlcPdu> {
        let cap = capacity.as_u64();
        if cap <= RLC_HEADER_BYTES || self.buffered == 0 {
            return None;
        }
        let mut budget = cap - RLC_HEADER_BYTES;
        let mut payload = 0u64;
        let mut completed = 0u32;
        while budget > 0 {
            let Some(head) = self.queue.front_mut() else {
                break;
            };
            let take = head.remaining.min(budget);
            head.remaining -= take;
            payload += take;
            budget -= take;
            if head.remaining == 0 {
                completed += 1;
                self.tx_sdus += 1;
                self.queue.pop_front();
            }
        }
        if payload == 0 {
            return None;
        }
        self.buffered -= payload;
        self.tx_payload_bytes += Bytes(payload);
        Some(RlcPdu {
            payload: Bytes(payload),
            size: Bytes(payload + RLC_HEADER_BYTES),
            sdus_completed: completed,
        })
    }

    /// Return `payload` bytes to the head of the queue (HARQ failure with
    /// retransmission still possible at a higher layer): the bytes become
    /// transmittable again as a fresh head SDU stamped `now`.
    pub fn requeue_front(&mut self, payload: Bytes, now: Tti) {
        if payload.is_zero() {
            return;
        }
        self.queue.push_front(QueuedSdu {
            remaining: payload.as_u64(),
            enqueued: now,
        });
        self.buffered += payload.as_u64();
    }

    /// Account `payload` bytes as permanently lost (HARQ exhaustion where
    /// no higher-layer recovery applies).
    pub fn account_loss(&mut self, _payload: Bytes) {
        self.dropped_sdus += 1;
    }

    /// Discard everything (e.g. on UE detach).
    pub fn flush(&mut self) -> Bytes {
        let b = self.buffered;
        self.queue.clear();
        self.buffered = 0;
        Bytes(b)
    }

    /// Approximate heap footprint of this entity, for the memory-overhead
    /// experiment (Fig. 6a).
    pub fn heap_bytes(&self) -> usize {
        self.queue.capacity() * std::mem::size_of::<QueuedSdu>()
    }

    /// Total byte count ever enqueued that is still outstanding plus sent:
    /// used by invariant tests.
    #[cfg(test)]
    fn debug_total(&self) -> u64 {
        self.queue.iter().map(|s| s.remaining).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn enqueue_dequeue_roundtrip() {
        let mut rlc = RlcTx::new();
        rlc.enqueue(Bytes(100), Tti(0));
        assert_eq!(rlc.buffer_occupancy(), Bytes(100));
        let pdu = rlc.dequeue_pdu(Bytes(200), Tti(1)).unwrap();
        assert_eq!(pdu.payload, Bytes(100));
        assert_eq!(pdu.size, Bytes(102));
        assert_eq!(pdu.sdus_completed, 1);
        assert!(!rlc.has_data());
    }

    #[test]
    fn segmentation_splits_sdus() {
        let mut rlc = RlcTx::new();
        rlc.enqueue(Bytes(100), Tti(0));
        let pdu1 = rlc.dequeue_pdu(Bytes(52), Tti(0)).unwrap();
        assert_eq!(pdu1.payload, Bytes(50));
        assert_eq!(pdu1.sdus_completed, 0);
        assert_eq!(rlc.buffer_occupancy(), Bytes(50));
        let pdu2 = rlc.dequeue_pdu(Bytes(100), Tti(0)).unwrap();
        assert_eq!(pdu2.payload, Bytes(50));
        assert_eq!(pdu2.sdus_completed, 1);
        assert_eq!(rlc.tx_sdus, 1);
    }

    #[test]
    fn concatenation_packs_multiple_sdus() {
        let mut rlc = RlcTx::new();
        for _ in 0..5 {
            rlc.enqueue(Bytes(10), Tti(0));
        }
        let pdu = rlc.dequeue_pdu(Bytes(100), Tti(0)).unwrap();
        assert_eq!(pdu.payload, Bytes(50));
        assert_eq!(pdu.sdus_completed, 5);
    }

    #[test]
    fn tiny_capacity_yields_nothing() {
        let mut rlc = RlcTx::new();
        rlc.enqueue(Bytes(10), Tti(0));
        assert!(rlc.dequeue_pdu(Bytes(2), Tti(0)).is_none());
        assert!(rlc.dequeue_pdu(Bytes(0), Tti(0)).is_none());
        assert_eq!(rlc.buffer_occupancy(), Bytes(10));
    }

    #[test]
    fn hol_delay_tracks_head() {
        let mut rlc = RlcTx::new();
        assert_eq!(rlc.hol_delay(Tti(100)), 0);
        rlc.enqueue(Bytes(10), Tti(100));
        rlc.enqueue(Bytes(10), Tti(150));
        assert_eq!(rlc.hol_delay(Tti(160)), 60);
        rlc.dequeue_pdu(Bytes(50), Tti(160)).unwrap();
        assert_eq!(rlc.hol_delay(Tti(160)), 0);
    }

    #[test]
    fn requeue_front_restores_bytes_first() {
        let mut rlc = RlcTx::new();
        rlc.enqueue(Bytes(30), Tti(5));
        let pdu = rlc.dequeue_pdu(Bytes(100), Tti(5)).unwrap();
        rlc.requeue_front(pdu.payload, Tti(6));
        assert_eq!(rlc.buffer_occupancy(), Bytes(30));
        let again = rlc.dequeue_pdu(Bytes(100), Tti(6)).unwrap();
        assert_eq!(again.payload, Bytes(30));
    }

    #[test]
    fn flush_empties() {
        let mut rlc = RlcTx::new();
        rlc.enqueue(Bytes(10), Tti(0));
        rlc.enqueue(Bytes(20), Tti(0));
        assert_eq!(rlc.flush(), Bytes(30));
        assert!(!rlc.has_data());
        assert_eq!(rlc.hol_delay(Tti(9)), 0);
    }

    proptest! {
        /// Conservation: whatever enters the queue either leaves as PDU
        /// payload or remains buffered, regardless of the dequeue pattern.
        #[test]
        fn byte_conservation(
            sdus in proptest::collection::vec(1u64..5000, 0..40),
            caps in proptest::collection::vec(0u64..4000, 0..60),
        ) {
            let mut rlc = RlcTx::new();
            let mut entered = 0u64;
            for (i, s) in sdus.iter().enumerate() {
                rlc.enqueue(Bytes(*s), Tti(i as u64));
                entered += s;
            }
            let mut left = 0u64;
            for (i, c) in caps.iter().enumerate() {
                if let Some(pdu) = rlc.dequeue_pdu(Bytes(*c), Tti(100 + i as u64)) {
                    left += pdu.payload.as_u64();
                    prop_assert!(pdu.size.as_u64() <= *c);
                }
            }
            prop_assert_eq!(entered, left + rlc.buffer_occupancy().as_u64());
            prop_assert_eq!(rlc.buffer_occupancy().as_u64(), rlc.debug_total());
        }

        /// A dequeued PDU never exceeds the offered capacity and always
        /// pays the header.
        #[test]
        fn pdu_respects_capacity(cap in 3u64..10000) {
            let mut rlc = RlcTx::new();
            rlc.enqueue(Bytes(1_000_000), Tti(0));
            let pdu = rlc.dequeue_pdu(Bytes(cap), Tti(0)).unwrap();
            prop_assert_eq!(pdu.size.as_u64(), pdu.payload.as_u64() + RLC_HEADER_BYTES);
            prop_assert!(pdu.size.as_u64() <= cap);
            prop_assert_eq!(pdu.payload.as_u64(), cap - RLC_HEADER_BYTES);
        }
    }
}
