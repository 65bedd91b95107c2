//! DSM protocol messages.
//!
//! Every remote interaction in the system is one of these messages.
//! Wire sizes are estimated from the logical content so the network
//! model charges realistic transfer times (the paper's Table 1 and
//! Table 2 report total traffic in bytes).

use std::sync::Arc;

use rsdsm_protocol::{DiffPayload, IntervalRecord, Page, PageId, VectorClock, PAGE_SIZE};
use rsdsm_simnet::NodeId;

use crate::trace::{kind, kind_label};

/// Identifies an application-level lock. The lock's manager node is
/// `id % nodes`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LockId(pub u32);

/// Identifies an application-level barrier. Barriers are managed
/// centrally by node 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BarrierId(pub u32);

/// Wire size of a piggybacked interval list.
fn intervals_wire_bytes(intervals: &[Arc<IntervalRecord>]) -> usize {
    intervals.iter().map(|rec| rec.wire_bytes()).sum()
}

/// A full page copy sent on first-touch fetches, along with the
/// (origin, seq) intervals already incorporated in it.
#[derive(Debug, Clone, PartialEq)]
pub struct BasePayload {
    /// The page contents at the sender, shared zero-copy with the
    /// sender's twin frame when one exists (copy-on-write: a sender
    /// that later mutates its twin un-shares it first).
    pub page: Arc<Page>,
    /// Modifications already applied into `page` by the sender.
    pub incorporated: Vec<(NodeId, u32)>,
}

impl BasePayload {
    fn wire_bytes(&self) -> usize {
        PAGE_SIZE + self.incorporated.len() * 12
    }
}

/// Message bodies of the DSM protocol.
#[derive(Debug, Clone, PartialEq)]
pub enum MsgBody {
    /// Request diffs (and possibly a base copy) for a page. Sent on a
    /// page fault, or — with `prefetch` set — by the prefetch engine,
    /// in which case it travels unreliably.
    DiffRequest {
        /// The faulted/prefetched page.
        page: PageId,
        /// The recipient's own interval sequence numbers whose diffs
        /// are wanted.
        seqs: Vec<u32>,
        /// Also send a full page copy (first-touch fetch).
        want_base: bool,
        /// This is a prefetch request (servicing may split an open
        /// interval).
        prefetch: bool,
        /// The prefetch was issued by the adaptive stride engine
        /// (distinguished in traffic statistics; implies `prefetch`).
        adaptive: bool,
        /// Whether the network may drop this message (prefetch
        /// traffic is droppable unless configured reliable).
        droppable: bool,
        /// The requester's vector clock, so the reply can piggyback
        /// the write notices the requester lacks.
        vc: VectorClock,
    },
    /// Response to a [`MsgBody::DiffRequest`].
    DiffReply {
        /// The page in question.
        page: PageId,
        /// Requested (and possibly interval-split) diffs.
        diffs: Vec<DiffPayload>,
        /// Full page copy when requested.
        base: Option<BasePayload>,
        /// Mirrors the request's prefetch flag.
        prefetch: bool,
        /// Mirrors the request's adaptive flag.
        adaptive: bool,
        /// Mirrors the request's droppable flag.
        droppable: bool,
        /// Write notices the requester did not have. Piggybacking
        /// them preserves happens-before: a reply may carry a diff
        /// from a freshly split interval, and the requester must
        /// learn of every causally-prior interval before applying it,
        /// or a later fetch of an older overlapping diff would roll
        /// the page back.
        intervals: Vec<Arc<IntervalRecord>>,
    },
    /// Acquire request sent to the lock's manager node.
    LockRequest {
        /// The lock.
        lock: LockId,
        /// The acquiring node.
        requester: NodeId,
        /// The acquirer's vector clock, so the granter can select the
        /// write notices the acquirer lacks.
        vc: VectorClock,
    },
    /// Manager (or stale owner) forwarding an acquire request toward
    /// the current token holder.
    LockForward {
        /// The lock.
        lock: LockId,
        /// The acquiring node.
        requester: NodeId,
        /// The acquirer's vector clock.
        vc: VectorClock,
    },
    /// The token plus piggybacked write notices, sent by the previous
    /// holder directly to the new one.
    LockGrant {
        /// The lock.
        lock: LockId,
        /// Intervals the acquirer did not know about.
        intervals: Vec<Arc<IntervalRecord>>,
        /// The granter's vector clock.
        vc: VectorClock,
    },
    /// A node's last local thread reached the barrier.
    BarrierArrive {
        /// The barrier.
        id: BarrierId,
        /// The arriving node.
        from: NodeId,
        /// The arriver's vector clock.
        vc: VectorClock,
        /// Intervals the manager may not know about.
        intervals: Vec<Arc<IntervalRecord>>,
    },
    /// The manager releases all nodes from the barrier, redistributing
    /// every interval gathered from the arrivals.
    BarrierRelease {
        /// The barrier.
        id: BarrierId,
        /// Joined vector clock of all participants.
        vc: VectorClock,
        /// Union of intervals from all arrivals.
        intervals: Vec<Arc<IntervalRecord>>,
    },
    /// A node's lease on a peer expired, or a reliable frame to it
    /// exhausted its retries; reported to the manager, which owns
    /// failure confirmation.
    SuspectReport {
        /// The peer believed failed.
        suspect: NodeId,
    },
    /// The manager confirmed a failure: survivors mark the victim
    /// down and prepare for it to rejoin from its checkpoint.
    RecoveryStart {
        /// The failed node.
        victim: NodeId,
        /// The victim's last checkpointed barrier epoch (0 when it
        /// never checkpointed and will rejoin from its initial
        /// state).
        epoch: u32,
    },
}

/// A protocol message in flight.
#[derive(Debug, Clone, PartialEq)]
pub struct Msg {
    /// Sender node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Payload.
    pub body: MsgBody,
}

/// Fixed per-message body framing (op code, page/lock ids, flags).
const BODY_HEADER_BYTES: usize = 16;

impl MsgBody {
    /// Estimated wire size of the encoded body in bytes.
    pub fn wire_bytes(&self) -> usize {
        BODY_HEADER_BYTES
            + match self {
                // Each requested interval is charged as a full stamp.
                MsgBody::DiffRequest { seqs, vc, .. } => 4 * vc.len() * (1 + seqs.len()),
                MsgBody::DiffReply {
                    diffs,
                    base,
                    intervals,
                    ..
                } => {
                    diffs.iter().map(DiffPayload::wire_bytes).sum::<usize>()
                        + base.as_ref().map_or(0, BasePayload::wire_bytes)
                        + intervals_wire_bytes(intervals)
                }
                MsgBody::LockRequest { vc, .. } | MsgBody::LockForward { vc, .. } => 4 * vc.len(),
                MsgBody::LockGrant { intervals, vc, .. }
                | MsgBody::BarrierArrive { intervals, vc, .. }
                | MsgBody::BarrierRelease { intervals, vc, .. } => {
                    4 * vc.len() + intervals_wire_bytes(intervals)
                }
                // Node id / epoch fit inside the fixed header.
                MsgBody::SuspectReport { .. } | MsgBody::RecoveryStart { .. } => 0,
            }
    }

    /// Statistics label for the network layer.
    pub fn kind(&self) -> &'static str {
        kind_label(self.kind_code())
    }

    /// Trace message-class code (see [`crate::trace::kind`]).
    pub fn kind_code(&self) -> u8 {
        match self {
            MsgBody::DiffRequest { adaptive: true, .. } => kind::ADAPTIVE_REQUEST,
            MsgBody::DiffRequest { prefetch: true, .. } => kind::PREFETCH_REQUEST,
            MsgBody::DiffRequest { .. } => kind::DIFF_REQUEST,
            MsgBody::DiffReply { adaptive: true, .. } => kind::ADAPTIVE_REPLY,
            MsgBody::DiffReply { prefetch: true, .. } => kind::PREFETCH_REPLY,
            MsgBody::DiffReply { .. } => kind::DIFF_REPLY,
            MsgBody::LockRequest { .. } => kind::LOCK_REQUEST,
            MsgBody::LockForward { .. } => kind::LOCK_FORWARD,
            MsgBody::LockGrant { .. } => kind::LOCK_GRANT,
            MsgBody::BarrierArrive { .. } => kind::BARRIER_ARRIVE,
            MsgBody::BarrierRelease { .. } => kind::BARRIER_RELEASE,
            MsgBody::SuspectReport { .. } => kind::SUSPECT_REPORT,
            MsgBody::RecoveryStart { .. } => kind::RECOVERY_START,
        }
    }

    /// True for messages the network may drop (prefetch traffic,
    /// unless the run configures reliable prefetches).
    pub fn droppable(&self) -> bool {
        matches!(
            self,
            MsgBody::DiffRequest {
                droppable: true,
                ..
            } | MsgBody::DiffReply {
                droppable: true,
                ..
            }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsdsm_protocol::{Diff, NOTICE_WIRE_BYTES};

    fn vc() -> VectorClock {
        VectorClock::new(4)
    }

    #[test]
    fn wire_sizes_scale_with_content() {
        let small = MsgBody::DiffRequest {
            page: PageId::new(0),
            seqs: vec![1],
            want_base: false,
            prefetch: false,
            adaptive: false,
            droppable: false,
            vc: vc(),
        };
        let large = MsgBody::DiffRequest {
            page: PageId::new(0),
            seqs: vec![1, 2, 3, 4],
            want_base: false,
            prefetch: false,
            adaptive: false,
            droppable: false,
            vc: vc(),
        };
        assert!(large.wire_bytes() > small.wire_bytes());
    }

    /// A small diff of fixed encoded size.
    fn one_run_diff() -> Arc<Diff> {
        let mut page = Page::new();
        page.write_u64(0, 7);
        Arc::new(Diff::between(&Page::new(), &page))
    }

    /// Every `MsgBody` variant at `n` nodes, each carrying `k`
    /// requested intervals, diffs, incorporated entries or
    /// piggybacked two-page records.
    fn every_variant(n: usize, k: usize) -> Vec<(&'static str, MsgBody)> {
        let vc = VectorClock::new(n);
        let rec = Arc::new(IntervalRecord {
            origin: 0,
            stamp: vc.clone(),
            pages: vec![PageId::new(0), PageId::new(1)],
        });
        let diffs = vec![
            DiffPayload {
                rec: Arc::clone(&rec),
                diff: one_run_diff(),
            };
            k
        ];
        let intervals = vec![rec; k];
        let reply = |base: Option<BasePayload>| MsgBody::DiffReply {
            page: PageId::new(0),
            diffs: diffs.clone(),
            base,
            prefetch: false,
            adaptive: false,
            droppable: false,
            intervals: intervals.clone(),
        };
        vec![
            (
                "diff_request",
                MsgBody::DiffRequest {
                    page: PageId::new(0),
                    seqs: vec![1; k],
                    want_base: false,
                    prefetch: false,
                    adaptive: false,
                    droppable: false,
                    vc: vc.clone(),
                },
            ),
            ("diff_reply", reply(None)),
            (
                "diff_reply_base",
                reply(Some(BasePayload {
                    page: Arc::new(Page::new()),
                    incorporated: vec![(0, 1); k],
                })),
            ),
            (
                "lock_request",
                MsgBody::LockRequest {
                    lock: LockId(0),
                    requester: 1,
                    vc: vc.clone(),
                },
            ),
            (
                "lock_forward",
                MsgBody::LockForward {
                    lock: LockId(0),
                    requester: 1,
                    vc: vc.clone(),
                },
            ),
            (
                "lock_grant",
                MsgBody::LockGrant {
                    lock: LockId(0),
                    intervals: intervals.clone(),
                    vc: vc.clone(),
                },
            ),
            (
                "barrier_arrive",
                MsgBody::BarrierArrive {
                    id: BarrierId(0),
                    from: 1,
                    vc: vc.clone(),
                    intervals: intervals.clone(),
                },
            ),
            (
                "barrier_release",
                MsgBody::BarrierRelease {
                    id: BarrierId(0),
                    vc,
                    intervals,
                },
            ),
            ("suspect_report", MsgBody::SuspectReport { suspect: 1 }),
            (
                "recovery_start",
                MsgBody::RecoveryStart {
                    victim: 1,
                    epoch: 2,
                },
            ),
        ]
    }

    /// Exact modeled wire sizes, `(variant, nodes, [bytes with 0, 1
    /// and 3 entries])`. Every simulated transfer time, traffic table
    /// and digest rests on these numbers, so a change to how messages
    /// are represented in memory must reproduce them byte for byte.
    const WIRE_BYTES: [(&str, usize, [usize; 3]); 20] = [
        ("diff_request", 4, [32, 48, 80]),
        ("diff_reply", 4, [16, 117, 319]),
        ("diff_reply_base", 4, [4112, 4225, 4451]),
        ("lock_request", 4, [32, 32, 32]),
        ("lock_forward", 4, [32, 32, 32]),
        ("lock_grant", 4, [32, 104, 248]),
        ("barrier_arrive", 4, [32, 104, 248]),
        ("barrier_release", 4, [32, 104, 248]),
        ("suspect_report", 4, [16, 16, 16]),
        ("recovery_start", 4, [16, 16, 16]),
        ("diff_request", 64, [272, 528, 1040]),
        ("diff_reply", 64, [16, 597, 1759]),
        ("diff_reply_base", 64, [4112, 4705, 5891]),
        ("lock_request", 64, [272, 272, 272]),
        ("lock_forward", 64, [272, 272, 272]),
        ("lock_grant", 64, [272, 584, 1208]),
        ("barrier_arrive", 64, [272, 584, 1208]),
        ("barrier_release", 64, [272, 584, 1208]),
        ("suspect_report", 64, [16, 16, 16]),
        ("recovery_start", 64, [16, 16, 16]),
    ];

    #[test]
    fn wire_bytes_match_the_pinned_table() {
        let mut checked = 0;
        for (label, n, bytes) in WIRE_BYTES {
            for (k, want) in [0, 1, 3].into_iter().zip(bytes) {
                let (_, body) = every_variant(n, k)
                    .into_iter()
                    .find(|(l, _)| *l == label)
                    .expect("table row names a variant");
                assert_eq!(body.wire_bytes(), want, "{label} at n={n}, k={k}");
                checked += 1;
            }
        }
        assert_eq!(checked, 60);
        assert_eq!(every_variant(4, 0).len() * 2, WIRE_BYTES.len());
    }

    #[test]
    fn reply_with_base_is_page_sized() {
        let body = MsgBody::DiffReply {
            page: PageId::new(1),
            diffs: vec![],
            base: Some(BasePayload {
                page: Arc::new(Page::new()),
                incorporated: vec![],
            }),
            prefetch: false,
            adaptive: false,
            droppable: false,
            intervals: vec![],
        };
        assert!(body.wire_bytes() >= PAGE_SIZE);
    }

    #[test]
    fn only_prefetch_traffic_is_droppable() {
        let pf = MsgBody::DiffRequest {
            page: PageId::new(0),
            seqs: vec![],
            want_base: false,
            prefetch: true,
            adaptive: false,
            droppable: true,
            vc: vc(),
        };
        assert!(pf.droppable());
        assert_eq!(pf.kind(), "prefetch_request");
        let normal = MsgBody::LockRequest {
            lock: LockId(0),
            requester: 1,
            vc: vc(),
        };
        assert!(!normal.droppable());
        assert_eq!(normal.kind(), "lock_request");
    }

    #[test]
    fn interval_record_wire_bytes() {
        let rec = IntervalRecord {
            origin: 0,
            stamp: vc(),
            pages: vec![PageId::new(0), PageId::new(1)],
        };
        assert_eq!(rec.wire_bytes(), 8 + 16 + 2 * NOTICE_WIRE_BYTES);
    }
}
