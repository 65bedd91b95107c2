//! Per-node runtime state.
//!
//! Node state is split in two:
//!
//! - [`NodeMem`] is the part application threads touch directly on the
//!   fast path (page data, validity, twins, prefetch bookkeeping); it
//!   lives behind a mutex shared with the per-thread contexts.
//! - [`NodeState`] is the engine-only protocol state: vector clock,
//!   notice board, diff storage, in-flight fetches, locks, barriers,
//!   scheduler and accounting.

use std::collections::HashMap;
use std::sync::Arc;

use rsdsm_protocol::{
    Diff, DiffCache, DiffPayload, IntervalRecord, NoticeBoard, Page, PageId, PagePool, VectorClock,
};
use rsdsm_simnet::{NodeId, SimDuration, SimTime};

use crate::accounting::NodeAccount;
use crate::barrier::NodeBarrier;
use crate::lock::LockTable;
use crate::msg::BasePayload;
use crate::prefetch::{AdaptiveConfig, AdaptiveStats, StrideDetector, ThrottleController};
use crate::thread::{Scheduler, ThreadId};

/// One page slot in a node's memory.
#[derive(Debug, Clone)]
pub(crate) struct PageEntry {
    /// The node's copy of the page contents (possibly stale when
    /// invalid).
    pub data: Page,
    /// Whether the copy may be accessed.
    pub valid: bool,
    /// Whether the node ever held a valid copy; first-touch fetches
    /// need a full base copy from the home node.
    pub ever_valid: bool,
    /// Clean pre-modification copy; present exactly while the page is
    /// dirty in the node's open interval. An `Arc` frame so a base
    /// reply built from the twin shares it zero-copy; mutation goes
    /// through `Arc::make_mut`, which un-shares first (copy-on-write).
    pub twin: Option<Arc<Page>>,
}

impl PageEntry {
    fn new(valid: bool) -> Self {
        PageEntry {
            data: Page::new(),
            valid,
            ever_valid: valid,
            twin: None,
        }
    }
}

/// Fast-path counters incremented by application threads.
#[derive(Debug, Clone, Copy, Default)]
pub struct AccessCounters {
    /// Prefetch operations executed (per page named).
    pub pf_calls: u64,
    /// Prefetches that found their data locally (Table 1
    /// "unnecessary prefetches").
    pub pf_unnecessary: u64,
    /// Prefetches dropped because a request was already in flight.
    pub pf_suppressed_inflight: u64,
    /// Prefetches suppressed by the §5.1 redundant-prefetch flag.
    pub pf_suppressed_flag: u64,
    /// Prefetches dropped by throttling (§5.1).
    pub pf_throttled: u64,
    /// Wasted checks emulating compiler-issued prefetches on private
    /// data (FFT / LU-NCONT in Table 1).
    pub pf_private_checks: u64,
}

/// The application-visible memory of one node.
#[derive(Debug)]
pub(crate) struct NodeMem {
    /// Page slots indexed by global page id.
    pub pages: Vec<PageEntry>,
    /// Pages with outstanding prefetch requests (count per page).
    pub prefetch_inflight: HashMap<PageId, u32>,
    /// Pages prefetched this barrier epoch (redundant-prefetch flag).
    pub epoch_prefetched: std::collections::HashSet<PageId>,
    /// Rolling sequence for prefetch throttling.
    pub throttle_seq: u64,
    /// Pages twinned since the last interval close, in twin-creation
    /// order (may contain stale entries whose twin was already
    /// dropped by a prefetch-induced interval split).
    pub dirty: Vec<PageId>,
    /// Twin creations since the engine last drained them into the
    /// event trace, in creation order. Only populated when
    /// `twin_log_on` — kept empty otherwise so untraced runs do no
    /// extra work.
    pub twin_log: Vec<PageId>,
    /// Whether twin creations should be logged for tracing.
    pub twin_log_on: bool,
    /// Free list recycling twin/checkpoint page buffers so the hot
    /// write-fault path avoids a zero-initializing allocation.
    pub pool: PagePool,
    /// Fast-path counters.
    pub counters: AccessCounters,
}

impl NodeMem {
    /// Memory for a node in a heap of `total_pages`, where
    /// `is_home(p)` says whether the node homes page `p` (homed pages
    /// start valid and zero-filled).
    pub fn new(total_pages: usize, is_home: impl Fn(usize) -> bool) -> Self {
        NodeMem {
            pages: (0..total_pages)
                .map(|p| PageEntry::new(is_home(p)))
                .collect(),
            prefetch_inflight: HashMap::new(),
            epoch_prefetched: std::collections::HashSet::new(),
            throttle_seq: 0,
            dirty: Vec::new(),
            twin_log: Vec::new(),
            twin_log_on: false,
            pool: PagePool::new(),
            counters: AccessCounters::default(),
        }
    }
}

/// A synchronization object, as the key of the automatic
/// prefetcher's access-pattern history.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SyncKey {
    /// A lock acquisition point.
    Lock(crate::msg::LockId),
    /// A barrier release point.
    Barrier(crate::msg::BarrierId),
}

/// How a page fault relates to prefetching — the categories of
/// Figure 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MissClass {
    /// The page had not been prefetched.
    NoPf,
    /// Prefetched data fully covered the fault (no messages needed).
    Hit,
    /// Prefetch issued but replies had not arrived (or were dropped).
    TooLate,
    /// Prefetched data was invalidated by notices that arrived after
    /// the prefetch was issued.
    Invalidated,
}

/// Per-node state of the adaptive prefetch engine (see
/// [`crate::prefetch`]). Constructed only when
/// [`AdaptiveConfig::enabled`] is set — `None` otherwise, so disabled
/// runs carry no adaptive state at all.
#[derive(Debug)]
pub(crate) struct AdaptiveNode {
    /// One stride detector per local application thread; each is
    /// reset at the thread's lock/barrier acquisitions so every
    /// (thread, lock-epoch) stream is scored independently.
    pub detectors: Vec<StrideDetector>,
    /// Per-thread streaming high-water mark: `(stride, furthest)` of
    /// the pages already planned under the current trend. Successive
    /// faults on a stride stream only extend the planned range past
    /// `furthest` (steady state: one new issue per fault) instead of
    /// re-issuing the whole overlapping lookahead window every fault.
    /// Cleared whenever the trend changes and at epoch boundaries
    /// (pages invalidated by the next interval must be re-planned).
    pub planned: Vec<Option<(i64, i64)>>,
    /// Per-thread count of trend flips: each one means a previously
    /// confirmed majority turned out wrong. Scales the probation
    /// below exponentially — a stream that keeps flipping (an access
    /// pattern no stride model fits) is trusted less and less.
    pub flips: Vec<u32>,
    /// Per-thread faults remaining before the stream's current trend
    /// is trusted enough to issue on: 1 after a fresh detection,
    /// `2^flips` after a flip. Wrong-way windows fetched on a
    /// short-lived majority are load the §3.3 feedback can never
    /// attribute (pages nobody faults on are neither hits nor
    /// misses), so they must be prevented, not corrected.
    pub probation: Vec<u32>,
    /// The node-wide feedback throttle over (degree, lead).
    pub throttle: ThrottleController,
    /// This node's share of the run-level adaptive counters.
    pub stats: AdaptiveStats,
}

impl AdaptiveNode {
    /// Fresh adaptive state for a node with `threads_on_node` local
    /// threads.
    pub fn new(cfg: &AdaptiveConfig, threads_on_node: usize) -> Self {
        AdaptiveNode {
            detectors: (0..threads_on_node)
                .map(|_| StrideDetector::new(cfg.window))
                .collect(),
            planned: vec![None; threads_on_node],
            flips: vec![0; threads_on_node],
            probation: vec![0; threads_on_node],
            throttle: ThrottleController::new(cfg),
            stats: AdaptiveStats::default(),
        }
    }
}

/// An in-progress remote page fetch (fault-driven).
#[derive(Debug)]
pub(crate) struct Fetch {
    /// Replies still outstanding.
    pub outstanding: usize,
    /// Threads blocked on this page.
    pub waiters: Vec<ThreadId>,
    /// Diffs collected so far.
    pub collected: Vec<DiffPayload>,
    /// Base page copy, when this is a first-touch fetch.
    pub base: Option<BasePayload>,
    /// Whether a base copy is still expected.
    pub base_pending: bool,
    /// When the fault occurred (for miss latency accounting).
    pub started: SimTime,
    /// True for a too-late join: every missing piece is already on
    /// the wire as a *reliable* adaptive prefetch, so this fetch
    /// consumes those replies instead of duplicating the requests
    /// through an already-loaded server. `outstanding` then counts
    /// in-flight prefetch replies, not demand replies.
    pub joined: bool,
}

/// Prefetch bookkeeping for one page (engine side).
#[derive(Debug, Clone, Default)]
pub(crate) struct PfMeta {
    /// (origin, origin-sequence) pairs whose diffs were requested.
    pub requested: std::collections::HashSet<(NodeId, u32)>,
    /// Whether a base copy was requested.
    pub wanted_base: bool,
    /// True while *every* request for this page was adaptive (and
    /// therefore reliable). Only then may a too-late fault join the
    /// in-flight replies instead of re-requesting: joining a
    /// droppable static prefetch could wait forever.
    pub all_adaptive: bool,
}

/// Engine-side statistics counters for one node.
#[derive(Debug, Clone, Copy, Default)]
pub struct NodeCounters {
    /// Page faults entering the protocol (any class).
    pub faults: u64,
    /// Faults requiring remote messages ("remote misses").
    pub misses: u64,
    /// Sum of fault-to-completion latencies for remote misses.
    pub miss_latency_sum: SimDuration,
    /// Per-thread memory stall time (block to wake).
    pub miss_stall: SimDuration,
    /// Remote lock acquisitions (token requested over the network).
    pub lock_events: u64,
    /// Per-thread lock stall time.
    pub lock_stall: SimDuration,
    /// Lock stall occurrences (blocked acquires, local or remote).
    pub lock_waits: u64,
    /// Barrier episodes participated in.
    pub barrier_events: u64,
    /// Per-thread barrier stall time.
    pub barrier_stall: SimDuration,
    /// Barrier stall occurrences.
    pub barrier_waits: u64,
    /// Context switches taken.
    pub switches: u64,
    /// Sum of busy run lengths between stalls.
    pub run_length_sum: SimDuration,
    /// Number of runs measured.
    pub run_length_count: u64,
    /// Fault classification tallies (Figure 3).
    pub pf_hit: u64,
    /// See [`MissClass::TooLate`].
    pub pf_too_late: u64,
    /// See [`MissClass::Invalidated`].
    pub pf_invalidated: u64,
    /// See [`MissClass::NoPf`].
    pub pf_no_pf: u64,
    /// Prefetch request messages sent.
    pub pf_messages: u64,
    /// Prefetch requests dropped at send time by the network.
    pub pf_send_drops: u64,
    /// Prefetch replies this node served that the network dropped
    /// (the requester falls back to a demand fault).
    pub pf_reply_drops: u64,
    /// Garbage collection passes performed.
    pub gc_passes: u64,
    /// Directory mode: fetch requests this node served for pages it
    /// homes (directory hot-spotting shows up here).
    pub dir_home_hits: u64,
    /// Directory mode: full interval records the home re-served to
    /// heal a requester whose pruned notice board lacked the page's
    /// history.
    pub dir_forwards: u64,
    /// Directory mode: write notices not recorded locally because
    /// this node holds no interest in the page (never touched it,
    /// does not home it, has nothing cached or in flight).
    pub dir_pruned: u64,
    /// Directory mode: first-touch home migrations this node won.
    pub dir_migrations: u64,
}

impl NodeCounters {
    /// Records a fault classification.
    pub fn classify(&mut self, class: MissClass) {
        match class {
            MissClass::NoPf => self.pf_no_pf += 1,
            MissClass::Hit => self.pf_hit += 1,
            MissClass::TooLate => self.pf_too_late += 1,
            MissClass::Invalidated => self.pf_invalidated += 1,
        }
    }
}

/// Engine-side state of one node.
#[derive(Debug)]
pub(crate) struct NodeState {
    /// This node's id.
    pub id: NodeId,
    /// The node's vector clock.
    pub vc: VectorClock,
    /// Write notices known locally.
    pub board: NoticeBoard,
    /// Prefetched diff replies awaiting use.
    pub cache: DiffCache,
    /// Prefetched base copies awaiting use.
    pub base_cache: HashMap<PageId, BasePayload>,
    /// Diffs this node created, keyed by (page index, own sequence).
    /// `Arc`-shared with every reply payload serving them, so a hot
    /// diff requested by many readers is encoded and stored once.
    pub own_diffs: HashMap<(usize, u32), Arc<Diff>>,
    /// Encoded bytes held in `own_diffs` (GC trigger).
    pub own_diff_bytes: usize,
    /// Every interval this node knows about (its own and received).
    pub known_intervals: IntervalLog,
    /// Vector clock at the last barrier release (bounds what must be
    /// sent to the barrier manager).
    pub last_release_vc: VectorClock,
    /// In-flight fault-driven fetches.
    pub fetches: HashMap<PageId, Fetch>,
    /// Per-page prefetch bookkeeping.
    pub pf_meta: HashMap<PageId, PfMeta>,
    /// Automatic-prefetch mode: pages that faulted after each
    /// synchronization point, keyed by the sync object — the access
    /// pattern history of the Bianchini-style runtime prefetcher.
    pub sync_history: HashMap<SyncKey, Vec<PageId>>,
    /// Automatic-prefetch mode: the sync object whose epoch is
    /// currently being recorded.
    pub current_sync: Option<SyncKey>,
    /// Automatic-prefetch mode: pages faulted in the current epoch.
    pub current_faults: Vec<PageId>,
    /// Adaptive prefetch engine state; `None` unless the run enables
    /// `PrefetchConfig::adaptive`.
    pub adaptive: Option<AdaptiveNode>,
    /// Lock state.
    pub locks: LockTable,
    /// Barrier local-combining state.
    pub barrier: NodeBarrier,
    /// Thread scheduler.
    pub sched: Scheduler,
    /// A thread stalled without switching pins the CPU (combined
    /// mode memory stalls, §5).
    pub pinned: Option<ThreadId>,
    /// CPU time account.
    pub account: NodeAccount,
    /// Statistics.
    pub counters: NodeCounters,
    /// The burst of app computation currently on the CPU.
    pub burst: Option<Burst>,
}

/// An application compute burst committed to the CPU.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Burst {
    /// The running thread.
    pub tid: ThreadId,
    /// When the burst's syscall matures.
    pub end: SimTime,
    /// Extra delay accumulated from interrupt servicing during the
    /// burst.
    pub penalty: SimDuration,
}

impl NodeState {
    /// Fresh state for node `id` of `nodes`, with `threads_on_node`
    /// application threads.
    pub fn new(id: NodeId, nodes: usize, threads_on_node: usize) -> Self {
        NodeState {
            id,
            vc: VectorClock::new(nodes),
            board: NoticeBoard::new(),
            cache: DiffCache::new(),
            base_cache: HashMap::new(),
            own_diffs: HashMap::new(),
            own_diff_bytes: 0,
            known_intervals: IntervalLog::new(nodes),
            last_release_vc: VectorClock::new(nodes),
            fetches: HashMap::new(),
            pf_meta: HashMap::new(),
            sync_history: HashMap::new(),
            current_sync: None,
            current_faults: Vec::new(),
            adaptive: None,
            locks: LockTable::new(id, nodes),
            barrier: NodeBarrier::new(threads_on_node),
            sched: Scheduler::new(),
            pinned: None,
            account: NodeAccount::new(),
            counters: NodeCounters::default(),
            burst: None,
        }
    }

    /// Stores reply diffs for `page` in the prefetch cache, dropping
    /// those a faster path already applied: replaying them later
    /// would roll newer bytes back.
    pub fn cache_unapplied(&mut self, page: PageId, diffs: Vec<DiffPayload>) {
        for d in diffs {
            if !self.board.is_applied(page, d.origin(), d.seq()) {
                self.cache.insert(page, d);
            }
        }
    }
}

/// The log of every interval a node knows, keyed by `(origin, seq)`.
///
/// Records stay in the order the node learned them, shared by `Arc`
/// with every message that piggybacks them. Beside the log, each
/// origin keeps its `(seq, log position)` pairs sorted by `seq`, so a
/// query touches only the records it returns instead of rescanning
/// the whole, ever-growing log.
///
/// Queries rest on one premise: a clock that covers an interval's own
/// sequence number (`vc[origin] >= seq`) dominates its whole stamp.
/// A clock grows only by ticking its own entry, which makes the new
/// interval's stamp the clock itself, or by joining a clock that
/// already dominates every stamp it counts; recovery never rolls a
/// clock back. Debug builds check every query against the linear
/// `dominates` scan in `reference`.
#[derive(Debug)]
pub(crate) struct IntervalLog {
    /// Every known interval, in learning order.
    records: Vec<Arc<IntervalRecord>>,
    /// Per origin: `(seq, position in records)`, ascending by seq.
    by_origin: Vec<Vec<(u32, u32)>>,
}

impl IntervalLog {
    /// An empty log for a cluster of `nodes`.
    pub fn new(nodes: usize) -> Self {
        IntervalLog {
            records: Vec::new(),
            by_origin: vec![Vec::new(); nodes],
        }
    }

    /// Every known interval, in learning order.
    pub fn records(&self) -> &[Arc<IntervalRecord>] {
        &self.records
    }

    /// The record of interval `(origin, seq)`, if known.
    pub fn get(&self, origin: NodeId, seq: u32) -> Option<&Arc<IntervalRecord>> {
        let list = &self.by_origin[origin];
        let at = list.binary_search_by_key(&seq, |&(s, _)| s).ok()?;
        Some(&self.records[list[at].1 as usize])
    }

    /// Records an interval (deduplicated by `(origin, seq)`). Returns
    /// true if it was new.
    pub fn learn(&mut self, rec: &Arc<IntervalRecord>) -> bool {
        let seq = rec.seq();
        let list = &mut self.by_origin[rec.origin];
        // Piggybacked diff replies can teach (o, 5) before (o, 4), so
        // insert at the sorted position rather than appending.
        let at = list.partition_point(|&(s, _)| s < seq);
        if list.get(at).is_some_and(|&(s, _)| s == seq) {
            return false;
        }
        let pos = u32::try_from(self.records.len()).expect("interval log fits u32 positions");
        list.insert(at, (seq, pos));
        self.records.push(Arc::clone(rec));
        true
    }

    /// Intervals `vc` does not dominate — the write notices to
    /// piggyback on a grant, barrier message or diff reply — in
    /// learning order.
    pub fn unknown_to(&self, vc: &VectorClock) -> Vec<Arc<IntervalRecord>> {
        let mut at = Vec::new();
        for (origin, list) in self.by_origin.iter().enumerate() {
            let known = vc.get(origin);
            let from = list.partition_point(|&(s, _)| s <= known);
            at.extend(list[from..].iter().map(|&(_, pos)| pos));
        }
        let out = self.in_log_order(at);
        #[cfg(debug_assertions)]
        check_against_scan(&out, &reference::unknown_to(self, vc));
        out
    }

    /// `origin`'s intervals that dirtied `page`, in learning order.
    pub fn of_origin_touching(&self, origin: NodeId, page: PageId) -> Vec<Arc<IntervalRecord>> {
        let at = self.by_origin[origin]
            .iter()
            .map(|&(_, pos)| pos)
            .filter(|&pos| self.records[pos as usize].pages.contains(&page))
            .collect();
        let out = self.in_log_order(at);
        #[cfg(debug_assertions)]
        check_against_scan(&out, &reference::of_origin_touching(self, origin, page));
        out
    }

    /// Intervals not from `except` that dirtied `page` and that `vc`
    /// dominates, in learning order: the history a directory home
    /// re-serves to a requester whose pruned notice board lacks it.
    pub fn known_to_touching(
        &self,
        vc: &VectorClock,
        page: PageId,
        except: NodeId,
    ) -> Vec<Arc<IntervalRecord>> {
        let mut at = Vec::new();
        for (origin, list) in self.by_origin.iter().enumerate() {
            if origin == except {
                continue;
            }
            let known = vc.get(origin);
            let upto = list.partition_point(|&(s, _)| s <= known);
            at.extend(
                list[..upto]
                    .iter()
                    .map(|&(_, pos)| pos)
                    .filter(|&pos| self.records[pos as usize].pages.contains(&page)),
            );
        }
        let out = self.in_log_order(at);
        #[cfg(debug_assertions)]
        check_against_scan(&out, &reference::known_to_touching(self, vc, page, except));
        out
    }

    /// The records at log positions `at`, sorted back into learning
    /// order (callers gather positions origin by origin).
    fn in_log_order(&self, mut at: Vec<u32>) -> Vec<Arc<IntervalRecord>> {
        at.sort_unstable();
        at.into_iter()
            .map(|pos| Arc::clone(&self.records[pos as usize]))
            .collect()
    }
}

/// Whether two query results name the same records in the same order.
#[cfg(any(test, debug_assertions))]
fn same_records(a: &[Arc<IntervalRecord>], b: &[Arc<IntervalRecord>]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| Arc::ptr_eq(x, y))
}

/// Debug builds: panics unless an indexed query returned exactly what
/// the linear scan does.
#[cfg(debug_assertions)]
fn check_against_scan(indexed: &[Arc<IntervalRecord>], scanned: &[Arc<IntervalRecord>]) {
    assert!(
        same_records(indexed, scanned),
        "interval index diverged from the linear scan: {indexed:?} vs {scanned:?}"
    );
}

/// Linear scans over the whole log with the full `dominates` test:
/// the definition each indexed [`IntervalLog`] query must reproduce,
/// record for record and in order.
#[cfg(any(test, debug_assertions))]
mod reference {
    use super::*;

    fn scan(log: &IntervalLog, keep: impl Fn(&IntervalRecord) -> bool) -> Vec<Arc<IntervalRecord>> {
        log.records
            .iter()
            .filter(|rec| keep(rec))
            .cloned()
            .collect()
    }

    /// See [`IntervalLog::unknown_to`].
    pub fn unknown_to(log: &IntervalLog, vc: &VectorClock) -> Vec<Arc<IntervalRecord>> {
        scan(log, |rec| !vc.dominates(&rec.stamp))
    }

    /// See [`IntervalLog::of_origin_touching`].
    pub fn of_origin_touching(
        log: &IntervalLog,
        origin: NodeId,
        page: PageId,
    ) -> Vec<Arc<IntervalRecord>> {
        scan(log, |rec| rec.origin == origin && rec.pages.contains(&page))
    }

    /// See [`IntervalLog::known_to_touching`].
    pub fn known_to_touching(
        log: &IntervalLog,
        vc: &VectorClock,
        page: PageId,
        except: NodeId,
    ) -> Vec<Arc<IntervalRecord>> {
        scan(log, |rec| {
            rec.origin != except && rec.pages.contains(&page) && vc.dominates(&rec.stamp)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn record(origin: NodeId, ticks: u32, nodes: usize) -> Arc<IntervalRecord> {
        let mut stamp = VectorClock::new(nodes);
        for _ in 0..ticks {
            stamp.tick(origin);
        }
        Arc::new(IntervalRecord {
            origin,
            stamp,
            pages: vec![PageId::new(0)],
        })
    }

    #[test]
    fn node_mem_homes_start_valid() {
        let mem = NodeMem::new(4, |p| p % 2 == 0);
        assert!(mem.pages[0].valid && mem.pages[0].ever_valid);
        assert!(!mem.pages[1].valid && !mem.pages[1].ever_valid);
        assert!(mem.pages[2].twin.is_none());
    }

    #[test]
    fn learn_interval_dedupes() {
        let mut n = NodeState::new(0, 2, 1);
        let rec = record(1, 1, 2);
        assert!(n.known_intervals.learn(&rec));
        // A different record with the same (origin, seq) key is a
        // duplicate too.
        assert!(!n.known_intervals.learn(&record(1, 1, 2)));
        assert_eq!(n.known_intervals.records().len(), 1);
        assert!(Arc::ptr_eq(&n.known_intervals.records()[0], &rec));
        assert!(n.known_intervals.get(1, 1).is_some());
        assert!(n.known_intervals.get(1, 2).is_none());
        assert!(n.known_intervals.get(0, 1).is_none());
    }

    #[test]
    fn intervals_unknown_to_filters_by_domination() {
        let mut n = NodeState::new(0, 2, 1);
        n.known_intervals.learn(&record(1, 1, 2));
        n.known_intervals.learn(&record(1, 2, 2));
        let mut knows_one = VectorClock::new(2);
        knows_one.tick(1);
        let unknown = n.known_intervals.unknown_to(&knows_one);
        assert_eq!(unknown.len(), 1);
        assert_eq!((unknown[0].origin, unknown[0].seq()), (1, 2));
        let knows_none = VectorClock::new(2);
        assert_eq!(n.known_intervals.unknown_to(&knows_none).len(), 2);
    }

    #[test]
    fn out_of_order_learning_keeps_log_order() {
        let mut log = IntervalLog::new(3);
        let (late, early, other) = (record(1, 2, 3), record(1, 1, 3), record(2, 1, 3));
        assert!(log.learn(&late));
        assert!(log.learn(&other));
        assert!(log.learn(&early));
        assert!(!log.learn(&late));
        assert!([(1, 1), (1, 2), (2, 1)]
            .iter()
            .all(|&(o, s)| log.get(o, s).is_some()));
        // Results come back in learning order, not sequence order.
        let all = log.unknown_to(&VectorClock::new(3));
        assert!(same_records(&all, &[late.clone(), other.clone(), early]));
        let knows_first = VectorClock::from_entries(&[0, 1, 0]);
        assert!(same_records(&log.unknown_to(&knows_first), &[late, other]));
    }

    #[test]
    fn touching_queries_filter_by_page_origin_and_clock() {
        let mut log = IntervalLog::new(3);
        let page = |i| PageId::new(i);
        let rec = |origin, entries: &[u32], pages: Vec<PageId>| {
            Arc::new(IntervalRecord {
                origin,
                stamp: VectorClock::from_entries(entries),
                pages,
            })
        };
        let a = rec(0, &[1, 0, 0], vec![page(0), page(1)]);
        let b = rec(1, &[1, 1, 0], vec![page(1)]);
        let c = rec(0, &[2, 1, 0], vec![page(1)]);
        let d = rec(2, &[0, 0, 1], vec![page(0)]);
        for r in [&a, &b, &c, &d] {
            log.learn(r);
        }
        assert!(same_records(
            &log.of_origin_touching(0, page(1)),
            &[a.clone(), c.clone()]
        ));
        assert!(same_records(
            &log.of_origin_touching(0, page(0)),
            std::slice::from_ref(&a)
        ));
        assert!(log.of_origin_touching(1, page(0)).is_empty());
        // A requester at [1,1,1] knows a, b, d but not c; its own
        // intervals (origin 2) are never re-served.
        let vc = VectorClock::from_entries(&[1, 1, 1]);
        assert!(same_records(
            &log.known_to_touching(&vc, page(1), 2),
            &[a.clone(), b]
        ));
        assert!(same_records(&log.known_to_touching(&vc, page(0), 2), &[a]));
    }

    /// The per-node state of a random causal history: each node's
    /// clock and interval log, built with the engine's operations.
    struct History {
        vcs: Vec<VectorClock>,
        logs: Vec<IntervalLog>,
        /// Clocks nodes held earlier, like a `last_release_vc`.
        past: Vec<VectorClock>,
    }

    const PAGES: u32 = 4;

    impl History {
        fn new(nodes: usize) -> Self {
            History {
                vcs: vec![VectorClock::new(nodes); nodes],
                logs: (0..nodes).map(|_| IntervalLog::new(nodes)).collect(),
                past: Vec::new(),
            }
        }

        /// Node `a` closes an interval dirtying the pages in `mask`.
        fn close(&mut self, a: NodeId, mask: u8) {
            self.vcs[a].tick(a);
            let rec = Arc::new(IntervalRecord {
                origin: a,
                stamp: self.vcs[a].clone(),
                pages: (0..PAGES)
                    .filter(|p| mask & (1 << p) != 0)
                    .map(PageId::new)
                    .collect(),
            });
            assert!(self.logs[a].learn(&rec));
        }

        /// `b` learns what `a` knows and `b`'s clock lacks, in an
        /// order shuffled by `seed`. A synchronization (`join`)
        /// learns all of it and joins `a`'s clock; a diff reply may
        /// deliver only some (`keep` bits) and leaves the clock.
        fn transfer(&mut self, a: NodeId, b: NodeId, seed: u64, join: bool) {
            let mut recs = self.logs[a].unknown_to(&self.vcs[b]);
            let mut rng = proptest::TestRng::from_name(&seed.to_string());
            for i in (1..recs.len()).rev() {
                recs.swap(i, rng.below(i as u64 + 1) as usize);
            }
            for rec in &recs {
                if join || rng.below(2) == 0 {
                    self.logs[b].learn(rec);
                }
            }
            if join {
                self.past.push(self.vcs[b].clone());
                let from = self.vcs[a].clone();
                self.vcs[b].join(&from);
            }
        }

        /// Every indexed query on every log, against every clock seen,
        /// must match the linear scan record for record and in order.
        fn check(&self) {
            let nodes = self.vcs.len();
            for log in &self.logs {
                for rec in log.records() {
                    let found = log.get(rec.origin, rec.seq()).expect("known record");
                    assert!(Arc::ptr_eq(found, rec));
                }
                for vc in self.vcs.iter().chain(&self.past) {
                    assert!(same_records(
                        &log.unknown_to(vc),
                        &reference::unknown_to(log, vc)
                    ));
                    for page in (0..PAGES).map(PageId::new) {
                        for except in 0..nodes {
                            assert!(same_records(
                                &log.known_to_touching(vc, page, except),
                                &reference::known_to_touching(log, vc, page, except)
                            ));
                        }
                    }
                }
                for origin in 0..nodes {
                    for page in (0..PAGES).map(PageId::new) {
                        assert!(same_records(
                            &log.of_origin_touching(origin, page),
                            &reference::of_origin_touching(log, origin, page)
                        ));
                    }
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

        /// The index reproduces the linear `dominates` scan over random
        /// multi-origin histories with out-of-order learning.
        #[test]
        fn index_matches_linear_scan(
            nodes in 2usize..=5,
            ops in prop::collection::vec(
                (0u8..4, 0usize..5, 0usize..5, 1u8..16, any::<u64>()),
                1..48,
            ),
        ) {
            let mut h = History::new(nodes);
            for (kind, a, b, mask, seed) in ops {
                let (a, b) = (a % nodes, b % nodes);
                match kind {
                    0 | 1 => h.close(a, mask),
                    2 if a != b => h.transfer(a, b, seed, true),
                    3 if a != b => h.transfer(a, b, seed, false),
                    _ => {}
                }
            }
            h.check();
        }
    }

    #[test]
    fn classify_tallies() {
        let mut c = NodeCounters::default();
        c.classify(MissClass::Hit);
        c.classify(MissClass::Hit);
        c.classify(MissClass::TooLate);
        c.classify(MissClass::Invalidated);
        c.classify(MissClass::NoPf);
        assert_eq!(c.pf_hit, 2);
        assert_eq!(c.pf_too_late, 1);
        assert_eq!(c.pf_invalidated, 1);
        assert_eq!(c.pf_no_pf, 1);
    }
}
