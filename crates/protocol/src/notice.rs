//! Intervals, write notices, the per-node notice board, and the
//! prefetch diff cache.
//!
//! An interval is named by its writer and the writer's own interval
//! count: `(origin, seq)`. The only vector clock an interval carries
//! is its [`IntervalRecord`]'s stamp; notices, cached diffs and diff
//! requests all use the pair.
//!
//! When a processor releases a synchronization object, it piggybacks
//! the interval records the acquirer lacks on the reply; each record
//! yields one *write notice* per page it dirtied. The acquirer
//! invalidates those pages; a later access faults and fetches the
//! corresponding diffs from their writers.
//!
//! [`NoticeBoard`] is a node's record of the notices it knows about
//! and which of them have already been satisfied by an applied diff.
//! [`DiffCache`] is the separate heap the paper's prefetch
//! implementation stores diff replies in ("a cache of remote diff
//! replies", §3.1) until the page is actually accessed.

use std::collections::HashMap;
use std::sync::Arc;

use crate::clock::VectorClock;
use crate::diff::Diff;
use crate::page::PageId;

/// A closed interval: `origin` modified `pages` during the interval
/// stamped `stamp`. This is the unit of write-notice propagation.
#[derive(Debug, Clone, PartialEq)]
pub struct IntervalRecord {
    /// The writing processor.
    pub origin: usize,
    /// Vector timestamp at the interval's close.
    pub stamp: VectorClock,
    /// Pages dirtied during the interval.
    pub pages: Vec<PageId>,
}

impl IntervalRecord {
    /// The origin's own sequence number for this interval — with
    /// `origin`, the record's unique key.
    pub fn seq(&self) -> u32 {
        self.stamp.get(self.origin)
    }

    /// Wire size of the encoded record.
    pub fn wire_bytes(&self) -> usize {
        8 + 4 * self.stamp.len() + NOTICE_WIRE_BYTES * self.pages.len()
    }
}

/// Notification that `origin` wrote `page` during its interval `seq`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteNotice {
    /// The modified page.
    pub page: PageId,
    /// The processor that performed the writes.
    pub origin: usize,
    /// The writer's own sequence number for the interval.
    pub seq: u32,
}

/// Wire-size estimate of one encoded write notice, for message sizing.
pub const NOTICE_WIRE_BYTES: usize = 24;

#[derive(Debug, Clone)]
struct NoticeEntry {
    origin: usize,
    seq: u32,
    applied: bool,
}

/// A node's record of known write notices, per page.
///
/// Invariant: at most one entry per (page, origin, seq).
#[derive(Debug, Clone, Default)]
pub struct NoticeBoard {
    by_page: HashMap<PageId, Vec<NoticeEntry>>,
}

impl NoticeBoard {
    /// An empty board.
    pub fn new() -> Self {
        NoticeBoard::default()
    }

    /// Records a notice received at acquire time (or piggybacked on a
    /// reply). Duplicates are ignored. Returns true if the notice was
    /// new — the caller should then invalidate the page.
    pub fn record(&mut self, notice: WriteNotice) -> bool {
        let entries = self.by_page.entry(notice.page).or_default();
        if entries
            .iter()
            .any(|e| e.origin == notice.origin && e.seq == notice.seq)
        {
            return false;
        }
        entries.push(NoticeEntry {
            origin: notice.origin,
            seq: notice.seq,
            applied: false,
        });
        true
    }

    /// The distinct origins that have pending (unapplied)
    /// modifications to `page`, ascending, each with its pending
    /// sequence numbers in record order.
    pub fn pending_by_origin(&self, page: PageId) -> Vec<(usize, Vec<u32>)> {
        let mut out: Vec<(usize, Vec<u32>)> = Vec::new();
        if let Some(entries) = self.by_page.get(&page) {
            for e in entries.iter().filter(|e| !e.applied) {
                match out.iter_mut().find(|(o, _)| *o == e.origin) {
                    Some((_, seqs)) => seqs.push(e.seq),
                    None => out.push((e.origin, vec![e.seq])),
                }
            }
        }
        out.sort_by_key(|(o, _)| *o);
        out
    }

    /// True if any notice for `page` lacks an applied diff.
    pub fn has_pending(&self, page: PageId) -> bool {
        self.by_page
            .get(&page)
            .is_some_and(|es| es.iter().any(|e| !e.applied))
    }

    /// Marks the notice (page, origin, seq) as satisfied by an
    /// applied diff. Unknown notices are recorded as applied, which
    /// happens when a diff arrives (e.g. via prefetch) before its
    /// notice propagates.
    pub fn mark_applied(&mut self, page: PageId, origin: usize, seq: u32) {
        let entries = self.by_page.entry(page).or_default();
        match entries
            .iter_mut()
            .find(|e| e.origin == origin && e.seq == seq)
        {
            Some(e) => e.applied = true,
            None => entries.push(NoticeEntry {
                origin,
                seq,
                applied: true,
            }),
        }
    }

    /// Whether the diff for (page, origin, seq) has already been
    /// applied locally. Re-applying an old diff after newer ones is
    /// unsound (diffs are byte-sparse), so consumers check this before
    /// applying cached data.
    pub fn is_applied(&self, page: PageId, origin: usize, seq: u32) -> bool {
        self.by_page.get(&page).is_some_and(|es| {
            es.iter()
                .any(|e| e.applied && e.origin == origin && e.seq == seq)
        })
    }

    /// The (origin, seq) pairs whose diffs have been applied into the
    /// local copy of `page`, in record order — sent along with base
    /// copies so a first-touch fetcher knows what the copy already
    /// incorporates.
    pub fn applied_for(&self, page: PageId) -> Vec<(usize, u32)> {
        self.by_page.get(&page).map_or_else(Vec::new, |es| {
            es.iter()
                .filter(|e| e.applied)
                .map(|e| (e.origin, e.seq))
                .collect()
        })
    }
}

/// One interval's diff for one page: the payload of a diff reply, an
/// entry of a fetch's collected replies, and a prefetch cache entry.
/// Its identity, happens-before order and wire size all come from
/// the interval's record.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffPayload {
    /// The interval that produced the diff, shared with the writer's
    /// interval log.
    pub rec: Arc<IntervalRecord>,
    /// The run-length-encoded modifications, shared zero-copy with
    /// the writer's own diff record (cloning a payload bumps two
    /// refcounts, never copies the encoded bytes).
    pub diff: Arc<Diff>,
}

impl DiffPayload {
    /// The writer the diff came from.
    pub fn origin(&self) -> usize {
        self.rec.origin
    }

    /// The writer's sequence number for the interval.
    pub fn seq(&self) -> u32 {
        self.rec.seq()
    }

    /// Wire size of the encoded payload: the interval's stamp plus
    /// the encoded modifications.
    pub fn wire_bytes(&self) -> usize {
        8 + 4 * self.rec.stamp.len() + self.diff.encoded_bytes()
    }
}

/// The separate heap holding prefetched diff replies ("a cache of
/// remote diff replies", §3.1) until the faulting access applies them.
#[derive(Debug, Clone, Default)]
pub struct DiffCache {
    by_page: HashMap<PageId, Vec<DiffPayload>>,
}

impl DiffCache {
    /// An empty cache.
    pub fn new() -> Self {
        DiffCache::default()
    }

    /// Stores a prefetched diff for `page`. Duplicate (origin, seq)
    /// entries are ignored.
    pub fn insert(&mut self, page: PageId, payload: DiffPayload) {
        let entry = self.by_page.entry(page).or_default();
        if !entry
            .iter()
            .any(|c| c.origin() == payload.origin() && c.seq() == payload.seq())
        {
            entry.push(payload);
        }
    }

    /// Removes and returns all cached diffs for `page`, in insertion
    /// order; the consumer orders them by happens-before.
    pub fn take(&mut self, page: PageId) -> Vec<DiffPayload> {
        self.by_page.remove(&page).unwrap_or_default()
    }

    /// Whether any diff for `page` is cached.
    pub fn contains_page(&self, page: PageId) -> bool {
        self.by_page.contains_key(&page)
    }

    /// Whether the diff for (page, origin, seq) is cached.
    pub fn has_diff(&self, page: PageId, origin: usize, seq: u32) -> bool {
        self.by_page
            .get(&page)
            .is_some_and(|cs| cs.iter().any(|c| c.origin() == origin && c.seq() == seq))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::Page;

    fn notice(page: u32, origin: usize, seq: u32) -> WriteNotice {
        WriteNotice {
            page: PageId::new(page),
            origin,
            seq,
        }
    }

    /// A payload for `origin`'s interval `seq` in a 2-node cluster.
    fn payload(origin: usize, seq: u32, diff: Arc<Diff>) -> DiffPayload {
        let mut stamp = VectorClock::new(2);
        for _ in 0..seq {
            stamp.tick(origin);
        }
        DiffPayload {
            rec: Arc::new(IntervalRecord {
                origin,
                stamp,
                pages: vec![PageId::new(1)],
            }),
            diff,
        }
    }

    #[test]
    fn record_dedupes() {
        let mut board = NoticeBoard::new();
        assert!(board.record(notice(1, 0, 1)));
        assert!(!board.record(notice(1, 0, 1)));
        assert_eq!(board.pending_by_origin(PageId::new(1)), vec![(0, vec![1])]);
    }

    #[test]
    fn pending_grouped_by_origin() {
        let mut board = NoticeBoard::new();
        board.record(notice(1, 1, 1));
        board.record(notice(1, 0, 2));
        board.record(notice(1, 0, 1));
        // Ascending origin; record order within an origin.
        assert_eq!(
            board.pending_by_origin(PageId::new(1)),
            vec![(0, vec![2, 1]), (1, vec![1])]
        );
    }

    #[test]
    fn mark_applied_clears_pending() {
        let mut board = NoticeBoard::new();
        board.record(notice(3, 0, 1));
        assert!(board.has_pending(PageId::new(3)));
        board.mark_applied(PageId::new(3), 0, 1);
        assert!(!board.has_pending(PageId::new(3)));
        assert!(board.pending_by_origin(PageId::new(3)).is_empty());
        assert!(board.is_applied(PageId::new(3), 0, 1));
        assert!(!board.is_applied(PageId::new(3), 0, 2));
    }

    #[test]
    fn diff_applied_before_notice_registers_as_applied() {
        let mut board = NoticeBoard::new();
        board.mark_applied(PageId::new(9), 1, 1);
        // The notice arriving later is a duplicate of an applied entry.
        assert!(!board.record(notice(9, 1, 1)));
        assert!(!board.has_pending(PageId::new(9)));
        assert_eq!(board.applied_for(PageId::new(9)), vec![(1, 1)]);
    }

    #[test]
    fn diff_cache_round_trip() {
        let mut cache = DiffCache::new();
        let mut page = Page::new();
        page.write_u64(0, 7);
        let d = Arc::new(Diff::full_page(&page));
        cache.insert(PageId::new(2), payload(1, 1, Arc::clone(&d)));
        assert!(cache.contains_page(PageId::new(2)));
        assert!(cache.has_diff(PageId::new(2), 1, 1));
        assert!(!cache.has_diff(PageId::new(2), 1, 2));
        let taken = cache.take(PageId::new(2));
        assert_eq!(taken.len(), 1);
        assert!(Arc::ptr_eq(&taken[0].diff, &d));
        assert!(!cache.contains_page(PageId::new(2)));
        assert!(cache.take(PageId::new(2)).is_empty());
    }

    #[test]
    fn diff_cache_dedupes() {
        let mut cache = DiffCache::new();
        for _ in 0..2 {
            cache.insert(PageId::new(1), payload(0, 1, Arc::new(Diff::default())));
        }
        assert_eq!(cache.take(PageId::new(1)).len(), 1);
    }
}
