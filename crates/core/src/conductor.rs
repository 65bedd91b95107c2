//! The application-side context and the thread/engine handshake.
//!
//! Every simulated application thread runs on a real OS thread, in
//! strict lockstep with the engine: the engine resumes exactly one
//! thread at a time, the thread computes (accumulating charged time
//! locally) until it needs the DSM — a page fault, a synchronization
//! operation, a prefetch — then sends a [`Syscall`] and blocks until
//! the engine resumes it. This keeps the whole simulation
//! deterministic while letting application code be ordinary Rust.
//!
//! [`DsmCtx`] is the API visible to applications: typed reads/writes
//! on [`SharedVec`] handles, locks, barriers, prefetches, and explicit
//! compute-time charging. [`conduct`] is the driver side: it spawns
//! the threads and hands the driver (the engine, or the golden
//! scheduler) a [`Conductor`] to resume them with.

use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread;

use rsdsm_protocol::PageId;
use rsdsm_simnet::SimDuration;

use crate::config::{DsmConfig, PrefetchConfig};
use crate::costs::CostModel;
use crate::heap::{Pod, SharedVec};
use crate::msg::{BarrierId, LockId};
use crate::node::NodeMem;
use crate::program::DsmProgram;
use crate::thread::ThreadId;

/// A request from an application thread to the engine.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Syscall {
    /// Access to an invalid page.
    Fault {
        /// The faulted page.
        page: PageId,
        /// Whether the access is a write.
        write: bool,
    },
    /// Acquire a lock.
    Acquire(LockId),
    /// Release a lock.
    Release(LockId),
    /// Arrive at a barrier.
    Barrier(BarrierId),
    /// Issue prefetches for pages that passed the local filters.
    Prefetch(Vec<PageId>),
    /// The thread finished.
    Exit,
}

/// Simulated time accumulated on the thread since its last syscall.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Charges {
    /// Useful computation (Busy).
    pub busy: SimDuration,
    /// Protocol work done inline (twin creation) — DSM overhead.
    pub dsm: SimDuration,
    /// Prefetch issue/check overhead.
    pub prefetch: SimDuration,
}

impl Charges {
    /// Total charged time.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn total(&self) -> SimDuration {
        self.busy + self.dsm + self.prefetch
    }
}

/// What a thread sends when it yields to the engine.
#[derive(Debug)]
pub(crate) struct CallMsg {
    /// The request.
    pub syscall: Syscall,
    /// Time accumulated since the last resume.
    pub charges: Charges,
}

/// Limit on fault retries for a single access, to turn protocol
/// livelock bugs into a clear panic rather than a hang.
const MAX_FAULT_RETRIES: u32 = 100_000;

/// The driver's ends of every application thread's channel pair.
pub(crate) struct Conductor {
    resume_tx: Vec<Sender<()>>,
    call_rx: Vec<Receiver<CallMsg>>,
}

impl Conductor {
    /// Resumes thread `t` and blocks until it yields its next
    /// syscall. `None` when the thread is gone (it panicked).
    pub(crate) fn resume(&self, t: usize) -> Option<CallMsg> {
        self.resume_tx[t].send(()).ok()?;
        self.call_rx[t].recv().ok()
    }
}

/// Runs `app` with one OS thread per application thread of `cfg`,
/// under `drive`, which gets the [`Conductor`] and is the only code
/// that resumes them. Thread `t` runs on node
/// `t / cfg.threads.threads_per_node` with `cfg`'s costs and prefetch
/// mode, over the shared `mem`.
///
/// Returns `drive`'s result and the message of the first application
/// panic, if any. `drive` consumes the conductor, so the resume
/// channels close when it returns: a thread still blocked then wakes,
/// panics inside its `catch_unwind`, and the scope's join completes.
pub(crate) fn conduct<P: DsmProgram, R>(
    app: &P,
    handles: &P::Handles,
    mem: &Arc<Mutex<Vec<NodeMem>>>,
    cfg: &DsmConfig,
    drive: impl FnOnce(Conductor) -> R,
) -> (R, Option<String>) {
    let total_threads = cfg.total_threads();
    let mut conductor = Conductor {
        resume_tx: Vec::with_capacity(total_threads),
        call_rx: Vec::with_capacity(total_threads),
    };
    let mut ctxs = Vec::with_capacity(total_threads);
    for t in 0..total_threads {
        let (resume_tx, resume_rx) = mpsc::channel();
        let (call_tx, call_rx) = mpsc::channel();
        conductor.resume_tx.push(resume_tx);
        conductor.call_rx.push(call_rx);
        ctxs.push(DsmCtx {
            tid: ThreadId(t),
            node: t / cfg.threads.threads_per_node,
            num_threads: total_threads,
            mem: Arc::clone(mem),
            costs: cfg.costs.clone(),
            prefetch_cfg: cfg.prefetch.clone(),
            resume_rx,
            call_tx,
            pending: Charges::default(),
        });
    }

    let panic_note: Mutex<Option<String>> = Mutex::new(None);
    let result = thread::scope(|s| {
        for mut ctx in ctxs {
            let note = &panic_note;
            let h = handles.clone();
            s.spawn(move || {
                let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    ctx.wait_start();
                    app.run(&mut ctx, &h);
                    ctx.exit();
                }));
                if let Err(payload) = res {
                    let msg = payload
                        .downcast_ref::<String>()
                        .cloned()
                        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                        .unwrap_or_else(|| "<non-string panic>".to_string());
                    let mut slot = note.lock().expect("panic note mutex");
                    slot.get_or_insert(msg);
                }
            });
        }
        drive(conductor)
    });
    (result, panic_note.into_inner().expect("panic note mutex"))
}

/// The per-thread handle to the simulated DSM.
///
/// Obtained by the engine and passed to
/// [`DsmProgram::run`](crate::DsmProgram::run). All shared-memory
/// access, synchronization and prefetching goes through this context;
/// private data is ordinary Rust data.
#[derive(Debug)]
pub struct DsmCtx {
    tid: ThreadId,
    node: usize,
    num_threads: usize,
    mem: Arc<Mutex<Vec<NodeMem>>>,
    costs: CostModel,
    prefetch_cfg: PrefetchConfig,
    resume_rx: Receiver<()>,
    call_tx: Sender<CallMsg>,
    pending: Charges,
}

impl DsmCtx {
    /// Blocks until the engine first resumes this thread. Called once
    /// by the thread shim before entering application code.
    fn wait_start(&self) {
        self.resume_rx
            .recv()
            .expect("engine dropped before thread start");
    }

    /// This thread's global index, `0..num_threads`.
    pub fn thread_id(&self) -> usize {
        self.tid.index()
    }

    /// Total application threads in the run.
    pub fn num_threads(&self) -> usize {
        self.num_threads
    }

    /// The node (processor) this thread runs on.
    pub fn node(&self) -> usize {
        self.node
    }

    /// Charges `dur` of useful computation to this thread.
    ///
    /// Applications model their arithmetic with explicit compute
    /// charges (the actual Rust arithmetic runs at native speed and
    /// is not timed).
    pub fn compute(&mut self, dur: SimDuration) {
        self.pending.busy += dur;
    }

    /// Reads element `i` of a shared array.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn read<T: Pod>(&mut self, v: &SharedVec<T>, i: usize) -> T {
        let (page, off) = v.locate(i);
        self.with_valid_page(page, false, |entry| {
            T::read_le(&entry.data.bytes()[off..off + T::BYTES])
        })
    }

    /// Writes element `i` of a shared array.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn write<T: Pod>(&mut self, v: &SharedVec<T>, i: usize, value: T) {
        let (page, off) = v.locate(i);
        self.with_valid_page(page, true, |entry| {
            value.write_le(&mut entry.data.bytes_mut()[off..off + T::BYTES]);
        });
    }

    /// Reads elements `start..start + out.len()` into `out`.
    ///
    /// One page-validity check is performed per page touched, which is
    /// how the real system behaves (a fault per page, not per element).
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn read_slice<T: Pod>(&mut self, v: &SharedVec<T>, start: usize, out: &mut [T]) {
        let spans: Vec<_> = v.locate_range(start, start + out.len()).collect();
        for (page, range) in spans {
            self.with_valid_page(page, false, |entry| {
                for i in range.clone() {
                    let off = i * T::BYTES % rsdsm_protocol::PAGE_SIZE;
                    out[i - start] = T::read_le(&entry.data.bytes()[off..off + T::BYTES]);
                }
            });
        }
    }

    /// Writes `values` to elements `start..start + values.len()`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn write_slice<T: Pod>(&mut self, v: &SharedVec<T>, start: usize, values: &[T]) {
        let spans: Vec<_> = v.locate_range(start, start + values.len()).collect();
        for (page, range) in spans {
            self.with_valid_page(page, true, |entry| {
                for i in range.clone() {
                    let off = i * T::BYTES % rsdsm_protocol::PAGE_SIZE;
                    values[i - start].write_le(&mut entry.data.bytes_mut()[off..off + T::BYTES]);
                }
            });
        }
    }

    /// Reads a range as a new vector (convenience over
    /// [`DsmCtx::read_slice`]).
    pub fn read_vec<T: Pod>(&mut self, v: &SharedVec<T>, start: usize, len: usize) -> Vec<T> {
        let mut out = vec![T::default(); len];
        self.read_slice(v, start, &mut out);
        out
    }

    /// Acquires a lock, blocking until granted.
    pub fn acquire(&mut self, lock: LockId) {
        self.syscall(Syscall::Acquire(lock));
    }

    /// Releases a lock this thread holds.
    ///
    /// # Panics
    ///
    /// The engine panics the run if the thread does not hold the lock.
    pub fn release(&mut self, lock: LockId) {
        self.syscall(Syscall::Release(lock));
    }

    /// Arrives at a barrier, blocking until all threads arrive.
    pub fn barrier(&mut self, id: BarrierId) {
        self.syscall(Syscall::Barrier(id));
    }

    /// Issues non-binding prefetches for the pages backing elements
    /// `start..end` of `v`.
    ///
    /// When prefetching is disabled in the run configuration this is a
    /// free no-op, so applications always contain their prefetch
    /// annotations and the experiment harness switches them on or off.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn prefetch<T: Pod>(&mut self, v: &SharedVec<T>, start: usize, end: usize) {
        if !self.prefetch_cfg.honors_annotations() {
            return;
        }
        let pages = v.pages_for_range(start, end);
        let mut to_issue = Vec::new();
        {
            let mut mem = self.mem.lock().expect("mem mutex");
            let m = &mut mem[self.node];
            for page in pages {
                m.counters.pf_calls += 1;
                self.pending.prefetch += self.costs.prefetch_check;
                if m.pages[page.index()].valid {
                    m.counters.pf_unnecessary += 1;
                    continue;
                }
                if m.prefetch_inflight.contains_key(&page) {
                    m.counters.pf_suppressed_inflight += 1;
                    continue;
                }
                if self.prefetch_cfg.suppress_redundant && m.epoch_prefetched.contains(&page) {
                    m.counters.pf_suppressed_flag += 1;
                    continue;
                }
                m.throttle_seq += 1;
                if self.prefetch_cfg.throttle > 1
                    && !m
                        .throttle_seq
                        .is_multiple_of(self.prefetch_cfg.throttle as u64)
                {
                    m.counters.pf_throttled += 1;
                    continue;
                }
                if self.prefetch_cfg.suppress_redundant {
                    m.epoch_prefetched.insert(page);
                }
                to_issue.push(page);
            }
        }
        if !to_issue.is_empty() {
            self.syscall(Syscall::Prefetch(to_issue));
        }
    }

    /// Emulates compiler-issued prefetch checks on private data
    /// (`count` page checks that always find the data locally). A
    /// no-op unless the run uses compiler-style prefetching; see
    /// Table 1's FFT and LU-NCONT rows.
    pub fn prefetch_private(&mut self, count: usize) {
        if !self.prefetch_cfg.honors_annotations() || !self.prefetch_cfg.compiler_style {
            return;
        }
        self.pending.prefetch += self.costs.prefetch_check * count as u64;
        let mut mem = self.mem.lock().expect("mem mutex");
        let m = &mut mem[self.node];
        m.counters.pf_calls += count as u64;
        m.counters.pf_unnecessary += count as u64;
        m.counters.pf_private_checks += count as u64;
    }

    /// Signals the engine that this thread finished. Called by the
    /// thread shim after application code returns.
    fn exit(&mut self) {
        let charges = std::mem::take(&mut self.pending);
        // Exit is fire-and-forget: the engine marks the thread done
        // and never resumes it.
        let _ = self.call_tx.send(CallMsg {
            syscall: Syscall::Exit,
            charges,
        });
    }

    /// Runs `body` on a valid copy of `page`, faulting (and retrying)
    /// as needed. Charges fast-path access costs.
    fn with_valid_page<R>(
        &mut self,
        page: PageId,
        write: bool,
        mut body: impl FnMut(&mut crate::node::PageEntry) -> R,
    ) -> R {
        let mut retries = 0;
        loop {
            {
                let mut mem = self.mem.lock().expect("mem mutex");
                let m = &mut mem[self.node];
                if m.pages[page.index()].valid {
                    self.pending.busy += self.costs.access_check;
                    if write && m.pages[page.index()].twin.is_none() {
                        // Split borrows: the twin buffer comes from the
                        // node's page pool, not a fresh zeroing allocation.
                        let crate::node::NodeMem { pages, pool, .. } = &mut *m;
                        let entry = &mut pages[page.index()];
                        entry.twin = Some(pool.take_arc_copy_of(&entry.data));
                        self.pending.dsm += self.costs.twin_create;
                        m.dirty.push(page);
                        if m.twin_log_on {
                            m.twin_log.push(page);
                        }
                    }
                    return body(&mut m.pages[page.index()]);
                }
            }
            retries += 1;
            assert!(
                retries < MAX_FAULT_RETRIES,
                "page {page} never became valid after {retries} faults"
            );
            self.syscall(Syscall::Fault { page, write });
        }
    }

    /// Flushes pending charges with `syscall` and blocks until the
    /// engine resumes this thread.
    fn syscall(&mut self, syscall: Syscall) {
        let charges = std::mem::take(&mut self.pending);
        self.call_tx
            .send(CallMsg { syscall, charges })
            .expect("engine dropped mid-run");
        self.resume_rx.recv().expect("engine dropped mid-run");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_total() {
        let c = Charges {
            busy: SimDuration::from_micros(3),
            dsm: SimDuration::from_micros(2),
            prefetch: SimDuration::from_micros(1),
        };
        assert_eq!(c.total(), SimDuration::from_micros(6));
    }
}
