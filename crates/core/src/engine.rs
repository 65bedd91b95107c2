//! The simulation engine: event loop, protocol handlers, and the
//! conductor that runs application threads in deterministic lockstep.
//!
//! The engine is the meeting point of every substrate: it owns the
//! event queue and network from `rsdsm-simnet`, drives the LRC
//! machinery from `rsdsm-protocol` inside each [`NodeState`], executes
//! application threads through the [`conductor`](crate::conductor)
//! handshake, and charges every software cost from the
//! [`CostModel`](crate::CostModel) to the per-node accounts that
//! become the paper's execution-time breakdowns.

use std::sync::{Arc, Mutex};

use rsdsm_protocol::{Diff, DiffPayload, IntervalRecord, Page, PageId, VectorClock, WriteNotice};
use rsdsm_simnet::{
    EventQueue, Network, NodeId, PersistDevice, Reliability, SimDuration, SimTime, Topology,
};

use crate::accounting::{Category, IdleReason};
use crate::barrier::BarrierManager;
use crate::checkpoint::{
    classify_slot, commit_region, payload_region, slot_for_seq, Checkpoint, CommitRecord,
    SlotState, SLOT_COUNT, SLOT_REGIONS,
};
use crate::conductor::{conduct, Charges, Conductor, Syscall};
use crate::config::{DirectoryPolicy, DsmConfig};
use crate::heap::Heap;
use crate::lock::{AcquireOutcome, ForwardOutcome, GrantOutcome, ReleaseOutcome, RemoteWaiter};
use crate::msg::{BarrierId, BasePayload, LockId, Msg, MsgBody};
use crate::node::{AdaptiveNode, Fetch, MissClass, NodeMem, NodeState, SyncKey};
use crate::oracle::{digest_pages, OracleOutcome, OracleState};
use crate::prefetch::{AdaptiveStats, TrendChange};
use crate::program::{DsmProgram, VerifyCtx};
use crate::recovery::{FailureDetector, PeerStatus, RecoveryStats};
use crate::report::{fold_counters, NetSummary, RunReport, SimError};
use crate::thread::{BlockReason, ThreadId, ThreadState};
use crate::trace::{class, kind, Trace, TraceEvent, Tracer, NO_CAUSE, NO_THREAD};
use crate::transport::{Frame, Packet, Recv, TimeoutAction, Transport};

/// Events processed by the engine.
#[derive(Debug)]
enum Event {
    /// Initial activation of a thread.
    Start(ThreadId),
    /// A running thread's compute burst matured into its syscall.
    SyscallReady(ThreadId),
    /// A transport frame arrived at its destination.
    Arrival(Packet),
    /// A reliable frame's retransmission timer fired. Stale timers
    /// (frame already acked) are lazily discarded.
    RetryTimeout {
        /// The frame's sender.
        src: NodeId,
        /// The frame's destination.
        dst: NodeId,
        /// The frame's per-link sequence number.
        seq: u64,
    },
    /// A scheduled crash from the fault plan: the node's NIC goes
    /// dead and its local activity freezes.
    Crash {
        /// The crashing node.
        node: NodeId,
        /// `Some(outage)` for crash-restart, `None` for crash-stop
        /// (the node only comes back if recovery provisions a
        /// replacement).
        restart_after: Option<SimDuration>,
    },
    /// A crashed node rejoins the run (its outage plus the modeled
    /// restore/replay cost has elapsed).
    Restart(NodeId),
    /// Periodic failure-detector tick at one node: checks peers'
    /// leases and sends explicit heartbeats on idle links. Only
    /// scheduled when recovery is enabled.
    HeartbeatTick(NodeId),
    /// The manager's grace period after a suspicion expired; decide
    /// whether the suspect is really down.
    ConfirmFailure(NodeId),
    /// A scheduled network cut from the fault plan activates
    /// (index into `FaultPlan::partitions`): nodes outside the
    /// manager-side component freeze and are marked unreachable.
    PartitionStart(usize),
    /// The cut heals: frozen minority nodes get their rejoin
    /// (checkpoint restore + replay) scheduled.
    PartitionHeal(usize),
    /// A frozen minority node finishes reconciling and resumes.
    Rejoin(NodeId),
}

/// Engine-side state of one application thread.
struct ThreadPeer {
    state: ThreadState,
    pending_syscall: Option<Syscall>,
    run_busy: rsdsm_simnet::SimDuration,
    last_block: Option<BlockReason>,
}

/// Consecutive manager heartbeat ticks with no other event before the
/// engine declares the run deadlocked. With recovery enabled the
/// recurring ticks keep the event queue non-empty, so the usual
/// queue-drained deadlock check never fires; this bounds the silence
/// instead.
const IDLE_TICK_LIMIT: u32 = 256;

/// Engine-side crash and recovery bookkeeping. The policy types
/// (config, detector, stats) live in [`crate::recovery`]; this is the
/// mutable state the event loop threads them through.
struct RecoveryState {
    /// Ground truth: which nodes are currently crashed.
    down: Vec<bool>,
    /// Count of `true` entries in `down` (fast path: zero almost
    /// always).
    downs: usize,
    /// When each down node crashed.
    crash_time: Vec<SimTime>,
    /// A scheduled [`Event::Restart`], if any, per node — guards
    /// against double-restarting a crash-restart victim that the
    /// failure detector also confirms.
    restart_at: Vec<Option<SimTime>>,
    /// Whether a [`Event::ConfirmFailure`] is already queued per node.
    confirm_pending: Vec<bool>,
    /// Events frozen because their node was down, with the time they
    /// would have fired; replayed time-shifted at restart.
    parked_events: Vec<(NodeId, SimTime, Event)>,
    /// Reliable frames that exhausted their retries toward a
    /// suspected peer, as (src, dst, seq); re-armed when the peer is
    /// cleared or rejoins.
    parked_frames: Vec<(NodeId, NodeId, u64)>,
    /// Per-link leases and peer beliefs.
    detector: FailureDetector,
    /// Last outbound frame per (src, dst) — explicit heartbeats are
    /// suppressed on links with recent traffic.
    last_sent: Vec<Vec<SimTime>>,
    /// Each node's accumulated busy time at its last checkpoint; the
    /// difference at crash time is the modeled replay cost.
    busy_at_ckpt: Vec<SimDuration>,
    /// Barrier releases processed per node (the checkpoint cadence
    /// counter).
    epochs_done: Vec<u32>,
    /// Latest checkpoint per node.
    ckpts: Vec<Option<Checkpoint>>,
    /// Per-node persistent devices ([`SLOT_REGIONS`] regions each);
    /// empty unless `recovery.persist.enabled`.
    pdevs: Vec<PersistDevice>,
    /// Monotonic persist sequence per node (stamps commit records so
    /// slot classification can order the A/B pair).
    persist_seq: Vec<u64>,
    /// Busy time at the checkpoint persisted in each slot — replay
    /// cost must be measured from whichever slot recovery actually
    /// restores.
    busy_at_slot: Vec<[SimDuration; SLOT_COUNT]>,
    /// Persisted-image size (payload + commit) backing each node's
    /// current restore source; drives the device-read restore cost.
    restore_bytes: Vec<u64>,
    /// Counters surfaced in [`RunReport`].
    stats: RecoveryStats,
    /// Consecutive idle manager ticks (see [`IDLE_TICK_LIMIT`]).
    idle_tick_rounds: u32,
    /// Whether any non-tick event ran since the last manager tick.
    progressed: bool,
    /// Nodes frozen on the minority side of an active cut: alive, but
    /// their local events and arrivals are parked until rejoin.
    frozen: Vec<bool>,
    /// Count of `true` entries in `frozen` (fast path: zero almost
    /// always).
    frozen_count: usize,
    /// When each frozen node froze (the cut instant).
    freeze_time: Vec<SimTime>,
    /// The manager-side view: which nodes sit behind a known cut.
    /// Suspicion against them must never escalate to `RecoveryStart`.
    unreachable: Vec<bool>,
}

impl RecoveryState {
    fn new(cfg: &DsmConfig) -> Self {
        let n = cfg.nodes;
        RecoveryState {
            down: vec![false; n],
            downs: 0,
            crash_time: vec![SimTime::ZERO; n],
            restart_at: vec![None; n],
            confirm_pending: vec![false; n],
            parked_events: Vec::new(),
            parked_frames: Vec::new(),
            detector: FailureDetector::new(n, cfg.recovery.lease_timeout),
            last_sent: vec![vec![SimTime::ZERO; n]; n],
            busy_at_ckpt: vec![SimDuration::ZERO; n],
            epochs_done: vec![0; n],
            ckpts: vec![None; n],
            pdevs: if cfg.recovery.persist.enabled {
                (0..n)
                    .map(|_| PersistDevice::new(SLOT_REGIONS, cfg.recovery.persist))
                    .collect()
            } else {
                Vec::new()
            },
            persist_seq: vec![0; n],
            busy_at_slot: vec![[SimDuration::ZERO; SLOT_COUNT]; n],
            restore_bytes: vec![0; n],
            stats: RecoveryStats::default(),
            idle_tick_rounds: 0,
            progressed: false,
            frozen: vec![false; n],
            frozen_count: 0,
            freeze_time: vec![SimTime::ZERO; n],
            unreachable: vec![false; n],
        }
    }
}

/// Statistics label for a frame dropped at a dead NIC.
fn frame_kind(frame: &Frame) -> &'static str {
    match frame {
        Frame::Data { body, .. } | Frame::Datagram { body } => body.kind(),
        Frame::Ack { .. } => "ack",
        Frame::Heartbeat => "hb",
    }
}

/// Takes a delivered body out of its shared frame: by move when this
/// was the last reference (the common unicast case once the sender's
/// retransmit buffer released it), by structural clone otherwise —
/// which is still cheap, because the page/diff payloads inside are
/// themselves `Arc`-shared.
fn unshare(body: Arc<MsgBody>) -> MsgBody {
    Arc::try_unwrap(body).unwrap_or_else(|shared| (*shared).clone())
}

/// A configured simulation, ready to run programs.
///
/// See [`DsmProgram`] for a complete end-to-end example.
#[derive(Debug, Clone)]
pub struct Simulation {
    cfg: DsmConfig,
}

impl Simulation {
    /// Creates a simulation with the given configuration.
    pub fn new(cfg: DsmConfig) -> Self {
        Simulation { cfg }
    }

    /// The configuration this simulation runs with.
    pub fn config(&self) -> &DsmConfig {
        &self.cfg
    }

    /// Runs `app` to completion and reports every measurement.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] if an application thread panics, the
    /// simulated-time safety limit is exceeded, or the protocol
    /// deadlocks (which indicates an application synchronization bug,
    /// e.g. mismatched barrier arrivals).
    pub fn run<P: DsmProgram>(&self, app: &P) -> Result<RunReport, SimError> {
        self.run_inner(app, false).map(|(report, _)| report)
    }

    /// Runs `app` like [`Simulation::run`] while recording a
    /// structured [`Trace`] of every simulated event. Tracing is
    /// observation only: the report (and its digest) is identical to
    /// an untraced run, and the trace itself is deterministic — same
    /// seed + config ⇒ same [`Trace::digest`].
    ///
    /// # Errors
    ///
    /// Exactly as [`Simulation::run`].
    pub fn run_traced<P: DsmProgram>(&self, app: &P) -> Result<(RunReport, Trace), SimError> {
        self.run_inner(app, true)
            .map(|(report, trace)| (report, trace.expect("traced run yields a trace")))
    }

    fn run_inner<P: DsmProgram>(
        &self,
        app: &P,
        traced: bool,
    ) -> Result<(RunReport, Option<Trace>), SimError> {
        let cfg = &self.cfg;
        let mut heap = Heap::new(cfg.nodes);
        let handles = app.allocate(&mut heap);
        if cfg.directory.enabled {
            // Directory-sharded homes: override the application's
            // layout with the configured static partition of the page
            // space (first-touch starts from the hash partition and
            // migrates at run time).
            let total = heap.page_count();
            for p in 0..total {
                let page = PageId::new(p as u32);
                heap.set_home(page, cfg.directory.policy.static_home(p, total, cfg.nodes));
            }
        }
        let total_pages = heap.page_count();

        let mem: Arc<Mutex<Vec<NodeMem>>> = Arc::new(Mutex::new(
            (0..cfg.nodes)
                .map(|n| {
                    let mut m =
                        NodeMem::new(total_pages, |p| heap.home(PageId::new(p as u32)) == n);
                    m.twin_log_on = traced;
                    m
                })
                .collect(),
        ));
        let (result, panic_note) = conduct(app, &handles, &mem, cfg, |conductor| {
            let mut core = Core::new(cfg, heap, Arc::clone(&mem), conductor, traced);
            let finish = core.run_loop()?;
            core.finish_accounts(finish);
            Ok((
                finish,
                core.heap,
                core.nodes,
                core.net,
                core.transport,
                core.oracle,
                core.recov.stats,
                core.events_processed,
                core.tracer.finish(),
            ))
        });
        let (finish, heap, nodes, net, transport, oracle_state, recovery_stats, events, trace) =
            match (result, panic_note) {
                (Err(SimError::AppThread(_)), note) => {
                    return Err(SimError::AppThread(
                        note.unwrap_or_else(|| "unknown panic".to_string()),
                    ))
                }
                (Err(e), _) => return Err(e),
                (Ok(_), Some(msg)) => return Err(SimError::AppThread(msg)),
                (Ok(parts), None) => parts,
            };

        let mem_guard = mem.lock().expect("mem mutex");
        let pages = materialize(&heap, &nodes, &mem_guard);
        let oracle = oracle_state.cfg.enabled().then(|| OracleOutcome {
            violations: oracle_state.violations,
            lock_trace: oracle_state.lock_trace,
            image_digest: digest_pages(&pages),
            final_image: if oracle_state.cfg.capture {
                pages.clone()
            } else {
                Vec::new()
            },
        });
        let verified = app.verify(&VerifyCtx::new(pages), &handles);

        let node_breakdowns: Vec<_> = nodes.iter().map(|n| *n.account.breakdown()).collect();
        let mut breakdown = crate::accounting::Breakdown::new();
        for b in &node_breakdowns {
            breakdown.accumulate(b);
        }
        let (misses, locks, barriers, prefetch, mt, gc_passes, directory) = fold_counters(
            nodes
                .iter()
                .zip(mem_guard.iter())
                .map(|(n, m)| (n.counters, m.counters)),
        );
        let adaptive = cfg.prefetch.adaptive.enabled.then(|| {
            let mut total = AdaptiveStats::default();
            for node in &nodes {
                if let Some(ad) = &node.adaptive {
                    total.absorb(&ad.stats);
                }
            }
            total
        });

        let trace = traced.then_some(trace);
        Ok((
            RunReport {
                app: app.name(),
                config: cfg.clone(),
                total_time: finish.saturating_since(SimTime::ZERO),
                node_breakdowns,
                breakdown,
                verified,
                net: NetSummary::from_stats(net.stats()),
                misses,
                locks,
                barriers,
                prefetch,
                mt,
                transport: transport.summary(),
                fault_injection: net.fault_stats(),
                recovery: recovery_stats,
                gc_passes,
                directory,
                events_processed: events,
                oracle,
                trace: trace.as_ref().map(Trace::metrics),
                adaptive,
            },
            trace,
        ))
    }
}

/// The running engine.
struct Core<'a> {
    cfg: &'a DsmConfig,
    /// Owned (not borrowed) so the directory layer can migrate page
    /// homes at run time; returned to `run_inner` so materialization
    /// reads the final home assignment.
    heap: Heap,
    /// Pages some node has touched (faulted on or been served); the
    /// first-touch migration window for a page closes when its flag
    /// sets. Unused (all false) when the directory layer is off.
    claimed: Vec<bool>,
    /// Events popped from the queue — the scaling suite's
    /// events-per-second numerator.
    events_processed: u64,
    mem: Arc<Mutex<Vec<NodeMem>>>,
    nodes: Vec<NodeState>,
    net: Network,
    transport: Transport<Arc<MsgBody>>,
    queue: EventQueue<Event>,
    threads: Vec<ThreadPeer>,
    conductor: Conductor,
    barrier_mgr: BarrierManager,
    barrier_vcs: std::collections::HashMap<BarrierId, VectorClock>,
    /// The consistency oracle (invariant violations, lock-grant
    /// trace); inert unless the config enables it.
    oracle: OracleState,
    /// Crash/recovery bookkeeping; inert unless the fault plan
    /// schedules crashes or the config enables recovery.
    recov: RecoveryState,
    done: usize,
    finish: SimTime,
    /// Structured event tracing (see [`crate::trace`]); inert unless
    /// the run was started via [`Simulation::run_traced`].
    tracer: Tracer,
}

/// The barrier manager lives on node 0, as in TreadMarks.
const MANAGER: NodeId = 0;

impl<'a> Core<'a> {
    fn new(
        cfg: &'a DsmConfig,
        heap: Heap,
        mem: Arc<Mutex<Vec<NodeMem>>>,
        conductor: Conductor,
        traced: bool,
    ) -> Self {
        let tpn = cfg.threads.threads_per_node;
        let total_threads = cfg.total_threads();
        let mut queue =
            EventQueue::with_capacity(total_threads + cfg.faults.crashes.len() + cfg.nodes + 64);
        queue.push_batch((0..total_threads).map(|t| (SimTime::ZERO, Event::Start(ThreadId(t)))));
        assert!(
            !(cfg.recovery.enabled
                && cfg.recovery.checkpoint_every == 0
                && !cfg.faults.crashes.is_empty()),
            "a crash schedule with recovery enabled needs a checkpoint cadence: \
             --fault-crash without --checkpoint-every N (checkpoint_every == 0) \
             would silently recover from nothing"
        );
        assert!(
            !(cfg.recovery.persist.enabled && cfg.recovery.checkpoint_every == 0),
            "persistence without a checkpoint cadence has nothing to persist: \
             --persist needs --checkpoint-every N (checkpoint_every == 0)"
        );
        for crash in &cfg.faults.crashes {
            assert!(
                crash.node < cfg.nodes,
                "crash plan names node {} in a {}-node cluster",
                crash.node,
                cfg.nodes
            );
            assert_ne!(
                crash.node, MANAGER,
                "node 0 hosts the lock/barrier managers and the recovery \
                 coordinator; crashing it is not supported"
            );
            queue.push(
                crash.at,
                Event::Crash {
                    node: crash.node,
                    restart_after: crash.restart_after,
                },
            );
        }
        for (i, p) in cfg.faults.partitions.iter().enumerate() {
            assert!(
                cfg.recovery.enabled,
                "partition schedules need recovery enabled: freeze, suspicion \
                 gating, and checkpoint-based rejoin all live there"
            );
            assert!(
                cfg.faults.crashes.is_empty(),
                "combined crash and partition schedules are not supported"
            );
            assert!(
                !p.heal_after.is_zero(),
                "a partition needs a nonzero heal window"
            );
            let mut listed = vec![false; cfg.nodes];
            for g in &p.groups {
                for &n in g {
                    assert!(
                        n < cfg.nodes,
                        "partition plan names node {n} in a {}-node cluster",
                        cfg.nodes
                    );
                    assert!(!listed[n], "node {n} listed in two partition groups");
                    listed[n] = true;
                }
            }
            let mgr_group = p.group_of(MANAGER);
            let mgr_side = (0..cfg.nodes)
                .filter(|&n| p.group_of(n) == mgr_group)
                .count();
            assert!(
                mgr_side * 2 > cfg.nodes,
                "the manager-side component holds {mgr_side} of {} nodes; the \
                 quorum rule requires it to keep a strict majority",
                cfg.nodes
            );
            for q in &cfg.faults.partitions[..i] {
                assert!(
                    p.at >= q.heal_at() || q.at >= p.heal_at(),
                    "partition windows must not overlap"
                );
            }
            queue.push(p.at, Event::PartitionStart(i));
        }
        if cfg.recovery.enabled {
            for n in 0..cfg.nodes {
                queue.push(
                    SimTime::ZERO + cfg.recovery.heartbeat_every,
                    Event::HeartbeatTick(n),
                );
            }
        }
        let mut net = Network::new(cfg.nodes, cfg.net.clone());
        net.set_fault_plan(cfg.faults.clone());
        Core {
            cfg,
            claimed: vec![false; heap.page_count()],
            heap,
            events_processed: 0,
            mem,
            nodes: (0..cfg.nodes)
                .map(|n| {
                    let mut ns = NodeState::new(n, cfg.nodes, tpn);
                    if cfg.prefetch.adaptive.enabled {
                        ns.adaptive = Some(AdaptiveNode::new(&cfg.prefetch.adaptive, tpn));
                    }
                    ns
                })
                .collect(),
            net,
            transport: Transport::new(cfg.transport.clone()),
            queue,
            threads: (0..total_threads)
                .map(|_| ThreadPeer {
                    state: ThreadState::Ready,
                    pending_syscall: None,
                    run_busy: SimDuration::ZERO,
                    last_block: None,
                })
                .collect(),
            conductor,
            barrier_mgr: BarrierManager::new(cfg.nodes),
            barrier_vcs: std::collections::HashMap::new(),
            oracle: OracleState::new(cfg.oracle.clone(), cfg.nodes),
            recov: RecoveryState::new(cfg),
            done: 0,
            finish: SimTime::ZERO,
            tracer: Tracer::new(traced, cfg.nodes as u32, tpn as u32),
        }
    }

    fn tpn(&self) -> usize {
        self.cfg.threads.threads_per_node
    }

    // ------------------------------------------------------------------
    // Main loop
    // ------------------------------------------------------------------

    fn run_loop(&mut self) -> Result<SimTime, SimError> {
        let limit = SimTime::ZERO + self.cfg.max_sim_time;
        while self.done < self.threads.len() {
            let Some((now, event)) = self.queue.pop() else {
                return Err(SimError::Deadlock(self.describe_blocked()));
            };
            self.events_processed += 1;
            if now > limit {
                return Err(SimError::TimeLimit);
            }
            if !matches!(event, Event::HeartbeatTick(_)) {
                self.recov.progressed = true;
            }
            let Some(event) = self.intercept_crashed(now, event) else {
                continue;
            };
            self.tracer.begin_event();
            match event {
                Event::Start(tid) => {
                    let n = tid.node(self.tpn());
                    self.nodes[n].sched.make_ready(tid);
                    self.maybe_dispatch(n, now)?;
                }
                Event::SyscallReady(tid) => self.on_syscall_ready(tid, now)?,
                Event::Arrival(pkt) => self.on_arrival(pkt, now)?,
                Event::RetryTimeout { src, dst, seq } => {
                    self.on_retry_timeout(src, dst, seq, now)?
                }
                Event::Crash {
                    node,
                    restart_after,
                } => self.on_crash(node, restart_after, now),
                Event::Restart(node) => self.on_restart(node, now),
                Event::HeartbeatTick(node) => self.on_heartbeat_tick(node, now)?,
                Event::ConfirmFailure(node) => self.on_confirm_failure(node, now),
                Event::PartitionStart(idx) => self.on_partition_start(idx, now),
                Event::PartitionHeal(idx) => self.on_partition_heal(idx, now),
                Event::Rejoin(node) => self.on_rejoin(node, now),
            }
            if self.oracle.cfg.invariants {
                self.oracle.check_event(&self.nodes, now);
            }
        }
        Ok(self.finish)
    }

    fn describe_blocked(&self) -> String {
        let blocked: Vec<String> = self
            .threads
            .iter()
            .enumerate()
            .filter_map(|(t, p)| match p.state {
                ThreadState::Blocked(reason, since) => {
                    Some(format!("thread {t} blocked on {reason:?} since {since}"))
                }
                _ => None,
            })
            .collect();
        format!(
            "event queue empty with {} threads stuck: {}",
            blocked.len(),
            blocked.join("; ")
        )
    }

    fn finish_accounts(&mut self, finish: SimTime) {
        for node in &mut self.nodes {
            node.account.finish(finish, IdleReason::Sync);
        }
    }

    // ------------------------------------------------------------------
    // Crash handling and recovery
    // ------------------------------------------------------------------

    /// Filters one popped event against the set of crashed and frozen
    /// nodes: local activity (thread events, retry timers) of a down
    /// or frozen node is parked for replay at restart/rejoin; frames
    /// arriving at a dead NIC are dropped and counted, while frames
    /// reaching a *frozen* node (intra-minority traffic — the NIC is
    /// alive, the node just is not making progress) are parked too.
    /// Frames *from* a recently-crashed node that were already on the
    /// wire still deliver. Returns `None` when the event was consumed.
    fn intercept_crashed(&mut self, now: SimTime, event: Event) -> Option<Event> {
        if self.recov.downs == 0 && self.recov.frozen_count == 0 {
            return Some(event);
        }
        match &event {
            Event::Start(tid) | Event::SyscallReady(tid) => {
                let n = tid.node(self.tpn());
                if self.recov.down[n] || self.recov.frozen[n] {
                    self.recov.parked_events.push((n, now, event));
                    return None;
                }
            }
            Event::Arrival(pkt) if self.recov.down[pkt.dst] => {
                self.net.note_crash_drop(frame_kind(&pkt.frame));
                return None;
            }
            Event::Arrival(pkt) if self.recov.frozen[pkt.dst] => {
                let dst = pkt.dst;
                self.recov.parked_events.push((dst, now, event));
                return None;
            }
            Event::RetryTimeout { src, .. } if self.recov.down[*src] || self.recov.frozen[*src] => {
                let src = *src;
                self.recov.parked_events.push((src, now, event));
                return None;
            }
            _ => {}
        }
        Some(event)
    }

    /// A scheduled crash fires: the NIC goes dead (subsequent frames
    /// to and from the node are dropped by the network) and the
    /// node's local activity freezes. For crash-restart faults the
    /// rejoin is scheduled immediately — outage plus, when recovery
    /// is on, the modeled restore and replay costs.
    fn on_crash(&mut self, x: NodeId, restart_after: Option<SimDuration>, now: SimTime) {
        self.tracer.emit(
            now,
            x as u32,
            NO_THREAD,
            NO_CAUSE,
            TraceEvent::Crash {
                restarts: restart_after.is_some(),
            },
        );
        self.net.set_node_down(x, true);
        self.recov.down[x] = true;
        self.recov.downs += 1;
        self.recov.crash_time[x] = now;
        self.recov.stats.crashes += 1;
        // With persistence, the crash instant decides what survives
        // on the device — and therefore which image (and cost) the
        // restart below is scheduled against.
        if self.cfg.recovery.persist.enabled {
            self.reload_from_device(x, now);
        }
        if let Some(outage) = restart_after {
            let at = if self.cfg.recovery.enabled {
                now + outage + self.restore_cost(x) + self.replay_cost(x)
            } else {
                // Recovery disabled: a pure outage. The run survives
                // only if the retry budget outlasts it.
                now + outage
            };
            self.recov.restart_at[x] = Some(at);
            self.queue.push(at, Event::Restart(x));
        }
    }

    /// A crashed node rejoins. The simulation models recovery as
    /// checkpoint restore plus deterministic replay: the replica
    /// re-executes from the last barrier-aligned checkpoint and —
    /// because the simulation is deterministic — arrives at exactly
    /// the state the victim had at the crash instant. The cost of
    /// doing so was charged when the restart was scheduled
    /// ([`Core::restore_cost`] + [`Core::replay_cost`]), so here the
    /// frozen state simply resumes, time-shifted by the outage.
    fn on_restart(&mut self, x: NodeId, now: SimTime) {
        if !self.recov.down[x] {
            return;
        }
        self.tracer
            .emit(now, x as u32, NO_THREAD, NO_CAUSE, TraceEvent::Restart);
        self.net.set_node_down(x, false);
        self.recov.down[x] = false;
        self.recov.downs -= 1;
        self.recov.restart_at[x] = None;
        self.recov.confirm_pending[x] = false;
        let shift = now.saturating_since(self.recov.crash_time[x]);
        self.recov.stats.recoveries += 1;
        self.recov.stats.recovery_time += shift;
        let parked = std::mem::take(&mut self.recov.parked_events);
        for (node, at, ev) in parked {
            if node == x {
                self.queue.push(at + shift, ev);
            } else {
                self.recov.parked_events.push((node, at, ev));
            }
        }
        // An in-progress compute burst resumes where it stopped.
        if let Some(burst) = &mut self.nodes[x].burst {
            burst.end += shift;
        }
        self.unpark_frames_to(x, now);
        self.recov.detector.clear(x, now);
    }

    /// Re-arms every parked reliable frame destined for `peer` (it
    /// rejoined, or its suspicion proved false).
    fn unpark_frames_to(&mut self, peer: NodeId, now: SimTime) {
        let parked = std::mem::take(&mut self.recov.parked_frames);
        for (src, dst, seq) in parked {
            if dst != peer {
                self.recov.parked_frames.push((src, dst, seq));
            } else if self.transport.reset_frame(src, dst, seq).is_some() {
                self.queue.push(now, Event::RetryTimeout { src, dst, seq });
            }
        }
    }

    /// One failure-detector tick at node `n`: re-arms itself, sends
    /// explicit heartbeats on idle links, and checks peer leases.
    /// The manager's tick doubles as the engine's liveness watchdog
    /// (the recurring ticks defeat the queue-drained deadlock check).
    fn on_heartbeat_tick(&mut self, n: NodeId, now: SimTime) -> Result<(), SimError> {
        let every = self.cfg.recovery.heartbeat_every;
        self.queue.push(now + every, Event::HeartbeatTick(n));
        if n == MANAGER {
            if self.recov.progressed {
                self.recov.idle_tick_rounds = 0;
            } else {
                self.recov.idle_tick_rounds += 1;
                if self.recov.idle_tick_rounds > IDLE_TICK_LIMIT {
                    return Err(SimError::Deadlock(self.describe_blocked()));
                }
            }
            self.recov.progressed = false;
        }
        // A frozen node ticks again once it rejoins; its detector
        // must not run while the quorum rule has it parked.
        if self.recov.down[n] || self.recov.frozen[n] {
            return Ok(());
        }
        for peer in 0..self.cfg.nodes {
            if peer == n {
                continue;
            }
            if !self.monitors(n, peer) {
                continue;
            }
            if self.recov.detector.status(n, peer) != PeerStatus::Down
                && self.recov.last_sent[n][peer] + every <= now
            {
                self.recov.last_sent[n][peer] = now;
                self.recov.stats.heartbeats_sent += 1;
                self.charge(
                    n,
                    now,
                    self.cfg.costs.ack_process,
                    Category::DsmOverhead,
                    None,
                );
                let send_id = self.tracer.emit(
                    now,
                    n as u32,
                    NO_THREAD,
                    NO_CAUSE,
                    TraceEvent::MsgSend {
                        kind: kind::HEARTBEAT,
                        peer: peer as u32,
                        seq: 0,
                        bytes: self.cfg.transport.ack_bytes,
                        retransmit: false,
                    },
                );
                let outcome = self.net.send(
                    now,
                    n,
                    peer,
                    self.cfg.transport.ack_bytes,
                    Reliability::Droppable,
                    "hb",
                );
                let dup = outcome.dup_time();
                for arrival in outcome.arrival_time().into_iter().chain(dup) {
                    self.queue.push(
                        arrival,
                        Event::Arrival(Packet {
                            src: n,
                            dst: peer,
                            frame: Frame::Heartbeat,
                            cause: send_id,
                        }),
                    );
                }
            }
            // Nobody suspects the manager: it hosts the lock/barrier
            // managers and the recovery coordinator and is assumed
            // stable (the crash planner rejects node 0).
            if peer != MANAGER
                && self.recov.detector.status(n, peer) == PeerStatus::Alive
                && self.recov.detector.lease_expired(n, peer, now)
            {
                self.raise_suspicion(n, peer, now);
            }
        }
        Ok(())
    }

    /// Whether node `n` actively monitors `peer` (sends heartbeats
    /// and checks the lease). The full mesh monitors everyone —
    /// O(N²) frames per idle round. Hierarchical mode cuts that to
    /// O(N): members monitor their rack leader (the rack's first
    /// node), leaders monitor their members plus the manager, and the
    /// manager monitors the leaders plus its own rack. On a flat bus
    /// the manager doubles as the single leader. Safe because failure
    /// confirmation still resolves against ground truth at the
    /// manager; the hierarchy only changes who notices first.
    fn monitors(&self, n: NodeId, peer: NodeId) -> bool {
        if !self.cfg.recovery.hierarchical {
            return true;
        }
        let topo = self.cfg.net.topology;
        let leader_of = |node: NodeId| -> NodeId {
            match topo {
                Topology::FlatBus => MANAGER,
                Topology::RackSpine { rack_size, .. } => (node / rack_size) * rack_size,
            }
        };
        if n == MANAGER {
            return leader_of(peer) == peer || topo.same_rack(n, peer);
        }
        if leader_of(n) == n {
            return topo.same_rack(n, peer) || peer == MANAGER;
        }
        peer == leader_of(n)
    }

    /// Starts a suspicion episode: `observer` stopped hearing from
    /// `peer` (lease expiry or retry exhaustion). The manager decides
    /// failures, so a non-manager observer reports to it.
    fn raise_suspicion(&mut self, observer: NodeId, peer: NodeId, now: SimTime) {
        if !self.recov.detector.suspect(observer, peer) {
            return;
        }
        self.recov.stats.suspicions += 1;
        if !self.recov.down[peer] {
            self.recov.stats.false_suspicions += 1;
        }
        self.tracer.emit(
            now,
            observer as u32,
            NO_THREAD,
            NO_CAUSE,
            TraceEvent::Suspect { peer: peer as u32 },
        );
        if observer == MANAGER {
            self.schedule_confirm(peer, now);
        } else {
            let end = self.charge(
                observer,
                now,
                self.cfg.costs.msg_send,
                Category::DsmOverhead,
                None,
            );
            self.post(
                end,
                observer,
                MANAGER,
                MsgBody::SuspectReport { suspect: peer },
            );
        }
    }

    /// Queues a [`Event::ConfirmFailure`] for `victim` after the
    /// grace period, once per suspicion episode.
    fn schedule_confirm(&mut self, victim: NodeId, now: SimTime) {
        // The quorum rule, split-brain half: a node behind a known cut
        // is unreachable, not dead. Its suspicion stays parked until
        // the heal reconciles it — no confirmation, no RecoveryStart.
        if self.recov.unreachable[victim] {
            return;
        }
        if victim == MANAGER
            || self.recov.confirm_pending[victim]
            || self.recov.detector.status(MANAGER, victim) == PeerStatus::Down
        {
            return;
        }
        self.recov.confirm_pending[victim] = true;
        self.queue.push(
            now + self.cfg.recovery.confirm_grace,
            Event::ConfirmFailure(victim),
        );
    }

    /// The manager's confirmation deadline for a suspect. The
    /// simulator resolves the detector's uncertainty against ground
    /// truth — standing in for a direct probe round — so a suspect
    /// that is actually up is cleared (a false alarm), and a dead one
    /// triggers coordinated recovery: survivors are told via
    /// [`MsgBody::RecoveryStart`], and a replacement restart is
    /// scheduled unless the crash-restart plan already did.
    fn on_confirm_failure(&mut self, victim: NodeId, now: SimTime) {
        self.recov.confirm_pending[victim] = false;
        // A cut may have landed between the suspicion and this
        // deadline: the victim is unreachable, not dead. Leave its
        // state for the heal to reconcile.
        if self.recov.unreachable[victim] {
            return;
        }
        if !self.recov.down[victim] {
            self.recov.detector.clear(victim, now);
            self.unpark_frames_to(victim, now);
            return;
        }
        if self.recov.detector.status(MANAGER, victim) == PeerStatus::Down {
            return;
        }
        self.recov.detector.mark_down(MANAGER, victim);
        let epoch = self.recov.ckpts[victim].as_ref().map_or(0, |c| c.epoch);
        self.tracer.emit(
            now,
            MANAGER as u32,
            NO_THREAD,
            NO_CAUSE,
            TraceEvent::ConfirmDown {
                peer: victim as u32,
            },
        );
        let mut end = now;
        for p in 0..self.cfg.nodes {
            if p == MANAGER || p == victim || self.recov.down[p] {
                continue;
            }
            end = self.charge(
                MANAGER,
                end,
                self.cfg.costs.msg_send,
                Category::DsmOverhead,
                None,
            );
            self.post(end, MANAGER, p, MsgBody::RecoveryStart { victim, epoch });
        }
        if self.recov.restart_at[victim].is_none() {
            let at = now
                + self.cfg.recovery.restart_base
                + self.restore_cost(victim)
                + self.replay_cost(victim);
            self.recov.restart_at[victim] = Some(at);
            self.queue.push(at, Event::Restart(victim));
        }
    }

    /// A scheduled network cut activates. The network has been
    /// dropping cross-cut frames since the cut instant (it evaluates
    /// the static schedule at send time); here the engine applies the
    /// quorum rule: every node outside the manager-side component
    /// freezes — its local events and arrivals park, exactly as if it
    /// suspended itself on losing its majority — and the manager marks
    /// it unreachable so lease expiry cannot escalate to a false
    /// `RecoveryStart`. The majority side keeps running.
    fn on_partition_start(&mut self, idx: usize, now: SimTime) {
        let p = self.cfg.faults.partitions[idx].clone();
        let mgr_group = p.group_of(MANAGER);
        self.recov.stats.partitions += 1;
        for x in 0..self.cfg.nodes {
            if p.group_of(x) == mgr_group || self.recov.down[x] || self.recov.frozen[x] {
                continue;
            }
            self.recov.frozen[x] = true;
            self.recov.frozen_count += 1;
            self.recov.freeze_time[x] = now;
            self.recov.unreachable[x] = true;
            self.recov.stats.partition_freezes += 1;
            self.recov.detector.mark_unreachable(MANAGER, x);
            self.tracer.emit(
                now,
                x as u32,
                NO_THREAD,
                NO_CAUSE,
                TraceEvent::PartitionFreeze,
            );
        }
        self.queue.push(p.heal_at(), Event::PartitionHeal(idx));
    }

    /// The cut heals. Each frozen minority node reconciles through
    /// the checkpoint path: discard speculative state, reload the last
    /// barrier-aligned checkpoint, and deterministically replay up to
    /// the freeze instant — the same argument as crash recovery, so
    /// the rejoin cost is the same restore + replay model.
    fn on_partition_heal(&mut self, idx: usize, now: SimTime) {
        let p = self.cfg.faults.partitions[idx].clone();
        let mgr_group = p.group_of(MANAGER);
        self.tracer.emit(
            now,
            MANAGER as u32,
            NO_THREAD,
            NO_CAUSE,
            TraceEvent::PartitionHeal,
        );
        for x in 0..self.cfg.nodes {
            if p.group_of(x) == mgr_group || !self.recov.frozen[x] {
                continue;
            }
            let at = now + self.restore_cost(x) + self.replay_cost(x);
            self.queue.push(at, Event::Rejoin(x));
        }
    }

    /// A frozen node finishes reconciling and resumes, mirroring
    /// [`Core::on_restart`]: parked local events and arrivals replay
    /// time-shifted by the freeze duration, parked frames toward it
    /// re-arm, and every observer's belief about it resets to alive.
    fn on_rejoin(&mut self, x: NodeId, now: SimTime) {
        if !self.recov.frozen[x] {
            return;
        }
        // A later cut isolated the node again before this rejoin
        // matured; that cut's heal schedules a fresh one.
        let still_cut = self
            .cfg
            .faults
            .partitions
            .iter()
            .any(|p| p.active_at(now) && p.group_of(x) != p.group_of(MANAGER));
        if still_cut {
            return;
        }
        self.tracer.emit(
            now,
            x as u32,
            NO_THREAD,
            NO_CAUSE,
            TraceEvent::PartitionRejoin,
        );
        self.recov.frozen[x] = false;
        self.recov.frozen_count -= 1;
        self.recov.unreachable[x] = false;
        let shift = now.saturating_since(self.recov.freeze_time[x]);
        self.recov.stats.partition_rejoins += 1;
        self.recov.stats.partition_reconcile_time += shift;
        let parked = std::mem::take(&mut self.recov.parked_events);
        for (node, at, ev) in parked {
            if node == x {
                self.queue.push(at + shift, ev);
            } else {
                self.recov.parked_events.push((node, at, ev));
            }
        }
        // An in-progress compute burst resumes where it stopped.
        if let Some(burst) = &mut self.nodes[x].burst {
            burst.end += shift;
        }
        self.unpark_frames_to(x, now);
        self.recov.detector.clear(x, now);
    }

    /// Modeled time to reload `x`'s last checkpoint on a replacement.
    /// With persistence on, the cost is reading the persisted image
    /// back at the device's read bandwidth; otherwise the flat
    /// per-page model.
    fn restore_cost(&self, x: NodeId) -> SimDuration {
        if self.cfg.recovery.persist.enabled {
            return self
                .cfg
                .recovery
                .persist
                .read_time(self.recov.restore_bytes[x] as usize);
        }
        let pages = self.recov.ckpts[x]
            .as_ref()
            .map_or(0, |c| c.pages.len() as u64);
        self.cfg.recovery.restore_per_page * pages
    }

    /// Modeled time to re-execute `x`'s work since its last
    /// checkpoint (deterministic replay reaches the crash-instant
    /// state; see [`Core::on_restart`]).
    fn replay_cost(&self, x: NodeId) -> SimDuration {
        self.nodes[x].account.breakdown()[Category::Busy].saturating_sub(self.recov.busy_at_ckpt[x])
    }

    /// Captures node `n`'s barrier-aligned checkpoint and returns the
    /// time the node resumes. Without persistence the capture
    /// deliberately charges no CPU time and consumes no randomness:
    /// the model treats the snapshot as copy-on-write work off the
    /// critical path, so a crash-free run's event timeline — and its
    /// `RunReport` digest, recovery fields aside — is identical with
    /// checkpointing on or off. With persistence on, the snapshot is
    /// additionally written through the durable two-slot commit
    /// protocol and the node stalls for the modeled persist cost.
    fn take_checkpoint(&mut self, n: NodeId, at: SimTime) -> SimTime {
        let epoch = self.recov.epochs_done[n];
        let ckpt = {
            let mem = self.mem.lock().expect("mem mutex");
            Checkpoint::capture(n as u32, epoch, &self.nodes[n], &mem[n])
        };
        let bytes = ckpt.encoded_len() as u64;
        self.tracer.emit(
            at,
            n as u32,
            NO_THREAD,
            NO_CAUSE,
            TraceEvent::CheckpointTaken {
                epoch,
                bytes: bytes as u32,
            },
        );
        self.recov.stats.checkpoints_taken += 1;
        self.recov.stats.checkpoint_bytes += bytes;
        self.recov.busy_at_ckpt[n] = self.nodes[n].account.breakdown()[Category::Busy];
        let end = if self.cfg.recovery.persist.enabled {
            self.persist_checkpoint(n, &ckpt, at)
        } else {
            at
        };
        self.recov.ckpts[n] = Some(ckpt);
        end
    }

    /// Writes `ckpt` to node `n`'s persistent device through the
    /// detectably recoverable A/B protocol: segmented payload into
    /// the epoch's slot, flush, fence; then the commit record, flush,
    /// fence. The drain runs at the device's write bandwidth in the
    /// background, but the protocol is synchronous at the barrier:
    /// the node stalls until the commit fence completes, which is
    /// exactly the durability overhead the model is after. Returns
    /// the stall end.
    fn persist_checkpoint(&mut self, n: NodeId, ckpt: &Checkpoint, at: SimTime) -> SimTime {
        let payload = ckpt.encode_segmented();
        self.recov.persist_seq[n] += 1;
        let seq = self.recov.persist_seq[n];
        let slot = slot_for_seq(seq);
        let commit = CommitRecord::for_payload(ckpt.epoch, seq, &payload).encode();
        let image_bytes = (payload.len() + commit.len()) as u64;
        let committed = {
            let dev = &mut self.recov.pdevs[n];
            dev.write(payload_region(slot), 0, &payload);
            let drained = dev.flush(at);
            let durable = dev.fence(drained);
            // The commit record is ordered strictly after the payload
            // fence: a crash can tear one or the other, never leave a
            // fresh commit over a half-written payload.
            dev.write(commit_region(slot), 0, &commit);
            let drained = dev.flush(durable);
            dev.fence(drained)
        };
        self.recov.stats.persist_bytes += image_bytes;
        self.recov.stats.flushes += 2;
        self.recov.stats.fences += 2;
        self.recov.busy_at_slot[n][slot] = self.recov.busy_at_ckpt[n];
        self.recov.restore_bytes[n] = image_bytes;
        self.tracer.emit(
            at,
            n as u32,
            NO_THREAD,
            NO_CAUSE,
            TraceEvent::PersistCommit {
                epoch: ckpt.epoch,
                bytes: image_bytes as u32,
            },
        );
        self.charge(
            n,
            at,
            committed.saturating_since(at),
            Category::DsmOverhead,
            None,
        )
    }

    /// Applies crash semantics to `x`'s persistent device at the
    /// crash instant — the store buffer is lost and the in-flight
    /// sector tears — then classifies both slots and makes the best
    /// committed image the node's restore source. Torn slots count as
    /// `torn_discards`; restoring an older image than the newest
    /// persist attempted counts as a `slot_fallback`.
    fn reload_from_device(&mut self, x: NodeId, now: SimTime) {
        let states: Vec<SlotState> = {
            let dev = &mut self.recov.pdevs[x];
            dev.crash(now);
            (0..SLOT_COUNT)
                .map(|s| classify_slot(dev.read(payload_region(s)), dev.read(commit_region(s))))
                .collect()
        };
        let torn = states
            .iter()
            .filter(|s| matches!(s, SlotState::Torn))
            .count() as u64;
        self.recov.stats.torn_discards += torn;
        let best = states
            .into_iter()
            .enumerate()
            .filter_map(|(slot, s)| match s {
                SlotState::Committed { seq, ckpt } => Some((seq, slot, ckpt)),
                _ => None,
            })
            .max_by_key(|&(seq, ..)| seq);
        match best {
            Some((seq, slot, ckpt)) => {
                if seq < self.recov.persist_seq[x] {
                    self.recov.stats.slot_fallbacks += 1;
                }
                self.recov.restore_bytes[x] =
                    (ckpt.encode_segmented().len() + crate::checkpoint::COMMIT_LEN) as u64;
                self.recov.busy_at_ckpt[x] = self.recov.busy_at_slot[x][slot];
                self.recov.ckpts[x] = Some(*ckpt);
            }
            None => {
                // Nothing committed yet (the crash predates the first
                // durable checkpoint): recovery restarts from scratch.
                self.recov.restore_bytes[x] = 0;
                self.recov.busy_at_ckpt[x] = SimDuration::ZERO;
                self.recov.ckpts[x] = None;
            }
        }
    }

    /// Records an outbound frame on (src, dst) so the next heartbeat
    /// tick skips the explicit heartbeat for that link.
    fn note_sent(&mut self, src: NodeId, dst: NodeId, at: SimTime) {
        if self.cfg.recovery.enabled {
            let slot = &mut self.recov.last_sent[src][dst];
            *slot = (*slot).max(at);
        }
    }

    // ------------------------------------------------------------------
    // CPU accounting
    // ------------------------------------------------------------------

    /// Charges `dur` of CPU work on node `n` starting around `at`.
    /// If an application burst is in progress, the work preempts it
    /// (interrupt-driven servicing): the burst is pushed back and the
    /// work completes at `at + dur`. Otherwise the work queues on the
    /// CPU normally, attributing any idle gap to `idle`.
    fn charge(
        &mut self,
        n: NodeId,
        at: SimTime,
        dur: rsdsm_simnet::SimDuration,
        cat: Category,
        idle: Option<IdleReason>,
    ) -> SimTime {
        let node = &mut self.nodes[n];
        if let Some(burst) = &mut node.burst {
            if at < burst.end + burst.penalty {
                let cpu_free = node.account.cpu_free();
                node.account.consume(cpu_free, dur, cat, None);
                burst.penalty += dur;
                return at + dur;
            }
        }
        node.account.consume(at, dur, cat, idle)
    }

    /// Why node `n`'s CPU is idle right now, judged by its blocked
    /// threads (memory takes precedence over sync).
    fn idle_reason(&self, n: NodeId) -> Option<IdleReason> {
        let tpn = self.tpn();
        let mut reason = None;
        for t in n * tpn..(n + 1) * tpn {
            if let ThreadState::Blocked(r, _) = self.threads[t].state {
                if r == BlockReason::Memory {
                    return Some(IdleReason::Memory);
                }
                reason = Some(IdleReason::Sync);
            }
        }
        reason
    }

    // ------------------------------------------------------------------
    // Thread scheduling
    // ------------------------------------------------------------------

    fn maybe_dispatch(&mut self, n: NodeId, now: SimTime) -> Result<(), SimError> {
        if self.nodes[n].burst.is_some()
            || self.nodes[n].pinned.is_some()
            || !self.nodes[n].sched.can_dispatch()
        {
            return Ok(());
        }
        let (tid, is_switch) = self.nodes[n].sched.dispatch();
        let idle = self.threads[tid.0].last_block.map(|r| match r {
            BlockReason::Memory => IdleReason::Memory,
            _ => IdleReason::Sync,
        });
        let mut at = now;
        if is_switch {
            self.nodes[n].counters.switches += 1;
            self.tracer.emit(
                now,
                n as u32,
                tid.0 as u32,
                NO_CAUSE,
                TraceEvent::ThreadSwitch { to: tid.0 as u32 },
            );
            at = self.charge(
                n,
                now,
                self.cfg.costs.context_switch,
                Category::MtOverhead,
                idle,
            );
        }
        self.threads[tid.0].state = ThreadState::Running;
        self.run_thread(tid, at, idle)
    }

    /// Resumes thread `tid`, receives its next syscall, books its
    /// accumulated charges as a burst starting at `at`, and schedules
    /// the syscall's maturity.
    fn run_thread(
        &mut self,
        tid: ThreadId,
        at: SimTime,
        idle: Option<IdleReason>,
    ) -> Result<(), SimError> {
        let n = tid.node(self.tpn());
        let call = self
            .conductor
            .resume(tid.0)
            .ok_or_else(|| SimError::AppThread(String::new()))?;
        if self.tracer.is_on() {
            // Twins are created inside the conductor while the app
            // thread runs its burst; the log is drained here so their
            // records land in the engine's deterministic event order.
            let twins = {
                let mut mem = self.mem.lock().expect("mem mutex");
                std::mem::take(&mut mem[n].twin_log)
            };
            for page in twins {
                self.tracer.emit(
                    at,
                    n as u32,
                    tid.0 as u32,
                    NO_CAUSE,
                    TraceEvent::TwinCreate {
                        page: page.index() as u32,
                    },
                );
            }
        }
        let Charges {
            busy,
            dsm,
            prefetch,
        } = call.charges;
        let mut end = self.charge(n, at, busy, Category::Busy, idle);
        if !dsm.is_zero() {
            end = self.charge(n, end, dsm, Category::DsmOverhead, None);
        }
        if !prefetch.is_zero() {
            end = self.charge(n, end, prefetch, Category::PrefetchOverhead, None);
        }
        let peer = &mut self.threads[tid.0];
        peer.run_busy += busy;
        peer.pending_syscall = Some(call.syscall);
        self.nodes[n].burst = Some(crate::node::Burst {
            tid,
            end,
            penalty: rsdsm_simnet::SimDuration::ZERO,
        });
        self.queue.push(end, Event::SyscallReady(tid));
        Ok(())
    }

    fn on_syscall_ready(&mut self, tid: ThreadId, now: SimTime) -> Result<(), SimError> {
        let n = tid.node(self.tpn());
        {
            let node = &mut self.nodes[n];
            let burst = node.burst.as_mut().expect("burst for maturing syscall");
            assert_eq!(burst.tid, tid, "burst/thread mismatch");
            if !burst.penalty.is_zero() {
                // Interrupt servicing pushed the burst back; try again
                // at the extended end.
                burst.end += burst.penalty;
                burst.penalty = rsdsm_simnet::SimDuration::ZERO;
                let end = burst.end;
                self.queue.push(end, Event::SyscallReady(tid));
                return Ok(());
            }
            node.burst = None;
        }
        let syscall = self.threads[tid.0]
            .pending_syscall
            .take()
            .expect("pending syscall");
        self.handle_syscall(tid, n, syscall, now)
    }

    /// Blocks `tid` with `reason`, recording its run length and
    /// triggering a context switch when the configuration allows one
    /// for this kind of stall.
    fn block(
        &mut self,
        tid: ThreadId,
        n: NodeId,
        reason: BlockReason,
        now: SimTime,
    ) -> Result<(), SimError> {
        let peer = &mut self.threads[tid.0];
        self.nodes[n].counters.run_length_sum += peer.run_busy;
        self.nodes[n].counters.run_length_count += 1;
        peer.run_busy = rsdsm_simnet::SimDuration::ZERO;
        peer.state = ThreadState::Blocked(reason, now);
        peer.last_block = Some(reason);
        self.nodes[n].sched.yield_cpu(tid);
        let switch_allowed = if reason == BlockReason::Memory {
            self.cfg.threads.switch_on_memory
        } else {
            self.cfg.threads.switch_on_sync
        };
        if switch_allowed {
            self.maybe_dispatch(n, now)?;
        } else if self.cfg.threads.is_multithreaded() {
            self.nodes[n].pinned = Some(tid);
        }
        Ok(())
    }

    /// Wakes a blocked thread, accounting its stall.
    fn wake(&mut self, tid: ThreadId, now: SimTime) -> Result<(), SimError> {
        let n = tid.node(self.tpn());
        let peer = &mut self.threads[tid.0];
        let ThreadState::Blocked(reason, since) = peer.state else {
            panic!("waking thread {tid:?} that is not blocked");
        };
        let stall = now.saturating_since(since);
        let counters = &mut self.nodes[n].counters;
        match reason {
            BlockReason::Memory => counters.miss_stall += stall,
            BlockReason::Lock => {
                counters.lock_stall += stall;
                counters.lock_waits += 1;
            }
            BlockReason::Barrier => {
                counters.barrier_stall += stall;
                counters.barrier_waits += 1;
            }
        }
        peer.state = ThreadState::Ready;
        if self.nodes[n].pinned == Some(tid) {
            self.nodes[n].pinned = None;
            self.nodes[n].sched.make_ready_front(tid);
        } else {
            self.nodes[n].sched.make_ready(tid);
        }
        self.maybe_dispatch(n, now)
    }

    // ------------------------------------------------------------------
    // Syscall handling
    // ------------------------------------------------------------------

    fn handle_syscall(
        &mut self,
        tid: ThreadId,
        n: NodeId,
        syscall: Syscall,
        now: SimTime,
    ) -> Result<(), SimError> {
        match syscall {
            Syscall::Exit => {
                let peer = &mut self.threads[tid.0];
                peer.state = ThreadState::Done;
                self.nodes[n].counters.run_length_sum += peer.run_busy;
                self.nodes[n].counters.run_length_count += 1;
                self.done += 1;
                self.finish = self.finish.max(now);
                self.nodes[n].sched.yield_cpu(tid);
                self.maybe_dispatch(n, now)
            }
            Syscall::Fault { page, write } => self.handle_fault(tid, n, page, write, now),
            Syscall::Acquire(lock) => self.handle_acquire(tid, n, lock, now),
            Syscall::Release(lock) => self.handle_release(tid, n, lock, now),
            Syscall::Barrier(id) => self.handle_barrier_arrive(tid, n, id, now),
            Syscall::Prefetch(pages) => {
                let end = self.handle_prefetch(n, &pages, now, NO_CAUSE, false);
                self.run_thread(tid, end, None)
            }
        }
    }

    // ------------------------------------------------------------------
    // Page faults and fetches
    // ------------------------------------------------------------------

    fn handle_fault(
        &mut self,
        tid: ThreadId,
        n: NodeId,
        page: PageId,
        _write: bool,
        now: SimTime,
    ) -> Result<(), SimError> {
        let end = self.charge(
            n,
            now,
            self.cfg.costs.fault_entry,
            Category::DsmOverhead,
            None,
        );
        self.nodes[n].counters.faults += 1;
        let begin_id = self.tracer.emit(
            now,
            n as u32,
            tid.0 as u32,
            NO_CAUSE,
            TraceEvent::FaultBegin {
                page: page.index() as u32,
                write: _write,
            },
        );

        // Request combining: join an in-flight fetch.
        if let Some(f) = self.nodes[n].fetches.get_mut(&page) {
            f.waiters.push(tid);
            return self.block(tid, n, BlockReason::Memory, end);
        }

        if self.cfg.directory.enabled {
            self.first_touch(n, page);
        }

        let (missing, need_base) = self.missing_for(n, page);
        if missing.is_empty() && !need_base {
            // Everything needed is already local (prefetched).
            let had_pf = self.nodes[n].pf_meta.contains_key(&page);
            let apply_end = self.apply_local(n, page, end);
            self.validate_page(n, page);
            let cls = if had_pf {
                MissClass::Hit
            } else {
                MissClass::NoPf
            };
            self.nodes[n].counters.classify(cls);
            self.tracer.emit(
                apply_end,
                n as u32,
                tid.0 as u32,
                begin_id,
                TraceEvent::FaultEnd {
                    page: page.index() as u32,
                    class: if had_pf { class::HIT } else { class::NO_PF },
                },
            );
            let apply_end = self.adaptive_fault(tid, n, page, cls, begin_id, apply_end);
            return self.run_thread(tid, apply_end, None);
        }

        // A real remote miss.
        self.nodes[n].counters.misses += 1;
        if self.cfg.prefetch.enabled && self.cfg.prefetch.automatic {
            self.nodes[n].current_faults.push(page);
        }
        let class = match self.nodes[n].pf_meta.get(&page) {
            None => MissClass::NoPf,
            Some(meta) => {
                let all_requested = missing.iter().all(|(origin, seqs)| {
                    seqs.iter()
                        .all(|&seq| meta.requested.contains(&(*origin, seq)))
                }) && (!need_base || meta.wanted_base);
                if all_requested {
                    MissClass::TooLate
                } else {
                    MissClass::Invalidated
                }
            }
        };
        self.nodes[n].counters.classify(class);
        self.tracer.note_fault(
            n as u32,
            page.index() as u32,
            begin_id,
            match class {
                MissClass::Hit => class::HIT,
                MissClass::NoPf => class::NO_PF,
                MissClass::TooLate => class::TOO_LATE,
                MissClass::Invalidated => class::INVALIDATED,
            },
        );

        // Too-late join: when every missing piece was already
        // requested by an adaptive prefetch (reliable traffic — it
        // retransmits through loss and parks across a crash like any
        // demand message), re-requesting it would push a duplicate
        // round through the very server whose queue made the
        // prefetch late. Wait for the in-flight replies instead.
        if class == MissClass::TooLate
            && self.nodes[n]
                .pf_meta
                .get(&page)
                .is_some_and(|m| m.all_adaptive)
        {
            let inflight = {
                let mem = self.mem.lock().expect("mem mutex");
                mem[n].prefetch_inflight.get(&page).copied().unwrap_or(0)
            };
            if inflight > 0 {
                let end = self.adaptive_fault(tid, n, page, class, begin_id, end);
                self.nodes[n].fetches.insert(
                    page,
                    Fetch {
                        outstanding: inflight as usize,
                        waiters: vec![tid],
                        collected: Vec::new(),
                        base: None,
                        base_pending: false,
                        started: now,
                        joined: true,
                    },
                );
                return self.block(tid, n, BlockReason::Memory, end);
            }
        }

        // Demand requests launch first; the adaptive engine then
        // observes the fault and issues lookahead requests while the
        // thread is already blocked on the reply, so issue overhead
        // overlaps the memory stall instead of extending it.
        let end = self
            .send_fetch_requests(n, page, &missing, need_base, end, false, false)
            .0;
        let end = self.adaptive_fault(tid, n, page, class, begin_id, end);
        let outstanding = self.count_requests(&missing, need_base, page);
        self.nodes[n].fetches.insert(
            page,
            Fetch {
                outstanding,
                waiters: vec![tid],
                collected: Vec::new(),
                base: None,
                base_pending: need_base,
                started: now,
                joined: false,
            },
        );
        self.block(tid, n, BlockReason::Memory, end)
    }

    /// First-touch accounting: the first node to fault on (or be
    /// served) a page claims it. Under the `FirstTouch` policy an
    /// unclaimed page that is still pristine at its static home
    /// migrates its home to the first toucher, turning the fault
    /// into a local hit and homing the page where it is used.
    fn first_touch(&mut self, n: NodeId, page: PageId) {
        let p = page.index();
        if self.claimed[p] {
            return;
        }
        self.claimed[p] = true;
        if self.cfg.directory.policy != DirectoryPolicy::FirstTouch {
            return;
        }
        let home = self.heap.home(page);
        if home == n {
            return;
        }
        // Migrate only while the page is pristine at its static home:
        // the home never wrote it (no open twin, no dirty mark, no
        // closed diffs). Non-home writers claim pages via their own
        // faults before writing, so an unclaimed page can only have
        // been written by the home itself.
        let home_wrote = self.nodes[home].own_diffs.keys().any(|&(dp, _)| dp == p);
        let mut mem = self.mem.lock().expect("mem mutex");
        if home_wrote || mem[home].pages[p].twin.is_some() || mem[home].dirty.contains(&page) {
            return;
        }
        mem[home].pages[p].valid = false;
        mem[home].pages[p].ever_valid = false;
        mem[n].pages[p].valid = true;
        mem[n].pages[p].ever_valid = true;
        drop(mem);
        self.heap.set_home(page, n);
        self.nodes[n].counters.dir_migrations += 1;
    }

    /// The (origin → seqs) diffs node `n` still needs for `page`
    /// (pending notices minus the prefetch cache), plus whether a
    /// base copy is needed.
    fn missing_for(&self, n: NodeId, page: PageId) -> (Vec<(NodeId, Vec<u32>)>, bool) {
        let node = &self.nodes[n];
        let mut missing = node.board.pending_by_origin(page);
        for (origin, seqs) in &mut missing {
            seqs.retain(|&seq| !node.cache.has_diff(page, *origin, seq));
        }
        missing.retain(|(_, seqs)| !seqs.is_empty());
        let mem = self.mem.lock().expect("mem mutex");
        let need_base =
            !mem[n].pages[page.index()].ever_valid && !node.base_cache.contains_key(&page);
        (missing, need_base)
    }

    fn count_requests(
        &self,
        missing: &[(NodeId, Vec<u32>)],
        need_base: bool,
        page: PageId,
    ) -> usize {
        let home = self.heap.home(page);
        let home_covered = missing.iter().any(|(o, _)| *o == home);
        missing.len() + usize::from(need_base && !home_covered)
    }

    /// Sends diff/base requests; returns the CPU end time and the
    /// number of messages actually delivered (prefetch requests may
    /// drop).
    #[allow(clippy::too_many_arguments)]
    fn send_fetch_requests(
        &mut self,
        n: NodeId,
        page: PageId,
        missing: &[(NodeId, Vec<u32>)],
        need_base: bool,
        mut end: SimTime,
        prefetch: bool,
        adaptive: bool,
    ) -> (SimTime, usize) {
        let home = self.heap.home(page);
        let mut delivered = 0;
        let send_cost = if adaptive {
            self.cfg.costs.adaptive_issue()
        } else if prefetch {
            self.cfg.costs.prefetch_issue
        } else {
            self.cfg.costs.msg_send
        };
        let send_cat = if prefetch {
            Category::PrefetchOverhead
        } else {
            Category::DsmOverhead
        };
        for (origin, seqs) in missing {
            end = self.charge(n, end, send_cost, send_cat, None);
            let body = MsgBody::DiffRequest {
                page,
                seqs: seqs.clone(),
                want_base: need_base && *origin == home,
                prefetch,
                adaptive,
                droppable: prefetch && !adaptive && !self.cfg.prefetch.reliable,
                vc: self.nodes[n].vc.clone(),
            };
            if self.post(end, n, *origin, body) {
                delivered += 1;
            } else {
                self.nodes[n].counters.pf_send_drops += 1;
                self.tracer.emit(
                    end,
                    n as u32,
                    NO_THREAD,
                    NO_CAUSE,
                    TraceEvent::PrefetchDrop {
                        page: page.index() as u32,
                        reply: false,
                    },
                );
            }
            if prefetch {
                self.nodes[n].counters.pf_messages += 1;
            }
        }
        if need_base && !missing.iter().any(|(o, _)| *o == home) {
            assert_ne!(home, n, "home node never needs a base copy");
            end = self.charge(n, end, send_cost, send_cat, None);
            let body = MsgBody::DiffRequest {
                page,
                seqs: Vec::new(),
                want_base: true,
                prefetch,
                adaptive,
                droppable: prefetch && !adaptive && !self.cfg.prefetch.reliable,
                vc: self.nodes[n].vc.clone(),
            };
            if self.post(end, n, home, body) {
                delivered += 1;
            } else {
                self.nodes[n].counters.pf_send_drops += 1;
                self.tracer.emit(
                    end,
                    n as u32,
                    NO_THREAD,
                    NO_CAUSE,
                    TraceEvent::PrefetchDrop {
                        page: page.index() as u32,
                        reply: false,
                    },
                );
            }
            if prefetch {
                self.nodes[n].counters.pf_messages += 1;
            }
        }
        (end, delivered)
    }

    /// Applies everything locally available for `page` (cached base,
    /// cached prefetch diffs, collected fetch diffs), marking notices
    /// applied. Does not validate the page.
    fn apply_with(
        &mut self,
        n: NodeId,
        page: PageId,
        extra: Vec<DiffPayload>,
        base: Option<BasePayload>,
        mut end: SimTime,
    ) -> SimTime {
        let node = &mut self.nodes[n];
        let base = base.or_else(|| node.base_cache.remove(&page));
        let mut diffs = node.cache.take(page);
        diffs.extend(extra);
        // Order consistently with happens-before-1 (concurrent diffs
        // are disjoint, so any topological order is correct).
        diffs.sort_by(|a, b| a.rec.stamp.topo_cmp(&b.rec.stamp));

        let mut mem = self.mem.lock().expect("mem mutex");
        let entry = &mut mem[n].pages[page.index()];
        let mut apply_cost = rsdsm_simnet::SimDuration::ZERO;
        // Diffs already incorporated in an applied base copy must NOT
        // be re-applied: the base may also contain *newer* intervals
        // (the home can be ahead of this node), and replaying an older
        // diff over it would roll those bytes back. Marking them
        // applied makes the loop below skip them.
        if let Some(b) = base {
            if !entry.ever_valid {
                entry.data.copy_from(&b.page);
                entry.ever_valid = true;
                for &(origin, seq) in &b.incorporated {
                    node.board.mark_applied(page, origin, seq);
                }
                apply_cost += self.cfg.costs.diff_apply(rsdsm_protocol::PAGE_SIZE);
            }
        }
        for cached in &diffs {
            let (origin, seq) = (cached.origin(), cached.seq());
            if node.board.is_applied(page, origin, seq) {
                // Already incorporated (via the base or an earlier
                // fetch); re-applying a byte-sparse diff over newer
                // data would roll those bytes back.
                continue;
            }
            if self.oracle.cfg.invariants {
                let covered = node.known_intervals.get(origin, seq).is_some();
                self.oracle
                    .check_coverage(covered, n, page, &cached.rec, end);
            }
            cached.diff.apply(&mut entry.data);
            // Keep the twin consistent so our own diff stays minimal
            // (incoming concurrent diffs touch disjoint bytes).
            // `make_mut` un-shares a frame still referenced by an
            // in-flight base reply (copy-on-write).
            if let Some(twin) = &mut entry.twin {
                cached.diff.apply(Arc::make_mut(twin));
            }
            node.board.mark_applied(page, origin, seq);
            let cause = self
                .tracer
                .notice_id(n as u32, page.index() as u32, origin as u32, seq);
            self.tracer.emit(
                end,
                n as u32,
                NO_THREAD,
                cause,
                TraceEvent::DiffApply {
                    page: page.index() as u32,
                    origin: origin as u32,
                    seq,
                },
            );
            apply_cost += self.cfg.costs.diff_apply(cached.diff.payload_bytes());
        }
        drop(mem);
        if !apply_cost.is_zero() {
            end = self.charge(n, end, apply_cost, Category::DsmOverhead, None);
        }
        end
    }

    fn apply_local(&mut self, n: NodeId, page: PageId, end: SimTime) -> SimTime {
        self.apply_with(n, page, Vec::new(), None, end)
    }

    /// Marks `page` valid and clears its prefetch bookkeeping.
    fn validate_page(&mut self, n: NodeId, page: PageId) {
        let mut mem = self.mem.lock().expect("mem mutex");
        mem[n].pages[page.index()].valid = true;
        mem[n].prefetch_inflight.remove(&page);
        drop(mem);
        self.nodes[n].pf_meta.remove(&page);
    }

    // ------------------------------------------------------------------
    // Prefetching (§3)
    // ------------------------------------------------------------------

    /// Issues prefetch requests for `pages`, skipping anything valid,
    /// in flight, or already locally available. `cause` is the trace
    /// record the issues link to ([`NO_CAUSE`] inherits the ambient
    /// cause, as before); `adaptive` marks stride-engine issues, which
    /// are counted in [`AdaptiveStats`] and travel as
    /// `adaptive_request` traffic.
    fn handle_prefetch(
        &mut self,
        n: NodeId,
        pages: &[PageId],
        now: SimTime,
        cause: u64,
        adaptive: bool,
    ) -> SimTime {
        let mut end = now;
        for &page in pages {
            let valid = {
                let mem = self.mem.lock().expect("mem mutex");
                mem[n].pages[page.index()].valid
            };
            if valid {
                self.adaptive_cancel(n, adaptive);
                continue;
            }
            if self.nodes[n].fetches.contains_key(&page) {
                self.adaptive_cancel(n, adaptive);
                continue;
            }
            let (missing, need_base) = self.missing_for(n, page);
            if missing.is_empty() && !need_base {
                // Diffs already cached: the data is locally available.
                let mut mem = self.mem.lock().expect("mem mutex");
                mem[n].counters.pf_unnecessary += 1;
                drop(mem);
                self.adaptive_cancel(n, adaptive);
                continue;
            }
            {
                let node = &mut self.nodes[n];
                let meta = node.pf_meta.entry(page).or_default();
                let fresh = meta.requested.is_empty() && !meta.wanted_base;
                meta.all_adaptive = if fresh {
                    adaptive
                } else {
                    meta.all_adaptive && adaptive
                };
                for (origin, seqs) in &missing {
                    meta.requested
                        .extend(seqs.iter().map(|&seq| (*origin, seq)));
                }
                if need_base {
                    meta.wanted_base = true;
                }
            }
            self.tracer.emit(
                end,
                n as u32,
                NO_THREAD,
                cause,
                TraceEvent::PrefetchIssue {
                    page: page.index() as u32,
                },
            );
            let (new_end, _delivered) =
                self.send_fetch_requests(n, page, &missing, need_base, end, true, adaptive);
            end = new_end;
            if adaptive {
                if let Some(ad) = self.nodes[n].adaptive.as_mut() {
                    ad.stats.issued += 1;
                }
            }
            let requests = self.count_requests(&missing, need_base, page);
            let mut mem = self.mem.lock().expect("mem mutex");
            *mem[n].prefetch_inflight.entry(page).or_insert(0) += requests as u32;
        }
        end
    }

    /// Counts one adaptive candidate cancelled before issue. No-op
    /// for non-adaptive prefetches.
    fn adaptive_cancel(&mut self, n: NodeId, adaptive: bool) {
        if adaptive {
            if let Some(ad) = self.nodes[n].adaptive.as_mut() {
                ad.stats.cancelled += 1;
            }
        }
    }

    /// Adaptive engine hook, run on every classified fault when the
    /// mode is on: feeds the faulting thread's stride detector and the
    /// node's throttle controller, emits detect/throttle trace events
    /// linked to the fault's begin record, and issues prefetches ahead
    /// of the current trend at the controller's (degree, lead)
    /// operating point. All CPU time is charged here, at execution,
    /// on the fault path.
    fn adaptive_fault(
        &mut self,
        tid: ThreadId,
        n: NodeId,
        page: PageId,
        class: MissClass,
        begin_id: u64,
        at: SimTime,
    ) -> SimTime {
        if !self.cfg.prefetch.adaptive.enabled {
            return at;
        }
        let end = self.charge(
            n,
            at,
            self.cfg.costs.adaptive_observe(),
            Category::PrefetchOverhead,
            None,
        );
        let local = tid.local_index(self.tpn());
        let total_pages = self.heap.page_count() as i64;
        let ad = self.nodes[n].adaptive.as_mut().expect("adaptive state");
        let change = ad.detectors[local].observe(page.index() as u64);
        let trend = ad.detectors[local].trend();
        let transition = ad.throttle.observe(class);
        match change {
            TrendChange::Detected(_) => ad.stats.detected_strides += 1,
            TrendChange::Flipped(_) => ad.stats.window_flips += 1,
            _ => {}
        }
        if change != TrendChange::None {
            // Any trend movement restarts the planned-range tracking.
            ad.planned[local] = None;
        }
        match change {
            // A fresh majority gets one confirming fault before
            // anything is issued on it.
            TrendChange::Detected(_) => ad.probation[local] = 1,
            // A flip means the last confirmed majority was wrong:
            // double the stream's probation each time. Irregular
            // patterns (2D neighborhoods, hash orders) flip
            // endlessly and quickly stop issuing at all.
            TrendChange::Flipped(_) => {
                ad.flips[local] += 1;
                ad.probation[local] = 1u32 << ad.flips[local].min(5);
            }
            _ => {}
        }
        if let Some(ch) = transition {
            ad.stats.record(ch);
        }
        let degree = ad.throttle.degree();
        let lead = ad.throttle.lead();
        let may_issue = ad.throttle.may_issue();
        if let TrendChange::Detected(s) | TrendChange::Flipped(s) = change {
            self.tracer.emit(
                end,
                n as u32,
                tid.0 as u32,
                begin_id,
                TraceEvent::AdaptiveDetect {
                    page: page.index() as u32,
                    stride: s as i32,
                },
            );
        }
        if let Some(ch) = transition {
            self.tracer.emit(
                end,
                n as u32,
                tid.0 as u32,
                begin_id,
                TraceEvent::AdaptiveThrottle {
                    change: ch.code(),
                    degree,
                    lead,
                },
            );
        }
        let Some(stride) = trend else {
            return end;
        };
        {
            let ad = self.nodes[n].adaptive.as_mut().expect("adaptive state");
            if ad.probation[local] > 0 {
                // The stream's trend is still on probation (fresh, or
                // recently proven wrong by a flip): hold issue until
                // enough consecutive faults confirm it.
                ad.probation[local] -= 1;
                return end;
            }
        }
        if !may_issue {
            // The trend holds but the controller is cooling down:
            // every candidate this fault would have planned is
            // cancelled unissued.
            if let Some(ad) = self.nodes[n].adaptive.as_mut() {
                ad.stats.cancelled += u64::from(degree);
            }
            return end;
        }
        // The lookahead window this fault wants covered, clipped to
        // the extent beyond the thread's previous high-water mark:
        // successive faults on a stride stream extend the planned
        // range by ~one page each instead of re-issuing the whole
        // overlapping window (the burst would swamp the protocol
        // processors and the fabric for no added coverage).
        let planned = self.nodes[n]
            .adaptive
            .as_ref()
            .expect("adaptive state")
            .planned[local];
        let fresh: Vec<i64> = (0..degree)
            .map(|k| page.index() as i64 + stride * i64::from(lead + k))
            .filter(|&p| match planned {
                Some((ps, fur)) if ps == stride => {
                    if stride > 0 {
                        p > fur
                    } else {
                        p < fur
                    }
                }
                _ => true,
            })
            .collect();
        // In-flight budget: page-sized prefetch replies serialize on
        // the same links as demand replies, so an unpaced stream of
        // issues queues demand traffic behind megabytes of lookahead
        // and *adds* memory stall. New issues are admitted only while
        // fewer than `degree` replies are outstanding — the
        // controller's ramp/backoff therefore directly sizes the
        // pipeline the fabric carries.
        let outstanding: u32 = {
            let mem = self.mem.lock().expect("mem mutex");
            mem[n].prefetch_inflight.values().sum()
        };
        let allowed = u64::from(degree.saturating_sub(outstanding)) as usize;
        let mut candidates: Vec<PageId> = fresh
            .iter()
            .filter(|&&p| p >= 0 && p < total_pages)
            .map(|&p| PageId::new(p as u32))
            .collect();
        candidates.truncate(allowed);
        {
            let ad = self.nodes[n].adaptive.as_mut().expect("adaptive state");
            // Fresh candidates past the heap ends or over budget are
            // cancelled; already-planned pages are simply not fresh.
            ad.stats.cancelled += (fresh.len() - candidates.len()) as u64;
            // The mark advances only over what actually issues, so
            // budget-suppressed pages stay eligible for later faults.
            if let Some(last) = candidates.last() {
                let far = last.index() as i64;
                let mark = match planned {
                    Some((ps, fur)) if ps == stride => {
                        if stride > 0 {
                            far.max(fur)
                        } else {
                            far.min(fur)
                        }
                    }
                    _ => far,
                };
                ad.planned[local] = Some((stride, mark));
            }
        }
        if candidates.is_empty() {
            return end;
        }
        // Plan and issue run on the node's protocol processor, off
        // the faulting thread's critical path: the CPU busy time is
        // charged (it delays later protocol work on this node) but
        // the fault completes independently — for a remote miss the
        // issues overlap the memory stall already in progress.
        let issue_at = self.charge(
            n,
            end,
            self.cfg.costs.adaptive_plan(candidates.len()),
            Category::PrefetchOverhead,
            None,
        );
        self.handle_prefetch(n, &candidates, issue_at, begin_id, true);
        end
    }

    /// Automatic-prefetch mode (Bianchini-style): a synchronization
    /// point was reached on node `n`. The pages that faulted since
    /// the previous sync point become the history of that point's
    /// sync object, and the history recorded for `key` is prefetched
    /// now. Returns the CPU end time.
    fn auto_prefetch_at_sync(&mut self, n: NodeId, key: SyncKey, now: SimTime) -> SimTime {
        if !self.cfg.prefetch.enabled || !self.cfg.prefetch.automatic {
            return now;
        }
        let node = &mut self.nodes[n];
        let faults = std::mem::take(&mut node.current_faults);
        if let Some(prev) = node.current_sync.replace(key) {
            node.sync_history.insert(prev, faults);
        }
        let history = node.sync_history.get(&key).cloned().unwrap_or_default();
        if history.is_empty() {
            return now;
        }
        {
            let mut mem = self.mem.lock().expect("mem mutex");
            mem[n].counters.pf_calls += history.len() as u64;
            mem[n].counters.pf_unnecessary += history
                .iter()
                .filter(|p| mem[n].pages[p.index()].valid)
                .count() as u64;
        }
        let end = self.charge(
            n,
            now,
            self.cfg.costs.prefetch_check * history.len() as u64,
            Category::PrefetchOverhead,
            None,
        );
        self.handle_prefetch(n, &history, end, NO_CAUSE, false)
    }

    // ------------------------------------------------------------------
    // Interval management
    // ------------------------------------------------------------------

    /// Closes node `n`'s open interval: encodes a diff for every dirty
    /// page, logs the interval, and advances the vector clock. No-op
    /// when nothing is dirty.
    fn close_interval(&mut self, n: NodeId, at: SimTime) -> SimTime {
        let mut mem = self.mem.lock().expect("mem mutex");
        let m = &mut mem[n];
        let dirty: Vec<PageId> = std::mem::take(&mut m.dirty)
            .into_iter()
            .filter(|p| m.pages[p.index()].twin.is_some())
            .collect();
        if dirty.is_empty() {
            return at;
        }
        let node = &mut self.nodes[n];
        let seq = node.vc.tick(n);
        let stamp = node.vc.clone();
        let mut cost = rsdsm_simnet::SimDuration::ZERO;
        let mut seen = std::collections::HashSet::new();
        let mut pages_list = Vec::new();
        for page in dirty {
            if !seen.insert(page) {
                continue;
            }
            let entry = &mut m.pages[page.index()];
            let twin = entry.twin.take().expect("twin present");
            let diff = Diff::between(&twin, &entry.data);
            if self.oracle.cfg.invariants {
                self.oracle
                    .check_roundtrip(&twin, &entry.data, &diff, n, page, at);
            }
            cost += self.cfg.costs.diff_create(diff.payload_bytes());
            self.tracer.emit(
                at,
                n as u32,
                NO_THREAD,
                NO_CAUSE,
                TraceEvent::DiffCreate {
                    page: page.index() as u32,
                    seq,
                    bytes: diff.encoded_bytes() as u32,
                },
            );
            node.own_diff_bytes += diff.encoded_bytes();
            node.own_diffs.insert((page.index(), seq), Arc::new(diff));
            pages_list.push(page);
            m.pool.put_arc(twin);
        }
        drop(mem);
        let rec = Arc::new(IntervalRecord {
            origin: n,
            stamp,
            pages: pages_list,
        });
        self.nodes[n].known_intervals.learn(&rec);
        self.charge(n, at, cost, Category::DsmOverhead, None)
    }

    /// Records the write notices of `rec` at node `n`, invalidating
    /// affected pages (skipping the node's own intervals).
    fn record_interval(&mut self, n: NodeId, rec: &Arc<IntervalRecord>, at: SimTime) {
        self.nodes[n].known_intervals.learn(rec);
        if rec.origin == n {
            return;
        }
        let seq = rec.seq();
        for &page in &rec.pages {
            // Directory sharding: interval *knowledge* (the vector
            // clocks above) is always full, but per-page write
            // notices are only tracked for pages this node has an
            // interest in. A pruned page's first touch is a base
            // fetch from its home, which re-serves the history.
            if self.cfg.directory.enabled && !self.interested(n, page) {
                self.nodes[n].counters.dir_pruned += 1;
                continue;
            }
            let is_new = self.nodes[n].board.record(WriteNotice {
                page,
                origin: rec.origin,
                seq,
            });
            if is_new {
                if self.tracer.is_on() {
                    let id = self.tracer.emit(
                        at,
                        n as u32,
                        NO_THREAD,
                        NO_CAUSE,
                        TraceEvent::WriteNotice {
                            page: page.index() as u32,
                            origin: rec.origin as u32,
                            seq,
                        },
                    );
                    self.tracer.note_notice(
                        n as u32,
                        page.index() as u32,
                        rec.origin as u32,
                        seq,
                        id,
                    );
                }
                let mut mem = self.mem.lock().expect("mem mutex");
                mem[n].pages[page.index()].valid = false;
            }
        }
    }

    /// Whether node `n` must track write notices for `page`: it
    /// homes the page, has (ever) held a copy, holds prefetched
    /// state for it, or has a fetch in flight. Anything else may
    /// drop the notice.
    fn interested(&self, n: NodeId, page: PageId) -> bool {
        if self.heap.home(page) == n {
            return true;
        }
        let node = &self.nodes[n];
        if node.base_cache.contains_key(&page)
            || node.cache.contains_page(page)
            || node.pf_meta.contains_key(&page)
            || node.fetches.contains_key(&page)
        {
            return true;
        }
        let mem = self.mem.lock().expect("mem mutex");
        mem[n].pages[page.index()].ever_valid
    }

    // ------------------------------------------------------------------
    // Locks (§4.1 request combining, distributed token passing)
    // ------------------------------------------------------------------

    fn handle_acquire(
        &mut self,
        tid: ThreadId,
        n: NodeId,
        lock: LockId,
        now: SimTime,
    ) -> Result<(), SimError> {
        let req_id = self.tracer.emit(
            now,
            n as u32,
            tid.0 as u32,
            NO_CAUSE,
            TraceEvent::LockRequest { lock: lock.0 },
        );
        match self.nodes[n].locks.acquire(lock, tid) {
            AcquireOutcome::Granted => {
                self.oracle.record_grant(lock, tid);
                let end = self.charge(
                    n,
                    now,
                    self.cfg.costs.lock_local_pass,
                    Category::DsmOverhead,
                    None,
                );
                self.tracer.emit(
                    end,
                    n as u32,
                    tid.0 as u32,
                    req_id,
                    TraceEvent::LockGrant { lock: lock.0 },
                );
                self.run_thread(tid, end, None)
            }
            AcquireOutcome::QueuedLocal => self.block(tid, n, BlockReason::Lock, now),
            AcquireOutcome::NeedToken => {
                self.nodes[n].counters.lock_events += 1;
                let end = self.charge(n, now, self.cfg.costs.msg_send, Category::DsmOverhead, None);
                let manager = self.nodes[n].locks.manager(lock);
                let vc = self.nodes[n].vc.clone();
                if manager == n {
                    // We manage the lock but do not hold the token.
                    self.route_as_manager(n, lock, RemoteWaiter { node: n, vc }, end);
                } else {
                    self.post(
                        end,
                        n,
                        manager,
                        MsgBody::LockRequest {
                            lock,
                            requester: n,
                            vc,
                        },
                    );
                }
                self.block(tid, n, BlockReason::Lock, end)
            }
        }
    }

    fn handle_release(
        &mut self,
        tid: ThreadId,
        n: NodeId,
        lock: LockId,
        now: SimTime,
    ) -> Result<(), SimError> {
        match self.nodes[n].locks.release(lock, tid) {
            ReleaseOutcome::PassedLocal(next) => {
                self.oracle.record_grant(lock, next);
                let end = self.charge(
                    n,
                    now,
                    self.cfg.costs.lock_local_pass,
                    Category::DsmOverhead,
                    None,
                );
                self.tracer.emit(
                    end,
                    n as u32,
                    next.0 as u32,
                    NO_CAUSE,
                    TraceEvent::LockLocalPass { lock: lock.0 },
                );
                self.wake(next, end)?;
                self.run_thread(tid, end, None)
            }
            ReleaseOutcome::GrantRemote(waiter) => {
                let end = self.grant_lock(n, lock, waiter, now);
                self.run_thread(tid, end, None)
            }
            ReleaseOutcome::Idle => self.run_thread(tid, now, None),
        }
    }

    /// Closes the interval and sends the token (with piggybacked
    /// notices) to `waiter`.
    fn grant_lock(
        &mut self,
        n: NodeId,
        lock: LockId,
        waiter: RemoteWaiter,
        at: SimTime,
    ) -> SimTime {
        if waiter.node == n {
            // Degenerate self-grant (the manager routed our own
            // request back to us): no messaging, no new notices.
            if let GrantOutcome::WakeLocal(tid) = self.nodes[n].locks.handle_grant(lock) {
                self.oracle.record_grant(lock, tid);
                self.tracer.emit(
                    at,
                    n as u32,
                    tid.0 as u32,
                    NO_CAUSE,
                    TraceEvent::LockGrant { lock: lock.0 },
                );
                // Propagate errors as panics here would be wrong; a
                // wake failure only occurs on engine teardown.
                let _ = self.wake(tid, at);
            }
            return at;
        }
        let end = self.close_interval(n, at);
        let intervals = self.nodes[n].known_intervals.unknown_to(&waiter.vc);
        let mut end = self.charge(n, end, self.cfg.costs.msg_send, Category::DsmOverhead, None);
        self.tracer.emit(
            end,
            n as u32,
            NO_THREAD,
            NO_CAUSE,
            TraceEvent::LockGrant { lock: lock.0 },
        );
        let vc = self.nodes[n].vc.clone();
        let new_owner = waiter.node;
        self.post(
            end,
            n,
            new_owner,
            MsgBody::LockGrant {
                lock,
                intervals,
                vc,
            },
        );
        // Any other queued requests chase the token to its new holder.
        for leftover in self.nodes[n].locks.drain_remote_queue(lock) {
            end = self.charge(n, end, self.cfg.costs.msg_send, Category::DsmOverhead, None);
            self.post(
                end,
                n,
                new_owner,
                MsgBody::LockForward {
                    lock,
                    requester: leftover.node,
                    vc: leftover.vc,
                },
            );
        }
        end
    }

    /// Manager-side routing of an acquire request.
    fn route_as_manager(&mut self, m: NodeId, lock: LockId, waiter: RemoteWaiter, at: SimTime) {
        match self.nodes[m].locks.manager_route(lock, waiter.node) {
            None => self.handle_forward_arrival(m, lock, waiter, at),
            Some(owner) => {
                let end = self.charge(m, at, self.cfg.costs.msg_send, Category::DsmOverhead, None);
                self.post(
                    end,
                    m,
                    owner,
                    MsgBody::LockForward {
                        lock,
                        requester: waiter.node,
                        vc: waiter.vc,
                    },
                );
            }
        }
    }

    // ------------------------------------------------------------------
    // Barriers (§4.1 local combining, central manager)
    // ------------------------------------------------------------------

    fn handle_barrier_arrive(
        &mut self,
        tid: ThreadId,
        n: NodeId,
        id: BarrierId,
        now: SimTime,
    ) -> Result<(), SimError> {
        let mut end = self.close_interval(n, now);
        let last_local = self.nodes[n].barrier.arrive(id, tid);
        if !last_local {
            return self.block(tid, n, BlockReason::Barrier, end);
        }
        self.nodes[n].counters.barrier_events += 1;
        self.tracer.emit(
            end,
            n as u32,
            tid.0 as u32,
            NO_CAUSE,
            TraceEvent::BarrierArrive { barrier: id.0 },
        );
        let node = &self.nodes[n];
        let intervals = node.known_intervals.unknown_to(&node.last_release_vc);
        let vc = node.vc.clone();
        if n == MANAGER {
            end = self.charge(
                n,
                end,
                self.cfg.costs.sync_process,
                Category::DsmOverhead,
                None,
            );
            // Block first: when this is the last arrival cluster-wide,
            // the release below wakes this very thread.
            self.block(tid, n, BlockReason::Barrier, end)?;
            self.manager_collect(id, n, vc, intervals, end)
        } else {
            end = self.charge(n, end, self.cfg.costs.msg_send, Category::DsmOverhead, None);
            self.post(
                end,
                n,
                MANAGER,
                MsgBody::BarrierArrive {
                    id,
                    from: n,
                    vc,
                    intervals,
                },
            );
            self.block(tid, n, BlockReason::Barrier, end)
        }
    }

    /// Manager-side collection of one node's arrival.
    fn manager_collect(
        &mut self,
        id: BarrierId,
        from: NodeId,
        vc: VectorClock,
        intervals: Vec<Arc<IntervalRecord>>,
        at: SimTime,
    ) -> Result<(), SimError> {
        let joined = self
            .barrier_vcs
            .entry(id)
            .or_insert_with(|| VectorClock::new(self.cfg.nodes));
        joined.join(&vc);
        if self.oracle.cfg.invariants {
            self.oracle.barrier_arrival(id, from, at);
        }
        if let Some(union) = self.barrier_mgr.node_arrived(id, from, intervals) {
            if self.oracle.cfg.invariants {
                self.oracle.barrier_release(id, self.cfg.nodes, at);
            }
            let joined = self.barrier_vcs.remove(&id).expect("joined clock");
            let mut end = at;
            for node in 1..self.cfg.nodes {
                end = self.charge(
                    MANAGER,
                    end,
                    self.cfg.costs.msg_send,
                    Category::DsmOverhead,
                    None,
                );
                self.post(
                    end,
                    MANAGER,
                    node,
                    MsgBody::BarrierRelease {
                        id,
                        vc: joined.clone(),
                        intervals: union.clone(),
                    },
                );
            }
            self.process_barrier_release(MANAGER, id, &joined, &union, end)?;
        }
        Ok(())
    }

    fn process_barrier_release(
        &mut self,
        n: NodeId,
        id: BarrierId,
        vc: &VectorClock,
        intervals: &[Arc<IntervalRecord>],
        at: SimTime,
    ) -> Result<(), SimError> {
        let mut end = self.charge(
            n,
            at,
            self.cfg.costs.sync_process,
            Category::DsmOverhead,
            None,
        );
        for rec in intervals {
            self.record_interval(n, rec, end);
        }
        self.nodes[n].vc.join(vc);
        self.nodes[n].last_release_vc = self.nodes[n].vc.clone();

        // Garbage collection point: charge the pass's CPU time (the
        // cost TreadMarks pays to validate and reclaim diff storage).
        // The applied-notice records themselves are deliberately NOT
        // pruned: base copies advertise their contents via the
        // applied set (`incorporated`), and forgetting old applied
        // entries makes that advertisement partial — a requester
        // would then re-apply an old diff over newer incorporated
        // bytes and roll them back. Memory is not a constraint for
        // the simulator the way 1998's 96 MB nodes were.
        if self.nodes[n].own_diff_bytes > self.cfg.gc_threshold_bytes {
            let cost = self.cfg.costs.gc_per_diff * self.nodes[n].own_diffs.len() as u64;
            end = self.charge(n, end, cost, Category::DsmOverhead, None);
            self.nodes[n].counters.gc_passes += 1;
            self.nodes[n].own_diff_bytes = 0;
        }
        {
            let mut mem = self.mem.lock().expect("mem mutex");
            mem[n].epoch_prefetched.clear();
        }
        // A barrier release bounds the access phase on every local
        // thread: the adaptive detectors' delta chains break so the
        // jump across the barrier is never scored as a stride, but
        // the accumulated windows survive — iterative apps repeat the
        // same short stride pattern each epoch and the majority forms
        // across epochs, not within one.
        if let Some(ad) = self.nodes[n].adaptive.as_mut() {
            for d in &mut ad.detectors {
                d.break_chain();
            }
            // Pages the next interval invalidates must be re-planned.
            ad.planned.fill(None);
        }
        // Barrier-aligned checkpoint: every local interval is closed
        // here (no twins), making this the natural recovery line.
        self.recov.epochs_done[n] += 1;
        self.tracer.emit(
            end,
            n as u32,
            NO_THREAD,
            NO_CAUSE,
            TraceEvent::BarrierRelease {
                barrier: id.0,
                epoch: self.recov.epochs_done[n],
            },
        );
        let every = self.cfg.recovery.checkpoint_every;
        if every > 0 && self.recov.epochs_done[n].is_multiple_of(every) {
            end = self.take_checkpoint(n, end);
        }
        let end = self.auto_prefetch_at_sync(n, SyncKey::Barrier(id), end);
        let woken = self.nodes[n].barrier.release(id);
        for tid in woken {
            self.wake(tid, end)?;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Message arrivals
    // ------------------------------------------------------------------

    /// Handles a wire-level frame arrival: datagrams dispatch
    /// directly; data frames are acked, deduplicated, and reordered
    /// back into per-link FIFO order by the transport before their
    /// messages dispatch; acks settle the sender's retry state.
    fn on_arrival(&mut self, pkt: Packet, now: SimTime) -> Result<(), SimError> {
        let n = pkt.dst;
        // Every frame is an implicit heartbeat: hearing anything from
        // the peer refreshes its lease.
        if self.cfg.recovery.enabled {
            self.recov.detector.heard(n, pkt.src, now);
        }
        if self.tracer.is_on() {
            let (k, seq) = match &pkt.frame {
                Frame::Heartbeat => (kind::HEARTBEAT, 0),
                Frame::Ack { seq } => (kind::ACK, *seq),
                Frame::Datagram { body } => (body.kind_code(), 0),
                Frame::Data { seq, body } => (body.kind_code(), *seq),
            };
            let id = self.tracer.emit(
                now,
                n as u32,
                NO_THREAD,
                pkt.cause,
                TraceEvent::MsgRecv {
                    kind: k,
                    peer: pkt.src as u32,
                    seq,
                },
            );
            // Everything this frame triggers inherits it as cause.
            self.tracer.set_current(id);
        }
        match pkt.frame {
            Frame::Heartbeat => {
                let idle = self.idle_reason(n);
                self.charge(
                    n,
                    now,
                    self.cfg.costs.ack_process,
                    Category::DsmOverhead,
                    idle,
                );
                Ok(())
            }
            Frame::Ack { seq } => {
                let idle = self.idle_reason(n);
                self.charge(
                    n,
                    now,
                    self.cfg.costs.ack_process,
                    Category::DsmOverhead,
                    idle,
                );
                self.transport.on_ack(n, pkt.src, seq, now);
                self.tracer.forget_send(n as u32, pkt.src as u32, seq);
                Ok(())
            }
            Frame::Datagram { body } => {
                let end = self.charge_recv(n, now);
                self.dispatch(
                    Msg {
                        src: pkt.src,
                        dst: n,
                        body: unshare(body),
                    },
                    end,
                )
            }
            Frame::Data { seq, body } => {
                // Ack every data frame, duplicates included: a
                // retransmission usually means the previous ack was
                // lost, and only a fresh ack stops the retries. The
                // ack leaves at wire-arrival time, not after the DSM
                // layer absorbs the message: acknowledgements are
                // kernel-level work, and on a busy multithreaded node
                // the application CPU can be seconds behind — a delay
                // the sender must not mistake for loss.
                self.send_ack(n, pkt.src, seq, now);
                let end = self.charge_recv(n, now);
                match self.transport.receive(pkt.src, n, seq, body) {
                    Recv::Deliver(run) => {
                        for body in run {
                            self.dispatch(
                                Msg {
                                    src: pkt.src,
                                    dst: n,
                                    body: unshare(body),
                                },
                                end,
                            )?;
                        }
                        Ok(())
                    }
                    Recv::Buffered | Recv::Duplicate => Ok(()),
                }
            }
        }
    }

    /// Charges the software receive overhead for one arriving frame.
    fn charge_recv(&mut self, n: NodeId, now: SimTime) -> SimTime {
        let idle = self.idle_reason(n);
        let mut recv = self.cfg.costs.msg_recv;
        if self.cfg.threads.is_multithreaded() {
            // All arrivals are handled asynchronously (signals) when
            // multithreading is on — the fixed cost of §4.3.
            recv += self.cfg.costs.async_arrival;
        }
        self.charge(n, now, recv, Category::DsmOverhead, idle)
    }

    /// Dispatches one protocol message to its handler. The caller has
    /// already charged the receive overhead; `end` is when the CPU
    /// finished absorbing the frame.
    fn dispatch(&mut self, msg: Msg, end: SimTime) -> Result<(), SimError> {
        let n = msg.dst;
        match msg.body {
            MsgBody::DiffRequest {
                page,
                seqs,
                want_base,
                prefetch,
                adaptive,
                droppable,
                vc,
            } => {
                self.serve_diff_request(
                    n, msg.src, page, &seqs, want_base, prefetch, adaptive, droppable, &vc, end,
                );
                Ok(())
            }
            MsgBody::DiffReply {
                page,
                diffs,
                base,
                prefetch,
                intervals,
                ..
            } => {
                // Learn the piggybacked notices FIRST: the diffs may
                // come from intervals causally after ones we have not
                // heard about yet.
                for rec in &intervals {
                    self.record_interval(n, rec, end);
                }
                self.handle_diff_reply(n, page, diffs, base, prefetch, end)
            }
            MsgBody::LockRequest {
                lock,
                requester,
                vc,
            } => {
                let end = self.charge(
                    n,
                    end,
                    self.cfg.costs.sync_process,
                    Category::DsmOverhead,
                    None,
                );
                self.route_as_manager(
                    n,
                    lock,
                    RemoteWaiter {
                        node: requester,
                        vc,
                    },
                    end,
                );
                Ok(())
            }
            MsgBody::LockForward {
                lock,
                requester,
                vc,
            } => {
                let end = self.charge(
                    n,
                    end,
                    self.cfg.costs.sync_process,
                    Category::DsmOverhead,
                    None,
                );
                self.handle_forward_arrival(
                    n,
                    lock,
                    RemoteWaiter {
                        node: requester,
                        vc,
                    },
                    end,
                );
                Ok(())
            }
            MsgBody::LockGrant {
                lock,
                intervals,
                vc,
            } => {
                let end = self.charge(
                    n,
                    end,
                    self.cfg.costs.sync_process,
                    Category::DsmOverhead,
                    None,
                );
                for rec in &intervals {
                    self.record_interval(n, rec, end);
                }
                self.nodes[n].vc.join(&vc);
                match self.nodes[n].locks.handle_grant(lock) {
                    GrantOutcome::WakeLocal(tid) => {
                        self.oracle.record_grant(lock, tid);
                        // A remote grant opens a new lock epoch for
                        // the acquirer: its delta chain breaks so the
                        // jump to the critical section's pages is
                        // not scored, but the window survives.
                        let local = tid.local_index(self.tpn());
                        if let Some(ad) = self.nodes[n].adaptive.as_mut() {
                            ad.detectors[local].break_chain();
                            ad.planned[local] = None;
                        }
                        let end = self.auto_prefetch_at_sync(n, SyncKey::Lock(lock), end);
                        self.wake(tid, end)
                    }
                    GrantOutcome::TokenParked => {
                        // Never strand remote requesters behind a
                        // parked token.
                        if let Some(w) = self.nodes[n].locks.take_remote_if_free(lock) {
                            self.grant_lock(n, lock, w, end);
                        }
                        Ok(())
                    }
                }
            }
            MsgBody::BarrierArrive {
                id,
                from,
                vc,
                intervals,
            } => {
                let end = self.charge(
                    n,
                    end,
                    self.cfg.costs.sync_process,
                    Category::DsmOverhead,
                    None,
                );
                debug_assert_eq!(n, MANAGER);
                self.manager_collect(id, from, vc, intervals, end)
            }
            MsgBody::BarrierRelease { id, vc, intervals } => {
                self.process_barrier_release(n, id, &vc, &intervals, end)
            }
            MsgBody::SuspectReport { suspect } => {
                debug_assert_eq!(n, MANAGER);
                let end = self.charge(
                    n,
                    end,
                    self.cfg.costs.sync_process,
                    Category::DsmOverhead,
                    None,
                );
                if self.cfg.recovery.enabled {
                    self.schedule_confirm(suspect, end);
                }
                Ok(())
            }
            MsgBody::RecoveryStart { victim, .. } => {
                self.charge(
                    n,
                    end,
                    self.cfg.costs.sync_process,
                    Category::DsmOverhead,
                    None,
                );
                self.recov.detector.mark_down(n, victim);
                Ok(())
            }
        }
    }

    /// Handles a lock forward at arrival (with messaging for chains).
    fn handle_forward_arrival(
        &mut self,
        o: NodeId,
        lock: LockId,
        waiter: RemoteWaiter,
        at: SimTime,
    ) {
        let requester = waiter.node;
        let vc = waiter.vc.clone();
        match self.nodes[o].locks.handle_forward(lock, waiter) {
            ForwardOutcome::Grant(w) => {
                self.grant_lock(o, lock, w, at);
            }
            ForwardOutcome::Queued => {}
            ForwardOutcome::Chain(next) => {
                let end = self.charge(o, at, self.cfg.costs.msg_send, Category::DsmOverhead, None);
                self.post(
                    end,
                    o,
                    next,
                    MsgBody::LockForward {
                        lock,
                        requester,
                        vc,
                    },
                );
            }
        }
    }

    /// Services a diff (or prefetch) request at node `m`.
    #[allow(clippy::too_many_arguments)]
    fn serve_diff_request(
        &mut self,
        m: NodeId,
        requester: NodeId,
        page: PageId,
        seqs: &[u32],
        want_base: bool,
        prefetch: bool,
        adaptive: bool,
        droppable: bool,
        requester_vc: &VectorClock,
        at: SimTime,
    ) {
        let mut end = at;
        let mut reply_diffs = Vec::new();

        if self.cfg.directory.enabled {
            // Any served copy closes the page's first-touch window.
            self.claimed[page.index()] = true;
            if self.heap.home(page) == m {
                self.nodes[m].counters.dir_home_hits += 1;
            }
        }

        if prefetch {
            // §3.1: servicing a prefetch for a dirty page splits the
            // open interval so later writes are distinguishable, and
            // the fresh diff rides along in the reply.
            let split = {
                let mem = self.mem.lock().expect("mem mutex");
                mem[m].pages[page.index()].twin.is_some()
            };
            if split {
                let node = &mut self.nodes[m];
                let seq = node.vc.tick(m);
                let stamp = node.vc.clone();
                let mut mem = self.mem.lock().expect("mem mutex");
                let entry = &mut mem[m].pages[page.index()];
                let twin = entry.twin.take().expect("twin present");
                let diff = Diff::between(&twin, &entry.data);
                if self.oracle.cfg.invariants {
                    self.oracle
                        .check_roundtrip(&twin, &entry.data, &diff, m, page, end);
                }
                mem[m].pool.put_arc(twin);
                drop(mem);
                end = self.charge(
                    m,
                    end,
                    self.cfg.costs.diff_create(diff.payload_bytes())
                        + self.cfg.costs.prefetch_service_extra,
                    Category::DsmOverhead,
                    None,
                );
                self.tracer.emit(
                    end,
                    m as u32,
                    NO_THREAD,
                    NO_CAUSE,
                    TraceEvent::DiffCreate {
                        page: page.index() as u32,
                        seq,
                        bytes: diff.encoded_bytes() as u32,
                    },
                );
                let diff = Arc::new(diff);
                let node = &mut self.nodes[m];
                node.own_diff_bytes += diff.encoded_bytes();
                node.own_diffs
                    .insert((page.index(), seq), Arc::clone(&diff));
                let rec = Arc::new(IntervalRecord {
                    origin: m,
                    stamp,
                    pages: vec![page],
                });
                node.known_intervals.learn(&rec);
                reply_diffs.push(DiffPayload { rec, diff });
            }
        }

        let node = &self.nodes[m];
        for &seq in seqs {
            let (Some(diff), Some(rec)) = (
                node.own_diffs.get(&(page.index(), seq)),
                node.known_intervals.get(m, seq),
            ) else {
                panic!("requested diff ({page}, seq {seq}) missing at node {m}");
            };
            reply_diffs.push(DiffPayload {
                rec: Arc::clone(rec),
                diff: Arc::clone(diff),
            });
        }

        let base = if want_base {
            let mem = self.mem.lock().expect("mem mutex");
            let entry = &mem[m].pages[page.index()];
            // Serve from the twin when the page is dirty: the base
            // must not leak this node's *open-interval* writes.
            // Closed diffs are byte-sparse relative to the writer's
            // twin, so a requester holding uncommitted mid-interval
            // bytes would end up with a mix of two values once the
            // interval's diff arrives.
            let data = match &entry.twin {
                // Zero-copy: the reply shares the twin frame. If this
                // node writes the page again before the frame drains,
                // `Arc::make_mut` in the write path un-shares it.
                Some(twin) => Arc::clone(twin),
                None => Arc::new(entry.data.clone()),
            };
            drop(mem);
            let node = &self.nodes[m];
            let mut incorporated = node.board.applied_for(page);
            incorporated.extend(
                node.known_intervals
                    .of_origin_touching(m, page)
                    .iter()
                    .map(|rec| (m, rec.seq())),
            );
            Some(BasePayload {
                page: data,
                incorporated,
            })
        } else {
            None
        };

        let mut intervals = self.nodes[m].known_intervals.unknown_to(requester_vc);
        if want_base && self.cfg.directory.enabled {
            // Heal a pruned requester: a first touch needs the page's
            // full notice history, including intervals the
            // requester's clock already covers (knowledge it learned
            // but whose notices it pruned). Records are re-served
            // whole — never synthesized per-page slices — so a
            // requester that genuinely never saw one learns every
            // page it names.
            let healed =
                self.nodes[m]
                    .known_intervals
                    .known_to_touching(requester_vc, page, requester);
            self.nodes[m].counters.dir_forwards += healed.len() as u64;
            intervals.extend(healed);
        }
        end = self.charge(m, end, self.cfg.costs.msg_send, Category::DsmOverhead, None);
        let sent = self.post(
            end,
            m,
            requester,
            MsgBody::DiffReply {
                page,
                diffs: reply_diffs,
                base,
                prefetch,
                adaptive,
                droppable,
                intervals,
            },
        );
        if !sent {
            // Only droppable prefetch replies can be lost; the
            // requester's demand-fault path recovers, and the loss
            // shows up as a too-late or no-pf fault there.
            self.nodes[m].counters.pf_reply_drops += 1;
            self.tracer.emit(
                end,
                m as u32,
                NO_THREAD,
                NO_CAUSE,
                TraceEvent::PrefetchDrop {
                    page: page.index() as u32,
                    reply: true,
                },
            );
        }
    }

    fn handle_diff_reply(
        &mut self,
        n: NodeId,
        page: PageId,
        diffs: Vec<DiffPayload>,
        base: Option<BasePayload>,
        prefetch: bool,
        end: SimTime,
    ) -> Result<(), SimError> {
        if prefetch {
            // Store in the prefetch heap; consumed at access time.
            let node = &mut self.nodes[n];
            node.cache_unapplied(page, diffs);
            if let Some(b) = base {
                node.base_cache.insert(page, b);
            }
            let mut mem = self.mem.lock().expect("mem mutex");
            if let Some(count) = mem[n].prefetch_inflight.get_mut(&page) {
                *count = count.saturating_sub(1);
                if *count == 0 {
                    mem[n].prefetch_inflight.remove(&page);
                }
            }
            drop(mem);
            // A too-late join rides on this reply stream: the
            // faulting thread is blocked waiting for exactly these
            // frames (the data itself sits in the caches above).
            if self.nodes[n].fetches.get(&page).is_some_and(|f| f.joined) {
                let fetch = self.nodes[n].fetches.get_mut(&page).expect("joined fetch");
                fetch.outstanding -= 1;
                if fetch.outstanding == 0 {
                    let fetch = self.nodes[n].fetches.remove(&page).expect("fetch exists");
                    let end = self.apply_with(n, page, fetch.collected, fetch.base, end);
                    return self.finish_fetch(n, page, fetch.waiters, fetch.started, end);
                }
            }
            return Ok(());
        }

        let Some(fetch) = self.nodes[n].fetches.get_mut(&page) else {
            // A straggler reply for a fetch that already completed
            // (e.g. a duplicate path).
            self.nodes[n].cache_unapplied(page, diffs);
            return Ok(());
        };
        fetch.collected.extend(diffs);
        if base.is_some() {
            fetch.base = base;
            fetch.base_pending = false;
        }
        fetch.outstanding -= 1;
        if fetch.outstanding > 0 {
            return Ok(());
        }
        let fetch = self.nodes[n].fetches.remove(&page).expect("fetch exists");
        let end = self.apply_with(n, page, fetch.collected, fetch.base, end);
        self.finish_fetch(n, page, fetch.waiters, fetch.started, end)
    }

    /// Final leg of a completed fetch (demand or too-late join):
    /// re-drives anything that went missing while the replies were in
    /// flight, then validates the page and wakes the waiters.
    fn finish_fetch(
        &mut self,
        n: NodeId,
        page: PageId,
        waiters: Vec<ThreadId>,
        started: SimTime,
        end: SimTime,
    ) -> Result<(), SimError> {
        // New notices may have arrived while fetching; keep going.
        let (missing, need_base) = self.missing_for(n, page);
        if !missing.is_empty() || need_base {
            let (end2, _) =
                self.send_fetch_requests(n, page, &missing, need_base, end, false, false);
            let outstanding = self.count_requests(&missing, need_base, page);
            self.nodes[n].fetches.insert(
                page,
                Fetch {
                    outstanding,
                    waiters,
                    collected: Vec::new(),
                    base: None,
                    base_pending: need_base,
                    started,
                    joined: false,
                },
            );
            let _ = end2;
            return Ok(());
        }

        self.validate_page(n, page);
        self.nodes[n].counters.miss_latency_sum += end.saturating_since(started);
        if let Some((begin, cls)) = self.tracer.take_fault(n as u32, page.index() as u32) {
            let thread = waiters.first().map_or(NO_THREAD, |t| t.0 as u32);
            self.tracer.emit(
                end,
                n as u32,
                thread,
                begin,
                TraceEvent::FaultEnd {
                    page: page.index() as u32,
                    class: cls,
                },
            );
        }
        for tid in waiters {
            self.wake(tid, end)?;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Networking
    // ------------------------------------------------------------------

    /// Sends a protocol message; returns false if the network dropped
    /// it. Only droppable (prefetch) traffic can be dropped: it
    /// travels as fire-and-forget datagrams. Everything else rides
    /// the reliable transport — sequenced, acknowledged, and
    /// retransmitted until delivered (or the retry budget aborts the
    /// run).
    fn post(&mut self, at: SimTime, src: NodeId, dst: NodeId, body: MsgBody) -> bool {
        self.note_sent(src, dst, at);
        // One allocation per logical message: the transport's
        // retransmit buffer, every wire frame (including fault-plan
        // duplicates), and the receive path all share this Arc.
        let body = Arc::new(body);
        if body.droppable() {
            let outcome = self.net.send(
                at,
                src,
                dst,
                body.wire_bytes() as u32,
                Reliability::Droppable,
                body.kind(),
            );
            let send_id = self.tracer.emit(
                at,
                src as u32,
                NO_THREAD,
                NO_CAUSE,
                TraceEvent::MsgSend {
                    kind: body.kind_code(),
                    peer: dst as u32,
                    seq: 0,
                    bytes: body.wire_bytes() as u32,
                    retransmit: false,
                },
            );
            let dup = outcome.dup_time();
            let delivered = outcome.arrival_time().is_some();
            for arrival in outcome.arrival_time().into_iter().chain(dup) {
                self.queue.push(
                    arrival,
                    Event::Arrival(Packet {
                        src,
                        dst,
                        frame: Frame::Datagram { body: body.clone() },
                        cause: send_id,
                    }),
                );
            }
            delivered
        } else {
            let (seq, rto) = self.transport.register(src, dst, body.clone(), at);
            self.transmit_data(at, src, dst, seq, body, rto, false);
            true
        }
    }

    /// Puts one sequenced data frame on the wire and arms its retry
    /// timer. The caller has already charged the send cost. The frame
    /// itself may still be lost or duplicated by the fault plan; the
    /// timer covers the loss case and the receiver's transport
    /// suppresses the duplicate case.
    #[allow(clippy::too_many_arguments)]
    fn transmit_data(
        &mut self,
        at: SimTime,
        src: NodeId,
        dst: NodeId,
        seq: u64,
        body: Arc<MsgBody>,
        rto: rsdsm_simnet::SimDuration,
        retransmit: bool,
    ) {
        self.note_sent(src, dst, at);
        let outcome = self.net.send(
            at,
            src,
            dst,
            body.wire_bytes() as u32,
            Reliability::Reliable,
            body.kind(),
        );
        let cause = if retransmit {
            self.tracer.first_send(src as u32, dst as u32, seq)
        } else {
            NO_CAUSE
        };
        let send_id = self.tracer.emit(
            at,
            src as u32,
            NO_THREAD,
            cause,
            TraceEvent::MsgSend {
                kind: body.kind_code(),
                peer: dst as u32,
                seq,
                bytes: body.wire_bytes() as u32,
                retransmit,
            },
        );
        if !retransmit {
            self.tracer
                .note_first_send(src as u32, dst as u32, seq, send_id);
        }
        let dup = outcome.dup_time();
        for arrival in outcome.arrival_time().into_iter().chain(dup) {
            self.queue.push(
                arrival,
                Event::Arrival(Packet {
                    src,
                    dst,
                    frame: Frame::Data {
                        seq,
                        body: body.clone(),
                    },
                    cause: send_id,
                }),
            );
        }
        self.queue
            .push(at + rto, Event::RetryTimeout { src, dst, seq });
    }

    /// Acknowledges data frame `seq` from `src`, received at `n`.
    ///
    /// The ack enters the network `ack_process` after `at`, bypassing
    /// the node's CPU queue (kernel-level processing); the CPU cost is
    /// still booked against the node's account.
    fn send_ack(&mut self, n: NodeId, src: NodeId, seq: u64, at: SimTime) -> SimTime {
        self.charge(
            n,
            at,
            self.cfg.costs.ack_process,
            Category::DsmOverhead,
            None,
        );
        let end = at + self.cfg.costs.ack_process;
        self.note_sent(n, src, end);
        self.transport.note_ack_sent();
        // Acks are single-shot: a lost ack provokes a retransmission,
        // which provokes a fresh ack. The fault plan may still drop
        // or duplicate them (class `Ack`).
        let outcome = self.net.send(
            end,
            n,
            src,
            self.cfg.transport.ack_bytes,
            Reliability::Reliable,
            "ack",
        );
        let send_id = self.tracer.emit(
            end,
            n as u32,
            NO_THREAD,
            NO_CAUSE,
            TraceEvent::MsgSend {
                kind: kind::ACK,
                peer: src as u32,
                seq,
                bytes: self.cfg.transport.ack_bytes,
                retransmit: false,
            },
        );
        let dup = outcome.dup_time();
        for arrival in outcome.arrival_time().into_iter().chain(dup) {
            self.queue.push(
                arrival,
                Event::Arrival(Packet {
                    src: n,
                    dst: src,
                    frame: Frame::Ack { seq },
                    cause: send_id,
                }),
            );
        }
        end
    }

    /// Handles a fired retransmission timer: lazily discards it if the
    /// frame was acked, otherwise charges a fresh send and puts the
    /// frame back on the wire with its backed-off timeout.
    fn on_retry_timeout(
        &mut self,
        src: NodeId,
        dst: NodeId,
        seq: u64,
        now: SimTime,
    ) -> Result<(), SimError> {
        match self.transport.on_timeout(src, dst, seq) {
            TimeoutAction::Cancelled => Ok(()),
            TimeoutAction::Exhausted { attempts } => {
                // With recovery off this is fatal, as it always was.
                // The manager is unrecoverable either way: it hosts
                // the coordination state recovery itself needs. A cut
                // severing the path to it is the one exception — the
                // frame parks and re-arms at the heal.
                if !self.cfg.recovery.enabled
                    || (dst == MANAGER && !self.net.link_cut(now, src, dst))
                {
                    return Err(SimError::Transport(format!(
                        "frame n{src}->n{dst} seq {seq} unacknowledged after {attempts} transmissions (gave up at {now})"
                    )));
                }
                // Recovery on: park the frame and hand the peer to
                // the failure detector. The frame re-arms when the
                // peer is cleared or rejoins.
                self.recov.parked_frames.push((src, dst, seq));
                self.recov.stats.frames_parked += 1;
                self.tracer.emit(
                    now,
                    src as u32,
                    NO_THREAD,
                    self.tracer.first_send(src as u32, dst as u32, seq),
                    TraceEvent::FrameParked {
                        peer: dst as u32,
                        seq,
                    },
                );
                self.raise_suspicion(src, dst, now);
                Ok(())
            }
            TimeoutAction::Retransmit { body, rto } => {
                let idle = self.idle_reason(src);
                let end = self.charge(
                    src,
                    now,
                    self.cfg.costs.msg_send,
                    Category::DsmOverhead,
                    idle,
                );
                self.tracer.emit(
                    now,
                    src as u32,
                    NO_THREAD,
                    self.tracer.first_send(src as u32, dst as u32, seq),
                    TraceEvent::TransportRetry {
                        peer: dst as u32,
                        seq,
                        rto_ns: rto.as_nanos(),
                    },
                );
                self.transmit_data(end, src, dst, seq, body, rto, true);
                Ok(())
            }
        }
    }
}

/// Builds the authoritative final memory image: for every page, the
/// home node's copy plus every diff it has not incorporated (in
/// happens-before order), plus any still-open modifications.
fn materialize(heap: &Heap, nodes: &[NodeState], mem: &[NodeMem]) -> Vec<Page> {
    let total_pages = heap.page_count();
    let mut out = Vec::with_capacity(total_pages);
    for p in 0..total_pages {
        let page = PageId::new(p as u32);
        let home = heap.home(page);
        let mut data = mem[home].pages[p].data.clone();

        let applied: std::collections::HashSet<(usize, u32)> =
            nodes[home].board.applied_for(page).into_iter().collect();

        // Closed intervals not yet incorporated at the home.
        let mut pendings: Vec<(Arc<IntervalRecord>, &Diff)> = Vec::new();
        for node in nodes {
            if node.id == home {
                continue;
            }
            for rec in node.known_intervals.of_origin_touching(node.id, page) {
                let seq = rec.seq();
                if applied.contains(&(node.id, seq)) {
                    continue;
                }
                if let Some(diff) = node.own_diffs.get(&(p, seq)) {
                    pendings.push((rec, &**diff));
                }
            }
        }
        pendings.sort_by(|(a, _), (b, _)| a.stamp.topo_cmp(&b.stamp));
        for (_, diff) in pendings {
            diff.apply(&mut data);
        }

        // Open (never-closed) modifications are the latest by program
        // order; apply them last.
        for (m, node_mem) in mem.iter().enumerate() {
            if m == home {
                continue;
            }
            let entry = &node_mem.pages[p];
            if let Some(twin) = &entry.twin {
                Diff::between(twin, &entry.data).apply(&mut data);
            }
        }
        // The home's own open modifications are already in its data.
        out.push(data);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heap::HomePolicy;

    /// Builds a minimal cluster state for materialize(): 2 nodes, one
    /// page homed on node 0.
    fn tiny_cluster() -> (Heap, Vec<NodeState>, Vec<NodeMem>) {
        let mut heap = Heap::new(2);
        let _v: crate::heap::SharedVec<u64> = heap.alloc(512, HomePolicy::Single(0));
        let nodes = vec![NodeState::new(0, 2, 1), NodeState::new(1, 2, 1)];
        let mem = vec![NodeMem::new(1, |_| true), NodeMem::new(1, |_| false)];
        (heap, nodes, mem)
    }

    #[test]
    fn materialize_uses_home_copy() {
        let (heap, nodes, mut mem) = tiny_cluster();
        mem[0].pages[0].data.write_u64(0, 77);
        let pages = materialize(&heap, &nodes, &mem);
        assert_eq!(pages[0].read_u64(0), 77);
    }

    #[test]
    fn materialize_applies_unincorporated_closed_diffs() {
        let (heap, mut nodes, mut mem) = tiny_cluster();
        mem[0].pages[0].data.write_u64(0, 1);

        // Node 1 closed an interval writing offset 8 = 42.
        let mut twin = Page::new();
        twin.write_u64(0, 1);
        let mut data = twin.clone();
        data.write_u64(8, 42);
        let diff = Diff::between(&twin, &data);
        nodes[1].vc.tick(1);
        let stamp = nodes[1].vc.clone();
        nodes[1].own_diffs.insert((0, 1), Arc::new(diff));
        nodes[1].known_intervals.learn(&Arc::new(IntervalRecord {
            origin: 1,
            stamp,
            pages: vec![PageId::new(0)],
        }));

        let pages = materialize(&heap, &nodes, &mem);
        assert_eq!(pages[0].read_u64(0), 1, "home bytes preserved");
        assert_eq!(pages[0].read_u64(8), 42, "closed diff applied");
    }

    #[test]
    fn materialize_skips_diffs_already_incorporated_at_home() {
        let (heap, mut nodes, mut mem) = tiny_cluster();
        // Home already applied node 1's interval: data has the NEW
        // value; the diff would "re-apply" an identical value, but a
        // *later* home-local overwrite must not be clobbered.
        mem[0].pages[0].data.write_u64(8, 99); // newer than the diff below

        let twin = Page::new();
        let mut data = Page::new();
        data.write_u64(8, 42);
        let diff = Diff::between(&twin, &data);
        nodes[1].vc.tick(1);
        let stamp = nodes[1].vc.clone();
        nodes[1].own_diffs.insert((0, 1), Arc::new(diff));
        nodes[1].known_intervals.learn(&Arc::new(IntervalRecord {
            origin: 1,
            stamp,
            pages: vec![PageId::new(0)],
        }));
        // Mark it applied at the home.
        nodes[0].board.mark_applied(PageId::new(0), 1, 1);

        let pages = materialize(&heap, &nodes, &mem);
        assert_eq!(pages[0].read_u64(8), 99, "incorporated diff not re-applied");
    }

    #[test]
    fn materialize_applies_open_twins_last() {
        let (heap, nodes, mut mem) = tiny_cluster();
        // Node 1 has an open interval: twin captures the pre-state,
        // data has uncommitted writes.
        let twin = Page::new();
        let mut data = Page::new();
        data.write_u64(16, 5);
        mem[1].pages[0].twin = Some(Arc::new(twin));
        mem[1].pages[0].data = data;

        let pages = materialize(&heap, &nodes, &mem);
        assert_eq!(pages[0].read_u64(16), 5, "open writes visible");
    }
}
