//! # rsdsm-perfbench
//!
//! The simulator's benchmark: seeded workloads of simulation cells,
//! run back to back on one thread (a closed loop with one client),
//! measured end to end with tracing off and layer by layer in a
//! separate traced run. See `README.md` for the workloads, the metric
//! definitions and which layer should move which end-to-end metric.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cpu;
pub mod probe;
pub mod reference;
pub mod workload;

use std::time::Duration;

use rsdsm_core::{fnv1a, fnv1a_extend, Category, Histogram, RunReport, SimError};

use probe::{run_cell, CellRun, Mode};
use workload::Cell;

/// Largest allowed |wall − (setup + engine CPU + app CPU + conductor
/// idle + teardown)| per cell. The wall-clock segments are contiguous
/// readings of one monotonic clock, so only float rounding remains.
pub const RECONCILE_TOLERANCE: Duration = Duration::from_micros(1);

/// One pass over a workload's cells, in order.
#[derive(Debug)]
pub struct Pass {
    /// One run per cell.
    pub runs: Vec<CellRun>,
    /// Process `VmHWM` after the pass, in KiB.
    pub peak_rss_kib: u64,
    /// What the host did around each cell's run.
    pub host: Vec<HostSample>,
}

/// What the host did around one cell run.
#[derive(Debug, Clone, Copy)]
pub struct HostSample {
    /// The reference kernel's time right before the run, on the CPU
    /// the cell ran on.
    pub reference: Duration,
    /// Time the hypervisor ran something else on that CPU during the
    /// run (its `steal` in `/proc/stat`); zero when unpinned.
    pub stolen: Duration,
}

/// Runs every cell once, one at a time, on the calling thread.
///
/// With `cpus` not empty, each cell runs pinned to the allowed CPU on
/// which the reference kernel ran fastest just before it: a CPU that
/// another process keeps busy is left to that process.
///
/// # Panics
///
/// Panics if pinning fails; `cpu::pin_to` should be tried once before.
pub fn run_pass(cells: &[Cell], mode: Mode, cpus: &[usize]) -> Pass {
    let mut host = Vec::with_capacity(cells.len());
    let runs = cells
        .iter()
        .map(|c| {
            let (cpu, reference) = pick_cpu(cpus);
            let steal_before = cpu.and_then(cpu::steal);
            let run = run_cell(c, mode);
            let stolen = match (steal_before, cpu.and_then(cpu::steal)) {
                (Some(before), Some(after)) => after.saturating_sub(before),
                _ => Duration::ZERO,
            };
            host.push(HostSample { reference, stolen });
            run
        })
        .collect();
    Pass {
        runs,
        peak_rss_kib: probe::peak_rss_kib(),
        host,
    }
}

/// Times the reference kernel on each of `cpus`, leaves the calling
/// thread pinned to the fastest and returns that CPU and the kernel's
/// time there (with `cpus` empty, times it once, unpinned).
fn pick_cpu(cpus: &[usize]) -> (Option<usize>, Duration) {
    let pin = |cpu: usize| {
        if let Err(why) = cpu::pin_to(cpu) {
            panic!("pinning to CPU {cpu} stopped working: {why}");
        }
    };
    let Some((cpu, time)) = cpus
        .iter()
        .map(|&cpu| {
            pin(cpu);
            (cpu, reference::kernel())
        })
        .min_by_key(|&(_, t)| t)
    else {
        return (None, reference::kernel());
    };
    pin(cpu);
    (Some(cpu), time)
}

/// A named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
    /// A deterministic count or simulated quantity that must repeat
    /// exactly for a given seed (host times are false).
    pub exact: bool,
}

fn host(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name,
        unit,
        value,
        exact: false,
    }
}

fn exact(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name,
        unit,
        value,
        exact: true,
    }
}

/// The correctness verdict over every run of a benchmark invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Verdict {
    /// Cell runs attempted.
    pub attempted: u64,
    /// Cell runs that failed: an unexpected `SimError`, an unverified
    /// result, or a cell whose digest or trace counts differ between
    /// runs.
    pub failed: u64,
    /// Cells (not runs) that returned a verified report.
    pub cells_verified: usize,
    /// Every cell's report digest (or error text) folded in order.
    pub digest: u64,
    /// Runs whose layer split was checked against their wall time.
    pub reconciled: u64,
    /// True when nothing failed and every traced cell reconciled.
    pub correct: bool,
    /// Why anything failed, one line each.
    pub notes: Vec<String>,
}

/// What one run of a cell is compared by across runs.
fn fingerprint(run: &CellRun) -> Result<(u64, Option<u64>, Option<Histogram>), String> {
    match &run.result {
        Ok(r) => Ok((
            r.digest(),
            run.lock_requests,
            r.trace.as_ref().map(|t| t.fault_service.clone()),
        )),
        Err(e) => Err(e.to_string()),
    }
}

/// Checks every run of every cell: each verifies (or fails exactly as
/// its known defect does), and all runs of a cell, traced or not,
/// agree on the report digest; traced runs also agree on the
/// trace-derived counts.
pub fn check(cells: &[Cell], passes: &[&Pass]) -> Verdict {
    let mut v = Verdict {
        attempted: 0,
        failed: 0,
        cells_verified: 0,
        digest: fnv1a(b"rsdsm-perfbench"),
        reconciled: 0,
        correct: true,
        notes: Vec::new(),
    };
    for (i, cell) in cells.iter().enumerate() {
        let runs: Vec<&CellRun> = passes.iter().map(|p| &p.runs[i]).collect();
        v.attempted += runs.len() as u64;
        let mut bad = None;
        match &runs[0].result {
            Ok(r) if r.verified => v.cells_verified += 1,
            Ok(_) => bad = Some("result did not verify".to_string()),
            Err(SimError::AppThread(msg))
                if cell.known_defect().is_some_and(|d| msg.contains(d)) => {}
            Err(e) => bad = Some(format!("failed: {e}")),
        }
        let first = fingerprint(runs[0]);
        v.digest = match &first {
            Ok((d, _, _)) => fnv1a_extend(v.digest, &d.to_le_bytes()),
            Err(e) => fnv1a_extend(v.digest, e.as_bytes()),
        };
        for run in &runs[1..] {
            let same = match (&first, fingerprint(run)) {
                (Ok((d0, l0, h0)), Ok((d, l, h))) => {
                    *d0 == d
                        && (l0.is_none() || l.is_none() || *l0 == l)
                        && (h0.is_none() || h.is_none() || *h0 == h)
                }
                (Err(e0), Err(e)) => *e0 == e,
                _ => false,
            };
            if !same && bad.is_none() {
                bad = Some("runs of the same code disagree (digest or trace counts)".into());
            }
        }
        for run in &runs {
            if let Some(residual) = reconcile_residual(run) {
                v.reconciled += 1;
                if residual > RECONCILE_TOLERANCE.as_secs_f64() {
                    v.correct = false;
                    v.notes.push(format!(
                        "{}: layer split misses the cell wall time by {:.3} us",
                        cell.label(),
                        residual * 1e6
                    ));
                }
            }
        }
        if let Some(why) = bad {
            v.failed += runs.len() as u64;
            v.notes.push(format!("{}: {why}", cell.label()));
        }
    }
    v.correct &= v.failed == 0;
    v
}

/// |wall − (setup + engine CPU + app CPU + conductor idle + teardown)|
/// for a cell whose CPU split was measured.
fn reconcile_residual(run: &CellRun) -> Option<f64> {
    let l = run.layers?;
    let cpu = l.cpu?;
    let parts = run.setup?.as_secs_f64()
        + cpu.engine.as_secs_f64()
        + cpu.apps.as_secs_f64()
        + l.conductor_idle_s()?
        + l.teardown.as_secs_f64();
    Some((run.wall.as_secs_f64() - parts).abs())
}

/// Median of `values` (the mean of the middle two for an even count);
/// `None` when empty.
fn median(mut values: Vec<f64>) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    Some(if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    })
}

/// How many times slower than [`reference::NOMINAL`] the reference
/// kernel ran right before a cell run.
fn slowdown(host: &HostSample) -> f64 {
    host.reference.as_secs_f64() / reference::NOMINAL.as_secs_f64()
}

/// Median [`slowdown`] over every cell run of `passes`: how many
/// times slower than nominal the host ran during them.
pub fn host_slowdown(passes: &[Pass]) -> f64 {
    median(
        passes
            .iter()
            .flat_map(|p| p.host.iter().map(slowdown))
            .collect(),
    )
    .unwrap_or(0.0)
}

/// Sum over cells of each cell's median across `passes` of the host
/// time `f`, in reference seconds (each run's time divided by the
/// [`slowdown`] measured right before it): a typical pass at nominal
/// host speed, robust to a disturbance that hits one cell in one pass.
fn host_median_sum(passes: &[Pass], f: impl Fn(&CellRun, &HostSample) -> Option<f64>) -> f64 {
    let cells = passes.first().map_or(0, |p| p.runs.len());
    (0..cells)
        .filter_map(|i| {
            median(
                passes
                    .iter()
                    .filter_map(|p| f(&p.runs[i], &p.host[i]).map(|t| t / slowdown(&p.host[i])))
                    .collect(),
            )
        })
        .sum()
}

/// [`host_median_sum`] of a time that depends on the run alone.
fn cell_median_sum(passes: &[Pass], f: impl Fn(&CellRun) -> Option<f64>) -> f64 {
    host_median_sum(passes, |r, _| f(r))
}

/// A run's wall time less the time the hypervisor stole from its CPU.
fn unstolen_wall(run: &CellRun, host: &HostSample) -> Option<f64> {
    Some(run.wall.saturating_sub(host.stolen).as_secs_f64())
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The reports of a pass's cells that returned `Ok`.
fn reports(pass: &Pass) -> impl Iterator<Item = &RunReport> {
    pass.runs.iter().filter_map(|r| r.result.as_deref().ok())
}

/// The end-to-end metrics, from untraced passes.
pub fn end_to_end(cells: &[Cell], plain: &[Pass], verdict: &Verdict) -> Vec<Metric> {
    let secs = |d: Duration| Some(d.as_secs_f64());
    let sim_time: f64 = reports(&plain[0]).map(|r| r.total_time.as_secs_f64()).sum();
    let peak_kib = median(plain.iter().map(|p| p.peak_rss_kib as f64).collect()).unwrap_or(0.0);
    vec![
        host("wall_s", "s", host_median_sum(plain, unstolen_wall)),
        host(
            "cpu_s",
            "s",
            cell_median_sum(plain, |r| secs(r.process_cpu)),
        ),
        host(
            "setup_s",
            "s",
            cell_median_sum(plain, |r| r.setup.map(|d| d.as_secs_f64())),
        ),
        host("peak_rss_mib", "MiB", peak_kib / 1024.0),
        exact("sim_time_s", "sim_s", sim_time),
        exact(
            "cell_pass_ratio",
            "ratio",
            ratio(verdict.cells_verified as f64, cells.len() as f64),
        ),
    ]
}

/// Fraction of all simulated node time in each accounting category.
fn accounting(pass: &Pass) -> [f64; 6] {
    let mut total = rsdsm_core::Breakdown::new();
    for r in reports(pass) {
        total.accumulate(&r.breakdown);
    }
    let norm = total.normalized_to_self();
    Category::ALL.map(|c| norm.fraction(c))
}

/// Upper bound of the power-of-two bucket holding quantile `q`
/// (clamped to the largest value), in the histogram's unit.
fn bucket_quantile(h: &Histogram, q: f64) -> u64 {
    if h.count() == 0 {
        return 0;
    }
    let rank = ((q * h.count() as f64).ceil() as u64).max(1);
    let mut seen = 0;
    for (i, &n) in h.buckets().iter().enumerate() {
        seen += n;
        if seen >= rank {
            let upper = if i == 0 { 0 } else { (1u128 << i) - 1 };
            return (upper as u64).min(h.max());
        }
    }
    h.max()
}

/// The per-layer metrics: host time from `traced` passes (medians per
/// cell, summed), exact counts from the first traced pass, and the
/// tracing overhead against the `plain` passes. Host CPU metrics are
/// left out when `cpu_split` is false.
pub fn per_layer(cells: &[Cell], plain: &[Pass], traced: &[Pass], cpu_split: bool) -> Vec<Metric> {
    let secs = |d: Duration| d.as_secs_f64();
    let layer = |f: &dyn Fn(&probe::Layers) -> Option<f64>| {
        cell_median_sum(traced, |r| r.layers.as_ref().and_then(f))
    };
    let first = &traced[0];
    let sum = |f: &dyn Fn(&RunReport) -> u64| -> u64 { reports(first).map(f).sum() };
    let sum_s = |f: &dyn Fn(&RunReport) -> f64| -> f64 { reports(first).map(f).sum() };

    let lock_acquires: u64 = first.runs.iter().filter_map(|r| r.lock_requests).sum();
    let barrier_arrivals = sum(&|r| r.barriers.events * r.config.threads.threads_per_node as u64);
    let blocking_calls = sum(&|r| r.misses.faults) + lock_acquires + barrier_arrivals;
    let events = sum(&|r| r.events_processed);
    let engine_cpu = layer(&|l| l.cpu.map(|c| secs(c.engine)));
    let apps_cpu = layer(&|l| l.cpu.map(|c| secs(c.apps)));
    let idle = layer(&|l| l.conductor_idle_s());

    let mut fault_service = Histogram::new();
    for r in reports(first) {
        if let Some(t) = &r.trace {
            fault_service.merge(&t.fault_service);
        }
    }
    let msgs = sum(&|r| r.net.total_msgs);
    let data_frames = sum(&|r| r.transport.data_frames);
    let retx = sum(&|r| r.transport.retransmissions);
    let misses = sum(&|r| r.misses.misses);
    let (covered, pf_total) = reports(first).fold((0, 0), |(c, t), r| {
        let p = &r.prefetch;
        let covered = p.hits + p.too_late + p.invalidated;
        (c + covered, t + covered + p.no_pf)
    });
    let pf_calls = sum(&|r| r.prefetch.calls);
    let run_lengths = sum(&|r| r.mt.run_length_count);
    let [busy, dsm, mem_idle, sync_idle, pf_overhead, mt_overhead] = accounting(first);

    let untraced_wall = host_median_sum(plain, unstolen_wall);
    let traced_wall = host_median_sum(traced, unstolen_wall);

    let mut out = vec![
        host("setup.allocate_s", "s", layer(&|l| Some(secs(l.allocate)))),
        host("setup.spawn_s", "s", layer(&|l| Some(secs(l.spawn)))),
        exact(
            "conductor.os_threads",
            "count",
            cells.iter().map(|c| c.cfg.total_threads() as f64).sum(),
        ),
        host("apps.verify_s", "s", layer(&|l| Some(secs(l.verify)))),
        host(
            "engine.loop_wall_s",
            "s",
            layer(&|l| Some(secs(l.app_loop))),
        ),
        exact("conductor.blocking_calls", "count", blocking_calls as f64),
        exact("engine.events", "count", events as f64),
        host("teardown.wall_s", "s", layer(&|l| Some(secs(l.teardown)))),
        host("tracing.overhead_s", "s", traced_wall - untraced_wall),
        host("host.slowdown", "ratio", host_slowdown(plain)),
        host(
            "host.stolen_s",
            "s",
            (0..cells.len())
                .filter_map(|i| median(plain.iter().map(|p| secs(p.host[i].stolen)).collect()))
                .sum(),
        ),
        host(
            "host.wall_raw_s",
            "s",
            (0..cells.len())
                .filter_map(|i| median(plain.iter().map(|p| secs(p.runs[i].wall)).collect()))
                .sum(),
        ),
        exact("simnet.msgs", "count", msgs as f64),
        exact("simnet.bytes", "bytes", sum(&|r| r.net.total_bytes) as f64),
        exact("simnet.drops", "count", sum(&|r| r.net.drops) as f64),
        exact(
            "simnet.mean_queue_delay_us",
            "sim_us",
            ratio(
                sum_s(&|r| r.net.mean_queue_delay.as_secs_f64() * r.net.total_msgs as f64),
                msgs as f64,
            ) * 1e6,
        ),
        exact(
            "simnet.max_queue_delay_us",
            "sim_us",
            reports(first)
                .map(|r| r.net.max_queue_delay.as_secs_f64() * 1e6)
                .fold(0.0, f64::max),
        ),
        exact("transport.data_frames", "count", data_frames as f64),
        exact("transport.retransmissions", "count", retx as f64),
        exact(
            "transport.spurious_timeouts",
            "count",
            sum(&|r| r.transport.spurious_timeouts) as f64,
        ),
        exact(
            "transport.dup_frames_suppressed",
            "count",
            sum(&|r| r.transport.dup_frames_suppressed) as f64,
        ),
        exact(
            "transport.retx_per_frame",
            "ratio",
            ratio(retx as f64, data_frames as f64),
        ),
        exact("protocol.faults", "count", sum(&|r| r.misses.faults) as f64),
        exact("protocol.misses", "count", misses as f64),
        exact(
            "protocol.miss_latency_us",
            "sim_us",
            ratio(
                sum_s(&|r| r.misses.latency_sum.as_secs_f64()),
                misses as f64,
            ) * 1e6,
        ),
        exact(
            "protocol.fault_service_us_p50",
            "sim_us",
            bucket_quantile(&fault_service, 0.50) as f64 / 1e3,
        ),
        exact(
            "protocol.fault_service_us_p99",
            "sim_us",
            bucket_quantile(&fault_service, 0.99) as f64 / 1e3,
        ),
        exact("lock.acquires", "count", lock_acquires as f64),
        exact(
            "lock.stall_s",
            "sim_s",
            sum_s(&|r| r.locks.stall_sum.as_secs_f64()),
        ),
        exact("barrier.arrivals", "count", barrier_arrivals as f64),
        exact(
            "barrier.stall_s",
            "sim_s",
            sum_s(&|r| r.barriers.stall_sum.as_secs_f64()),
        ),
        exact("prefetch.calls", "count", pf_calls as f64),
        exact(
            "prefetch.messages",
            "count",
            sum(&|r| r.prefetch.messages) as f64,
        ),
        exact(
            "prefetch.coverage",
            "ratio",
            ratio(covered as f64, pf_total as f64),
        ),
        exact(
            "prefetch.unnecessary_frac",
            "ratio",
            ratio(sum(&|r| r.prefetch.unnecessary) as f64, pf_calls as f64),
        ),
        exact(
            "prefetch.reply_drops",
            "count",
            sum(&|r| r.prefetch.reply_drops) as f64,
        ),
        exact("thread.switches", "count", sum(&|r| r.mt.switches) as f64),
        exact(
            "thread.avg_run_length_us",
            "sim_us",
            ratio(
                sum_s(&|r| r.mt.run_length_sum.as_secs_f64()),
                run_lengths as f64,
            ) * 1e6,
        ),
        exact(
            "checkpoint.count",
            "count",
            sum(&|r| r.recovery.checkpoints_taken) as f64,
        ),
        exact(
            "checkpoint.bytes",
            "bytes",
            sum(&|r| r.recovery.checkpoint_bytes) as f64,
        ),
        exact(
            "persist.bytes",
            "bytes",
            sum(&|r| r.recovery.persist_bytes) as f64,
        ),
        exact(
            "persist.fences",
            "count",
            sum(&|r| r.recovery.fences) as f64,
        ),
        exact(
            "recovery.recoveries",
            "count",
            sum(&|r| r.recovery.recoveries) as f64,
        ),
        exact(
            "recovery.false_suspicions",
            "count",
            sum(&|r| r.recovery.false_suspicions) as f64,
        ),
        exact("accounting.busy_frac", "ratio", busy),
        exact("accounting.dsm_overhead_frac", "ratio", dsm),
        exact("accounting.mem_idle_frac", "ratio", mem_idle),
        exact("accounting.sync_idle_frac", "ratio", sync_idle),
        exact("accounting.prefetch_overhead_frac", "ratio", pf_overhead),
        exact("accounting.mt_overhead_frac", "ratio", mt_overhead),
    ];
    if cpu_split {
        out.extend([
            host("apps.cpu_s", "s", apps_cpu),
            host("conductor.idle_s", "s", idle),
            host(
                "conductor.idle_per_call_us",
                "us",
                ratio(idle, blocking_calls as f64) * 1e6,
            ),
            host("engine.cpu_s", "s", engine_cpu),
            host(
                "engine.cpu_per_event_ns",
                "ns",
                ratio(engine_cpu, events as f64) * 1e9,
            ),
            host(
                "engine.cpu_per_blocking_call_us",
                "us",
                ratio(engine_cpu, blocking_calls as f64) * 1e6,
            ),
        ]);
    }
    out
}

/// The benchmark's result line: one JSON object with exactly the keys
/// `correct`, `attempted`, `failed` and `metrics`.
pub fn result_json(verdict: &Verdict, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            // JSON has no NaN or infinity; a non-finite value is a
            // benchmark bug, reported as such rather than printed.
            assert!(m.value.is_finite(), "metric {} is {}", m.name, m.value);
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        verdict.correct,
        verdict.attempted,
        verdict.failed,
        body.join(", ")
    )
}
