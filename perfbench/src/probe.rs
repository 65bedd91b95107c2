//! Outside-in probes around one simulation cell.
//!
//! [`Probe`] wraps an application in a pass-through [`DsmProgram`]
//! that timestamps the entry and exit of `allocate`, `run` and
//! `verify`. In a traced run it also reads each thread's on-CPU
//! nanoseconds from `/proc/thread-self/schedstat` at `run` entry and
//! exit, and the engine thread's (the thread that calls
//! `Simulation::run`) at the first app entry and the last app exit.
//! Nothing inside the simulator is instrumented.
//!
//! `schedstat` runtime is brought up to date at scheduler events and
//! ticks, so a read of a thread that is on a CPU can lag by up to one
//! scheduler tick. The engine thread is blocked at the last app exit
//! (app threads and the engine take turns), so only its reading at
//! the first app entry can lag.

use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use rsdsm_apps::{
    Benchmark, FftApp, LuApp, LuLayout, OceanApp, RadixApp, Scale, SorApp, WaterNsqApp, WaterSpApp,
};
use rsdsm_core::{
    DsmCtx, DsmProgram, Heap, RunReport, SimError, Simulation, TraceEvent, VerifyCtx,
};

use crate::workload::Cell;

/// How a cell is run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Tracing off: only the timestamps `setup_s` needs.
    Plain,
    /// `Simulation::run_traced`, plus the on-CPU split when
    /// `cpu_split` is set.
    Traced {
        /// Read `schedstat` at the layer boundaries.
        cpu_split: bool,
    },
}

/// On-CPU time of one cell's engine loop, split by side.
#[derive(Debug, Clone, Copy)]
pub struct CpuSplit {
    /// The engine thread, from the first app entry to the last app
    /// exit.
    pub engine: Duration,
    /// All app threads, each from its `run` entry to its exit.
    pub apps: Duration,
}

/// Host-time layer spans of one cell that ran to completion.
#[derive(Debug, Clone, Copy)]
pub struct Layers {
    /// `DsmProgram::allocate` (heap layout).
    pub allocate: Duration,
    /// `allocate` exit to the first app thread entering `run`
    /// (`NodeMem`, channels, OS-thread spawn, engine start).
    pub spawn: Duration,
    /// First app `run` entry to last app `run` exit.
    pub app_loop: Duration,
    /// Last app `run` exit to `Simulation::run` returning
    /// (engine wind-down, materialize, verify, report fold).
    pub teardown: Duration,
    /// `DsmProgram::verify`.
    pub verify: Duration,
    /// The loop's on-CPU split; `None` when not measured.
    pub cpu: Option<CpuSplit>,
}

impl Layers {
    /// Loop wall time left over after both sides' CPU: handoff waits
    /// and scheduling, negative where the two sides overlap.
    pub fn conductor_idle_s(&self) -> Option<f64> {
        self.cpu
            .map(|c| self.app_loop.as_secs_f64() - c.engine.as_secs_f64() - c.apps.as_secs_f64())
    }
}

/// Everything measured about one run of one cell.
#[derive(Debug)]
pub struct CellRun {
    /// The simulator's result.
    pub result: Result<Box<RunReport>, SimError>,
    /// `LockRequest` records in the trace (traced runs only).
    pub lock_requests: Option<u64>,
    /// Host wall time of the `Simulation::run` call.
    pub wall: Duration,
    /// Process CPU (user + system, all threads) during the call.
    pub process_cpu: Duration,
    /// `Simulation::run` entry to the first app thread entering `run`.
    pub setup: Option<Duration>,
    /// The full split; `None` unless every app thread returned.
    pub layers: Option<Layers>,
}

/// On-CPU nanoseconds of a thread: the first field of its `schedstat`.
fn schedstat_ns(path: &Path) -> Option<u64> {
    std::fs::read_to_string(path)
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

const THREAD_SCHEDSTAT: &str = "/proc/thread-self/schedstat";

fn own_cpu_ns() -> u64 {
    schedstat_ns(Path::new(THREAD_SCHEDSTAT)).unwrap_or(0)
}

/// Checks that per-thread on-CPU time can be read and advances.
///
/// # Errors
///
/// Says why the CPU split cannot be measured.
pub fn cpu_split_available() -> Result<(), String> {
    let path = Path::new(THREAD_SCHEDSTAT);
    let before = schedstat_ns(path).ok_or_else(|| format!("{THREAD_SCHEDSTAT} is missing"))?;
    // Spin past a few scheduler ticks so the runtime field must move.
    let start = Instant::now();
    while start.elapsed() < Duration::from_millis(30) {
        std::hint::spin_loop();
    }
    match schedstat_ns(path) {
        Some(after) if after > before => Ok(()),
        _ => Err(format!(
            "{THREAD_SCHEDSTAT} does not advance (scheduler statistics are off)"
        )),
    }
}

/// The calling thread's `schedstat`, addressed so other threads can
/// read it.
fn calling_thread_schedstat() -> Option<PathBuf> {
    let task = std::fs::read_link("/proc/thread-self").ok()?;
    Some(Path::new("/proc").join(task).join("schedstat"))
}

/// Linux reports `/proc/<pid>/stat` times in USER_HZ ticks, which the
/// kernel ABI fixes at 100 per second.
const USER_HZ: u64 = 100;

/// User + system CPU of the whole process, exited threads included.
pub(crate) fn process_cpu() -> Duration {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime
    // are fields 14 and 15 of the line, 12 and 13 after the name.
    let ticks: u64 = stat
        .rsplit_once(')')
        .map(|(_, rest)| {
            rest.split_whitespace()
                .skip(11)
                .take(2)
                .filter_map(|f| f.parse::<u64>().ok())
                .sum()
        })
        .unwrap_or(0);
    Duration::from_nanos(ticks * (1_000_000_000 / USER_HZ))
}

/// Peak resident set size of the process (`VmHWM`), in KiB.
pub(crate) fn peak_rss_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

#[derive(Debug, Default)]
struct Marks {
    allocate: Option<(Instant, Instant)>,
    first_entry: Option<Instant>,
    last_exit: Option<Instant>,
    verify: Option<(Instant, Instant)>,
    engine_cpu_at_entry: u64,
    engine_cpu_at_exit: u64,
    apps_cpu_ns: u64,
    exits: usize,
}

/// A pass-through [`DsmProgram`] that records layer boundaries.
struct Probe<'a, P> {
    app: &'a P,
    threads: usize,
    /// The engine thread's `schedstat` when the CPU split is on.
    engine: Option<PathBuf>,
    marks: Mutex<Marks>,
}

impl<P> Probe<'_, P> {
    fn marks(&self) -> std::sync::MutexGuard<'_, Marks> {
        self.marks
            .lock()
            .expect("probe marks: an app thread panicked while recording")
    }
}

impl<P: DsmProgram> DsmProgram for Probe<'_, P> {
    type Handles = P::Handles;

    fn name(&self) -> String {
        self.app.name()
    }

    fn allocate(&self, heap: &mut Heap) -> Self::Handles {
        let start = Instant::now();
        let handles = self.app.allocate(heap);
        self.marks().allocate = Some((start, Instant::now()));
        handles
    }

    fn run(&self, ctx: &mut DsmCtx, handles: &Self::Handles) {
        let entered = Instant::now();
        let cpu_split = self.engine.as_deref();
        {
            let mut m = self.marks();
            if m.first_entry.is_none() {
                m.first_entry = Some(entered);
                if let Some(engine) = cpu_split {
                    m.engine_cpu_at_entry = schedstat_ns(engine).unwrap_or(0);
                }
            }
        }
        let cpu_in = cpu_split.map(|_| own_cpu_ns());
        self.app.run(ctx, handles);
        let cpu_out = cpu_in.map(|cpu_in| own_cpu_ns().saturating_sub(cpu_in));
        let mut m = self.marks();
        m.apps_cpu_ns += cpu_out.unwrap_or(0);
        m.exits += 1;
        if m.exits == self.threads {
            if let Some(engine) = cpu_split {
                m.engine_cpu_at_exit = schedstat_ns(engine).unwrap_or(0);
            }
            m.last_exit = Some(Instant::now());
        }
    }

    fn verify(&self, mem: &VerifyCtx, handles: &Self::Handles) -> bool {
        let start = Instant::now();
        let ok = self.app.verify(mem, handles);
        self.marks().verify = Some((start, Instant::now()));
        ok
    }
}

/// Binds `$app` to the concrete application of a `(Benchmark, Scale)`
/// pair, with the sizes `Benchmark::run` uses; the smoke test checks
/// the two agree digest for digest.
macro_rules! with_app {
    ($bench:expr, $scale:expr, |$app:ident| $body:expr) => {{
        let test = match $scale {
            Scale::Test => true,
            Scale::Default => false,
            Scale::Paper => unreachable!("no workload runs at paper scale"),
        };
        match $bench {
            Benchmark::Fft => {
                let $app = if test {
                    FftApp::new(10)
                } else {
                    FftApp::default_scale()
                };
                $body
            }
            Benchmark::LuNcont => {
                let $app = if test {
                    LuApp::new(64, 16, LuLayout::NonContiguous)
                } else {
                    LuApp::default_ncont()
                };
                $body
            }
            Benchmark::LuCont => {
                let $app = if test {
                    LuApp::new(64, 16, LuLayout::Contiguous)
                } else {
                    LuApp::default_cont()
                };
                $body
            }
            Benchmark::Ocean => {
                let $app = if test {
                    OceanApp::new(34, 2)
                } else {
                    OceanApp::default_scale()
                };
                $body
            }
            Benchmark::Radix => {
                let $app = if test {
                    RadixApp::new(1 << 11, 12, 6)
                } else {
                    RadixApp::default_scale()
                };
                $body
            }
            Benchmark::Sor => {
                let $app = if test {
                    SorApp::new(64, 64, 3)
                } else {
                    SorApp::default_scale()
                };
                $body
            }
            Benchmark::WaterNsq => {
                let $app = if test {
                    WaterNsqApp::new(48, 2)
                } else {
                    WaterNsqApp::default_scale()
                };
                $body
            }
            Benchmark::WaterSp => {
                let $app = if test {
                    WaterSpApp::new(96, 2)
                } else {
                    WaterSpApp::default_scale()
                };
                $body
            }
        }
    }};
}

/// Runs one cell on the calling thread and measures it.
pub fn run_cell(cell: &Cell, mode: Mode) -> CellRun {
    with_app!(cell.bench, cell.scale, |app| measure(&app, cell, mode))
}

fn measure<P: DsmProgram>(app: &P, cell: &Cell, mode: Mode) -> CellRun {
    let probe = Probe {
        app,
        threads: cell.cfg.total_threads(),
        engine: match mode {
            Mode::Traced { cpu_split: true } => calling_thread_schedstat(),
            _ => None,
        },
        marks: Mutex::new(Marks::default()),
    };
    let sim = Simulation::new(cell.cfg.clone());
    let cpu_before = process_cpu();
    let start = Instant::now();
    let outcome = match mode {
        Mode::Plain => sim.run(&probe).map(|r| (r, None)),
        Mode::Traced { .. } => sim.run_traced(&probe).map(|(r, t)| (r, Some(t))),
    };
    let end = Instant::now();
    let process_cpu = process_cpu().saturating_sub(cpu_before);
    let (result, lock_requests) = match outcome {
        Ok((report, trace)) => {
            let locks = trace.map(|t| {
                t.records
                    .iter()
                    .filter(|r| matches!(r.event, TraceEvent::LockRequest { .. }))
                    .count() as u64
            });
            (Ok(Box::new(report)), locks)
        }
        Err(e) => (Err(e), None),
    };
    let m = probe.marks.into_inner().expect("probe marks poisoned");
    let setup = m.first_entry.map(|t| t - start);
    let layers = match (m.allocate, m.first_entry, m.last_exit, m.verify) {
        (Some((a0, a1)), Some(first), Some(last), Some((v0, v1))) => Some(Layers {
            allocate: a1 - a0,
            spawn: first - a1,
            app_loop: last - first,
            teardown: end - last,
            verify: v1 - v0,
            cpu: probe.engine.as_ref().map(|_| CpuSplit {
                engine: Duration::from_nanos(
                    m.engine_cpu_at_exit.saturating_sub(m.engine_cpu_at_entry),
                ),
                apps: Duration::from_nanos(m.apps_cpu_ns),
            }),
        }),
        _ => None,
    };
    CellRun {
        result,
        lock_requests,
        wall: end - start,
        process_cpu,
        setup,
        layers,
    }
}
