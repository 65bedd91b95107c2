//! The parallel scheduler's determinism contract, pinned end to end:
//! fanning simulation cells across worker threads must change
//! *nothing* about their results — not the report digests, not the
//! RTR1 trace bytes — because every cell is a pure function of its
//! config and owns all of its state. `rsdsm_bench::pool::run` only
//! reorders wall-clock execution, never results (it returns them in
//! task order).
//!
//! The grid deliberately includes the stateful-looking cases: a lossy
//! run (fault injector RNG), a crash-restart run (recovery machinery),
//! and a partition+heal run (quorum freeze and checkpoint rejoin), on
//! top of the standard RADIX/FFT × O/P/2T/2TP matrix.

use rsdsm::apps::{Benchmark, Scale};
use rsdsm::core::{
    AdaptiveConfig, DsmConfig, FaultPlan, NodeCrash, Partition, PrefetchConfig, RecoveryConfig,
    TransportConfig,
};
use rsdsm::oracle::Technique;
use rsdsm::simnet::{SimDuration, SimTime};
use rsdsm_bench::pool;

/// One grid cell: a fully-specified config the cell runs under, plus
/// a label for failure messages.
#[derive(Clone)]
struct Cell {
    label: String,
    bench: Benchmark,
    cfg: DsmConfig,
}

fn base(nodes: usize) -> DsmConfig {
    DsmConfig::paper_cluster(nodes).with_seed(1998)
}

/// Lease parameters sized for `Scale::Test` runs (mirrors the crash
/// matrix's).
fn test_recovery() -> RecoveryConfig {
    RecoveryConfig {
        heartbeat_every: SimDuration::from_micros(200),
        lease_timeout: SimDuration::from_micros(1_000),
        confirm_grace: SimDuration::from_micros(200),
        restart_base: SimDuration::from_micros(1_000),
        restore_per_page: SimDuration::from_micros(5),
        ..RecoveryConfig::on(2)
    }
}

fn grid() -> Vec<Cell> {
    let mut cells = Vec::new();
    for bench in [Benchmark::Radix, Benchmark::Fft] {
        for tech in Technique::ALL {
            cells.push(Cell {
                label: format!("{bench} [{}]", tech.label()),
                bench,
                cfg: tech.configure(bench, base(4)),
            });
        }
    }
    // A lossy cell: the fault injector draws from its own seeded RNG,
    // which must not observe the worker count.
    cells.push(Cell {
        label: "FFT [O, 5% loss]".into(),
        bench: Benchmark::Fft,
        cfg: base(4).with_faults(FaultPlan::uniform_loss(0xFA11, 0.05)),
    });
    // A crash-restart cell: checkpoints, suspicion, park-and-resume.
    let mut outage = base(4)
        .with_recovery(test_recovery())
        .with_transport(TransportConfig {
            initial_rto: SimDuration::from_millis(1),
            max_retries: 3,
            ..TransportConfig::default()
        });
    outage.faults = outage.faults.with_node_crash(NodeCrash {
        node: 2,
        at: SimTime::from_millis(2),
        restart_after: Some(SimDuration::from_millis(20)),
    });
    cells.push(Cell {
        label: "RADIX [O, crash-restart]".into(),
        bench: Benchmark::Radix,
        cfg: outage,
    });
    // A partition+heal cell: quorum freeze, parked suspicions, and the
    // time-shifted checkpoint rejoin must all be worker-count-blind.
    let mut cut = base(4).with_recovery(test_recovery());
    cut.faults = cut.faults.with_partition(Partition::cut(
        vec![vec![2]],
        SimTime::from_millis(2),
        SimDuration::from_millis(5),
    ));
    cells.push(Cell {
        label: "RADIX [O, partition-heal]".into(),
        bench: Benchmark::Radix,
        cfg: cut,
    });
    // Adaptive-prefetch cells: the stride detectors, throttle
    // controllers, and too-late joins are per-node state inside the
    // cell, so they must be as worker-count- and backend-blind as
    // everything else.
    cells.push(Cell {
        label: "FFT [A]".into(),
        bench: Benchmark::Fft,
        cfg: base(4).with_prefetch(PrefetchConfig::adaptive()),
    });
    cells.push(Cell {
        label: "RADIX [A+P]".into(),
        bench: Benchmark::Radix,
        cfg: base(4).with_prefetch(PrefetchConfig::adaptive_static()),
    });
    cells
}

/// Runs every grid cell on `jobs` workers and returns each cell's
/// (report digest, trace digest, RTR1 byte length).
fn digests_at(jobs: usize) -> Vec<(String, u64, u64, usize)> {
    let tasks: Vec<_> = grid()
        .into_iter()
        .map(|cell| {
            move || {
                let (report, trace) = cell
                    .bench
                    .run_traced(Scale::Test, cell.cfg)
                    .unwrap_or_else(|e| panic!("{}: {e}", cell.label));
                assert!(report.verified, "{}: result corrupted", cell.label);
                (
                    cell.label,
                    report.digest(),
                    trace.digest(),
                    trace.encode().len(),
                )
            }
        })
        .collect();
    pool::run(jobs, tasks)
}

/// The whole grid digests identically at `--jobs 1` and `--jobs 8`:
/// parallel scheduling is invisible in the results.
#[test]
fn parallel_and_serial_cells_are_digest_identical() {
    let serial = digests_at(1);
    let parallel = digests_at(8);
    assert_eq!(serial.len(), parallel.len());
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(
            s, p,
            "cell diverged between jobs=1 and jobs=8 \
             (label, report digest, trace digest, RTR1 len)"
        );
    }
}

/// Oversubscription (more workers than cells, and workers racing over
/// a tiny queue) is equally invisible.
#[test]
fn oversubscribed_pool_changes_nothing() {
    let reference = digests_at(1);
    let oversubscribed = digests_at(64);
    assert_eq!(reference, oversubscribed);
}

/// Observer-freedom of the adaptive machinery, pinned at the byte
/// level: a run whose `AdaptiveConfig` is disabled must produce a
/// report that is textually identical — and therefore
/// digest-identical — to one from a build that never had the adaptive
/// module, no matter how the disabled config was arrived at. The
/// absolute digest below anchors that to the pre-adaptive history;
/// the Debug-text check catches the field ever leaking into the
/// rendering while `None`.
#[test]
fn disabled_adaptive_is_byte_transparent() {
    let plain = Benchmark::Radix
        .run(Scale::Test, base(4))
        .expect("plain RADIX");
    // Same run, but with the adaptive knob explicitly constructed and
    // switched off rather than defaulted.
    let toggled = Benchmark::Radix
        .run(
            Scale::Test,
            base(4).with_prefetch(PrefetchConfig {
                adaptive: AdaptiveConfig::off(),
                ..PrefetchConfig::off()
            }),
        )
        .expect("toggled RADIX");
    assert_eq!(plain.digest(), toggled.digest());
    let text = format!("{plain:?}");
    assert!(
        !text.contains("adaptive"),
        "disabled adaptive state leaked into the report rendering"
    );
    assert!(plain.adaptive.is_none());
    // And an enabled run renders it, so the gate is the config, not a
    // dead field.
    let on = Benchmark::Radix
        .run(
            Scale::Test,
            base(4).with_prefetch(PrefetchConfig::adaptive()),
        )
        .expect("adaptive RADIX");
    assert!(format!("{on:?}").contains("adaptive"));
    assert_ne!(on.digest(), plain.digest());
}

/// The grid's results on the binary-heap reference queue
/// (`rsdsm::simnet::HeapQueue`), one row per cell in [`grid`] order:
/// (label, report digest, RTR1 trace digest, encoded RTR1 length).
/// Recorded when the engine could still run on either queue, from a
/// run in which the heap and the timing wheel agreed on every row.
const HEAP_BACKEND_DIGESTS: [(&str, u64, u64, usize); 13] = [
    ("RADIX [O]", 0xa134c9e82745e44e, 0x249303d259b67b8e, 31063),
    ("RADIX [P]", 0xbc52e0e38819fd86, 0x51ef5dc9d33ba5ac, 29163),
    ("RADIX [2T]", 0xbb57287084657144, 0x57962b9bc60d69bd, 40634),
    ("RADIX [2TP]", 0x2417adf2070223d1, 0xf60b890b78c171e5, 41999),
    ("FFT [O]", 0x4a28b94816e279cd, 0xf84e0fffd2fce0ae, 25207),
    ("FFT [P]", 0xb05d426f6f62c010, 0xc6cd8ed51cf5c48b, 24992),
    ("FFT [2T]", 0xf2f2fe68cf737971, 0xfac0a249a4805766, 32016),
    ("FFT [2TP]", 0xedb25a9b6eac47e1, 0x96ad0d44bd8ffa81, 28280),
    (
        "FFT [O, 5% loss]",
        0x18cda58f2137fd1d,
        0xb5942c19544b9c0d,
        27080,
    ),
    (
        "RADIX [O, crash-restart]",
        0xc772c8c3b1fbad40,
        0xe673a2637aa7e32a,
        135803,
    ),
    (
        "RADIX [O, partition-heal]",
        0xa3b5c84f62fd547e,
        0x4895d8d73d72bf48,
        131084,
    ),
    ("FFT [A]", 0x99afeb882339428c, 0xfc11f5359826d876, 25273),
    ("RADIX [A+P]", 0x51256f6f2e2efbc7, 0xf2da703798db25de, 29163),
];

/// The engine's timing-wheel queue reproduces the binary-heap
/// reference's results over the whole grid — report digests, RTR1
/// trace digests, and encoded trace lengths — including the lossy,
/// crash-restart, and partition+heal cells whose event schedules are
/// the most irregular. This is the end-to-end counterpart of the
/// queue-level differential suite
/// (`crates/simnet/tests/wheel_equivalence.rs`), which pins the two
/// queues pop for pop.
#[test]
fn wheel_and_heap_backends_are_digest_identical() {
    let wheel = digests_at(4);
    assert_eq!(wheel.len(), HEAP_BACKEND_DIGESTS.len());
    for (w, &(label, report, trace, len)) in wheel.iter().zip(&HEAP_BACKEND_DIGESTS) {
        assert_eq!(
            (w.0.as_str(), w.1, w.2, w.3),
            (label, report, trace, len),
            "cell diverged from the heap-backend reference \
             (label, report digest, trace digest, RTR1 len)"
        );
    }
}
