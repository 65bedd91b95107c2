//! The benchmark's workloads: fixed lists of simulation cells, each
//! configured from the `--seed` argument alone.

use rsdsm_apps::{Benchmark, Scale};
use rsdsm_bench::{ExpOpts, Variant};
use rsdsm_core::{DsmConfig, NodeCrash};
use rsdsm_simnet::{SimDuration, SimTime};

/// One simulation: an application at a problem size under one
/// configuration.
#[derive(Debug, Clone)]
pub struct Cell {
    /// The application.
    pub bench: Benchmark,
    /// The paper's technique variant layered on the workload's base
    /// configuration.
    pub variant: Variant,
    /// Problem size.
    pub scale: Scale,
    /// The generated configuration the simulator receives.
    pub cfg: DsmConfig,
}

impl Cell {
    /// A short human-readable name, e.g. `RADIX 4T @64`.
    pub fn label(&self) -> String {
        format!(
            "{} {} @{}",
            self.bench,
            self.variant.label(),
            self.cfg.nodes
        )
    }

    /// The panic message of a known application defect this cell
    /// runs into: RADIX sizes its histogram for at most 64 threads,
    /// so with more it fails its own assertion. The cell stays in its
    /// workload so the defect shows in `cell_pass_ratio`; the
    /// benchmark checks that it fails in exactly this way (or, once
    /// fixed, verifies).
    pub fn known_defect(&self) -> Option<&'static str> {
        (self.bench == Benchmark::Radix && self.cfg.total_threads() > 64)
            .then_some("histogram sized for at most 64 threads")
    }
}

/// A named workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's 8-node ATM cluster at the default scale: all eight
    /// applications under O, P, 4T and 4TP, fault-free.
    Paper8,
    /// 64 nodes on the flat bus at the test scale: all eight
    /// applications under O and 4T, fault-free.
    Scale64,
    /// 8 nodes at the default scale under 2% uniform loss and a
    /// crash-restart of node 3, with persisted checkpoints: all eight
    /// applications under O and 4TP.
    Faults8,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [Workload::Paper8, Workload::Scale64, Workload::Faults8];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Paper8 => "paper8",
            Workload::Scale64 => "scale64",
            Workload::Faults8 => "faults8",
        }
    }

    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's cells for `seed`, application-major. The seed
    /// reaches the simulator only through the generated
    /// configurations: the network's congestion-drop lottery and, on
    /// faults8, the loss plan (derived as `ExpOpts::base_config`
    /// derives it).
    pub fn cells(self, seed: u64) -> Vec<Cell> {
        let mut opts = ExpOpts {
            seed,
            ..ExpOpts::default()
        };
        let variants: &[Variant] = match self {
            Workload::Paper8 => &[
                Variant::Original,
                Variant::Prefetch,
                Variant::Threads(4),
                Variant::Combined(4),
            ],
            Workload::Scale64 => {
                opts.nodes = 64;
                opts.scale = Scale::Test;
                &[Variant::Original, Variant::Threads(4)]
            }
            Workload::Faults8 => {
                opts.fault_loss = 0.02;
                opts.crashes = vec![NodeCrash {
                    node: 3,
                    at: SimTime::ZERO + SimDuration::from_millis(50),
                    restart_after: Some(SimDuration::from_millis(20)),
                }];
                opts.checkpoint_every = 2;
                opts.persist = true;
                &[Variant::Original, Variant::Combined(4)]
            }
        };
        let base = opts.base_config();
        Benchmark::ALL
            .into_iter()
            .flat_map(|bench| variants.iter().map(move |&variant| (bench, variant)))
            .map(|(bench, variant)| Cell {
                bench,
                variant,
                scale: opts.scale,
                cfg: variant.config_on(bench, base.clone()),
            })
            .collect()
    }
}
