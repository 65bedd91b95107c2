//! Smoke test of the benchmark's own code, at a seed held out from the
//! published runs (which use the default seed, 1998).
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`
//! (about a minute and a half on two cores; a debug build is far slower).

use std::process::Command;

use rsdsm_apps::{Benchmark, Scale};
use rsdsm_bench::Variant;
use rsdsm_core::DsmConfig;
use rsdsm_perfbench::probe::{cpu_split_available, run_cell, Mode};
use rsdsm_perfbench::workload::{Cell, Workload};
use rsdsm_perfbench::{check, end_to_end, per_layer, run_pass, Metric};

const SEED: u64 = 7;

/// `(name, unit)` of every entry `BENCHMARK.json` lists under `key`.
fn listed(key: &str) -> Vec<(String, Option<String>)> {
    let text = include_str!("../../BENCHMARK.json");
    let start = text.find(&format!("\"{key}\"")).expect("section present");
    let section = &text[start..];
    let section = &section[..section.find(']').expect("section closes")];
    let field = |entry: &str, key: &str| {
        let tag = format!("\"{key}\": \"");
        entry.find(&tag).map(|i| {
            entry[i + tag.len()..]
                .split('"')
                .next()
                .unwrap_or("")
                .to_string()
        })
    };
    section
        .split('{')
        .skip(1)
        .map(|entry| {
            (
                field(entry, "name").expect("entry has a name"),
                field(entry, "unit"),
            )
        })
        .collect()
}

fn named(metrics: &[Metric]) -> Vec<(String, Option<String>)> {
    let mut v: Vec<_> = metrics
        .iter()
        .map(|m| (m.name.to_string(), Some(m.unit.to_string())))
        .collect();
    v.sort();
    v
}

fn sorted(mut v: Vec<(String, Option<String>)>) -> Vec<(String, Option<String>)> {
    v.sort();
    v
}

#[test]
fn workload_names_match_the_benchmark_file() {
    let names: Vec<_> = listed("workloads").into_iter().map(|(n, _)| n).collect();
    let ours: Vec<_> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(names, ours);
}

#[test]
fn probe_runs_the_suite_programs_unchanged() {
    for bench in Benchmark::ALL {
        for scale in [Scale::Test, Scale::Default] {
            let cfg = DsmConfig::paper_cluster(4).with_seed(SEED);
            let cell = Cell {
                bench,
                variant: Variant::Original,
                scale,
                cfg: cfg.clone(),
            };
            let probed = run_cell(&cell, Mode::Plain)
                .result
                .expect("probed run succeeds");
            let suite = bench.run(scale, cfg).expect("suite run succeeds");
            assert_eq!(
                probed.digest(),
                suite.digest(),
                "{bench} at {scale:?}: the benchmark's program differs from Benchmark::run's"
            );
        }
    }
}

/// One untraced and two traced passes: every cell verifies (the known
/// defect fails exactly as documented), every listed metric prints with
/// its unit, and every exact metric repeats between the traced passes.
fn smoke(workload: Workload) {
    let cells = workload.cells(SEED);
    let cpu_split = cpu_split_available().is_ok();
    let plain = run_pass(&cells, Mode::Plain, &[]);
    let traced_a = run_pass(&cells, Mode::Traced { cpu_split }, &[]);
    let traced_b = run_pass(&cells, Mode::Traced { cpu_split }, &[]);

    let verdict = check(&cells, &[&plain, &traced_a, &traced_b]);
    assert!(verdict.correct, "{workload:?}: {:?}", verdict.notes);
    assert_eq!(verdict.failed, 0);
    let defects = cells.iter().filter(|c| c.known_defect().is_some()).count();
    assert_eq!(verdict.cells_verified, cells.len() - defects);
    if cpu_split {
        assert_eq!(verdict.reconciled, 2 * (cells.len() - defects) as u64);
    }

    let plain = [plain];
    let e2e = end_to_end(&cells, &plain, &verdict);
    assert_eq!(named(&e2e), sorted(listed("end_to_end")));
    assert!(e2e.iter().all(|m| m.value > 0.0), "{e2e:?}");

    let a = per_layer(&cells, &plain, &[traced_a], cpu_split);
    let b = per_layer(&cells, &plain, &[traced_b], cpu_split);
    let mut want = sorted(listed("per_layer"));
    if !cpu_split {
        want.retain(|(n, _)| a.iter().any(|m| m.name == n));
    }
    assert_eq!(named(&a), want);
    for (x, y) in a.iter().zip(&b) {
        if x.exact {
            assert_eq!(x.value, y.value, "{workload:?}: {} does not repeat", x.name);
        }
    }
    let value = |name| {
        a.iter()
            .find(|m| m.name == name)
            .expect("metric present")
            .value
    };
    let checkpoints = value("checkpoint.count") + value("persist.bytes");
    assert_eq!(checkpoints > 0.0, workload == Workload::Faults8);
}

#[test]
fn smoke_paper8() {
    smoke(Workload::Paper8);
}

#[test]
fn smoke_scale64() {
    smoke(Workload::Scale64);
}

#[test]
fn smoke_faults8() {
    smoke(Workload::Faults8);
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--seed", "1"],
        &["--trace", "2"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_rsdsm-perfbench"))
            .args(args)
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
