//! The benchmark binary.
//!
//! Usage: `rsdsm-perfbench --workload <paper8|scale64|faults8> [--seed N]
//! [--seconds S] [--trace 0|1]`
//!
//! Runs passes over the workload's cells until `--seconds` would be
//! exceeded (at least one pass). With `--trace 0` every pass is
//! untraced and the result line carries the end-to-end metrics; with
//! `--trace 1` untraced and traced passes alternate and it carries
//! the per-layer metrics. A human-readable summary goes to standard
//! error; the last line of standard output is the JSON result.

use std::collections::HashSet;
use std::process::ExitCode;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use rsdsm_perfbench::cpu;
use rsdsm_perfbench::probe::{cpu_split_available, Mode};
use rsdsm_perfbench::workload::Workload;
use rsdsm_perfbench::{check, end_to_end, per_layer, result_json, run_pass, Pass};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1998;
    let mut seconds = 10;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::from_name(&value).ok_or_else(bad)?),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value.parse().ok().filter(|&s| s > 0).ok_or_else(bad)?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Prints each distinct panic message once: a failing cell panics in
/// every one of its app threads (256 in the RADIX 4T @64 cell), and
/// every pass repeats it.
fn install_panic_dedup() {
    let seen = Mutex::new(HashSet::new());
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let key = info.to_string();
        if seen.lock().map(|mut s| s.insert(key)).unwrap_or(true) {
            default(info);
        }
    }));
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: rsdsm-perfbench --workload <paper8|scale64|faults8> [--seed N] \
                 [--seconds S] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    install_panic_dedup();
    let cpus = match cpu::allowed_cpus().and_then(|c| cpu::pin_to(c[0]).map(|()| c)) {
        Ok(cpus) => {
            eprintln!("each cell runs on the least busy of CPUs {cpus:?}");
            cpus
        }
        Err(why) => {
            eprintln!("note: running unpinned ({why}); host times are not comparable");
            Vec::new()
        }
    };
    let cells = args.workload.cells(args.seed);
    let cpu_split = args.trace
        && match cpu_split_available() {
            Ok(()) => true,
            Err(why) => {
                eprintln!("note: {why}; the on-CPU split (engine/apps/conductor) is omitted");
                false
            }
        };

    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut plain: Vec<Pass> = Vec::new();
    let mut traced: Vec<Pass> = Vec::new();
    let mut rounds = 0u32;
    loop {
        let pass_start = Instant::now();
        plain.push(run_pass(&cells, Mode::Plain, &cpus));
        eprintln!(
            "  pass {rounds} untraced: {:.3} s",
            pass_start.elapsed().as_secs_f64()
        );
        if args.trace {
            let pass_start = Instant::now();
            traced.push(run_pass(&cells, Mode::Traced { cpu_split }, &cpus));
            eprintln!(
                "  pass {rounds} traced: {:.3} s",
                pass_start.elapsed().as_secs_f64()
            );
        }
        rounds += 1;
        // Stop before a round that would overrun the budget.
        let elapsed = start.elapsed();
        if elapsed + elapsed / rounds > budget {
            break;
        }
    }

    let all: Vec<&Pass> = plain.iter().chain(&traced).collect();
    let verdict = check(&cells, &all);
    let metrics = if args.trace {
        per_layer(&cells, &plain, &traced, cpu_split)
    } else {
        end_to_end(&cells, &plain, &verdict)
    };

    eprintln!(
        "perfbench {} seed {}: {} cells x {} rounds{} in {:.1} s; {}/{} cells verified, \
         {} of {} runs failed",
        args.workload.name(),
        args.seed,
        cells.len(),
        rounds,
        if args.trace {
            " (untraced + traced)"
        } else {
            ""
        },
        start.elapsed().as_secs_f64(),
        verdict.cells_verified,
        cells.len(),
        verdict.failed,
        verdict.attempted,
    );
    eprintln!(
        "  the reference kernel took {:.3}x its nominal time (median over untraced runs); \
         host times below are in reference seconds",
        rsdsm_perfbench::host_slowdown(&plain)
    );
    for note in &verdict.notes {
        eprintln!("  {note}");
    }
    for m in &metrics {
        eprintln!("  {:<36} {:>16.6} {}", m.name, m.value, m.unit);
    }
    if args.trace {
        let get = |name| metrics.iter().find(|m| m.name == name).map(|m| m.value);
        eprintln!(
            "  layer split reconciled on {} runs (tolerance {:?})",
            verdict.reconciled,
            rsdsm_perfbench::RECONCILE_TOLERANCE
        );
        if let (Some(lp), Some(e), Some(a), Some(i)) = (
            get("engine.loop_wall_s"),
            get("engine.cpu_s"),
            get("apps.cpu_s"),
            get("conductor.idle_s"),
        ) {
            eprintln!(
                "  loop shares: engine {:.1}%, apps {:.1}%, conductor idle {:.1}%",
                100.0 * e / lp,
                100.0 * a / lp,
                100.0 * i / lp
            );
        }
    }
    println!(
        "workload={} seed={} digest={:016x}",
        args.workload.name(),
        args.seed,
        verdict.digest
    );
    println!("{}", result_json(&verdict, &metrics));
    ExitCode::SUCCESS
}
