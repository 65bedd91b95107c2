//! A fixed reference kernel that measures the host's current speed.
//!
//! On a shared virtual machine the same instructions take a different
//! time from one minute to the next, by a quarter or more, and each
//! virtual CPU drifts on its own. The benchmark runs this kernel on
//! the same CPU right before every cell and states host times in
//! reference seconds: a cell's time divided by how much slower than
//! [`NOMINAL`] the kernel ran around it.
//!
//! The kernel is the benchmark's own code and calls nothing in the
//! simulator, so a change to the simulator cannot change it. It mixes
//! what a cell does on the host: fresh memory faulted in and written
//! at scattered places (page copies and diffs), hash-map inserts and
//! look-ups (engine tables), dependent floating-point arithmetic (app
//! kernels) and channel round trips with a second thread on the same
//! CPU (the app-engine handoff).

use std::collections::HashMap;
use std::hint::black_box;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// The kernel's time on a host of nominal speed. A host time of `t`
/// measured where the kernel took `k` is reported as
/// `t × NOMINAL / k` reference seconds. The value only scales the
/// numbers; it is about the kernel's time on the machine the
/// benchmark was tuned on, so reference seconds there read close to
/// seconds.
pub const NOMINAL: Duration = Duration::from_millis(7);

/// Runs the kernel once on the calling thread and returns its wall
/// time.
pub fn kernel() -> Duration {
    let start = Instant::now();
    black_box(memory());
    black_box(table());
    black_box(arithmetic());
    handoffs();
    start.elapsed()
}

/// Scattered writes over 2 MiB of freshly allocated memory.
fn memory() -> u64 {
    const WORDS: usize = 1 << 18;
    let mut v = vec![0u64; WORDS];
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    for i in 0..(WORDS as u64) {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let at = (x >> 46) as usize;
        v[at] = v[at].wrapping_add(i);
    }
    v.iter().fold(0, |a, &w| a ^ w)
}

/// Inserts and looks up keys in a growing hash map.
fn table() -> u64 {
    let mut map = HashMap::new();
    let mut sum = 0u64;
    for i in 0..20_000u64 {
        map.insert(i.wrapping_mul(0x9E37_79B9), i);
        sum = sum.wrapping_add(*map.get(&(i / 2).wrapping_mul(0x9E37_79B9)).unwrap_or(&0));
    }
    sum
}

/// Four dependent multiply-add chains.
fn arithmetic() -> f64 {
    let mut acc = [1.0f64, 0.5, 0.25, 0.125];
    for i in 0..600_000 {
        let x = f64::from(i & 1023) * 1e-3;
        for a in &mut acc {
            *a = *a * 0.999_999 + x;
        }
    }
    acc.iter().sum()
}

/// Round trips over a pair of channels with a thread spawned here,
/// which inherits the calling thread's CPU affinity.
fn handoffs() {
    const TRIPS: u32 = 300;
    let (to_peer, from_us) = mpsc::channel::<u32>();
    let (to_us, from_peer) = mpsc::channel::<u32>();
    let peer = std::thread::spawn(move || {
        while let Ok(n) = from_us.recv() {
            if to_us.send(n + 1).is_err() {
                break;
            }
        }
    });
    let mut n = 0;
    for _ in 0..TRIPS {
        to_peer.send(n).expect("reference peer is alive");
        n = from_peer.recv().expect("reference peer replies");
    }
    drop(to_peer);
    peer.join().expect("reference peer exits cleanly");
    assert_eq!(n, TRIPS);
}
