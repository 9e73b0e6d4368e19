//! Scheduler determinism: a fixed program of actors that sleep, park,
//! park with a timeout, unpark each other (banking permits when the
//! target is not parked) and spawn children must produce the same
//! `(time, actor, event)` log on every run and on every scheduler
//! implementation that keeps the documented decision rule (minimum
//! virtual clock first, ties by spawn order).
//!
//! The golden log `golden/sched_determinism.log` pins the exact event
//! order, so a change to how actors are woken that leaks into *which*
//! actor runs next fails here even when every higher-level result
//! happens to survive. The property test then checks that random
//! programs of the same shape replay identically.

use gvfs_netsim::{park, park_timeout, sleep, spawn_from_actor, ActorHandle, Sim};
use parking_lot::Mutex;
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// One step of an actor's script.
#[derive(Debug, Clone)]
enum Op {
    Sleep(u64),
    Park,
    ParkTimeout(u64),
    /// Unparks the actor at this index (modulo the registry length).
    Unpark(usize),
    /// Spawns a child running this script.
    Spawn(Vec<Op>),
}

/// splitmix64: enough randomness to build scripts, and stable forever.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn script(&mut self, len: usize, may_spawn: bool) -> Vec<Op> {
        (0..len)
            .map(|_| match self.below(if may_spawn { 6 } else { 5 }) {
                0 => Op::Sleep(self.below(12)), // 0 ms exercises tie-breaks
                1 => Op::Park,
                2 => Op::ParkTimeout(1 + self.below(25)),
                3 => Op::Unpark(self.below(64) as usize),
                4 => Op::Sleep(1 + self.below(4)),
                _ => {
                    let n = 1 + self.below(3) as usize;
                    Op::Spawn(self.script(n, false))
                }
            })
            .collect()
    }
}

/// Builds `actors` scripts of `ops` steps each from `seed`.
fn program(seed: u64, actors: usize, ops: usize) -> Vec<Vec<Op>> {
    let mut g = Gen(seed);
    (0..actors).map(|_| g.script(ops, true)).collect()
}

#[derive(Clone)]
struct World {
    log: Arc<Mutex<Vec<String>>>,
    registry: Arc<Mutex<Vec<ActorHandle>>>,
    /// Script actors not yet finished; the waker stops at zero.
    live: Arc<AtomicUsize>,
}

impl World {
    fn record(&self, actor: &str, event: &str) {
        let t = gvfs_netsim::now().as_nanos();
        self.log.lock().push(format!("{t:>12} {actor} {event}"));
    }
}

fn run_script(world: World, name: String, script: Vec<Op>) {
    world.record(&name, "start");
    let mut children = 0;
    for op in script {
        match op {
            Op::Sleep(ms) => {
                sleep(Duration::from_millis(ms));
                world.record(&name, &format!("slept {ms}"));
            }
            Op::Park => {
                park();
                world.record(&name, "parked");
            }
            Op::ParkTimeout(ms) => {
                let unparked = park_timeout(Duration::from_millis(ms));
                world.record(&name, &format!("park_timeout {ms} -> {unparked}"));
            }
            Op::Unpark(k) => {
                let target = {
                    let reg = world.registry.lock();
                    reg[k % reg.len()].clone()
                };
                target.unpark();
                world.record(&name, &format!("unpark {k}"));
            }
            Op::Spawn(child) => {
                children += 1;
                let child_name = format!("{name}.{children}");
                world.record(&name, &format!("spawn {child_name}"));
                world.live.fetch_add(1, Ordering::SeqCst);
                let w = world.clone();
                let cn = child_name.clone();
                let h = spawn_from_actor(&child_name, move || run_script(w, cn, child));
                world.registry.lock().push(h);
            }
        }
    }
    world.record(&name, "end");
    world.live.fetch_sub(1, Ordering::SeqCst);
}

/// Runs `scripts` plus a waker actor that unparks every registered
/// actor every 5 ms of virtual time until all scripts finish, so a plain
/// `park` can never deadlock the program. Returns the event log and the
/// final virtual time.
fn run_program(scripts: &[Vec<Op>]) -> (Vec<String>, u64) {
    let world = World {
        log: Arc::new(Mutex::new(Vec::new())),
        registry: Arc::new(Mutex::new(Vec::new())),
        live: Arc::new(AtomicUsize::new(scripts.len())),
    };
    let sim = Sim::new();
    {
        let w = world.clone();
        sim.spawn("waker", move || {
            let mut round = 0u32;
            while w.live.load(Ordering::SeqCst) > 0 {
                sleep(Duration::from_millis(5));
                round += 1;
                let targets: Vec<ActorHandle> = w.registry.lock().clone();
                for t in &targets {
                    t.unpark();
                }
                w.record("waker", &format!("round {round} unparked {}", targets.len()));
            }
        });
    }
    for (i, script) in scripts.iter().enumerate() {
        let name = format!("a{i:02}");
        let w = world.clone();
        let s = script.clone();
        let n = name.clone();
        let h = sim.spawn(&name, move || run_script(w, n, s));
        world.registry.lock().push(h);
    }
    let end = sim.run().as_nanos();
    let log = world.log.lock().clone();
    (log, end)
}

const GOLDEN: &str = include_str!("golden/sched_determinism.log");

#[test]
fn fixed_program_matches_golden_log() {
    let (log, end) = run_program(&program(0x5eed_0013, 32, 10));
    let mut actual = log.join("\n");
    actual.push_str(&format!("\nend {end}\n"));
    if actual != GOLDEN {
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("sched_determinism.log");
        std::fs::write(&path, &actual).expect("write actual log");
        let first = actual.lines().zip(GOLDEN.lines()).position(|(a, g)| a != g);
        panic!(
            "scheduler event log diverged from the golden (first differing line: {first:?}); \
             actual log written to {}",
            path.display()
        );
    }
}

#[test]
fn golden_program_exercises_every_primitive() {
    // Guards against a regenerated golden that silently lost coverage.
    for needle in
        ["parked", "park_timeout", "-> true", "-> false", "unpark", "spawn", "slept 0", ".1 end"]
    {
        assert!(GOLDEN.contains(needle), "golden log never shows {needle:?}");
    }
    assert!(GOLDEN.lines().filter(|l| l.ends_with(" start")).count() > 32);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_programs_replay_identically(
        seed in any::<u64>(),
        actors in 1usize..12,
        ops in 1usize..10,
    ) {
        let scripts = program(seed, actors, ops);
        let first = run_program(&scripts);
        let second = run_program(&scripts);
        prop_assert_eq!(first, second);
    }
}
