//! Failure paths of the scheduler: when a simulation fails (an actor
//! panics, every live actor is parked, or a simulation is dropped
//! without running), every actor thread must observe the failure and
//! exit, wherever it was waiting. Each actor closure owns a drop guard
//! that counts its exit; the tests bound the wait for the full count in
//! wall time, so a thread left waiting on its condition variable fails
//! the test instead of hanging it.

use gvfs_netsim::{park, sleep, spawn_from_actor, Sim};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Counts one exit when the actor's closure is dropped: after it ran to
/// completion, unwound, or was discarded without ever being scheduled.
struct ExitGuard(Arc<AtomicUsize>);

impl Drop for ExitGuard {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

const WAITERS: usize = 64;

/// Spawns `WAITERS` actors: even ones park forever, odd ones sleep for a
/// virtual hour at a time, so failures find threads blocked both ways.
fn spawn_waiters(sim: &Sim, exits: &Arc<AtomicUsize>) {
    for i in 0..WAITERS {
        let guard = ExitGuard(Arc::clone(exits));
        sim.spawn(&format!("waiter-{i}"), move || {
            let _guard = guard;
            if i % 2 == 0 {
                park();
            } else {
                loop {
                    sleep(Duration::from_secs(3600));
                }
            }
        });
    }
}

fn run_expecting_panic(sim: Sim) -> String {
    let err = catch_unwind(AssertUnwindSafe(move || sim.run())).expect_err("run must panic");
    err.downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default()
}

fn wait_for_exits(exits: &AtomicUsize, expected: usize) {
    let deadline = Instant::now() + Duration::from_secs(20);
    while exits.load(Ordering::SeqCst) < expected {
        assert!(
            Instant::now() < deadline,
            "only {} of {expected} actor threads exited after the failure",
            exits.load(Ordering::SeqCst)
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(exits.load(Ordering::SeqCst), expected);
}

#[test]
fn actor_panic_releases_every_waiting_thread() {
    const UNSCHEDULED: usize = 8;
    let exits = Arc::new(AtomicUsize::new(0));
    let sim = Sim::new();
    spawn_waiters(&sim, &exits);
    let guard = ExitGuard(Arc::clone(&exits));
    let child_exits = Arc::clone(&exits);
    sim.spawn("bad", move || {
        let _guard = guard;
        sleep(Duration::from_millis(1));
        // Children that are registered but never get to run before the
        // failure: they wait in the first-schedule path.
        for c in 0..UNSCHEDULED {
            let g = ExitGuard(Arc::clone(&child_exits));
            spawn_from_actor(&format!("child-{c}"), move || {
                let _g = g;
                sleep(Duration::from_secs(1));
            });
        }
        panic!("boom");
    });
    let msg = run_expecting_panic(sim);
    assert!(msg.contains("actor 'bad' panicked: boom"), "unexpected failure: {msg}");
    wait_for_exits(&exits, WAITERS + 1 + UNSCHEDULED);
}

#[test]
fn deadlock_releases_every_parked_thread() {
    let exits = Arc::new(AtomicUsize::new(0));
    let sim = Sim::new();
    for i in 0..WAITERS {
        let guard = ExitGuard(Arc::clone(&exits));
        sim.spawn(&format!("parker-{i}"), move || {
            let _guard = guard;
            sleep(Duration::from_millis(i as u64 % 7));
            park();
        });
    }
    let msg = run_expecting_panic(sim);
    assert!(msg.contains("deadlock"), "unexpected failure: {msg}");
    wait_for_exits(&exits, WAITERS);
}

#[test]
fn dropping_an_unrun_sim_releases_every_thread() {
    let exits = Arc::new(AtomicUsize::new(0));
    {
        let sim = Sim::new();
        spawn_waiters(&sim, &exits);
    }
    wait_for_exits(&exits, WAITERS);
}
