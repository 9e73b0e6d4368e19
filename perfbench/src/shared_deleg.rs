//! `wan_shared_deleg`: twelve clients on WAN links share twelve 512-byte
//! files under `DelegationCallback` with write-back and `noac` mounts.
//!
//! Each client opens a random file and then writes it (45 %) or reads it,
//! with the chaos harness's think times (0.4–6 s) and no fault events.
//! Writes beside reads on the same files drive recalls, callbacks and the
//! proxy server's write-exclusion path; the many concurrent actors make
//! the simulator's thread handoffs the dominant wall-clock cost.
//!
//! The recorded history is judged by the chaos harness's delegation
//! oracle, and an exclusion sampler checks the server's delegation table
//! every two virtual seconds. The protocol trace buffer is not installed.

use crate::report::Report;
use crate::sim_scaling;
use crate::simrun::{self, ClientOp, Iteration, OpLog, RunCost, Timed};
use crate::trace::Tracer;
use gvfs_client::{MountOptions, NfsClient};
use gvfs_core::delegation::DelegationKind;
use gvfs_core::session::Session;
use gvfs_integration::chaos::history::{encode_tag, make_tag, FILE_LEN};
use gvfs_integration::chaos::{oracle, Event, History, ModelKind, Observation};
use gvfs_netsim::Sim;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Client machines.
pub const CLIENTS: usize = 12;
/// Shared files (`/chaos-{i}`).
pub const FILES: usize = 12;
/// Operations per client: 12 × 210 × 45 % ≈ 1130 writes per run (five
/// standard deviations above the 1000 a p99 needs under the ten-beyond
/// rule) and about 1390 reads.
pub const OPS_PER_CLIENT: usize = 210;
/// Client counts at which the traced run measures the simulator alone,
/// to show how its cost scales with concurrent actors.
const SCALING: [usize; 3] = [4, 8, 12];
/// Round trips per client there: enough that four clients' system time
/// spans many clock ticks.
const SCALING_OPS_PER_CLIENT: usize = 4 * OPS_PER_CLIENT;
/// Probability that an operation is a write.
const WRITE_SHARE: f64 = 0.45;

fn worker_seed(seed: u64, client: usize) -> u64 {
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(0x1_0000 + client as u64)
}

/// One worker: resolve the files, then open-and-read or open-and-write
/// with think times, recording every outcome in the history.
fn worker(c: &mut Timed, i: usize, seed: u64, history: &History) {
    gvfs_netsim::sleep(Duration::from_secs(2));
    let mut fhs = Vec::with_capacity(FILES);
    for f in 0..FILES {
        match c.op(ClientOp::Lookup, |cl| cl.resolve(&format!("/chaos-{f}"))) {
            Ok(fh) => fhs.push(fh),
            Err(e) => {
                c.fail(format!("client {i}: resolve chaos-{f}: {e:?}"));
                return;
            }
        }
    }
    let mut rng = StdRng::seed_from_u64(worker_seed(seed, i));
    let mut seq = 0u64;
    for _ in 0..OPS_PER_CLIENT {
        gvfs_netsim::sleep(Duration::from_millis(rng.gen_range(400u64..6000)));
        let file = rng.gen_range(0..FILES);
        let write = rng.gen_bool(WRITE_SHARE);
        let fh = fhs[file];
        if let Err(e) = c.op(ClientOp::Open, |cl| cl.open_fh(fh)) {
            c.fail(format!("client {i}: open chaos-{file}: {e:?}"));
            continue;
        }
        let started = gvfs_netsim::now();
        if write {
            seq += 1;
            let tag = make_tag(i, seq);
            let outcome = c.op(ClientOp::Write, |cl| cl.write(fh, 0, &encode_tag(tag)));
            let finished = gvfs_netsim::now();
            history.push(match outcome {
                Ok(()) => {
                    c.log.bytes_written += FILE_LEN as u64;
                    Event::WriteAcked { client: i, file, tag, started, finished }
                }
                Err(e) => {
                    c.fail(format!("client {i}: write chaos-{file}: {e:?}"));
                    Event::WriteFailed { client: i, file, tag, started, finished }
                }
            });
        } else {
            match c.op(ClientOp::Read, |cl| cl.read(fh, 0, FILE_LEN as u32)) {
                Ok(buf) => history.push(Event::Read {
                    client: i,
                    file,
                    observed: Observation::decode(&buf),
                    started,
                    finished: gvfs_netsim::now(),
                }),
                Err(e) => c.fail(format!("client {i}: read chaos-{file}: {e:?}")),
            }
        }
    }
}

/// Under delegation, checks the server's table for two concurrent
/// holders with a writer among them outside recall and write-back
/// transients, as the chaos harness does.
fn sample_exclusion(session: &Session, history: &History) {
    for snap in session.proxy_server().delegation_snapshot() {
        let holders = snap.sharers.iter().filter(|(_, k)| k.is_some()).count();
        let writers =
            snap.sharers.iter().filter(|(_, k)| matches!(k, Some(DelegationKind::Write))).count();
        if writers >= 1 && holders >= 2 && snap.recalling == 0 && snap.pending.is_none() {
            history.push(Event::ExclusionViolation {
                at: gvfs_netsim::now(),
                fh: snap.fh.fileid(),
                sharers: holders,
                writers,
            });
        }
    }
}

/// Establishes the session and creates the shared files, out of band,
/// each as [`FILE_LEN`] zero bytes.
fn establish(sim: &Sim) -> Session {
    let session =
        Session::builder(ModelKind::Delegation.session_config()).clients(CLIENTS).establish(sim);
    let vfs = session.vfs();
    let t0 = gvfs_vfs::Timestamp::from_nanos(0);
    for f in 0..FILES {
        let id = vfs.create(vfs.root(), &format!("chaos-{f}"), 0o644, t0).expect("create file");
        vfs.write(id, 0, &vec![0u8; FILE_LEN], t0).expect("initialise file");
    }
    session
}

/// One complete simulation in a fresh session.
fn iteration(seed: u64, tracer: Option<Arc<Tracer>>, rep: &mut Report) -> Iteration {
    let t = std::time::Instant::now();
    let sim = Sim::new();
    let session = Arc::new(establish(&sim));
    let setup_s = t.elapsed().as_secs_f64();
    let vfs = Arc::clone(session.vfs());

    let history = Arc::new(History::new());
    let done = Arc::new(AtomicUsize::new(0));
    let stop = Arc::new(AtomicBool::new(false));
    // Every worker's calls, and the sum of the workers' finishing times.
    let logs = Arc::new(Mutex::new((OpLog::default(), 0.0)));
    for i in 0..CLIENTS {
        let transport = session.client_transport(i);
        let root = session.root_fh();
        let (history, done, logs, tracer) =
            (Arc::clone(&history), Arc::clone(&done), Arc::clone(&logs), tracer.clone());
        sim.spawn(&format!("deleg-worker-{i}"), move || {
            let mut c = Timed::new(NfsClient::new(transport, root, MountOptions::noac()), tracer);
            worker(&mut c, i, seed, &history);
            let mut logs = logs.lock().expect("worker logs");
            logs.0.absorb(c.log);
            logs.1 += gvfs_netsim::now().as_secs_f64();
            done.fetch_add(1, Ordering::SeqCst);
        });
    }
    {
        let (session, history, stop) =
            (Arc::clone(&session), Arc::clone(&history), Arc::clone(&stop));
        sim.spawn("exclusion-sampler", move || loop {
            gvfs_netsim::park_timeout(Duration::from_secs(2));
            if stop.load(Ordering::SeqCst) {
                return;
            }
            sample_exclusion(&session, &history);
        });
    }
    {
        let (done, stop, handle) = (Arc::clone(&done), Arc::clone(&stop), session.handle());
        sim.spawn("closer", move || {
            while done.load(Ordering::SeqCst) < CLIENTS {
                gvfs_netsim::park_timeout(Duration::from_secs(1));
            }
            stop.store(true, Ordering::SeqCst);
            handle.shutdown();
        });
    }
    let cost = RunCost::measure(sim);
    let (log, finish_sum) = std::mem::take(&mut *logs.lock().expect("worker logs"));

    let final_tags: Vec<Observation> = (0..FILES)
        .map(|f| {
            let id = vfs.lookup_path(&format!("/chaos-{f}")).expect("file still present");
            Observation::decode(&vfs.read(id, 0, FILE_LEN as u32).expect("final read").0)
        })
        .collect();
    let events = history.events();
    let violations = oracle::check(ModelKind::Delegation, &[], &events, &final_tags);
    rep.check(violations.is_empty(), || {
        format!("oracle: {} violations, first: {:?}", violations.len(), violations[0])
    });
    let exclusion = events.iter().filter(|e| matches!(e, Event::ExclusionViolation { .. })).count();
    rep.check(exclusion == 0, || format!("exclusion sampler recorded {exclusion} violations"));

    // Failures: attempts minus successful reads and acknowledged writes
    // (a failed read leaves no history event).
    let attempted = (CLIENTS * OPS_PER_CLIENT) as u64;
    let succeeded = events
        .iter()
        .filter(|e| matches!(e, Event::Read { .. } | Event::WriteAcked { .. }))
        .count() as u64;
    rep.attempted += attempted;
    rep.failed += attempted.saturating_sub(succeeded);
    rep.check(log.errors.is_empty(), || format!("client errors: {:?}", log.errors));

    // Run length: the mean virtual time at which a client finished. The
    // slowest client alone would swing with the seed's think times.
    let sim_runtime_s = finish_sum / CLIENTS as f64;
    rep.deterministic("sim_runtime_s", sim_runtime_s);
    rep.deterministic("wan_rpcs", session.wan_stats().snapshot().total_calls() as f64);
    simrun::sim_write_latency(rep, &log);
    let session = Arc::try_unwrap(session)
        .unwrap_or_else(|_| panic!("every actor has dropped the session by the end of the run"));
    Iteration { setup_s, cost, sim_runtime_s, log, session: Some(session) }
}

/// Wall seconds one twelve-client run takes on a 2-core machine.
const NOMINAL_RUN_S: f64 = 5.0;

/// Runs the workload; see the module docs.
pub fn run(seed: u64, seconds: f64, traced: bool) -> Report {
    let mut rep = Report::default();
    let twelve = |rep: &mut Report, seconds: f64, tracer: Option<Arc<Tracer>>| {
        simrun::iterations(seconds, NOMINAL_RUN_S, 1, || iteration(seed, tracer.clone(), rep))
    };
    if !traced {
        let iters = twelve(&mut rep, seconds, None);
        let setup_s = simrun::setup_seconds(establish);
        simrun::end_to_end(&mut rep, &iters, setup_s);
        return rep;
    }

    let plain = twelve(&mut rep, seconds / 2.0, None);
    let per_run = |i: &Iteration| (i.cost.wall_s, i.cost.proc.sys_s);
    eprintln!(
        "  {CLIENTS} clients: (wall s, sys s) {:?}",
        plain.iter().map(per_run).collect::<Vec<_>>()
    );
    for clients in SCALING {
        let cost = sim_scaling::run(seed, clients, SCALING_OPS_PER_CLIENT, &mut rep);
        eprintln!(
            "  simulator alone, {clients} clients: (wall s, sys s) {:?}",
            (cost.wall_s, cost.proc.sys_s)
        );
        rep.metric(format!("netsim.echo_sys_s.clients_{clients}"), cost.proc.sys_s, "s");
    }
    let traced_iters = twelve(&mut rep, seconds / 2.0, Some(Arc::new(Tracer::default())));
    simrun::per_layer(&mut rep, "wan_shared_deleg", seed, &plain, traced_iters, CLIENTS);
    rep
}
