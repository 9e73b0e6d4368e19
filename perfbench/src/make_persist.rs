//! `wan_make_persist`: the paper's Figure 4 make build through a GVFS-WB
//! session whose proxy client caches in the persistent block store.
//!
//! `MakeConfig::default()` (357 sources, 103 headers, 168 objects), one
//! client on `LinkConfig::wan()`, `polling_30s`, write-back, persistent
//! store. The build is the paper's and has no random choice: the seed
//! changes nothing, and every virtual-time result repeats exactly. A run
//! is a fixed number of builds, each in a fresh session (about
//! `--seconds` of wall time on a 2-core machine).
//!
//! The trace mirrors `gvfs_workloads::make::run` call for call, through a
//! timing wrapper, and additionally checks every byte it reads.

use crate::report::Report;
use crate::simrun::{self, ClientOp, Iteration, RunCost, Timed};
use crate::stats::median;
use crate::trace::Tracer;
use gvfs_client::{MountOptions, NfsClient};
use gvfs_core::session::{Session, SessionConfig};
use gvfs_core::ConsistencyModel;
use gvfs_netsim::link::LinkConfig;
use gvfs_netsim::Sim;
use gvfs_nfs3::Fh3;
use gvfs_vfs::Vfs;
use gvfs_workloads::make::{self, MakeConfig};
use std::sync::{Arc, Mutex};
use std::time::Duration;

fn source_name(i: usize) -> String {
    format!("src{i:03}.c")
}
fn header_name(i: usize) -> String {
    format!("hdr{i:03}.h")
}
fn object_name(i: usize) -> String {
    format!("obj{i:03}.o")
}

/// The headers source `i` includes (the spread `make::run` uses).
fn includes(cfg: &MakeConfig, i: usize) -> impl Iterator<Item = usize> + '_ {
    (0..cfg.includes_per_source).map(move |k| (i * 7 + k * 3) % cfg.headers)
}

/// The object compiling source `i` completes, if any.
fn emits_object(cfg: &MakeConfig, i: usize) -> Option<usize> {
    let before = i * cfg.objects / cfg.sources;
    let after = (i + 1) * cfg.objects / cfg.sources;
    (after > before).then_some(before)
}

/// Length of the linked binary.
fn binary_len(cfg: &MakeConfig, objects: usize) -> usize {
    cfg.object_bytes * objects.min(40)
}

fn read_checked(c: &mut Timed, fh: Fh3, len: usize, byte: u8, what: &str) {
    match c.op(ClientOp::Read, |cl| cl.read(fh, 0, len as u32)) {
        Ok(data) if data.len() == len && data.iter().all(|&b| b == byte) => {}
        Ok(data) => {
            c.fail(format!("{what}: read {} bytes that are not all {:?}", data.len(), byte as char))
        }
        Err(e) => c.fail(format!("{what}: read failed: {e:?}")),
    }
}

fn open_checked(c: &mut Timed, path: &str) -> Option<Fh3> {
    match c.op(ClientOp::Open, |cl| cl.open(path)) {
        Ok(fh) => Some(fh),
        Err(e) => {
            c.fail(format!("open {path}: {e:?}"));
            None
        }
    }
}

fn write_chunked(c: &mut Timed, fh: Fh3, total: usize, chunk: usize, byte: u8) {
    let payload = vec![byte; chunk];
    let mut written = 0;
    while written < total {
        let n = chunk.min(total - written);
        match c.op(ClientOp::Write, |cl| cl.write(fh, written as u64, &payload[..n])) {
            Ok(()) => c.log.bytes_written += n as u64,
            Err(e) => c.fail(format!("write {:?} at {written}: {e:?}", byte as char)),
        }
        written += n;
    }
}

fn create(c: &mut Timed, dir: Fh3, name: &str) -> Option<Fh3> {
    match c.op(ClientOp::Create, |cl| cl.create(dir, name, false)) {
        Ok(fh) => Some(fh),
        Err(e) => {
            c.fail(format!("create {name}: {e:?}"));
            None
        }
    }
}

/// The build, call for call as `make::run`. Returns the virtual runtime
/// (before unmount) and the number of objects built.
fn build(c: &mut Timed, cfg: &MakeConfig) -> (Duration, usize) {
    let t0 = gvfs_netsim::now();
    let resolved = (
        c.op(ClientOp::Lookup, |cl| cl.resolve("/src")),
        c.op(ClientOp::Lookup, |cl| cl.resolve("/obj")),
    );
    let (Ok(_), Ok(obj)) = resolved else {
        c.fail(format!("cannot resolve the tree: {resolved:?}"));
        return (Duration::ZERO, 0);
    };

    // Dependency scan.
    for path in (0..cfg.sources).map(source_name).chain((0..cfg.headers).map(header_name)) {
        if let Err(e) = c.op(ClientOp::Stat, |cl| cl.stat(&format!("/src/{path}"))) {
            c.fail(format!("stat {path}: {e:?}"));
        }
    }
    for o in 0..cfg.objects {
        // Not built yet: the stat must fail.
        if c.op(ClientOp::Stat, |cl| cl.stat(&format!("/obj/{}", object_name(o)))).is_ok() {
            c.fail(format!("object {o} exists before the build"));
        }
    }

    let mut objects_built = 0;
    for i in 0..cfg.sources {
        let path = format!("/src/{}", source_name(i));
        if let Some(fh) = open_checked(c, &path) {
            read_checked(c, fh, cfg.source_bytes, b'c', &path);
        }
        for h in includes(cfg, i) {
            let path = format!("/src/{}", header_name(h));
            if let Some(fh) = open_checked(c, &path) {
                read_checked(c, fh, cfg.header_bytes, b'h', &path);
            }
        }
        gvfs_netsim::sleep(cfg.compile_time);

        let tmp_name = format!("tmp{i:03}.s");
        if let Some(tmp) = create(c, obj, &tmp_name) {
            write_chunked(c, tmp, cfg.object_bytes, cfg.write_chunk, b's');
            read_checked(c, tmp, cfg.object_bytes, b's', &tmp_name);
        }
        if let Some(o) = emits_object(cfg, i) {
            if let Some(ofh) = create(c, obj, &object_name(o)) {
                write_chunked(c, ofh, cfg.object_bytes, cfg.write_chunk, b'o');
                objects_built += 1;
            }
        }
        if let Err(e) = c.op(ClientOp::Remove, |cl| cl.remove(obj, &tmp_name)) {
            c.fail(format!("remove {tmp_name}: {e:?}"));
        }
    }

    for o in 0..objects_built {
        let path = format!("/obj/{}", object_name(o));
        if let Some(fh) = open_checked(c, &path) {
            read_checked(c, fh, cfg.object_bytes, b'o', &path);
        }
    }
    gvfs_netsim::sleep(cfg.link_time);
    if let Some(bin) = create(c, obj, "tclsh") {
        write_chunked(c, bin, binary_len(cfg, objects_built), cfg.write_chunk, b'b');
    }
    (gvfs_netsim::now().saturating_since(t0), objects_built)
}

/// Checks the origin's tree, read out of band after unmount.
fn check_origin(vfs: &Vfs, cfg: &MakeConfig) -> Vec<String> {
    let mut errors = Vec::new();
    let mut expect_file = |path: String, len: usize, byte: u8| {
        let content = vfs
            .lookup_path(&path)
            .and_then(|id| vfs.read(id, 0, len as u32 + 1))
            .map(|(data, _)| data);
        match content {
            Ok(data) if data.len() == len && data.iter().all(|&b| b == byte) => {}
            other => errors.push(format!("origin {path}: {:?}", other.map(|d| d.len()))),
        }
    };
    for o in 0..cfg.objects {
        expect_file(format!("/obj/{}", object_name(o)), cfg.object_bytes, b'o');
    }
    expect_file("/obj/tclsh".to_string(), binary_len(cfg, cfg.objects), b'b');
    match vfs.lookup_path("/obj").and_then(|dir| vfs.readdir(dir, 0, usize::MAX)) {
        Ok(page) => {
            let temps = page.entries.iter().filter(|e| e.name.starts_with("tmp")).count();
            if temps > 0 || page.entries.len() != cfg.objects + 1 {
                errors.push(format!(
                    "origin /obj holds {} entries, {temps} of them temporaries",
                    page.entries.len()
                ));
            }
        }
        Err(e) => errors.push(format!("origin readdir /obj: {e:?}")),
    }
    errors
}

/// Populates the origin and establishes the session.
fn establish(cfg: &MakeConfig, persistent: bool, sim: &Sim) -> Session {
    let vfs = Arc::new(Vfs::new());
    make::populate(&vfs, cfg);
    let config = SessionConfig {
        model: ConsistencyModel::polling_30s(),
        write_back: true,
        persistent_store: persistent,
        ..SessionConfig::default()
    };
    Session::builder(config).clients(1).wan(LinkConfig::wan()).vfs(vfs).establish(sim)
}

/// One complete build in a fresh session.
fn iteration(
    cfg: &MakeConfig,
    persistent: bool,
    tracer: Option<Arc<Tracer>>,
    rep: &mut Report,
) -> Iteration {
    let t = std::time::Instant::now();
    let sim = Sim::new();
    let session = establish(cfg, persistent, &sim);
    let setup_s = t.elapsed().as_secs_f64();
    let vfs = Arc::clone(session.vfs());

    let transport = session.client_transport(0);
    let root = session.root_fh();
    let handle = session.handle();
    let result = Arc::new(Mutex::new(None));
    let slot = Arc::clone(&result);
    let actor_cfg = cfg.clone();
    sim.spawn("builder", move || {
        let mut c = Timed::new(NfsClient::new(transport, root, MountOptions::default()), tracer);
        let (runtime, built) = build(&mut c, &actor_cfg);
        // Unmount: flush delayed writes (charged to the run, not the
        // build's runtime, as in Figure 4).
        handle.shutdown();
        *slot.lock().expect("builder result") = Some((c.log, runtime, built));
    });
    let cost = RunCost::measure(sim);
    let (log, runtime, built) =
        result.lock().expect("builder result").take().expect("builder finished");

    rep.attempted += log.calls();
    rep.failed += log.failed;
    rep.check(log.errors.is_empty(), || format!("make trace: {:?}", log.errors));
    rep.check(built == cfg.objects, || format!("built {built} objects, expected {}", cfg.objects));
    let origin = check_origin(&vfs, cfg);
    rep.check(origin.is_empty(), || format!("origin tree after unmount: {origin:?}"));
    let s = session.proxy_client(0).stats();
    rep.check(
        s.integrity_failures == 0 && s.quarantined_blocks == 0 && s.integrity_dirty_loss == 0,
        || {
            format!(
                "store integrity: {} failures, {} quarantined, {} dirty losses",
                s.integrity_failures, s.quarantined_blocks, s.integrity_dirty_loss
            )
        },
    );
    let wan_rpcs = session.wan_stats().snapshot().total_calls() as f64;
    let sim_runtime_s = runtime.as_secs_f64();
    if persistent {
        rep.deterministic("sim_runtime_s", sim_runtime_s);
        rep.deterministic("wan_rpcs", wan_rpcs);
        simrun::sim_write_latency(rep, &log);
    }
    if !persistent {
        eprintln!("  in-memory store build: {sim_runtime_s} sim s, {wan_rpcs} WAN RPCs");
    }
    Iteration { setup_s, cost, sim_runtime_s, log, session: Some(session) }
}

/// Wall seconds one persistent-store build takes on a 2-core machine.
const NOMINAL_BUILD_S: f64 = 2.0;

/// Fixes glibc's allocator for the builds: one arena, blocks of up to
/// 32 MiB from the heap, and no trimming. Left adaptive, builds of one
/// run took either about 1.7 s or about 2.8 s of wall time with the same
/// user time. The extra second was system time spent faulting in pages
/// that earlier builds had handed back to the kernel, and which builds
/// paid it changed from run to run, so the run's median build swung by a
/// quarter. Fixed, every build takes 1.5–2.0 s. Limiting only the arenas
/// and trimming, with the threshold left at its 128 KiB default, made
/// every build take about 4 s. The actors run one at a time, so a single
/// arena costs no contention.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn fix_allocator() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_THRESHOLD: i32 = -3;
    const M_ARENA_MAX: i32 = -8;
    // SAFETY: `mallopt` only adjusts allocator tuning; it is called
    // before any other thread of this process exists.
    unsafe {
        mallopt(M_ARENA_MAX, 1);
        mallopt(M_MMAP_THRESHOLD, 32 << 20);
        mallopt(M_TRIM_THRESHOLD, 1 << 30);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn fix_allocator() {}

/// Runs the workload; see the module docs.
pub fn run(seed: u64, seconds: f64, traced: bool) -> Report {
    fix_allocator();
    let cfg = MakeConfig::default();
    let mut rep = Report::default();
    if !traced {
        let iters = simrun::iterations(seconds, NOMINAL_BUILD_S, 2, || {
            iteration(&cfg, true, None, &mut rep)
        });
        // Every session stays resident after teardown (see the README), so
        // set-up is timed on the builds' own sessions, not on extra ones.
        let setup_s = median(&iters.iter().map(|i| i.setup_s).collect::<Vec<_>>());
        simrun::end_to_end(&mut rep, &iters, setup_s);
        return rep;
    }

    // Traced run: untraced persistent builds (the overhead baseline and
    // the persistent arm of the store share), one in-memory-store build
    // of the same trace, then traced persistent builds.
    let plain = simrun::iterations(seconds / 2.0, NOMINAL_BUILD_S, 2, || {
        iteration(&cfg, true, None, &mut rep)
    });
    let mem = iteration(&cfg, false, None, &mut rep);
    let persistent_wall = median(&plain.iter().map(|i| i.cost.wall_s).collect::<Vec<_>>());
    eprintln!(
        "  store share: in-memory build {:.3} s wall, persistent median {persistent_wall:.3} s",
        mem.cost.wall_s
    );
    rep.metric("store.wall_share", 1.0 - mem.cost.wall_s / persistent_wall, "ratio");
    let tracer = Arc::new(Tracer::default());
    let traced_iters = simrun::iterations(seconds / 2.0, NOMINAL_BUILD_S, 2, || {
        iteration(&cfg, true, Some(Arc::clone(&tracer)), &mut rep)
    });
    simrun::per_layer(&mut rep, "wan_make_persist", seed, &plain, traced_iters, 1);
    rep
}
