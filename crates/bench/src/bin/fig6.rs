//! Figure 6: the file-lock benchmark across consistency models.
//!
//! Six clients compete for a hard-link lock. Setups: NFS with a
//! 30-second revalidation period (NFS-inv), GVFS with 30-second
//! invalidation polling (GVFS-inv), NFS with no attribute cache
//! (NFS-noac), GVFS with delegation/callback (GVFS-cb), and the
//! AFS-like whole-file/callback DFS as the traditional strong-
//! consistency reference.
//!
//! Run: `cargo run --release -p gvfs-bench --bin fig6 [--small]`

use gvfs_afs::{AfsClient, AfsServer};
use gvfs_bench::{print_table, rpc_meta, save_json, small_mode, RpcBreakdown};
use gvfs_client::{MountOptions, NfsClient};
use gvfs_core::session::{NativeMount, Session, SessionConfig};
use gvfs_core::ConsistencyModel;
use gvfs_netsim::link::{Link, LinkConfig};
use gvfs_netsim::transport::{ServerNode, SimRpcClient};
use gvfs_netsim::Sim;
use gvfs_rpc::dispatch::Dispatcher;
use gvfs_rpc::stats::RpcStats;
use gvfs_vfs::Vfs;
use gvfs_workloads::lock::{self, LockConfig};
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::Duration;

const CLIENTS: usize = 6;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Setup {
    NfsInv,
    GvfsInv,
    NfsNoac,
    GvfsCb,
    Afs,
}

impl Setup {
    fn name(self) -> &'static str {
        match self {
            Setup::NfsInv => "NFS-inv",
            Setup::GvfsInv => "GVFS-inv",
            Setup::NfsNoac => "NFS-noac",
            Setup::GvfsCb => "GVFS-cb",
            Setup::Afs => "AFS",
        }
    }
}

struct Outcome {
    runtime: Duration,
    rpcs: RpcBreakdown,
    rpc: serde_json::Value,
    /// Proxy read-path counters (absent for setups without a proxy).
    read_path: serde_json::Value,
    fairness: lock::Fairness,
}

fn run_nfs_like(setup: Setup, config: LockConfig) -> Outcome {
    let sim = Sim::new();
    let vfs = Arc::new(Vfs::new());
    lock::populate(&vfs);
    let log = lock::new_log();

    let (transports, root, stats): (Vec<SimRpcClient>, _, RpcStats) = match setup {
        Setup::NfsInv | Setup::NfsNoac => {
            let native = NativeMount::establish(CLIENTS, LinkConfig::wan(), Some(vfs));
            (
                (0..CLIENTS).map(|i| native.client_transport(i)).collect(),
                native.root_fh(),
                native.stats().clone(),
            )
        }
        Setup::GvfsInv | Setup::GvfsCb => {
            let session_config = SessionConfig {
                model: if setup == Setup::GvfsInv {
                    ConsistencyModel::polling_30s()
                } else {
                    ConsistencyModel::delegation()
                },
                ..SessionConfig::default()
            };
            let session = Session::builder(session_config)
                .clients(CLIENTS)
                .wan(LinkConfig::wan())
                .vfs(vfs)
                .establish(&sim);
            let handle = session.handle();
            let done = Arc::new(Mutex::new(0usize));
            // A janitor stops the session's background actors once every
            // competitor finished.
            let d2 = Arc::clone(&done);
            sim.spawn("janitor", move || loop {
                gvfs_netsim::sleep(Duration::from_secs(5));
                if *d2.lock() >= CLIENTS {
                    handle.shutdown();
                    return;
                }
            });
            let transports = (0..CLIENTS).map(|i| session.client_transport(i)).collect();
            let root = session.root_fh();
            let stats = session.wan_stats().clone();
            // Spawn competitors with the completion counter.
            for (i, transport) in (0..CLIENTS).zip::<Vec<SimRpcClient>>(transports) {
                let log = Arc::clone(&log);
                let done = Arc::clone(&done);
                sim.spawn(&format!("client-{i}"), move || {
                    let mount = MountOptions::noac();
                    let client = NfsClient::new(transport, root, mount);
                    lock::run_client(&client, i, &config, &log);
                    *done.lock() += 1;
                });
            }
            let end = sim.run();
            let snap = stats.snapshot();
            return Outcome {
                runtime: end.saturating_since(gvfs_netsim::SimTime::ZERO),
                rpcs: RpcBreakdown::from_snapshot(&snap),
                rpc: rpc_meta(&snap),
                read_path: gvfs_bench::session_read_path(&session, CLIENTS),
                fairness: lock::fairness(&log, CLIENTS),
            };
        }
        Setup::Afs => unreachable!("handled separately"),
    };

    let mount = match setup {
        Setup::NfsInv => MountOptions::with_attr_timeout(Duration::from_secs(30)),
        Setup::NfsNoac => MountOptions::noac(),
        _ => unreachable!(),
    };
    for (i, transport) in transports.into_iter().enumerate() {
        let log = Arc::clone(&log);
        let mount = mount.clone();
        sim.spawn(&format!("client-{i}"), move || {
            let client = NfsClient::new(transport, root, mount);
            lock::run_client(&client, i, &config, &log);
        });
    }
    let end = sim.run();
    let snap = stats.snapshot();
    Outcome {
        runtime: end.saturating_since(gvfs_netsim::SimTime::ZERO),
        rpcs: RpcBreakdown::from_snapshot(&snap),
        rpc: rpc_meta(&snap),
        read_path: serde_json::Value::Null,
        fairness: lock::fairness(&log, CLIENTS),
    }
}

/// The AFS variant of the lock loop (same structure as
/// `lock::run_client`, over the AFS client API).
fn afs_lock_loop(
    client: &Arc<AfsClient>,
    me: usize,
    config: &LockConfig,
    log: &lock::AcquisitionLog,
) {
    client.write_file(&format!("/tmp-{me}"), b"t").expect("create temp");
    let mut wins = 0;
    while wins < config.acquisitions {
        match client.stat("/lockfile") {
            Ok(Some(_)) => {
                gvfs_netsim::sleep(config.retry);
                continue;
            }
            Ok(None) => {}
            Err(e) => panic!("probe failed: {e}"),
        }
        match client.link(&format!("/tmp-{me}"), "/lockfile") {
            Ok(()) => {
                log.lock().push((gvfs_netsim::now().as_secs_f64(), me));
                gvfs_netsim::sleep(config.hold);
                client.remove("/lockfile").expect("unlink lock");
                wins += 1;
                gvfs_netsim::sleep(config.post_release);
            }
            Err(gvfs_afs::AfsError::Exists) => gvfs_netsim::sleep(config.retry),
            Err(e) => panic!("link failed: {e}"),
        }
    }
}

fn run_afs(config: LockConfig) -> Outcome {
    let sim = Sim::new();
    let server = AfsServer::new(Arc::new(Vfs::new()));
    let mut d = Dispatcher::new();
    d.register_arc(Arc::clone(&server) as Arc<dyn gvfs_rpc::dispatch::RpcService>);
    let node = ServerNode::new("afs", d, Duration::from_micros(300));
    let stats = RpcStats::new();
    let log = lock::new_log();
    for i in 0..CLIENTS {
        let link = Link::new(LinkConfig::wan());
        let transport = SimRpcClient::new(link.forward(), Arc::clone(&node), stats.clone());
        let client = AfsClient::new(i as u32 + 1, transport);
        let mut cbd = Dispatcher::new();
        cbd.register(gvfs_afs::AfsCallbackService::new(&client));
        let cb_node = ServerNode::new(&format!("afs-cb-{i}"), cbd, Duration::from_micros(300));
        server.register_callback(
            i as u32 + 1,
            SimRpcClient::new(link.reverse(), cb_node, stats.clone()),
        );
        let log = Arc::clone(&log);
        sim.spawn(&format!("afs-client-{i}"), move || {
            afs_lock_loop(&client, i, &config, &log);
        });
    }
    let end = sim.run();
    let snap = stats.snapshot();
    Outcome {
        runtime: end.saturating_since(gvfs_netsim::SimTime::ZERO),
        rpcs: RpcBreakdown::from_snapshot(&snap),
        rpc: rpc_meta(&snap),
        read_path: serde_json::Value::Null,
        fairness: lock::fairness(&log, CLIENTS),
    }
}

fn main() {
    let config = if small_mode() {
        LockConfig { acquisitions: 2, ..LockConfig::default() }
    } else {
        LockConfig::default()
    };

    let setups = [Setup::NfsInv, Setup::GvfsInv, Setup::NfsNoac, Setup::GvfsCb, Setup::Afs];
    let mut outcomes = Vec::new();
    for setup in setups {
        let outcome = match setup {
            Setup::Afs => run_afs(config),
            _ => run_nfs_like(setup, config),
        };
        eprintln!(
            "  [{}: {:.0}s, {} consistency calls, max-consecutive {}]",
            setup.name(),
            outcome.runtime.as_secs_f64(),
            outcome.rpcs.consistency_calls(),
            outcome.fairness.max_consecutive,
        );
        outcomes.push((setup, outcome));
    }

    let rows: Vec<Vec<String>> = outcomes
        .iter()
        .map(|(s, o)| {
            vec![
                s.name().to_string(),
                o.rpcs.getattr.to_string(),
                o.rpcs.lookup.to_string(),
                o.rpcs.getinv.to_string(),
                o.rpcs.callback.to_string(),
                o.rpcs.consistency_calls().to_string(),
                o.rpcs.total().to_string(),
            ]
        })
        .collect();
    print_table(
        "Figure 6(a): Lock — RPCs over the WAN (AFS uses its own protocol; counts not comparable)",
        &["setup", "GETATTR", "LOOKUP", "GETINV", "CALLBACK", "consistency", "total"],
        &rows,
    );

    let rows: Vec<Vec<String>> = outcomes
        .iter()
        .map(|(s, o)| {
            vec![
                s.name().to_string(),
                format!("{:.0}", o.runtime.as_secs_f64()),
                o.fairness.max_consecutive.to_string(),
                format!("{:?}", o.fairness.per_client),
            ]
        })
        .collect();
    print_table(
        "Figure 6(b): Lock — runtime and fairness",
        &["setup", "runtime(s)", "max-consec", "grants-per-client"],
        &rows,
    );

    // The paper's headline ratios.
    let by_name = |n: &str| outcomes.iter().find(|(s, _)| s.name() == n).expect("setup").1.rpcs;
    let nfs_inv = by_name("NFS-inv").consistency_calls() as f64;
    let gvfs_inv = by_name("GVFS-inv").consistency_calls() as f64;
    let nfs_noac = by_name("NFS-noac").consistency_calls() as f64;
    let gvfs_cb = by_name("GVFS-cb").consistency_calls() as f64;
    println!(
        "\nRelaxed: GVFS-inv uses {:.0}% fewer consistency calls than NFS-inv (paper: 44%)",
        (1.0 - gvfs_inv / nfs_inv) * 100.0
    );
    println!(
        "Strong: NFS-noac / GVFS-cb consistency-call ratio = {:.1}x (paper: >10x)",
        nfs_noac / gvfs_cb
    );

    save_json(
        "fig6.json",
        &serde_json::json!({
            "experiment": "fig6-lock",
            "clients": CLIENTS,
            "acquisitions_per_client": config.acquisitions,
            "outcomes": outcomes.iter().map(|(s, o)| serde_json::json!({
                "setup": s.name(),
                "runtime_s": o.runtime.as_secs_f64(),
                "rpcs": o.rpcs.to_json(),
                "rpc": o.rpc,
                "read_path": o.read_path,
                "fairness": {
                    "max_consecutive": o.fairness.max_consecutive,
                    "per_client": o.fairness.per_client,
                },
            })).collect::<Vec<_>>(),
            "relaxed_savings_pct": (1.0 - gvfs_inv / nfs_inv) * 100.0,
            "strong_ratio": nfs_noac / gvfs_cb,
        }),
    );
}
