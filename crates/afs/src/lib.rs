//! A simplified AFS-like distributed file system.
//!
//! The paper's Figure 6(b) includes OpenAFS 1.2.11 as a reference point
//! for a traditional DFS with strong consistency. This crate implements
//! the essence of that design — **whole-file caching with callback
//! promises**:
//!
//! * a client fetches whole files (and directory status) from the
//!   server, which registers a *callback promise*;
//! * while the promise stands, the client uses its cache without any
//!   server traffic;
//! * any mutation breaks the other clients' promises with server→client
//!   callback RPCs.
//!
//! It speaks its own RPC program over the same simulated transport as
//! everything else, so its traffic and timing are directly comparable.
//! Only the operations the lock benchmark needs are implemented
//! (lookup/stat, whole-file read/write, create, hard-link, remove); the
//! rest of AFS (volumes, ACLs, tokens) is out of scope.

mod client;
mod proto;
mod server;

pub use client::{AfsCallbackService, AfsClient, AfsError};
pub use proto::{AfsStatus, AFS_CALLBACK_PROGRAM, AFS_PROGRAM, AFS_VERSION};
pub use server::AfsServer;

#[cfg(test)]
mod tests {
    use super::*;
    use gvfs_netsim::link::{Link, LinkConfig};
    use gvfs_netsim::transport::{ServerNode, SimRpcClient};
    use gvfs_netsim::Sim;
    use gvfs_rpc::dispatch::Dispatcher;
    use gvfs_rpc::stats::RpcStats;
    use gvfs_vfs::Vfs;
    use parking_lot::Mutex;
    use std::sync::Arc;
    use std::time::Duration;

    struct Cell {
        server: Arc<AfsServer>,
        node: Arc<ServerNode>,
        stats: RpcStats,
    }

    fn cell() -> Cell {
        let server = AfsServer::new(Arc::new(Vfs::new()));
        let mut d = Dispatcher::new();
        d.register_arc(Arc::clone(&server) as Arc<dyn gvfs_rpc::dispatch::RpcService>);
        let node = ServerNode::new("afs", d, Duration::from_micros(300));
        Cell { server, node, stats: RpcStats::new() }
    }

    fn client(cell: &Cell, id: u32) -> Arc<AfsClient> {
        let link = Link::new(LinkConfig::wan());
        let transport =
            SimRpcClient::new(link.forward(), Arc::clone(&cell.node), cell.stats.clone());
        let c = AfsClient::new(id, transport);
        let mut d = Dispatcher::new();
        d.register(client::AfsCallbackService::new(&c));
        let cb_node = ServerNode::new(&format!("afs-cb-{id}"), d, Duration::from_micros(300));
        cell.server
            .register_callback(id, SimRpcClient::new(link.reverse(), cb_node, cell.stats.clone()));
        c
    }

    #[test]
    fn whole_file_roundtrip() {
        let cell = cell();
        let c = client(&cell, 1);
        let sim = Sim::new();
        sim.spawn("a", move || {
            c.write_file("/f", b"afs data").unwrap();
            assert_eq!(c.read_file("/f").unwrap(), b"afs data");
        });
        sim.run();
    }

    #[test]
    fn dropped_client_is_freed_and_its_callbacks_go_unavailable() {
        use gvfs_rpc::dispatch::RpcService;
        let cell = cell();
        let c = client(&cell, 1);
        let service = client::AfsCallbackService::new(&c);
        let weak = Arc::downgrade(&c);
        drop(c);
        // The server's callback registry still reaches the service.
        assert!(weak.upgrade().is_none(), "the callback registry must not keep the client alive");
        let fid = gvfs_xdr::to_bytes(&7u64).unwrap();
        assert!(matches!(
            service.call(proto::procs::BREAK, &fid),
            Err(gvfs_rpc::RpcError::ProcedureUnavailable { .. })
        ));
    }

    #[test]
    fn promise_serves_stats_locally() {
        let cell = cell();
        let c = client(&cell, 1);
        let stats = cell.stats.clone();
        let sim = Sim::new();
        sim.spawn("a", move || {
            c.write_file("/f", b"x").unwrap();
            c.stat("/f").unwrap();
            let before = stats.snapshot().total_calls();
            for _ in 0..50 {
                c.stat("/f").unwrap();
            }
            assert_eq!(stats.snapshot().total_calls(), before, "promise absorbs stats");
        });
        sim.run();
    }

    #[test]
    fn mutation_breaks_other_clients_promises() {
        let cell = cell();
        let c1 = client(&cell, 1);
        let c2 = client(&cell, 2);
        let sim = Sim::new();
        let seen = Arc::new(Mutex::new(Vec::new()));
        let s2 = seen.clone();
        sim.spawn("reader", move || {
            gvfs_netsim::sleep(Duration::from_secs(1));
            s2.lock().push(c2.read_file("/f").unwrap());
            gvfs_netsim::sleep(Duration::from_secs(10));
            // The writer's second version arrives via a broken promise.
            s2.lock().push(c2.read_file("/f").unwrap());
        });
        sim.spawn("writer", move || {
            c1.write_file("/f", b"v1").unwrap();
            gvfs_netsim::sleep(Duration::from_secs(5));
            c1.write_file("/f", b"v2").unwrap();
        });
        sim.run();
        assert_eq!(*seen.lock(), vec![b"v1".to_vec(), b"v2".to_vec()]);
    }

    #[test]
    fn link_is_atomic_between_clients() {
        let cell = cell();
        let c1 = client(&cell, 1);
        let c2 = client(&cell, 2);
        let sim = Sim::new();
        let wins = Arc::new(Mutex::new(0u32));
        for (name, c) in [("a", c1), ("b", c2)] {
            let wins = wins.clone();
            sim.spawn(name, move || {
                c.write_file(&format!("/tmp-{name}"), b"t").unwrap();
                if c.link(&format!("/tmp-{name}"), "/lockfile").is_ok() {
                    *wins.lock() += 1;
                }
            });
        }
        sim.run();
        assert_eq!(*wins.lock(), 1);
    }

    #[test]
    fn remove_then_stat_is_not_found() {
        let cell = cell();
        let c = client(&cell, 1);
        let sim = Sim::new();
        sim.spawn("a", move || {
            c.write_file("/f", b"x").unwrap();
            c.remove("/f").unwrap();
            assert!(c.stat("/f").unwrap().is_none());
        });
        sim.run();
    }
}
