//! Session lifecycle: once a session has been established, run, shut
//! down and dropped, nothing may keep its server file system or its
//! proxy clients alive. The proxy server's callback registry and the
//! peer mesh both reach each proxy's callback service, and each proxy
//! reaches the proxy server over the WAN, so any strong reference back
//! from a callback service to its proxy leaks the whole session.

use gvfs_client::{MountOptions, NfsClient};
use gvfs_core::protocol::proc_ext;
use gvfs_core::proxy::client::{CallbackService, ProxyClient};
use gvfs_core::session::{Session, SessionConfig};
use gvfs_core::ConsistencyModel;
use gvfs_netsim::Sim;
use gvfs_rpc::dispatch::RpcService;
use gvfs_rpc::RpcError;
use gvfs_vfs::Vfs;
use std::sync::{Arc, Weak};

const CLIENTS: usize = 2;

/// Establishes a two-client session, writes a file from one client and
/// reads it from the other, shuts the session down and drops it.
/// Returns weak references to what the session owned and a callback
/// service of its first proxy.
fn run_and_drop(config: SessionConfig) -> (Weak<Vfs>, Vec<Weak<ProxyClient>>, CallbackService) {
    let sim = Sim::new();
    let session = Session::builder(config).clients(CLIENTS).establish(&sim);
    let vfs = Arc::downgrade(session.vfs());
    let proxies = (0..CLIENTS).map(|i| Arc::downgrade(session.proxy_client(i))).collect();
    let callbacks = CallbackService::new(session.proxy_client(0));
    let (t0, t1) = (session.client_transport(0), session.client_transport(1));
    let root = session.root_fh();
    let handle = session.handle();
    sim.spawn("app", move || {
        let writer = NfsClient::new(t0, root, MountOptions::noac());
        writer.write_file("/f", b"lifecycle").expect("write through proxy 0");
        let reader = NfsClient::new(t1, root, MountOptions::noac());
        assert_eq!(reader.read_file("/f").expect("read through proxy 1"), b"lifecycle");
        handle.shutdown();
    });
    sim.run();
    drop(session);
    (vfs, proxies, callbacks)
}

fn assert_freed(config: SessionConfig) {
    let (vfs, proxies, callbacks) = run_and_drop(config);
    assert!(vfs.upgrade().is_none(), "a dropped session must free its Vfs");
    for (i, proxy) in proxies.iter().enumerate() {
        assert!(proxy.upgrade().is_none(), "a dropped session must free proxy client {i}");
    }
    assert!(matches!(
        callbacks.call(proc_ext::RECOVER, &[]),
        Err(RpcError::ProcedureUnavailable { .. })
    ));
}

fn delegation() -> SessionConfig {
    SessionConfig { model: ConsistencyModel::delegation(), ..SessionConfig::default() }
}

#[test]
fn dropped_default_session_frees_vfs_and_proxies() {
    assert_freed(SessionConfig::default());
}

#[test]
fn dropped_peer_read_session_frees_vfs_and_proxies() {
    assert_freed(SessionConfig { peer_read: true, ..delegation() });
}

#[test]
fn dropped_persistent_store_session_frees_vfs_and_proxies() {
    assert_freed(SessionConfig { persistent_store: true, ..delegation() });
}
