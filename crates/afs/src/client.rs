//! The AFS client: whole-file cache with callback promises.

use crate::proto::{
    procs, AfsStat, AfsStatus, DataRes, PathArgs, StatusRes, StoreArgs, TwoPathArgs, AFS_PROGRAM,
    AFS_VERSION,
};
use gvfs_netsim::transport::SimRpcClient;
use gvfs_rpc::dispatch::RpcService;
use gvfs_rpc::message::{GvfsCred, OpaqueAuth};
use gvfs_rpc::RpcError;
use gvfs_xdr::Xdr;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::sync::{Arc, Weak};

/// An error from an AFS client operation.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum AfsError {
    /// The name already exists.
    Exists,
    /// No such file.
    NotFound,
    /// RPC failure.
    Rpc(RpcError),
    /// Server fault.
    Fault,
}

impl fmt::Display for AfsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AfsError::Exists => write!(f, "name exists"),
            AfsError::NotFound => write!(f, "no such file"),
            AfsError::Rpc(e) => write!(f, "rpc: {e}"),
            AfsError::Fault => write!(f, "server fault"),
        }
    }
}

impl Error for AfsError {}

impl From<RpcError> for AfsError {
    fn from(e: RpcError) -> Self {
        AfsError::Rpc(e)
    }
}

#[derive(Debug, Default)]
struct CacheState {
    /// path → fid binding with a promise on the parent dir.
    names: HashMap<String, Option<u64>>,
    /// fid → status while a promise stands.
    status: HashMap<u64, AfsStatus>,
    /// fid → whole-file content.
    data: HashMap<u64, Vec<u8>>,
}

/// The AFS client cache manager.
pub struct AfsClient {
    id: u32,
    transport: SimRpcClient,
    cache: Mutex<CacheState>,
}

impl fmt::Debug for AfsClient {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AfsClient").field("id", &self.id).finish()
    }
}

impl AfsClient {
    /// Creates a client with the given id over `transport`.
    pub fn new(id: u32, transport: SimRpcClient) -> Arc<Self> {
        let cred = GvfsCred { session_key: 0xaf50, client_id: id, callback_port: 8000 + id };
        let transport =
            transport.with_credential(OpaqueAuth::gvfs(&cred).expect("encode credential"));
        Arc::new(AfsClient { id, transport, cache: Mutex::new(CacheState::default()) })
    }

    fn rpc<A: Xdr, R: Xdr>(&self, procedure: u32, a: &A) -> Result<R, AfsError> {
        let payload = gvfs_xdr::to_bytes(a).map_err(RpcError::from)?;
        let bytes = self.transport.call(AFS_PROGRAM, AFS_VERSION, procedure, payload)?;
        Ok(gvfs_xdr::from_bytes(&bytes).map_err(RpcError::from)?)
    }

    /// Stats a path: `Ok(Some(status))` if present, `Ok(None)` if absent
    /// — both served from cache while the promises stand.
    ///
    /// # Errors
    ///
    /// RPC or server errors.
    pub fn stat(&self, path: &str) -> Result<Option<AfsStatus>, AfsError> {
        {
            let cache = self.cache.lock();
            match cache.names.get(path) {
                Some(Some(fid)) => {
                    if let Some(status) = cache.status.get(fid) {
                        return Ok(Some(*status));
                    }
                }
                Some(None) => return Ok(None),
                None => {}
            }
        }
        let res: StatusRes = self.rpc(procs::LOOKUP, &PathArgs { path: path.to_string() })?;
        let mut cache = self.cache.lock();
        match res.stat {
            AfsStat::Ok => {
                let status = res.status.ok_or(AfsError::Fault)?;
                cache.names.insert(path.to_string(), Some(status.fid));
                cache.status.insert(status.fid, status);
                Ok(Some(status))
            }
            AfsStat::NoEnt => {
                cache.names.insert(path.to_string(), None);
                Ok(None)
            }
            _ => Err(AfsError::Fault),
        }
    }

    /// Reads a whole file (fetched once, then served from cache).
    ///
    /// # Errors
    ///
    /// [`AfsError::NotFound`] if absent; RPC errors.
    pub fn read_file(&self, path: &str) -> Result<Vec<u8>, AfsError> {
        let status = self.stat(path)?.ok_or(AfsError::NotFound)?;
        if let Some(data) = self.cache.lock().data.get(&status.fid) {
            return Ok(data.clone());
        }
        let res: DataRes = self.rpc(procs::FETCH_DATA, &status.fid)?;
        match res.stat {
            AfsStat::Ok => {
                let mut cache = self.cache.lock();
                if let Some(s) = res.status {
                    cache.status.insert(s.fid, s);
                }
                cache.data.insert(status.fid, res.data.clone());
                Ok(res.data)
            }
            AfsStat::NoEnt => Err(AfsError::NotFound),
            _ => Err(AfsError::Fault),
        }
    }

    /// Stores a whole file (store-on-close semantics).
    ///
    /// # Errors
    ///
    /// RPC or server errors.
    pub fn write_file(&self, path: &str, data: &[u8]) -> Result<(), AfsError> {
        let res: StatusRes =
            self.rpc(procs::STORE, &StoreArgs { path: path.to_string(), data: data.to_vec() })?;
        match res.stat {
            AfsStat::Ok => {
                let status = res.status.ok_or(AfsError::Fault)?;
                let mut cache = self.cache.lock();
                cache.names.insert(path.to_string(), Some(status.fid));
                cache.status.insert(status.fid, status);
                cache.data.insert(status.fid, data.to_vec());
                Ok(())
            }
            _ => Err(AfsError::Fault),
        }
    }

    /// Atomically hard-links `from` to `to` (the lock primitive).
    ///
    /// # Errors
    ///
    /// [`AfsError::Exists`] if `to` is taken.
    pub fn link(&self, from: &str, to: &str) -> Result<(), AfsError> {
        let res: StatusRes =
            self.rpc(procs::LINK, &TwoPathArgs { from: from.to_string(), to: to.to_string() })?;
        match res.stat {
            AfsStat::Ok => {
                let mut cache = self.cache.lock();
                if let Some(status) = res.status {
                    cache.names.insert(to.to_string(), Some(status.fid));
                    cache.status.insert(status.fid, status);
                }
                Ok(())
            }
            AfsStat::Exist => Err(AfsError::Exists),
            AfsStat::NoEnt => Err(AfsError::NotFound),
            AfsStat::Fault => Err(AfsError::Fault),
        }
    }

    /// Removes a name.
    ///
    /// # Errors
    ///
    /// [`AfsError::NotFound`] if absent.
    pub fn remove(&self, path: &str) -> Result<(), AfsError> {
        let res: StatusRes = self.rpc(procs::REMOVE, &PathArgs { path: path.to_string() })?;
        match res.stat {
            AfsStat::Ok => {
                self.cache.lock().names.insert(path.to_string(), None);
                Ok(())
            }
            AfsStat::NoEnt => Err(AfsError::NotFound),
            _ => Err(AfsError::Fault),
        }
    }

    /// Handles a callback break for `fid`.
    fn break_promise(&self, fid: u64) {
        let mut cache = self.cache.lock();
        cache.status.remove(&fid);
        cache.data.remove(&fid);
        // Any name binding under a broken directory promise must be
        // re-validated; bindings to the broken fid likewise.
        cache.names.retain(|_, v| *v != Some(fid));
        // Directory breaks arrive as the directory's own fid; we cannot
        // tell which names lived under it, so drop negative entries too.
        cache.names.retain(|_, v| v.is_some());
    }
}

/// The callback-break service each client registers.
///
/// Holds the client weakly: the server's callback registry reaches this
/// service and the client reaches the server, so a strong reference
/// would keep both alive forever. Once the client is gone every
/// procedure answers `ProcedureUnavailable`.
#[derive(Debug, Clone)]
pub struct AfsCallbackService(Weak<AfsClient>);

impl AfsCallbackService {
    /// The callback-break service of `client`.
    pub fn new(client: &Arc<AfsClient>) -> Self {
        AfsCallbackService(Arc::downgrade(client))
    }
}

impl RpcService for AfsCallbackService {
    fn program(&self) -> u32 {
        crate::proto::AFS_CALLBACK_PROGRAM
    }
    fn version(&self) -> u32 {
        AFS_VERSION
    }
    fn call(&self, procedure: u32, payload: &[u8]) -> Result<Vec<u8>, RpcError> {
        match (procedure, self.0.upgrade()) {
            (procs::BREAK, Some(client)) => {
                let fid: u64 = gvfs_xdr::from_bytes(payload).map_err(|_| RpcError::GarbageArgs)?;
                client.break_promise(fid);
                Ok(Vec::new())
            }
            (p, _) => Err(RpcError::ProcedureUnavailable {
                program: crate::proto::AFS_CALLBACK_PROGRAM,
                procedure: p,
            }),
        }
    }
}
