//! `tcp_nfs_mix`: the NFS server stack on real loopback sockets.
//!
//! `TcpRpcServer` + `Dispatcher{Nfs3Server, MountServer}` over a `Vfs`
//! holding 32 files of 1 MiB. Two `TcpRpcClient` connections, each driven
//! closed loop by one thread and owning half the files, issue 40 % READ
//! 32 KiB, 20 % WRITE 32 KiB `FILE_SYNC`, 30 % GETATTR and 10 % LOOKUP.
//! Every READ is checked against a (file, block, version) pattern model,
//! and after the run the `Vfs` image is compared with the model.
//!
//! The simulator is not used while timing. Afterwards a virtual-time twin
//! replays a fixed prefix of the same seeded operation stream through a
//! native NFS mount over a simulated WAN link; its virtual runtime, RPC
//! count and write latency repeat exactly for a seed and catch changes in
//! protocol behaviour (reply sizes, extra calls) that wall time would hide.

use crate::procfs::ProcSample;
use crate::report::{ratio, Report};
use crate::stats::Latencies;
use crate::trace::{self, Span, Tracer};
use gvfs_client::{MountOptions, NfsClient};
use gvfs_nfs3::mount::{mount_proc, MntArgs, MntRes, MOUNT_PROGRAM, MOUNT_V3};
use gvfs_nfs3::{
    proc3, Fh3, GetattrArgs, GetattrRes, LookupArgs, LookupRes, ReadArgs, ReadRes, StableHow,
    WriteArgs, WriteRes, NFS_PROGRAM, NFS_V3,
};
use gvfs_rpc::dispatch::{Dispatcher, RpcService};
use gvfs_rpc::message::OpaqueAuth;
use gvfs_rpc::tcp::{TcpRpcClient, TcpRpcServer, TcpServerHandle};
use gvfs_rpc::RpcError;
use gvfs_server::{MountServer, Nfs3Server};
use gvfs_vfs::{Timestamp, Vfs};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Files in the export.
pub const FILES: usize = 32;
/// Bytes per file.
pub const FILE_BYTES: u64 = 1 << 20;
/// READ and WRITE payload, and the model's block size.
pub const BLOCK: u32 = 32 * 1024;
/// Blocks per file.
pub const BLOCKS: usize = (FILE_BYTES / BLOCK as u64) as usize;
/// Client connections, each with one closed-loop generator thread.
pub const CONNS: usize = 2;
/// Operations the virtual-time twin replays (about 1200 writes, enough
/// for a p99 under the ten-beyond rule).
const TWIN_OPS: usize = 6000;
/// Passes per run, each on a fresh stack whose set-up is timed; the
/// traced run uses half as many per half.
const PASSES: usize = 15;
const EXPORT: &str = "/export/bench";

/// One NFS operation of the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// READ one 32 KiB block.
    Read,
    /// WRITE one 32 KiB block, `FILE_SYNC`.
    Write,
    /// GETATTR of a file.
    Getattr,
    /// LOOKUP of a file name in the export root.
    Lookup,
}

impl Op {
    const ALL: [Op; 4] = [Op::Read, Op::Write, Op::Getattr, Op::Lookup];

    fn idx(self) -> usize {
        self as usize
    }

    /// Lower-case name used in metric names.
    pub fn name(self) -> &'static str {
        ["read", "write", "getattr", "lookup"][self.idx()]
    }

    fn span(self, layer: usize) -> &'static str {
        const NAMES: [[&str; 4]; 5] = [
            ["op.read", "op.write", "op.getattr", "op.lookup"],
            ["xdr.encode.read", "xdr.encode.write", "xdr.encode.getattr", "xdr.encode.lookup"],
            ["rpc.call.read", "rpc.call.write", "rpc.call.getattr", "rpc.call.lookup"],
            ["xdr.decode.read", "xdr.decode.write", "xdr.decode.getattr", "xdr.decode.lookup"],
            [
                "server.dispatch.read",
                "server.dispatch.write",
                "server.dispatch.getattr",
                "server.dispatch.lookup",
            ],
        ];
        NAMES[layer][self.idx()]
    }

    fn procedure(self) -> u32 {
        match self {
            Op::Read => proc3::READ,
            Op::Write => proc3::WRITE,
            Op::Getattr => proc3::GETATTR,
            Op::Lookup => proc3::LOOKUP,
        }
    }

    fn of_procedure(procedure: u32) -> Option<Op> {
        Op::ALL.into_iter().find(|op| op.procedure() == procedure)
    }
}

const SPAN_OP: usize = 0;
const SPAN_ENCODE: usize = 1;
const SPAN_CALL: usize = 2;
const SPAN_DECODE: usize = 3;
const SPAN_DISPATCH: usize = 4;

/// One generated operation: kind, file and block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Step {
    /// What to do.
    pub op: Op,
    /// File index, owned by the generating connection.
    pub file: usize,
    /// Block index within the file (READ and WRITE).
    pub block: usize,
}

/// The seeded operation stream of one connection.
#[derive(Debug)]
pub struct OpStream {
    rng: StdRng,
    conn: usize,
}

impl OpStream {
    /// The stream of connection `conn` for `seed`.
    pub fn new(seed: u64, conn: usize) -> Self {
        let s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (conn as u64 + 1);
        OpStream { rng: StdRng::seed_from_u64(s), conn }
    }
}

impl Iterator for OpStream {
    type Item = Step;
    fn next(&mut self) -> Option<Step> {
        let roll = self.rng.gen_range(0u32..100);
        let op = match roll {
            0..=39 => Op::Read,
            40..=59 => Op::Write,
            60..=89 => Op::Getattr,
            _ => Op::Lookup,
        };
        let per_conn = FILES / CONNS;
        let file = self.conn * per_conn + self.rng.gen_range(0..per_conn);
        Some(Step { op, file, block: self.rng.gen_range(0..BLOCKS) })
    }
}

fn file_name(file: usize) -> String {
    format!("f{file:02}")
}

/// Deterministic content of one block version: every 8-byte word mixes
/// (file, block, version, word index), so a swapped block, a stale
/// version or a flipped byte anywhere in the block is detected.
pub fn pattern(file: usize, block: usize, version: u32) -> Vec<u8> {
    let base = block_seed(file, block, version);
    let mut out = Vec::with_capacity(BLOCK as usize);
    for w in 0..u64::from(BLOCK / 8) {
        out.extend_from_slice(&word(base, w).to_le_bytes());
    }
    out
}

fn block_seed(file: usize, block: usize, version: u32) -> u64 {
    let mut z = (file as u64) << 40 ^ (block as u64) << 20 ^ u64::from(version);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn word(base: u64, w: u64) -> u64 {
    base ^ w.wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// The generator's model of every block's current version.
#[derive(Debug, Clone)]
pub struct Model {
    versions: Vec<u32>,
}

impl Default for Model {
    fn default() -> Self {
        Model { versions: vec![0; FILES * BLOCKS] }
    }
}

impl Model {
    /// Current version of a block.
    pub fn version(&self, file: usize, block: usize) -> u32 {
        self.versions[file * BLOCKS + block]
    }

    /// Bumps a block's version and returns the new one.
    pub fn bump(&mut self, file: usize, block: usize) -> u32 {
        let v = &mut self.versions[file * BLOCKS + block];
        *v += 1;
        *v
    }

    /// Whether `data` is exactly the current content of the block.
    pub fn matches(&self, file: usize, block: usize, data: &[u8]) -> bool {
        let base = block_seed(file, block, self.version(file, block));
        data.len() == BLOCK as usize
            && data
                .chunks_exact(8)
                .zip(0u64..)
                .all(|(c, w)| c == word(base, w).to_le_bytes().as_slice())
    }

    /// Folds another connection's model in (each owns disjoint files).
    pub fn merge_owned(&mut self, other: &Model, files: std::ops::Range<usize>) {
        let r = files.start * BLOCKS..files.end * BLOCKS;
        self.versions[r.clone()].copy_from_slice(&other.versions[r]);
    }
}

/// Server-side tracing hooks: which connection a call belongs to (read
/// from the file handle or LOOKUP name in the arguments) and that
/// connection's in-flight `rpc.call` span.
struct ServerHooks {
    tracer: Option<Arc<Tracer>>,
    conn_of_fileid: HashMap<u64, usize>,
    current_call: [AtomicU64; CONNS],
    current_req: [AtomicU64; CONNS],
}

impl ServerHooks {
    fn conn_of(&self, op: Op, args: &[u8]) -> Option<usize> {
        if op == Op::Lookup {
            let a: LookupArgs = gvfs_xdr::from_bytes(args).ok()?;
            let file: usize = a.name.strip_prefix('f')?.parse().ok()?;
            return Some(file / (FILES / CONNS));
        }
        let mut dec = gvfs_xdr::Decoder::new(args);
        let fh = <Fh3 as gvfs_xdr::Xdr>::decode(&mut dec).ok()?;
        self.conn_of_fileid.get(&fh.fileid()).copied()
    }
}

/// The benchmark-owned wrapper around `Nfs3Server` that times dispatch.
struct TimedNfs {
    inner: Nfs3Server,
    hooks: Arc<ServerHooks>,
}

impl RpcService for TimedNfs {
    fn program(&self) -> u32 {
        self.inner.program()
    }
    fn version(&self) -> u32 {
        self.inner.version()
    }
    fn call(&self, procedure: u32, args: &[u8]) -> Result<Vec<u8>, RpcError> {
        let Some(tracer) = &self.hooks.tracer else { return self.inner.call(procedure, args) };
        let start_ns = tracer.now_ns();
        let reply = self.inner.call(procedure, args);
        let end_ns = tracer.now_ns();
        if let Some(op) = Op::of_procedure(procedure) {
            if let Some(conn) = self.hooks.conn_of(op, args) {
                tracer.push(Span {
                    req: self.hooks.current_req[conn].load(Ordering::SeqCst),
                    id: tracer.next_id(),
                    parent: Some(self.hooks.current_call[conn].load(Ordering::SeqCst)),
                    name: op.span(SPAN_DISPATCH),
                    start_ns,
                    end_ns,
                    virt_ns: 0,
                });
            }
        }
        reply
    }
}

/// A running server with its mounted connections.
struct Stack {
    vfs: Arc<Vfs>,
    handle: TcpServerHandle,
    conns: Vec<TcpRpcClient>,
    root: Fh3,
    fhs: Vec<Fh3>,
}

fn populate(vfs: &Vfs) {
    let t = Timestamp::from_nanos(0);
    for f in 0..FILES {
        let id = vfs.create(vfs.root(), &file_name(f), 0o644, t).expect("create bench file");
        let mut content = Vec::with_capacity(FILE_BYTES as usize);
        for b in 0..BLOCKS {
            content.extend_from_slice(&pattern(f, b, 0));
        }
        vfs.write(id, 0, &content, t).expect("populate bench file");
    }
}

fn call<A: gvfs_xdr::Xdr, R: gvfs_xdr::Xdr>(
    rpc: &TcpRpcClient,
    program: u32,
    version: u32,
    procedure: u32,
    args: &A,
) -> Result<R, String> {
    let bytes = gvfs_xdr::to_bytes(args).map_err(|e| format!("{e:?}"))?;
    let reply = rpc
        .call(program, version, procedure, OpaqueAuth::none(), bytes)
        .map_err(|e| format!("{e:?}"))?;
    gvfs_xdr::from_bytes(&reply).map_err(|e| format!("{e:?}"))
}

/// Populate, bind, connect, mount and look every file up.
fn set_up(tracer: Option<Arc<Tracer>>) -> Result<(Stack, Arc<ServerHooks>), String> {
    let vfs = Arc::new(Vfs::new());
    populate(&vfs);
    let conn_of_fileid = (0..FILES)
        .map(|f| {
            let id = vfs.lookup_path(&format!("/{}", file_name(f))).expect("populated file");
            (id.as_u64(), f / (FILES / CONNS))
        })
        .collect();
    let hooks = Arc::new(ServerHooks {
        tracer,
        conn_of_fileid,
        current_call: Default::default(),
        current_req: Default::default(),
    });
    let epoch = Instant::now();
    let clock: gvfs_server::Clock =
        Arc::new(move || Timestamp::from_nanos(epoch.elapsed().as_nanos() as u64));
    let mut dispatcher = Dispatcher::new();
    dispatcher.register(TimedNfs {
        inner: Nfs3Server::new(Arc::clone(&vfs), clock),
        hooks: Arc::clone(&hooks),
    });
    dispatcher.register(MountServer::new(Arc::clone(&vfs), EXPORT));
    let server = TcpRpcServer::bind("127.0.0.1:0", dispatcher).map_err(|e| e.to_string())?;
    let addr = server.local_addr();
    let handle = server.spawn();
    let conns = (0..CONNS)
        .map(|_| TcpRpcClient::connect(addr).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    let mnt: MntRes = call(
        &conns[0],
        MOUNT_PROGRAM,
        MOUNT_V3,
        mount_proc::MNT,
        &MntArgs { dirpath: EXPORT.into() },
    )?;
    let MntRes::Ok { fhandle: root, .. } = mnt else { return Err(format!("mount: {mnt:?}")) };
    let mut fhs = Vec::with_capacity(FILES);
    for f in 0..FILES {
        let rpc = &conns[f / (FILES / CONNS)];
        let res: LookupRes = call(
            rpc,
            NFS_PROGRAM,
            NFS_V3,
            proc3::LOOKUP,
            &LookupArgs { dir: root, name: file_name(f) },
        )?;
        let LookupRes::Ok { object, .. } = res else { return Err(format!("lookup f{f}")) };
        fhs.push(object);
    }
    Ok((Stack { vfs, handle, conns, root, fhs }, hooks))
}

impl Stack {
    /// Disconnects, stops the server and waits until its connection
    /// threads have released the file system (at most five seconds), so
    /// no stack outlives its pass.
    fn shut_down(self) -> Arc<Vfs> {
        drop(self.conns);
        self.handle.shutdown();
        let t = Instant::now();
        while Arc::strong_count(&self.vfs) > 1 && t.elapsed() < Duration::from_secs(5) {
            std::thread::sleep(Duration::from_millis(1));
        }
        self.vfs
    }
}

/// What one generator thread measured.
#[derive(Debug, Default)]
struct ConnResult {
    lat_us: [Vec<f64>; 4],
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    model: Model,
    spans: Vec<Span>,
}

fn record(tracer: Option<&Tracer>, spans: &mut Vec<Span>, span: Span) {
    if let Some(t) = tracer {
        spans.push(Span { end_ns: t.now_ns(), ..span });
    }
}

/// Runs one connection's closed loop until `deadline`.
fn drive(
    stack: &Stack,
    hooks: &ServerHooks,
    conn: usize,
    seed: u64,
    deadline: Instant,
) -> ConnResult {
    let rpc = &stack.conns[conn];
    let tracer = hooks.tracer.as_deref();
    let now_ns = || tracer.map_or(0, Tracer::now_ns);
    let new_id = || tracer.map_or(0, Tracer::next_id);
    let mut out = ConnResult::default();
    for step in OpStream::new(seed, conn) {
        if out.attempted % 64 == 0 && Instant::now() >= deadline {
            break;
        }
        out.attempted += 1;
        let fh = stack.fhs[step.file];
        let offset = step.block as u64 * u64::from(BLOCK);
        // The payload is built before the clock starts: it is the
        // application's data, not a cost of the NFS stack.
        let payload = (step.op == Op::Write)
            .then(|| pattern(step.file, step.block, out.model.version(step.file, step.block) + 1));
        let (req, op_id, call_id) = (new_id(), new_id(), new_id());
        let span = |layer: usize, id: u64, parent: Option<u64>, start_ns: u64| Span {
            req,
            id,
            parent,
            name: step.op.span(layer),
            start_ns,
            end_ns: 0,
            virt_ns: 0,
        };
        let t0 = Instant::now();
        let op_start = now_ns();
        let args = match step.op {
            Op::Read => gvfs_xdr::to_bytes(&ReadArgs { file: fh, offset, count: BLOCK }),
            Op::Write => gvfs_xdr::to_bytes(&WriteArgs {
                file: fh,
                offset,
                count: BLOCK,
                stable: StableHow::FileSync,
                data: payload.expect("built above for every write"),
            }),
            Op::Getattr => gvfs_xdr::to_bytes(&GetattrArgs { object: fh }),
            Op::Lookup => {
                gvfs_xdr::to_bytes(&LookupArgs { dir: stack.root, name: file_name(step.file) })
            }
        }
        .expect("encode arguments");
        record(tracer, &mut out.spans, span(SPAN_ENCODE, new_id(), Some(op_id), op_start));
        let call_start = now_ns();
        if tracer.is_some() {
            hooks.current_req[conn].store(req, Ordering::SeqCst);
            hooks.current_call[conn].store(call_id, Ordering::SeqCst);
        }
        let reply = rpc.call(NFS_PROGRAM, NFS_V3, step.op.procedure(), OpaqueAuth::none(), args);
        record(tracer, &mut out.spans, span(SPAN_CALL, call_id, Some(op_id), call_start));
        let decode_start = now_ns();
        let decoded = reply.map_err(|e| format!("{e:?}")).and_then(|r| decode(step.op, &r));
        record(tracer, &mut out.spans, span(SPAN_DECODE, new_id(), Some(op_id), decode_start));
        let elapsed_us = t0.elapsed().as_secs_f64() * 1e6;
        record(tracer, &mut out.spans, span(SPAN_OP, op_id, None, op_start));
        match decoded.and_then(|r| check_reply(step, fh, r, &mut out.model)) {
            Ok(()) => out.lat_us[step.op.idx()].push(elapsed_us),
            Err(e) => {
                out.failed += 1;
                out.errors.push(format!(
                    "{} f{} block {}: {e}",
                    step.op.name(),
                    step.file,
                    step.block
                ));
            }
        }
    }
    out
}

/// A decoded NFS reply.
#[derive(Debug)]
enum Reply {
    Read(ReadRes),
    Write(WriteRes),
    Getattr(GetattrRes),
    Lookup(LookupRes),
}

fn decode(op: Op, bytes: &[u8]) -> Result<Reply, String> {
    let r = match op {
        Op::Read => gvfs_xdr::from_bytes(bytes).map(Reply::Read),
        Op::Write => gvfs_xdr::from_bytes(bytes).map(Reply::Write),
        Op::Getattr => gvfs_xdr::from_bytes(bytes).map(Reply::Getattr),
        Op::Lookup => gvfs_xdr::from_bytes(bytes).map(Reply::Lookup),
    };
    r.map_err(|e| format!("{e:?}"))
}

/// Checks a decoded reply against the model; a successful WRITE advances
/// the model.
fn check_reply(step: Step, fh: Fh3, reply: Reply, model: &mut Model) -> Result<(), String> {
    let ok = match reply {
        Reply::Read(ReadRes::Ok { data, count, .. }) => {
            count == BLOCK && model.matches(step.file, step.block, &data)
        }
        Reply::Write(WriteRes::Ok { count, committed, .. }) => {
            let ok = count == BLOCK && committed == StableHow::FileSync;
            if ok {
                model.bump(step.file, step.block);
            }
            ok
        }
        Reply::Getattr(GetattrRes::Ok(attr)) => {
            attr.size == FILE_BYTES && attr.fileid == fh.fileid()
        }
        Reply::Lookup(LookupRes::Ok { object, .. }) => object == fh,
        other => return Err(format!("NFS error {other:?}")),
    };
    if ok {
        Ok(())
    } else {
        Err("reply differs from the model".to_string())
    }
}

/// Compares the server's file contents, read out of band, with the model.
fn check_image(vfs: &Vfs, model: &Model) -> Vec<String> {
    let mut errors = Vec::new();
    for f in 0..FILES {
        let id = vfs.lookup_path(&format!("/{}", file_name(f))).expect("bench file");
        for b in 0..BLOCKS {
            let (data, _) =
                vfs.read(id, b as u64 * u64::from(BLOCK), BLOCK).expect("out-of-band read");
            if !model.matches(f, b, &data) {
                errors.push(format!("image: f{f} block {b} differs from the model"));
            }
        }
    }
    errors
}

/// The measured outcome of the timed passes.
#[derive(Default)]
struct Pass {
    ops: u64,
    /// Completed operations per second, one entry per pass.
    rates: Vec<f64>,
    /// Set-up seconds, one entry per pass.
    setups: Vec<f64>,
    /// Peak resident KiB at the end of the first pass.
    first_peak_kib: u64,
    /// Latency samples µs by [`Op`], one entry per pass.
    lat: Vec<[Vec<f64>; 4]>,
    proc: ProcSample,
    bytes: u64,
    retransmits: u64,
    spans: Vec<Span>,
}

impl Pass {
    fn ops_per_s(&self) -> f64 {
        crate::stats::median(&self.rates)
    }

    /// One latency set per pass.
    fn latencies(&self, op: Op) -> Vec<Latencies> {
        self.lat.iter().map(|l| Latencies::new(l[op.idx()].clone())).collect()
    }
}

/// Runs `passes` passes of `seconds / passes` each. Every pass sets up a
/// fresh stack (new server, connections and threads), drives both
/// connections, checks the image and shuts down: thread placement on the
/// cores varies between passes, and the median pass rate is robust to
/// it. Pass `k` draws its operations from stream `(seed, k)`.
fn timed_passes(
    seed: u64,
    seconds: f64,
    passes: usize,
    tracer: Option<Arc<Tracer>>,
    rep: &mut Report,
) -> Pass {
    let mut out = Pass::default();
    for k in 0..passes {
        let seed = pass_seed(seed, k);
        let t = Instant::now();
        let (stack, hooks) = set_up(tracer.clone()).expect("tcp set-up");
        out.setups.push(t.elapsed().as_secs_f64());
        let before = ProcSample::now().expect("proc sample");
        let t0 = Instant::now();
        let deadline = t0 + Duration::from_secs_f64(seconds / passes as f64);
        let results: Vec<ConnResult> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..CONNS)
                .map(|c| {
                    let (stack, hooks) = (&stack, &hooks);
                    s.spawn(move || drive(stack, hooks, c, seed, deadline))
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("generator thread panicked")).collect()
        });
        let wall_s = t0.elapsed().as_secs_f64();
        let proc = ProcSample::now().expect("proc sample").since(&before);
        if k == 0 {
            out.first_peak_kib = proc.peak_rss_kib;
        }
        out.proc.user_s += proc.user_s;
        out.proc.sys_s += proc.sys_s;
        for c in &stack.conns {
            let snap = c.stats().snapshot();
            out.bytes += snap.total_bytes();
            out.retransmits += snap.transport_timeouts();
        }
        let mut model = Model::default();
        let mut ops = 0;
        let mut lat: [Vec<f64>; 4] = Default::default();
        if let Some(t) = &tracer {
            out.spans.extend(t.take());
        }
        let per_conn = FILES / CONNS;
        for (c, r) in results.into_iter().enumerate() {
            rep.attempted += r.attempted;
            rep.failed += r.failed;
            ops += r.attempted - r.failed;
            rep.errors.extend(r.errors.into_iter().take(8));
            model.merge_owned(&r.model, c * per_conn..(c + 1) * per_conn);
            for (all, mine) in lat.iter_mut().zip(r.lat_us) {
                all.extend(mine);
            }
            out.spans.extend(r.spans);
        }
        out.ops += ops;
        out.rates.push(ops as f64 / wall_s);
        out.lat.push(lat);
        let vfs = stack.shut_down();
        let image_errors = check_image(&vfs, &model);
        rep.check(image_errors.is_empty(), || {
            format!("{} blocks differ, first: {}", image_errors.len(), image_errors[0])
        });
    }
    out
}

fn pass_seed(seed: u64, pass: usize) -> u64 {
    seed ^ (pass as u64) << 48
}

/// Replays the first [`TWIN_OPS`] operations of the seed's first-pass
/// streams (connections alternating) through a native NFS mount over a
/// simulated WAN link, and records its virtual runtime, RPC count and
/// WRITE latency for the determinism check.
fn twin(seed: u64, rep: &mut Report) {
    let vfs = Arc::new(Vfs::new());
    populate(&vfs);
    let native = gvfs_core::session::NativeMount::establish(
        1,
        gvfs_netsim::link::LinkConfig::wan(),
        Some(Arc::clone(&vfs)),
    );
    let transport = native.client_transport(0);
    let root = native.root_fh();
    let stats = native.stats().clone();
    let sim = gvfs_netsim::Sim::new();
    let out = Arc::new(std::sync::Mutex::new((Vec::new(), Vec::new())));
    let out2 = Arc::clone(&out);
    sim.spawn("twin", move || {
        let client = NfsClient::new(transport, root, MountOptions::noac());
        let mut streams: Vec<OpStream> =
            (0..CONNS).map(|c| OpStream::new(pass_seed(seed, 0), c)).collect();
        let mut model = Model::default();
        let fhs: Vec<Fh3> =
            (0..FILES).map(|f| client.lookup(root, &file_name(f)).expect("twin lookup")).collect();
        let (mut writes_ms, mut errors) = (Vec::new(), Vec::new());
        for i in 0..TWIN_OPS {
            let step = streams[i % CONNS].next().expect("endless stream");
            let fh = fhs[step.file];
            let offset = step.block as u64 * u64::from(BLOCK);
            match step.op {
                Op::Read => match client.read(fh, offset, BLOCK) {
                    Ok(data) if model.matches(step.file, step.block, &data) => {}
                    other => errors.push(format!(
                        "twin read f{}: {:?}",
                        step.file,
                        other.map(|d| d.len())
                    )),
                },
                Op::Write => {
                    let v = model.version(step.file, step.block) + 1;
                    let data = pattern(step.file, step.block, v);
                    let t = gvfs_netsim::now();
                    match client.write(fh, offset, &data) {
                        Ok(()) => {
                            model.bump(step.file, step.block);
                            writes_ms
                                .push(gvfs_netsim::now().saturating_since(t).as_secs_f64() * 1e3);
                        }
                        Err(e) => errors.push(format!("twin write f{}: {e:?}", step.file)),
                    }
                }
                Op::Getattr => {
                    if !matches!(client.getattr_force(fh), Ok(a) if a.size == FILE_BYTES) {
                        errors.push(format!("twin getattr f{}", step.file));
                    }
                }
                Op::Lookup => {
                    if client.lookup(root, &file_name(step.file)) != Ok(fh) {
                        errors.push(format!("twin lookup f{}", step.file));
                    }
                }
            }
        }
        *out2.lock().expect("twin result") = (writes_ms, errors);
    });
    let end = sim.run();
    let (writes_ms, errors) = std::mem::take(&mut *out.lock().expect("twin result"));
    rep.check(errors.is_empty(), || {
        format!("{} twin checks failed, first: {}", errors.len(), errors[0])
    });
    rep.deterministic("sim_runtime_s", end.as_secs_f64());
    rep.deterministic("wan_rpcs", stats.snapshot().total_calls() as f64);
    let writes = Latencies::new(writes_ms);
    for (name, p) in [("sim_write_p50_ms", 50.0), ("sim_write_p99_ms", 99.0)] {
        match writes.at(p) {
            Ok(v) => rep.deterministic(name, v),
            Err(e) => rep.errors.push(format!("{name}: {e}")),
        }
    }
}

/// Pins glibc's mmap threshold at 256 KiB. Left adaptive, it rises once
/// the first pass frees its 1 MiB file buffers, and later set-ups then
/// either reuse freed heap or fault in fresh pages depending on what the
/// earlier passes left behind: set-up time jumped between about 20 and
/// 45 ms within one run. Pinned, every pass populates fresh pages. The
/// timed operations allocate at most 32 KiB at a time and are unaffected.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn pin_mmap_threshold() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: `mallopt` only adjusts allocator tuning; it is called
    // before any other thread of this process exists.
    unsafe { mallopt(M_MMAP_THRESHOLD, 256 * 1024) };
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn pin_mmap_threshold() {}

/// Runs the workload; see the module docs.
pub fn run(seed: u64, seconds: f64, traced: bool) -> Report {
    pin_mmap_threshold();
    let mut rep = Report::default();
    if !traced {
        let pass = timed_passes(seed, seconds, PASSES, None, &mut rep);
        twin(seed, &mut rep);
        // Peak memory of set-up plus one pass: later passes only add
        // allocator fragmentation across the server's thread arenas.
        let peak = pass.first_peak_kib;
        eprintln!("  pass rates ops/s: {:?}", pass.rates);
        rep.metric("setup_s", crate::stats::median(&pass.setups), "s");
        rep.metric("ops_per_s", pass.ops_per_s(), "ops/s");
        crate::simrun::latency_metrics(
            &mut rep,
            &pass.latencies(Op::Read),
            &pass.latencies(Op::Getattr),
            50.0,
            ["read_p50_us", "getattr_p50_us"],
        );
        crate::simrun::deterministic_metrics(&mut rep);
        rep.metric("peak_rss_mb", peak as f64 / 1024.0, "MiB");
        return rep;
    }

    // Traced run: an untraced half for the overhead baseline, then a
    // traced half that records spans.
    let plain = timed_passes(seed, seconds / 2.0, PASSES / 2, None, &mut rep);
    let tracer = Arc::new(Tracer::default());
    let pass = timed_passes(seed, seconds / 2.0, PASSES / 2, Some(Arc::clone(&tracer)), &mut rep);
    twin(seed, &mut rep);
    let sums = trace::summarise(&pass.spans);
    for op in Op::ALL {
        let t = |layer| sums.get(op.span(layer)).copied().unwrap_or_default();
        let n = op.name();
        rep.metric(format!("xdr.encode_us.{n}"), t(SPAN_ENCODE).mean_self_us(), "us");
        rep.metric(format!("xdr.decode_us.{n}"), t(SPAN_DECODE).mean_self_us(), "us");
        rep.metric(format!("rpc.call_us.{n}"), t(SPAN_CALL).mean_us(), "us");
        rep.metric(format!("rpc.self_us.{n}"), t(SPAN_CALL).mean_self_us(), "us");
        rep.metric(format!("server.dispatch_us.{n}"), t(SPAN_DISPATCH).mean_us(), "us");
    }
    rep.metric("rpc.retransmits", pass.retransmits as f64, "count");
    rep.metric("rpc.bytes_per_op", ratio(pass.bytes as f64, pass.ops as f64), "bytes");
    rep.metric("proc.cpu_user_s", plain.proc.user_s, "s");
    rep.metric("proc.cpu_sys_s", plain.proc.sys_s, "s");
    crate::simrun::latency_metrics(
        &mut rep,
        &plain.latencies(Op::Read),
        &plain.latencies(Op::Getattr),
        99.0,
        ["tail.read_p99_us", "tail.getattr_p99_us"],
    );
    rep.metric("trace.ops_ratio", ratio(pass.ops_per_s(), plain.ops_per_s()), "ratio");
    rep.metric("trace.spans", pass.spans.len() as f64, "count");
    crate::write_spans("tcp_nfs_mix", seed, &pass.spans);
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pattern_model_accepts_current_and_rejects_stale_or_corrupt_blocks() {
        let mut model = Model::default();
        let v0 = pattern(3, 7, 0);
        assert!(model.matches(3, 7, &v0));
        assert!(!model.matches(3, 8, &v0), "a block served at the wrong offset");
        assert!(!model.matches(4, 7, &v0), "a block of another file");
        assert_eq!(model.bump(3, 7), 1);
        assert!(!model.matches(3, 7, &v0), "a stale version");
        let v1 = pattern(3, 7, 1);
        assert!(model.matches(3, 7, &v1));
        let mut flipped = v1.clone();
        flipped[BLOCK as usize / 2] ^= 0x01;
        assert!(!model.matches(3, 7, &flipped), "one flipped bit");
        assert!(!model.matches(3, 7, &v1[..BLOCK as usize - 1]), "a short read");
    }

    #[test]
    fn corrupted_read_reply_is_caught() {
        let mut model = Model::default();
        let fh = Fh3::from_fileid(9);
        let step = Step { op: Op::Read, file: 2, block: 5 };
        let reply = |data: Vec<u8>| {
            let res = ReadRes::Ok { file_attributes: None, count: BLOCK, eof: false, data };
            decode(Op::Read, &gvfs_xdr::to_bytes(&res).expect("encode")).expect("decode")
        };
        assert!(check_reply(step, fh, reply(pattern(2, 5, 0)), &mut model).is_ok());
        let mut bad = pattern(2, 5, 0);
        bad[100] = bad[100].wrapping_add(1);
        let err = check_reply(step, fh, reply(bad), &mut model).expect_err("corruption");
        assert!(err.contains("differs from the model"), "{err}");
        // A stale block (the previous version) is caught as well.
        model.bump(2, 5);
        assert!(check_reply(step, fh, reply(pattern(2, 5, 0)), &mut model).is_err());
    }

    #[test]
    fn write_replies_advance_the_model() {
        let mut model = Model::default();
        let step = Step { op: Op::Write, file: 1, block: 0 };
        let res = WriteRes::Ok {
            file_wcc: Default::default(),
            count: BLOCK,
            committed: StableHow::FileSync,
            verf: 0,
        };
        let reply = decode(Op::Write, &gvfs_xdr::to_bytes(&res).expect("encode")).expect("decode");
        check_reply(step, Fh3::from_fileid(1), reply, &mut model).expect("good write");
        assert_eq!(model.version(1, 0), 1);
    }

    #[test]
    fn streams_are_seeded_and_stay_on_owned_files() {
        let a: Vec<Step> = OpStream::new(7, 1).take(500).collect();
        let b: Vec<Step> = OpStream::new(7, 1).take(500).collect();
        assert_eq!(a, b);
        assert_ne!(a, OpStream::new(8, 1).take(500).collect::<Vec<_>>());
        assert!(a.iter().all(|s| (16..32).contains(&s.file) && s.block < BLOCKS));
        let reads = a.iter().filter(|s| s.op == Op::Read).count();
        assert!((150..250).contains(&reads), "about 40 % reads, got {reads}");
    }
}
