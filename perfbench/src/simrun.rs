//! Shared pieces of the two simulated-WAN workloads: a timing wrapper
//! around `NfsClient` calls, and the per-layer counters read from a
//! session after a run.

use crate::procfs::ProcSample;
use crate::report::{ratio, Report};
use crate::stats::Latencies;
use crate::trace::{self, Span, Tracer};
use gvfs_client::NfsClient;
use gvfs_core::session::Session;
use gvfs_netsim::Sim;
use std::sync::Arc;
use std::time::Instant;

/// The `NfsClient` calls the benchmark times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClientOp {
    /// `stat(2)` by path.
    Stat,
    /// Open by path or handle: close-to-open revalidation.
    Open,
    /// READ.
    Read,
    /// WRITE.
    Write,
    /// CREATE.
    Create,
    /// REMOVE.
    Remove,
    /// Path or name resolution.
    Lookup,
}

impl ClientOp {
    /// Every timed call.
    pub const ALL: [ClientOp; 7] = [
        ClientOp::Stat,
        ClientOp::Open,
        ClientOp::Read,
        ClientOp::Write,
        ClientOp::Create,
        ClientOp::Remove,
        ClientOp::Lookup,
    ];

    fn idx(self) -> usize {
        self as usize
    }

    /// Lower-case name used in metric names.
    pub fn name(self) -> &'static str {
        ["stat", "open", "read", "write", "create", "remove", "lookup"][self.idx()]
    }

    fn span(self) -> &'static str {
        [
            "client.stat",
            "client.open",
            "client.read",
            "client.write",
            "client.create",
            "client.remove",
            "client.lookup",
        ][self.idx()]
    }
}

/// What one actor's timed calls recorded.
#[derive(Debug, Default)]
pub struct OpLog {
    /// Wall-clock µs per call, by [`ClientOp`].
    pub wall_us: [Vec<f64>; 7],
    /// Virtual ms per call, by [`ClientOp`].
    pub sim_ms: [Vec<f64>; 7],
    /// Spans, when traced.
    pub spans: Vec<Span>,
    /// Operations that failed or returned wrong data.
    pub failed: u64,
    /// The first few failure descriptions.
    pub errors: Vec<String>,
    /// Bytes successfully written through the client.
    pub bytes_written: u64,
}

impl OpLog {
    /// Calls made.
    pub fn calls(&self) -> u64 {
        self.wall_us.iter().map(|v| v.len() as u64).sum()
    }

    /// Appends another log.
    pub fn absorb(&mut self, other: OpLog) {
        for (a, b) in self.wall_us.iter_mut().zip(other.wall_us) {
            a.extend(b);
        }
        for (a, b) in self.sim_ms.iter_mut().zip(other.sim_ms) {
            a.extend(b);
        }
        self.spans.extend(other.spans);
        self.failed += other.failed;
        self.errors.extend(other.errors);
        self.errors.truncate(16);
        self.bytes_written += other.bytes_written;
    }

    /// Wall latencies of some calls.
    pub fn wall(&self, ops: &[ClientOp]) -> Latencies {
        Latencies::new(ops.iter().flat_map(|o| self.wall_us[o.idx()].iter().copied()).collect())
    }

    /// Virtual latencies of one call.
    pub fn sim(&self, op: ClientOp) -> Latencies {
        Latencies::new(self.sim_ms[op.idx()].clone())
    }
}

/// An `NfsClient` whose calls are timed on both clocks.
pub struct Timed {
    client: NfsClient,
    tracer: Option<Arc<Tracer>>,
    /// What the calls recorded.
    pub log: OpLog,
}

impl Timed {
    /// Wraps `client`; spans go to `tracer` when one is given.
    pub fn new(client: NfsClient, tracer: Option<Arc<Tracer>>) -> Self {
        Timed { client, tracer, log: OpLog::default() }
    }

    /// Counts a failed operation.
    pub fn fail(&mut self, msg: String) {
        self.log.failed += 1;
        if self.log.errors.len() < 16 {
            self.log.errors.push(msg);
        }
    }

    /// Runs one call, recording its wall and virtual duration. Must run
    /// inside a simulation actor. Failures are the caller's to count:
    /// some calls are expected to fail.
    pub fn op<T, E>(
        &mut self,
        op: ClientOp,
        f: impl FnOnce(&NfsClient) -> Result<T, E>,
    ) -> Result<T, E> {
        let v0 = gvfs_netsim::now();
        let start_ns = self.tracer.as_ref().map_or(0, |t| t.now_ns());
        let t0 = Instant::now();
        let r = f(&self.client);
        let wall = t0.elapsed();
        let virt = gvfs_netsim::now().saturating_since(v0);
        self.log.wall_us[op.idx()].push(wall.as_secs_f64() * 1e6);
        self.log.sim_ms[op.idx()].push(virt.as_secs_f64() * 1e3);
        if let Some(t) = &self.tracer {
            let id = t.next_id();
            self.log.spans.push(Span {
                req: id,
                id,
                parent: None,
                name: op.span(),
                start_ns,
                end_ns: t.now_ns(),
                virt_ns: u64::try_from(virt.as_nanos()).unwrap_or(u64::MAX),
            });
        }
        r
    }
}

/// One simulation of a workload in a fresh session.
pub struct Iteration {
    /// Wall seconds to populate the origin and establish the session.
    pub setup_s: f64,
    /// Cost of the `Sim::run`.
    pub cost: RunCost,
    /// The workload's virtual runtime.
    pub sim_runtime_s: f64,
    /// The timed client calls.
    pub log: OpLog,
    /// The finished session; [`iterations`] keeps only the last one's.
    pub session: Option<Session>,
}

/// The iterations of about `nominal_s` wall seconds each that fill
/// `seconds`, at least `min`. A benchmark run does this fixed amount of
/// work rather than stopping on the clock, so its memory and counters do
/// not depend on how fast the machine happened to be. As a guard for
/// much slower machines it stops early past one and a half times
/// `seconds`.
pub fn iterations(
    seconds: f64,
    nominal_s: f64,
    min: usize,
    mut run: impl FnMut() -> Iteration,
) -> Vec<Iteration> {
    let count = ((seconds / nominal_s).round() as usize).max(min);
    let t0 = Instant::now();
    let mut out: Vec<Iteration> = Vec::with_capacity(count);
    while out.len() < count && (out.len() < min || t0.elapsed().as_secs_f64() < 1.5 * seconds) {
        if let Some(prev) = out.last_mut() {
            prev.session = None;
        }
        out.push(run());
    }
    out
}

/// Median over iterations of `NfsClient` calls per wall second.
fn ops_per_s(iters: &[Iteration]) -> f64 {
    let rates: Vec<f64> = iters.iter().map(|i| i.log.calls() as f64 / i.cost.wall_s).collect();
    crate::stats::median(&rates)
}

/// Reports the end-to-end metrics of a simulated workload.
pub fn end_to_end(rep: &mut Report, iters: &[Iteration], setup_s: f64) {
    for i in iters {
        eprintln!(
            "  run: {:.3} s wall, {:.2} s user, {:.2} s sys, {} voluntary switches",
            i.cost.wall_s, i.cost.proc.user_s, i.cost.proc.sys_s, i.cost.proc.voluntary_ctxt
        );
    }
    // Peak memory of set-up plus the first iteration: later iterations
    // add the sessions that earlier ones leaked (see the README).
    let peak_kib = iters[0].cost.proc.peak_rss_kib;
    let (reads, attrs) = wall_groups(iters);
    rep.metric("setup_s", setup_s, "s");
    rep.metric("ops_per_s", ops_per_s(iters), "ops/s");
    latency_metrics(rep, &reads, &attrs, 50.0, ["read_p50_us", "getattr_p50_us"]);
    deterministic_metrics(rep);
    rep.metric("peak_rss_mb", peak_kib as f64 / 1024.0, "MiB");
}

/// Reports the per-layer metrics both simulated workloads share: CPU and
/// simulator cost from the untraced iterations, client spans and the
/// last traced session's counters, and the tracing overhead.
pub fn per_layer(
    rep: &mut Report,
    workload: &str,
    seed: u64,
    plain: &[Iteration],
    traced: Vec<Iteration>,
    clients: usize,
) {
    let mut cost = RunCost::default();
    for i in plain {
        cost.add(i.cost);
    }
    let ops: u64 = plain.iter().map(|i| i.log.calls()).sum();
    let runs = plain.len() as f64;
    rep.metric("proc.cpu_user_s", cost.proc.user_s, "s");
    rep.metric("proc.cpu_sys_s", cost.proc.sys_s, "s");
    rep.metric("netsim.cpu_sys_s", cost.proc.sys_s / runs, "s");
    rep.metric(
        "netsim.ctx_switches_per_op",
        ratio(cost.proc.voluntary_ctxt as f64, ops as f64),
        "count",
    );
    rep.metric(
        "netsim.wall_ms_per_sim_s",
        ratio(cost.wall_s * 1e3, plain[0].sim_runtime_s * runs),
        "ms/sim_s",
    );
    let (reads, attrs) = wall_groups(plain);
    latency_metrics(rep, &reads, &attrs, 99.0, ["tail.read_p99_us", "tail.getattr_p99_us"]);
    rep.metric("trace.ops_ratio", ratio(ops_per_s(&traced), ops_per_s(plain)), "ratio");
    let mut log = OpLog::default();
    let mut session = None;
    for i in traced {
        // The last iteration's counters, against that iteration's bytes.
        session = i.session;
        log.bytes_written = 0;
        log.absorb(i.log);
    }
    let session = session.expect("the last iteration keeps its session");
    client_layer_metrics(rep, &log);
    session_layer_metrics(rep, &session, clients, log.bytes_written);
    rep.metric("trace.spans", log.spans.len() as f64, "count");
    crate::write_spans(workload, seed, &log.spans);
}

/// Set-ups timed per run; the median is reported.
pub const SETUPS: usize = 25;

/// Median wall time of [`SETUPS`] calls of `establish` (populate and
/// session establishment). Each session is then unmounted in a run of
/// its own, outside the timing.
pub fn setup_seconds(establish: impl Fn(&Sim) -> Session) -> f64 {
    let samples: Vec<f64> = (0..SETUPS)
        .map(|_| {
            let t = Instant::now();
            let sim = Sim::new();
            let session = establish(&sim);
            let seconds = t.elapsed().as_secs_f64();
            let handle = session.handle();
            sim.spawn("unmount", move || handle.shutdown());
            sim.run();
            seconds
        })
        .collect();
    crate::stats::median(&samples)
}

/// Wall time, CPU and context switches of one `Sim::run`.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunCost {
    /// Wall seconds of the run.
    pub wall_s: f64,
    /// Process counters accumulated during the run.
    pub proc: ProcSample,
}

impl RunCost {
    /// Times `sim` running to completion.
    pub fn measure(sim: Sim) -> RunCost {
        let before = ProcSample::now().expect("proc sample");
        let t0 = Instant::now();
        sim.run();
        let wall_s = t0.elapsed().as_secs_f64();
        let proc = ProcSample::now().expect("proc sample").since(&before);
        RunCost { wall_s, proc }
    }

    /// Sums two costs.
    pub fn add(&mut self, other: RunCost) {
        self.wall_s += other.wall_s;
        self.proc.user_s += other.proc.user_s;
        self.proc.sys_s += other.proc.sys_s;
        self.proc.voluntary_ctxt += other.proc.voluntary_ctxt;
    }
}

/// Reports READ and attribute-call wall latency at percentile `p` under
/// the names `names`: each percentile is taken per group (pass, build or
/// simulation), then the median over the groups.
pub fn latency_metrics(
    rep: &mut Report,
    reads: &[Latencies],
    attrs: &[Latencies],
    p: f64,
    names: [&str; 2],
) {
    for (what, groups) in [("read", reads), ("attribute call", attrs)] {
        let counts: Vec<usize> = groups.iter().map(Latencies::len).collect();
        eprintln!(
            "  {what} wall us, first group: {}; samples per group {counts:?}",
            groups[0].describe()
        );
    }
    for (groups, name) in [(reads, names[0]), (attrs, names[1])] {
        match crate::stats::median_over_groups(groups, p) {
            Ok(v) => rep.metric(name, v, "us"),
            Err(e) => rep.errors.push(format!("{name}: {e}")),
        }
    }
}

/// READ and attribute-call wall latency groups, one per iteration.
fn wall_groups(iters: &[Iteration]) -> (Vec<Latencies>, Vec<Latencies>) {
    let reads = iters.iter().map(|i| i.log.wall(&[ClientOp::Read])).collect();
    let attrs = iters.iter().map(|i| i.log.wall(&[ClientOp::Stat, ClientOp::Open])).collect();
    (reads, attrs)
}

/// Virtual WRITE latency of one run, fed to the determinism check.
/// Every run of a seed repeats these values, so they are taken from one
/// run's samples: pooling copies would fake the sample count.
pub fn sim_write_latency(rep: &mut Report, log: &OpLog) {
    let sim_write = log.sim(ClientOp::Write);
    for (name, p) in [("sim_write_p50_ms", 50.0), ("sim_write_p99_ms", 99.0)] {
        match sim_write.at(p) {
            Ok(v) => rep.deterministic(name, v),
            Err(e) => rep.errors.push(format!("{name}: {e}")),
        }
    }
}

/// Reports the end-to-end virtual-time metrics recorded by
/// [`Report::deterministic`].
pub fn deterministic_metrics(rep: &mut Report) {
    for (name, unit) in [
        ("sim_runtime_s", "sim_s"),
        ("wan_rpcs", "count"),
        ("sim_write_p50_ms", "sim_ms"),
        ("sim_write_p99_ms", "sim_ms"),
    ] {
        if let Some(&(_, v)) = rep.deterministic.iter().find(|(n, _)| *n == name) {
            rep.metric(name, v, unit);
        }
    }
}

/// Per-call client metrics from a traced log.
fn client_layer_metrics(rep: &mut Report, log: &OpLog) {
    let sums = trace::summarise(&log.spans);
    for op in ClientOp::ALL {
        let t = sums.get(op.span()).copied().unwrap_or_default();
        rep.metric(format!("client.wall_us.{}", op.name()), t.mean_us(), "us");
        rep.metric(format!("client.sim_ms.{}", op.name()), t.mean_virt_ms(), "sim_ms");
    }
}

/// Proxy client, store and proxy server counters of a finished session.
/// `user_bytes` is what the workload wrote through its clients.
fn session_layer_metrics(rep: &mut Report, session: &Session, clients: usize, user_bytes: u64) {
    let mut pc = gvfs_core::proxy::client::ProxyClientStats::default();
    let mut disk = gvfs_netsim::disk::DiskStats::default();
    for i in 0..clients {
        let s = session.proxy_client(i).stats();
        pc.served_local += s.served_local;
        pc.forwarded += s.forwarded;
        pc.read_hits += s.read_hits;
        pc.read_misses += s.read_misses;
        pc.prefetch_issued += s.prefetch_issued;
        pc.prefetch_hits += s.prefetch_hits;
        pc.invalidations_applied += s.invalidations_applied;
        pc.callbacks += s.callbacks;
        pc.dedup_hits += s.dedup_hits;
        pc.cache_bytes += s.cache_bytes;
        pc.cache_evictions += s.cache_evictions;
        if let Some(d) = session.client_disk(i) {
            let d = d.stats();
            disk.bytes_written += d.bytes_written;
            disk.syncs += d.syncs;
            disk.reads += d.reads;
        }
    }
    let f = |v: u64| v as f64;
    rep.metric(
        "proxy_client.local_ratio",
        ratio(f(pc.served_local), f(pc.served_local + pc.forwarded)),
        "ratio",
    );
    rep.metric(
        "proxy_client.read_hit_ratio",
        ratio(f(pc.read_hits), f(pc.read_hits + pc.read_misses)),
        "ratio",
    );
    rep.metric(
        "proxy_client.prefetch_useful_ratio",
        ratio(f(pc.prefetch_hits), f(pc.prefetch_issued)),
        "ratio",
    );
    rep.metric("proxy_client.invalidations_applied", f(pc.invalidations_applied), "count");
    rep.metric("proxy_client.callbacks", f(pc.callbacks), "count");
    rep.metric(
        "store.disk_bytes_written_per_user_byte",
        ratio(f(disk.bytes_written), f(user_bytes)),
        "ratio",
    );
    rep.metric("store.disk_syncs", f(disk.syncs), "count");
    rep.metric("store.disk_reads", f(disk.reads), "count");
    rep.metric("store.dedup_hits", f(pc.dedup_hits), "count");
    rep.metric("store.cache_bytes", f(pc.cache_bytes), "bytes");
    rep.metric("store.evictions", f(pc.cache_evictions), "count");
    let ss = session.proxy_server().scale_stats();
    rep.metric("proxy_server.recalls_sent", f(ss.recalls_sent), "count");
    rep.metric("proxy_server.getinv_replies", f(ss.inval.getinv_replies), "count");
    rep.metric("proxy_server.piggyback_replies", f(ss.inval.piggyback_replies), "count");
    rep.metric(
        "proxy_server.inval_lock_contended_ratio",
        ratio(f(ss.inval.lock_contended), f(ss.inval.lock_acquisitions)),
        "ratio",
    );
    rep.metric("proxy_server.deleg_files", ss.deleg_files as f64, "count");
}
