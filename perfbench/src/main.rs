//! Wall-clock benchmark of the GVFS stack.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload tcp_nfs_mix --seed 1 --seconds 20 --trace 0
//! ```
//!
//! One run measures one workload for `--seconds`, checks its outputs and
//! prints every metric with its unit; the last line of standard output is
//! one JSON object (`correct`, `attempted`, `failed`, `metrics`). With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` a
//! separate traced run reports the per-layer ones. Any failed output check
//! makes the exit code 1. See `perfbench/README.md` for the workloads.

mod make_persist;
mod procfs;
mod report;
mod shared_deleg;
mod sim_scaling;
mod simrun;
mod stats;
mod tcp_mix;
mod trace;

use report::Report;
use std::path::PathBuf;
use std::process::ExitCode;

/// End-to-end metrics, every one reported by every workload.
const END_TO_END: [&str; 9] = [
    "setup_s",
    "ops_per_s",
    "read_p50_us",
    "getattr_p50_us",
    "sim_runtime_s",
    "wan_rpcs",
    "sim_write_p50_ms",
    "sim_write_p99_ms",
    "peak_rss_mb",
];

/// Per-layer metrics of the traced run with their units. A workload that
/// never enters a layer reports zero for it.
const PER_LAYER: &[(&str, &str)] = &[
    ("xdr.encode_us.read", "us"),
    ("xdr.encode_us.write", "us"),
    ("xdr.encode_us.getattr", "us"),
    ("xdr.encode_us.lookup", "us"),
    ("xdr.decode_us.read", "us"),
    ("xdr.decode_us.write", "us"),
    ("xdr.decode_us.getattr", "us"),
    ("xdr.decode_us.lookup", "us"),
    ("rpc.call_us.read", "us"),
    ("rpc.call_us.write", "us"),
    ("rpc.call_us.getattr", "us"),
    ("rpc.call_us.lookup", "us"),
    ("rpc.self_us.read", "us"),
    ("rpc.self_us.write", "us"),
    ("rpc.self_us.getattr", "us"),
    ("rpc.self_us.lookup", "us"),
    ("rpc.retransmits", "count"),
    ("rpc.bytes_per_op", "bytes"),
    ("server.dispatch_us.read", "us"),
    ("server.dispatch_us.write", "us"),
    ("server.dispatch_us.getattr", "us"),
    ("server.dispatch_us.lookup", "us"),
    ("tail.read_p99_us", "us"),
    ("tail.getattr_p99_us", "us"),
    ("proc.cpu_user_s", "s"),
    ("proc.cpu_sys_s", "s"),
    ("client.wall_us.stat", "us"),
    ("client.wall_us.open", "us"),
    ("client.wall_us.read", "us"),
    ("client.wall_us.write", "us"),
    ("client.wall_us.create", "us"),
    ("client.wall_us.remove", "us"),
    ("client.wall_us.lookup", "us"),
    ("client.sim_ms.stat", "sim_ms"),
    ("client.sim_ms.open", "sim_ms"),
    ("client.sim_ms.read", "sim_ms"),
    ("client.sim_ms.write", "sim_ms"),
    ("client.sim_ms.create", "sim_ms"),
    ("client.sim_ms.remove", "sim_ms"),
    ("client.sim_ms.lookup", "sim_ms"),
    ("proxy_client.local_ratio", "ratio"),
    ("proxy_client.read_hit_ratio", "ratio"),
    ("proxy_client.prefetch_useful_ratio", "ratio"),
    ("proxy_client.invalidations_applied", "count"),
    ("proxy_client.callbacks", "count"),
    ("store.disk_bytes_written_per_user_byte", "ratio"),
    ("store.disk_syncs", "count"),
    ("store.disk_reads", "count"),
    ("store.dedup_hits", "count"),
    ("store.cache_bytes", "bytes"),
    ("store.evictions", "count"),
    ("store.wall_share", "ratio"),
    ("proxy_server.recalls_sent", "count"),
    ("proxy_server.getinv_replies", "count"),
    ("proxy_server.piggyback_replies", "count"),
    ("proxy_server.inval_lock_contended_ratio", "ratio"),
    ("proxy_server.deleg_files", "count"),
    ("netsim.cpu_sys_s", "s"),
    ("netsim.ctx_switches_per_op", "count"),
    ("netsim.wall_ms_per_sim_s", "ms/sim_s"),
    ("netsim.echo_sys_s.clients_4", "s"),
    ("netsim.echo_sys_s.clients_8", "s"),
    ("netsim.echo_sys_s.clients_12", "s"),
    ("trace.ops_ratio", "ratio"),
    ("trace.spans", "count"),
];

const WORKLOADS: [&str; 3] = ["tcp_nfs_mix", "wan_make_persist", "wan_shared_deleg"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 20.0_f64, false);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value()? == "1",
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".to_string());
    }
    Ok(Args { workload, seed, seconds, trace })
}

/// Directory for span logs and determinism records, inside the checkout.
fn out_dir() -> PathBuf {
    PathBuf::from("perfbench").join("out")
}

/// Writes a traced run's spans next to the benchmark.
pub fn write_spans(workload: &str, seed: u64, spans: &[trace::Span]) {
    let path = out_dir().join(format!("spans-{workload}-seed{seed}.tsv"));
    if let Err(e) = trace::write_tsv(&path, spans) {
        eprintln!("warning: cannot write {}: {e}", path.display());
    }
}

/// FNV-1a of the running executable: determinism records are only
/// compared between runs of the same build.
fn build_id() -> String {
    let bytes = std::env::current_exe().and_then(std::fs::read).unwrap_or_default();
    let h = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    format!("{h:016x}")
}

/// Compares this run's deterministic values with the record left by an
/// earlier run of the same build, workload and seed (traced or not), and
/// leaves a record if there is none.
fn check_determinism(workload: &str, seed: u64, rep: &mut Report) {
    if rep.deterministic.is_empty() {
        return;
    }
    let line: String =
        rep.deterministic.iter().map(|(n, v)| format!("{n}={v:?}\n")).collect::<String>();
    let path = out_dir().join(format!("determinism-{workload}-seed{seed}-{}.txt", build_id()));
    match std::fs::read_to_string(&path) {
        Ok(earlier) => rep.check(earlier == line, || {
            format!(
                "determinism: {} differs from an earlier run of this build:\n{earlier}now:\n{line}",
                path.display()
            )
        }),
        Err(_) => {
            let written =
                std::fs::create_dir_all(out_dir()).and_then(|()| std::fs::write(&path, &line));
            if let Err(e) = written {
                eprintln!("warning: cannot write {}: {e}", path.display());
            }
        }
    }
}

/// Orders the metrics as the benchmark definition lists them and checks
/// that none is missing, unknown or not finite.
fn finish_metrics(rep: &mut Report, traced: bool) {
    let names: Vec<(&str, Option<&str>)> = if traced {
        PER_LAYER.iter().map(|&(n, u)| (n, Some(u))).collect()
    } else {
        END_TO_END.iter().map(|&n| (n, None)).collect()
    };
    let mut ordered = Vec::with_capacity(names.len());
    for (name, unit) in &names {
        match rep.metrics.iter().position(|(n, _, _)| n == name) {
            Some(i) => ordered.push(rep.metrics.remove(i)),
            // A layer the workload never entered: nothing was counted.
            None if traced => ordered.push(((*name).to_string(), 0.0, unit.unwrap_or("count"))),
            None => rep.errors.push(format!("metric {name} was not measured")),
        }
    }
    for (name, _, _) in &rep.metrics {
        rep.errors.push(format!("metric {name} is not in the benchmark definition"));
    }
    for (name, value, _) in &ordered {
        if !value.is_finite() {
            rep.errors.push(format!("metric {name} is {value}"));
        }
    }
    rep.metrics = ordered;
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "usage: gvfs-perfbench --workload <{}> --seed N --seconds S --trace 0|1",
                WORKLOADS.join("|")
            );
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "workload {} seed {} seconds {} trace {} (available parallelism {})",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    let mut rep = match args.workload.as_str() {
        "tcp_nfs_mix" => tcp_mix::run(args.seed, args.seconds, args.trace),
        "wan_make_persist" => make_persist::run(args.seed, args.seconds, args.trace),
        _ => shared_deleg::run(args.seed, args.seconds, args.trace),
    };
    check_determinism(&args.workload, args.seed, &mut rep);
    rep.check(rep.attempted > 0, || "no operation was attempted".to_string());
    finish_metrics(&mut rep, args.trace);
    for (name, value, unit) in &rep.metrics {
        println!("{name:44} {value:>16.4} {unit}");
    }
    println!("attempted {} failed {}", rep.attempted, rep.failed);
    for e in &rep.errors {
        eprintln!("OUTPUT CHECK FAILED: {e}");
    }
    let correct = rep.errors.is_empty();
    let metrics: Vec<String> = rep
        .metrics
        .iter()
        .map(|(n, v, u)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(n),
                json_number(*v),
                json_string(u)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        rep.attempted,
        rep.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
