//! Chaos soak: runs the seeded fault-injection scenarios over a seed
//! matrix, replaying every seed twice to prove determinism, shrinking
//! any violation to a minimal reproducer, and writing
//! `results/chaos_violations.json` for CI artifact upload. A run with
//! any `--break-*` self-test writes `results/chaos_selftest.json`
//! instead, so it never overwrites the seed matrix's record.
//!
//! Run: `cargo run --release -p gvfs-bench --bin chaos_soak --
//!       [--seeds N] [--start S] [--model all|passthrough|polling|delegation]
//!       [--break-recall] [--break-peerread] [--break-scrub]
//!       [--trace-dir DIR]` (`--help` prints the flags)
//!
//! `--trace-dir DIR` writes each run's protocol-event trace to
//! `DIR/<model>-seed<N>.jsonl` for `gvfs-analysis -- replay` conformance
//! checking; the traces also join the determinism comparison.
//!
//! `--break-recall` is the harness self-test: it re-runs the matrix with
//! delegation recalls suppressed and **fails unless** the oracles catch
//! the breakage and the shrinker produces a reproducer — a chaos harness
//! that cannot see a broken protocol is worse than none.
//! `--break-peerread` is the same idea for the peer mesh: it re-runs the
//! peer-partition scenario with de-advertisement suppressed and the
//! serving peer answering from raw (condemned) store bytes, and fails
//! unless the oracle convicts the stale read on at least one seed.
//! `--break-scrub` is the same idea for store integrity: it re-runs the
//! disk-corruption scenario with verify-on-read disabled, so the store
//! serves rotted bytes, and fails unless the oracle convicts at least
//! 7 in 8 seeds (the rot is planted deterministically, so conviction
//! should be near-universal).
//!
//! Exit codes: 0 clean, 1 violations or a determinism break, 2 a
//! `--break-*` self-test found the harness toothless, or a bad argument.

use gvfs_bench::save_json;
use gvfs_integration::chaos::{
    format_reproducer, generate_events, run_crash_restart, run_disk_corruption, run_partition_heal,
    run_peer_partition, run_scenario, shrink_failure, ModelKind, ScenarioConfig,
};
use serde_json::json;

const USAGE: &str = "\
usage: chaos_soak [--seeds N] [--start S] [--model all|passthrough|polling|delegation]
                  [--break-recall] [--break-peerread] [--break-scrub] [--trace-dir DIR]

  --seeds N         seeds per scenario (default 8)
  --start S         first seed (default 1)
  --model M         consistency model of the matrix (default all)
  --break-recall    self-test: suppress delegation recalls, require conviction
  --break-peerread  self-test: serve condemned peer blocks, require conviction
  --break-scrub     self-test: disable verify-on-read, require 7 in 8 convictions
  --trace-dir DIR   write each run's protocol-event trace to DIR/<model>-seed<N>.jsonl

Writes results/chaos_violations.json, or results/chaos_selftest.json when a
--break-* self-test runs. Exit codes: 0 clean, 1 violations or a determinism
break, 2 a self-test found the harness toothless or a bad argument.
";

struct Args {
    seeds: u64,
    start: u64,
    models: Vec<ModelKind>,
    break_recall: bool,
    break_peerread: bool,
    break_scrub: bool,
    trace_dir: Option<std::path::PathBuf>,
}

/// Parses the command line; `Ok(None)` asks for the usage text.
fn parse_args() -> Result<Option<Args>, String> {
    fn value(argv: &mut impl Iterator<Item = String>, flag: &str) -> Result<String, String> {
        argv.next().ok_or_else(|| format!("{flag} needs a value"))
    }
    fn number(v: &str, flag: &str) -> Result<u64, String> {
        v.parse().map_err(|_| format!("{flag} takes a number, got {v:?}"))
    }
    let mut out = Args {
        seeds: 8,
        start: 1,
        models: ModelKind::ALL.to_vec(),
        break_recall: false,
        break_peerread: false,
        break_scrub: false,
        trace_dir: None,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--help" | "-h" => return Ok(None),
            "--seeds" => out.seeds = number(&value(&mut argv, &arg)?, &arg)?,
            "--start" => out.start = number(&value(&mut argv, &arg)?, &arg)?,
            "--model" => {
                out.models =
                    match value(&mut argv, &arg)?.as_str() {
                        "all" => ModelKind::ALL.to_vec(),
                        name => vec![ModelKind::parse(name)
                            .ok_or_else(|| format!("unknown model {name:?}"))?],
                    };
            }
            "--break-recall" => out.break_recall = true,
            "--break-peerread" => out.break_peerread = true,
            "--break-scrub" => out.break_scrub = true,
            "--trace-dir" => {
                out.trace_dir = Some(std::path::PathBuf::from(value(&mut argv, &arg)?));
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Some(out))
}

fn write_trace(dir: &std::path::Path, name: &str, seed: u64, trace: &str) {
    if let Err(e) = std::fs::create_dir_all(dir) {
        panic!("cannot create trace dir {}: {e}", dir.display());
    }
    let path = dir.join(format!("{name}-seed{seed}.jsonl"));
    if let Err(e) = std::fs::write(&path, trace) {
        panic!("cannot write trace {}: {e}", path.display());
    }
}

fn main() {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => {
            print!("{USAGE}");
            return;
        }
        Err(e) => {
            eprint!("chaos_soak: {e}\n\n{USAGE}");
            std::process::exit(2);
        }
    };
    let mut violations = Vec::new();
    let mut determinism_breaks = 0u64;
    let mut runs = 0u64;

    for &model in &args.models {
        for seed in args.start..args.start + args.seeds {
            let cfg = ScenarioConfig::new(seed, model);
            let a = run_scenario(&cfg);
            let b = run_scenario(&cfg);
            runs += 2;
            if let Some(dir) = &args.trace_dir {
                write_trace(dir, model.name(), seed, &a.protocol_trace);
            }
            if a.trace_hash != b.trace_hash
                || a.violations != b.violations
                || a.protocol_trace != b.protocol_trace
            {
                determinism_breaks += 1;
                println!(
                    "DETERMINISM BREAK: seed={seed} model={} hashes {:#x} vs {:#x}",
                    model.name(),
                    a.trace_hash,
                    b.trace_hash
                );
                continue;
            }
            if a.violations.is_empty() {
                println!("seed={seed} model={} ok (trace {:#x})", model.name(), a.trace_hash);
                continue;
            }
            println!(
                "seed={seed} model={}: {} violation(s), shrinking...",
                model.name(),
                a.violations.len()
            );
            let events = generate_events(seed, cfg.clients);
            let shrunk = shrink_failure(&cfg, &events);
            let reproducer = shrunk.as_ref().map(format_reproducer);
            if let Some(repro) = &reproducer {
                println!("{repro}");
            }
            violations.push(json!({
                "seed": seed,
                "model": model.name(),
                "suppress_recalls": false,
                "violations": a.violations.iter().map(|v| v.to_string()).collect::<Vec<_>>(),
                "shrunk_events": shrunk
                    .as_ref()
                    .map(|s| s.events.iter().map(|e| e.to_string()).collect::<Vec<_>>()),
                "reproducer": reproducer,
            }));
        }
    }

    // The scripted partition-heal scenario rides alongside the random
    // matrix whenever delegation is in scope: a 35 s partition must trip
    // the breaker, the ladder must serve bounded-staleness reads, and
    // the heal must re-promote without losing an acknowledged write.
    if args.models.contains(&ModelKind::Delegation) {
        for seed in args.start..args.start + args.seeds {
            let a = run_partition_heal(seed);
            let b = run_partition_heal(seed);
            runs += 2;
            if let Some(dir) = &args.trace_dir {
                write_trace(dir, "partition-heal", seed, &a.protocol_trace);
            }
            if a.trace_hash != b.trace_hash
                || a.history != b.history
                || a.protocol_trace != b.protocol_trace
            {
                determinism_breaks += 1;
                println!(
                    "DETERMINISM BREAK: partition-heal seed={seed} hashes {:#x} vs {:#x}",
                    a.trace_hash, b.trace_hash
                );
                continue;
            }
            if a.violations.is_empty() {
                println!(
                    "seed={seed} partition-heal ok (trips {}, degraded reads {}, trace {:#x})",
                    a.breaker_trips, a.writer_stats.degraded_reads, a.trace_hash
                );
                continue;
            }
            println!("seed={seed} partition-heal: {} violation(s)", a.violations.len());
            violations.push(json!({
                "seed": seed,
                "model": "partition-heal",
                "suppress_recalls": false,
                "violations": a.violations.iter().map(|v| v.to_string()).collect::<Vec<_>>(),
                "shrunk_events": Option::<Vec<String>>::None,
                "reproducer": Option::<String>::None,
            }));
        }
    }

    // The scripted crash-restart scenario also rides along for the
    // delegation model: a mid-write-back machine crash on a persistent
    // block store must recover exactly the synced prefix — the torn WAL
    // tail discarded, the surviving dirty data reconciled, and no reader
    // ever served a torn or never-synced block from disk.
    if args.models.contains(&ModelKind::Delegation) {
        for seed in args.start..args.start + args.seeds {
            let a = run_crash_restart(seed);
            let b = run_crash_restart(seed);
            runs += 2;
            if let Some(dir) = &args.trace_dir {
                write_trace(dir, "crash-restart", seed, &a.protocol_trace);
            }
            if a.trace_hash != b.trace_hash
                || a.history != b.history
                || a.protocol_trace != b.protocol_trace
            {
                determinism_breaks += 1;
                println!(
                    "DETERMINISM BREAK: crash-restart seed={seed} hashes {:#x} vs {:#x}",
                    a.trace_hash, b.trace_hash
                );
                continue;
            }
            if a.violations.is_empty() {
                println!(
                    "seed={seed} crash-restart ok (warm blocks {}, trace {:#x})",
                    a.writer_stats.restart_warm_blocks, a.trace_hash
                );
                continue;
            }
            println!("seed={seed} crash-restart: {} violation(s)", a.violations.len());
            violations.push(json!({
                "seed": seed,
                "model": "crash-restart",
                "suppress_recalls": false,
                "violations": a.violations.iter().map(|v| v.to_string()).collect::<Vec<_>>(),
                "shrunk_events": Option::<Vec<String>>::None,
                "reproducer": Option::<String>::None,
            }));
        }
    }

    // The scripted peer-partition scenario: a serving peer is cut off
    // mid-PEERREAD (the read must complete via origin fallback, never
    // torn or stale), and a later write must condemn every advertised
    // peer copy before the verify-phase mesh reads.
    if args.models.contains(&ModelKind::Delegation) {
        for seed in args.start..args.start + args.seeds {
            let a = run_peer_partition(seed, false);
            let b = run_peer_partition(seed, false);
            runs += 2;
            if let Some(dir) = &args.trace_dir {
                write_trace(dir, "peer-partition", seed, &a.protocol_trace);
            }
            if a.trace_hash != b.trace_hash
                || a.history != b.history
                || a.protocol_trace != b.protocol_trace
            {
                determinism_breaks += 1;
                println!(
                    "DETERMINISM BREAK: peer-partition seed={seed} hashes {:#x} vs {:#x}",
                    a.trace_hash, b.trace_hash
                );
                continue;
            }
            if a.violations.is_empty() {
                println!(
                    "seed={seed} peer-partition ok (peer hits {}, fallbacks {}, trace {:#x})",
                    a.reader_stats.peer_hits, a.reader_stats.peer_fallbacks, a.trace_hash
                );
                continue;
            }
            println!("seed={seed} peer-partition: {} violation(s)", a.violations.len());
            violations.push(json!({
                "seed": seed,
                "model": "peer-partition",
                "suppress_recalls": false,
                "violations": a.violations.iter().map(|v| v.to_string()).collect::<Vec<_>>(),
                "shrunk_events": Option::<Vec<String>>::None,
                "reproducer": Option::<String>::None,
            }));
        }
    }

    // The scripted disk-corruption scenario: silent media rot on a
    // client's persistent store must be quarantined by verify-on-read
    // and repaired by the background scrubber — no reader may ever
    // observe a checksum-failed block.
    if args.models.contains(&ModelKind::Delegation) {
        for seed in args.start..args.start + args.seeds {
            let a = run_disk_corruption(seed, false);
            let b = run_disk_corruption(seed, false);
            runs += 2;
            if let Some(dir) = &args.trace_dir {
                write_trace(dir, "disk-corruption", seed, &a.protocol_trace);
            }
            if a.trace_hash != b.trace_hash
                || a.history != b.history
                || a.protocol_trace != b.protocol_trace
            {
                determinism_breaks += 1;
                println!(
                    "DETERMINISM BREAK: disk-corruption seed={seed} hashes {:#x} vs {:#x}",
                    a.trace_hash, b.trace_hash
                );
                continue;
            }
            if a.violations.is_empty() {
                println!(
                    "seed={seed} disk-corruption ok (rotted {}, quarantined {}, scrub repairs \
                     {}, trace {:#x})",
                    a.corrupted_paths,
                    a.reader_stats.quarantined_blocks,
                    a.reader_stats.scrub_repairs,
                    a.trace_hash
                );
                continue;
            }
            println!("seed={seed} disk-corruption: {} violation(s)", a.violations.len());
            violations.push(json!({
                "seed": seed,
                "model": "disk-corruption",
                "suppress_recalls": false,
                "quarantine_report": {
                    "corrupted_paths": a.corrupted_paths,
                    "integrity_failures": a.reader_stats.integrity_failures,
                    "quarantined_blocks": a.reader_stats.quarantined_blocks,
                    "refetch_repairs": a.reader_stats.refetch_repairs,
                    "scrub_repairs": a.reader_stats.scrub_repairs,
                    "integrity_dirty_loss": a.reader_stats.integrity_dirty_loss,
                },
                "violations": a.violations.iter().map(|v| v.to_string()).collect::<Vec<_>>(),
                "shrunk_events": Option::<Vec<String>>::None,
                "reproducer": Option::<String>::None,
            }));
        }
    }

    // Self-test: with recalls suppressed the oracles MUST fire on at
    // least one seed, and the shrinker must produce a reproducer.
    let mut selftest_failed = false;
    if args.break_recall {
        let mut caught = 0u64;
        let mut shrunk_ok = false;
        for seed in args.start..args.start + args.seeds {
            let mut cfg = ScenarioConfig::new(seed, ModelKind::Delegation);
            cfg.suppress_recalls = true;
            let report = run_scenario(&cfg);
            runs += 1;
            if report.violations.is_empty() {
                continue;
            }
            caught += 1;
            if !shrunk_ok {
                let events = generate_events(seed, cfg.clients);
                if let Some(s) = shrink_failure(&cfg, &events) {
                    shrunk_ok = true;
                    println!(
                        "self-test: suppression caught at seed={seed}, shrunk to {} event(s)",
                        s.events.len()
                    );
                    println!("{}", format_reproducer(&s));
                }
            }
        }
        if caught == 0 || !shrunk_ok {
            selftest_failed = true;
            println!(
                "SELF-TEST FAILED: recall suppression caught on {caught}/{} seeds, \
                 shrinker ok: {shrunk_ok} — the harness has lost its teeth",
                args.seeds
            );
        } else {
            println!("self-test passed: suppression caught on {caught}/{} seeds", args.seeds);
        }
    }

    // Self-test: with de-advertisement suppressed and the serving peer
    // answering from condemned store bytes, the peer-partition oracle
    // MUST convict the stale read on at least one seed.
    if args.break_peerread {
        let mut caught = 0u64;
        for seed in args.start..args.start + args.seeds {
            let report = run_peer_partition(seed, true);
            runs += 1;
            if report.violations.is_empty() {
                continue;
            }
            caught += 1;
            if caught == 1 {
                println!(
                    "self-test: broken peer convicted at seed={seed}: {}",
                    report.violations[0]
                );
            }
        }
        if caught == 0 {
            selftest_failed = true;
            println!(
                "SELF-TEST FAILED: a peer serving condemned blocks went unconvicted on all \
                 {} seeds — the peer oracle has lost its teeth",
                args.seeds
            );
        } else {
            println!("self-test passed: broken peer convicted on {caught}/{} seeds", args.seeds);
        }
    }

    // Self-test: with verify-on-read disabled the store serves rotted
    // bytes, and the disk-corruption oracle MUST convict nearly every
    // seed — the rot is planted deterministically, so anything short of
    // 7 in 8 means the integrity machinery has a blind spot.
    let mut break_scrub_caught = 0u64;
    if args.break_scrub {
        for seed in args.start..args.start + args.seeds {
            let report = run_disk_corruption(seed, true);
            runs += 1;
            if report.violations.is_empty() {
                println!("self-test: seed={seed} served rot UNCONVICTED");
                continue;
            }
            break_scrub_caught += 1;
            if break_scrub_caught == 1 {
                println!(
                    "self-test: served rot convicted at seed={seed}: {}",
                    report.violations[0]
                );
            }
        }
        if break_scrub_caught * 8 < args.seeds * 7 {
            selftest_failed = true;
            println!(
                "SELF-TEST FAILED: a store serving rotted bytes was convicted on only \
                 {break_scrub_caught}/{} seeds (need 7 in 8) — the integrity oracle has lost \
                 its teeth",
                args.seeds
            );
        } else {
            println!(
                "self-test passed: served rot convicted on {break_scrub_caught}/{} seeds",
                args.seeds
            );
        }
    }

    // Self-tests run reduced matrices with broken fixtures: their record
    // must not overwrite the full matrix's.
    let selftest = args.break_recall || args.break_peerread || args.break_scrub;
    save_json(
        if selftest { "chaos_selftest.json" } else { "chaos_violations.json" },
        &json!({
            "runs": runs,
            "seed_start": args.start,
            "seeds": args.seeds,
            "models": args.models.iter().map(|m| m.name()).collect::<Vec<_>>(),
            "determinism_breaks": determinism_breaks,
            "break_recall_selftest": if args.break_recall {
                Some(!selftest_failed)
            } else {
                None
            },
            "break_peerread_selftest": if args.break_peerread {
                Some(!selftest_failed)
            } else {
                None
            },
            "break_scrub_selftest": if args.break_scrub {
                Some(break_scrub_caught * 8 >= args.seeds * 7)
            } else {
                None
            },
            "violations": violations.clone(),
        }),
    );

    if selftest_failed {
        std::process::exit(2);
    }
    if determinism_breaks > 0 || !violations.is_empty() {
        std::process::exit(1);
    }
    println!("chaos soak clean: {runs} runs, no violations, no determinism breaks");
}
