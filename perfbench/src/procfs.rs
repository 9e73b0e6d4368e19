//! Process counters: CPU time and peak memory from `/proc/self`, context
//! switches from `getrusage`.

/// Clock ticks per second of `/proc/<pid>/stat` times (`USER_HZ`, 100 on
/// every mainstream Linux build).
const TICKS_PER_S: f64 = 100.0;

/// One reading of the process counters.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ProcSample {
    /// User CPU seconds, all threads.
    pub user_s: f64,
    /// System CPU seconds, all threads.
    pub sys_s: f64,
    /// Voluntary context switches, all threads (exited ones included).
    pub voluntary_ctxt: u64,
    /// Peak resident set size, KiB.
    pub peak_rss_kib: u64,
}

impl ProcSample {
    /// Reads the counters now.
    pub fn now() -> Result<ProcSample, String> {
        let stat = std::fs::read_to_string("/proc/self/stat").map_err(|e| e.to_string())?;
        let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
        let (user_s, sys_s) = parse_stat_times(&stat)?;
        let peak_rss_kib = status_field(&status, "VmHWM")?;
        let voluntary_ctxt = voluntary_context_switches()?;
        Ok(ProcSample { user_s, sys_s, voluntary_ctxt, peak_rss_kib })
    }

    /// Counters accumulated since `earlier` (peak memory is kept as is).
    pub fn since(&self, earlier: &ProcSample) -> ProcSample {
        ProcSample {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            voluntary_ctxt: self.voluntary_ctxt.saturating_sub(earlier.voluntary_ctxt),
            peak_rss_kib: self.peak_rss_kib,
        }
    }
}

/// `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen longs.
#[repr(C)]
struct Rusage {
    times: [i64; 4],
    longs: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// Voluntary context switches of the whole process. `/proc/self/status`
/// counts the main thread only, and per-thread files vanish when
/// simulator actor threads exit, so this asks the kernel's process-wide
/// `getrusage(RUSAGE_SELF)` total instead.
fn voluntary_context_switches() -> Result<u64, String> {
    const RUSAGE_SELF: i32 = 0;
    let mut usage = Rusage { times: [0; 4], longs: [0; 14] };
    // SAFETY: `usage` is a live, writable value laid out as the C
    // `struct rusage` of this platform (4 + 14 eight-byte words), which
    // is all `getrusage` writes.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    if rc != 0 {
        return Err("getrusage failed".to_string());
    }
    // ru_nvcsw is the second-to-last long.
    u64::try_from(usage.longs[12]).map_err(|e| e.to_string())
}

/// User and system CPU seconds (fields 14 and 15) of a `stat` line. The
/// command name in field 2 may hold spaces and parentheses, so fields
/// are counted from the last `)`.
pub fn parse_stat_times(stat: &str) -> Result<(f64, f64), String> {
    let close = stat.rfind(')').ok_or("stat line without a command name")?;
    let fields: Vec<&str> = stat[close + 1..].split_whitespace().collect();
    // fields[0] is field 3 (state); utime is field 14, stime field 15.
    let tick = |i: usize| -> Result<f64, String> {
        let raw = fields.get(i).ok_or_else(|| format!("stat line has no field {}", i + 3))?;
        raw.parse::<u64>().map(|t| t as f64 / TICKS_PER_S).map_err(|e| e.to_string())
    };
    Ok((tick(11)?, tick(12)?))
}

/// The numeric value of `key` in a `status` file (`VmHWM:  1234 kB`).
pub fn status_field(status: &str, key: &str) -> Result<u64, String> {
    status
        .lines()
        .find_map(|line| line.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next())
        .ok_or_else(|| format!("status has no {key}"))?
        .parse()
        .map_err(|e: std::num::ParseIntError| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_times_survive_awkward_command_names() {
        let line = "4242 (my (odd) prog) S 1 4242 4242 0 -1 4194560 120 0 0 0 \
                    250 37 0 0 20 0 3 0 999 1000 200 18446744073709551615";
        assert_eq!(parse_stat_times(line), Ok((2.5, 0.37)));
        assert!(parse_stat_times("4242 no-parens S 1").is_err());
        assert!(parse_stat_times("4242 (short) S 1 2").is_err());
    }

    #[test]
    fn status_fields_parse() {
        let status = "Name:\tbench\nVmPeak:\t  9000 kB\nVmHWM:\t   5120 kB\n\
                      voluntary_ctxt_switches:\t17\nnonvoluntary_ctxt_switches:\t3\n";
        assert_eq!(status_field(status, "VmHWM"), Ok(5120));
        assert_eq!(status_field(status, "voluntary_ctxt_switches"), Ok(17));
        assert_eq!(status_field(status, "nonvoluntary_ctxt_switches"), Ok(3));
        assert!(status_field(status, "VmSwap").is_err());
    }

    #[test]
    fn live_reading_is_sane() {
        let a = ProcSample::now().expect("read /proc/self");
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        let b = ProcSample::now().expect("read /proc/self");
        let d = b.since(&a);
        assert!(d.user_s >= 0.0 && d.sys_s >= 0.0);
        assert!(b.peak_rss_kib > 0);
        assert!(b.voluntary_ctxt >= a.voluntary_ctxt);
    }
}
