//! The replend end-to-end benchmark.
//!
//! ```text
//! replend-perfbench --workload <ingest_journal|read_mostly|community_sim|all>
//!                   --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload builds its inputs from `--seed`, measures for
//! `--seconds`, checks the program's outputs and prints a report
//! followed by one JSON result line. With `--trace 0` the result
//! carries the end-to-end metrics; with `--trace 1` the measured
//! window alternates untraced and traced segments and the result
//! carries the per-layer metrics. See README.md.

mod community_sim;
mod ingest_journal;
mod loadgen;
mod meter;
mod read_mostly;
mod report;
mod stats;
mod trace;

use meter::Meter;
use report::Outcome;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

const WORKLOADS: [&str; 3] = ["ingest_journal", "read_mostly", "community_sim"];

/// End-to-end metrics, reported by every workload with tracing off.
/// Each workload maps them onto its own foreground operation (see
/// README.md).
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p90_us", "us"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported by the traced pass. A workload reports
/// 0 for a layer it bypasses.
const PER_LAYER: &[(&str, &str)] = &[
    ("loadgen.ingest.ns_per_opinion", "ns"),
    ("serve.report_batch.ns_per_opinion", "ns"),
    ("wire.journal_append.ns_per_opinion", "ns"),
    ("concurrent.report_batch.ns_per_opinion", "ns"),
    ("serve.report_batch.residual", "ns"),
    ("loadgen.generate.ns_per_opinion", "ns"),
    ("loadgen.ingest.residual", "ns"),
    ("concurrent.register_batch.ns_per_subject", "ns"),
    ("wire.journal.bytes_per_opinion", "B"),
    ("state.checkpoint.bytes_per_subject", "B"),
    ("serve.checkpoint_s", "s"),
    ("state.export_partitions_s", "s"),
    ("wire.partition_encode_s", "s"),
    ("fs.write_sync_s", "s"),
    ("serve.checkpoint.residual", "s"),
    ("wire.partition_decode_s", "s"),
    ("state.import_partitions_s", "s"),
    ("wire.journal_decode.ns_per_opinion", "ns"),
    ("serve.restart.residual", "s"),
    ("serve.restart_s", "s"),
    ("wire.journal_decode_s", "s"),
    ("serve.status.ns_p50", "ns"),
    ("serve.status.ns_p99", "ns"),
    ("serve.reputation.ns_p50", "ns"),
    ("serve.reputation.ns_p99", "ns"),
    ("loadgen.read_late_ns_p50", "ns"),
    ("loadgen.read_late_ns_p99", "ns"),
    ("loadgen.probe.ns_mean", "ns"),
    ("loadgen.read_late.ns_mean", "ns"),
    ("serve.reputation.ns_mean", "ns"),
    ("serve.status.ns_mean", "ns"),
    ("loadgen.probe.residual", "ns"),
    ("community.step.ns_p50", "ns"),
    ("community.step.ns_p99", "ns"),
    ("community.tick.ns_mean", "ns"),
    ("community.step.ns_mean", "ns"),
    ("community.sample.ns_per_tick", "ns"),
    ("community.sample.ns", "ns"),
    ("community.tick.residual", "ns"),
    ("messages.per_tick.introduction_requests", "count"),
    ("messages.per_tick.deduct_stake", "count"),
    ("messages.per_tick.credit_sent", "count"),
    ("messages.per_tick.responses", "count"),
    ("messages.per_tick.audit_verdicts", "count"),
    ("messages.credit_delivery_ratio", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// Windows a run's measured time is cut into. Throughput and latency
/// percentiles are medians over windows, so one disturbed window does
/// not move them, and the traced pass alternates traced and untraced
/// ones.
pub const WINDOWS: u32 = 10;

/// How many times each workload repeats its set-up; `setup_s` is the
/// median.
pub const SETUP_REPEATS: usize = 5;

/// One workload invocation.
pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory for journals and checkpoints, inside the
    /// working directory; removed when the run ends.
    pub work_dir: PathBuf,
}

impl Run {
    /// Length of one measured window.
    pub fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds / f64::from(WINDOWS))
    }

    /// Whether window `index` is traced: in the traced pass, every
    /// second window, so drift in the workload hits both halves.
    pub fn traced_window(&self, index: u32) -> bool {
        self.trace && index % 2 == 1
    }
}

/// Times `f` [`SETUP_REPEATS`] times and returns the median seconds
/// with the last result.
pub fn repeat_setup<T>(mut f: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        // Free the previous instance first, so peak memory is one
        // instance, not several.
        drop(last.take());
        let start = Instant::now();
        let value = f();
        times.push(start.elapsed().as_secs_f64());
        last = Some(value);
    }
    let median = stats::median(&times).expect("at least one set-up");
    (median, last.expect("at least one set-up"))
}

/// Records the end-to-end latency metrics from `meter`'s untraced
/// windows, in microseconds: the medians over windows of each
/// window's P50 and P90. The P99 — and the highest percentile the
/// pooled samples support — go into the report with the sample count
/// but are not gated: on a shared host they move with the neighbours'
/// load by more than any useful bound.
pub fn report_latency(out: &mut Outcome, what: &str, meter: &Meter) {
    let l = meter.latency(false);
    out.set("latency_p50_us", "us", l.p50_ns / 1e3);
    out.set("latency_p90_us", "us", l.p90_ns / 1e3);
    out.note(format!(
        "{what}: n={} in {} windows; median over windows p50={:.3}us p90={:.3}us \
         p99={:.3}us; pooled p50={:.3}us p99={:.3}us (highest supported tail: {})",
        l.pooled.count,
        l.windows,
        l.p50_ns / 1e3,
        l.p90_ns / 1e3,
        l.p99_ns.unwrap_or(f64::NAN) / 1e3,
        l.pooled.p50_ns / 1e3,
        l.pooled.tail_ns.unwrap_or(f64::NAN) / 1e3,
        stats::tail_quantile(l.pooled.count).map_or("none".into(), |q| format!("P{}", q * 100.0)),
    ));
}

/// Records `trace.overhead_frac` for a headline metric measured in
/// both kinds of window: positive when tracing made it worse.
pub fn report_overhead(out: &mut Outcome, untraced: f64, traced: f64, higher_is_better: bool) {
    let frac = if untraced == 0.0 {
        0.0
    } else if higher_is_better {
        (untraced - traced) / untraced
    } else {
        (traced - untraced) / untraced
    };
    out.set("trace.overhead_frac", "ratio", frac);
}

/// Peak resident memory of this process, from `/proc/self/status`.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (one of {}, all)",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Runs every workload, each in its own child process so each reports
/// its own peak memory, and fails if any of them fails.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for name in WORKLOADS {
        let status = std::process::Command::new(&exe)
            .args(["--workload", name, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("perfbench: {name} failed ({s})");
                ok = false;
            }
            Err(e) => {
                eprintln!("perfbench: cannot run {name}: {e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let work_dir = PathBuf::from(".perfbench-work").join(std::process::id().to_string());
    if let Err(e) = std::fs::create_dir_all(&work_dir) {
        eprintln!("perfbench: cannot create {}: {e}", work_dir.display());
        return ExitCode::FAILURE;
    }
    let run = Run {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        work_dir,
    };
    let result = match args.workload.as_str() {
        "ingest_journal" => ingest_journal::run(&run),
        "read_mostly" => read_mostly::run(&run),
        "community_sim" => community_sim::run(&run),
        _ => unreachable!("workload names are checked in parse_args"),
    };
    let _ = std::fs::remove_dir_all(&run.work_dir);
    let _ = std::fs::remove_dir(".perfbench-work");
    let out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    print!("{}", out.render(&args.workload));
    let (names, absent_is_zero) = if run.trace {
        (PER_LAYER, true)
    } else {
        (END_TO_END, false)
    };
    match out.result_line(names, absent_is_zero) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    }
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
