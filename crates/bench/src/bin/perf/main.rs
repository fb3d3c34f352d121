//! `perf` — the two-clock benchmark.
//!
//! One command builds a workload's inputs from `--seed`, runs it, checks
//! its outputs and prints every metric by name with its unit. It reads
//! both clocks: wall-clock (what this host does) and virtual time (what
//! the α·β model predicts; labelled `virtual_*`, repeats exactly). It
//! touches no engine code: layers are measured from outside, by timing
//! calls into their public functions. See `README.md` beside this file.
//!
//! ```text
//! perf --workload <name|all> --seed <n> [--seconds <s>] [--trace [0|1]]
//!      [--trace-out <file>] [--verify-repeat]
//! ```
//!
//! The last line of standard output is one JSON object — `correct`,
//! `attempted`, `failed`, `metrics` — carrying the end-to-end metrics of
//! an untraced run or the per-layer metrics of a traced one.

mod bgp;
mod ncnpr;
mod probes;
mod serve;
mod tiers;
mod trace;
mod util;
mod workload;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;
use util::{median, peak_rss_mb, percentile, sorted, HostProbe};
use workload::{OpSample, Size, Values, Workload};

/// The four workloads, with the reason each exists (one line; the module
/// docs say more). `BENCHMARK.json` repeats this list.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "ncnpr-udf",
        "UDF/model kernels and Cluster::execute over 2048 ranks do ~98% of the wall work",
    ),
    (
        "bgp-join",
        "scan, hash join, exchange and gather on fat batches do ~95% of the work; no UDFs",
    ),
    ("serve-mix", "per-query fixed cost (parse, plan, admission, slice, reuse probe) dominates"),
    ("cache-tiers", "working set 4x DRAM with 20% writes: get, put, spill, promote and repair"),
];

/// End-to-end metrics (untraced run): name and unit. Bounds and
/// directions live in `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_ms_p50", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
    ("wall_ms_per_virtual_s", "ms/s"),
];

/// Per-layer metrics (traced run): name and unit, grouped by layer.
/// `virtual_*`, `failed_share`, counts and shares repeat exactly for a
/// seed; the rest are wall-clock diagnostics.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("virtual_s_p50", "s"),
    ("virtual_s_p99", "s"),
    ("failed_share", "fraction"),
    ("iql.lex_us", "us"),
    ("iql.parse_us", "us"),
    ("iql.canon_us", "us"),
    ("planner.lower_us", "us"),
    ("planner.prepare_us", "us"),
    ("planner.stats_collect_ms", "ms"),
    ("engine.pattern_ms", "ms"),
    ("engine.filter_ms", "ms"),
    ("engine.apply_ms", "ms"),
    ("engine.gather_ms", "ms"),
    ("engine.steps", "count"),
    ("engine.rows_out", "count"),
    ("engine.virtual_scan_s", "s"),
    ("engine.virtual_join_s", "s"),
    ("engine.virtual_rebalance_s", "s"),
    ("engine.virtual_filter_s", "s"),
    ("engine.virtual_apply_s", "s"),
    ("engine.virtual_gather_s", "s"),
    ("engine.span_sum_ratio", "fraction"),
    ("graph.scan_ns_per_triple", "ns"),
    ("graph.join_ns_per_row", "ns"),
    ("graph.merge_ns_per_row", "ns"),
    ("graph.batch_convert_ns_per_row", "ns"),
    ("graph.batches", "count"),
    ("graph.batch_rows", "count"),
    ("graph.exchange_bytes", "count"),
    ("udf.sw_us_per_call", "us"),
    ("udf.dtba_us_per_call", "us"),
    ("udf.pic50_ns_per_call", "ns"),
    ("udf.docking_ms_per_call", "ms"),
    ("udf.calls", "count"),
    ("udf.rejected_share", "fraction"),
    ("simrt.execute_us", "us"),
    ("simrt.alltoallv_us", "us"),
    ("simrt.barrier_us", "us"),
    ("simrt.ranks", "count"),
    ("cache.get_us", "us"),
    ("cache.put_us", "us"),
    ("cache.virtual_get_us", "us"),
    ("cache.hit_share", "fraction"),
    ("cache.reuse_hit_share", "fraction"),
    ("cache.spills", "count"),
    ("cache.promotes", "count"),
    ("cache.evictions", "count"),
    ("cache.admission_rejects", "count"),
    ("cache.anti_entropy_ms", "ms"),
    ("cache.typed_encode_ns_per_row", "ns"),
    ("cache.typed_decode_ns_per_row", "ns"),
    ("serve.submit_us", "us"),
    ("serve.round_us", "us"),
    ("serve.slices_per_query", "count"),
    ("serve.queue_wait_virtual_s_p50", "s"),
    ("serve.refused", "count"),
    ("obs.snapshot_us", "us"),
    ("obs.series", "count"),
    ("bench.samples", "count"),
    ("bench.wall_ms_p95", "ms"),
    ("bench.run_s", "s"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.host_slowdown", "fraction"),
    ("bench.result_digest", "count"),
];

/// Set-up is repeated in an untraced run and `setup_s` is the median: at
/// least three times, and for short set-ups up to nine times or until
/// the repeats have taken this many seconds.
const SETUP_REPEATS_MIN: usize = 3;
const SETUP_REPEATS_MAX: usize = 9;
const SETUP_BUDGET_S: f64 = 2.0;

fn build(name: &str, seed: u64, size: Size) -> Option<Box<dyn Workload>> {
    Some(match name {
        "ncnpr-udf" => Box::new(ncnpr::NcnprUdf::setup(seed, size)),
        "bgp-join" => Box::new(bgp::BgpJoin::setup(seed, size)),
        "serve-mix" => Box::new(serve::ServeMix::setup(seed, size)),
        "cache-tiers" => Box::new(tiers::CacheTiers::setup(seed, size)),
        _ => return None,
    })
}

/// What the deterministic window produced: compared bit-for-bit between
/// repeats, and the source of every `virtual_*` and count metric.
#[derive(Debug, Clone, PartialEq)]
struct Window {
    virtual_bits: Vec<u64>,
    digests: Vec<u64>,
    counts: Values,
}

impl Window {
    fn take(w: &dyn Workload, samples: &[OpSample]) -> Self {
        let mut counts = Values::default();
        w.counts(&mut counts);
        Self {
            virtual_bits: samples.iter().map(|s| s.virtual_s.to_bits()).collect(),
            digests: samples.iter().map(|s| s.digest).collect(),
            counts,
        }
    }

    fn virtual_sorted(&self) -> Vec<f64> {
        sorted(&self.virtual_bits.iter().map(|b| f64::from_bits(*b)).collect::<Vec<_>>())
    }

    fn digest(&self) -> u64 {
        util::fnv_words(self.digests.iter().copied())
    }

    /// First difference from `other`, in words.
    fn diff(&self, other: &Self) -> Option<String> {
        if let Some(i) = (0..self.virtual_bits.len().min(other.virtual_bits.len()))
            .find(|&i| self.virtual_bits[i] != other.virtual_bits[i])
        {
            return Some(format!(
                "operation {i}: virtual seconds {} vs {}",
                f64::from_bits(self.virtual_bits[i]),
                f64::from_bits(other.virtual_bits[i])
            ));
        }
        if let Some(i) = (0..self.digests.len().min(other.digests.len()))
            .find(|&i| self.digests[i] != other.digests[i])
        {
            return Some(format!("operation {i}: result digests differ"));
        }
        if self.virtual_bits.len() != other.virtual_bits.len() {
            return Some("operation counts differ".into());
        }
        self.counts
            .iter()
            .find(|(name, value)| other.counts.get(name).map(f64::to_bits) != Some(value.to_bits()))
            .map(|(name, value)| format!("{name}: {value} vs {:?}", other.counts.get(name)))
    }
}

/// Gap between host-speed probes while operations run.
const PROBE_EVERY: std::time::Duration = std::time::Duration::from_millis(50);

struct Timed {
    samples: Vec<OpSample>,
    window: Window,
    /// Wall seconds of the timed phase, host probes excluded.
    run_s: f64,
    /// Peak RSS as the window closed.
    rss_mb: f64,
}

/// Run the window on `w`, then keep going until `seconds` of timed work
/// have passed, sampling the host's speed between operations.
fn drive(w: &mut dyn Workload, tr: &mut Tracer, seconds: f64, host: &mut HostProbe) -> Timed {
    let k = w.window_ops();
    let mut samples = Vec::new();
    let mut closed: Option<(Window, f64)> = None;
    let probed_before = host.total_secs();
    let t = Instant::now();
    let mut last_probe = t;
    loop {
        w.step(tr, &mut samples);
        if last_probe.elapsed() >= PROBE_EVERY {
            host.sample();
            last_probe = Instant::now();
        }
        // The window closes at the first step boundary at or past `k`
        // (where a step completes several operations, that boundary
        // repeats too). Counts and RSS are read here, before the
        // open-ended phase, so they do not scale with the host's speed.
        if closed.is_none() && samples.len() >= k {
            closed = Some((Window::take(w, &samples), peak_rss_mb()));
        }
        if let Some((window, rss_mb)) = closed.take_if(|_| t.elapsed().as_secs_f64() >= seconds) {
            let run_s = t.elapsed().as_secs_f64() - (host.total_secs() - probed_before);
            return Timed { samples, window, run_s, rss_mb };
        }
    }
}

struct Report {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    fn json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // `{}` prints the shortest text that reads back as the same
            // f64: every digit measured, none invented.
            let _ = write!(s, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
        }
        s.push_str("}}");
        s
    }

    fn print(&self, workload: &str, samples: usize) {
        println!("# {workload}: {} operations attempted, {} failed", self.attempted, self.failed);
        for (name, value, unit) in &self.metrics {
            let n = if matches!(*name, "wall_ms_p50" | "virtual_s_p50" | "virtual_s_p99") {
                format!("  (n={samples})")
            } else {
                String::new()
            };
            let clock = if name.contains("virtual") { "  [model output]" } else { "" };
            println!("{name:<34} {value:>16.6} {unit}{n}{clock}");
        }
    }
}

fn wall_ms(samples: &[OpSample]) -> Vec<f64> {
    sorted(&samples.iter().map(|s| s.wall_ns as f64 / 1e6).collect::<Vec<_>>())
}

/// Untraced run: the end-to-end metrics.
fn run_end_to_end(name: &str, seed: u64, seconds: f64, size: Size) -> Option<(Report, Window)> {
    // Set-up and the timed phase each get their own probe: the host can
    // change state between them.
    let (mut setup_host, mut host) = (HostProbe::default(), HostProbe::default());
    let mut setups = Vec::new();
    let mut built: Option<Box<dyn Workload>> = None;
    let t_setups = Instant::now();
    while setups.len() < SETUP_REPEATS_MIN
        || (setups.len() < SETUP_REPEATS_MAX && t_setups.elapsed().as_secs_f64() < SETUP_BUDGET_S)
    {
        // Drop the previous instance first: peak RSS should hold one.
        drop(built.take());
        let t = Instant::now();
        built = Some(build(name, seed, size)?);
        setups.push(t.elapsed().as_secs_f64());
        for _ in 0..3 {
            setup_host.sample();
        }
    }
    let mut w = built?;
    let Timed { samples, window, run_s, rss_mb } =
        drive(w.as_mut(), &mut Tracer::new(false), seconds, &mut host);

    let failed = samples.iter().filter(|s| !s.ok).count();
    let wall = wall_ms(&samples);
    // Median of per-operation ratios: a sum would follow the few queries
    // whose virtual time swings eightfold while profiles settle.
    let ms_per_virtual_s: Vec<f64> = samples
        .iter()
        .filter(|s| s.virtual_s > 0.0)
        .map(|s| s.wall_ns as f64 / 1e6 / s.virtual_s)
        .collect();
    // Wall numbers as measured, then divided by the host-speed factor
    // (see `HostProbe`): times shrink, rates grow, memory is untouched.
    let raw = [
        median(&setups),
        percentile(&wall, 0.50),
        w.ops_per_sample() * samples.len() as f64 / run_s,
        rss_mb,
        median(&ms_per_virtual_s),
    ];
    let f = host.factor(w.alloc_share());
    let values =
        [raw[0] / setup_host.factor(w.alloc_share()), raw[1] / f, raw[2] * f, raw[3], raw[4] / f];
    let metrics = END_TO_END.iter().zip(values).map(|((n, u), v)| (*n, v, *u)).collect();
    let report = Report { correct: failed == 0, attempted: samples.len(), failed, metrics };
    report.print(name, samples.len());
    println!(
        "# host probe {:.3}x nominal ({:.3}x during {} set-ups), alloc share {} -> wall numbers \
         divided by {f:.4}; as measured:",
        host.slowdown(),
        setup_host.slowdown(),
        setups.len(),
        w.alloc_share()
    );
    for ((name, unit), value) in END_TO_END.iter().zip(raw) {
        println!("raw.{name:<30} {value:>16.6} {unit}");
    }
    let virt = window.virtual_sorted();
    println!(
        "{:<34} {:>16.9} s  (window of {})  [model output]",
        "virtual_s_p50",
        percentile(&virt, 0.50),
        virt.len()
    );
    println!("{:<34} {:>16.9} s  [model output]", "virtual_s_p99", percentile(&virt, 0.99));
    println!("{:<34} {:>16.6} ms", "bench.wall_ms_p95", percentile(&wall, 0.95));
    println!("{:<34} {:>#16x}", "bench.result_digest", window.digest());
    Some((report, window))
}

/// Span-derived per-layer numbers: `(span, metric, divisor, scale)` —
/// total span time ÷ (operations or calls) × scale.
enum Per {
    Op,
    Call,
}
const SPAN_METRICS: [(&str, &str, Per, f64); 9] = [
    ("engine.pattern", "engine.pattern_ms", Per::Op, 1e-6),
    ("engine.filter", "engine.filter_ms", Per::Op, 1e-6),
    ("engine.apply", "engine.apply_ms", Per::Op, 1e-6),
    ("engine.gather", "engine.gather_ms", Per::Op, 1e-6),
    ("serve.submit", "serve.submit_us", Per::Call, 1e-3),
    ("serve.round", "serve.round_us", Per::Call, 1e-3),
    ("cache.get", "cache.get_us", Per::Call, 1e-3),
    ("cache.put", "cache.put_us", Per::Call, 1e-3),
    ("cache.anti_entropy", "cache.anti_entropy_ms", Per::Call, 1e-6),
];

/// Traced run: the per-layer metrics. Runs the window twice on fresh
/// state — untraced through the one-shot entry points, then traced
/// through the stepwise ones — and requires the same answers and the
/// same virtual seconds from both.
fn run_per_layer(
    name: &str,
    seed: u64,
    size: Size,
    trace_out: Option<&str>,
) -> Option<(Report, Window)> {
    let t_run = Instant::now();
    let mut host = HostProbe::default();
    let mut plain = build(name, seed, size)?;
    let Timed { samples: plain_samples, window: plain_window, .. } =
        drive(plain.as_mut(), &mut Tracer::new(false), 0.0, &mut host);
    drop(plain);

    let mut w = build(name, seed, size)?;
    let mut tr = Tracer::new(true);
    let Timed { samples, window, run_s: traced_s, .. } = drive(w.as_mut(), &mut tr, 0.0, &mut host);
    let mismatch = window.diff(&plain_window);
    if let Some(why) = &mismatch {
        println!("# traced and untraced runs disagree: {why}");
    }

    let mut v = window.counts.clone();
    let ops = samples.len() as f64;
    let mut steps = 0u64;
    for (span, metric, per, scale) in &SPAN_METRICS {
        let t = tr.totals(span);
        let div = match per {
            Per::Op => ops,
            Per::Call => t.count.max(1) as f64,
        };
        v.set(metric, t.total_ns as f64 / div * scale);
        if span.starts_with("engine.") {
            steps += t.count;
        }
    }
    if steps > 0 {
        v.set("engine.steps", steps as f64 / ops);
    }
    // Coverage of the enclosing span by the layer spans inside it. Where
    // the program interleaves operations itself (`serve-mix`) there is no
    // per-operation span, and the enclosing interval is the timed phase.
    let coverage = ["query", "block"].iter().map(|p| tr.child_coverage(p)).fold(0.0, f64::max);
    v.set(
        "engine.span_sum_ratio",
        if coverage > 0.0 {
            coverage
        } else {
            tr.spans().iter().map(|s| s.dur_ns()).sum::<u64>() as f64 / 1e9 / traced_s
        },
    );
    w.probes(&mut v);

    let virt = window.virtual_sorted();
    let failed = samples.iter().chain(&plain_samples).filter(|s| !s.ok).count();
    let attempted = samples.len() + plain_samples.len();
    let (wall, plain_wall) = (wall_ms(&samples), wall_ms(&plain_samples));
    let (p50, plain_p50) = (percentile(&wall, 0.50), percentile(&plain_wall, 0.50));
    v.set("virtual_s_p50", percentile(&virt, 0.50));
    v.set("virtual_s_p99", percentile(&virt, 0.99));
    v.set("failed_share", failed as f64 / attempted as f64);
    v.set("bench.samples", ops);
    v.set("bench.wall_ms_p95", percentile(&plain_wall, 0.95));
    v.set("bench.trace_overhead_pct", (p50 - plain_p50) / plain_p50 * 100.0);
    v.set("bench.host_slowdown", host.slowdown());
    // 48 bits: exact in an f64, so the JSON number repeats bit-for-bit.
    v.set("bench.result_digest", (window.digest() >> 16) as f64);
    if let Some(path) = trace_out {
        write_trace(path, &tr);
    }
    v.set("bench.run_s", t_run.elapsed().as_secs_f64());

    let metrics = PER_LAYER.iter().map(|(n, u)| (*n, v.get(n).unwrap_or(0.0), *u)).collect();
    if let Some((stray, _)) = v.iter().find(|(n, _)| !PER_LAYER.iter().any(|(m, _)| m == n)) {
        panic!("metric {stray} is reported but not declared in PER_LAYER");
    }
    let report = Report { correct: failed == 0 && mismatch.is_none(), attempted, failed, metrics };
    report.print(name, samples.len());
    Some((report, window))
}

fn write_trace(path: &str, tr: &Tracer) {
    let write = || -> std::io::Result<()> {
        if let Some(dir) = std::path::Path::new(path).parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, tr.chrome_json())
    };
    match write() {
        Ok(()) => println!("# {} spans written to {path}", tr.spans().len()),
        Err(e) => println!("# could not write {path}: {e}"),
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<String>,
    verify_repeat: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 7,
        seconds: 20.0,
        trace: false,
        trace_out: None,
        verify_repeat: false,
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => a.workload = value("a name")?,
            "--seed" => a.seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 170.0) {
                    return Err("--seconds must be in (0, 170]".into());
                }
            }
            "--trace" => {
                // `--trace`, `--trace 1` and `--trace 0` are all accepted.
                a.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--trace-out" => a.trace_out = Some(value("a path")?),
            "--verify-repeat" => a.verify_repeat = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if a.workload != "all" && !WORKLOADS.iter().any(|(n, _)| *n == a.workload) {
        let names: Vec<_> = WORKLOADS.iter().map(|(n, _)| *n).collect();
        return Err(format!("--workload must be one of {} or all", names.join(", ")));
    }
    Ok(a)
}

/// `--workload all`: one child process per workload, so each starts from
/// fresh process state (allocator, peak RSS, global counters).
fn run_all(argv: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perf: cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Everything but the `--workload all` pair goes to each child.
    let mut child_args: Vec<&String> = Vec::new();
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        if a == "--workload" {
            it.next();
        } else {
            child_args.push(a);
        }
    }
    let mut ok = true;
    for (name, _) in WORKLOADS {
        let status =
            std::process::Command::new(&exe).args(["--workload", name]).args(&child_args).status();
        ok &= matches!(status, Ok(s) if s.success());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perf: {e}");
            eprintln!(
                "usage: perf --workload <name|all> --seed <n> [--seconds <s>] [--trace [0|1]] \
                 [--trace-out <file>] [--verify-repeat]"
            );
            return ExitCode::FAILURE;
        }
    };
    if args.workload == "all" {
        return run_all(&argv);
    }
    let default_out = format!(".bench_out/trace-{}.json", args.workload);
    let run = |trace_out: Option<&str>| {
        if args.trace {
            run_per_layer(&args.workload, args.seed, Size::Full, trace_out)
        } else {
            run_end_to_end(&args.workload, args.seed, args.seconds, Size::Full)
        }
    };
    let Some((report, window)) = run(Some(args.trace_out.as_deref().unwrap_or(&default_out)))
    else {
        return ExitCode::FAILURE;
    };
    let mut correct = report.correct;
    if args.verify_repeat {
        println!("# --verify-repeat: second run");
        match run(None) {
            Some((again, window_again)) => {
                correct &= again.correct;
                match window.diff(&window_again) {
                    None => println!("# repeat check passed: virtual times, counts, digests equal"),
                    Some(why) => {
                        println!("# REPEAT CHECK FAILED: {why}");
                        correct = false;
                    }
                }
            }
            None => correct = false,
        }
    }
    println!("{}", Report { correct, ..report }.json());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests;
