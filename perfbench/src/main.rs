//! Benchmark runner for the m3gc compiler and runtimes.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper|cms|serve> --seed N --seconds S --trace <0|1>
//! ```
//!
//! Each workload makes its inputs from the seed and computes reference
//! outputs with code other than the code under test. Then, for
//! `--seconds`, it sets up (compile and load, timed) and runs one
//! iteration in turn, checking every output. The last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed` and `metrics`. With
//! `--trace 0` the metrics are the end-to-end ones, from untraced runs.
//! With `--trace 1` half the time runs untraced and half traced; the
//! metrics are the per-layer ones, and the spans go to
//! `perfbench/out/spans-<workload>-<seed>.json`. A wrong output or a
//! deterministic count that differs between two productions fails the
//! run: the line reads `"correct": false` and the exit code is 1.

mod cms;
mod compile;
mod metrics;
mod paper;
mod par;
mod serve;
mod spans;
mod stats;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use metrics::{Samples, END_TO_END, PER_LAYER};
use spans::{SpanId, Tracer};

/// Least share of a parent span that its child spans must cover.
const MIN_SPAN_COVERAGE: f64 = 0.9;
/// Iterations every window runs, however long they take, so that each
/// deterministic count is produced at least twice.
const MIN_ITERS: usize = 2;

/// Hardware threads of this host; every thread count is capped by it.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// A constant the programs take from the seed. Every value has the same
/// encoded width in the VM's variable-length immediates (8192 <= v <
/// 2^20), so that the seed changes outputs but not code size.
pub fn salt(seed: u64) -> u64 {
    10_000 + seed % 900_000
}

/// What one set-up compiled.
pub struct SetupOut {
    /// Seconds spent compiling (the rest of the set-up is loading).
    pub compile_s: f64,
    pub counts: compile::CompileCounts,
}

/// A workload: its programs, references and configurations.
pub trait Workload {
    /// Compiles the workload's programs and loads each into a runtime
    /// ready to run, as a user's set-up would.
    fn setup(&mut self, b: &mut Bench, parent: SpanId) -> Result<SetupOut, String>;

    /// Runs one iteration and checks its outputs. Pushes `run_s` and the
    /// sum of its stop-the-world pauses (`pause_sum_s`) into `acc`, every
    /// pause into `b.pauses`, and its per-layer counts into `acc`.
    fn iteration(&mut self, b: &mut Bench, parent: SpanId, acc: &mut Samples)
        -> Result<(), String>;

    /// True if every iteration collects at the same points, so that the
    /// n-th pause of one iteration is the same collection as the n-th
    /// pause of another.
    fn fixed_schedule(&self) -> bool {
        false
    }

    /// Adds per-layer metrics taken over a whole traced window.
    fn finish(&self, _acc: &Samples, _out: &mut BTreeMap<&'static str, f64>) {}
}

/// State shared by the harness and the workload.
pub struct Bench {
    pub seed: u64,
    pub tracer: Tracer,
    /// Pauses of the current iteration, in microseconds.
    pub pauses: Vec<f64>,
    /// Pauses of each iteration of the current window.
    window_pauses: Vec<Vec<f64>>,
    /// First value and number of productions of each deterministic count.
    exact: BTreeMap<String, (u64, u32)>,
    /// Deterministic counts that changed between productions.
    exact_changed: u64,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Bench {
    fn new(seed: u64) -> Bench {
        Bench {
            seed,
            tracer: Tracer::new(false),
            pauses: Vec::new(),
            window_pauses: Vec::new(),
            exact: BTreeMap::new(),
            exact_changed: 0,
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
        }
    }

    /// Keeps the first few error messages.
    fn error(&mut self, e: String) {
        if self.errors.len() < 10 {
            self.errors.push(e);
        }
    }

    /// Counts one checked output; `what` describes a mismatch.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.error(what());
        }
    }

    /// Records one production of a deterministic count; every production
    /// of `key` must give the same value.
    pub fn exact(&mut self, key: impl Into<String>, v: u64) {
        let key = key.into();
        let (first, n) = self.exact.entry(key.clone()).or_insert((v, 0));
        *n += 1;
        if *first != v {
            let first = *first;
            self.exact_changed += 1;
            self.error(format!("deterministic count `{key}` changed: {first} then {v}"));
        }
    }

    /// True if every deterministic count was produced at least twice and
    /// never changed.
    fn exact_ok(&mut self) -> bool {
        let once: Vec<String> =
            self.exact.iter().filter(|(_, (_, n))| *n < 2).map(|(k, _)| k.clone()).collect();
        for k in &once {
            self.error(format!("deterministic count `{k}` was produced only once"));
        }
        once.is_empty() && self.exact_changed == 0
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<String, String> {
        let i = argv.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        argv.get(i + 1).cloned().ok_or(format!("{flag} needs a value"))
    };
    let seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match value("--trace").unwrap_or_else(|_| "0".into()).as_str() {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, got {t}")),
    };
    Ok(Args { workload: value("--workload")?, seed, seconds, trace })
}

fn make_workload(name: &str, b: &mut Bench) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "paper" => Box::new(paper::Paper::new(b)?),
        "cms" => Box::new(cms::Cms::new(b)?),
        "serve" => Box::new(serve::Serve::new(b)?),
        other => return Err(format!("unknown workload `{other}` (paper, cms, serve)")),
    })
}

/// Span names whose per-iteration (or per-set-up) seconds are reported
/// as the per-layer metric `<name>_s`.
fn layer_seconds(acc: &mut Samples, before: &BTreeMap<&'static str, f64>, tr: &Tracer) {
    for (&name, &total) in tr.totals() {
        let delta = total - before.get(name).copied().unwrap_or(0.0);
        let metric = format!("{name}_s");
        if delta <= 0.0 {
            continue;
        }
        if let Some((m, _)) = PER_LAYER.iter().find(|(m, _)| *m == metric) {
            acc.push(m, delta);
        }
    }
}

/// Sets up once: compiles and loads, timed. Pushes `setup_s`,
/// `compile_s`, the compiler's per-layer seconds and its counts into
/// `setup`.
fn setup_once(w: &mut dyn Workload, b: &mut Bench, setup: &mut Samples) -> Result<(), String> {
    let before = b.tracer.totals().clone();
    let t0 = Instant::now();
    let id = b.tracer.open("setup", None);
    let out = w.setup(b, id)?;
    b.tracer.close(id);
    setup.push("setup_s", t0.elapsed().as_secs_f64());
    setup.push("compile_s", out.compile_s);
    layer_seconds(setup, &before, &b.tracer);
    let c = &out.counts;
    for (k, v) in c.fields() {
        b.exact(format!("compile.{k}"), v);
    }
    setup.push("lines", c.lines as f64);
    setup.push("code_bytes", c.code_bytes as f64);
    setup.push("table_bytes_pct", 100.0 * c.table_bytes as f64 / c.code_bytes as f64);
    for (m, v) in [
        ("frontend.tokens", c.tokens),
        ("ir.instrs_lowered", c.instrs_lowered),
        ("ir.instrs_optimized", c.instrs_optimized),
        ("codegen.gc_points", c.gc_points),
        ("codegen.ptr_slots", c.ptr_slots),
        ("codegen.derived_values", c.derived_values),
    ] {
        setup.push(m, v as f64);
    }
    Ok(())
}

/// Sets up and runs an iteration, in turn, for `seconds` (at least
/// [`MIN_ITERS`] times), so that set-ups are spread over the window as
/// the runs are.
fn window(
    w: &mut dyn Workload,
    b: &mut Bench,
    seconds: f64,
    setup: &mut Samples,
    acc: &mut Samples,
) -> Result<(), String> {
    b.window_pauses.clear();
    let t0 = Instant::now();
    let mut n = 0;
    while n < MIN_ITERS || t0.elapsed().as_secs_f64() < seconds {
        setup_once(w, b, setup)?;
        let before = b.tracer.totals().clone();
        let id = b.tracer.open("iteration", None);
        w.iteration(b, id, acc)?;
        b.tracer.close(id);
        layer_seconds(acc, &before, &b.tracer);
        let pauses = std::mem::take(&mut b.pauses);
        b.window_pauses.push(pauses);
        n += 1;
    }
    Ok(())
}

/// The pauses of a window that the pause percentiles are taken over.
/// With a fixed schedule each collection counts once, at its median over
/// the iterations, so that jitter cannot reorder collections of nearly
/// equal length; otherwise every pause counts.
fn pause_sample(b: &Bench, fixed_schedule: bool) -> Vec<f64> {
    let iters = &b.window_pauses;
    let n = iters.first().map_or(0, Vec::len);
    if fixed_schedule && iters.iter().all(|p| p.len() == n) {
        (0..n).map(|k| stats::median(&iters.iter().map(|p| p[k]).collect::<Vec<_>>())).collect()
    } else {
        iters.concat()
    }
}

fn run(args: &Args) -> Result<(Bench, BTreeMap<&'static str, f64>), String> {
    let mut b = Bench::new(args.seed);
    let mut w = make_workload(&args.workload, &mut b)?;

    // Untraced window: the end-to-end numbers.
    let untraced_s = if args.trace { args.seconds / 2.0 } else { args.seconds };
    let mut setup = Samples::default();
    let mut acc = Samples::default();
    window(w.as_mut(), &mut b, untraced_s, &mut setup, &mut acc)?;
    let pauses = pause_sample(&b, w.fixed_schedule());
    let (tail_us, tail_pct) = stats::tail(&pauses);
    let mut e2e: BTreeMap<&'static str, f64> = BTreeMap::new();
    e2e.insert("setup_s", setup.median("setup_s"));
    e2e.insert("compile_lines_per_s", setup.median("lines") / setup.median("compile_s"));
    e2e.insert("code_bytes", setup.median("code_bytes"));
    e2e.insert("table_bytes_pct", setup.median("table_bytes_pct"));
    e2e.insert("run_s", acc.trimmed_mean("run_s"));
    e2e.insert("pause_p50_us", stats::median(&pauses));
    println!(
        "# untraced: {} iteration(s), {} set-up(s), {} pause(s), percentiles over {}; \
         pause tail (p{tail_pct:.2}, 10 beyond it) {tail_us:.1} us",
        acc.get("run_s").len(),
        setup.get("setup_s").len(),
        b.window_pauses.iter().map(Vec::len).sum::<usize>(),
        pauses.len()
    );
    if !args.trace {
        return Ok((b, e2e));
    }

    // Traced window: the per-layer numbers.
    b.tracer.set_enabled(true);
    let mut setup = Samples::default();
    let mut traced = Samples::default();
    window(w.as_mut(), &mut b, args.seconds / 2.0, &mut setup, &mut traced)?;
    // Set-up spans win where a name is in both (`runtime.load`).
    let mut layer = traced.medians();
    layer.extend(setup.medians());
    w.finish(&traced, &mut layer);
    let shares: Vec<f64> = traced
        .get("run_s")
        .iter()
        .zip(traced.get("pause_sum_s"))
        .map(|(run, pause)| pause / run)
        .collect();
    layer.insert("runtime.gc_share", stats::median(&shares));
    layer.insert("bench.peak_rss_mb", stats::peak_rss_mb().ok_or("no VmHWM in /proc/self/status")?);
    let pauses = pause_sample(&b, w.fixed_schedule());
    let (tail_us, tail_pct) = stats::tail(&pauses);
    layer.insert("bench.pause_tail_us", tail_us);
    layer.insert("bench.pause_samples", pauses.len() as f64);
    layer.insert("bench.pause_tail_pct", tail_pct);
    layer.insert(
        "bench.tracing_overhead_pct",
        100.0 * (traced.trimmed_mean("run_s") / acc.trimmed_mean("run_s") - 1.0),
    );
    // Child spans must account for their parents: compile phases for
    // the compile, loads and runs for the iteration.
    for (parent, metric) in
        [("compile", "bench.span_coverage_compile"), ("iteration", "bench.span_coverage_run")]
    {
        let (children, parents) = b.tracer.child_coverage(parent);
        let coverage = children / parents;
        if coverage < MIN_SPAN_COVERAGE {
            return Err(format!("child spans cover {coverage:.3} of `{parent}` spans"));
        }
        layer.insert(metric, coverage);
    }
    // The runtime's own pause clocks must fit inside the benchmark's
    // spans around the runs that paused.
    let pauses_s: f64 = traced.get("pause_sum_s").iter().sum();
    let runs_s: f64 = traced.get("run_s").iter().sum();
    if pauses_s > runs_s {
        return Err(format!(
            "pauses ({pauses_s:.6} s) exceed the runs they paused ({runs_s:.6} s)"
        ));
    }
    Ok((b, layer))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <paper|cms|serve> --seed N --seconds S --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    println!("# host: {} hardware thread(s)", cores());
    let (mut b, mut values) = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    let exact_ok = b.exact_ok();
    let correct = b.failed == 0 && exact_ok;
    for e in &b.errors {
        eprintln!("perfbench: {e}");
    }
    let (catalogue, default_zero) =
        if args.trace { (PER_LAYER, true) } else { (END_TO_END, false) };
    if args.trace {
        values.insert("bench.failed_share", b.failed as f64 / b.attempted.max(1) as f64);
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("spans-{}-{}.json", args.workload, args.seed));
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, b.tracer.to_chrome_json()));
        if let Err(e) = written {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
            return ExitCode::from(1);
        }
        println!("# spans: {}", path.display());
    }
    match metrics::result_line(correct, b.attempted, b.failed, catalogue, &values, default_zero) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
