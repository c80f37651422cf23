//! The metric catalogue and the result line.
//!
//! Every name here is declared, with the same unit, in `BENCHMARK.json`
//! at the repository root. `METRICS.md` says what each one measures on
//! each workload and which end-to-end metric a per-layer one should move.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// `(name, unit)` of every end-to-end metric. Each workload reports all
/// of them from untraced runs (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("compile_lines_per_s", "lines/s"),
    ("code_bytes", "bytes"),
    ("table_bytes_pct", "%"),
    ("run_s", "s"),
    ("pause_p50_us", "us"),
];

/// `(name, unit)` of every per-layer metric, reported from a traced run
/// (`--trace 1`). A layer that a workload does not run reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    // Compiler phases, per set-up.
    ("frontend.lex_s", "s"),
    ("frontend.parse_s", "s"),
    ("frontend.typecheck_s", "s"),
    ("frontend.lower_s", "s"),
    ("frontend.tokens", "count"),
    ("ir.verify_s", "s"),
    ("ir.instrs_lowered", "count"),
    ("ir.instrs_optimized", "count"),
    ("opt.optimize_s", "s"),
    ("codegen.compile_s", "s"),
    ("codegen.gc_points", "count"),
    ("codegen.ptr_slots", "count"),
    ("codegen.derived_values", "count"),
    ("core.encode_s", "s"),
    ("core.decode_index_s", "s"),
    ("runtime.load_s", "s"),
    // Sequential interpreter and JIT, per iteration.
    ("vm.steps", "count"),
    ("vm.run_interp_s", "s"),
    ("vm.interp_steps_per_s", "steps/s"),
    ("runtime.mutator_s", "s"),
    ("jit.run_jit_s", "s"),
    ("jit.compile_s", "s"),
    ("jit.procs_compiled", "count"),
    ("jit.fallbacks", "count"),
    ("jit.code_bytes", "bytes"),
    ("jit.steps_per_s", "steps/s"),
    // Sequential collectors, per iteration.
    ("runtime.collector.collections", "count"),
    ("runtime.collector.pause_s", "s"),
    ("runtime.collector.trace_s", "s"),
    ("runtime.collector.trace_share", "ratio"),
    ("runtime.collector.trace_share_p50", "ratio"),
    ("runtime.collector.trace_share_tail", "ratio"),
    ("runtime.collector.words_copied", "words"),
    ("runtime.collector.frames_traced", "count"),
    ("runtime.collector.frames_spliced", "count"),
    ("runtime.collector.derived_updated", "count"),
    ("runtime.collector.roots_killed", "count"),
    ("core.decode.hits", "count"),
    ("core.decode.misses", "count"),
    ("core.decode.ops", "count"),
    ("runtime.gengc.minor_collections", "count"),
    ("runtime.gengc.major_collections", "count"),
    ("runtime.gengc.promoted_words", "words"),
    ("runtime.gengc.remembered_processed", "count"),
    ("runtime.gengc.barrier_executed", "count"),
    ("runtime.gengc.barrier_recorded", "count"),
    // Parallel runtime, per iteration.
    ("runtime.parallel.collections", "count"),
    ("runtime.parallel.handshake_s", "s"),
    ("runtime.parallel.handshake_max_us", "us"),
    ("runtime.parallel.copy_s", "s"),
    ("runtime.parallel.handshake_share", "ratio"),
    ("runtime.parallel.copy_share", "ratio"),
    ("runtime.parallel.other_share", "ratio"),
    ("runtime.parallel.parked_at_polls", "count"),
    ("runtime.parallel.parked_at_allocs", "count"),
    ("runtime.evac.words_copied", "words"),
    ("runtime.evac.steals", "count"),
    ("runtime.evac.worker_imbalance", "ratio"),
    ("vm.par.steps_per_s", "steps/s"),
    ("vm.par.allocs", "count"),
    ("vm.par.words_allocated", "words"),
    ("vm.par.tlab_refills", "count"),
    ("vm.par.tlab_waste_words", "words"),
    ("runtime.cms.cycles", "count"),
    ("runtime.cms.snapshot_pause_s", "s"),
    ("runtime.cms.mark_concurrent_s", "s"),
    ("runtime.cms.satb_enqueued", "count"),
    ("runtime.cms.satb_drained", "count"),
    ("runtime.cms.evac_select_pause_s", "s"),
    ("runtime.cms.evac_conc_s", "s"),
    ("runtime.cms.evac_words", "words"),
    ("runtime.cms.evac_pinned", "count"),
    ("runtime.cms.evac_healed_stores", "count"),
    ("runtime.serve.requests_per_s", "req/s"),
    ("runtime.serve.latency_p50_us", "us"),
    ("runtime.serve.latency_tail_us", "us"),
    ("runtime.serve.reclaim_ratio", "ratio"),
    ("runtime.serve.regions_zombied", "count"),
    ("runtime.serve.region_escapes", "count"),
    ("runtime.serve.forced_collections", "count"),
    ("runtime.serve.parked_at_safepoints", "count"),
    ("runtime.serve.alloc_words_per_s", "words/s"),
    // The benchmark itself.
    ("runtime.gc_share", "ratio"),
    ("bench.peak_rss_mb", "MB"),
    ("bench.pause_tail_us", "us"),
    ("bench.pause_samples", "count"),
    ("bench.pause_tail_pct", "%"),
    ("bench.failed_share", "ratio"),
    ("bench.span_coverage_compile", "ratio"),
    ("bench.span_coverage_run", "ratio"),
    ("bench.tracing_overhead_pct", "%"),
];

/// Share of a window's iterations dropped at each end before `run_s`
/// is averaged.
pub const RUN_TRIM: f64 = 0.1;

/// Samples per metric name, one per iteration (or per set-up); a
/// metric's value is the median of its samples, except `run_s`, which is
/// their trimmed mean (see [`RUN_TRIM`]).
#[derive(Default)]
pub struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    pub fn push(&mut self, name: &'static str, v: f64) {
        self.0.entry(name).or_default().push(v);
    }

    pub fn get(&self, name: &str) -> &[f64] {
        self.0.get(name).map_or(&[], Vec::as_slice)
    }

    pub fn median(&self, name: &str) -> f64 {
        crate::stats::median(self.get(name))
    }

    pub fn trimmed_mean(&self, name: &str) -> f64 {
        crate::stats::trimmed_mean(self.get(name), RUN_TRIM)
    }

    /// The median of every sampled name.
    pub fn medians(&self) -> BTreeMap<&'static str, f64> {
        self.0.iter().map(|(&k, v)| (k, crate::stats::median(v))).collect()
    }
}

/// Renders the result line: `catalogue` decides which metrics appear
/// and with which unit. A per-layer metric that `values` lacks reads 0;
/// a missing end-to-end metric is an error.
///
/// # Errors
///
/// Names the first end-to-end metric without a value.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    catalogue: &[(&str, &str)],
    values: &BTreeMap<&'static str, f64>,
    default_zero: bool,
) -> Result<String, String> {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, unit)) in catalogue.iter().enumerate() {
        let v = match values.get(name) {
            Some(v) => *v,
            None if default_zero => 0.0,
            None => return Err(format!("metric `{name}` was not measured")),
        };
        let v = if v.is_finite() { v } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(out, "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}");
    }
    out.push_str("}}");
    Ok(out)
}
