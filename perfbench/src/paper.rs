//! `paper`: the paper's own evaluation. Its four programs, scaled up and
//! compiled at `--o2`, run on the sequential `Executor` under
//! {semispace, generational} × {interpreter, JIT} with small semispaces,
//! so collections are frequent and every pause walks deep frames full of
//! derived values through the tables.

use std::collections::BTreeMap;
use std::time::Instant;

use m3gc_compiler::Options;
use m3gc_core::stats::GcKind;
use m3gc_runtime::scheduler::Executor;
use m3gc_runtime::{GcStrategy, RuntimeOptions};
use m3gc_vm::VmModule;

use crate::metrics::Samples;
use crate::spans::SpanId;
use crate::{compile, Bench, SetupOut, Workload};

/// `(name, strategy, jit)` of each runtime configuration.
const CONFIGS: [(&str, GcStrategy, bool); 4] = [
    ("semi", GcStrategy::Semispace, false),
    ("semi-jit", GcStrategy::Semispace, true),
    ("gen", GcStrategy::Generational, false),
    ("gen-jit", GcStrategy::Generational, true),
];

/// Source edits: `(text, replacement)` pairs.
type Edits = &'static [(&'static str, &'static str)];

/// Per program: `(name, semispace words, edits)`. The edits scale each
/// program's work by a fixed factor; `destroy`'s random seed comes from
/// `--seed` (see [`Paper::new`]).
const SCALING: [(&str, usize, Edits); 4] = [
    ("typereg", 8 * 1024, &[("FOR n := 1 TO 120 DO", "FOR n := 1 TO 240 DO")]),
    ("FieldList", 8 * 1024, &[("FOR round := 1 TO 15 DO", "FOR round := 1 TO 60 DO")]),
    ("takl", 8 * 1024, &[]),
    ("destroy", 16 * 1024, &[("Iterations = 60;", "Iterations = 240;")]),
];

struct Prog {
    name: &'static str,
    src: String,
    expected: String,
    semi_words: usize,
}

pub struct Paper {
    progs: Vec<Prog>,
    modules: Vec<VmModule>,
    reported_jit: bool,
}

fn options(semi_words: usize, strategy: GcStrategy, jit: bool) -> RuntimeOptions {
    RuntimeOptions::new()
        .strategy(strategy)
        .semi_words(semi_words)
        .stack_words(1 << 15)
        .max_threads(2)
        .jit(jit)
}

fn edit(src: &str, from: &str, to: &str) -> Result<String, String> {
    if !src.contains(from) {
        return Err(format!("source text `{from}` not found"));
    }
    Ok(src.replacen(from, to, 1))
}

impl Paper {
    pub fn new(b: &mut Bench) -> Result<Paper, String> {
        let destroy_seed = crate::salt(b.seed);
        let mut progs = Vec::new();
        for (name, semi_words, edits) in SCALING {
            let original = m3gc_bench::program(name);
            // The hand-written outputs vouch for the reference interpreter.
            let reference = m3gc_compiler::reference_output(original)?;
            b.check(reference == m3gc_bench::expected_output(name), || {
                format!("{name}: reference interpreter gives {reference:?}")
            });
            let mut src = original.to_string();
            for (from, to) in edits {
                src = edit(&src, from, to)?;
            }
            if name == "destroy" {
                src = edit(&src, "seed := 74755;", &format!("seed := {destroy_seed};"))?;
            }
            let expected = m3gc_compiler::reference_output(&src)?;
            let module = m3gc_compiler::compile(&src, &Options::o2()).map_err(|d| d.to_string())?;
            compile::check_against_entry_point(&src, &Options::o2(), &module)?;
            progs.push(Prog { name, src, expected, semi_words });
        }
        println!(
            "# config: paper: {} program(s) x {{semi, semi-jit, gen, gen-jit}}, sequential \
             executor, o2, destroy seed {destroy_seed}",
            progs.len()
        );
        Ok(Paper { progs, modules: Vec::new(), reported_jit: false })
    }
}

impl Workload for Paper {
    fn setup(&mut self, b: &mut Bench, parent: SpanId) -> Result<SetupOut, String> {
        let mut counts = compile::CompileCounts::default();
        let mut compile_s = 0.0;
        self.modules.clear();
        for p in &self.progs {
            let t0 = Instant::now();
            let (module, c) = compile::compile(&mut b.tracer, parent, &p.src, &Options::o2())?;
            compile_s += t0.elapsed().as_secs_f64();
            counts.add(&c);
            if b.tracer.enabled() {
                let bytes = compile::table_layers(&mut b.tracer, parent, &module)?;
                b.exact(format!("{}/core.encode_bytes", p.name), bytes);
            }
            for (_, strategy, jit) in CONFIGS {
                let opts = options(p.semi_words, strategy, jit);
                b.tracer.span("runtime.load", parent, |_, _| {
                    Executor::try_new(opts.build_machine(module.clone()), opts)
                        .map(drop)
                        .map_err(|e| format!("{}: {e}", p.name))
                })?;
            }
            self.modules.push(module);
        }
        Ok(SetupOut { compile_s, counts })
    }

    fn iteration(
        &mut self,
        b: &mut Bench,
        parent: SpanId,
        acc: &mut Samples,
    ) -> Result<(), String> {
        // The iteration's totals, one sample each.
        let mut totals: BTreeMap<&'static str, f64> = BTreeMap::new();
        let mut add = |name: &'static str, v: f64| *totals.entry(name).or_insert(0.0) += v;
        for (p, module) in self.progs.iter().zip(&self.modules) {
            for (cfg, strategy, jit) in CONFIGS {
                let opts = options(p.semi_words, strategy, jit);
                let mut ex = b.tracer.span("runtime.load", parent, |_, _| {
                    Executor::try_new(opts.build_machine(module.clone()), opts)
                        .map_err(|e| format!("{}: {e}", p.name))
                })?;
                let t0 = Instant::now();
                let out = b.tracer.span("runtime.run", parent, |_, _| ex.run_main());
                let run_s = t0.elapsed().as_secs_f64();
                let out = out.map_err(|e| format!("{}/{cfg}: {e}", p.name))?;
                b.check(out.output == p.expected, || {
                    format!("{}/{cfg}: output {:?}, expected {:?}", p.name, out.output, p.expected)
                });
                let key = format!("{}/{cfg}", p.name);
                let g = &out.gc_total;
                b.exact(format!("{key}/steps"), out.steps);
                b.exact(format!("{key}/collections"), out.collections);
                b.exact(format!("{key}/words_copied"), g.words_copied);
                b.exact(format!("{key}/decode_ops"), g.decode_ops);

                let pause_s: f64 = out.gc_each.iter().map(|s| s.total_time.as_secs_f64()).sum();
                for s in &out.gc_each {
                    b.pauses.push(s.total_time.as_secs_f64() * 1e6);
                    let total = s.total_time.as_secs_f64();
                    if total > 0.0 {
                        acc.push("trace_share_each", s.trace_time.as_secs_f64() / total);
                    }
                }
                add("run_s", run_s);
                add("pause_sum_s", pause_s);
                add("runtime.mutator_s", run_s - pause_s);
                if jit {
                    let j = ex.jit_summary().ok_or("jit summary missing")?;
                    b.exact(format!("{key}/jit.procs_compiled"), j.procs_compiled as u64);
                    if !self.reported_jit {
                        self.reported_jit = true;
                        let fallbacks: Vec<String> =
                            j.fallbacks.iter().map(|(r, n)| format!("{r}={n}")).collect();
                        println!(
                            "# jit: native={} ({}), fallbacks: [{}]",
                            j.enabled,
                            if j.enabled {
                                "run_jit_s comparable"
                            } else {
                                "run_jit_s NOT comparable"
                            },
                            fallbacks.join(", ")
                        );
                    }
                    add("jit.run_jit_s", run_s);
                    add("jit.steps", out.steps as f64);
                    add("jit.compile_s", j.compile_micros as f64 / 1e6);
                    add("jit.procs_compiled", j.procs_compiled as f64);
                    add("jit.fallbacks", j.fallbacks.iter().map(|(_, n)| n).sum::<u64>() as f64);
                    add("jit.code_bytes", j.code_bytes as f64);
                } else {
                    add("vm.run_interp_s", run_s);
                    add("vm.steps", out.steps as f64);
                }
                add("runtime.collector.collections", out.collections as f64);
                add("runtime.collector.pause_s", pause_s);
                add("runtime.collector.trace_s", g.trace_time.as_secs_f64());
                add("runtime.collector.words_copied", g.words_copied as f64);
                add("runtime.collector.frames_traced", g.frames_traced as f64);
                add("runtime.collector.frames_spliced", g.frames_spliced as f64);
                add("runtime.collector.derived_updated", g.derived_updated as f64);
                add("runtime.collector.roots_killed", g.roots_killed as f64);
                add("core.decode.hits", g.decode_hits as f64);
                add("core.decode.misses", g.decode_misses as f64);
                add("core.decode.ops", g.decode_ops as f64);
                if strategy == GcStrategy::Generational {
                    let kinds = |k: GcKind| out.gc_each.iter().filter(|s| s.kind == k).count();
                    add("runtime.gengc.minor_collections", kinds(GcKind::Minor) as f64);
                    add("runtime.gengc.major_collections", kinds(GcKind::Major) as f64);
                    add("runtime.gengc.promoted_words", g.promoted_words as f64);
                    add("runtime.gengc.remembered_processed", g.remembered_processed as f64);
                    add("runtime.gengc.barrier_executed", out.barrier.executed as f64);
                    add("runtime.gengc.barrier_recorded", out.barrier.recorded as f64);
                }
            }
        }
        let s = |n: &str| totals.get(n).copied().unwrap_or(0.0);
        acc.push("vm.interp_steps_per_s", s("vm.steps") / s("vm.run_interp_s"));
        acc.push("jit.steps_per_s", s("jit.steps") / s("jit.run_jit_s"));
        acc.push(
            "runtime.collector.trace_share",
            s("runtime.collector.trace_s") / s("runtime.collector.pause_s"),
        );
        for (name, v) in totals {
            acc.push(name, v);
        }
        Ok(())
    }

    /// Every run is deterministic: its collection count is an exact count.
    fn fixed_schedule(&self) -> bool {
        true
    }

    fn finish(&self, acc: &Samples, out: &mut BTreeMap<&'static str, f64>) {
        let shares = acc.get("trace_share_each");
        out.insert("runtime.collector.trace_share_p50", crate::stats::median(shares));
        out.insert("runtime.collector.trace_share_tail", crate::stats::tail(shares).0);
    }
}
