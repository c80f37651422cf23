//! `cms`: one mutator under `--gc cms --conc-evac` with one marker. A
//! long live chain plus churn that overwrites old pointers, so the SATB
//! barrier, the bitmap copy and the concurrent copier all run. Checked
//! against the single-threaded semispace collector.

use std::collections::BTreeMap;
use std::time::Instant;

use m3gc_compiler::Options;
use m3gc_runtime::parallel::{ParExecutor, ParGcStats};
use m3gc_runtime::{GcStrategy, RuntimeOptions};
use m3gc_vm::VmModule;

use crate::metrics::Samples;
use crate::spans::SpanId;
use crate::{compile, par, Bench, SetupOut, Workload};

/// Live chain length, churn rounds and semispace size of `cms`: eight
/// cycles per run over two 512 KiB semispaces, which fit a 2 MiB L2
/// cache. On a shared host, work that misses to memory slows down with
/// the neighbours' load, and `run_s` spreads between runs with it.
const CMS_LENGTH: u32 = 5_000;
const CMS_CHURN: u32 = 100_000;
const CMS_SEMI_WORDS: usize = 1 << 16;

fn cms_src(salt: u64) -> String {
    format!(
        "MODULE CmsBench;
CONST Salt = {salt};
TYPE Node = REF RECORD v: INTEGER; next: Node END;
VAR head: Node;

PROCEDURE Build(n: INTEGER) =
VAR t: Node; i: INTEGER;
BEGIN
  FOR i := 1 TO n DO
    t := NEW(Node);
    t.v := i + Salt;
    t.next := head;
    head := t;
  END;
END Build;

PROCEDURE Sum(): INTEGER =
VAR p: Node; s: INTEGER;
BEGIN
  s := 0;
  p := head;
  WHILE p # NIL DO
    s := (s + p.v) MOD 1000003;
    p := p.next;
  END;
  RETURN s;
END Sum;

PROCEDURE Churn(rounds: INTEGER): INTEGER =
VAR t, u: Node; i, j, s: INTEGER;
BEGIN
  s := 0;
  FOR i := 1 TO rounds DO
    t := NEW(Node);
    t.v := i;
    (* Overwrite a live pointer and restore it: each store is a
       deletion-barrier site while marking runs. *)
    u := head.next;
    head.next := t;
    head.next := u;
    FOR j := 1 TO 8 DO
      s := (s + t.v * j) MOD 1000003;
    END;
  END;
  RETURN s;
END Churn;

BEGIN
  head := NIL;
  Build({CMS_LENGTH});
  PutInt(Churn({CMS_CHURN}));
  PutChar(' ');
  PutInt(Sum());
  PutLn();
END CmsBench."
    )
}

pub struct Cms {
    src: String,
    opts: RuntimeOptions,
    expected: String,
    module: Option<VmModule>,
}

impl Cms {
    pub fn new(b: &mut Bench) -> Result<Cms, String> {
        // One gc worker: with two, pause sums varied twice as much between
        // runs on a 2-core host (see METRICS.md).
        let opts = RuntimeOptions::new()
            .strategy(GcStrategy::Cms)
            .conc_evac(true)
            .semi_words(CMS_SEMI_WORDS)
            .threads(1)
            .conc_workers(1)
            .gc_workers(1);
        println!(
            "# config: cms: --gc cms --conc-evac, mutators=1 conc_workers=1 gc_workers=1 \
             semi_words={CMS_SEMI_WORDS} chain {CMS_LENGTH} churn {CMS_CHURN}"
        );
        let src = cms_src(crate::salt(b.seed));
        let module = m3gc_compiler::compile(&src, &Options::o2()).map_err(|d| d.to_string())?;
        compile::check_against_entry_point(&src, &Options::o2(), &module)?;
        // Reference: the single-threaded semispace collector.
        let reference = m3gc_compiler::run_module(module, CMS_SEMI_WORDS)
            .map_err(|e| format!("cms reference run: {e}"))?;
        b.check(!reference.output.is_empty() && reference.collections > 0, || {
            format!("cms: reference run printed {:?}", reference.output)
        });
        Ok(Cms { src, opts, expected: reference.output, module: None })
    }
}

impl Workload for Cms {
    fn setup(&mut self, b: &mut Bench, parent: SpanId) -> Result<SetupOut, String> {
        let t0 = Instant::now();
        let (module, counts) = compile::compile(&mut b.tracer, parent, &self.src, &Options::o2())?;
        let compile_s = t0.elapsed().as_secs_f64();
        if b.tracer.enabled() {
            let bytes = compile::table_layers(&mut b.tracer, parent, &module)?;
            b.exact("cms/core.encode_bytes", bytes);
        }
        let opts = self.opts;
        b.tracer.span("runtime.load", parent, |_, _| {
            drop(ParExecutor::new(opts.build_par_machine(module.clone()), opts));
        });
        self.module = Some(module);
        Ok(SetupOut { compile_s, counts })
    }

    fn iteration(
        &mut self,
        b: &mut Bench,
        parent: SpanId,
        acc: &mut Samples,
    ) -> Result<(), String> {
        let module = self.module.clone().ok_or("iteration before set-up")?;
        let opts = self.opts;
        let mut ex = b.tracer.span("runtime.load", parent, |_, _| {
            ParExecutor::new(opts.build_par_machine(module), opts)
        });
        let t0 = Instant::now();
        let out = b.tracer.span("runtime.run", parent, |_, _| ex.run_main());
        let run_s = t0.elapsed().as_secs_f64();
        let out = out.map_err(|e| format!("cms: {e}"))?;
        b.check(out.output == self.expected, || {
            format!("cms: output {:?}, expected {:?}", out.output, self.expected)
        });
        b.check(!out.gc_each.is_empty(), || "cms: no collection ran".to_string());

        let g = &out.gc_each;
        let pause_s = par::record_collections(g, b, acc);
        acc.push("run_s", run_s);
        acc.push("pause_sum_s", pause_s);
        acc.push("runtime.mutator_s", run_s - pause_s);
        acc.push("vm.par.steps_per_s", out.steps as f64 / run_s);
        acc.push("vm.par.allocs", out.allocations as f64);
        acc.push("vm.par.words_allocated", out.words_allocated as f64);
        acc.push("vm.par.tlab_refills", out.tlab_refills as f64);
        acc.push("vm.par.tlab_waste_words", out.tlab_waste_words as f64);
        let sum = |f: fn(&ParGcStats) -> f64| g.iter().map(f).sum::<f64>();
        acc.push("runtime.cms.cycles", g.iter().filter(|s| s.cms_cycle).count() as f64);
        acc.push("runtime.cms.snapshot_pause_s", sum(|s| s.snapshot_pause.as_secs_f64()));
        acc.push("runtime.cms.mark_concurrent_s", sum(|s| s.mark_concurrent.as_secs_f64()));
        acc.push("runtime.cms.satb_enqueued", out.satb_enqueued as f64);
        acc.push("runtime.cms.satb_drained", out.satb_drained as f64);
        acc.push("runtime.cms.evac_select_pause_s", sum(|s| s.evac_select_pause.as_secs_f64()));
        acc.push("runtime.cms.evac_conc_s", sum(|s| s.evac_conc_time.as_secs_f64()));
        acc.push("runtime.cms.evac_words", out.evac_words as f64);
        acc.push("runtime.cms.evac_pinned", sum(|s| s.evac_pinned as f64));
        acc.push("runtime.cms.evac_healed_stores", out.evac_healed_stores as f64);
        Ok(())
    }

    fn finish(&self, acc: &Samples, out: &mut BTreeMap<&'static str, f64>) {
        par::pause_split(acc, out);
    }
}
