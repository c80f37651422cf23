//! `serve`: a closed loop over `run_module_serve`. One scheduler thread
//! × 16 green slots are the clients: a slot takes the next request as
//! soon as its previous one completes. The handler mixes allocation
//! sizes, makes 1 request in 16 slow (its allocation overflows the
//! region) and 1 in 100 escaping (it publishes a record into a module
//! global). The precision oracle is off. Every request's output is
//! checked against [`expected`], written by hand from the handler.

use std::collections::BTreeMap;
use std::time::Instant;

use m3gc_compiler::Options;
use m3gc_runtime::serve::ServeExecutor;
use m3gc_runtime::{GcStrategy, RuntimeOptions, ServeLoad};
use m3gc_vm::VmModule;

use crate::metrics::Samples;
use crate::spans::SpanId;
use crate::{compile, par, Bench, SetupOut, Workload};

/// Requests per iteration (one `run_module_serve` call); the p99 latency
/// has 200 requests beyond it.
const REQUESTS: u64 = 20_000;
const GREEN_SLOTS: usize = 16;
/// Scheduler threads and gc workers. With two of each on a 2-core host,
/// `run_s` varied between runs by more than its bound: every collection
/// waits for both threads, and the host deschedules one now and then.
const THREADS: usize = 1;
const REGION_WORDS: usize = 1 << 12;
/// Small enough that both semispaces and the slots' regions fit a 2 MiB
/// L2 cache, for the reason given at `cms`'s heap.
const SEMI_WORDS: usize = 1 << 15;

fn handler_src(salt: u64) -> String {
    format!(
        "MODULE ServeBench;
CONST Salt = {salt};
TYPE Node = REF RECORD v: INTEGER; next: Node END;
     Arr = REF ARRAY OF INTEGER;
     Req = REF RECORD id: INTEGER END;
VAR last: Req;

PROCEDURE Chew(n: INTEGER): INTEGER =
VAR l: Node; i, s: INTEGER;
BEGIN
  l := NIL;
  FOR i := 1 TO n DO
    WITH c = NEW(Node) DO c.v := i; c.next := l; l := c; END;
    IF i MOD 8 = 0 THEN l := NIL; END;
  END;
  s := 0;
  WHILE l # NIL DO s := s + l.v; l := l.next; END;
  RETURN s;
END Chew;

PROCEDURE Handle(id: INTEGER) =
VAR a: Arr; i, s: INTEGER;
BEGIN
  a := NEW(Arr, 8 + (id MOD 57));
  FOR i := 0 TO LAST(a) DO a[i] := id + i + Salt; END;
  s := (Chew(40 + id MOD 7) + a[id MOD (LAST(a) + 1)]) MOD 1000003;
  IF id MOD 16 = 0 THEN
    FOR i := 1 TO 30 DO
      s := (s + Chew(60) + a[i MOD (LAST(a) + 1)]) MOD 1000003;
    END;
  END;
  IF id MOD 100 = 0 THEN
    WITH r = NEW(Req) DO r.id := id; last := r; END;
  END;
  PutInt(s);
END Handle;

BEGIN
  last := NIL;
END ServeBench."
    )
}

/// What `Handle(id)` prints, computed without the compiler or runtime.
fn expected(id: u64, salt: u64) -> String {
    // Chew(n) sums the list left after the last reset at a multiple of 8.
    let chew = |n: u64| ((n / 8) * 8 + 1..=n).sum::<u64>();
    let len = 8 + id % 57;
    let a = |k: u64| id + k + salt;
    let mut s = (chew(40 + id % 7) + a(id % len)) % 1_000_003;
    if id.is_multiple_of(16) {
        for i in 1..=30 {
            s = (s + chew(60) + a(i % len)) % 1_000_003;
        }
    }
    s.to_string()
}

pub struct Serve {
    src: String,
    salt: u64,
    opts: RuntimeOptions,
    module: Option<VmModule>,
}

impl Serve {
    pub fn new(b: &mut Bench) -> Result<Serve, String> {
        let opts = RuntimeOptions::new()
            .strategy(GcStrategy::Parallel)
            .semi_words(SEMI_WORDS)
            .stack_words(1 << 14)
            .serve(REGION_WORDS, GREEN_SLOTS)
            .threads(THREADS)
            .gc_workers(THREADS);
        println!(
            "# config: serve: threads={THREADS} green_slots={GREEN_SLOTS} gc_workers={THREADS} \
             region_words={REGION_WORDS} semi_words={SEMI_WORDS} requests/iteration={REQUESTS}, \
             closed loop, oracle off"
        );
        let salt = crate::salt(b.seed);
        let src = handler_src(salt);
        let module = m3gc_compiler::compile(&src, &Options::o2()).map_err(|d| d.to_string())?;
        compile::check_against_entry_point(&src, &Options::o2(), &module)?;
        Ok(Serve { src, salt, opts, module: None })
    }

    fn load() -> ServeLoad {
        ServeLoad { requests: REQUESTS, burst: 8, entry: Some("Handle".to_string()) }
    }
}

impl Workload for Serve {
    fn setup(&mut self, b: &mut Bench, parent: SpanId) -> Result<SetupOut, String> {
        let t0 = Instant::now();
        let (module, counts) = compile::compile(&mut b.tracer, parent, &self.src, &Options::o2())?;
        let compile_s = t0.elapsed().as_secs_f64();
        if b.tracer.enabled() {
            let bytes = compile::table_layers(&mut b.tracer, parent, &module)?;
            b.exact("serve/core.encode_bytes", bytes);
        }
        let opts = self.opts;
        b.tracer.span("runtime.load", parent, |_, _| {
            drop(ServeExecutor::new(opts.build_par_machine(module.clone()), opts, Self::load()));
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
            ServeExecutor::new(opts.build_par_machine(module), opts, Self::load())
        });
        let t0 = Instant::now();
        let out = b.tracer.span("runtime.run", parent, |_, _| ex.run());
        let run_s = t0.elapsed().as_secs_f64();
        let out = out.map_err(|e| format!("serve: {e}"))?;
        let s = &out.stats;
        b.check(s.requests == REQUESTS && out.outputs.len() == REQUESTS as usize, || {
            format!("serve: {} of {REQUESTS} request(s) completed", s.requests)
        });
        for (id, got) in (0..).zip(&out.outputs) {
            let want = expected(id, self.salt);
            b.check(*got == want, || {
                format!("serve: request {id} printed {got:?}, expected {want:?}")
            });
        }

        let pause_s = par::record_collections(&out.gc_each, b, acc);
        acc.push("run_s", run_s);
        acc.push("pause_sum_s", pause_s);
        acc.push("runtime.mutator_s", run_s - pause_s);
        acc.push("vm.par.steps_per_s", s.steps as f64 / run_s);
        acc.push("vm.par.allocs", s.allocations as f64);
        acc.push("vm.par.words_allocated", s.words_allocated as f64);
        acc.push("runtime.serve.requests_per_s", s.requests as f64 / run_s);
        acc.push("runtime.serve.latency_p50_us", s.latency_p50_us as f64);
        acc.push("runtime.serve.latency_tail_us", s.latency_p99_us as f64);
        acc.push("runtime.serve.reclaim_ratio", s.region_reclaim_ratio());
        acc.push("runtime.serve.regions_zombied", s.regions_zombied as f64);
        acc.push("runtime.serve.region_escapes", s.region_escapes as f64);
        acc.push("runtime.serve.forced_collections", s.forced_collections as f64);
        acc.push("runtime.serve.parked_at_safepoints", s.parked_at_safepoints as f64);
        acc.push("runtime.serve.alloc_words_per_s", s.words_allocated as f64 / run_s);
        Ok(())
    }

    fn finish(&self, acc: &Samples, out: &mut BTreeMap<&'static str, f64>) {
        par::pause_split(acc, out);
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn expected_matches_the_handler_by_hand() {
        // id 0: a has 8 slots, Chew(40) = 0, a[0] = salt; slow and escaping.
        let chew60 = 57 + 58 + 59 + 60;
        let salt = 5;
        let mut s = salt;
        for i in 1..=30u64 {
            s = (s + chew60 + (i % 8) + salt) % 1_000_003;
        }
        assert_eq!(super::expected(0, salt), s.to_string());
        // id 3: 11 slots, Chew(43) = 41 + 42 + 43, a[3] = 3 + 3 + salt.
        assert_eq!(super::expected(3, salt), (41 + 42 + 43 + 6 + salt).to_string());
    }
}
