//! The parallel runtime's per-collection accounting, shared by `cms` and
//! `serve`.

use std::collections::BTreeMap;

use m3gc_runtime::parallel::ParGcStats;

use crate::metrics::Samples;
use crate::Bench;

/// Records the collections of one run: every stop-the-world pause into
/// `b.pauses` (microseconds) with its handshake / copy / other split, and
/// the parallel collector's per-run counters into `acc`. Returns the
/// run's total pause seconds.
pub fn record_collections(g: &[ParGcStats], b: &mut Bench, acc: &mut Samples) -> f64 {
    let mut pause_s = 0.0;
    for s in g {
        let mut stw = vec![s.total_time];
        if s.cms_cycle {
            stw.push(s.snapshot_pause);
        }
        if s.evac_cycle {
            stw.push(s.evac_select_pause);
        }
        for d in stw {
            b.pauses.push(d.as_secs_f64() * 1e6);
            pause_s += d.as_secs_f64();
        }
        let total = s.total_time.as_secs_f64();
        if total > 0.0 {
            let hs = s.handshake_time.as_secs_f64() / total;
            let copy = s.copy_time.as_secs_f64() / total;
            acc.push("handshake_share_each", hs);
            acc.push("copy_share_each", copy);
            acc.push("other_share_each", (1.0 - hs - copy).max(0.0));
        }
    }
    let sum = |f: fn(&ParGcStats) -> f64| g.iter().map(f).sum::<f64>();
    acc.push("runtime.parallel.collections", g.len() as f64);
    acc.push("runtime.parallel.handshake_s", sum(|s| s.handshake_time.as_secs_f64()));
    acc.push(
        "runtime.parallel.handshake_max_us",
        g.iter().map(|s| s.handshake_time.as_secs_f64() * 1e6).fold(0.0, f64::max),
    );
    acc.push("runtime.parallel.copy_s", sum(|s| s.copy_time.as_secs_f64()));
    acc.push("runtime.parallel.parked_at_polls", sum(|s| s.parked_at_polls as f64));
    acc.push("runtime.parallel.parked_at_allocs", sum(|s| s.parked_at_allocs as f64));
    acc.push("runtime.evac.words_copied", sum(|s| s.words_copied as f64));
    acc.push("runtime.evac.steals", sum(|s| s.steals.iter().sum::<u64>() as f64));
    let mut per_worker: Vec<u64> = Vec::new();
    for s in g {
        per_worker.resize(per_worker.len().max(s.per_worker_words.len()), 0);
        for (w, words) in per_worker.iter_mut().zip(&s.per_worker_words) {
            *w += words;
        }
    }
    let total: u64 = per_worker.iter().sum();
    if total > 0 {
        let mean = total as f64 / per_worker.len() as f64;
        let max = per_worker.iter().copied().max().unwrap_or(0) as f64;
        acc.push("runtime.evac.worker_imbalance", max / mean);
    }
    pause_s
}

/// The medians of the per-pause splits that [`record_collections`]
/// sampled over a window.
pub fn pause_split(acc: &Samples, out: &mut BTreeMap<&'static str, f64>) {
    for (each, metric) in [
        ("handshake_share_each", "runtime.parallel.handshake_share"),
        ("copy_share_each", "runtime.parallel.copy_share"),
        ("other_share_each", "runtime.parallel.other_share"),
    ] {
        out.insert(metric, crate::stats::median(acc.get(each)));
    }
}
