//! The open-loop driver: serves a request schedule through
//! `ModelRegistry::serve_multi` and records wall-clock latency per request.
//!
//! Each call hands the registry every request that is due (at most
//! [`MAX_BATCH`]). The dispatching thread makes the call itself, so it blocks
//! while the pool runs and at most `workers` threads are runnable at once;
//! between calls it spins until the next request is due, because sleeping
//! wakes 50–100 µs late against sub-millisecond service times.

use std::time::{Duration, Instant};

use permdnn_runtime::{
    ModelRegistry, ParallelExecutor, RegistryStats, Request, ServeConfig, TaggedRequest,
};

use crate::trace;
use crate::workload::{Sched, MAX_BATCH};

/// Waits until a deadline. [`spin_until`] in the benchmark; tests substitute
/// a late one.
pub type Pace = fn(Instant);

/// Busy-waits until `deadline`.
pub fn spin_until(deadline: Instant) {
    while Instant::now() < deadline {
        std::hint::spin_loop();
    }
}

/// What one round measured.
#[derive(Debug, Default)]
pub struct Round {
    /// Requests sent.
    pub sent: usize,
    /// Requests the registry returned an output for; the rest failed.
    pub completed: usize,
    /// Round start to the return of its last call, seconds.
    pub wall_s: f64,
    /// Process CPU time (all threads) over the round, nanoseconds.
    pub cpu_ns: u64,
    /// Scheduled send → return of the serving call, per completed request.
    pub latency_ms: Vec<f64>,
    /// Scheduled send → start of the serving call, per completed request.
    pub queue_ms: Vec<f64>,
    /// Completed requests whose latency met the limit.
    pub within_limit: usize,
    /// Largest delay between a request falling due on an idle engine and
    /// the call that sent it.
    pub gen_late_ms: f64,
    /// Schedule index range of each call, in call order.
    pub calls: Vec<std::ops::Range<usize>>,
    /// Batches executed.
    pub batches: usize,
    /// Σ modeled makespan of the calls, ticks (1 tick = 1 µs).
    pub modeled_ticks: u64,
    /// Registry counter deltas summed over calls (`peak_resident_bytes`:
    /// the largest per-call peak).
    pub stats: RegistryStats,
    /// Requests selected by `keep`: (schedule index, latency ms, output).
    pub kept: Vec<(usize, f64, Vec<f32>)>,
}

/// Serves `sched` (requests prebuilt in schedule order, ids = schedule
/// indices) open-loop from `Instant::now()`.
#[allow(clippy::too_many_arguments)]
pub fn run_round(
    reg: &mut ModelRegistry,
    exec: &ParallelExecutor,
    cfg: &ServeConfig,
    sched: &[Sched],
    requests: Vec<TaggedRequest>,
    keep: &[bool],
    limit_ms: f64,
    pace: Pace,
) -> Round {
    let n = sched.len();
    assert_eq!(requests.len(), n, "one request per schedule entry");
    let mut round = Round {
        sent: n,
        ..Round::default()
    };
    let mut requests = requests.into_iter();
    let cpu0 = process_cpu_ns();
    let start = Instant::now();
    let mut engine_free = Duration::ZERO;
    let mut next = 0;
    while next < n {
        let due = Duration::from_nanos(sched[next].due_ns);
        pace(start + due);
        let now = start.elapsed();
        if due >= engine_free {
            round.gen_late_ms = round.gen_late_ms.max(ms(now - due));
        }
        let mut end = next + 1;
        while end < n && end - next < MAX_BATCH && sched[end].due_ns <= now.as_nanos() as u64 {
            end += 1;
        }
        let call: Vec<TaggedRequest> = requests.by_ref().take(end - next).collect();
        let t0 = start.elapsed();
        let call_id = trace::enter_call();
        let result = reg.serve_multi(exec, cfg, call);
        let t1 = start.elapsed();
        trace::exit_call(call_id, start + t0, start + t1, end - next);
        match result {
            Ok(report) => {
                round.batches += report.per_model.values().map(|s| s.batches).sum::<usize>();
                round.modeled_ticks += report.makespan_ticks();
                add_stats(&mut round.stats, &report.stats);
                for tc in report.completed {
                    let i = tc.completed.id as usize;
                    let due = Duration::from_nanos(sched[i].due_ns);
                    let latency = ms(t1 - due);
                    round.completed += 1;
                    round.latency_ms.push(latency);
                    round.queue_ms.push(ms(t0 - due));
                    if latency <= limit_ms {
                        round.within_limit += 1;
                    }
                    if keep[i] {
                        round.kept.push((i, latency, tc.completed.output));
                    }
                }
            }
            Err(e) => eprintln!("serve_multi failed for requests {next}..{end}: {e}"),
        }
        round.calls.push(next..end);
        engine_free = t1;
        next = end;
    }
    round.wall_s = start.elapsed().as_secs_f64();
    round.cpu_ns = process_cpu_ns().saturating_sub(cpu0);
    round
}

/// Builds the round's requests: ids are schedule indices, every arrival
/// tick is 0 (each call is "everything due now", so the registry batches it
/// whole instead of splitting it by tick).
pub fn requests(sched: &[Sched], ids: &[String], inputs: &[&[Vec<f32>]]) -> Vec<TaggedRequest> {
    sched
        .iter()
        .enumerate()
        .map(|(i, s)| TaggedRequest {
            model_id: ids[s.model].clone(),
            request: Request {
                id: i as u64,
                arrival_tick: 0,
                input: inputs[s.model][s.input].clone(),
            },
        })
        .collect()
}

fn add_stats(total: &mut RegistryStats, d: &RegistryStats) {
    total.loads += d.loads;
    total.reloads += d.reloads;
    total.evictions += d.evictions;
    total.swaps += d.swaps;
    total.blocks_faulted += d.blocks_faulted;
    total.bytes_faulted += d.bytes_faulted;
    total.peak_resident_bytes = total.peak_resident_bytes.max(d.peak_resident_bytes);
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// CPU time of every thread of this process, nanoseconds (the first field
/// of each `/proc/self/task/*/schedstat`). 0 where that file is missing.
pub fn process_cpu_ns() -> u64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("schedstat")).ok())
        .filter_map(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .sum()
}

/// Median of `v` (0 for an empty slice).
pub fn median(v: &[f64]) -> f64 {
    percentile(v, 0.5)
}

/// The `q`-quantile of `v` with linear interpolation between order
/// statistics (0 for an empty slice).
pub fn percentile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Arc, Mutex};

    use pd_tensor::Matrix;
    use permdnn_core::format::{BatchView, FormatError};
    use permdnn_runtime::{BatchConfig, BatchModel, ServiceModel};

    /// Timing tests share two cores: run them one at a time.
    static SERIAL: Mutex<()> = Mutex::new(());

    const DIM: usize = 4;

    /// Spins a fixed time per batch; can stall once.
    struct SpinModel {
        batch_us: u64,
        stall_us: AtomicU64,
    }

    impl BatchModel for SpinModel {
        fn in_dim(&self) -> usize {
            DIM
        }
        fn out_dim(&self) -> usize {
            DIM
        }
        fn mul_count_per_example(&self) -> u64 {
            1
        }
        fn forward_batch(
            &self,
            xs: &BatchView<'_>,
            _exec: &ParallelExecutor,
        ) -> Result<Matrix, FormatError> {
            let stall = self.stall_us.swap(0, Ordering::Relaxed);
            spin_until(Instant::now() + Duration::from_micros(self.batch_us + stall));
            let mut out = Matrix::zeros(xs.batch(), DIM);
            for i in 0..xs.batch() {
                out.row_mut(i).copy_from_slice(xs.row(i));
            }
            Ok(out)
        }
    }

    fn registry(model: Arc<SpinModel>) -> ModelRegistry {
        let mut reg = ModelRegistry::new(
            Box::new(move |_| Ok(Arc::clone(&model) as Arc<dyn BatchModel>)),
            u64::MAX,
        );
        reg.insert("spin", vec![0])
            .expect("the loader accepts any bytes");
        reg
    }

    fn cfg() -> ServeConfig {
        ServeConfig {
            batching: BatchConfig::new(MAX_BATCH, 0),
            service: ServiceModel::default(),
        }
    }

    /// `n` requests every `gap_us` (0 = all due at once).
    fn serve(reg: &mut ModelRegistry, n: usize, gap_us: u64, pace: Pace) -> Round {
        let sched: Vec<Sched> = (0..n)
            .map(|i| Sched {
                due_ns: i as u64 * gap_us * 1000,
                model: 0,
                input: 0,
            })
            .collect();
        let reqs = requests(&sched, &["spin".to_string()], &[&[vec![1.0; DIM]]]);
        let exec = ParallelExecutor::new(1);
        run_round(reg, &exec, &cfg(), &sched, reqs, &vec![true; n], 1e9, pace)
    }

    #[test]
    fn open_loop_p50_and_saturated_rate_match_closed_form() {
        let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let batch_us = 2000;
        let mut reg = registry(Arc::new(SpinModel {
            batch_us,
            stall_us: AtomicU64::new(0),
        }));
        // Saturated: 16 requests per call, one batch each → 16 / 2 ms.
        let sat = serve(&mut reg, 160, 0, spin_until);
        let rps = sat.completed as f64 / sat.wall_s;
        let closed = MAX_BATCH as f64 / (batch_us as f64 * 1e-6);
        assert_eq!(sat.batches, 10);
        assert!((rps / closed - 1.0).abs() < 0.15, "{rps} req/s vs {closed}");
        // Open loop far below capacity: no queueing, latency = one batch.
        let open = serve(&mut reg, 40, 5000, spin_until);
        let p50 = median(&open.latency_ms);
        assert!((p50 / 2.0 - 1.0).abs() < 0.15, "p50 {p50} ms vs 2 ms");
        assert_eq!(open.batches, 40);
        assert_eq!(open.kept.len(), 40);
        assert!(
            open.gen_late_ms < 1.0,
            "on-time generator: {}",
            open.gen_late_ms
        );
    }

    #[test]
    fn late_generator_is_reported() {
        let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let mut reg = registry(Arc::new(SpinModel {
            batch_us: 100,
            stall_us: AtomicU64::new(0),
        }));
        fn late(deadline: Instant) {
            spin_until(deadline + Duration::from_millis(3));
        }
        let round = serve(&mut reg, 10, 5000, late);
        assert!(round.gen_late_ms >= 3.0, "late by {}", round.gen_late_ms);
        assert!(round.queue_ms.iter().all(|&q| q >= 3.0));
    }

    #[test]
    fn median_over_rounds_rejects_one_stall_round() {
        let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let model = Arc::new(SpinModel {
            batch_us: 500,
            stall_us: AtomicU64::new(0),
        });
        let mut reg = registry(Arc::clone(&model));
        let mut p99s = Vec::new();
        for r in 0..5 {
            if r == 2 {
                model.stall_us.store(40_000, Ordering::Relaxed);
            }
            let round = serve(&mut reg, 50, 2000, spin_until);
            p99s.push(percentile(&round.latency_ms, 0.99));
        }
        assert!(p99s[2] > 30.0, "the stall shows in its round: {p99s:?}");
        assert!(median(&p99s) < 5.0, "and not in the median: {p99s:?}");
    }

    #[test]
    fn percentiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(percentile(&v, 1.0), 4.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }
}
