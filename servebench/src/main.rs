//! `servebench`: the wall-clock serving benchmark of the PermDNN runtime.
//!
//! One invocation builds one workload from its seed, constructs the serving
//! registry several times (`setup_s`), then serves open-loop request
//! schedules through `ModelRegistry::serve_multi` — saturated rounds
//! (`max_rps`, `cpu_us_per_req`) alternating with fixed-rate latency rounds
//! (`p50_ms`, `p99_ms`, `slo_attainment`) — and checks a seeded sample of
//! every round's outputs bit for bit against the sequential reference. With `--trace 1`
//! it instead reports per-layer metrics from spans recorded around the
//! library's public entry points. See `servebench/README.md`.
//!
//! Usage: `servebench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--workers <n>]`

mod driver;
mod layers;
mod trace;
mod workload;

use std::collections::HashMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use pd_tensor::init::seeded_rng;
use permdnn_core::format::BatchView;
use permdnn_nn::snapshot::{batch_model_loader, paged_config};
use permdnn_runtime::{
    BatchConfig, BatchModel, ModelRegistry, ParallelExecutor, ResidencyMode, ServeConfig,
    ServiceModel,
};
use rand::Rng;

use driver::{median, percentile, run_round, spin_until, Round};
use layers::RecordedBatch;
use workload::{Sched, Workload, MAX_BATCH};

const USAGE: &str = "usage: servebench --workload <fc_alexnet|zipf_whole|zipf_paged> \
                     --seed <n> --seconds <s> --trace <0|1> [--workers <n>]";
/// Registry constructions timed for `setup_s`.
const SETUPS: usize = 7;
/// Fewest rounds any timed phase runs; every timing is a median over them.
const MIN_ROUNDS: usize = 5;
/// Most rounds one phase runs.
const MAX_ROUNDS: usize = 60;
/// Outputs per round kept for the correctness check.
const SAMPLE_PER_ROUND: usize = 4;
/// Recorded batches per model replayed by the traced post-pass.
const REPLAY_PER_MODEL: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    workers: Option<usize>,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut workers) =
        (None, None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            "--workers" => workers = Some(value.parse::<usize>().map_err(|_| bad())?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        workers,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers = args.workers.unwrap_or(nproc);
    if workers == 0 || workers > nproc {
        eprintln!("servebench: refusing {workers} workers on {nproc} available CPUs");
        return ExitCode::from(2);
    }
    let Some(w) = Workload::build(&args.workload, args.seed) else {
        eprintln!("servebench: unknown workload {:?}\n{USAGE}", args.workload);
        return ExitCode::from(2);
    };
    let provenance = provenance(&args, &w, workers, nproc);
    println!("{provenance}");
    // Model generation and serialisation above are untimed prep: restart
    // the RSS high-water mark here.
    if let Err(e) = std::fs::write("/proc/self/clear_refs", "5") {
        eprintln!("servebench: cannot reset the RSS high-water mark: {e}");
    }
    let bench = Bench::new(&w, workers, args.seed, args.seconds);
    let out = if args.trace {
        bench.traced(&provenance)
    } else {
        bench.untraced()
    };
    println!("{}", out.report);
    let finite = out.metrics.iter().all(|(_, v, _)| v.is_finite());
    let correct = out.failed == 0 && finite;
    let mut line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.attempted, out.failed
    );
    for (i, (name, value, unit)) in out.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if value.is_finite() {
            format!("{value}")
        } else {
            "null".to_string()
        };
        let _ = write!(
            line,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    line.push_str("}}");
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// A run's result.
struct Outcome {
    attempted: usize,
    failed: usize,
    metrics: Vec<(String, f64, &'static str)>,
    /// Phase accounting and modeled-vs-measured, one JSON line.
    report: String,
}

/// One timed phase: its rounds with their schedules.
struct Phase {
    name: &'static str,
    rounds: Vec<(Vec<Sched>, Round)>,
}

impl Phase {
    fn sent(&self) -> usize {
        self.rounds.iter().map(|(_, r)| r.sent).sum()
    }

    fn median_of(&self, f: impl Fn(&Round) -> f64) -> f64 {
        median(&self.rounds.iter().map(|(_, r)| f(r)).collect::<Vec<_>>())
    }

    /// `f` of each round, comma-separated with four decimals.
    fn per_round(&self, f: impl Fn(&Round) -> f64) -> String {
        let v: Vec<String> = self
            .rounds
            .iter()
            .map(|(_, r)| format!("{:.4}", f(r)))
            .collect();
        v.join(", ")
    }

    fn max_rps(&self) -> f64 {
        self.median_of(|r| r.completed as f64 / r.wall_s)
    }

    /// Requests per second the `ServiceModel` tick accounting implies.
    fn modeled_rps(&self) -> f64 {
        self.median_of(|r| r.completed as f64 / (r.modeled_ticks as f64 * 1e-6))
    }
}

/// The outcome of checking a phase's kept outputs.
#[derive(Default)]
struct Checked {
    succeeded: usize,
    failed: usize,
    /// Mismatched requests that had met the latency limit.
    mismatched_in_limit: usize,
}

struct Bench<'a> {
    w: &'a Workload,
    exec: ParallelExecutor,
    cfg: ServeConfig,
    ids: Vec<String>,
    inputs: Vec<&'a [Vec<f32>]>,
    seed: u64,
    seconds: f64,
}

impl<'a> Bench<'a> {
    fn new(w: &'a Workload, workers: usize, seed: u64, seconds: f64) -> Self {
        Bench {
            w,
            exec: ParallelExecutor::new(workers),
            cfg: ServeConfig {
                batching: BatchConfig::new(MAX_BATCH, 0),
                service: ServiceModel::default(),
            },
            ids: w.models.iter().map(|m| m.id.clone()).collect(),
            inputs: w.models.iter().map(|m| m.inputs.as_slice()).collect(),
            seed,
            seconds,
        }
    }

    fn registry(&self, traced: bool) -> ModelRegistry {
        let labels = || {
            let snaps: Vec<(&str, &[u8])> = self
                .w
                .models
                .iter()
                .map(|m| (m.id.as_str(), m.snapshot.as_slice()))
                .collect();
            trace::Labels::new(&snaps)
        };
        let loader = if traced {
            trace::traced_loader(labels())
        } else {
            batch_model_loader()
        };
        match self.w.residency {
            ResidencyMode::Whole => ModelRegistry::new(loader, self.w.budget_bytes),
            ResidencyMode::Paged => {
                let paged = if traced {
                    trace::traced_paged_config(labels())
                } else {
                    paged_config()
                };
                ModelRegistry::new_paged(loader, paged, self.w.budget_bytes)
            }
        }
    }

    fn round_seed(&self, phase: u64, round: usize) -> u64 {
        self.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (phase << 40) ^ round as u64
    }

    /// Serves one round, keeping a seeded sample of outputs (all of them
    /// with `keep_all`).
    fn round(
        &self,
        reg: &mut ModelRegistry,
        sched: Vec<Sched>,
        seed: u64,
        keep_all: bool,
    ) -> (Vec<Sched>, Round) {
        let n = sched.len();
        let mut keep = vec![keep_all; n];
        let mut rng = seeded_rng(seed ^ 0x5A3D);
        for _ in 0..SAMPLE_PER_ROUND.min(n) {
            keep[rng.gen_range(0..n)] = true;
        }
        let reqs = driver::requests(&sched, &self.ids, &self.inputs);
        let round = run_round(
            reg,
            &self.exec,
            &self.cfg,
            &sched,
            reqs,
            &keep,
            self.w.limit_ms,
            spin_until,
        );
        (sched, round)
    }

    /// Constructs the registry `SETUPS` times — snapshot bytes in memory to
    /// a registry that has served a warm-up batch of one request per model —
    /// and returns the last one, the construction times and the warm-up
    /// phase.
    fn setup(&self, traced: bool) -> (ModelRegistry, Vec<f64>, Phase) {
        let mut times = Vec::with_capacity(SETUPS);
        let mut phase = Phase {
            name: "setup",
            rounds: Vec::new(),
        };
        let mut last = None;
        for k in 0..SETUPS {
            drop(last.take());
            let snaps: Vec<Vec<u8>> = self.w.models.iter().map(|m| m.snapshot.clone()).collect();
            let sched: Vec<Sched> = (0..self.w.models.len())
                .map(|model| Sched {
                    due_ns: 0,
                    model,
                    input: k % self.inputs[model].len(),
                })
                .collect();
            let keep = vec![true; sched.len()];
            let reqs = driver::requests(&sched, &self.ids, &self.inputs);
            let t = Instant::now();
            let mut reg = self.registry(traced);
            for (m, snap) in self.w.models.iter().zip(snaps) {
                reg.insert(&m.id, snap).expect("generated snapshots load");
            }
            let round = run_round(
                &mut reg,
                &self.exec,
                &self.cfg,
                &sched,
                reqs,
                &keep,
                self.w.limit_ms,
                spin_until,
            );
            times.push(t.elapsed().as_secs_f64());
            phase.rounds.push((sched, round));
            last = Some(reg);
        }
        (last.expect("SETUPS > 0"), times, phase)
    }

    /// Alternates saturated rounds (all requests due at once) with
    /// fixed-rate latency rounds until `budget_s` has passed (at least
    /// `MIN_ROUNDS` of each), after one discarded warm-up round. Interleaving
    /// makes both phases sample the same drift in machine speed.
    fn cycles(
        &self,
        reg: &mut ModelRegistry,
        names: [&'static str; 2],
        budget_s: f64,
        keep_first: bool,
    ) -> (Phase, Phase) {
        self.round(
            reg,
            self.w.saturated_schedule(self.round_seed(1, 999)),
            0,
            false,
        );
        let start = Instant::now();
        let (mut sat, mut lat) = (Vec::new(), Vec::new());
        while sat.len() < MIN_ROUNDS
            || (start.elapsed().as_secs_f64() < budget_s && sat.len() < MAX_ROUNDS)
        {
            let c = sat.len();
            let seed = self.round_seed(1, c);
            sat.push(self.round(
                reg,
                self.w.saturated_schedule(seed),
                seed,
                keep_first && c == 0,
            ));
            let seed = self.round_seed(2, c);
            lat.push(self.round(reg, self.w.latency_schedule(seed), seed, false));
        }
        (
            Phase {
                name: names[0],
                rounds: sat,
            },
            Phase {
                name: names[1],
                rounds: lat,
            },
        )
    }

    /// Checks every kept output bit for bit against the sequential
    /// reference, rebuilt from the seed now that timing is over.
    fn check(&self, phases: &[&Phase]) -> Vec<Checked> {
        let seq = ParallelExecutor::sequential();
        let mut refs: Vec<Option<Arc<dyn BatchModel>>> = vec![None; self.w.models.len()];
        let mut cache: HashMap<(usize, usize), Vec<u32>> = HashMap::new();
        phases
            .iter()
            .map(|phase| {
                let mut c = Checked::default();
                for (sched, round) in &phase.rounds {
                    c.failed += round.sent - round.completed;
                    let mut bad = 0;
                    for (i, latency, out) in &round.kept {
                        let s = sched[*i];
                        let want = cache.entry((s.model, s.input)).or_insert_with(|| {
                            let model =
                                refs[s.model].get_or_insert_with(|| self.w.reference(s.model));
                            let x = &self.inputs[s.model][s.input];
                            let view =
                                BatchView::new(x, 1, x.len()).expect("inputs match their model");
                            let y = model.forward_batch(&view, &seq).expect("reference forward");
                            y.as_slice().iter().map(|v| v.to_bits()).collect()
                        });
                        if out.iter().map(|v| v.to_bits()).ne(want.iter().copied()) {
                            bad += 1;
                            if *latency <= self.w.limit_ms {
                                c.mismatched_in_limit += 1;
                            }
                            eprintln!(
                                "{}: request {i} ({}) differs from the reference",
                                phase.name, self.ids[s.model]
                            );
                        }
                    }
                    c.failed += bad;
                    c.succeeded += round.completed - bad;
                }
                c
            })
            .collect()
    }

    fn untraced(&self) -> Outcome {
        let (mut reg, setup_times, setup) = self.setup(false);
        let (sat, lat) = self.cycles(&mut reg, ["saturated", "latency"], self.seconds, false);
        let peak_rss_mb = vm_hwm_bytes() as f64 / 1e6;
        drop(reg);
        let phases = [&setup, &sat, &lat];
        let checked = self.check(&phases);
        let failed: usize = checked.iter().map(|c| c.failed).sum();
        let within: usize = lat.rounds.iter().map(|(_, r)| r.within_limit).sum();
        let slo = within.saturating_sub(checked[2].mismatched_in_limit) as f64 / lat.sent() as f64;
        let metrics = vec![
            ("setup_s".to_string(), median(&setup_times), "s"),
            ("max_rps".to_string(), sat.max_rps(), "req/s"),
            (
                "cpu_us_per_req".to_string(),
                sat.median_of(|r| r.cpu_ns as f64 / 1e3 / r.completed as f64),
                "us",
            ),
            (
                "p50_ms".to_string(),
                lat.median_of(|r| percentile(&r.latency_ms, 0.5)),
                "ms",
            ),
            (
                "p99_ms".to_string(),
                lat.median_of(|r| percentile(&r.latency_ms, 0.99)),
                "ms",
            ),
            ("slo_attainment".to_string(), slo, "ratio"),
            ("peak_rss_mb".to_string(), peak_rss_mb, "MB"),
        ];
        Outcome {
            attempted: phases.iter().map(|p| p.sent()).sum(),
            failed,
            metrics,
            report: self.report(&phases, &checked, &sat),
        }
    }

    /// Phase accounting, sample counts and modeled-vs-measured throughput.
    fn report(&self, phases: &[&Phase], checked: &[Checked], sat: &Phase) -> String {
        let mut s = String::from("{\"report\": {\"phases\": [");
        for (i, (p, c)) in phases.iter().zip(checked).enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let kept: usize = p.rounds.iter().map(|(_, r)| r.kept.len()).sum();
            let _ = write!(
                s,
                "{sep}{{\"phase\": \"{}\", \"rounds\": {}, \"sent\": {}, \"succeeded\": {}, \"failed\": {}, \"outputs_checked\": {kept}, \
                 \"round_rps\": [{}], \"round_p50_ms\": [{}], \"round_p99_ms\": [{}]}}",
                p.name,
                p.rounds.len(),
                p.sent(),
                c.succeeded,
                c.failed,
                p.per_round(|r| r.completed as f64 / r.wall_s),
                p.per_round(|r| percentile(&r.latency_ms, 0.5)),
                p.per_round(|r| percentile(&r.latency_ms, 0.99)),
            );
        }
        let (modeled, measured) = (sat.modeled_rps(), sat.max_rps());
        let _ = write!(
            s,
            "], \"saturated_requests_per_round\": {}, \"latency_samples_per_round\": {}, \
             \"modeled_rps\": {modeled}, \"measured_max_rps\": {measured}, \"measured_over_modeled\": {}}}}}",
            self.w.sat_round,
            self.w.lat_round,
            measured / modeled
        );
        s
    }

    /// The `--trace 1` run: traced setup, untraced cycles on a plain
    /// registry (the baseline for the tracing overhead), traced cycles on a
    /// registry built with the tracing loaders, then the layer post-pass.
    fn traced(&self, provenance: &str) -> Outcome {
        trace::set_enabled(true);
        let (mut reg, _, setup) = self.setup(true);
        let setup_spans = trace::take();
        trace::set_enabled(false);
        let mut plain = self.registry(false);
        for m in &self.w.models {
            plain
                .insert(&m.id, m.snapshot.clone())
                .expect("generated snapshots load");
        }
        let names = ["saturated_untraced", "latency_untraced"];
        let (base, base_lat) = self.cycles(&mut plain, names, self.seconds / 3.0, false);
        drop(plain);
        trace::set_enabled(true);
        let (sat, lat) = self.cycles(&mut reg, ["saturated", "latency"], self.seconds / 3.0, true);
        let spans = trace::take();
        trace::set_enabled(false);
        drop(reg);

        let seq = ParallelExecutor::sequential();
        let snaps: Vec<Option<&[u8]>> = self
            .w
            .models
            .iter()
            .map(|m| m.is_mlp.then_some(m.whole_snapshot.as_slice()))
            .collect();
        let pass = layers::replay(
            &self.ids,
            &snaps,
            &self.recorded(&sat.rounds[0]),
            &self.exec,
            &seq,
        );
        let phases = [&setup, &base, &base_lat, &sat, &lat];
        let checked = self.check(&phases);
        let failed = checked.iter().map(|c| c.failed).sum::<usize>() + pass.mismatched;
        let metrics = self.layer_metrics(&setup_spans, &spans, &base, &sat, &lat, &pass);

        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-{}-{}.jsonl", self.w.name, self.seed));
        let all: Vec<trace::Span> = setup_spans.into_iter().chain(spans).collect();
        if let Err(e) = trace::write_spans(&path, provenance, &all) {
            eprintln!("servebench: cannot write {}: {e}", path.display());
        }
        Outcome {
            attempted: phases.iter().map(|p| p.sent()).sum(),
            failed,
            metrics,
            report: self.report(&phases, &checked, &base),
        }
    }

    /// The batches the registry executed in `round` (one per model per
    /// call, since a call holds at most `MAX_BATCH` requests), at most
    /// `REPLAY_PER_MODEL` per model, with their served outputs.
    fn recorded(&self, (sched, round): &(Vec<Sched>, Round)) -> Vec<RecordedBatch> {
        let outputs: HashMap<usize, &Vec<f32>> =
            round.kept.iter().map(|(i, _, o)| (*i, o)).collect();
        let mut per_model = vec![0; self.w.models.len()];
        let mut batches = Vec::new();
        for call in &round.calls {
            for (model, replayed) in per_model.iter_mut().enumerate() {
                let members: Vec<usize> =
                    call.clone().filter(|&i| sched[i].model == model).collect();
                if members.is_empty() || *replayed == REPLAY_PER_MODEL {
                    continue;
                }
                let Some(outs) = members
                    .iter()
                    .map(|i| outputs.get(i).map(|o| o.to_vec()))
                    .collect()
                else {
                    continue;
                };
                *replayed += 1;
                batches.push(RecordedBatch {
                    model,
                    inputs: members
                        .iter()
                        .map(|&i| self.inputs[model][sched[i].input].clone())
                        .collect(),
                    outputs: outs,
                });
            }
        }
        batches
    }

    /// Every per-layer metric, for every workload: a layer that is not
    /// active in this workload reports 0.
    fn layer_metrics(
        &self,
        setup_spans: &[trace::Span],
        spans: &[trace::Span],
        base: &Phase,
        sat: &Phase,
        lat: &Phase,
        pass: &layers::Pass,
    ) -> Vec<(String, f64, &'static str)> {
        let mut m: Vec<(String, f64, &'static str)> = Vec::new();
        let mut add = |name: String, v: f64, unit: &'static str| m.push((name, v, unit));
        let named = |name: &'static str| spans.iter().filter(move |s| s.name == name);
        let in_call_us = |name: &'static str| {
            named(name)
                .filter(|s| s.parent != 0)
                .map(|s| s.us())
                .sum::<f64>()
        };
        let calls = named("serve.call").count();
        let call_us: f64 = named("serve.call").map(|s| s.us()).sum();
        let rounds = || sat.rounds.iter().chain(&lat.rounds).map(|(_, r)| r);
        let sum = |f: &dyn Fn(&Round) -> f64| rounds().map(f).sum::<f64>();
        let batches = sum(&|r| r.batches as f64);

        let queue: Vec<f64> = lat
            .rounds
            .iter()
            .flat_map(|(_, r)| r.queue_ms.iter().copied())
            .collect();
        add("serve.queue_ms.p50".into(), percentile(&queue, 0.5), "ms");
        add("serve.queue_ms.p99".into(), percentile(&queue, 0.99), "ms");
        let batch_mean = |p: &Phase| {
            let (n, b) = p
                .rounds
                .iter()
                .fold((0, 0), |(n, b), (_, r)| (n + r.completed, b + r.batches));
            div(n as f64, b as f64)
        };
        add("serve.batch_mean".into(), batch_mean(sat), "requests");
        add("serve.batch_mean_open".into(), batch_mean(lat), "requests");
        let children =
            in_call_us("nn.model") + in_call_us("registry.load") + in_call_us("paging.decode");
        add(
            "serve.self_us_per_call".into(),
            div(call_us - children, calls as f64),
            "us",
        );
        let late = lat
            .rounds
            .iter()
            .map(|(_, r)| r.gen_late_ms)
            .fold(0.0, f64::max);
        add("serve.gen_late_ms.max".into(), late, "ms");
        let modeled = base.modeled_rps();
        add("serve.modeled_rps".into(), modeled, "req/s");
        add(
            "serve.measured_over_modeled".into(),
            div(base.max_rps(), modeled),
            "ratio",
        );

        let reloads = sum(&|r| r.stats.reloads as f64);
        add(
            "registry.hit_ratio".into(),
            1.0 - div(reloads, batches),
            "ratio",
        );
        add("registry.reloads".into(), reloads, "count");
        add(
            "registry.evictions".into(),
            sum(&|r| r.stats.evictions as f64),
            "count",
        );
        let loads: Vec<f64> = setup_spans
            .iter()
            .chain(spans)
            .filter(|s| s.name == "registry.load")
            .map(trace::Span::us)
            .collect();
        add("registry.load_us.p50".into(), median(&loads), "us");
        add(
            "registry.share".into(),
            div(in_call_us("registry.load"), call_us),
            "ratio",
        );

        let paged = self.w.residency == ResidencyMode::Paged;
        let on = |v: f64| if paged { v } else { 0.0 };
        let blocks = sum(&|r| r.stats.blocks_faulted as f64);
        let decodes: Vec<f64> = named("paging.decode").map(trace::Span::us).collect();
        add("paging.blocks_faulted".into(), on(blocks), "count");
        add(
            "paging.faults_per_batch".into(),
            on(div(blocks, batches)),
            "ratio",
        );
        add(
            "paging.mb_faulted".into(),
            on(sum(&|r| r.stats.bytes_faulted as f64) / 1e6),
            "MB",
        );
        add(
            "paging.decode_us_per_block".into(),
            on(div(decodes.iter().sum(), decodes.len() as f64)),
            "us",
        );
        let peak = rounds()
            .map(|r| r.stats.peak_resident_bytes)
            .max()
            .unwrap_or(0);
        add(
            "paging.peak_resident_mb".into(),
            on(peak as f64 / 1e6),
            "MB",
        );
        add(
            "paging.share".into(),
            on(div(in_call_us("paging.decode"), call_us)),
            "ratio",
        );

        let alexnet_us = median(pass.model_us.get("fc_alexnet").map_or(&[][..], |v| v));
        let empty = layers::LayerTimes::default();
        for (k, layer) in ["fc6", "fc7", "fc8"].iter().enumerate() {
            let t = pass
                .layers
                .get(&format!("fc_alexnet.fc{k}"))
                .unwrap_or(&empty);
            let us = median(&t.us);
            let macs = div(t.macs.iter().sum(), t.macs.len() as f64);
            add(format!("nn.{layer}.us"), us, "us");
            add(format!("nn.{layer}.macs"), macs, "MAC");
            add(format!("nn.{layer}.gmacs"), div(macs, us * 1e3), "GMAC/s");
            add(format!("nn.{layer}.weight_mb"), t.weight_mb, "MB-computed");
            add(format!("nn.{layer}.share"), div(us, alexnet_us), "ratio");
            add(
                format!("executor.speedup.{layer}"),
                div(median(&t.seq_us), us),
                "x",
            );
        }
        let act = median(pass.layers.get("fc_alexnet.act").map_or(&[][..], |t| &t.us));
        add("nn.act.us".into(), act, "us");
        add("nn.act.share".into(), div(act, alexnet_us), "ratio");
        for id in workload::ZIPF_IDS {
            let spans_of = || named("nn.model").filter(move |s| s.label == id);
            let us: f64 = spans_of().map(trace::Span::us).sum();
            let reqs: f64 = spans_of().map(|s| s.n as f64).sum();
            add(format!("nn.{id}.us_per_req"), div(us, reqs), "us");
            add(format!("nn.{id}.share"), div(us, call_us), "ratio");
        }
        add(
            "nn.chain_overhead_share".into(),
            median(&pass.chain_overhead),
            "ratio",
        );
        let overhead = &pass.exec_overhead_us;
        add(
            "executor.overhead_us_per_call".into(),
            div(overhead.iter().sum(), overhead.len() as f64),
            "us",
        );
        let (bytes, us) = setup_spans
            .iter()
            .filter(|s| s.name == "registry.load")
            .fold((0.0, 0.0), |(b, u), s| (b + s.n as f64, u + s.us()));
        add("snapshot.decode_mb_s".into(), div(bytes, us), "MB/s");
        add(
            "trace.overhead_share".into(),
            div(base.max_rps(), sat.max_rps()) - 1.0,
            "ratio",
        );
        m
    }
}

/// `a / b`, or 0 when `b` is 0.
fn div(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// `VmHWM` of this process in bytes (0 where unavailable).
fn vm_hwm_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        })
        .map_or(0, |kb| kb * 1024)
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// First line of a command's output, or "unknown".
fn command_line(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Where and how the numbers were produced, one JSON line.
fn provenance(args: &Args, w: &Workload, workers: usize, nproc: usize) -> String {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let field = |name: &str| {
        cpuinfo
            .lines()
            .find(|l| l.starts_with(name))
            .and_then(|l| l.split(':').nth(1))
            .map_or(String::new(), |v| v.trim().to_string())
    };
    let flags: Vec<String> = field("flags")
        .split_whitespace()
        .filter(|f| f.starts_with("avx") || f.starts_with("sse4") || *f == "fma")
        .map(str::to_string)
        .collect();
    let models: Vec<String> = w
        .models
        .iter()
        .map(|m| {
            format!(
                "{{\"id\": {}, \"snapshot_bytes\": {}, \"zipf_weight\": {}}}",
                json_str(&m.id),
                m.snapshot.len(),
                m.weight
            )
        })
        .collect();
    let budget = if w.budget_bytes == u64::MAX {
        "null".to_string()
    } else {
        w.budget_bytes.to_string()
    };
    format!(
        "{{\"provenance\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"workers\": {workers}, \"nproc\": {nproc}, \"cpu_model\": {}, \"cpu_flags\": {}, \
         \"rustc\": {}, \"git_commit\": {}, \"offered_rate_per_s\": {}, \"latency_limit_ms\": {}, \
         \"max_batch\": {MAX_BATCH}, \"budget_bytes\": {budget}, \"models\": [{}]}}}}",
        json_str(w.name),
        args.seed,
        args.seconds,
        args.trace,
        json_str(&field("model name")),
        json_str(&flags.join(" ")),
        json_str(&command_line("rustc", &["--version"])),
        json_str(&command_line("git", &["rev-parse", "HEAD"])),
        w.rate_per_s,
        w.limit_ms,
        models.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Result<Args, String> {
        parse_args(v.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = args(&[
            "--workload",
            "zipf_whole",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .expect("valid");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("zipf_whole", 7, 10.0, true)
        );
        assert!(args(&["--seed", "1", "--seconds", "1", "--trace", "0"]).is_err());
        assert!(args(&[
            "--workload",
            "x",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2"
        ])
        .is_err());
        assert!(args(&[
            "--workload",
            "x",
            "--seed",
            "-1",
            "--seconds",
            "1",
            "--trace",
            "0"
        ])
        .is_err());
    }

    #[test]
    fn json_strings_escape() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
