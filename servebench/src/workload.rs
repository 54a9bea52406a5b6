//! The three workloads: seeded models, their snapshots, input pools and
//! request schedules. Everything here is untimed preparation and a pure
//! function of the seed.

use std::sync::Arc;

use pd_tensor::init::seeded_rng;
use permdnn_core::snapshot::block_stream_snapshot;
use permdnn_nn::layers::WeightFormat;
use permdnn_nn::{ConvClassifier, FrozenConvNet, MlpClassifier};
use permdnn_runtime::{BatchModel, ResidencyMode};
use rand::Rng;
use rand_chacha::ChaCha20Rng;

/// Requests per call and per executed batch (`BatchConfig::max_batch`).
pub const MAX_BATCH: usize = 16;
/// Distinct inputs generated per model; requests draw from this pool.
const INPUT_POOL: usize = 48;

/// One served model.
pub struct Served {
    /// Registry id.
    pub id: String,
    /// The bytes inserted into the registry (block-streamed when paged).
    pub snapshot: Vec<u8>,
    /// The plain (never block-streamed) snapshot, for the per-layer post-pass.
    pub whole_snapshot: Vec<u8>,
    /// Request input pool.
    pub inputs: Vec<Vec<f32>>,
    /// Zipf popularity weight (unnormalised).
    pub weight: f64,
    /// Whether the model is an MLP (layer-by-layer post-pass applies).
    pub is_mlp: bool,
}

/// A workload: its models plus the fixed serving parameters.
pub struct Workload {
    pub name: &'static str,
    pub models: Vec<Served>,
    pub residency: ResidencyMode,
    /// Registry byte budget.
    pub budget_bytes: u64,
    /// Fixed offered rate of the latency rounds, requests per second.
    pub rate_per_s: f64,
    /// Latency limit for `slo_attainment`, milliseconds.
    pub limit_ms: f64,
    /// Requests per saturated round (all due at once).
    pub sat_round: usize,
    /// Requests per latency round.
    pub lat_round: usize,
    seed: u64,
}

/// AlexNet FC6–FC8 input density (Table VII).
const ALEXNET_DENSITY: f64 = 0.358;

/// The Zipf mix's models, in `zipf_whole`'s popularity order (hottest
/// first): PD hottest, the dense baseline coldest.
pub const ZIPF_IDS: [&str; 8] = [
    "pd8", "pdq16", "circ8", "csc8", "spd8", "eie8", "conv", "dense",
];
/// `zipf_paged`'s popularity order: the dense model second. Coldest, each
/// of its rare requests flushes the paged cache in a 100–200 ms fault storm
/// whose size depends on what happens to be resident, which left p99
/// unsteady; second-hottest, every call faults and paging cost is steady.
const PAGED_ORDER: [&str; 8] = [
    "pd8", "dense", "pdq16", "circ8", "csc8", "spd8", "eie8", "conv",
];
const ZIPF_SKEW: f64 = 1.2;
const ZIPF_IN: usize = 512;
const ZIPF_HIDDEN: [usize; 2] = [1024, 1024];
const ZIPF_CLASSES: usize = 10;

impl Workload {
    /// Builds the named workload from `seed`, or `None` for an unknown name.
    pub fn build(name: &str, seed: u64) -> Option<Workload> {
        match name {
            "fc_alexnet" => Some(fc_alexnet(seed)),
            "zipf_whole" => Some(zipf(seed, ResidencyMode::Whole)),
            "zipf_paged" => Some(zipf(seed, ResidencyMode::Paged)),
            _ => None,
        }
    }

    /// Regenerates model `m` exactly as it was snapshotted — the reference
    /// the served outputs are checked against. Rebuilt after timing so the
    /// benchmark holds no second copy of the weights while it measures.
    pub fn reference(&self, m: usize) -> Arc<dyn BatchModel> {
        if self.name == "fc_alexnet" {
            return Arc::new(alexnet_model(self.seed));
        }
        zipf_model(self.seed, m).into_batch_model()
    }

    /// A saturated round: `sat_round` requests, all due at t = 0.
    pub fn saturated_schedule(&self, round_seed: u64) -> Vec<Sched> {
        let mut rng = seeded_rng(round_seed);
        self.mix(self.sat_round, &mut rng)
            .into_iter()
            .map(|(model, input)| Sched {
                due_ns: 0,
                model,
                input,
            })
            .collect()
    }

    /// A latency round at the fixed offered rate: inter-arrival gaps are
    /// `mean × U(0.5, 1.5)`, bounded so a seed cannot produce a burst.
    pub fn latency_schedule(&self, round_seed: u64) -> Vec<Sched> {
        let mut rng = seeded_rng(round_seed);
        let mix = self.mix(self.lat_round, &mut rng);
        let mean_ns = 1e9 / self.rate_per_s;
        let mut t = 0.0f64;
        mix.into_iter()
            .map(|(model, input)| {
                t += mean_ns * rng.gen_range(0.5..1.5);
                Sched {
                    due_ns: t as u64,
                    model,
                    input,
                }
            })
            .collect()
    }

    /// Stratified Zipf mix: each model gets exactly its share of `n`
    /// (largest remainders), then the order is shuffled. Every round holds
    /// the same requests per model; only their order and inputs change with
    /// the seed.
    fn mix(&self, n: usize, rng: &mut ChaCha20Rng) -> Vec<(usize, usize)> {
        let total: f64 = self.models.iter().map(|m| m.weight).sum();
        let exact: Vec<f64> = self
            .models
            .iter()
            .map(|m| n as f64 * m.weight / total)
            .collect();
        let mut counts: Vec<usize> = exact.iter().map(|e| e.floor() as usize).collect();
        let mut order: Vec<usize> = (0..counts.len()).collect();
        order.sort_by(|&a, &b| {
            let ra = exact[a] - exact[a].floor();
            let rb = exact[b] - exact[b].floor();
            rb.total_cmp(&ra).then(a.cmp(&b))
        });
        let short = n - counts.iter().sum::<usize>();
        for &k in order.iter().take(short) {
            counts[k] += 1;
        }
        let mut out: Vec<(usize, usize)> = Vec::with_capacity(n);
        for (m, &c) in counts.iter().enumerate() {
            let pool = self.models[m].inputs.len();
            out.extend((0..c).map(|_| (m, rng.gen_range(0..pool))));
        }
        for i in (1..out.len()).rev() {
            out.swap(i, rng.gen_range(0..=i));
        }
        out
    }
}

/// One scheduled request: due time from the round start, model, input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sched {
    pub due_ns: u64,
    pub model: usize,
    pub input: usize,
}

fn alexnet_model(seed: u64) -> MlpClassifier {
    MlpClassifier::new_frozen(
        9216,
        &[4096, 4096],
        1000,
        WeightFormat::PermutedDiagonal { p: 10 },
        &mut seeded_rng(seed ^ 0xA1E8),
    )
}

fn fc_alexnet(seed: u64) -> Workload {
    let snapshot = alexnet_model(seed).save().expect("a frozen MLP snapshots");
    let mut rng = seeded_rng(seed ^ 0x1A7);
    let inputs = (0..INPUT_POOL)
        .map(|_| sparse_input(9216, ALEXNET_DENSITY, &mut rng))
        .collect();
    Workload {
        name: "fc_alexnet",
        models: vec![Served {
            id: "fc_alexnet".to_string(),
            whole_snapshot: snapshot.clone(),
            snapshot,
            inputs,
            weight: 1.0,
            is_mlp: true,
        }],
        residency: ResidencyMode::Whole,
        budget_bytes: u64::MAX,
        rate_per_s: 25.0,
        limit_ms: 60.0,
        sat_round: 96,
        lat_round: 60,
        seed,
    }
}

/// `dim` values with exactly `round(density·dim)` nonzeros in U(0, 1) at
/// seeded positions (post-ReLU activations).
fn sparse_input(dim: usize, density: f64, rng: &mut ChaCha20Rng) -> Vec<f32> {
    let nnz = (density * dim as f64).round() as usize;
    let mut idx: Vec<usize> = (0..dim).collect();
    let mut x = vec![0.0f32; dim];
    for i in 0..nnz {
        let j = rng.gen_range(i..dim);
        idx.swap(i, j);
        x[idx[i]] = rng.gen_range(0.0f32..1.0);
    }
    x
}

/// A generated model in its concrete type (snapshots need it).
enum Model {
    Mlp(MlpClassifier),
    Conv(FrozenConvNet),
}

impl Model {
    fn save(&self) -> Vec<u8> {
        match self {
            Model::Mlp(m) => m.save(),
            Model::Conv(c) => c.save(),
        }
        .expect("frozen models snapshot")
    }

    fn into_batch_model(self) -> Arc<dyn BatchModel> {
        match self {
            Model::Mlp(m) => Arc::new(m),
            Model::Conv(c) => Arc::new(c),
        }
    }
}

/// Zipf-mix model `m`.
fn zipf_model(seed: u64, m: usize) -> Model {
    let mut rng = seeded_rng(seed ^ (0x21F0 + m as u64));
    let mlp = |format, rng: &mut ChaCha20Rng| {
        MlpClassifier::new_frozen(ZIPF_IN, &ZIPF_HIDDEN, ZIPF_CLASSES, format, rng)
    };
    Model::Mlp(match ZIPF_IDS[m] {
        "pd8" => mlp(WeightFormat::PermutedDiagonal { p: 8 }, &mut rng),
        "pdq16" => {
            let f32_model = mlp(WeightFormat::PermutedDiagonal { p: 8 }, &mut rng);
            let calibration: Vec<Vec<f32>> =
                (0..32).map(|_| dense_input(ZIPF_IN, &mut rng)).collect();
            f32_model.quantize(&calibration).0
        }
        "circ8" => mlp(WeightFormat::Circulant { k: 8 }, &mut rng),
        "csc8" => mlp(WeightFormat::UnstructuredSparse { p: 8 }, &mut rng),
        "spd8" => mlp(
            WeightFormat::SharedPermutedDiagonal { p: 8, tag_bits: 4 },
            &mut rng,
        ),
        "eie8" => mlp(WeightFormat::EieEncoded { p: 8 }, &mut rng),
        "conv" => {
            // 2 × 16 × 16 images flatten to the mix's 512-wide input.
            let net = ConvClassifier::new(
                16,
                2,
                [16, 32],
                ZIPF_CLASSES,
                WeightFormat::PermutedDiagonal { p: 2 },
                &mut rng,
            )
            .expect("PD conv layers are supported");
            return Model::Conv(net.freeze());
        }
        _ => mlp(WeightFormat::Dense, &mut rng),
    })
}

fn dense_input(dim: usize, rng: &mut ChaCha20Rng) -> Vec<f32> {
    (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
}

fn zipf(seed: u64, residency: ResidencyMode) -> Workload {
    let rank = |m: usize| match residency {
        ResidencyMode::Whole => m,
        ResidencyMode::Paged => PAGED_ORDER
            .iter()
            .position(|id| *id == ZIPF_IDS[m])
            .expect("PAGED_ORDER lists every model"),
    };
    let mut rng = seeded_rng(seed ^ 0x2199);
    let models: Vec<Served> = (0..ZIPF_IDS.len())
        .map(|m| {
            let model = zipf_model(seed, m);
            let is_mlp = matches!(model, Model::Mlp(_));
            let whole = model.save();
            let snapshot = if residency == ResidencyMode::Paged && is_mlp {
                block_stream_snapshot(&whole).expect("MLP snapshots block-stream")
            } else {
                whole.clone()
            };
            Served {
                id: ZIPF_IDS[m].to_string(),
                snapshot,
                whole_snapshot: whole,
                inputs: (0..INPUT_POOL)
                    .map(|_| dense_input(ZIPF_IN, &mut rng))
                    .collect(),
                weight: 1.0 / ((rank(m) + 1) as f64).powf(ZIPF_SKEW),
                is_mlp,
            }
        })
        .collect();
    let total: u64 = models.iter().map(|m| m.whole_snapshot.len() as u64).sum();
    let largest: u64 = models
        .iter()
        .map(|m| m.whole_snapshot.len() as u64)
        .max()
        .unwrap_or(0);
    // (name, budget, offered rate, latency limit, saturated and latency
    // round sizes). Whole: a budget just below the working set, so the cold
    // tail is evicted and reloaded. Paged: half the largest model, so nearly
    // every batch faults blocks in (at 90% of it, about half the requests
    // still hit resident blocks and the median flipped between the two) —
    // and the rate is lower to match.
    let (name, budget_bytes, rate_per_s, limit_ms, sat_round, lat_round) = match residency {
        ResidencyMode::Whole => ("zipf_whole", total - 16_384, 150.0, 25.0, 1000, 240),
        ResidencyMode::Paged => ("zipf_paged", largest / 2, 10.0, 100.0, 160, 40),
    };
    Workload {
        name,
        models,
        residency,
        budget_bytes,
        rate_per_s,
        limit_ms,
        sat_round,
        lat_round,
        seed,
    }
}
