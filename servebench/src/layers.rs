//! The traced run's post-pass: replays recorded batches layer by layer
//! through each frozen layer's public batch call, on the serving executor
//! and on `ParallelExecutor::sequential()`, and checks the chained result is
//! bit-identical to what the registry served.

use std::collections::BTreeMap;
use std::time::Instant;

use pd_tensor::Matrix;
use permdnn_core::format::{BatchView, CompressedLinear};
use permdnn_nn::layers::CompressedFc;
use permdnn_nn::MlpClassifier;
use permdnn_runtime::ParallelExecutor;

/// Timed repetitions of each recorded batch.
const REPS: usize = 3;

/// A batch exactly as the registry executed it.
pub struct RecordedBatch {
    pub model: usize,
    pub inputs: Vec<Vec<f32>>,
    pub outputs: Vec<Vec<f32>>,
}

/// Timings of one layer across its calls.
#[derive(Debug, Default)]
pub struct LayerTimes {
    /// Wall µs per call on the serving executor.
    pub us: Vec<f64>,
    /// Wall µs per call on the sequential executor (weight layers only).
    pub seq_us: Vec<f64>,
    /// Executed MACs per call (skipped input zeros excluded).
    pub macs: Vec<f64>,
    /// Stored weight bytes ÷ 1e6, computed from tensor sizes.
    pub weight_mb: f64,
}

/// What the post-pass measured.
#[derive(Debug, Default)]
pub struct Pass {
    /// Keyed `<model>.<layer>`: weight layers `fc0, fc1, …`, activations
    /// summed under `act`.
    pub layers: BTreeMap<String, LayerTimes>,
    /// Whole-model µs per call, keyed by model id.
    pub model_us: BTreeMap<String, Vec<f64>>,
    /// (model span − Σ layer spans) ÷ model span, per call.
    pub chain_overhead: Vec<f64>,
    /// Parallel µs − sequential µs ÷ workers, per weight-layer call.
    pub exec_overhead_us: Vec<f64>,
    /// Batches checked and those whose outputs differed anywhere.
    pub checked: usize,
    pub mismatched: usize,
}

/// Replays `batches` of the MLP models whose plain snapshots are given
/// (`None` for models without a layer chain).
pub fn replay(
    ids: &[String],
    snapshots: &[Option<&[u8]>],
    batches: &[RecordedBatch],
    exec: &ParallelExecutor,
    seq: &ParallelExecutor,
) -> Pass {
    let mut pass = Pass::default();
    let models: Vec<Option<MlpClassifier>> = snapshots
        .iter()
        .map(|s| s.map(|b| MlpClassifier::load(b).expect("served snapshots load")))
        .collect();
    for batch in batches {
        let Some(mlp) = &models[batch.model] else {
            continue;
        };
        let id = &ids[batch.model];
        let flat: Vec<f32> = batch.inputs.concat();
        let view = BatchView::new(&flat, batch.inputs.len(), mlp.input_dim())
            .expect("recorded inputs match the model");
        let mut identical = true;
        for _ in 0..REPS {
            let t = Instant::now();
            let whole = mlp
                .forward_batch_parallel(&view, exec)
                .expect("recorded inputs match the model");
            let model_us = micros(t);
            let (chained, layers_us) = chain(&mut pass, id, mlp, &view, exec, seq, &mut identical);
            pass.model_us.entry(id.clone()).or_default().push(model_us);
            pass.chain_overhead.push((model_us - layers_us) / model_us);
            identical &= bits(whole.as_slice()) == bits(chained.as_slice())
                && batch
                    .outputs
                    .iter()
                    .enumerate()
                    .all(|(i, o)| bits(o) == bits(chained.row(i)));
        }
        pass.checked += 1;
        if !identical {
            eprintln!(
                "post-pass: {id} batch of {} differs from the served output",
                batch.inputs.len()
            );
            pass.mismatched += 1;
        }
    }
    pass
}

/// Runs the layer chain the way `MlpClassifier` does, timing each layer;
/// returns the output and Σ layer µs.
fn chain(
    pass: &mut Pass,
    id: &str,
    mlp: &MlpClassifier,
    xs: &BatchView<'_>,
    exec: &ParallelExecutor,
    seq: &ParallelExecutor,
    identical: &mut bool,
) -> (Matrix, f64) {
    let mut current: Option<Matrix> = None;
    let mut total_us = 0.0;
    let mut act_us = 0.0;
    let mut fc = 0;
    for layer in mlp.layers() {
        let view = current.as_ref().map_or(*xs, BatchView::from_matrix);
        let t = Instant::now();
        let out = if let Some(f) = layer.as_any().downcast_ref::<CompressedFc>() {
            let out = f
                .forward_batch_parallel(&view, exec)
                .expect("layer widths chain");
            let us = micros(t);
            let t = Instant::now();
            let seq_out = f
                .forward_batch_parallel(&view, seq)
                .expect("layer widths chain");
            let seq_us = micros(t);
            *identical &= bits(seq_out.as_slice()) == bits(out.as_slice());
            let times = pass.layers.entry(format!("{id}.fc{fc}")).or_default();
            times.us.push(us);
            times.seq_us.push(seq_us);
            times.macs.push(executed_macs(f.weights(), &view));
            times.weight_mb = f.weights().stored_weights() as f64 * 4.0 / 1e6;
            pass.exec_overhead_us
                .push(us - seq_us / exec.workers() as f64);
            fc += 1;
            total_us += us;
            out
        } else {
            let mut out = Matrix::zeros(view.batch(), layer.output_dim());
            for i in 0..view.batch() {
                out.row_mut(i).copy_from_slice(&layer.forward(view.row(i)));
            }
            let us = micros(t);
            act_us += us;
            total_us += us;
            out
        };
        current = Some(out);
    }
    pass.layers
        .entry(format!("{id}.act"))
        .or_default()
        .us
        .push(act_us);
    (current.expect("an MLP has layers"), total_us)
}

fn micros(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// MACs the layer executes on `xs`: formats that skip zero inputs do
/// `mul_count × nnz / in_dim` per row, the others `mul_count`.
fn executed_macs(op: &dyn CompressedLinear, xs: &BatchView<'_>) -> f64 {
    let per_row = op.mul_count() as f64;
    (0..xs.batch())
        .map(|i| {
            if op.exploits_input_sparsity() {
                let nnz = xs.row(i).iter().filter(|v| **v != 0.0).count();
                per_row * nnz as f64 / op.in_dim() as f64
            } else {
                per_row
            }
        })
        .sum()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}
