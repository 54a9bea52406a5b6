//! Bit-identity suite for the wall-clock kernel pass.
//!
//! The optimisation pass (precomputed FFT plans + cached weight spectra,
//! scratch arenas through the matvec/matmul hot path, lane-tiled and
//! cache-blocked batched kernels, the unrolled i16 column-sparse inner loop)
//! is a reordering of memory traffic only — every float and every integer
//! operation happens in the same order as before. This suite pins that down:
//!
//! 1. `FftPlan` transforms are bitwise identical to the freestanding
//!    `fft_in_place` / `ifft_in_place` / `fft_real` they replace.
//! 2. The cached-spectra circulant matvec equals the retained per-call FFT
//!    path exactly, including ragged (non-multiple-of-`k`) shapes, across
//!    repeated calls on one reused scratch.
//! 3. The streamed PD column kernel and the batched kernels equal the
//!    reference traversal exactly.
//! 4. The unrolled flat-accumulator i16 kernel equals the boxed-accumulator
//!    reference exactly — outputs *and* datapath counters.
//! 5. The arena-backed executor stays bit-identical to sequential execution
//!    for every registry format, worker count, and across repeated calls
//!    (arena reuse must not leak state between calls).
//! 6. The serving loops (`serve`, `ModelRegistry::serve_traffic`), which now
//!    reuse one output matrix across batches and models, still produce the
//!    exact per-request outputs of the sequential operator.
//! 7. The lane-tiled batched kernels (PD over column-ordered weights, dense
//!    over register tiles) equal their per-row oracles at every lane width
//!    and ragged chunk, on awkward shapes, on PD inputs full of zeros,
//!    `-0.0`, `NaN` and `inf`, on a reused scratch and on every worker count.
//! 8. The column-ordered PD weights follow every mutation of the stored
//!    values, including a training step.

use std::sync::Arc;

use permdnn::circulant::fft::{fft_in_place, fft_real, ifft_in_place};
use permdnn::circulant::{BlockCirculantMatrix, CirculantScratch, Complex, FftPlan};
use permdnn::core::format::{BatchView, CompressedLinear};
use permdnn::core::qlinear::{QKernelStats, QScheme, QScratch, QuantizedLinear};
use permdnn::core::snapshot::{load_tensor, save_tensor, SnapshotCodec};
use permdnn::core::{BlockPermDiagMatrix, Scratch};
use permdnn::nn::layers::{PdDense, WeightFormat};
use permdnn::nn::Layer;
use permdnn::runtime::{
    seeded_request_stream, serve, AdmissionPolicy, BatchConfig, BatchModel, ModelLoader,
    ModelRegistry, ParallelExecutor, ServeConfig, ServiceModel, SingleLayerModel, SloTarget,
    TrafficConfig, UniformProcess,
};
use permdnn::tensor::init::{seeded_rng, xavier_uniform};
use permdnn::tensor::Matrix;
use proptest::prelude::*;
use rand::Rng;

const WORKER_COUNTS: [usize; 4] = [1, 2, 3, 7];

fn complex_signal(n: usize, seed: u64) -> Vec<Complex> {
    let m = xavier_uniform(&mut seeded_rng(seed), 2, n.max(1));
    (0..n)
        .map(|i| Complex::new(m[(0, i)] as f64, m[(1, i)] as f64))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // 1. FftPlan vs the freestanding transforms, bitwise.
    #[test]
    fn prop_fft_plan_matches_freestanding_transforms(exp in 0u32..=7, seed in 0u64..500) {
        let n = 1usize << exp;
        let plan = FftPlan::new(n);
        let signal = complex_signal(n, seed);

        let mut planned = signal.clone();
        plan.forward_in_place(&mut planned);
        let mut free = signal.clone();
        fft_in_place(&mut free);
        prop_assert_eq!(&planned, &free, "forward transform differs at n = {}", n);

        plan.inverse_in_place(&mut planned);
        ifft_in_place(&mut free);
        prop_assert_eq!(&planned, &free, "inverse transform differs at n = {}", n);

        // Real-input path: forward_real_padded vs fft_real on the zero-padded
        // signal, writing into a deliberately dirty output buffer.
        let real_len = (seed as usize % n.max(1)).max(1).min(n);
        let reals: Vec<f32> = (0..real_len).map(|i| signal[i].re as f32).collect();
        let mut padded: Vec<Complex> = reals.iter().map(|&r| Complex::from_real(f64::from(r))).collect();
        padded.resize(n, Complex::default());
        let expected = fft_real(&padded.iter().map(|c| c.re as f32).collect::<Vec<_>>());
        let mut out = vec![Complex::new(7.5, -3.25); n];
        plan.forward_real_padded(&reals, &mut out);
        prop_assert_eq!(&out, &expected, "real-padded transform differs at n = {}", n);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    // 2. Cached-spectra circulant matvec vs the per-call FFT path, with one
    // scratch reused across every call (state must not leak between inputs).
    #[test]
    fn prop_circulant_cached_fft_matches_percall(
        (rows, cols, kexp, seed) in (1usize..=40, 1usize..=40, 1u32..=3, 0u64..300)
    ) {
        let k = 1usize << kexp;
        let w = BlockCirculantMatrix::random_any_size(rows, cols, k, &mut seeded_rng(seed));
        let mut scratch = CirculantScratch::default();
        let mut y = vec![0.0f32; rows];
        for trial in 0..3u64 {
            let x_mat = xavier_uniform(&mut seeded_rng(seed ^ (trial + 1)), 1, cols);
            let x = x_mat.row(0);
            w.matvec_fft_into(x, &mut y, &mut scratch).unwrap();
            let y_percall = w.matvec_fft_percall(x).unwrap();
            prop_assert_eq!(&y, &y_percall, "{}x{} k={} trial {}", rows, cols, k, trial);
            // The direct kernel agrees to rounding (different op order), so
            // only sanity-check it here; exactness is FFT-vs-FFT.
            let y_direct = w.matvec_direct(x).unwrap();
            for (a, b) in y.iter().zip(y_direct.iter()) {
                prop_assert!((a - b).abs() <= 1e-3 * (1.0 + b.abs()));
            }
        }
    }

    // 3. Streamed PD column kernel + blocked batched kernel vs the reference
    // traversal, bitwise.
    #[test]
    fn prop_pd_kernels_match_reference(
        (rb, cb, p, batch, seed) in (1usize..=8, 1usize..=8, 2usize..=5, 1usize..=9, 0u64..300)
    ) {
        let (rows, cols) = (rb * p, cb * p);
        let w = BlockPermDiagMatrix::random(rows, cols, p, &mut seeded_rng(seed));
        let xs_mat = xavier_uniform(&mut seeded_rng(seed ^ 0xabc), batch, cols);
        let xs = BatchView::from_matrix(&xs_mat);

        let mut y_ref = vec![0.0f32; rows];
        let mut y = vec![0.0f32; rows];
        for i in 0..batch {
            w.matvec_reference(xs.row(i), &mut y_ref);
            w.matvec_into(xs.row(i), &mut y).unwrap();
            prop_assert_eq!(&y, &y_ref, "matvec row {}", i);
        }

        let mut out = vec![f32::NAN; batch * rows];
        w.matmul_into(&xs, &mut out, &mut Scratch::new()).unwrap();
        for (i, out_row) in out.chunks(rows).enumerate() {
            w.matvec_reference(xs.row(i), &mut y_ref);
            prop_assert_eq!(out_row, &y_ref[..], "blocked matmul row {}", i);
        }
    }

    // 4. Unrolled i16 column-sparse kernel vs the boxed-accumulator
    // reference: outputs and datapath counters, with one QScratch reused.
    #[test]
    fn prop_q16_scratch_matches_reference_with_stats(
        (rb, cb, p, batch, seed) in (1usize..=6, 1usize..=6, 2usize..=5, 1usize..=7, 0u64..300)
    ) {
        let (rows, cols) = (rb * p, cb * p);
        let op: Arc<dyn CompressedLinear> =
            Arc::new(BlockPermDiagMatrix::random(rows, cols, p, &mut seeded_rng(seed)));
        let q = QuantizedLinear::from_op(
            Arc::clone(&op),
            QScheme::calibrate(1.0, op.max_weight_abs(), 8.0),
        );
        prop_assert!(q.has_integer_kernel());

        let xs_mat = xavier_uniform(&mut seeded_rng(seed ^ 0x51), batch, cols);
        let mut scratch = QScratch::default();
        let mut y = vec![0i16; rows];
        let mut y_ref = vec![0i16; rows];
        for i in 0..batch {
            let x_raw = q.quantize_input(xs_mat.row(i));
            let stats = q.matvec_q_scratch(&x_raw, &mut y, &mut scratch).unwrap();
            let stats_ref = q.matvec_q_reference(&x_raw, &mut y_ref).unwrap();
            prop_assert_eq!(&y, &y_ref, "outputs row {}", i);
            prop_assert_eq!(stats, stats_ref, "counters row {}", i);
        }
    }
}

/// Every registry format at the given shape (dimensions multiples of 4 so the
/// structured formats get whole blocks).
fn registry_formats() -> [WeightFormat; 6] {
    [
        WeightFormat::Dense,
        WeightFormat::PermutedDiagonal { p: 4 },
        WeightFormat::Circulant { k: 4 },
        WeightFormat::Circulant { k: 3 }, // non-2ᵗ: direct-kernel fallback
        WeightFormat::UnstructuredSparse { p: 4 },
        WeightFormat::SharedPermutedDiagonal { p: 4, tag_bits: 4 },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // 5. Arena-backed executor vs sequential, every format x worker count,
    // repeated calls on one executor and one reused output matrix.
    #[test]
    fn prop_executor_arenas_stay_bit_identical_across_repeated_calls(
        (rows4, cols4, batch, seed) in (1usize..=8, 1usize..=8, 1usize..=13, 0u64..300)
    ) {
        let (rows, cols) = (rows4 * 4, cols4 * 4);
        let mut rng = seeded_rng(seed);
        for format in registry_formats() {
            let op: Arc<dyn CompressedLinear> = Arc::from(format.build(rows, cols, &mut rng));
            for workers in WORKER_COUNTS {
                let exec = ParallelExecutor::new(workers);
                let mut out = permdnn::tensor::Matrix::zeros(0, 0);
                for trial in 0..3u64 {
                    // A different batch each call: a stale arena buffer from
                    // the previous (larger or smaller) call must not show.
                    let b = 1 + ((batch + trial as usize) % 13);
                    let xs_mat = xavier_uniform(&mut seeded_rng(seed ^ (trial + 9)), b, cols);
                    let xs = BatchView::from_matrix(&xs_mat);
                    let sequential = op.matmul(&xs).unwrap();
                    exec.matmul_into(&op, &xs, &mut out).unwrap();
                    prop_assert_eq!(
                        &out,
                        &sequential,
                        "{} workers={} trial {}",
                        format.label(),
                        workers,
                        trial
                    );
                }
            }
        }
    }

    // 5b. Integer path: executor matmul_q vs sequential matmul_q, repeated.
    #[test]
    fn prop_executor_integer_path_matches_sequential(
        (rb, cb, batch, seed) in (1usize..=6, 1usize..=6, 1usize..=9, 0u64..300)
    ) {
        let (rows, cols) = (rb * 4, cb * 4);
        let op: Arc<dyn CompressedLinear> =
            Arc::new(BlockPermDiagMatrix::random(rows, cols, 4, &mut seeded_rng(seed)));
        let q = Arc::new(QuantizedLinear::from_op(
            Arc::clone(&op),
            QScheme::calibrate(1.0, op.max_weight_abs(), 8.0),
        ));
        for workers in WORKER_COUNTS {
            let exec = ParallelExecutor::new(workers);
            for trial in 0..3u64 {
                let b = 1 + ((batch + trial as usize) % 9);
                let xs_mat = xavier_uniform(&mut seeded_rng(seed ^ (trial + 3)), b, cols);
                let mut xs_raw = Vec::with_capacity(b * cols);
                for i in 0..b {
                    xs_raw.extend(q.quantize_input(xs_mat.row(i)));
                }
                let sequential = q.matmul_q(&xs_raw, b).unwrap();
                let parallel = exec.matmul_q(&q, &xs_raw, b).unwrap();
                prop_assert_eq!(&parallel, &sequential, "workers={} trial {}", workers, trial);
            }
        }
    }
}

// 6a. The serve loop's reused output matrix: every completed request's output
// equals the sequential operator applied to that request's input.
#[test]
fn serve_loop_outputs_equal_sequential_operator() {
    let dim = 24;
    let op: Arc<dyn CompressedLinear> = Arc::new(BlockPermDiagMatrix::random(
        dim,
        dim,
        4,
        &mut seeded_rng(0xE0),
    ));
    let model = SingleLayerModel::new(Arc::clone(&op));
    let cfg = ServeConfig {
        batching: BatchConfig::new(5, 3),
        service: ServiceModel::default(),
    };
    let requests = seeded_request_stream(41, 64, dim, 2.0);
    let by_id: std::collections::BTreeMap<u64, Vec<f32>> =
        requests.iter().map(|r| (r.id, r.input.clone())).collect();

    for workers in WORKER_COUNTS {
        let exec = ParallelExecutor::new(workers);
        let report = serve(&model, &exec, &cfg, requests.clone()).unwrap();
        assert_eq!(report.completed.len(), 64);
        for c in &report.completed {
            let expected = op.matvec(&by_id[&c.id]).unwrap();
            assert_eq!(c.output, expected, "request {} workers {}", c.id, workers);
        }
    }
}

// 6a'. Mixed-format model (the autotuner's output shape): one executor's
// arenas and one reused output matrix carry state across layers whose
// formats differ — PD scratch, EIE run-decoding, shared-PD tag lookups and
// the dense head must not leak into each other across repeated calls.
#[test]
fn mixed_format_model_stays_bit_identical_under_arena_reuse() {
    let model = permdnn::nn::MlpClassifier::new_frozen_mixed(
        16,
        &[
            (24, WeightFormat::PermutedDiagonal { p: 4 }),
            (16, WeightFormat::Circulant { k: 4 }),
            (12, WeightFormat::UnstructuredSparse { p: 4 }),
        ],
        4,
        &mut seeded_rng(0xA11),
    );
    // Repeated varying-size batches through ONE executor per worker count.
    for workers in WORKER_COUNTS {
        let exec = ParallelExecutor::new(workers);
        for trial in 0..4u64 {
            let b = 1 + ((3 * trial as usize) % 7);
            let xs_mat = xavier_uniform(&mut seeded_rng(0xA12 + trial), b, 16);
            let xs = BatchView::from_matrix(&xs_mat);
            let got = model.forward_batch(&xs, &exec).unwrap();
            let want = model
                .forward_batch(&xs, &ParallelExecutor::sequential())
                .unwrap();
            assert_eq!(got, want, "workers {workers} trial {trial}");
        }
    }
    // And through the serve loop's reused output matrix.
    let cfg = ServeConfig {
        batching: BatchConfig::new(5, 3),
        service: ServiceModel::default(),
    };
    let requests = seeded_request_stream(0xA13, 32, 16, 2.0);
    for workers in WORKER_COUNTS {
        let report = serve(
            &model,
            &ParallelExecutor::new(workers),
            &cfg,
            requests.clone(),
        )
        .unwrap();
        assert_eq!(report.completed.len(), 32);
        for c in &report.completed {
            let expected = model.logits(&requests[c.id as usize].input);
            assert_eq!(c.output, expected, "request {} workers {}", c.id, workers);
        }
    }
}

// 6b. serve_traffic through the registry, two models with *different* output
// widths sharing the reused matrix: outputs must be bit-identical across
// worker counts and across repeated runs.
#[test]
fn serve_traffic_outputs_identical_across_workers_with_reused_buffers() {
    fn loader() -> ModelLoader {
        Box::new(|bytes| {
            let op = load_tensor(bytes, &SnapshotCodec::new())?;
            Ok(Arc::new(SingleLayerModel::new(op)) as Arc<dyn BatchModel>)
        })
    }
    fn build() -> ModelRegistry {
        let mut reg = ModelRegistry::new(loader(), u64::MAX);
        let small = BlockPermDiagMatrix::random(16, 16, 4, &mut seeded_rng(0xA1));
        let large = BlockPermDiagMatrix::random(48, 48, 4, &mut seeded_rng(0xA2));
        reg.insert_with_slo(
            "small",
            save_tensor(&small).unwrap(),
            SloTarget::new(500, 5, 16).unwrap(),
        )
        .unwrap();
        reg.insert_with_slo(
            "large",
            save_tensor(&large).unwrap(),
            SloTarget::new(2_000, 2, 32).unwrap(),
        )
        .unwrap();
        reg
    }
    let stream = permdnn::runtime::interleave_streams(vec![
        (
            "small".to_string(),
            UniformProcess::new(16, 3.0).unwrap().stream(0xD2, 40),
        ),
        (
            "large".to_string(),
            UniformProcess::new(48, 5.0).unwrap().stream(0xD3, 24),
        ),
    ]);
    let cfg = TrafficConfig::new(
        ServeConfig {
            batching: BatchConfig::new(8, 4),
            service: ServiceModel::default(),
        },
        AdmissionPolicy::Fifo,
    );

    let run = |workers: usize| {
        build()
            .serve_traffic(&ParallelExecutor::new(workers), &cfg, stream.clone())
            .unwrap()
    };
    let baseline = run(1);
    assert_eq!(baseline, run(1), "same seed must replay bit-identically");
    let outputs = |r: &permdnn::runtime::TrafficReport| -> Vec<(String, u64, Vec<f32>)> {
        r.serve
            .completed
            .iter()
            .map(|c| {
                (
                    c.model_id.clone(),
                    c.completed.id,
                    c.completed.output.clone(),
                )
            })
            .collect()
    };
    for workers in &WORKER_COUNTS[1..] {
        assert_eq!(
            outputs(&run(*workers)),
            outputs(&baseline),
            "{workers} workers changed a served bit"
        );
    }
    // And every single output equals the sequential operator.
    let small = BlockPermDiagMatrix::random(16, 16, 4, &mut seeded_rng(0xA1));
    let large = BlockPermDiagMatrix::random(48, 48, 4, &mut seeded_rng(0xA2));
    let by_id: std::collections::BTreeMap<(String, u64), Vec<f32>> = stream
        .iter()
        .map(|r| ((r.model_id.clone(), r.request.id), r.request.input.clone()))
        .collect();
    for c in &baseline.serve.completed {
        let input = &by_id[&(c.model_id.clone(), c.completed.id)];
        let expected = match c.model_id.as_str() {
            "small" => small.matvec(input),
            _ => large.matvec(input),
        };
        assert_eq!(
            c.completed.output, expected,
            "{}/{}",
            c.model_id, c.completed.id
        );
    }
}

// The merged counters from the sharded integer path are pure sums: check the
// degenerate single-row batch on many workers, where most shards are empty.
#[test]
fn executor_integer_stats_are_exact_on_tiny_batches() {
    let op: Arc<dyn CompressedLinear> =
        Arc::new(BlockPermDiagMatrix::random(12, 12, 4, &mut seeded_rng(77)));
    let q = Arc::new(QuantizedLinear::from_op(
        Arc::clone(&op),
        QScheme::calibrate(1.0, op.max_weight_abs(), 8.0),
    ));
    let x_raw = q.quantize_input(&[0.5f32; 12]);
    let (y_seq, stats_seq) = q.matmul_q(&x_raw, 1).unwrap();
    let exec = ParallelExecutor::new(8);
    let (y_par, stats_par) = exec.matmul_q(&q, &x_raw, 1).unwrap();
    assert_eq!(y_par, y_seq);
    assert_eq!(stats_par, stats_seq);
    assert_ne!(
        stats_seq,
        QKernelStats::default(),
        "the kernel did real work"
    );
}

/// Whether `a` and `b` carry the same bits, except that any NaN matches any
/// NaN: IEEE 754 leaves the payload of a NaN result to the hardware.
fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()))
}

/// A `batch × dim` input about 60% exact zeros. With `non_finite` a few of
/// the rest are `-0.0`, `NaN` and `±inf`.
fn sparse_inputs(batch: usize, dim: usize, non_finite: bool, seed: u64) -> Matrix {
    let mut rng = seeded_rng(seed);
    Matrix::from_fn(batch, dim, |_, _| match rng.gen_range(0..100) {
        0..=59 => 0.0,
        60..=63 if non_finite => -0.0,
        64 if non_finite => f32::NAN,
        65 if non_finite => f32::INFINITY,
        66 if non_finite => f32::NEG_INFINITY,
        _ => rng.gen_range(-1.0f32..1.0),
    })
}

/// Checks `op`'s batched kernel against `oracle` (one input row in, one
/// output row out) on the first `b` rows of `xs_mat` for several `b`, all on
/// one reused `Scratch`, then through `ParallelExecutor` on every worker
/// count.
fn assert_batched_matches_oracle(
    op: &Arc<dyn CompressedLinear>,
    xs_mat: &Matrix,
    oracle: impl Fn(&[f32]) -> Vec<f32>,
) {
    let (batch, dim) = xs_mat.shape();
    let m = op.out_dim();
    let want: Vec<Vec<f32>> = (0..batch).map(|i| oracle(xs_mat.row(i))).collect();
    let mut scratch = Scratch::new();
    for b in [batch, 1 + batch / 2, batch] {
        let xs = BatchView::new(&xs_mat.as_slice()[..b * dim], b, dim).unwrap();
        let mut out = vec![f32::NAN; b * m];
        op.matmul_into(&xs, &mut out, &mut scratch).unwrap();
        for (i, row) in out.chunks(m).enumerate() {
            assert!(
                same_bits(row, &want[i]),
                "{} batch {b} row {i}: {row:?} != {:?}",
                op.label(),
                want[i]
            );
        }
    }
    let xs = BatchView::from_matrix(xs_mat);
    for workers in WORKER_COUNTS {
        let mut out = Matrix::zeros(0, 0);
        ParallelExecutor::new(workers)
            .matmul_into(op, &xs, &mut out)
            .unwrap();
        for (i, want) in want.iter().enumerate() {
            assert!(
                same_bits(out.row(i), want),
                "{} workers {workers} row {i}",
                op.label()
            );
        }
    }
}

fn pd_reference(w: &BlockPermDiagMatrix) -> impl Fn(&[f32]) -> Vec<f32> + '_ {
    |x| {
        let mut y = vec![0.0f32; w.rows()];
        w.matvec_reference(x, &mut y);
        y
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    // 7a. Lane-tiled PD kernel vs the reference: batches 1..=17 cover every
    // lane width and a ragged second chunk; rows % 8 != 0 and odd cols give
    // ragged blocks; the inputs carry zeros, -0.0, NaN and inf.
    #[test]
    fn prop_lane_tiled_pd_matches_reference_on_edge_inputs(
        (rows8, rows_rem, half_cols, p, batch, seed) in
            (0usize..=4, 1usize..=7, 0usize..=12, 2usize..=6, 1usize..=17, 0u64..300)
    ) {
        let (rows, cols) = (8 * rows8 + rows_rem, 2 * half_cols + 1);
        let w = BlockPermDiagMatrix::random(rows, cols, p, &mut seeded_rng(seed));
        let xs_mat = sparse_inputs(batch, cols, true, seed ^ 0x1A);
        let reference = pd_reference(&w);
        let mut y = vec![0.0f32; rows];
        for i in 0..batch {
            w.matvec_into(xs_mat.row(i), &mut y).unwrap();
            prop_assert!(same_bits(&y, &reference(xs_mat.row(i))), "matvec_into row {}", i);
        }
        let op: Arc<dyn CompressedLinear> = Arc::new(w.clone());
        assert_batched_matches_oracle(&op, &xs_mat, reference);
    }

    // 7b. Lane × row tiled dense kernel vs `Matrix::matvec`, same shapes.
    #[test]
    fn prop_lane_tiled_dense_matches_matvec(
        (rows8, rows_rem, half_cols, batch, seed) in
            (0usize..=4, 1usize..=7, 0usize..=12, 1usize..=17, 0u64..300)
    ) {
        let (rows, cols) = (8 * rows8 + rows_rem, 2 * half_cols + 1);
        let w = xavier_uniform(&mut seeded_rng(seed), rows, cols);
        let xs_mat = sparse_inputs(batch, cols, false, seed ^ 0x2B);
        for i in 0..batch {
            let y = CompressedLinear::matvec(&w, xs_mat.row(i)).unwrap();
            prop_assert!(same_bits(&y, &w.matvec(xs_mat.row(i))), "matvec_into row {}", i);
        }
        let op: Arc<dyn CompressedLinear> = Arc::new(w.clone());
        assert_batched_matches_oracle(&op, &xs_mat, |x| w.matvec(x));
    }
}

// 7c. An infinite weight facing a zero input in some lanes: the lanes whose
// input is zero (or -0.0) skip it and stay finite, exactly as the reference
// does; the others turn non-finite.
#[test]
fn pd_infinite_weight_is_skipped_on_zero_lanes() {
    let mut w = BlockPermDiagMatrix::random(13, 11, 4, &mut seeded_rng(0x1F));
    let (row, slot) = w.column_nonzeros(6).next().expect("column 6 has entries");
    w.values_mut()[slot] = f32::INFINITY;
    let xs_mat = Matrix::from_fn(11, 11, |b, k| match (k, b % 3) {
        (6, 0) => 0.0,
        (6, 1) => -0.0,
        _ => 0.5 + (b + k) as f32 / 16.0,
    });
    let op: Arc<dyn CompressedLinear> = Arc::new(w.clone());
    assert_batched_matches_oracle(&op, &xs_mat, pd_reference(&w));
    let out = op.matmul(&BatchView::from_matrix(&xs_mat)).unwrap();
    for b in 0..11 {
        assert_eq!(out[(b, row)].is_finite(), b % 3 != 2, "batch row {b}");
    }
}

// 8a. The column-ordered weights follow every kind of write through
// `values_mut()` and `map_values_in_place`.
#[test]
fn pd_kernels_follow_every_value_mutation() {
    let mut w = BlockPermDiagMatrix::random(21, 30, 4, &mut seeded_rng(0x5E));
    let xs_mat = xavier_uniform(&mut seeded_rng(0x5F), 9, 30);
    let check = |w: &BlockPermDiagMatrix, what: &str| -> Vec<f32> {
        let reference = pd_reference(w);
        let mut y = vec![0.0f32; 21];
        for i in 0..9 {
            w.matvec_into(xs_mat.row(i), &mut y).unwrap();
            assert!(
                same_bits(&y, &reference(xs_mat.row(i))),
                "{what}: matvec_into row {i}"
            );
        }
        let mut out = vec![0.0f32; 9 * 21];
        w.matmul_into(
            &BatchView::from_matrix(&xs_mat),
            &mut out,
            &mut Scratch::new(),
        )
        .unwrap();
        for (i, row) in out.chunks(21).enumerate() {
            assert!(
                same_bits(row, &reference(xs_mat.row(i))),
                "{what}: matmul_into row {i}"
            );
        }
        out
    };
    let fresh = check(&w, "fresh");
    w.values_mut()[5] += 0.75;
    assert_ne!(
        check(&w, "indexed +="),
        fresh,
        "slot 5 is a structural non-zero"
    );
    let scaled: Vec<f32> = w.values().iter().map(|v| v * -1.5).collect();
    w.values_mut().copy_from_slice(&scaled);
    check(&w, "copy_from_slice");
    for v in w.values_mut().iter_mut() {
        *v = *v * 0.5 + 0.25;
    }
    check(&w, "iter_mut");
    w.map_values_in_place(|v| (v * 8.0).round() / 8.0);
    check(&w, "map_values_in_place");
}

// 8b. A trainable PD layer after one SGD step forwards with the new weights:
// bit-identical to the dense expansion of those weights, applied the same way
// (product, then bias).
#[test]
fn trained_pd_layer_forward_uses_updated_weights() {
    let mut layer = PdDense::new(30, 21, 4, &mut seeded_rng(0x60));
    let x = xavier_uniform(&mut seeded_rng(0x61), 1, 30).row(0).to_vec();
    let before = layer.forward(&x);
    layer.forward_train(&x);
    layer.backward(&[1.0; 21]);
    layer.apply_gradients(0.1);
    let after = layer.forward(&x);
    assert_ne!(after, before, "the step moved the weights");
    let mut expected = layer.weights().to_dense().matvec(&x);
    for (y, b) in expected.iter_mut().zip(layer.bias()) {
        *y += b;
    }
    assert!(same_bits(&after, &expected), "{after:?} != {expected:?}");
}
