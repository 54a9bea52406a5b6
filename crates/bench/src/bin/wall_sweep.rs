//! Wall-clock kernel sweep: the optimised serving kernels against the
//! retained per-call baselines, on real hardware time.
//!
//! Four workloads, one per optimised kernel family:
//!
//! * **circulant** — [`BlockCirculantMatrix::matvec_fft_into`] (precomputed
//!   `FftPlan` + cached weight spectra + reusable scratch) vs
//!   [`BlockCirculantMatrix::matvec_fft_percall`] (the old body: per-call
//!   twiddle recomputation and weight-row FFTs, fresh allocations).
//! * **pd_f32** — the lane-tiled, arena-backed batched
//!   [`CompressedLinear::matmul_into`] on a permuted-diagonal matrix
//!   (column-ordered weights, eight batch rows per pass) vs a per-row loop
//!   over [`BlockPermDiagMatrix::matvec_reference`] (the iterator-based
//!   column traversal with a fresh output per call).
//! * **dense_f32** — the lane × row tiled batched
//!   [`CompressedLinear::matmul_into`] on a dense matrix vs a per-row loop
//!   over [`Matrix::matvec`] (one serial dot product per output).
//! * **q16_column_sparse** — the unrolled flat-accumulator
//!   [`QuantizedLinear::matmul_q_into`] vs a per-row loop over
//!   [`QuantizedLinear::matvec_q_reference`] (boxed `Accumulator24`s
//!   allocated per call).
//!
//! Every pair is asserted **bit-identical** before timing — the optimised
//! kernels are reorderings of memory traffic, never of arithmetic — and the
//! binary then asserts the committed speedup floors (circulant ≥ 3x, dense
//! f32 ≥ 2x, PD f32 and i16 ≥ 1.2x). Unlike the tick-modeled sweeps,
//! these numbers are machine-dependent; the floors are chosen to hold on any
//! release build. Results land in `BENCH_wall.json` (override with
//! `--out PATH`).
//!
//! Run: `cargo run --release -p permdnn-bench --bin wall_sweep [-- --full]`

use std::fmt::Write as _;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use pd_tensor::init::seeded_rng;
use pd_tensor::Matrix;
use permdnn_bench::{
    assert_floor, full_run_requested, out_path, print_header, ratio, write_artifact,
};
use permdnn_circulant::{BlockCirculantMatrix, CirculantScratch};
use permdnn_core::format::{BatchView, CompressedLinear};
use permdnn_core::qlinear::{QScheme, QScratch, QuantizedLinear};
use permdnn_core::{BlockPermDiagMatrix, Scratch};

struct WallPoint {
    workload: &'static str,
    rows: usize,
    cols: usize,
    batch: usize,
    reps: usize,
    optimized_us: f64,
    reference_us: f64,
    speedup: f64,
    floor: f64,
}

/// Median wall time of `reps` runs of `f`, in microseconds. `f` runs once
/// untimed first (warm-up: populates scratch arenas and the cache).
fn median_us(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn main() {
    let full = full_run_requested();
    let out_path = out_path("BENCH_wall.json");
    let (n, batch, reps) = if full {
        (1024usize, 64usize, 31usize)
    } else {
        (512, 32, 15)
    };

    print_header("Wall-clock kernel sweep: optimised vs per-call baselines");
    println!("{n}x{n} operators, batch {batch}, median of {reps} timed passes\n");
    println!(
        "{:<22} {:>12} {:>12} {:>9}",
        "workload", "opt us", "ref us", "speedup"
    );

    let points = vec![
        circulant_point(n, batch, reps),
        pd_f32_point(n, batch, reps),
        dense_f32_point(n, batch, reps),
        q16_point(n, batch, reps),
    ];

    for p in &points {
        println!(
            "{:<22} {:>12.1} {:>12.1} {:>9}",
            p.workload,
            p.optimized_us,
            p.reference_us,
            ratio(p.speedup)
        );
    }

    println!();
    for p in &points {
        assert_floor(&format!("{} plan speedup", p.workload), p.speedup, p.floor);
        println!(
            "  {} >= {:.1}x floor: ok (outputs bit-identical)",
            p.workload, p.floor
        );
    }

    let json = render_json(&points);
    write_artifact(&out_path, &json);
}

/// Cached-spectra FFT path vs the per-call FFT path, one matvec per batch row.
fn circulant_point(n: usize, batch: usize, reps: usize) -> WallPoint {
    let k = 64;
    let w = BlockCirculantMatrix::random(n, n, k, &mut seeded_rng(11));
    let xs = inputs(n, batch, 12);

    // Bit-identity on every swept input before any timing.
    let mut scratch = CirculantScratch::default();
    let mut y = vec![0.0f32; n];
    for x in &xs {
        w.matvec_fft_into(x, &mut y, &mut scratch)
            .expect("power-of-two block size");
        let y_ref = w.matvec_fft_percall(x).expect("power-of-two block size");
        assert_eq!(y, y_ref, "circulant outputs must be bit-identical");
    }

    let optimized_us = median_us(reps, || {
        for x in &xs {
            w.matvec_fft_into(black_box(x), &mut y, &mut scratch)
                .expect("checked above");
        }
        black_box(&y);
    });
    let reference_us = median_us(reps, || {
        for x in &xs {
            black_box(w.matvec_fft_percall(black_box(x)).expect("checked above"));
        }
    });

    WallPoint {
        workload: "circulant_fft",
        rows: n,
        cols: n,
        batch,
        reps,
        optimized_us,
        reference_us,
        speedup: reference_us / optimized_us,
        floor: 3.0,
    }
}

/// Lane-tiled batched PD kernel vs a per-row reference-matvec loop.
fn pd_f32_point(n: usize, batch: usize, reps: usize) -> WallPoint {
    let p = 8;
    let w = BlockPermDiagMatrix::random(n, n, p, &mut seeded_rng(21));
    let xs_mat = batch_matrix(n, batch, 22);
    let xs = BatchView::from_matrix(&xs_mat);

    let mut scratch = Scratch::new();
    let mut out = vec![0.0f32; batch * n];
    w.matmul_into(&xs, &mut out, &mut scratch)
        .expect("dimensions match");
    let mut y_ref = vec![0.0f32; n];
    for (i, out_row) in out.chunks(n).enumerate() {
        w.matvec_reference(xs.row(i), &mut y_ref);
        assert_eq!(out_row, &y_ref[..], "PD f32 outputs must be bit-identical");
    }

    let optimized_us = median_us(reps, || {
        w.matmul_into(black_box(&xs), &mut out, &mut scratch)
            .expect("checked above");
        black_box(&out);
    });
    let reference_us = median_us(reps, || {
        for i in 0..batch {
            let mut y = vec![0.0f32; n];
            w.matvec_reference(black_box(xs.row(i)), &mut y);
            black_box(&y);
        }
    });

    WallPoint {
        workload: "pd_f32",
        rows: n,
        cols: n,
        batch,
        reps,
        optimized_us,
        reference_us,
        speedup: reference_us / optimized_us,
        floor: 1.2,
    }
}

/// Lane × row tiled batched dense kernel vs a per-row `Matrix::matvec` loop.
fn dense_f32_point(n: usize, batch: usize, reps: usize) -> WallPoint {
    let w = batch_matrix(n, n, 41);
    let xs_mat = batch_matrix(n, batch, 42);
    let xs = BatchView::from_matrix(&xs_mat);

    let mut scratch = Scratch::new();
    let mut out = vec![0.0f32; batch * n];
    w.matmul_into(&xs, &mut out, &mut scratch)
        .expect("dimensions match");
    for (i, out_row) in out.chunks(n).enumerate() {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(out_row),
            bits(&w.matvec(xs.row(i))),
            "dense f32 outputs must be bit-identical"
        );
    }

    let optimized_us = median_us(reps, || {
        w.matmul_into(black_box(&xs), &mut out, &mut scratch)
            .expect("checked above");
        black_box(&out);
    });
    let reference_us = median_us(reps, || {
        for i in 0..batch {
            black_box(w.matvec(black_box(xs.row(i))));
        }
    });

    WallPoint {
        workload: "dense_f32",
        rows: n,
        cols: n,
        batch,
        reps,
        optimized_us,
        reference_us,
        speedup: reference_us / optimized_us,
        floor: 2.0,
    }
}

/// Unrolled flat-accumulator i16 ColumnSparse kernel vs the boxed-accumulator
/// reference, including the datapath counters.
fn q16_point(n: usize, batch: usize, reps: usize) -> WallPoint {
    let p = 8;
    let op: Arc<dyn CompressedLinear> =
        Arc::new(BlockPermDiagMatrix::random(n, n, p, &mut seeded_rng(31)));
    let q = QuantizedLinear::from_op(
        Arc::clone(&op),
        QScheme::calibrate(1.0, op.max_weight_abs(), 8.0),
    );
    assert!(q.has_integer_kernel(), "PD quantizes to ColumnSparse");

    let xs_mat = batch_matrix(n, batch, 32);
    let mut xs_raw = Vec::with_capacity(batch * n);
    for i in 0..batch {
        xs_raw.extend(q.quantize_input(xs_mat.row(i)));
    }

    let mut scratch = QScratch::default();
    let mut out = vec![0i16; batch * n];
    let stats = q
        .matmul_q_into(&xs_raw, batch, &mut out, &mut scratch)
        .expect("dimensions match");
    let mut y_ref = vec![0i16; n];
    let mut stats_ref = permdnn_core::qlinear::QKernelStats::default();
    for (i, out_row) in out.chunks(n).enumerate() {
        let s = q
            .matvec_q_reference(&xs_raw[i * n..(i + 1) * n], &mut y_ref)
            .expect("dimensions match");
        stats_ref.merge(&s);
        assert_eq!(out_row, &y_ref[..], "i16 outputs must be bit-identical");
    }
    assert_eq!(stats, stats_ref, "datapath counters must match exactly");

    let optimized_us = median_us(reps, || {
        black_box(
            q.matmul_q_into(black_box(&xs_raw), batch, &mut out, &mut scratch)
                .expect("checked above"),
        );
    });
    let reference_us = median_us(reps, || {
        for i in 0..batch {
            let mut y = vec![0i16; n];
            black_box(
                q.matvec_q_reference(black_box(&xs_raw[i * n..(i + 1) * n]), &mut y)
                    .expect("checked above"),
            );
        }
    });

    WallPoint {
        workload: "q16_column_sparse",
        rows: n,
        cols: n,
        batch,
        reps,
        optimized_us,
        reference_us,
        speedup: reference_us / optimized_us,
        floor: 1.2,
    }
}

fn inputs(dim: usize, batch: usize, seed: u64) -> Vec<Vec<f32>> {
    let m = batch_matrix(dim, batch, seed);
    (0..batch).map(|i| m.row(i).to_vec()).collect()
}

fn batch_matrix(dim: usize, batch: usize, seed: u64) -> Matrix {
    pd_tensor::init::xavier_uniform(&mut seeded_rng(seed), batch, dim)
}

fn render_json(points: &[WallPoint]) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"bench\": \"wall_sweep\",");
    let _ = writeln!(
        s,
        "  \"note\": \"wall-clock medians, machine-dependent; outputs asserted bit-identical and speedups asserted >= floor before this file is written\","
    );
    s.push_str("  \"results\": [\n");
    for (i, p) in points.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"workload\": \"{}\", \"rows\": {}, \"cols\": {}, \"batch\": {}, \"reps\": {}, \
             \"optimized_us\": {:.1}, \"reference_us\": {:.1}, \"speedup\": {:.2}, \
             \"floor\": {:.1}, \"bit_identical\": true}}",
            p.workload,
            p.rows,
            p.cols,
            p.batch,
            p.reps,
            p.optimized_us,
            p.reference_us,
            p.speedup,
            p.floor
        );
        s.push_str(if i + 1 < points.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ]\n}\n");
    s
}
