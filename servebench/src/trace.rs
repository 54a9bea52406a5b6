//! The traced run's instruments. Spans are recorded from outside the
//! library, around its public entry points: the serving call (driver), the
//! `ModelLoader` and the `BatchModel`s it returns, the paged skeleton loader,
//! and the snapshot codec's per-format decoders (block faults). Spans live in
//! memory and are written out when the run ends. With tracing off (the
//! default) none of the wrappers is installed and the driver's hooks are a
//! single relaxed load.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use pd_tensor::Matrix;
use permdnn_core::format::{BatchView, CompressedLinear, FormatError};
use permdnn_core::snapshot::{
    ByteReader, SnapshotCodec, SnapshotError, FORMAT_CIRCULANT, FORMAT_CSC, FORMAT_DENSE,
    FORMAT_EIE, FORMAT_PD_CONV, FORMAT_PERMUTED_DIAGONAL, FORMAT_QUANTIZED, FORMAT_SHARED_PD,
};
use permdnn_nn::snapshot::{batch_model_loader, codec, paged_model_loader};
use permdnn_runtime::{BatchModel, ModelLoader, PagedConfig, PagingModel, ParallelExecutor};

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
/// Id of the serving call in progress (0 outside calls).
static CALL: AtomicU64 = AtomicU64::new(0);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// One timed interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// `serve.call`, `registry.load`, `nn.model` or `paging.decode`.
    pub name: &'static str,
    /// Model id where known.
    pub label: String,
    pub id: u64,
    /// The enclosing `serve.call` span (0: none).
    pub parent: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Requests (call), batch rows (model) or bytes (load, decode).
    pub n: u64,
}

impl Span {
    pub fn us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// Switches span recording on or off.
pub fn set_enabled(on: bool) {
    EPOCH.get_or_init(Instant::now);
    ENABLED.store(on, Ordering::Relaxed);
}

fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

fn rel_ns(t: Instant) -> u64 {
    t.saturating_duration_since(*EPOCH.get_or_init(Instant::now))
        .as_nanos() as u64
}

fn push(span: Span) {
    SPANS
        .lock()
        .expect("span store lock: no holder panics")
        .push(span);
}

fn record(name: &'static str, label: &str, t0: Instant, t1: Instant, n: u64) {
    push(Span {
        name,
        label: label.to_string(),
        id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
        parent: CALL.load(Ordering::Relaxed),
        start_ns: rel_ns(t0),
        end_ns: rel_ns(t1),
        n,
    });
}

/// Opens a serving call; returns its span id (0 when tracing is off).
pub fn enter_call() -> u64 {
    if !enabled() {
        return 0;
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    CALL.store(id, Ordering::Relaxed);
    id
}

/// Closes the call opened by [`enter_call`].
pub fn exit_call(id: u64, t0: Instant, t1: Instant, requests: usize) {
    if id == 0 {
        return;
    }
    CALL.store(0, Ordering::Relaxed);
    push(Span {
        name: "serve.call",
        label: String::new(),
        id,
        parent: 0,
        start_ns: rel_ns(t0),
        end_ns: rel_ns(t1),
        n: requests as u64,
    });
}

/// Removes and returns every span recorded so far.
pub fn take() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().expect("span store lock: no holder panics"))
}

/// Recognises a model's snapshot bytes: length plus a hash of the tail
/// (weights and checksums, unique per model).
fn key(bytes: &[u8]) -> (usize, u64) {
    let tail = &bytes[bytes.len().saturating_sub(64)..];
    let hash = tail.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    });
    (bytes.len(), hash)
}

/// Model ids by snapshot key.
#[derive(Clone)]
pub struct Labels(Arc<Vec<((usize, u64), String)>>);

impl Labels {
    pub fn new(snapshots: &[(&str, &[u8])]) -> Labels {
        Labels(Arc::new(
            snapshots
                .iter()
                .map(|(id, bytes)| (key(bytes), id.to_string()))
                .collect(),
        ))
    }

    fn of(&self, bytes: &[u8]) -> String {
        let k = key(bytes);
        self.0
            .iter()
            .find(|(kk, _)| *kk == k)
            .map_or_else(|| "unknown".to_string(), |(_, id)| id.clone())
    }
}

/// The workspace loader with a `registry.load` span around each load; the
/// models it returns record `nn.model` spans.
pub fn traced_loader(labels: Labels) -> ModelLoader {
    let inner = batch_model_loader();
    Box::new(move |bytes| {
        let label = labels.of(bytes);
        let t0 = Instant::now();
        let model = inner(bytes)?;
        record(
            "registry.load",
            &label,
            t0,
            Instant::now(),
            bytes.len() as u64,
        );
        Ok(Arc::new(TracedModel {
            inner: model,
            label,
        }) as Arc<dyn BatchModel>)
    })
}

/// The workspace paged configuration with a `registry.load` span around
/// each skeleton load and a `paging.decode` span around each block decode.
pub fn traced_paged_config(labels: Labels) -> PagedConfig {
    let inner = paged_model_loader();
    let mut timed = codec();
    timed
        .register(FORMAT_DENSE, timed_decode::<FORMAT_DENSE>)
        .register(
            FORMAT_PERMUTED_DIAGONAL,
            timed_decode::<FORMAT_PERMUTED_DIAGONAL>,
        )
        .register(FORMAT_CIRCULANT, timed_decode::<FORMAT_CIRCULANT>)
        .register(FORMAT_CSC, timed_decode::<FORMAT_CSC>)
        .register(FORMAT_EIE, timed_decode::<FORMAT_EIE>)
        .register(FORMAT_SHARED_PD, timed_decode::<FORMAT_SHARED_PD>)
        .register(FORMAT_QUANTIZED, timed_decode::<FORMAT_QUANTIZED>)
        .register(FORMAT_PD_CONV, timed_decode::<FORMAT_PD_CONV>);
    PagedConfig {
        loader: Box::new(move |bytes| {
            let label = labels.of(bytes);
            let t0 = Instant::now();
            let model = inner(bytes)?;
            record(
                "registry.load",
                &label,
                t0,
                Instant::now(),
                bytes.len() as u64,
            );
            Ok(model)
        }),
        codec: timed,
        paging: PagingModel::default(),
    }
}

/// Decodes one tensor record of format `C` through the untimed workspace
/// codec inside a `paging.decode` span. The codec hands decoders the reader
/// positioned after the format code, so the record is re-framed with its
/// code (a copy outside the span) and the outer reader advanced by what the
/// decode consumed.
fn timed_decode<const C: u16>(
    r: &mut ByteReader<'_>,
    _codec: &SnapshotCodec,
) -> Result<Arc<dyn CompressedLinear>, SnapshotError> {
    static BASE: OnceLock<SnapshotCodec> = OnceLock::new();
    let rest = r.clone().take(r.remaining(), "traced tensor record")?;
    let mut framed = Vec::with_capacity(rest.len() + 2);
    framed.extend_from_slice(&C.to_le_bytes());
    framed.extend_from_slice(rest);
    let mut inner = ByteReader::new(&framed);
    let t0 = Instant::now();
    let op = BASE.get_or_init(codec).decode_tensor(&mut inner)?;
    let consumed = rest.len() - inner.remaining();
    record("paging.decode", "", t0, Instant::now(), consumed as u64);
    r.take(consumed, "traced tensor record")?;
    Ok(op)
}

/// A served model with an `nn.model` span around every batch.
struct TracedModel {
    inner: Arc<dyn BatchModel>,
    label: String,
}

impl BatchModel for TracedModel {
    fn in_dim(&self) -> usize {
        self.inner.in_dim()
    }

    fn out_dim(&self) -> usize {
        self.inner.out_dim()
    }

    fn mul_count_per_example(&self) -> u64 {
        self.inner.mul_count_per_example()
    }

    fn forward_batch(
        &self,
        xs: &BatchView<'_>,
        exec: &ParallelExecutor,
    ) -> Result<Matrix, FormatError> {
        let mut out = Matrix::zeros(0, 0);
        self.forward_batch_into(xs, exec, &mut out)?;
        Ok(out)
    }

    fn forward_batch_into(
        &self,
        xs: &BatchView<'_>,
        exec: &ParallelExecutor,
        out: &mut Matrix,
    ) -> Result<(), FormatError> {
        let t0 = Instant::now();
        let result = self.inner.forward_batch_into(xs, exec, out);
        record(
            "nn.model",
            &self.label,
            t0,
            Instant::now(),
            xs.batch() as u64,
        );
        result
    }
}

/// Writes spans as JSON Lines, after a provenance header line.
pub fn write_spans(path: &std::path::Path, header: &str, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write as _;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "{header}")?;
    for s in spans {
        writeln!(
            w,
            "{{\"name\":\"{}\",\"label\":\"{}\",\"id\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{},\"n\":{}}}",
            s.name, s.label, s.id, s.parent, s.start_ns, s.end_ns, s.n
        )?;
    }
    w.flush()
}
