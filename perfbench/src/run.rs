//! The `run` path: warm realizes of compiled kernels, one per lane family.
//! Set-up lifts the four apps of the `lift` path, binds seed-generated
//! inputs at the run sizes, compiles every kernel under its default parallel
//! schedule and runs it once cold. One operation is a round of warm realizes
//! of all seven kernels, each compared with an expected buffer computed once
//! by the interpreter backend before timing starts.

use crate::lift::{mix, App};
use crate::stats::{median, nproc, spearman};
use crate::trace::{Tracer, HARNESS};
use helium_halide::{
    Buffer, CompileOptions, CompiledPipeline, CounterSnapshot, ExecBackend, Pipeline,
    RealizeInputs, ScalarType, Schedule, Value,
};
use std::collections::BTreeMap;
use std::time::Instant;

/// fig7 image the lifted photo kernels run on (i32 lanes).
pub const IMAGE: (usize, usize) = (1920, 1080);
/// z-planes of the lifted f64 smooth: its 12×10 planes are fixed by the
/// strides lifted from the 12×10×8 binary, so the grid grows along z.
pub const SMOOTH_F64_PLANES: usize = 5000;
/// Interior grid of the f32 smooth.
pub const SMOOTH_F32: (usize, usize, usize) = (128, 128, 108);
/// Image of the 64-bit binning kernel.
pub const HIST64: (usize, usize) = (1024, 768);
/// Interior grid of the residual-norm reduction.
pub const NORM: (usize, usize, usize) = (128, 128, 48);

/// The kernels of a round, by name, in round order.
pub const KERNELS: [&str; 7] = [
    "invert",
    "blur",
    "sharpen",
    "smooth_f64",
    "smooth_f32",
    "hist64",
    "norm",
];

/// One compiled kernel with its bound inputs.
pub struct Kernel {
    /// Name (see [`KERNELS`]).
    pub name: &'static str,
    /// The pipeline (for schedule ranking).
    pub pipeline: Pipeline,
    /// Compiled under the default parallel schedule.
    pub compiled: CompiledPipeline,
    images: Vec<(String, Buffer)>,
    params: Vec<(String, Value)>,
    /// Output extents.
    pub extents: Vec<usize>,
    /// Bytes of every input image plus the output: the compulsory traffic.
    pub bytes_moved: usize,
    /// The interpreter's result (filled by [`oracle`]).
    expected: Option<Buffer>,
}

impl Kernel {
    fn new(
        name: &'static str,
        pipeline: Pipeline,
        images: Vec<(String, Buffer)>,
        params: Vec<(String, Value)>,
        extents: Vec<usize>,
        tracer: &Tracer,
    ) -> Kernel {
        let compiled = tracer
            .span("halide", "compile", || {
                pipeline.compile(&Schedule::stencil_default(), &CompileOptions::default())
            })
            .expect("run kernels compile");
        let out_ty = pipeline.funcs[&pipeline.output].ty;
        let out_bytes = extents.iter().product::<usize>() * out_ty.bytes();
        let bytes_moved = images.iter().map(|(_, b)| b.bytes().len()).sum::<usize>() + out_bytes;
        let kernel = Kernel {
            name,
            pipeline,
            compiled,
            images,
            params,
            extents,
            bytes_moved,
            expected: None,
        };
        // The cold run: program-cache miss, planning, lowering, preparation.
        tracer
            .span("halide", "first_run", || kernel.run_on(&kernel.compiled))
            .expect("run kernels realize");
        kernel
    }

    /// The kernel's realize inputs.
    pub fn inputs(&self) -> RealizeInputs<'_> {
        let mut inputs = RealizeInputs::new();
        for (name, buf) in &self.images {
            inputs = inputs.with_image(name, buf);
        }
        for (name, value) in &self.params {
            inputs = inputs.with_param(name, *value);
        }
        inputs
    }

    fn run_on(&self, compiled: &CompiledPipeline) -> Result<Buffer, helium_halide::RealizeError> {
        compiled.run(&self.inputs(), &self.extents)
    }

    /// Smaller output extents for timing every ranked schedule: the last
    /// dimension cut by 8, so naive schedules stay affordable.
    fn tune_extents(&self) -> Vec<usize> {
        let mut extents = self.extents.clone();
        if let Some(last) = extents.last_mut().filter(|_| self.extents.len() > 1) {
            *last = (*last / 8).max(1);
        }
        extents
    }

    /// Bytes of the largest input image (the copy-ceiling array size).
    pub fn array_bytes(&self) -> usize {
        self.images
            .iter()
            .map(|(_, b)| b.bytes().len())
            .max()
            .unwrap_or(0)
    }
}

/// Seed-filled `UInt8` image.
fn u8_image(extents: &[usize], seed: u64) -> Buffer {
    let mut buf = Buffer::new(ScalarType::UInt8, extents);
    for (i, chunk) in buf.bytes_mut().chunks_mut(8).enumerate() {
        let word = mix(seed, i as u64).to_le_bytes();
        chunk.copy_from_slice(&word[..chunk.len()]);
    }
    buf
}

/// Lift the four apps (on seed-derived data) and bind every kernel at its
/// run size. Expected buffers are not computed here; see [`oracle`].
pub fn setup(seed: u64, tracer: &Tracer) -> Vec<Kernel> {
    let mut kernels = Vec::with_capacity(KERNELS.len());
    let (w, h) = IMAGE;
    for (k, name) in ["invert", "blur", "sharpen"].into_iter().enumerate() {
        let app = App::new(name, seed, tracer);
        let lifted = tracer
            .span("core", "lift", || app.lift())
            .expect("fig7 kernels lift");
        let kernel = lifted.primary();
        let images = kernel
            .pipeline
            .images
            .keys()
            .map(|n| {
                (
                    n.clone(),
                    u8_image(&[w + 2, h + 2], mix(seed, 100 + k as u64)),
                )
            })
            .collect();
        kernels.push(Kernel::new(
            name,
            kernel.pipeline.clone(),
            images,
            params(&kernel.parameter_values),
            vec![w, h],
            tracer,
        ));
    }
    {
        let app = App::new("smooth", seed, tracer);
        let lifted = tracer
            .span("core", "lift", || app.lift())
            .expect("miniGMG smooth lifts");
        let kernel = lifted.primary();
        let (nx, ny, _) = crate::lift::GRID;
        let plane = (nx + 2) * (ny + 2);
        let len = plane * (SMOOTH_F64_PLANES + 2);
        let images = kernel
            .pipeline
            .images
            .keys()
            .map(|n| {
                let mut grid = Buffer::new(ScalarType::Float64, &[len]);
                for i in 0..len {
                    let v = (mix(seed, 200 + i as u64) >> 11) as f64 / (1u64 << 53) as f64;
                    grid.set(&[i as i64], Value::Float(2.0 * v - 1.0));
                }
                (n.clone(), grid)
            })
            .collect();
        kernels.push(Kernel::new(
            "smooth_f64",
            kernel.pipeline.clone(),
            images,
            params(&kernel.parameter_values),
            vec![nx, ny, SMOOTH_F64_PLANES],
            tracer,
        ));
    }
    let (x, y, z) = SMOOTH_F32;
    let (pipeline, grid) = helium_bench::minigmg_smooth_f32(x, y, z, mix(seed, 300));
    kernels.push(Kernel::new(
        "smooth_f32",
        pipeline,
        vec![("grid".into(), grid)],
        vec![],
        vec![x, y, z],
        tracer,
    ));
    let (hw, hh) = HIST64;
    let (pipeline, input) = helium_bench::hist64_pipeline(hw, hh, mix(seed, 400));
    kernels.push(Kernel::new(
        "hist64",
        pipeline,
        vec![("in".into(), input)],
        vec![],
        vec![hw, hh],
        tracer,
    ));
    let (x, y, z) = NORM;
    let (pipeline, grid) = helium_bench::minigmg_residual_norm(x, y, z, mix(seed, 500));
    kernels.push(Kernel::new(
        "norm",
        pipeline,
        vec![("grid".into(), grid)],
        vec![],
        vec![1],
        tracer,
    ));
    kernels
}

fn params(values: &BTreeMap<String, Value>) -> Vec<(String, Value)> {
    values.iter().map(|(n, v)| (n.clone(), *v)).collect()
}

/// Compute every kernel's expected buffer with the interpreter backend.
pub fn oracle(kernels: &mut [Kernel]) {
    for k in kernels.iter_mut() {
        let interp = k
            .pipeline
            .compile(
                &Schedule::stencil_default(),
                &CompileOptions {
                    backend: ExecBackend::Interpret,
                    ..CompileOptions::default()
                },
            )
            .expect("interpreter compile");
        k.expected = Some(k.run_on(&interp).expect("interpreter realize"));
    }
}

/// One round: a warm realize of every kernel, each checked against its
/// expected buffer. Returns the per-kernel realize times (ms) and failures.
pub fn round(kernels: &[Kernel], tracer: &Tracer) -> (Vec<f64>, Vec<String>) {
    let mut times = Vec::with_capacity(kernels.len());
    let mut errors = Vec::new();
    for k in kernels {
        let start = Instant::now();
        let out = tracer.span("halide", &format!("run.{}", k.name), || {
            k.run_on(&k.compiled)
        });
        times.push(start.elapsed().as_secs_f64() * 1e3);
        let ok = tracer.span(HARNESS, "verify", || match (&out, &k.expected) {
            (Ok(buf), Some(want)) => buf == want,
            _ => false,
        });
        if !ok {
            errors.push(match out {
                Err(e) => format!("{}: realize failed: {e}", k.name),
                Ok(_) => format!("{}: output differs from the interpreter", k.name),
            });
        }
    }
    (times, errors)
}

/// Execution counters accumulated per round, from [`CounterSnapshot`].
pub fn counters_per_round(
    snapshot: &CounterSnapshot,
    rounds: usize,
) -> BTreeMap<&'static str, f64> {
    let d = snapshot.delta();
    let per = |v: u64| v as f64 / rounds.max(1) as f64;
    BTreeMap::from([
        ("fused_rows", per(d.fused_rows)),
        ("fused_tails", per(d.fused_tails)),
        ("arch_rows", per(d.arch_rows)),
        ("reduce_chunks", per(d.reduce_chunks)),
    ])
}

/// Plain slice-copy bandwidth (GB/s, bytes read plus bytes written) over an
/// array of `bytes`, split over as many threads as the kernels use. Median
/// of repeated copies.
pub fn copy_gbps(bytes: usize) -> f64 {
    let threads = nproc();
    let src = vec![1u8; bytes];
    let mut dst = vec![0u8; bytes];
    let chunk = bytes.div_ceil(threads).max(1);
    let mut samples = Vec::new();
    let deadline = Instant::now() + std::time::Duration::from_millis(150);
    while samples.len() < 5 || (Instant::now() < deadline && samples.len() < 200) {
        let start = Instant::now();
        std::thread::scope(|s| {
            for (d, c) in dst.chunks_mut(chunk).zip(src.chunks(chunk)) {
                s.spawn(move || d.copy_from_slice(c));
            }
        });
        samples.push(start.elapsed().as_secs_f64());
        std::hint::black_box(&dst);
    }
    2.0 * bytes as f64 / median(&samples) / 1e9
}

/// Rank each kernel's candidate schedules with the cost model and time
/// every ranked candidate. Returns the ranking time (ms) and the mean
/// Spearman ρ between model score and measured time over the kernels.
pub fn rank_and_measure(kernels: &[Kernel], limit: usize) -> (f64, f64) {
    let mut rank_ms = 0.0;
    let mut rhos = Vec::new();
    for k in kernels {
        let inputs = k.inputs();
        let extents = k.tune_extents();
        let candidates = helium_tune::enumerate_candidates(&k.pipeline, limit);
        let start = Instant::now();
        let Ok(trials) = helium_tune::rank_candidates(&k.pipeline, &extents, &inputs, &candidates)
        else {
            continue;
        };
        rank_ms += start.elapsed().as_secs_f64() * 1e3;
        let mut scores = Vec::new();
        let mut measured = Vec::new();
        for t in &trials {
            let Ok(c) = k.pipeline.compile(&t.schedule, &CompileOptions::default()) else {
                continue;
            };
            if c.run(&inputs, &extents).is_err() {
                continue;
            }
            let runs: Vec<f64> = (0..3)
                .map(|_| {
                    let start = Instant::now();
                    let _ = std::hint::black_box(c.run(&inputs, &extents));
                    start.elapsed().as_secs_f64()
                })
                .collect();
            scores.push(t.model_score);
            measured.push(median(&runs));
        }
        rhos.extend(spearman(&scores, &measured));
    }
    let rho = if rhos.is_empty() {
        0.0
    } else {
        rhos.iter().sum::<f64>() / rhos.len() as f64
    };
    (rank_ms, rho)
}
