//! Shared helpers for the benchmark harnesses that regenerate the paper's
//! tables and figures (README's "Experiments" section indexes the binaries).

#![warn(missing_docs)]

use helium_apps::photoflow::{PhotoFilter, PhotoFlow};
use helium_apps::PlanarImage;
use helium_core::{KnownData, LiftRequest, LiftedStencil, Lifter};
use helium_halide::{
    Buffer, CompiledPipeline, Pipeline, RealizeInputs, Realizer, ScalarType, Schedule, Value,
};
use std::time::{Duration, Instant};

/// Default benchmark image width.
pub const BENCH_WIDTH: usize = 192;
/// Default benchmark image height.
pub const BENCH_HEIGHT: usize = 128;

/// Build a PhotoFlow instance on a deterministic benchmark image.
pub fn photoflow_app(filter: PhotoFilter, w: usize, h: usize) -> PhotoFlow {
    PhotoFlow::new(filter, PlanarImage::random(w, h, 1, 16, 0x05EED))
}

/// Build the lift request for a PhotoFlow app.
pub fn photoflow_request(app: &PhotoFlow) -> LiftRequest {
    LiftRequest {
        known_inputs: app
            .known_input_rows()
            .into_iter()
            .map(KnownData::from_rows)
            .collect(),
        known_outputs: app
            .known_output_rows()
            .into_iter()
            .map(KnownData::from_rows)
            .collect(),
        approx_data_size: app.approx_data_size(),
    }
}

/// Lift a PhotoFlow filter, returning the app and the lifted stencil.
///
/// # Panics
/// Panics if lifting fails (benchmarks require a successful lift).
pub fn lift_photoflow(filter: PhotoFilter, w: usize, h: usize) -> (PhotoFlow, LiftedStencil) {
    let app = photoflow_app(filter, w, h);
    let request = photoflow_request(&app);
    let lifted = Lifter::new()
        .lift(app.program(), &request, |with| app.fresh_cpu(with))
        .unwrap_or_else(|e| panic!("lifting {} failed: {e}", filter.name()));
    (app, lifted)
}

/// Materialize the contents of a lifted buffer from the app's memory image
/// into a realizable [`Buffer`].
pub fn buffer_from_layout(app: &PhotoFlow, lifted: &LiftedStencil, name: &str) -> Buffer {
    let layout = lifted.buffer(name).expect("buffer layout exists");
    let cpu = app.fresh_cpu(true);
    let bytes = cpu.mem.read_bytes(layout.base, layout.byte_len());
    let extents: Vec<usize> = layout.extents.iter().map(|&e| e as usize).collect();
    let mut buf = Buffer::new(ScalarType::UInt8, &extents);
    if extents.len() == 2 {
        for y in 0..extents[1] {
            for x in 0..extents[0] {
                let off = y * layout.strides[1] as usize + x;
                if off < bytes.len() {
                    buf.set(&[x as i64, y as i64], Value::Int(bytes[off] as i64));
                }
            }
        }
    } else {
        for (i, b) in bytes.iter().enumerate().take(buf.len()) {
            buf.set(&[i as i64], Value::Int(*b as i64));
        }
    }
    buf
}

/// Time the lifted kernel of the first output plane under a schedule on a
/// specific execution backend.
///
/// Every repetition uses a fresh `Realizer` (cold program cache), so each
/// timed call pays the full one-shot cost — planning, lowering and execution
/// — preserving the historical meaning of the interpret/lowered bench
/// columns. Cached (steady-state) throughput is measured separately by
/// [`LiftedRealizeSetup::time_compiled`].
///
/// # Panics
/// Panics if realization fails.
pub fn time_lifted_on(
    app: &PhotoFlow,
    lifted: &LiftedStencil,
    schedule: Schedule,
    backend: helium_halide::ExecBackend,
    reps: usize,
) -> Duration {
    let setup = LiftedRealizeSetup::new(app, lifted);
    let inputs = setup.inputs();
    let mut best = Duration::MAX;
    for _ in 0..reps.max(1) {
        let realizer = Realizer::new(schedule.clone()).with_backend(backend);
        let start = Instant::now();
        let _ = realizer
            .realize(&setup.pipeline, &setup.extents, &inputs)
            .expect("realize");
        best = best.min(start.elapsed());
    }
    best
}

/// Steady-state timing of the sides of a split: `rounds` rounds of one warm
/// run per side, alternating the order from round to round so drift in the
/// host's speed lands on every side alike. Returns each side's median (a
/// run, when `rounds` is odd).
///
/// # Panics
/// Panics if a run fails.
pub fn time_interleaved(
    sides: &[&CompiledPipeline],
    inputs: &RealizeInputs<'_>,
    extents: &[usize],
    rounds: usize,
) -> Vec<Duration> {
    for side in sides {
        let _ = side.run(inputs, extents).expect("warm-up run");
    }
    let mut times = vec![Vec::new(); sides.len()];
    for round in 0..rounds.max(1) {
        for k in 0..sides.len() {
            let i = if round % 2 == 0 {
                k
            } else {
                sides.len() - 1 - k
            };
            let start = Instant::now();
            let _ = sides[i].run(inputs, extents).expect("run");
            times[i].push(start.elapsed());
        }
    }
    times
        .into_iter()
        .map(|mut t| {
            t.sort();
            t[t.len() / 2]
        })
        .collect()
}

/// The realize ingredients of a lifted kernel's primary output, materialized
/// once so timing loops measure only compilation and/or execution: the
/// pipeline snapshot, its input buffers, parameter bindings and output
/// extents.
pub struct LiftedRealizeSetup {
    pipeline: helium_halide::Pipeline,
    buffers: Vec<(String, Buffer)>,
    params: Vec<(String, Value)>,
    /// Output extents the kernel realizes over.
    pub extents: Vec<usize>,
}

impl LiftedRealizeSetup {
    /// Materialize the primary kernel's inputs from the app's memory image.
    ///
    /// # Panics
    /// Panics if the lifted layouts are missing (benchmarks require a
    /// successful lift).
    pub fn new(app: &PhotoFlow, lifted: &LiftedStencil) -> LiftedRealizeSetup {
        let kernel = lifted.primary();
        let out_layout = lifted.buffer(&kernel.output).expect("output layout");
        let extents: Vec<usize> = out_layout.extents.iter().map(|&e| e as usize).collect();
        let buffers: Vec<(String, Buffer)> = kernel
            .pipeline
            .images
            .keys()
            .map(|name| (name.clone(), buffer_from_layout(app, lifted, name)))
            .collect();
        let params: Vec<(String, Value)> = kernel
            .parameter_values
            .iter()
            .map(|(n, v)| (n.clone(), *v))
            .collect();
        LiftedRealizeSetup {
            pipeline: kernel.pipeline.clone(),
            buffers,
            params,
            extents,
        }
    }

    /// The lifted kernel's pipeline snapshot — what schedule searches tune.
    pub fn pipeline(&self) -> &helium_halide::Pipeline {
        &self.pipeline
    }

    /// The realize inputs, borrowing the materialized buffers.
    pub fn inputs(&self) -> RealizeInputs<'_> {
        let mut inputs = RealizeInputs::new();
        for (name, buf) in &self.buffers {
            inputs = inputs.with_image(name, buf);
        }
        for (name, value) in &self.params {
            inputs = inputs.with_param(name, *value);
        }
        inputs
    }

    /// Compile the kernel's pipeline for `backend` under `schedule`.
    ///
    /// # Panics
    /// Panics if compilation fails.
    pub fn compile(
        &self,
        schedule: &Schedule,
        backend: helium_halide::ExecBackend,
    ) -> helium_halide::CompiledPipeline {
        let options = helium_halide::CompileOptions {
            backend,
            ..helium_halide::CompileOptions::default()
        };
        self.pipeline.compile(schedule, &options).expect("compile")
    }

    /// Time the compile-once/run-many API over `extents` (defaults to the
    /// kernel's inferred output extents).
    ///
    /// With `cold`, every timed repetition constructs a fresh
    /// `CompiledPipeline` and runs it once — measuring the full uncached cost
    /// (validation, `compute_at` planning, lowering, lane-program
    /// construction, execution). Otherwise the pipeline is compiled and warmed
    /// once up front and only the cached runs are timed — the steady-state
    /// request-rate cost. Inputs are built once, outside every timed region.
    ///
    /// # Panics
    /// Panics if compilation or realization fails.
    pub fn time_compiled(
        &self,
        schedule: &Schedule,
        backend: helium_halide::ExecBackend,
        reps: usize,
        cold: bool,
        extents: Option<&[usize]>,
    ) -> Duration {
        let extents = extents.unwrap_or(&self.extents);
        let inputs = self.inputs();
        let mut best = Duration::MAX;
        if cold {
            for _ in 0..reps.max(1) {
                let start = Instant::now();
                let compiled = self.compile(schedule, backend);
                let _ = compiled.run(&inputs, extents).expect("run");
                best = best.min(start.elapsed());
            }
        } else {
            let compiled = self.compile(schedule, backend);
            let _ = compiled.run(&inputs, extents).expect("warm-up run");
            for _ in 0..reps.max(1) {
                let start = Instant::now();
                let _ = compiled.run(&inputs, extents).expect("run");
                best = best.min(start.elapsed());
            }
            assert!(
                compiled.cache_stats().hits >= reps.max(1) as u64,
                "timed runs must be cache hits"
            );
        }
        best
    }
}

/// Time the lifted kernel of the first output plane under a schedule.
///
/// # Panics
/// Panics if realization fails.
pub fn time_lifted(
    app: &PhotoFlow,
    lifted: &LiftedStencil,
    schedule: Schedule,
    reps: usize,
) -> Duration {
    time_lifted_on(
        app,
        lifted,
        schedule,
        helium_halide::ExecBackend::default(),
        reps,
    )
}

/// Time the legacy binary running in the VM (the literal analogue of the
/// shipped, bit-rotted executable).
pub fn time_legacy_vm(app: &PhotoFlow, reps: usize) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        let _ = app.run_in_vm();
        best = best.min(start.elapsed());
    }
    best
}

/// Time the native scalar port of the legacy algorithm (a conservative upper
/// bound on the original binary's performance).
pub fn time_legacy_native(app: &PhotoFlow, reps: usize) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        let _ = app.reference_output();
        best = best.min(start.elapsed());
    }
    best
}

/// Format a duration in milliseconds for the report tables.
pub fn ms(d: Duration) -> String {
    format!("{:9.2}", d.as_secs_f64() * 1e3)
}

// ---------------------------------------------------------------------------
// Generic helpers (BatchView, miniGMG and ablation harnesses)
// ---------------------------------------------------------------------------

/// Build a BatchView instance on a deterministic benchmark image and lift its
/// kernel.
///
/// # Panics
/// Panics if lifting fails (benchmarks require a successful lift).
pub fn lift_batchview(
    filter: helium_apps::BatchFilter,
    w: usize,
    h: usize,
) -> (helium_apps::BatchView, LiftedStencil) {
    let app =
        helium_apps::BatchView::new(filter, helium_apps::InterleavedImage::random(w, h, 0x05EED));
    let request = LiftRequest {
        known_inputs: app
            .known_input_rows()
            .into_iter()
            .map(KnownData::from_rows)
            .collect(),
        known_outputs: app
            .known_output_rows()
            .into_iter()
            .map(KnownData::from_rows)
            .collect(),
        approx_data_size: app.approx_data_size(),
    };
    let lifted = Lifter::new()
        .lift(app.program(), &request, |with| app.fresh_cpu(with))
        .unwrap_or_else(|e| panic!("lifting {} failed: {e}", filter.name()));
    (app, lifted)
}

/// Lift the miniGMG smooth stencil (generic inference, no known data).
///
/// # Panics
/// Panics if lifting fails (benchmarks require a successful lift).
pub fn lift_minigmg(nx: usize, ny: usize, nz: usize) -> (helium_apps::MiniGmg, LiftedStencil) {
    let app = helium_apps::MiniGmg::new(helium_apps::Grid3D::random(nx, ny, nz, 1, 0x6116));
    let request = LiftRequest {
        known_inputs: vec![],
        known_outputs: vec![],
        approx_data_size: app.approx_data_size(),
    };
    let lifted = Lifter::new()
        .lift(app.program(), &request, |with| app.fresh_cpu(with))
        .unwrap_or_else(|e| panic!("lifting the miniGMG smooth failed: {e}"));
    (app, lifted)
}

/// The miniGMG smooth stencil as a `Float32` pipeline: the weighted 7-point
/// (3-D) Jacobi smoother over a ghosted grid, with a `cast<float>` after
/// every arithmetic op — the rounding discipline regenerated single-precision
/// SSE code has, and exactly the shape the compiled executor's `[f32; W]`
/// fused lane family covers. Returns the pipeline plus a deterministic
/// ghosted input grid of extents `(nx+2) × (ny+2) × (nz+2)`; realize the
/// output over `[nx, ny, nz]`.
pub fn minigmg_smooth_f32(nx: usize, ny: usize, nz: usize, seed: u64) -> (Pipeline, Buffer) {
    use helium_halide::{Expr, Func, ImageParam};
    let f32c = |e: Expr| Expr::cast(ScalarType::Float32, e);
    // Interior cell (x, y, z) reads ghosted cell (x+1+dx, y+1+dy, z+1+dz).
    let tap = |dx: i64, dy: i64, dz: i64| {
        Expr::Image(
            "grid".into(),
            vec![
                Expr::add(Expr::var("x_0"), Expr::int(1 + dx)),
                Expr::add(Expr::var("x_1"), Expr::int(1 + dy)),
                Expr::add(Expr::var("x_2"), Expr::int(1 + dz)),
            ],
        )
    };
    // Neighbour sum in the legacy kernel's operation order, rounding after
    // every addition.
    let nsum = f32c(Expr::add(
        f32c(Expr::add(
            f32c(Expr::add(
                f32c(Expr::add(
                    f32c(Expr::add(tap(-1, 0, 0), tap(1, 0, 0))),
                    tap(0, -1, 0),
                )),
                tap(0, 1, 0),
            )),
            tap(0, 0, -1),
        )),
        tap(0, 0, 1),
    ));
    let wn = Expr::ConstFloat((1.0f32 / 12.0) as f64, ScalarType::Float32);
    let wc = Expr::ConstFloat(0.5, ScalarType::Float32);
    let value = f32c(Expr::add(
        f32c(Expr::mul(nsum, wn)),
        f32c(Expr::mul(tap(0, 0, 0), wc)),
    ));
    let out = Func::pure("smooth", &["x_0", "x_1", "x_2"], ScalarType::Float32, value);
    let pipeline = Pipeline::new(out, vec![ImageParam::new("grid", ScalarType::Float32, 3)]);

    let mut grid = Buffer::new(ScalarType::Float32, &[nx + 2, ny + 2, nz + 2]);
    let mut s = seed | 1;
    for c in grid.coords().collect::<Vec<_>>() {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        grid.set(&c, Value::Float(((s >> 33) % 4096) as f64 / 16.0 - 128.0));
    }
    (pipeline, grid)
}

/// The miniGMG smooth stencil in double precision: the same weighted 7-point
/// Jacobi smoother as [`minigmg_smooth_f32`], but `Float64` end to end and
/// with *no* rounding casts — f64 lanes are the executor's reference
/// representation, so raw adds and multiplies are exact by construction and
/// the pipeline rides the `[f64; W/2]` fused lane family. Returns the
/// pipeline plus a deterministic ghosted input grid of extents
/// `(nx+2) × (ny+2) × (nz+2)`; realize the output over `[nx, ny, nz]`.
pub fn minigmg_smooth_f64(nx: usize, ny: usize, nz: usize, seed: u64) -> (Pipeline, Buffer) {
    use helium_halide::{Expr, Func, ImageParam};
    let tap = |dx: i64, dy: i64, dz: i64| {
        Expr::Image(
            "grid".into(),
            vec![
                Expr::add(Expr::var("x_0"), Expr::int(1 + dx)),
                Expr::add(Expr::var("x_1"), Expr::int(1 + dy)),
                Expr::add(Expr::var("x_2"), Expr::int(1 + dz)),
            ],
        )
    };
    let nsum = Expr::add(
        Expr::add(
            Expr::add(
                Expr::add(Expr::add(tap(-1, 0, 0), tap(1, 0, 0)), tap(0, -1, 0)),
                tap(0, 1, 0),
            ),
            tap(0, 0, -1),
        ),
        tap(0, 0, 1),
    );
    let wn = Expr::ConstFloat(1.0 / 12.0, ScalarType::Float64);
    let wc = Expr::ConstFloat(0.5, ScalarType::Float64);
    let value = Expr::add(Expr::mul(nsum, wn), Expr::mul(tap(0, 0, 0), wc));
    let out = Func::pure("smooth", &["x_0", "x_1", "x_2"], ScalarType::Float64, value);
    let pipeline = Pipeline::new(out, vec![ImageParam::new("grid", ScalarType::Float64, 3)]);

    let mut grid = Buffer::new(ScalarType::Float64, &[nx + 2, ny + 2, nz + 2]);
    let mut s = seed | 1;
    for c in grid.coords().collect::<Vec<_>>() {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        grid.set(&c, Value::Float(((s >> 33) % 4096) as f64 / 16.0 - 128.0));
    }
    (pipeline, grid)
}

/// A histogram-style 64-bit binning pipeline: weighted accumulation of
/// narrow taps into `UInt64` bins, where the i32 family's wrap proofs are
/// vacuous and the `[i64; W/2]` fused lane family applies. Returns the
/// pipeline plus a deterministic `UInt8` input of extents
/// `(w+2) × (h+2)`; realize the output over `[w, h]`.
pub fn hist64_pipeline(w: usize, h: usize, seed: u64) -> (Pipeline, Buffer) {
    use helium_halide::{BinOp, Expr, Func, ImageParam};
    let u64c = |e: Expr| Expr::cast(ScalarType::UInt64, e);
    let tap = |dx: i64, dy: i64| {
        Expr::cast(
            ScalarType::UInt32,
            Expr::Image(
                "in".into(),
                vec![
                    Expr::add(Expr::var("x_0"), Expr::int(dx)),
                    Expr::add(Expr::var("x_1"), Expr::int(dy)),
                ],
            ),
        )
    };
    // Bin id scaled past 32 bits plus a shifted neighbour count.
    let value = u64c(Expr::add(
        Expr::mul(tap(0, 0), Expr::int(0x1_0000_0001)),
        Expr::bin(
            BinOp::Shl,
            u64c(Expr::add(tap(1, 0), tap(0, 1))),
            Expr::int(33),
        ),
    ));
    let out = Func::pure("hist", &["x_0", "x_1"], ScalarType::UInt64, value);
    let pipeline = Pipeline::new(out, vec![ImageParam::new("in", ScalarType::UInt8, 2)]);

    let mut input = Buffer::new(ScalarType::UInt8, &[w + 2, h + 2]);
    let mut s = seed | 1;
    for c in input.coords().collect::<Vec<_>>() {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        input.set(&c, Value::Int(((s >> 33) % 256) as i64));
    }
    (pipeline, input)
}

/// A 64-bit histogram with a genuine update definition: `hist(x) = 0;
/// hist[in(r.x, r.y)] = u64(hist[in(r.x, r.y)] + 1)` over the full input —
/// the paper's equalize shape with `UInt64` bins. The data-dependent LHS
/// keeps the lowered nest on the sequential per-op tier (no lane kernel can
/// apply), so this times the guarded-store path against the reduction
/// interpreter. Returns the pipeline plus a deterministic `UInt8` input of
/// extents `w × h`; realize the output over `[256]`.
pub fn hist64_rdom_pipeline(w: usize, h: usize, seed: u64) -> (Pipeline, Buffer) {
    use helium_halide::{Expr, Func, ImageParam, RDom, UpdateDef};
    let img = ImageParam::new("in", ScalarType::UInt8, 2);
    let rdom = RDom::over_image("r_0", &img);
    let lhs = Expr::Image(
        "in".into(),
        vec![Expr::RVar("r_0.x".into()), Expr::RVar("r_0.y".into())],
    );
    let update = UpdateDef {
        lhs: vec![lhs.clone()],
        value: Expr::cast(
            ScalarType::UInt64,
            Expr::add(Expr::FuncRef("hist".into(), vec![lhs]), Expr::int(1)),
        ),
        rdom,
    };
    let hist = Func::pure("hist", &["x_0"], ScalarType::UInt64, Expr::int(0)).with_update(update);
    let pipeline = Pipeline::new(hist, vec![img]);

    let mut input = Buffer::new(ScalarType::UInt8, &[w, h]);
    let mut s = seed | 1;
    for c in input.coords().collect::<Vec<_>>() {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        input.set(&c, Value::Int(((s >> 33) % 256) as i64));
    }
    (pipeline, input)
}

/// A miniGMG-style residual-norm reduction:
/// `norm(0) = 0; norm(0) = norm(0) + resid(r)²` over the interior of a
/// ghosted 3-D `Int32` grid, where `resid(r) = 6·g(c) − Σ neighbours` is the
/// 7-point residual computed inline in the update value. The LHS is
/// loop-invariant and the added term is integer, so the lowered nest rides
/// the fused `[i64; W/2]` lane family with the in-lane tree-reduce epilogue.
/// Returns the pipeline plus a deterministic ghosted grid of extents
/// `(nx+2) × (ny+2) × (nz+2)`; realize the output over `[1]`.
pub fn minigmg_residual_norm(nx: usize, ny: usize, nz: usize, seed: u64) -> (Pipeline, Buffer) {
    use helium_halide::{BinOp, Expr, Func, ImageParam, RDom, UpdateDef};
    let i64c = |e: Expr| Expr::cast(ScalarType::UInt64, e);
    // Reduction point (r.x, r.y, r.z) reads ghosted cell (r.x+1+dx, ...).
    let tap = |dx: i64, dy: i64, dz: i64| {
        Expr::Image(
            "grid".into(),
            vec![
                Expr::add(Expr::RVar("r_0.x".into()), Expr::int(1 + dx)),
                Expr::add(Expr::RVar("r_0.y".into()), Expr::int(1 + dy)),
                Expr::add(Expr::RVar("r_0.z".into()), Expr::int(1 + dz)),
            ],
        )
    };
    let nsum = Expr::add(
        Expr::add(
            Expr::add(tap(-1, 0, 0), tap(1, 0, 0)),
            Expr::add(tap(0, -1, 0), tap(0, 1, 0)),
        ),
        Expr::add(tap(0, 0, -1), tap(0, 0, 1)),
    );
    let resid = Expr::bin(BinOp::Sub, Expr::mul(Expr::int(6), tap(0, 0, 0)), nsum);
    let update = UpdateDef {
        lhs: vec![Expr::int(0)],
        value: i64c(Expr::add(
            Expr::FuncRef("norm".into(), vec![Expr::int(0)]),
            Expr::mul(resid.clone(), resid),
        )),
        rdom: RDom::with_constant_bounds("r_0", &[(0, nx as i64), (0, ny as i64), (0, nz as i64)]),
    };
    let norm = Func::pure("norm", &["x_0"], ScalarType::UInt64, Expr::int(0)).with_update(update);
    let pipeline = Pipeline::new(norm, vec![ImageParam::new("grid", ScalarType::Int32, 3)]);

    let mut grid = Buffer::new(ScalarType::Int32, &[nx + 2, ny + 2, nz + 2]);
    let mut s = seed | 1;
    for c in grid.coords().collect::<Vec<_>>() {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        grid.set(&c, Value::Int(((s >> 33) % 4096) as i64 - 2048));
    }
    (pipeline, grid)
}

/// Materialize a lifted buffer from an arbitrary memory image, honouring the
/// inferred strides and element type.
pub fn buffer_from_memory(
    mem: &helium_machine::Memory,
    lifted: &LiftedStencil,
    name: &str,
    ty: ScalarType,
) -> Buffer {
    let layout = lifted.buffer(name).expect("buffer layout exists");
    let extents: Vec<usize> = layout.extents.iter().map(|&e| e as usize).collect();
    let mut buf = Buffer::new(ty, &extents);
    for coord in buf.coords().collect::<Vec<_>>() {
        let mut addr = layout.base;
        for (d, &i) in coord.iter().enumerate() {
            addr += i as u32 * layout.strides[d];
        }
        let value = match ty {
            ScalarType::Float64 => Value::Float(mem.read_f64(addr)),
            ScalarType::Float32 => Value::Float(mem.read_f32(addr) as f64),
            _ => Value::Int(mem.read_uint(addr, layout.element_size) as i64),
        };
        buf.set(&coord, value);
    }
    buf
}

/// Time the primary lifted kernel against the memory image left by a legacy
/// run, realized over `extents` (or the inferred output extents).
///
/// # Panics
/// Panics if realization fails.
pub fn time_lifted_kernel(
    mem: &helium_machine::Memory,
    lifted: &LiftedStencil,
    schedule: Schedule,
    extents: Option<Vec<usize>>,
    reps: usize,
) -> Duration {
    let kernel = lifted.primary();
    let out_layout = lifted.buffer(&kernel.output).expect("output layout");
    let extents = extents.unwrap_or_else(|| {
        out_layout
            .extents
            .iter()
            .map(|&e| e as usize)
            .collect::<Vec<_>>()
    });
    let buffers: Vec<(String, Buffer)> = kernel
        .pipeline
        .images
        .iter()
        .map(|(name, param)| {
            (
                name.clone(),
                buffer_from_memory(mem, lifted, name, param.ty),
            )
        })
        .collect();
    let mut inputs = RealizeInputs::new();
    for (name, buf) in &buffers {
        inputs = inputs.with_image(name, buf);
    }
    for (name, value) in &kernel.parameter_values {
        inputs = inputs.with_param(name, *value);
    }
    // Fresh realizer per repetition: each timed call pays the full one-shot
    // cost (see `time_lifted_on`).
    let mut best = Duration::MAX;
    for _ in 0..reps.max(1) {
        let realizer = Realizer::new(schedule.clone());
        let start = Instant::now();
        let _ = realizer
            .realize(&kernel.pipeline, &extents, &inputs)
            .expect("realize");
        best = best.min(start.elapsed());
    }
    best
}

/// Run a legacy application binary in the VM to completion and return its
/// final memory image along with the wall-clock time of the run.
///
/// # Panics
/// Panics if the VM run fails.
pub fn run_legacy(
    program: &helium_machine::Program,
    mut cpu: helium_machine::Cpu,
) -> (helium_machine::Cpu, Duration) {
    let start = Instant::now();
    cpu.run(program, 2_000_000_000, |_, _| {})
        .expect("legacy run completes");
    (cpu, start.elapsed())
}

#[cfg(test)]
mod tests {
    use super::*;
    use helium_halide::{CompileOptions, ExecBackend, Target, Tier};

    #[test]
    fn helpers_produce_consistent_timings() {
        let (app, lifted) = lift_photoflow(PhotoFilter::Invert, 48, 32);
        let legacy = time_legacy_native(&app, 1);
        let lifted_time = time_lifted(&app, &lifted, Schedule::naive(), 1);
        assert!(legacy.as_nanos() > 0);
        assert!(lifted_time.as_nanos() > 0);
        assert!(!ms(legacy).is_empty());
    }

    /// The acceptance gate of the float lane family: miniGMG smooth
    /// (`Float32`) runs on the fused tier and its output is bit-identical to
    /// the interpreter oracle.
    #[test]
    fn minigmg_smooth_f32_runs_fused_and_matches_oracle() {
        let (nx, ny, nz) = (21, 13, 5);
        let (pipeline, grid) = minigmg_smooth_f32(nx, ny, nz, 0x6116);
        let inputs = RealizeInputs::new().with_image("grid", &grid);
        let extents = [nx, ny, nz];
        let schedule = Schedule::stencil_default();
        let compiled = pipeline
            .compile(
                &schedule,
                &CompileOptions {
                    backend: ExecBackend::Lowered,
                    target: Some(Target::detect().with_tier(Tier::Simd)),
                    ..CompileOptions::default()
                },
            )
            .expect("compile");
        let fused = compiled.run(&inputs, &extents).expect("fused run");
        let counts = compiled
            .fused_store_counts(&inputs, &extents)
            .expect("counts");
        assert!(
            counts.lanes_f32 > 0,
            "smooth must run the [f32; W] fused lane family, got {counts:?}"
        );
        let oracle = Realizer::new(schedule)
            .with_backend(ExecBackend::Interpret)
            .realize(&pipeline, &extents, &inputs)
            .expect("oracle");
        assert_eq!(fused, oracle, "smooth fused output diverged from oracle");
    }

    /// The acceptance gate of the double-precision lane family: miniGMG
    /// smooth (`Float64`, unrounded) runs on the `[f64; W/2]` fused family
    /// and its output is bit-identical to the interpreter oracle.
    #[test]
    fn minigmg_smooth_f64_runs_fused_and_matches_oracle() {
        let (nx, ny, nz) = (21, 13, 5);
        let (pipeline, grid) = minigmg_smooth_f64(nx, ny, nz, 0x6116);
        let inputs = RealizeInputs::new().with_image("grid", &grid);
        let extents = [nx, ny, nz];
        let schedule = Schedule::stencil_default();
        let compiled = pipeline
            .compile(
                &schedule,
                &CompileOptions {
                    backend: ExecBackend::Lowered,
                    target: Some(Target::detect().with_tier(Tier::Simd)),
                    ..CompileOptions::default()
                },
            )
            .expect("compile");
        let fused = compiled.run(&inputs, &extents).expect("fused run");
        let counts = compiled
            .fused_store_counts(&inputs, &extents)
            .expect("counts");
        assert!(
            counts.lanes_f64 > 0,
            "smooth must run the [f64; W/2] fused lane family, got {counts:?}"
        );
        let oracle = Realizer::new(schedule)
            .with_backend(ExecBackend::Interpret)
            .realize(&pipeline, &extents, &inputs)
            .expect("oracle");
        assert_eq!(
            fused, oracle,
            "f64 smooth fused output diverged from oracle"
        );
    }

    /// The acceptance gate of lowered reductions: the RDom histogram's
    /// update definition executes through the compiled engine (no
    /// `run_update` on the hot path), bit-identical to the interpreter.
    #[test]
    fn hist64_rdom_updates_run_compiled_and_match_oracle() {
        let (pipeline, input) = hist64_rdom_pipeline(41, 13, 0xB16B);
        let inputs = RealizeInputs::new().with_image("in", &input);
        let schedule = Schedule::stencil_default();
        let compiled = pipeline
            .compile(&schedule, &CompileOptions::default())
            .expect("compile");
        let out = compiled.run(&inputs, &[256]).expect("run");
        let counts = compiled.update_counts(&inputs, &[256]).expect("counts");
        assert_eq!(
            counts.interpreted, 0,
            "hist64 updates must not run through run_update: {counts:?}"
        );
        assert_eq!(counts.compiled, 1);
        let oracle = Realizer::new(schedule)
            .with_backend(ExecBackend::Interpret)
            .realize(&pipeline, &[256], &inputs)
            .expect("oracle");
        assert_eq!(out, oracle, "hist64 compiled updates diverged from oracle");
    }

    /// The residual-norm reduction runs its update compiled, on the fused
    /// tree-reduce, bit-identical to the interpreter.
    #[test]
    fn residual_norm_runs_fused_reduce_and_matches_oracle() {
        let (pipeline, grid) = minigmg_residual_norm(19, 11, 5, 0x6116);
        let inputs = RealizeInputs::new().with_image("grid", &grid);
        let schedule = Schedule::stencil_default();
        let counters = helium_halide::CounterSnapshot::take();
        let compiled = pipeline
            .compile(
                &schedule,
                &CompileOptions {
                    target: Some(Target::detect().with_tier(Tier::Simd)),
                    ..CompileOptions::default()
                },
            )
            .expect("compile");
        let out = compiled.run(&inputs, &[1]).expect("run");
        let counts = compiled.update_counts(&inputs, &[1]).expect("counts");
        assert_eq!(
            counts.interpreted, 0,
            "the norm update must not run through run_update: {counts:?}"
        );
        assert!(
            counters.delta().reduce_chunks > 0,
            "the norm must ride the fused tree-reduce"
        );
        let oracle = Realizer::new(schedule)
            .with_backend(ExecBackend::Interpret)
            .realize(&pipeline, &[1], &inputs)
            .expect("oracle");
        assert_eq!(out, oracle, "residual norm diverged from oracle");
    }

    /// The 64-bit binning pipeline rides the [i64; W/2] family, bit-exact.
    #[test]
    fn hist64_runs_fused_and_matches_oracle() {
        let (w, h) = (37, 11);
        let (pipeline, input) = hist64_pipeline(w, h, 0xB16B);
        let inputs = RealizeInputs::new().with_image("in", &input);
        let extents = [w, h];
        let schedule = Schedule::stencil_default();
        let compiled = pipeline
            .compile(
                &schedule,
                &CompileOptions {
                    backend: ExecBackend::Lowered,
                    target: Some(Target::detect().with_tier(Tier::Simd)),
                    ..CompileOptions::default()
                },
            )
            .expect("compile");
        let fused = compiled.run(&inputs, &extents).expect("fused run");
        let counts = compiled
            .fused_store_counts(&inputs, &extents)
            .expect("counts");
        assert!(
            counts.lanes_i64 > 0,
            "hist64 must run the [i64; W/2] fused lane family, got {counts:?}"
        );
        let oracle = Realizer::new(schedule)
            .with_backend(ExecBackend::Interpret)
            .realize(&pipeline, &extents, &inputs)
            .expect("oracle");
        assert_eq!(fused, oracle, "hist64 fused output diverged from oracle");
    }
}
