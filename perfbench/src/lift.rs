//! The `lift` path: the paper's own pipeline. One operation is a round over
//! four stripped binaries — fig7 `invert`, `blur` and `sharpen` at 48×32 and
//! the miniGMG smooth at 12×10×8 — that lifts each one, compiles the primary
//! kernel, realizes it on the legacy run's memory image and compares the
//! result with the emulator's output.
//!
//! Untraced rounds call [`Lifter::lift`]. Traced rounds replay its phases
//! through the public `helium-dbi` / `helium-core` functions, in
//! `Lifter::lift`'s order, inside spans; a reference `Lifter::lift` of the
//! same app runs beside each replay so the two sources can be compared.

use crate::trace::{Tracer, HARNESS};
use helium_apps::photoflow::{PhotoFilter, PhotoFlow};
use helium_apps::{Grid3D, MiniGmg, PlanarImage};
use helium_core::codegen::generate_kernels;
use helium_core::extract::{prepare_trace, ExtractError, TreeBuilder};
use helium_core::layout::{infer_from_known_data, infer_generic, infer_linear_span};
use helium_core::localize::localize;
use helium_core::regions::{reconstruct_filtered, Region};
use helium_core::symbolic::{abstract_guarded, cluster_trees, solve_cluster};
use helium_core::{
    BufferLayout, BufferRole, KnownData, LiftError, LiftRequest, LiftStats, LiftedStencil, Lifter,
};
use helium_dbi::{Instrumenter, MemTraceEntry};
use helium_halide::{Buffer, CompileOptions, RealizeInputs, Schedule};
use helium_machine::{Cpu, Program};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// fig7 image size lifted by the `lift` path.
pub const IMAGE: (usize, usize) = (48, 32);
/// miniGMG interior grid lifted by the `lift` path.
pub const GRID: (usize, usize, usize) = (12, 10, 8);
/// Largest deviation the lifted f64 smooth may show against the emulator —
/// the bound the repository's miniGMG lifting test uses.
pub const SMOOTH_TOLERANCE: f64 = 1e-12;
/// Emulator step budget of one legacy run.
const MAX_STEPS: u64 = 2_000_000_000;
/// `Lifter`'s defaults, which the replay must use to lift the same program.
const LIFTER_SEED: u64 = 0x48_45_4c_49;
const MIN_TABLE_BYTES: u32 = 128;

/// Schedule of the lifted kernels: the default, serial — a 64×32 realize
/// gains nothing from worker threads.
fn schedule() -> Schedule {
    Schedule::stencil_default().with_parallel(false)
}

/// The four apps of a round, by name.
pub const APPS: [&str; 4] = ["invert", "blur", "sharpen", "smooth"];

enum Binary {
    Photo(PhotoFlow),
    Smooth(MiniGmg),
}

/// One stripped binary plus everything needed to check a lift of it.
pub struct App {
    /// Short name (`invert`, `blur`, `sharpen`, `smooth`).
    pub name: &'static str,
    binary: Binary,
    request: LiftRequest,
    /// Memory image left by the legacy run: the lifted kernel's inputs.
    legacy: Cpu,
    /// Instructions the legacy run executed.
    pub legacy_steps: u64,
}

/// Seed-derived 64-bit value for stream `k` (splitmix64).
pub fn mix(seed: u64, k: u64) -> u64 {
    let mut z = seed ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl App {
    /// Build app `name` on seed-derived input data and run the legacy binary
    /// once in the emulator (a `machine` span).
    pub fn new(name: &'static str, seed: u64, tracer: &Tracer) -> App {
        let data_seed = mix(seed, APPS.iter().position(|&a| a == name).unwrap() as u64);
        let (binary, request) = match name {
            "smooth" => {
                let (nx, ny, nz) = GRID;
                let app = MiniGmg::new(Grid3D::random(nx, ny, nz, 1, data_seed));
                let request = LiftRequest {
                    known_inputs: vec![],
                    known_outputs: vec![],
                    approx_data_size: app.approx_data_size(),
                };
                (Binary::Smooth(app), request)
            }
            _ => {
                let filter = match name {
                    "invert" => PhotoFilter::Invert,
                    "blur" => PhotoFilter::Blur,
                    "sharpen" => PhotoFilter::Sharpen,
                    other => panic!("unknown lift app {other}"),
                };
                let image = PlanarImage::random(IMAGE.0, IMAGE.1, 1, 16, data_seed);
                let app = PhotoFlow::new(filter, image);
                let request = helium_bench::photoflow_request(&app);
                (Binary::Photo(app), request)
            }
        };
        let mut app = App {
            name,
            binary,
            request,
            legacy: Cpu::new(),
            legacy_steps: 0,
        };
        let mut cpu = app.fresh_cpu(true);
        let steps = tracer.span("machine", &format!("legacy.{name}"), || {
            cpu.run(app.program(), MAX_STEPS, |_, _| {})
                .expect("the legacy binary runs to completion")
        });
        app.legacy = cpu;
        app.legacy_steps = steps;
        app
    }

    fn program(&self) -> &Program {
        match &self.binary {
            Binary::Photo(a) => a.program(),
            Binary::Smooth(a) => a.program(),
        }
    }

    fn fresh_cpu(&self, with_kernel: bool) -> Cpu {
        match &self.binary {
            Binary::Photo(a) => a.fresh_cpu(with_kernel),
            Binary::Smooth(a) => a.fresh_cpu(with_kernel),
        }
    }

    /// Lift with the library driver.
    pub fn lift(&self) -> Result<LiftedStencil, LiftError> {
        Lifter::new().lift(self.program(), &self.request, |with| self.fresh_cpu(with))
    }

    /// Compile the lifted primary kernel, realize it on the legacy memory
    /// image and compare with the emulator's output. The compile and the
    /// (cold) run are `halide` calls whose time is added to `layer_ms`;
    /// binding and comparison are harness work.
    pub fn check(
        &self,
        lifted: &LiftedStencil,
        tracer: &Tracer,
        layer_ms: &mut f64,
    ) -> Result<(), String> {
        let kernel = lifted.primary();
        let compiled = timed(tracer, "halide", "compile", layer_ms, || {
            kernel
                .pipeline
                .compile(&schedule(), &CompileOptions::default())
        })
        .map_err(|e| format!("{}: compile failed: {e}", self.name))?;
        let (buffers, extents) = tracer.span(HARNESS, "bind", || self.bind(lifted));
        let mut inputs = RealizeInputs::new();
        for (name, buf) in &buffers {
            inputs = inputs.with_image(name, buf);
        }
        for (name, value) in &kernel.parameter_values {
            inputs = inputs.with_param(name, *value);
        }
        let out = timed(tracer, "halide", "first_run", layer_ms, || {
            compiled.run(&inputs, &extents)
        })
        .map_err(|e| format!("{}: realize failed: {e}", self.name))?;
        tracer.span(HARNESS, "verify", || self.compare(lifted, &out))
    }

    /// Input buffers of the primary kernel read from the legacy memory
    /// image, plus the output extents to realize.
    fn bind(&self, lifted: &LiftedStencil) -> (Vec<(String, Buffer)>, Vec<usize>) {
        let kernel = lifted.primary();
        let buffers = kernel
            .pipeline
            .images
            .iter()
            .map(|(name, p)| {
                let buf = helium_bench::buffer_from_memory(&self.legacy.mem, lifted, name, p.ty);
                (name.clone(), buf)
            })
            .collect();
        let extents = match &self.binary {
            Binary::Smooth(_) => vec![GRID.0, GRID.1, GRID.2],
            Binary::Photo(_) => lifted
                .buffer(&kernel.output)
                .map(|l| l.extents.iter().map(|&e| e as usize).collect())
                .unwrap_or_default(),
        };
        (buffers, extents)
    }

    fn compare(&self, lifted: &LiftedStencil, out: &Buffer) -> Result<(), String> {
        match &self.binary {
            Binary::Smooth(app) => {
                let legacy = app.read_output(&self.legacy);
                let (nx, ny, nz) = GRID;
                let mut max_err = 0f64;
                for z in 0..nz {
                    for y in 0..ny {
                        for x in 0..nx {
                            let got = out.get(&[x as i64, y as i64, z as i64]).as_f64();
                            max_err = max_err.max((got - legacy.get(x, y, z)).abs());
                        }
                    }
                }
                if max_err < SMOOTH_TOLERANCE {
                    Ok(())
                } else {
                    Err(format!("smooth: lifted output deviates by {max_err}"))
                }
            }
            Binary::Photo(app) => {
                let legacy = app.read_output(&self.legacy);
                let layout = app.layout();
                let (w, h, pad, stride) = (
                    layout.width as usize,
                    layout.height as usize,
                    layout.pad as usize,
                    layout.stride as usize,
                );
                let kernel = lifted.primary();
                let out_layout = lifted
                    .buffer(&kernel.output)
                    .ok_or_else(|| format!("{}: no output layout", self.name))?;
                let plane = layout
                    .output_planes
                    .iter()
                    .position(|&base| {
                        out_layout.base >= base && out_layout.base < base + layout.plane_bytes()
                    })
                    .ok_or_else(|| format!("{}: output maps to no plane", self.name))?;
                let mut compared = 0usize;
                for y in 0..h {
                    for x in 0..w {
                        let addr =
                            layout.output_planes[plane] + ((y + pad) * stride + x + pad) as u32;
                        let Some(coord) = out_layout.index_of(addr) else {
                            continue;
                        };
                        if coord
                            .iter()
                            .zip(&out_layout.extents)
                            .any(|(&i, &e)| i < 0 || i >= e as i64)
                        {
                            continue;
                        }
                        let got = out.get(&coord).as_i64();
                        let want = legacy.planes[plane].get(x, y) as i64;
                        if got != want {
                            return Err(format!(
                                "{}: pixel ({x},{y}) lifted {got} vs emulator {want}",
                                self.name
                            ));
                        }
                        compared += 1;
                    }
                }
                if compared >= w * h {
                    Ok(())
                } else {
                    Err(format!("{}: only {compared} pixels compared", self.name))
                }
            }
        }
    }

    /// [`Lifter::lift`] replayed phase by phase through the public
    /// `helium-dbi` and `helium-core` functions, each phase in a span. The
    /// code mirrors `crates/core/src/lift.rs`; [`App::lift`] is the reference
    /// it must agree with (see `equivalent`).
    /// Returns the lifted stencil and the number of output trees built.
    pub fn replay(&self, tracer: &Tracer) -> Result<(LiftedStencil, usize), LiftError> {
        let program = self.program();
        let request = &self.request;
        let instrumenter = Instrumenter::new();
        let (with, without, diff) = tracer.span("dbi", "coverage", || {
            let with = instrumenter.coverage(program, &mut self.fresh_cpu(true))?;
            let without = instrumenter.coverage(program, &mut self.fresh_cpu(false))?;
            let diff = with.difference(&without);
            Ok::<_, LiftError>((with, without, diff))
        })?;
        let profile = tracer.span("dbi", "profile", || {
            instrumenter.profile(program, &mut self.fresh_cpu(true), &diff)
        })?;
        let localization = tracer.span("core", "localize", || {
            localize(program, &with, &without, &profile, request.approx_data_size)
        })?;
        let (trace, dump) = tracer.span("dbi", "trace", || {
            instrumenter.function_trace(
                program,
                &mut self.fresh_cpu(true),
                localization.filter_function,
                &localization.candidate_instructions,
            )
        })?;
        let buffers = tracer.span("core", "layout", || {
            infer_buffers(&trace.records, &dump, request)
        })?;
        let guarded = tracer.span("core", "extract", || {
            let input_layouts: Vec<BufferLayout> = buffers
                .iter()
                .filter(|b| b.role != BufferRole::Output)
                .cloned()
                .collect();
            let prepared = prepare_trace(&trace, &input_layouts)?;
            let builder = TreeBuilder::new(&prepared, &buffers);
            let writes = builder.output_writes();
            if writes.is_empty() {
                return Err(LiftError::Extract(ExtractError::NoOutputs));
            }
            let mut guarded = Vec::new();
            for (i, d) in writes {
                if let Some(tree) = builder.build_output_tree(i, d) {
                    guarded.push(abstract_guarded(&tree, &buffers));
                }
            }
            Ok(guarded)
        })?;
        let trees = guarded.len();
        let symbolic = tracer.span("core", "symbolic", || {
            let clusters = cluster_trees(guarded);
            let mut rng = StdRng::seed_from_u64(LIFTER_SEED);
            clusters
                .iter()
                .map(|c| solve_cluster(c, &buffers, &mut rng))
                .collect::<Result<Vec<_>, _>>()
        })?;
        tracer.span("core", "codegen", || {
            let kernels = generate_kernels(&symbolic, &buffers)?;
            let stats = LiftStats {
                total_basic_blocks: localization.total_blocks,
                diff_basic_blocks: localization.diff_blocks.len(),
                filter_function_blocks: localization.filter_blocks.len(),
                static_instruction_count: localization.filter_static_instructions,
                memory_dump_bytes: dump.size_bytes(),
                dynamic_instruction_count: trace.len(),
                tree_sizes: symbolic.iter().map(|s| s.tree.node_count()).collect(),
            };
            let lifted = LiftedStencil {
                kernels,
                clusters: symbolic,
                buffers,
                stats,
                localization,
            };
            // Source generation belongs to the codegen phase.
            std::hint::black_box(lifted.halide_source());
            Ok((lifted, trees))
        })
    }
}

/// Whether a replayed lift produced the same program as the library driver.
pub fn equivalent(replayed: &LiftedStencil, reference: &LiftedStencil) -> bool {
    replayed.halide_source() == reference.halide_source()
}

/// Buffer structure reconstruction, dimensionality inference and buffer
/// selection (paper §4.2–§4.4), in `Lifter::lift`'s order.
fn infer_buffers(
    records: &[helium_machine::StepRecord],
    dump: &helium_dbi::MemoryDump,
    request: &LiftRequest,
) -> Result<Vec<BufferLayout>, LiftError> {
    let trace_entries: Vec<MemTraceEntry> = records
        .iter()
        .flat_map(|r| {
            r.mem.iter().map(move |m| MemTraceEntry {
                instr_addr: r.addr,
                addr: m.addr,
                width: m.width,
                is_write: m.is_write,
            })
        })
        .collect();
    let stack_top = helium_machine::cpu::DEFAULT_STACK_TOP;
    let regions = reconstruct_filtered(&trace_entries, |e| {
        e.addr < stack_top - 0x10_0000 || e.addr > stack_top
    });

    let mut buffers: Vec<BufferLayout> = Vec::new();
    let (mut inputs, mut outputs, mut tables) = (0usize, 0usize, 0usize);
    let known =
        |data: &[KnownData], is_output: bool, count: &mut usize, out: &mut Vec<BufferLayout>| {
            let (prefix, role) = if is_output {
                ("output", BufferRole::Output)
            } else {
                ("input", BufferRole::Input)
            };
            for k in data {
                *count += 1;
                let name = format!("{prefix}_{count}");
                if let Some(l) = infer_from_known_data(k, dump, &regions, is_output, &name, role) {
                    out.push(l);
                }
            }
        };
    known(&request.known_inputs, false, &mut inputs, &mut buffers);
    known(&request.known_outputs, true, &mut outputs, &mut buffers);

    // Fragmented data-sized inputs merge into linear spans; sparsely read
    // tables merge at cache-line gaps.
    let big = |len: u32| len as f64 >= request.approx_data_size as f64 * 0.5;
    let mut fragments: Vec<&Region> = regions
        .iter()
        .filter(|r| {
            r.read
                && !r.written
                && !big(r.len())
                && r.len() >= 16
                && !buffers.iter().any(|b| b.contains(r.start))
        })
        .collect();
    fragments.sort_by_key(|r| r.start);
    for group in groups(&fragments, 4096) {
        let span = group.last().unwrap().end - group[0].start;
        if group.len() >= 2 && big(span) {
            inputs += 1;
            buffers.push(infer_linear_span(
                &group,
                &format!("input_{inputs}"),
                BufferRole::Input,
            ));
        }
    }
    let unclaimed: Vec<&Region> = fragments
        .iter()
        .copied()
        .filter(|r| !buffers.iter().any(|b| b.contains(r.start)))
        .collect();
    for group in groups(&unclaimed, 64) {
        let span = group.last().unwrap().end - group[0].start;
        if group.len() >= 2 && span >= MIN_TABLE_BYTES && !big(span) {
            tables += 1;
            buffers.push(infer_linear_span(
                &group,
                &format!("buffer_{tables}"),
                BufferRole::Table,
            ));
        }
    }

    // Remaining large regions are classified generically.
    for region in &regions {
        if buffers.iter().any(|b| b.contains(region.start)) || region.len() < MIN_TABLE_BYTES {
            continue;
        }
        let large = big(region.len());
        let (name, role) = if region.written && large {
            outputs += 1;
            (format!("output_{outputs}"), BufferRole::Output)
        } else if region.read && !region.written && large {
            inputs += 1;
            (format!("input_{inputs}"), BufferRole::Input)
        } else if region.read && !region.written {
            tables += 1;
            (format!("buffer_{tables}"), BufferRole::Table)
        } else if region.written {
            outputs += 1;
            (format!("output_{outputs}"), BufferRole::Output)
        } else {
            continue;
        };
        buffers.push(infer_generic(region, &name, role));
    }
    if !buffers.iter().any(|b| b.role == BufferRole::Output) {
        return Err(LiftError::NoOutputBuffers);
    }
    Ok(buffers)
}

/// Split address-sorted regions into runs whose gaps are at most `gap`.
fn groups<'a>(regions: &[&'a Region], gap: u32) -> Vec<Vec<&'a Region>> {
    let mut out: Vec<Vec<&Region>> = Vec::new();
    for &r in regions {
        match out.last_mut() {
            Some(g) if r.start.saturating_sub(g.last().unwrap().end) <= gap => g.push(r),
            _ => out.push(vec![r]),
        }
    }
    out
}

/// The apps of one `lift` round, built from `seed`.
pub fn setup(seed: u64, tracer: &Tracer) -> Vec<App> {
    APPS.iter()
        .map(|&name| App::new(name, seed, tracer))
        .collect()
}

/// Run `f` in a span and add its wall time to `acc` (ms).
pub fn timed<T>(
    tracer: &Tracer,
    layer: &'static str,
    name: &str,
    acc: &mut f64,
    f: impl FnOnce() -> T,
) -> T {
    let start = std::time::Instant::now();
    let out = tracer.span(layer, name, f);
    *acc += start.elapsed().as_secs_f64() * 1e3;
    out
}

/// One untraced round: lift, compile, realize and check every app. Returns
/// the time spent in layer calls (ms) and the failures.
pub fn round(apps: &[App], tracer: &Tracer) -> (f64, Vec<String>) {
    let mut ms = 0.0;
    let mut errors = Vec::new();
    for app in apps {
        let checked = timed(tracer, "core", "lift", &mut ms, || app.lift())
            .map_err(|e| format!("{}: lift failed: {e}", app.name))
            .and_then(|lifted| app.check(&lifted, tracer, &mut ms));
        errors.extend(checked.err());
    }
    (ms, errors)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_lifts_the_same_program_as_the_driver() {
        let tracer = Tracer::new(true);
        for name in ["blur", "smooth"] {
            let app = App::new(name, 7, &tracer);
            let (replayed, trees) = app.replay(&tracer).expect("replay lifts");
            assert!(trees > 0);
            let reference = app.lift().expect("driver lifts");
            assert!(equivalent(&replayed, &reference), "{name}: replay drifted");
            app.check(&replayed, &tracer, &mut 0.0)
                .expect("lifted kernel matches the emulator");
        }
        let layers: std::collections::BTreeSet<_> =
            tracer.spans().iter().map(|s| s.layer).collect();
        for layer in ["machine", "dbi", "core", "halide"] {
            assert!(layers.contains(layer), "no {layer} span");
        }
    }
}
