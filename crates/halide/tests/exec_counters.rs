//! Execution counters add up across parallel workers.
//!
//! Each worker of a parallel loop counts its fused rows in its own scratch
//! and adds them to the process-wide counters once, when it finishes. This
//! file is its own test process, and its tests take one lock, so nothing
//! else runs fused rows meanwhile and the counter deltas are exact.

use helium_halide::prelude::*;
use std::sync::Mutex;

static COUNTERS: Mutex<()> = Mutex::new(());

/// Compile `p` for the default target, so its rows run fused whatever the
/// environment's tier pin.
fn compile_fused(p: &Pipeline, schedule: &Schedule) -> CompiledPipeline {
    let options = CompileOptions {
        target: Some(Target::detect()),
        ..CompileOptions::default()
    };
    p.compile(schedule, &options).expect("compile")
}

fn image(w: usize, h: usize) -> Buffer {
    let mut input = Buffer::new(ScalarType::UInt8, &[w, h]);
    for (i, b) in input.bytes_mut().iter_mut().enumerate() {
        *b = (i * 37 + 11) as u8;
    }
    input
}

#[test]
fn two_workers_fused_rows_sum_exactly() {
    let _counters = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    let (w, h) = (100usize, 37usize);
    let value = Expr::cast(
        ScalarType::UInt8,
        Expr::bin(
            BinOp::Xor,
            Expr::Image("in".into(), vec![Expr::var("x_0"), Expr::var("x_1")]),
            Expr::int(255),
        ),
    );
    let out = Func::pure("out", &["x_0", "x_1"], ScalarType::UInt8, value);
    let p = Pipeline::new(out, vec![ImageParam::new("in", ScalarType::UInt8, 2)]);
    let input = image(w, h);
    let inputs = RealizeInputs::new().with_image("in", &input);
    // Rows split across two workers.
    let schedule = Schedule::naive().with_parallel(true).with_threads(2);
    let compiled = compile_fused(&p, &schedule);
    let expected = compiled.run(&inputs, &[w, h]).expect("cold run");
    let before = CounterSnapshot::take();
    let got = compiled.run(&inputs, &[w, h]).expect("warm run");
    let delta = before.delta();
    assert_eq!(got, expected);
    assert_eq!(
        delta.fused_rows, h as u64,
        "one fused row per output row, whichever worker ran it"
    );
    // 100 lanes: one 64-lane chunk, then a tail overlapping it.
    assert_eq!(delta.fused_tails, h as u64, "one tail chunk per row");
}

/// On a host with AVX2 every fused row runs the AVX2 build of the row loop,
/// so an i32 blur moves `arch_rows` by exactly its `fused_rows`; elsewhere
/// the baseline build runs and `arch_rows` stays put. (The exec unit tests
/// pin the baseline build on an AVX2 host and see it count no arch rows.)
#[test]
fn arch_rows_count_the_fused_rows_of_the_avx2_build() {
    let _counters = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    let (w, h) = (96usize, 29usize);
    let tap = |dx: i64| {
        Expr::cast(
            ScalarType::UInt32,
            Expr::Image(
                "in".into(),
                vec![Expr::add(Expr::var("x_0"), Expr::int(dx)), Expr::var("x_1")],
            ),
        )
    };
    let sum = Expr::add(Expr::add(tap(0), Expr::mul(Expr::int(2), tap(1))), tap(2));
    let value = Expr::cast(ScalarType::UInt8, Expr::bin(BinOp::Shr, sum, Expr::uint(2)));
    let out = Func::pure("out", &["x_0", "x_1"], ScalarType::UInt8, value);
    let p = Pipeline::new(out, vec![ImageParam::new("in", ScalarType::UInt8, 2)]);
    let input = image(w + 2, h);
    let inputs = RealizeInputs::new().with_image("in", &input);
    let schedule = Schedule::naive().with_parallel(true).with_threads(2);
    let compiled = compile_fused(&p, &schedule);
    let profile = compiled.dry_run(&inputs, &[w, h]).expect("dry run");
    let out_stage = profile.stages.last().expect("output stage");
    assert_eq!(out_stage.stores[0].fused, Some(LaneFamily::I32));
    let before = CounterSnapshot::take();
    let got = compiled.run(&inputs, &[w, h]).expect("run");
    let delta = before.delta();
    let oracle = Realizer::new(Schedule::naive())
        .with_backend(ExecBackend::Interpret)
        .realize(&p, &[w, h], &inputs)
        .expect("interpreter");
    assert_eq!(got, oracle);
    assert_eq!(delta.fused_rows, h as u64, "one fused row per output row");
    let arch_rows = match Target::detect().effective_isa() {
        Isa::Avx2 => delta.fused_rows,
        Isa::Portable => 0,
    };
    assert_eq!(delta.arch_rows, arch_rows);
}
