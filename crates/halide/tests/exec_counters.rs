//! Execution counters add up across parallel workers.
//!
//! Each worker of a parallel loop counts its fused rows in its own scratch
//! and adds them to the process-wide counters once, when it finishes. This
//! file is its own test process with a single test, so nothing else runs
//! fused rows meanwhile and the counter deltas are exact.

use helium_halide::prelude::*;

#[test]
fn two_workers_fused_rows_sum_exactly() {
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
    let mut input = Buffer::new(ScalarType::UInt8, &[w, h]);
    for (i, b) in input.bytes_mut().iter_mut().enumerate() {
        *b = (i * 37 + 11) as u8;
    }
    let inputs = RealizeInputs::new().with_image("in", &input);
    // Rows split across two workers; the fused tier is pinned so the rows
    // run fused whatever the environment's tier pin.
    let schedule = Schedule::naive()
        .with_parallel(true)
        .with_threads(2)
        .with_vectorize(true);
    let options = CompileOptions {
        target: Some(Target::detect().with_tier(Tier::Simd)),
        ..CompileOptions::default()
    };
    let compiled = p.compile(&schedule, &options).expect("compile");
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
