//! End-to-end benchmark of the Helium path: lift → compile → run → serve.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <lift|run|serve> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the workload's end-to-end metrics are measured with no
//! spans recorded. With `--trace 1` the workload's own path runs traced for
//! `--seconds` and the other two paths run as short traced probes, so every
//! per-layer metric is reported; the spans are written to `perfbench_out/`
//! when the run ends. Every operation's output is checked. The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed` and
//! `metrics`.

mod lift;
mod run;
mod serve;
mod stats;
mod trace;

use helium_halide::{CacheStats, CounterSnapshot};
use stats::{mean, median, Host, Summary};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;
use trace::{per_op, self_ms_by_layer, Span, Tracer, HARNESS};

/// End-to-end metrics, reported by every workload with `--trace 0`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("goodput_per_s", "1/s"),
];

/// Per-layer metrics, reported by every workload with `--trace 1`.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = [
        ("machine.legacy_ms", "ms"),
        ("machine.steps", "count"),
        ("dbi.coverage_ms", "ms"),
        ("dbi.profile_ms", "ms"),
        ("dbi.trace_ms", "ms"),
        ("dbi.trace_records", "count"),
        ("dbi.dump_bytes", "B"),
        ("core.localize_ms", "ms"),
        ("core.layout_ms", "ms"),
        ("core.extract_ms", "ms"),
        ("core.symbolic_ms", "ms"),
        ("core.codegen_ms", "ms"),
        ("core.trees", "count"),
        ("core.clusters", "count"),
        ("core.unattributed_ms", "ms"),
        ("halide.compile_ms", "ms"),
        ("halide.first_run_ms", "ms"),
        ("halide.cache_hit_ratio", "ratio"),
        ("halide.fused_rows", "count"),
        ("halide.fused_tails", "count"),
        ("halide.arch_rows", "count"),
        ("halide.reduce_chunks", "count"),
        ("serve.service_ms", "ms"),
        ("serve.wait_ms", "ms"),
        ("serve.dispatch_us", "us"),
        ("serve.expired", "count"),
        ("serve.shed", "count"),
        ("serve.gen_lag_ms", "ms"),
        ("serve.backlog_end", "count"),
        ("serve.lo_p50_ms", "ms"),
        ("serve.lo_tail_ms", "ms"),
        ("tune.rank_ms", "ms"),
        ("tune.model_rho", "rho"),
        ("trace.lift_overhead_frac", "ratio"),
        ("trace.lift_accounted_frac", "ratio"),
        ("trace.run_overhead_frac", "ratio"),
        ("trace.run_accounted_frac", "ratio"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    for app in lift::APPS {
        m.push((format!("lift_ms.{app}"), "ms"));
    }
    for k in run::KERNELS {
        m.push((format!("halide.run_ms.{k}"), "ms"));
        m.push((format!("halide.gbps.{k}"), "GB/s"));
        m.push((format!("halide.copy_gbps.{k}"), "GB/s"));
        m.push((format!("halide.ceiling_frac.{k}"), "ratio"));
    }
    m
}

/// One reported value.
#[derive(Debug, Clone)]
struct Metric {
    value: f64,
    /// Extra context for the human-readable report (tail percentile, n).
    detail: String,
}

#[derive(Debug, Default)]
struct Outcome {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    metrics: BTreeMap<String, Metric>,
    notes: Vec<String>,
}

impl Outcome {
    fn set(&mut self, name: &str, value: f64) {
        self.set_with(name, value, String::new());
    }

    fn set_with(&mut self, name: &str, value: f64, detail: String) {
        self.metrics
            .insert(name.to_string(), Metric { value, detail });
    }

    fn fail(&mut self, errors: Vec<String>) {
        if !errors.is_empty() {
            self.failed += 1;
            for e in errors {
                if self.errors.len() < 8 {
                    self.errors.push(e);
                }
            }
        }
    }

    /// Count a served phase's requests and failures.
    fn count(&mut self, p: &serve::Phase) {
        self.attempted += p.attempted;
        self.failed += p.failed;
        self.errors.extend(p.errors.iter().cloned());
    }

    /// `p50_ms` and `tail_ms` from latency samples.
    fn latency(&mut self, prefix: &str, samples: &[f64]) {
        if let Some(s) = Summary::of(samples) {
            let detail = format!("n={} iqr/median={:.3}", s.n, s.iqr_frac());
            self.set_with(&format!("{prefix}p50_ms"), s.median, detail);
            let detail = format!("p{:.1} of n={}", s.tail_pct, s.n);
            self.set_with(&format!("{prefix}tail_ms"), s.tail, detail);
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["lift", "run", "serve"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload} (lift, run, serve)"));
    }
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let host = Host::detect();
    let result = if args.trace {
        traced(&args)
    } else {
        match args.workload.as_str() {
            "lift" => e2e_lift(&args),
            "run" => e2e_run(&args),
            _ => e2e_serve(&args),
        }
    };
    let mut out = match result {
        Ok(o) => o,
        Err(invalid) => {
            eprintln!("perfbench: invalid run, not reported: {invalid}");
            std::process::exit(3);
        }
    };
    if !args.trace {
        out.set("peak_rss_mb", stats::peak_rss_mb());
    }
    let expected: Vec<(String, &str)> = if args.trace {
        per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    print!("{}", report(&args, &host, &out, &expected));
}

/// Human-readable report followed by the one-line JSON result.
fn report(args: &Args, host: &Host, out: &Outcome, expected: &[(String, &str)]) -> String {
    let mut text = String::new();
    let _ = writeln!(
        text,
        "# perfbench workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let _ = writeln!(
        text,
        "# host: cpu=\"{}\" nproc={} l2={} l3={} isa={}",
        host.cpu, host.nproc, host.l2, host.l3, host.isa
    );
    for note in &out.notes {
        let _ = writeln!(text, "# {note}");
    }
    for e in &out.errors {
        let _ = writeln!(text, "# failure: {e}");
    }
    let _ = writeln!(
        text,
        "# attempted={} failed={} failed_frac={}",
        out.attempted,
        out.failed,
        out.failed as f64 / out.attempted.max(1) as f64
    );
    let mut json = String::new();
    for (i, (name, unit)) in expected.iter().enumerate() {
        let m = out
            .metrics
            .get(name)
            .unwrap_or_else(|| panic!("metric {name} was not measured"));
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = writeln!(text, "{name:<32} {value:>16.6} {unit:<6} {}", m.detail);
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    let correct = out.failed == 0;
    let _ = writeln!(
        text,
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        out.attempted.max(1),
        out.failed
    );
    text
}

/// Run `setup` `times` times, timing each; keep the last result.
fn timed_setups<T>(times: usize, mut setup: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut samples = Vec::with_capacity(times);
    let mut last = None;
    for _ in 0..times {
        drop(last.take());
        let start = Instant::now();
        last = Some(setup());
        samples.push(start.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), samples)
}

fn set_setup(out: &mut Outcome, samples: &[f64]) {
    let detail = format!("median of {} set-ups", samples.len());
    out.set_with("setup_s", median(samples), detail);
}

/// Closed loop: call `op` until `seconds` have passed (and at least
/// `min_ops` times). Returns the per-operation times and the loop's wall
/// time in seconds.
fn closed_loop(
    seconds: f64,
    min_ops: usize,
    out: &mut Outcome,
    mut op: impl FnMut() -> (f64, Vec<String>),
) -> (Vec<f64>, f64) {
    let start = Instant::now();
    let mut times = Vec::new();
    while times.len() < min_ops || start.elapsed().as_secs_f64() < seconds {
        let (ms, errors) = op();
        out.attempted += 1;
        times.push(ms);
        out.fail(errors);
    }
    (times, start.elapsed().as_secs_f64())
}

fn e2e_lift(args: &Args) -> Result<Outcome, String> {
    let off = Tracer::new(false);
    let mut out = Outcome::default();
    let apps = lift::setup(args.seed, &off);
    // Set-up is short, so a fresh one is timed before every round: its
    // median then spans the whole run, not the host's state at the start.
    let mut setups = Vec::new();
    let (times, wall) = closed_loop(args.seconds, 3, &mut out, || {
        let start = Instant::now();
        drop(lift::setup(args.seed, &off));
        setups.push(start.elapsed().as_secs_f64());
        lift::round(&apps, &off)
    });
    set_setup(&mut out, &setups);
    out.latency("", &times);
    let good = out.attempted - out.failed;
    let busy = wall - setups.iter().sum::<f64>();
    out.set("goodput_per_s", good as f64 / busy);
    Ok(out)
}

fn e2e_run(args: &Args) -> Result<Outcome, String> {
    let off = Tracer::new(false);
    let mut out = Outcome::default();
    let (mut kernels, setups) = timed_setups(3, || run::setup(args.seed, &off));
    set_setup(&mut out, &setups);
    run::oracle(&mut kernels);
    let (times, wall) = closed_loop(args.seconds, 5, &mut out, || {
        let (t, errors) = run::round(&kernels, &off);
        (t.iter().sum(), errors)
    });
    out.latency("", &times);
    let good = out.attempted - out.failed;
    out.set("goodput_per_s", good as f64 / wall);
    Ok(out)
}

fn e2e_serve(args: &Args) -> Result<Outcome, String> {
    let off = Tracer::new(false);
    let mut out = Outcome::default();
    let (mut setup, setups) = timed_setups(3, || serve::setup(args.seed, &off));
    set_setup(&mut out, &setups);
    serve::oracle(&mut setup);
    let arrivals = serve::schedule(args.seed, HI_PHASE, serve::HI_RPS, args.seconds);
    let hi = match kept_phase(&mut setup, &arrivals, &mut out.notes) {
        (hi, None) => hi,
        (_, Some(invalid)) => return Err(invalid),
    };
    out.count(&hi);
    out.latency("", &hi.latency_ms);
    out.set_with(
        "goodput_per_s",
        hi.good as f64 / hi.span_s,
        format!("offered {} rps, limit {:?}", serve::HI_RPS, serve::LIMIT),
    );
    out.notes.push(format!(
        "serve hi: generator lag p99 {:.3} ms, backlog at end {}",
        lag_p99(&hi),
        hi.backlog_end
    ));
    Ok(out)
}

const LO_PHASE: u64 = 1;
const HI_PHASE: u64 = 2;
const DIRECT_PHASE: u64 = 3;
/// Times an open-loop phase is sent before its run is given up as invalid.
const PHASE_TRIES: usize = 3;

fn lag_p99(p: &serve::Phase) -> f64 {
    let mut lag = p.lag_ms.clone();
    lag.sort_by(f64::total_cmp);
    lag.get((lag.len() * 99 / 100).min(lag.len().saturating_sub(1)))
        .copied()
        .unwrap_or(0.0)
}

/// An open-loop run whose generator fell behind did not offer the
/// scheduled load; it is invalid rather than reported.
fn check_generator(p: &serve::Phase) -> Result<(), String> {
    let lag = lag_p99(p);
    if lag > serve::GEN_LAG_LIMIT.as_secs_f64() * 1e3 {
        return Err(format!(
            "generator p99 lag {lag:.2} ms exceeds {:?}",
            serve::GEN_LAG_LIMIT
        ));
    }
    Ok(())
}

/// Send `arrivals` until the generator keeps to the schedule, at most
/// [`PHASE_TRIES`] times; a phase it did not keep is sent again and not
/// counted. Returns the kept phase, or the last one with the reason it is
/// invalid.
fn kept_phase(
    setup: &mut serve::Setup,
    arrivals: &[serve::Arrival],
    notes: &mut Vec<String>,
) -> (serve::Phase, Option<String>) {
    let mut tries = 0;
    loop {
        tries += 1;
        let p = serve::phase(setup, arrivals);
        match check_generator(&p) {
            Ok(()) => return (p, None),
            Err(e) if tries < PHASE_TRIES => notes.push(format!("phase sent again: {e}")),
            Err(e) => return (p, Some(e)),
        }
    }
}

/// The traced run: the workload's own path for `--seconds`, the other two
/// as probes.
fn traced(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let own = args.workload.as_str();
    let budget = |path: &str| (path == own).then_some(args.seconds);
    trace_lift(args, budget("lift"), &mut out);
    trace_run(args, budget("run"), &mut out);
    trace_serve(args, budget("serve"), &mut out)?;
    Ok(out)
}

fn write_spans(args: &Args, path: &str, tracer: &Tracer) {
    let file = std::path::PathBuf::from("perfbench_out").join(format!(
        "spans-{}-{}-seed{}.jsonl",
        args.workload, path, args.seed
    ));
    if let Err(e) = tracer.write(&file) {
        eprintln!("perfbench: could not write {}: {e}", file.display());
    }
}

/// Median over operations of the summed durations of the picked spans.
fn op_median(spans: &[Span], pick: impl Fn(&Span) -> bool) -> f64 {
    median(&per_op(spans, pick))
}

/// Top-level layer calls of an operation (children of its root span that
/// are not harness work): the traced counterpart of an untraced op time.
fn top_level_calls(spans: &[Span]) -> impl Fn(&Span) -> bool + '_ {
    move |s: &Span| {
        s.layer != HARNESS
            && s.parent
                .is_some_and(|p| spans[p].parent.is_none() && spans[p].op > 0)
    }
}

/// Share of the operations' time spent inside layer calls.
fn accounted_frac(spans: &[Span]) -> f64 {
    let by_layer = self_ms_by_layer(spans);
    let total: f64 = by_layer.values().sum();
    let layers: f64 = by_layer
        .iter()
        .filter(|(l, _)| **l != HARNESS)
        .map(|(_, v)| v)
        .sum();
    layers / total.max(f64::MIN_POSITIVE)
}

/// Summed durations (ms) of the set-up spans named `name`.
fn setup_sum(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.op == 0 && s.name == name)
        .map(Span::ms)
        .sum()
}

/// Program-cache hits over lookups.
fn hit_ratio(stats: impl Iterator<Item = CacheStats>) -> f64 {
    let (hits, misses) = stats.fold((0, 0), |(h, m), s| (h + s.hits, m + s.misses));
    hits as f64 / (hits + misses).max(1) as f64
}

/// The `halide.*` metrics of the workload's own path: compile and cold-run
/// time, program-cache hit ratio, and execution counters per operation.
fn set_halide(
    out: &mut Outcome,
    compile_ms: f64,
    first_run_ms: f64,
    hit_ratio: f64,
    counters: BTreeMap<&'static str, f64>,
) {
    out.set("halide.compile_ms", compile_ms);
    out.set("halide.first_run_ms", first_run_ms);
    out.set("halide.cache_hit_ratio", hit_ratio);
    for (name, v) in counters {
        out.set(&format!("halide.{name}"), v);
    }
}

fn trace_lift(args: &Args, own: Option<f64>, out: &mut Outcome) {
    let tracer = Tracer::new(true);
    let off = Tracer::new(false);
    let apps = lift::setup(args.seed, &tracer);
    // Untraced rounds first, then traced rounds, for the overhead.
    let (untraced_s, traced_s, min_ops) = own.map_or((0.0, 0.0, 2), |s| (s / 4.0, s * 0.75, 3));
    let (untraced, _) = closed_loop(untraced_s, min_ops, out, || lift::round(&apps, &off));
    let counters = CounterSnapshot::take();
    let mut reference: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut lift_sums = Vec::new();
    let (mut trees, mut clusters, mut records, mut dump) = (0, 0, 0, 0);
    let mut rounds = 0u64;
    let start = Instant::now();
    while (rounds as usize) < min_ops || start.elapsed().as_secs_f64() < traced_s {
        rounds += 1;
        let mut errors = Vec::new();
        let mut lift_sum = 0.0;
        for app in &apps {
            let replayed = tracer.op(rounds, || {
                let replayed = app.replay(&tracer);
                match &replayed {
                    Ok((lifted, _)) => errors.extend(app.check(lifted, &tracer, &mut 0.0).err()),
                    Err(e) => errors.push(format!("{}: replay failed: {e}", app.name)),
                }
                replayed
            });
            // The reference lift runs outside the operation.
            let t = Instant::now();
            let reference_lift = app.lift();
            let ms = t.elapsed().as_secs_f64() * 1e3;
            reference.entry(app.name).or_default().push(ms);
            lift_sum += ms;
            match (replayed, reference_lift) {
                (Ok((r, n)), Ok(l)) => {
                    if !lift::equivalent(&r, &l) {
                        errors.push(format!("{}: replay lifted a different program", app.name));
                    }
                    trees += n;
                    clusters += r.clusters.len();
                    records += r.stats.dynamic_instruction_count;
                    dump += r.stats.memory_dump_bytes;
                }
                (_, Err(e)) => errors.push(format!("{}: lift failed: {e}", app.name)),
                _ => {}
            }
        }
        lift_sums.push(lift_sum);
        out.attempted += 1;
        out.fail(errors);
    }
    let spans = tracer.spans();
    write_spans(args, "lift", &tracer);
    let per_round = |v: usize| v as f64 / rounds as f64;
    let named = |layer: &'static str, name: &'static str| {
        op_median(&spans, move |s| s.layer == layer && s.name == name)
    };
    out.set(
        "machine.legacy_ms",
        spans
            .iter()
            .filter(|s| s.op == 0 && s.layer == "machine")
            .map(Span::ms)
            .sum(),
    );
    out.set(
        "machine.steps",
        apps.iter().map(|a| a.legacy_steps as f64).sum(),
    );
    out.set("dbi.coverage_ms", named("dbi", "coverage"));
    out.set("dbi.profile_ms", named("dbi", "profile"));
    out.set("dbi.trace_ms", named("dbi", "trace"));
    out.set("dbi.trace_records", per_round(records));
    out.set("dbi.dump_bytes", per_round(dump));
    out.set("core.localize_ms", named("core", "localize"));
    out.set("core.layout_ms", named("core", "layout"));
    out.set("core.extract_ms", named("core", "extract"));
    out.set("core.symbolic_ms", named("core", "symbolic"));
    out.set("core.codegen_ms", named("core", "codegen"));
    out.set("core.trees", per_round(trees));
    out.set("core.clusters", per_round(clusters));
    let phases = per_op(&spans, |s| s.layer == "dbi" || s.layer == "core");
    let unattributed: Vec<f64> = lift_sums.iter().zip(&phases).map(|(l, p)| l - p).collect();
    out.set_with(
        "core.unattributed_ms",
        median(&unattributed),
        "Lifter::lift minus the replayed dbi and core phases".into(),
    );
    for (app, times) in &reference {
        out.set(&format!("lift_ms.{app}"), median(times));
    }
    let traced_op = op_median(&spans, top_level_calls(&spans));
    out.set_with(
        "trace.lift_overhead_frac",
        traced_op / median(&untraced) - 1.0,
        format!(
            "traced {traced_op:.3} ms vs untraced {:.3} ms",
            median(&untraced)
        ),
    );
    out.set("trace.lift_accounted_frac", accounted_frac(&spans));
    if own.is_some() {
        // Every round compiles afresh and runs once: one miss, no hit.
        set_halide(
            out,
            named("halide", "compile"),
            named("halide", "first_run"),
            0.0,
            run::counters_per_round(&counters, rounds as usize),
        );
    }
}

fn trace_run(args: &Args, own: Option<f64>, out: &mut Outcome) {
    let tracer = Tracer::new(true);
    let off = Tracer::new(false);
    let mut kernels = run::setup(args.seed, &tracer);
    run::oracle(&mut kernels);
    let (untraced_s, traced_s, min_ops) = own.map_or((0.0, 0.0, 3), |s| (s / 4.0, s * 0.75, 5));
    let (untraced, _) = closed_loop(untraced_s, min_ops, out, || {
        let (t, errors) = run::round(&kernels, &off);
        (t.iter().sum(), errors)
    });
    let counters = CounterSnapshot::take();
    let mut round = 0;
    let (traced, _) = closed_loop(traced_s, min_ops, out, || {
        round += 1;
        let (t, errors) = tracer.op(round, || run::round(&kernels, &tracer));
        (t.iter().sum(), errors)
    });
    // Taken before the schedule ranking below, which runs kernels too.
    let counters = run::counters_per_round(&counters, round as usize);
    let spans = tracer.spans();
    write_spans(args, "run", &tracer);
    for k in &kernels {
        let span_name = format!("run.{}", k.name);
        let ms = op_median(&spans, |s| s.name == span_name);
        let gbps = k.bytes_moved as f64 / (ms / 1e3) / 1e9;
        let copy = run::copy_gbps(k.array_bytes());
        out.set_with(
            &format!("halide.run_ms.{}", k.name),
            ms,
            format!("extents {:?}", k.extents),
        );
        out.set_with(
            &format!("halide.gbps.{}", k.name),
            gbps,
            format!("computed: {} bytes in+out per run", k.bytes_moved),
        );
        out.set_with(
            &format!("halide.copy_gbps.{}", k.name),
            copy,
            format!("cache-level slice copy of {} bytes", k.array_bytes()),
        );
        out.set(&format!("halide.ceiling_frac.{}", k.name), gbps / copy);
    }
    let (rank_ms, rho) = run::rank_and_measure(&kernels, 8);
    out.set("tune.rank_ms", rank_ms);
    out.set("tune.model_rho", rho);
    let traced_op = median(&traced);
    out.set_with(
        "trace.run_overhead_frac",
        traced_op / median(&untraced) - 1.0,
        format!(
            "traced {traced_op:.3} ms vs untraced {:.3} ms",
            median(&untraced)
        ),
    );
    out.set("trace.run_accounted_frac", accounted_frac(&spans));
    if own.is_some() {
        set_halide(
            out,
            setup_sum(&spans, "compile"),
            setup_sum(&spans, "first_run"),
            hit_ratio(kernels.iter().map(|k| k.compiled.cache_stats())),
            counters,
        );
    }
}

fn trace_serve(args: &Args, own: Option<f64>, out: &mut Outcome) -> Result<(), String> {
    let tracer = Tracer::new(true);
    let mut setup = serve::setup(args.seed, &tracer);
    serve::oracle(&mut setup);
    let (lo_s, hi_s) = own.map_or((1.5, 2.0), |s| (s * 0.3, s * 0.7));
    let lo_arrivals = serve::schedule(args.seed, LO_PHASE, serve::LO_RPS, lo_s);
    let (lo, lo_invalid) = tracer.span("serve", "phase.lo", || {
        kept_phase(&mut setup, &lo_arrivals, &mut out.notes)
    });
    let hi_arrivals = serve::schedule(args.seed, HI_PHASE, serve::HI_RPS, hi_s);
    let counters = CounterSnapshot::take();
    let sent = setup.server.stats().submitted;
    let (hi, hi_invalid) = tracer.span("serve", "phase.hi", || {
        kept_phase(&mut setup, &hi_arrivals, &mut out.notes)
    });
    // Per accepted request, over every time the phase was sent.
    let sent = (setup.server.stats().submitted - sent) as usize;
    let counters = run::counters_per_round(&counters, sent);
    let invalid = lo_invalid.or(hi_invalid);
    if let (Some(e), Some(_)) = (&invalid, own) {
        return Err(e.clone());
    }
    let mix = serve::schedule(args.seed, DIRECT_PHASE, serve::HI_RPS, 1.0);
    let (service, direct_failed) =
        tracer.span("serve", "direct", || serve::direct(&mut setup, &mix));
    write_spans(args, "serve", &tracer);
    if invalid.is_none() {
        out.count(&lo);
        out.count(&hi);
    }
    out.attempted += mix.len() as u64;
    out.failed += direct_failed;
    // Means, not medians: invert costs about a third of blur and sharpen,
    // so the mix is bimodal and a median lands on either mode.
    let service_ms = mean(&service);
    out.set_with(
        "serve.service_ms",
        service_ms,
        format!(
            "mean of n={} direct realizes of the request mix",
            service.len()
        ),
    );
    out.set("serve.wait_ms", mean(&hi.latency_ms) - service_ms);
    out.set(
        "serve.dispatch_us",
        (mean(&lo.latency_ms) - service_ms) * 1e3,
    );
    out.set("serve.expired", (lo.expired + hi.expired) as f64);
    out.set("serve.shed", (lo.shed + hi.shed) as f64);
    out.set("serve.gen_lag_ms", lag_p99(&hi));
    out.set("serve.backlog_end", hi.backlog_end as f64);
    out.latency("serve.lo_", &lo.latency_ms);
    if let Some(e) = invalid {
        // A probe the generator never kept: the traced run of the other
        // path stands, and only the serve figures are marked.
        for (_, m) in out
            .metrics
            .iter_mut()
            .filter(|(n, _)| n.starts_with("serve."))
        {
            m.detail = format!("invalid: {e}");
        }
    }
    if own.is_some() {
        let spans = tracer.spans();
        set_halide(
            out,
            setup_sum(&spans, "compile"),
            setup_sum(&spans, "first_run"),
            hit_ratio(setup.kernels.iter().map(|k| k.compiled.cache_stats())),
            counters,
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` declares exactly the metrics this program reports.
    #[test]
    fn benchmark_json_lists_every_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let declared: Vec<&str> = text
            .split("\"name\": \"")
            .skip(1)
            .map(|s| s.split('"').next().unwrap())
            .collect();
        let mut reported: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        reported.extend(per_layer().into_iter().map(|(n, _)| n));
        // `lift` runs by hand and as a traced probe, but is not listed: its
        // round time follows the host's speed for scalar code too closely
        // to hold a bound.
        for w in ["run", "serve"] {
            reported.push(w.to_string());
        }
        let mut a: Vec<&str> = declared.clone();
        let mut b: Vec<&str> = reported.iter().map(String::as_str).collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }
}
