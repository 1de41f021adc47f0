//! The `serve` path: an open loop of tile requests into a [`Server`].
//!
//! Set-up lifts the fig7 `invert`, `blur` and `sharpen` binaries, compiles
//! each primary kernel under a serial schedule, makes a pool of
//! seed-generated 320×240 input tiles per kernel with their expected outputs
//! (interpreter backend), starts a `Server` with one worker per core and runs
//! each kernel once at the tile extent. A phase then sends requests on an
//! arrival schedule built from the seed: Poisson arrivals at a fixed absolute
//! rate, a seed-chosen kernel and tile per request, and a fixed share of
//! requests over a never-seen extent that misses the program cache and
//! compiles. Every request carries the same latency limit as its deadline.

use crate::lift::{mix, App};
use crate::stats::nproc;
use crate::trace::Tracer;
use helium_halide::{
    Buffer, CompileOptions, CompiledPipeline, ExecBackend, RealizeError, RealizeInputs, ScalarType,
    Schedule, Value,
};
use helium_serve::{ServeConfig, ServeRequest, Server, SubmitError, Ticket};
use std::sync::mpsc::{self, TryRecvError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Output tile of every request that hits the program cache.
pub const TILE: (usize, usize) = (320, 240);
/// Offered rate of the `lo` phase (requests/s): about 10% of the capacity
/// measured on a 2-core Xeon with AVX2, where a closed burst of this mix
/// completes ~1,900 requests/s. That host is shared, and its speed drifts
/// by up to 1.8× over minutes; the rates keep the `hi` phase below half
/// of the capacity even in a slow period, so queueing does not amplify
/// the drift.
pub const LO_RPS: f64 = 200.0;
/// Offered rate of the `hi` phase (requests/s): about 25% of that capacity.
pub const HI_RPS: f64 = 480.0;
/// Latency limit and deadline of every request.
pub const LIMIT: Duration = Duration::from_millis(250);
/// Server queue depth: room for a full latency limit of `hi` arrivals, so
/// the deadline, not the queue bound, is what refuses late work.
const QUEUE_DEPTH: usize = 1024;
/// Share of requests over a never-seen extent (a program-cache miss).
pub const MISS_SHARE: f64 = 0.02;
/// Input tiles per kernel.
const TILES_PER_KERNEL: usize = 3;
/// A run whose generator sent its 99th-percentile request later than this
/// after its due time is invalid: the offered load was not the schedule.
pub const GEN_LAG_LIMIT: Duration = Duration::from_millis(20);
/// How long the collector sleeps when no pending ticket has completed: the
/// resolution of a completion stamp. Sleeping rather than spinning leaves
/// the cores to the server's workers.
const POLL: Duration = Duration::from_micros(20);

const APPS: [&str; 3] = ["invert", "blur", "sharpen"];

/// A served kernel and its tile pool.
pub struct ServeKernel {
    /// App name.
    pub name: &'static str,
    /// Compiled under a serial schedule, shared with the server.
    pub compiled: Arc<CompiledPipeline>,
    image: String,
    params: Vec<(String, Value)>,
    /// `(input, expected output over TILE)` pairs.
    tiles: Vec<(Arc<Buffer>, Buffer)>,
}

/// Kernels plus a running server.
pub struct Setup {
    /// The served kernels.
    pub kernels: Vec<ServeKernel>,
    /// The server (one worker per core).
    pub server: Server,
    /// Never-seen extents handed out so far, per kernel.
    misses: Vec<usize>,
}

/// The request schedule of a phase.
#[derive(Debug, Clone, PartialEq)]
pub struct Arrival {
    /// Due time, from the phase start.
    pub due: Duration,
    /// Index into [`Setup::kernels`].
    pub kernel: usize,
    /// Index into the kernel's tile pool.
    pub tile: usize,
    /// Whether the request uses a never-seen extent.
    pub miss: bool,
}

/// Poisson arrivals at `rate` per second over `seconds`, from `seed`.
pub fn schedule(seed: u64, phase: u64, rate: f64, seconds: f64) -> Vec<Arrival> {
    let mut arrivals = Vec::new();
    let mut t = 0.0;
    let unit = |k: u64| ((mix(seed, k) >> 11) as f64 + 0.5) / (1u64 << 53) as f64;
    let base = phase << 40;
    for i in 0.. {
        t += -unit(base + 4 * i).ln() / rate;
        if t >= seconds {
            break;
        }
        arrivals.push(Arrival {
            due: Duration::from_secs_f64(t),
            kernel: (mix(seed, base + 4 * i + 1) % APPS.len() as u64) as usize,
            tile: (mix(seed, base + 4 * i + 2) % TILES_PER_KERNEL as u64) as usize,
            miss: unit(base + 4 * i + 3) < MISS_SHARE,
        });
    }
    arrivals
}

/// Lift and compile the served kernels, build the tile pools, start the
/// server and warm each kernel at the tile extent. Expected outputs come
/// from [`oracle`].
pub fn setup(seed: u64, tracer: &Tracer) -> Setup {
    let schedule = Schedule::stencil_default().with_parallel(false);
    let kernels = APPS
        .iter()
        .enumerate()
        .map(|(k, &name)| {
            let app = App::new(name, seed, tracer);
            let lifted = tracer
                .span("core", "lift", || app.lift())
                .expect("fig7 kernels lift");
            let kernel = lifted.primary();
            let compiled = tracer
                .span("halide", "compile", || {
                    kernel
                        .pipeline
                        .compile(&schedule, &CompileOptions::default())
                })
                .expect("served kernels compile");
            let image = kernel
                .pipeline
                .images
                .keys()
                .next()
                .expect("one input")
                .clone();
            let tiles = (0..TILES_PER_KERNEL)
                .map(|t| {
                    let mut input = Buffer::new(ScalarType::UInt8, &[TILE.0 + 2, TILE.1 + 2]);
                    let salt = 1000 + 16 * k as u64 + t as u64;
                    for (i, b) in input.bytes_mut().iter_mut().enumerate() {
                        *b = mix(seed ^ salt, i as u64) as u8;
                    }
                    (Arc::new(input), Buffer::new(ScalarType::UInt8, &[1]))
                })
                .collect();
            let sk = ServeKernel {
                name,
                compiled: Arc::new(compiled),
                image,
                params: kernel
                    .parameter_values
                    .iter()
                    .map(|(n, v)| (n.clone(), *v))
                    .collect(),
                tiles,
            };
            tracer
                .span("halide", "first_run", || {
                    sk.run_direct(&sk.compiled, 0, &[TILE.0, TILE.1])
                })
                .expect("served kernels realize");
            sk
        })
        .collect::<Vec<_>>();
    let server = tracer.span("serve", "start", || {
        Server::start(
            ServeConfig::default()
                .with_workers(nproc())
                .with_queue_depth(QUEUE_DEPTH),
        )
    });
    Setup {
        misses: vec![0; kernels.len()],
        kernels,
        server,
    }
}

impl ServeKernel {
    fn inputs(&self, tile: usize) -> RealizeInputs<'_> {
        let mut inputs = RealizeInputs::new().with_image(&self.image, &self.tiles[tile].0);
        for (n, v) in &self.params {
            inputs = inputs.with_param(n, *v);
        }
        inputs
    }

    /// Realize on this thread, without the server.
    pub fn run_direct(
        &self,
        compiled: &CompiledPipeline,
        tile: usize,
        extents: &[usize],
    ) -> Result<Buffer, RealizeError> {
        compiled.run(&self.inputs(tile), extents)
    }

    fn request(&self, tile: usize, extents: &[usize]) -> ServeRequest {
        let mut r = ServeRequest::new(Arc::clone(&self.compiled), extents)
            .with_image(&self.image, Arc::clone(&self.tiles[tile].0));
        for (n, v) in &self.params {
            r = r.with_param(n, *v);
        }
        r
    }

    /// Whether `out` is the expected tile cropped to its extents.
    fn matches(&self, tile: usize, out: &Buffer) -> bool {
        let want = &self.tiles[tile].1;
        let (w, h) = (out.extents()[0], out.extents()[1]);
        out.scalar_type() == ScalarType::UInt8
            && w <= TILE.0
            && h <= TILE.1
            && (0..h).all(|y| {
                out.bytes()[y * w..(y + 1) * w] == want.bytes()[y * TILE.0..y * TILE.0 + w]
            })
    }
}

/// Compute every tile's expected output with the interpreter backend.
pub fn oracle(setup: &mut Setup) {
    for k in setup.kernels.iter_mut() {
        let interp = k
            .compiled
            .pipeline()
            .compile(
                &Schedule::naive(),
                &CompileOptions {
                    backend: ExecBackend::Interpret,
                    ..CompileOptions::default()
                },
            )
            .expect("interpreter compile");
        for t in 0..k.tiles.len() {
            let want = k
                .run_direct(&interp, t, &[TILE.0, TILE.1])
                .expect("interpreter realize");
            k.tiles[t].1 = want;
        }
    }
}

impl Setup {
    /// Output extents of `a`: the tile, or a never-seen smaller extent.
    fn extents(&mut self, a: &Arrival) -> [usize; 2] {
        if !a.miss {
            return [TILE.0, TILE.1];
        }
        let n = self.misses[a.kernel];
        self.misses[a.kernel] += 1;
        [TILE.0 - 1 - n % 64, TILE.1 - 1 - (n / 64) % 64]
    }
}

/// What one phase measured.
#[derive(Debug, Default)]
pub struct Phase {
    /// Requests on the schedule.
    pub attempted: u64,
    /// Refused, shed, expired, failed or wrong responses.
    pub failed: u64,
    /// Responses expired at their deadline.
    pub expired: u64,
    /// Submissions shed by overload control.
    pub shed: u64,
    /// Latency (ms) of every correct response, from its due time.
    pub latency_ms: Vec<f64>,
    /// Correct responses within [`LIMIT`].
    pub good: u64,
    /// How late the generator sent each request (ms).
    pub lag_ms: Vec<f64>,
    /// Requests accepted but not completed when the schedule ended.
    pub backlog_end: u64,
    /// Length of the schedule (s).
    pub span_s: f64,
    /// The first few failure reasons.
    pub errors: Vec<String>,
}

impl Phase {
    fn fail(&mut self, error: String) {
        self.failed += 1;
        if self.errors.len() < 4 {
            self.errors.push(error);
        }
    }
}

/// A request as the generator hands it to the collector: kernel, tile, due
/// time and the submission's outcome.
type Sent = (usize, usize, Instant, Result<Ticket, SubmitError>);

/// Send `arrivals` open-loop and collect every ticket.
pub fn phase(setup: &mut Setup, arrivals: &[Arrival]) -> Phase {
    let requests: Vec<(usize, usize, ServeRequest)> = arrivals
        .iter()
        .map(|a| {
            let extents = setup.extents(a);
            let k = &setup.kernels[a.kernel];
            (a.kernel, a.tile, k.request(a.tile, &extents))
        })
        .collect();
    let before = setup.server.stats();
    let (tx, rx) = mpsc::channel::<Sent>();
    let kernels = &setup.kernels;
    let server = &setup.server;
    let mut out = std::thread::scope(|s| {
        let collector = s.spawn(move || collect(kernels, rx));
        let mut lag_ms = Vec::with_capacity(arrivals.len());
        let start = Instant::now() + Duration::from_millis(5);
        for (a, (kernel, tile, request)) in arrivals.iter().zip(requests) {
            let due = start + a.due;
            let now = Instant::now();
            if now < due {
                std::thread::sleep(due - now);
            }
            lag_ms.push(due.elapsed().as_secs_f64() * 1e3);
            let submitted = server.try_submit(request.with_deadline(due + LIMIT));
            tx.send((kernel, tile, due, submitted))
                .expect("collector alive");
        }
        let at_end = server.stats();
        drop(tx);
        let mut out = collector.join().expect("collector thread");
        out.lag_ms = lag_ms;
        out.backlog_end = at_end.submitted - at_end.completed;
        out
    });
    let after = setup.server.stats();
    out.attempted = arrivals.len() as u64;
    out.span_s = arrivals.last().map_or(0.0, |a| a.due.as_secs_f64());
    out.expired = after.expired - before.expired;
    out.shed = after.shed - before.shed;
    out
}

/// Check every ticket and stamp its latency as soon as it is seen done. One
/// thread polls all pending tickets, so a slow request does not delay the
/// stamps of those that finish after it.
fn collect(kernels: &[ServeKernel], rx: mpsc::Receiver<Sent>) -> Phase {
    let mut out = Phase::default();
    let mut pending: Vec<(usize, usize, Instant, Ticket)> = Vec::new();
    let mut open = true;
    while open || !pending.is_empty() {
        // Block for the next request only when nothing is in flight.
        let mut next = if pending.is_empty() {
            rx.recv().map_err(|_| TryRecvError::Disconnected)
        } else {
            rx.try_recv()
        };
        loop {
            match next {
                Ok((kernel, tile, due, Ok(ticket))) => pending.push((kernel, tile, due, ticket)),
                Ok((kernel, _, _, Err(e))) => out.fail(format!(
                    "{}: refused: {}",
                    kernels[kernel].name,
                    refusal(&e)
                )),
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    open = false;
                    break;
                }
            }
            next = rx.try_recv();
        }
        let in_flight = pending.len();
        pending.retain(|(kernel, tile, due, ticket)| {
            if !ticket.is_done() {
                return true;
            }
            let ms = due.elapsed().as_secs_f64() * 1e3;
            let k = &kernels[*kernel];
            match ticket.clone().wait() {
                Ok(buf) if k.matches(*tile, &buf) => {
                    out.latency_ms.push(ms);
                    out.good += u64::from(ms <= LIMIT.as_secs_f64() * 1e3);
                }
                Ok(_) => out.fail(format!("{}: wrong tile", k.name)),
                Err(e) => out.fail(format!("{}: {e}", k.name)),
            }
            false
        });
        if pending.len() == in_flight && !pending.is_empty() {
            std::thread::sleep(POLL);
        }
    }
    out
}

fn refusal(e: &SubmitError) -> &'static str {
    match e {
        SubmitError::QueueFull(_) => "queue full",
        SubmitError::ShuttingDown(_) => "shutting down",
        SubmitError::QuotaExceeded(_) => "quota exceeded",
        SubmitError::Shed(_) => "shed",
    }
}

/// The same request mix realized directly on this thread, with no server:
/// per-request service times (ms) and failures.
pub fn direct(setup: &mut Setup, arrivals: &[Arrival]) -> (Vec<f64>, u64) {
    let mut times = Vec::with_capacity(arrivals.len());
    let mut failed = 0;
    for a in arrivals {
        let extents = setup.extents(a);
        let k = &setup.kernels[a.kernel];
        let start = Instant::now();
        let out = k.run_direct(&k.compiled, a.tile, &extents);
        times.push(start.elapsed().as_secs_f64() * 1e3);
        if !out.is_ok_and(|b| k.matches(a.tile, &b)) {
            failed += 1;
        }
    }
    (times, failed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrival_schedules_repeat_per_seed() {
        let a = schedule(11, 1, 800.0, 2.0);
        assert_eq!(a, schedule(11, 1, 800.0, 2.0));
        assert_ne!(a, schedule(12, 1, 800.0, 2.0));
        assert_ne!(a, schedule(11, 2, 800.0, 2.0));
        // Poisson at 800/s over 2 s: about 1600 requests, 1% misses.
        assert!((1400..1800).contains(&a.len()), "{} arrivals", a.len());
        assert!(a.windows(2).all(|w| w[0].due <= w[1].due));
        let misses = a.iter().filter(|r| r.miss).count();
        assert!((3..50).contains(&misses), "{misses} misses");
        for k in 0..APPS.len() {
            assert!(a.iter().any(|r| r.kernel == k));
        }
    }
}
