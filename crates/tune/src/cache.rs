//! The persistent schedule cache: winning schedules keyed by
//! `fingerprint_pipeline × extents × backend`, the sibling of the halide
//! crate's `ProgramCache`.
//!
//! A serving process pays the guided search once: the winner is inserted
//! here, serialized to the path named by [`SCHEDULE_CACHE_ENV`], and every
//! later process warms up with **zero timed trials** (see
//! [`crate::guided_search_cached`] and `helium_serve`'s warm hook).
//!
//! The workspace's `serde` is a no-op API shim (no real serialization), so
//! persistence is a hand-rolled versioned text format: one header line, then
//! one entry per line with percent-escaped func names. The format is strict
//! on load ([`ScheduleCache::from_text`]) with a lenient wrapper
//! ([`ScheduleCache::load_or_default`]) for serving paths where a corrupt or
//! missing cache must mean "search again", never "crash".

use helium_halide::cache::fingerprint_pipeline;
use helium_halide::{ExecBackend, Pipeline, Schedule};
use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

/// Environment variable naming the schedule cache file consulted by
/// [`ScheduleCache::load_env`] / [`ScheduleCache::save_env`].
pub const SCHEDULE_CACHE_ENV: &str = "HELIUM_SCHEDULE_CACHE";

/// Header line of the on-disk format; bumped on layout changes so stale
/// caches fail parsing instead of resurrecting wrong schedules.
const HEADER: &str = "helium-schedule-cache v1";

/// Cache key: which tuned pipeline instance a winning schedule applies to.
/// Mirrors the program cache's key structure minus the schedule and binding
/// fields — the schedule is the cached *value*, and winners generalize
/// across bindings of the same extents.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct ScheduleKey {
    /// Pipeline fingerprint (`fingerprint_pipeline`).
    pub pipeline: u64,
    /// Execution backend the schedule was tuned for.
    pub backend: ExecBackend,
    /// Output extents the schedule was tuned over.
    pub extents: Vec<usize>,
}

impl ScheduleKey {
    /// Build the key for `pipeline` tuned over `extents` on `backend`.
    pub fn for_pipeline(pipeline: &Pipeline, backend: ExecBackend, extents: &[usize]) -> Self {
        ScheduleKey {
            pipeline: fingerprint_pipeline(pipeline),
            backend,
            extents: extents.to_vec(),
        }
    }
}

/// A cached winner: the schedule plus the evidence that put it there.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedSchedule {
    /// The winning schedule.
    pub schedule: Schedule,
    /// Its best observed steady-state time, in nanoseconds.
    pub best_ns: u64,
    /// The model score the schedule won with.
    pub model_score: f64,
    /// Timed trials the original search spent finding it.
    pub timed_trials: usize,
}

/// Parse failure of the on-disk format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleCacheError {
    /// 1-based line the failure was detected on.
    pub line: usize,
    /// What was wrong with it.
    pub message: String,
}

impl fmt::Display for ScheduleCacheError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "schedule cache line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ScheduleCacheError {}

/// The persistent schedule cache. See the module docs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ScheduleCache {
    entries: BTreeMap<ScheduleKey, CachedSchedule>,
}

impl ScheduleCache {
    /// An empty cache.
    pub fn new() -> ScheduleCache {
        ScheduleCache::default()
    }

    /// Look up the winner for `key`.
    pub fn get(&self, key: &ScheduleKey) -> Option<&CachedSchedule> {
        self.entries.get(key)
    }

    /// Insert (or replace) the winner for `key`.
    pub fn insert(&mut self, key: ScheduleKey, entry: CachedSchedule) {
        self.entries.insert(key, entry);
    }

    /// Number of cached winners.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no winners.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterate over the cached entries in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&ScheduleKey, &CachedSchedule)> {
        self.entries.iter()
    }

    /// Serialize to the versioned text format.
    pub fn to_text(&self) -> String {
        let mut out = String::from(HEADER);
        out.push('\n');
        for (key, entry) in &self.entries {
            let extents = key
                .extents
                .iter()
                .map(|e| e.to_string())
                .collect::<Vec<_>>()
                .join("x");
            out.push_str(&format!(
                "{:016x} {} {} {} {:e} {} {}\n",
                key.pipeline,
                encode_backend(key.backend),
                if extents.is_empty() {
                    "-".into()
                } else {
                    extents
                },
                entry.best_ns,
                entry.model_score,
                entry.timed_trials,
                encode_schedule(&entry.schedule),
            ));
        }
        out
    }

    /// Parse the versioned text format (strict: any malformed line fails).
    ///
    /// # Errors
    /// Returns a [`ScheduleCacheError`] naming the offending line.
    pub fn from_text(text: &str) -> Result<ScheduleCache, ScheduleCacheError> {
        let err = |line: usize, message: &str| ScheduleCacheError {
            line,
            message: message.to_string(),
        };
        let mut lines = text.lines().enumerate();
        match lines.next() {
            Some((_, h)) if h.trim() == HEADER => {}
            _ => return Err(err(1, "missing or unsupported header")),
        }
        let mut cache = ScheduleCache::new();
        for (i, line) in lines {
            let lineno = i + 1;
            if line.trim().is_empty() {
                continue;
            }
            let fields: Vec<&str> = line.splitn(7, ' ').collect();
            if fields.len() != 7 {
                return Err(err(lineno, "expected 7 space-separated fields"));
            }
            let pipeline = u64::from_str_radix(fields[0], 16)
                .map_err(|_| err(lineno, "bad pipeline fingerprint"))?;
            let backend = decode_backend(fields[1]).ok_or_else(|| err(lineno, "bad backend"))?;
            let extents: Vec<usize> = if fields[2] == "-" {
                Vec::new()
            } else {
                fields[2]
                    .split('x')
                    .map(|e| e.parse::<usize>())
                    .collect::<Result<_, _>>()
                    .map_err(|_| err(lineno, "bad extents"))?
            };
            let best_ns = fields[3]
                .parse::<u64>()
                .map_err(|_| err(lineno, "bad best_ns"))?;
            let model_score = fields[4]
                .parse::<f64>()
                .map_err(|_| err(lineno, "bad model score"))?;
            let timed_trials = fields[5]
                .parse::<usize>()
                .map_err(|_| err(lineno, "bad timed_trials"))?;
            let schedule = decode_schedule(fields[6]).map_err(|message| err(lineno, &message))?;
            cache.insert(
                ScheduleKey {
                    pipeline,
                    backend,
                    extents,
                },
                CachedSchedule {
                    schedule,
                    best_ns,
                    model_score,
                    timed_trials,
                },
            );
        }
        Ok(cache)
    }

    /// Write the cache to `path` (atomically enough for single-writer use:
    /// temp file in the same directory, then rename).
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, self.to_text())?;
        std::fs::rename(&tmp, path)
    }

    /// Read and strictly parse the cache at `path`.
    ///
    /// # Errors
    /// Propagates filesystem errors; parse failures surface as
    /// [`std::io::ErrorKind::InvalidData`].
    pub fn load(path: &Path) -> std::io::Result<ScheduleCache> {
        let text = std::fs::read_to_string(path)?;
        ScheduleCache::from_text(&text)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
    }

    /// Lenient load for serving paths: a missing or corrupt cache is an
    /// empty cache (the process searches again), never a crash.
    pub fn load_or_default(path: &Path) -> ScheduleCache {
        ScheduleCache::load(path).unwrap_or_default()
    }

    /// The cache path named by [`SCHEDULE_CACHE_ENV`], if set and non-empty.
    pub fn env_path() -> Option<PathBuf> {
        match std::env::var(SCHEDULE_CACHE_ENV) {
            Ok(p) if !p.is_empty() => Some(PathBuf::from(p)),
            _ => None,
        }
    }

    /// Leniently load the cache named by [`SCHEDULE_CACHE_ENV`] (empty when
    /// the variable is unset or the file is missing/corrupt).
    pub fn load_env() -> ScheduleCache {
        Self::env_path()
            .map(|p| Self::load_or_default(&p))
            .unwrap_or_default()
    }

    /// Save to the path named by [`SCHEDULE_CACHE_ENV`]; returns whether a
    /// path was configured.
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn save_env(&self) -> std::io::Result<bool> {
        match Self::env_path() {
            Some(p) => self.save(&p).map(|()| true),
            None => Ok(false),
        }
    }
}

/// The backend field of the v1 text encoding: `lowered` or `interpret`.
fn encode_backend(backend: ExecBackend) -> &'static str {
    match backend {
        ExecBackend::Interpret => "interpret",
        ExecBackend::Lowered => "lowered",
    }
}

/// Decode a backend field. Files written while schedules were keyed on ISA
/// features carry a `+`-joined tag (`lowered+avx2`); every host now runs the
/// same portable kernels, so the tag is dropped and the entry still hits.
fn decode_backend(tag: &str) -> Option<ExecBackend> {
    let backend = tag.split_once('+').map_or(tag, |(b, _)| b);
    match backend {
        "interpret" => Some(ExecBackend::Interpret),
        "lowered" => Some(ExecBackend::Lowered),
        _ => None,
    }
}

/// Percent-escape a func or var name so the schedule encoding's delimiters
/// (`;`, `,`, `@`, spaces, `%`) can never collide with user-chosen names.
fn escape(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for b in name.bytes() {
        match b {
            b';' | b',' | b'@' | b' ' | b'%' | b'\n' | b'\t' => {
                out.push('%');
                out.push_str(&format!("{b:02x}"));
            }
            _ => out.push(b as char),
        }
    }
    out
}

fn unescape(name: &str) -> Result<String, String> {
    let bytes = name.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            let hex = bytes
                .get(i + 1..i + 3)
                .ok_or_else(|| "truncated escape".to_string())?;
            let hex = std::str::from_utf8(hex).map_err(|_| "bad escape".to_string())?;
            out.push(u8::from_str_radix(hex, 16).map_err(|_| "bad escape".to_string())?);
            i += 3;
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    String::from_utf8(out).map_err(|_| "bad utf-8 in name".to_string())
}

/// Encode a schedule as one token:
/// `parallel=<b>;threads=<n>;tile=<w>x<h>|-;vectorize=<b>;roots=<a,b>;at=<f@v,...>`.
///
/// Files from earlier revisions carry `vector=<n>` (a vector width) in place
/// of `vectorize=<b>`, and some also `sliding=<a,b>;fuse=<b>`, the keys of
/// two retired schedule knobs; the decoder reads the first and drops the
/// others (see [`decode_schedule`]).
fn encode_schedule(s: &Schedule) -> String {
    let tile = match s.tile {
        Some((w, h)) => format!("{w}x{h}"),
        None => "-".to_string(),
    };
    let roots = s
        .compute_root
        .iter()
        .map(|n| escape(n))
        .collect::<Vec<_>>()
        .join(",");
    let at = s
        .compute_at
        .iter()
        .map(|(f, v)| format!("{}@{}", escape(f), escape(v)))
        .collect::<Vec<_>>()
        .join(",");
    format!(
        "parallel={};threads={};tile={};vectorize={};roots={};at={}",
        s.parallel, s.threads, tile, s.vectorize, roots, at
    )
}

/// Decode [`encode_schedule`]'s token. Missing keys keep their
/// `Schedule::naive()` defaults.
fn decode_schedule(text: &str) -> Result<Schedule, String> {
    let mut s = Schedule::naive();
    for part in text.split(';') {
        let (key, value) = part
            .split_once('=')
            .ok_or_else(|| format!("bad schedule field `{part}`"))?;
        match key {
            "parallel" => {
                s.parallel = value.parse().map_err(|_| "bad parallel".to_string())?;
            }
            "threads" => {
                s.threads = value.parse().map_err(|_| "bad threads".to_string())?;
            }
            "tile" => {
                s.tile = if value == "-" {
                    None
                } else {
                    let (w, h) = value
                        .split_once('x')
                        .ok_or_else(|| "bad tile".to_string())?;
                    Some((
                        w.parse().map_err(|_| "bad tile".to_string())?,
                        h.parse().map_err(|_| "bad tile".to_string())?,
                    ))
                };
            }
            "vectorize" => {
                s.vectorize = value.parse().map_err(|_| "bad vectorize".to_string())?;
            }
            // The vector width of older files: any width above 1 vectorized.
            "vector" => {
                let width: usize = value.parse().map_err(|_| "bad vector".to_string())?;
                s.vectorize = width > 1;
            }
            "roots" => {
                for name in value.split(',').filter(|n| !n.is_empty()) {
                    s.compute_root.insert(unescape(name)?);
                }
            }
            "at" => {
                for pair in value.split(',').filter(|p| !p.is_empty()) {
                    let (f, v) = pair
                        .split_once('@')
                        .ok_or_else(|| "bad compute_at".to_string())?;
                    s.compute_at.insert(unescape(f)?, unescape(v)?);
                }
            }
            // Keys of the retired `store_sliding` and `fuse_outputs` knobs
            // in older files. Neither changed a computed value, so they are
            // dropped and the entry still hits.
            "sliding" | "fuse" => {}
            _ => return Err(format!("unknown schedule field `{key}`")),
        }
    }
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_entry() -> (ScheduleKey, CachedSchedule) {
        (
            ScheduleKey {
                pipeline: 0xDEADBEEF_u64,
                backend: ExecBackend::Lowered,
                extents: vec![640, 480],
            },
            CachedSchedule {
                schedule: Schedule::stencil_default()
                    .with_compute_root("blur x")
                    .with_compute_at("lut;table", "x_1"),
                best_ns: 123_456,
                model_score: 987.5,
                timed_trials: 5,
            },
        )
    }

    #[test]
    fn text_round_trip_preserves_entries_exactly() {
        let mut cache = ScheduleCache::new();
        let (key, entry) = sample_entry();
        cache.insert(key.clone(), entry.clone());
        cache.insert(
            ScheduleKey {
                pipeline: 7,
                backend: ExecBackend::Interpret,
                extents: vec![1],
            },
            CachedSchedule {
                schedule: Schedule::naive(),
                best_ns: 1,
                model_score: 0.0,
                timed_trials: 1,
            },
        );
        let parsed = ScheduleCache::from_text(&cache.to_text()).unwrap();
        assert_eq!(parsed, cache);
        assert_eq!(parsed.get(&key), Some(&entry));
    }

    #[test]
    fn legacy_schedule_encoding_without_locality_keys_decodes() {
        let bare = "parallel=true;threads=4;tile=64x64;vectorize=true;roots=a;at=b@x_1";
        let s = decode_schedule(bare).unwrap();
        assert!(s.vectorize);
        assert_eq!(s.tile, Some((64, 64)));
        assert_eq!(
            encode_schedule(&s),
            bare,
            "the current encoding is the bare one"
        );
        // Files from the revisions with a vector width (`vector=N`, where
        // N > 1 vectorized) and with the retired `sliding`/`fuse` knobs
        // decode to the same schedule, hit the same entry, and are written
        // back with `vectorize=` and without the knobs.
        for (width, vectorize) in [(16, true), (1, false)] {
            let legacy = bare.replace("vectorize=true", &format!("vector={width}"));
            let with_knobs = format!("{legacy};sliding=blur_x;fuse=true");
            let expect = s.clone().with_vectorize(vectorize);
            assert_eq!(decode_schedule(&legacy).unwrap(), expect);
            assert_eq!(decode_schedule(&with_knobs).unwrap(), expect);
            let (key, mut entry) = sample_entry();
            entry.schedule = expect;
            let text = format!(
                "{HEADER}\n{:016x} lowered 640x480 123456 9.875e2 5 {with_knobs}\n",
                key.pipeline
            );
            let cache = ScheduleCache::from_text(&text).unwrap();
            assert_eq!(cache.get(&key), Some(&entry));
            let written = cache.to_text();
            let current = bare.replace("vectorize=true", &format!("vectorize={vectorize}"));
            assert!(written.contains(&current), "got: {written}");
            assert!(!written.contains("vector="), "got: {written}");
            assert!(!written.contains("sliding"), "got: {written}");
            assert!(!written.contains("fuse"), "got: {written}");
        }
        // Any other key is still corrupt.
        assert!(decode_schedule(&format!("{bare};unroll=4")).is_err());
    }

    #[test]
    fn legacy_feature_tagged_backends_decode_and_hit() {
        // v1 files written while keys carried ISA features tag the backend
        // (`lowered+avx2`); the tag is dropped on load, so the entry hits
        // the key every host now builds, and is written back bare.
        let (key, entry) = sample_entry();
        let legacy = format!(
            "{HEADER}\n{:016x} lowered+avx2 640x480 123456 9.875e2 5 {}\n",
            key.pipeline,
            encode_schedule(&entry.schedule)
        );
        let cache = ScheduleCache::from_text(&legacy).unwrap();
        assert_eq!(cache.get(&key), Some(&entry));
        let text = cache.to_text();
        assert!(text.contains(" lowered 640x480 "), "got: {text}");
        assert!(!text.contains('+'), "got: {text}");
        // The bare tag decodes to the same key.
        let bare = legacy.replace("lowered+avx2", "lowered");
        assert_eq!(ScheduleCache::from_text(&bare).unwrap(), cache);
    }

    #[test]
    fn hostile_names_survive_escaping() {
        for name in ["a b", "x;y", "p,q", "f@v", "100%", "tab\there"] {
            assert_eq!(unescape(&escape(name)).unwrap(), name);
        }
    }

    #[test]
    fn corrupt_text_is_rejected_with_line_numbers() {
        assert!(ScheduleCache::from_text("").is_err());
        assert!(ScheduleCache::from_text("not a header\n").is_err());
        let bad = format!("{HEADER}\nzzzz lowered 4x4 1 0.0 1 parallel=false\n");
        let err = ScheduleCache::from_text(&bad).unwrap_err();
        assert_eq!(err.line, 2);
        let bad_backend = format!("{HEADER}\n0000000000000001 gpu 4x4 1 0.0 1 parallel=false\n");
        assert!(ScheduleCache::from_text(&bad_backend).is_err());
    }

    #[test]
    fn file_round_trip_and_lenient_load() {
        let dir =
            std::env::temp_dir().join(format!("helium_tune_cache_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("schedules.txt");
        let mut cache = ScheduleCache::new();
        let (key, entry) = sample_entry();
        cache.insert(key.clone(), entry.clone());
        cache.save(&path).unwrap();
        // Fresh state: a new cache value populated purely from disk.
        let loaded = ScheduleCache::load(&path).unwrap();
        assert_eq!(loaded.get(&key), Some(&entry));
        // Lenient load tolerates both absence and corruption.
        assert!(ScheduleCache::load_or_default(&dir.join("missing.txt")).is_empty());
        std::fs::write(&path, "garbage").unwrap();
        assert!(ScheduleCache::load_or_default(&path).is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }
}
