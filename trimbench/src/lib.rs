//! The repository's benchmark: four fixed-work workloads over the two
//! runtime surfaces (the streaming collector and the equilibrium
//! solver), every operation's output verified, end-to-end metrics from
//! an untraced run and per-layer metrics from a separate traced run.
//!
//! The binary (`src/main.rs`) parses the command line and prints; this
//! library does the work so the self-test can drive it at tiny sizes.
//! See `README.md` in this package for why each workload exists and what
//! each metric should move.

pub mod collect;
pub mod solve;
pub mod sys;
pub mod trace;

use std::fmt::Write as _;
use std::time::Instant;

/// Times the set-up is repeated; `setup_s` is the median.
const SETUP_REPS: usize = 21;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One producer, one ingest thread, 1000 records per round.
    CollectIngest,
    /// The same pipeline at 16 records per round.
    CollectRounds,
    /// The dense 5x5x12 scalar equilibrium estimate.
    EqDense,
    /// The grid-candidate then continuum double-oracle solve.
    EqOracle,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::CollectIngest,
        Workload::CollectRounds,
        Workload::EqDense,
        Workload::EqOracle,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CollectIngest => "collect-ingest",
            Workload::CollectRounds => "collect-rounds",
            Workload::EqDense => "eq-dense",
            Workload::EqOracle => "eq-oracle",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Threads the workload runs its measured work on: the collector's
    /// producer and ingest thread, `eq-dense`'s two sweep workers, or
    /// `eq-oracle`'s one. A double-oracle solve makes many small fan-outs,
    /// and on two workers each of them waits for a second core to be
    /// scheduled, which on a shared host measures the scheduler.
    pub(crate) fn threads(self) -> usize {
        match self {
            Workload::EqOracle => 1,
            _ => 2,
        }
    }
}

/// Input sizes: the real ones, or tiny ones for the self-test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the benchmark is defined at.
    Full,
    /// A few milliseconds per operation, for the self-test.
    Tiny,
}

impl Scale {
    /// Operations a run holds at least. At full scale that is 100, so the
    /// p90 has ten samples beyond it whatever the time budget allows.
    fn min_ops(self) -> usize {
        match self {
            Scale::Full => 100,
            Scale::Tiny => 3,
        }
    }
}

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Measurement window, in seconds.
    pub seconds: f64,
    /// Run the traced variant (per-layer metrics) instead of the
    /// untraced one (end-to-end metrics).
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
    /// Perturb the verification reference, so every checked operation
    /// must count as failed (the self-test of the checking itself).
    pub corrupt_reference: bool,
}

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

impl Metric {
    /// Shorthand constructor.
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Self {
        Self { name, unit, value }
    }
}

/// Verified-operation counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Checks {
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Operations whose output did not match its reference.
    pub failed: u64,
}

impl Checks {
    /// Counts one checked operation.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// Everything one invocation reports.
#[derive(Debug)]
pub struct Outcome {
    /// The run header: what was measured and how.
    pub header: Vec<(&'static str, String)>,
    /// Verified-operation counts.
    pub checks: Checks,
    /// The metrics, each named as in `BENCHMARK.json`.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// True when every checked output matched and every metric is a
    /// finite number.
    pub fn correct(&self) -> bool {
        self.checks.attempted > 0
            && self.checks.failed == 0
            && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The run header as one JSON line.
    pub fn header_line(&self) -> String {
        let fields: Vec<String> = self
            .header
            .iter()
            .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
            .collect();
        format!("{{\"header\": {{{}}}}}", fields.join(", "))
    }

    /// The result as one JSON line: `correct`, `attempted`, `failed` and
    /// `metrics`. A non-finite value prints as 0 and makes the result
    /// incorrect, since JSON has no NaN.
    pub fn result_line(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.checks.attempted,
            self.checks.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                out,
                "{}{}: {{\"value\": {value:?}, \"unit\": {}}}",
                if i == 0 { "" } else { ", " },
                json_str(m.name),
                json_str(m.unit)
            );
        }
        out.push_str("}}");
        out
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Runs one invocation.
///
/// # Errors
/// Refuses to run when the workload needs more threads than the machine
/// has cores, or when `/proc/self` cannot be read.
pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let nproc = sys::nproc();
    let threads = opts.workload.threads();
    if threads > nproc {
        return Err(format!(
            "workload {} runs {threads} threads but only {nproc} core(s) are available",
            opts.workload.name()
        ));
    }
    let mut outcome = match opts.workload {
        Workload::CollectIngest | Workload::CollectRounds => collect::run(opts)?,
        Workload::EqDense | Workload::EqOracle => solve::run(opts)?,
    };
    let mut header = vec![
        ("workload", opts.workload.name().to_string()),
        ("seed", opts.seed.to_string()),
        ("seconds", opts.seconds.to_string()),
        ("trace", u8::from(opts.trace).to_string()),
        ("nproc", nproc.to_string()),
        ("threads", threads.to_string()),
    ];
    header.append(&mut outcome.header);
    outcome.header = header;
    Ok(outcome)
}

/// Builds the inputs `SETUP_REPS` times and returns the last build with
/// the median build time in seconds.
pub(crate) fn timed_setup<T>(mut build: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut built = None;
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        built = Some(std::hint::black_box(build()));
        times.push(start.elapsed().as_secs_f64());
    }
    (built.expect("SETUP_REPS > 0"), sys::median(&times))
}

/// Runs `op` back to back until `seconds` have passed and at least
/// `min_ops` operations ran. Returns each operation's sample and the
/// process CPU seconds the loop used.
pub(crate) fn timed_loop<T>(
    seconds: f64,
    min_ops: usize,
    mut op: impl FnMut() -> T,
) -> Result<(Vec<T>, f64), String> {
    let cpu_start = sys::cpu_seconds()?;
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < min_ops || start.elapsed().as_secs_f64() < seconds {
        samples.push(op());
    }
    Ok((samples, sys::cpu_seconds()? - cpu_start))
}

/// What one untraced operation contributes to the end-to-end metrics.
#[derive(Debug, Clone, Copy)]
pub(crate) struct OpSample {
    /// Wall time of the whole operation.
    pub wall_s: f64,
    /// Wall time the throughput figures divide by (the collector's
    /// ingest phase; the whole solve).
    pub rate_s: f64,
    /// Engine rounds played.
    pub rounds: f64,
    /// Records the operation processed.
    pub records: f64,
    /// Seeded engine runs.
    pub engine_runs: f64,
}

/// The end-to-end metrics over a run's operations.
pub(crate) fn end_to_end(
    samples: &[OpSample],
    cpu_s: f64,
    setup_s: f64,
) -> Result<Vec<Metric>, String> {
    let per = |f: &dyn Fn(&OpSample) -> f64| samples.iter().map(f).collect::<Vec<f64>>();
    let walls = per(&|s| s.wall_s);
    let total_rounds: f64 = samples.iter().map(|s| s.rounds).sum();
    Ok(vec![
        Metric::new(
            "records_per_s",
            "1/s",
            sys::median(&per(&|s| s.records / s.rate_s)),
        ),
        Metric::new(
            "rounds_per_s",
            "1/s",
            sys::median(&per(&|s| s.rounds / s.rate_s)),
        ),
        Metric::new("cpu_us_per_round", "us", cpu_s * 1e6 / total_rounds),
        Metric::new("solve_p50_ms", "ms", sys::median(&walls) * 1e3),
        Metric::new("solve_p90_ms", "ms", sys::quantile(&walls, 0.9) * 1e3),
        Metric::new(
            "engine_runs_per_solve",
            "count",
            sys::median(&per(&|s| s.engine_runs)),
        ),
        Metric::new("setup_s", "s", setup_s),
        Metric::new("peak_rss_mb", "MB", sys::peak_rss_mb()?),
    ])
}

/// What a traced run leaves: the wall times of its untraced and traced
/// operations, its layer metrics, and how the layers add up to the
/// operation's time (for the header).
pub(crate) struct TracedRun {
    pub ops: usize,
    pub untraced_s: Vec<f64>,
    pub traced_s: Vec<f64>,
    pub metrics: Vec<Metric>,
    pub breakdown: String,
}

/// Median traced over median untraced wall time, minus one: what the
/// timing adapters cost the operation.
pub(crate) fn overhead_metric(untraced_s: &[f64], traced_s: &[f64]) -> Metric {
    Metric::new(
        "trace.overhead_share",
        "share",
        sys::median(traced_s) / sys::median(untraced_s) - 1.0,
    )
}
