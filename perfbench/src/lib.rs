//! End-to-end and per-layer benchmark of the 802.11ac reproduction.
//!
//! Three closed-loop workloads (see `README.md` for why each exists):
//!
//! * `testbed_fastack` — a sweep of two-AP, 30-client testbed runs with
//!   FastACK on at both APs;
//! * `testbed_observed` — the same runs with FastACK off, the timeline
//!   sampler at 10 ms and QoE probes on;
//! * `fleet_steady` — back-to-back `run_fleet` calls at two threads over
//!   a 4 h horizon.
//!
//! Every operation's output is hashed and compared with a digest pinned
//! in `pins/`; a panic or a mismatch counts as a failed operation and the
//! loop carries on. The untraced run ([`measure`]) prints the end-to-end
//! metrics; the traced run ([`trace`]) times calls into each layer from
//! this crate and prints the per-layer metrics.

// Measuring host wall time is this crate's purpose; the workspace's
// wall-clock ban guards simulation code, not its benchmark.
#![allow(clippy::disallowed_methods)]

pub mod alloc;
pub mod measure;
pub mod pins;
pub mod replay;
pub mod stats;
pub mod trace;
pub mod workload;

use std::fmt::Write as _;
use std::time::Duration;

/// One metric of the final result line.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What one run of a workload reports.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Context printed on the line before the result (sample counts,
    /// deterministic quality figures): never gated, kept for reports.
    pub info: Vec<(&'static str, f64)>,
}

/// Parsed command line: `--workload W --seed N --seconds S --trace 0|1`.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: workload::Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(workload::Workload::parse(value)?),
                "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err(format!("--seconds {value} out of range (0, 600]"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace wants 0 or 1, got {value}")),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.unwrap_or(false),
        })
    }

    pub fn budget(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// Entry point shared by both binaries. `traced_binary` says whether
/// this process counts allocations (only the traced binary does, so the
/// untraced run keeps the system allocator untouched).
pub fn main_with(traced_binary: bool) -> i32 {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return 2;
        }
    };
    if args.trace != traced_binary {
        eprintln!(
            "perfbench: --trace {} needs the {} binary",
            args.trace as u8,
            if args.trace {
                "perfbench-traced"
            } else {
                "perfbench"
            }
        );
        return 2;
    }
    let outcome = if args.trace {
        trace::run(&args)
    } else {
        measure::run(&args)
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return 1;
        }
    };
    println!("{}", info_line(&args, &outcome));
    println!("{}", result_line(&outcome));
    0
}

/// Host and build context recorded with every result.
fn info_line(args: &Args, o: &Outcome) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let commit = std::env::var("PERFBENCH_COMMIT").unwrap_or_else(|_| "unknown".into());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let mut s = format!(
        "{{\"info\": {{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"nproc\": {nproc}, \"commit\": \"{}\", \"profile\": \"{profile}\"",
        args.workload.name(),
        args.seed,
        args.trace as u8,
        json_escape(&commit),
    );
    for (k, v) in &o.info {
        let _ = write!(s, ", \"{k}\": {}", json_num(*v));
    }
    s.push_str("}}");
    s
}

/// The last stdout line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_line(o: &Outcome) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        o.failed == 0 && o.attempted > 0,
        o.attempted,
        o.failed
    );
    for (i, m) in o.metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(
            s,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_num(m.value),
            m.unit
        );
    }
    s.push_str("}}");
    s
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        // `{:?}` prints the shortest repr that round-trips: every digit.
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

fn json_escape(s: &str) -> String {
    s.chars()
        .filter(|c| !c.is_control())
        .map(|c| if c == '"' || c == '\\' { '_' } else { c })
        .collect()
}

/// Peak resident set size of this process, MiB.
pub fn peak_rss_mb() -> f64 {
    telemetry::runprof::peak_rss_bytes().map_or(0.0, |b| b as f64 / (1024.0 * 1024.0))
}

/// 64-bit FNV-1a, the digest every pinned output is compared by.
#[derive(Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= x as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
        self.bytes(&[0xff]);
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    /// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
    fn section(text: &str, key: &str) -> Vec<(String, String)> {
        let start = text.find(&format!("\"{key}\"")).expect("section present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("section closes")];
        body.split('{')
            .skip(1)
            .map(|obj| {
                let field = |f: &str| {
                    let at = obj.find(&format!("\"{f}\": \"")).expect("field") + f.len() + 5;
                    obj[at..at + obj[at..].find('"').expect("closing quote")].to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_names_the_printed_metrics() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let own = |ms: Vec<crate::Metric>| -> Vec<(String, String)> {
            ms.into_iter()
                .map(|m| (m.name.to_string(), m.unit.to_string()))
                .collect()
        };
        let e2e = own(crate::measure::end_to_end(
            &crate::measure::Samples::default(),
        ));
        assert_eq!(section(&text, "end_to_end"), e2e);
        let per_layer: Vec<(String, String)> = crate::trace::PER_LAYER
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(section(&text, "per_layer"), per_layer);
    }
}
