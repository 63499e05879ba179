//! Command-line options.

use std::path::PathBuf;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One-pass sharded ingest of a file-resident dataset.
    Ingest,
    /// Single-target GETs over a catalog larger than its cache.
    ServePoint,
    /// Coalesce plans beside background re-ingests.
    CoalesceRefresh,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::Ingest,
        Workload::ServePoint,
        Workload::CoalesceRefresh,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Ingest => "ingest",
            Workload::ServePoint => "serve-point",
            Workload::CoalesceRefresh => "coalesce-refresh",
        }
    }
}

/// Input sizes: the documented ones, or a tiny smoke-test size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes `BENCHMARK.json` documents.
    Full,
    /// Inputs small enough for a test to run every workload in seconds.
    Tiny,
}

/// A deliberate fault, used by the benchmark's own tests to show that the
/// correctness gates catch it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// No fault.
    None,
    /// Flip one byte of the first successful response body as it arrives.
    CorruptResponse,
    /// Move one checked quantile bound past the true quantile.
    BoundViolation,
}

/// Parsed options.
#[derive(Debug, Clone)]
pub struct Options {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed every input is derived from.
    pub seed: u64,
    /// Length of the measured window in seconds.
    pub seconds: f64,
    /// Run the traced phase and print per-layer metrics.
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
    /// Planted fault.
    pub fault: Fault,
    /// Directory (relative to the working directory) for data, spill files
    /// and span files.
    pub work_dir: PathBuf,
}

/// Usage text.
pub const USAGE: &str = "usage: opaq-perfbench --workload <ingest|serve-point|coalesce-refresh> \
--seed <n> --seconds <s> --trace <0|1> [--scale <full|tiny>] \
[--fault <none|corrupt-response|bound-violation>] [--work-dir <dir>]";

/// Parse `args` (without the program name).
///
/// # Errors
/// A message naming the bad or missing option.
pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut scale = Scale::Full;
    let mut fault = Fault::None;
    let mut work_dir = PathBuf::from(".bench_work");
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => {
                seed =
                    Some(value.parse::<u64>().map_err(|_| {
                        format!("--seed must be an unsigned integer, got {value:?}")
                    })?);
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|_| format!("--seconds must be a number, got {value:?}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                });
            }
            "--scale" => {
                scale = match value.as_str() {
                    "full" => Scale::Full,
                    "tiny" => Scale::Tiny,
                    _ => return Err(format!("unknown scale {value:?}")),
                };
            }
            "--fault" => {
                fault = match value.as_str() {
                    "none" => Fault::None,
                    "corrupt-response" => Fault::CorruptResponse,
                    "bound-violation" => Fault::BoundViolation,
                    _ => return Err(format!("unknown fault {value:?}")),
                };
            }
            "--work-dir" => work_dir = PathBuf::from(value),
            _ => return Err(format!("unknown option {flag:?}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        scale,
        fault,
        work_dir,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_string()).collect()
    }

    #[test]
    fn parses_the_required_arguments() {
        let opts = parse(args(&[
            "--workload",
            "serve-point",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(opts.workload, Workload::ServePoint);
        assert_eq!(opts.seed, 7);
        assert!(opts.trace);
        assert_eq!(opts.scale, Scale::Full);
        assert_eq!(opts.fault, Fault::None);
    }

    #[test]
    fn rejects_missing_and_unknown_options() {
        assert!(parse(args(&["--workload", "ingest"])).is_err());
        assert!(parse(args(&["--workload", "nope", "--seed", "1"])).is_err());
        assert!(parse(args(&["--bogus", "1"])).is_err());
        assert!(parse(args(&["--trace"])).is_err());
    }
}
