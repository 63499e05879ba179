//! Seeded end-to-end and per-layer benchmark of the OPAQ workspace.
//!
//! One process runs one workload ([`cli::Workload`]) from one seed and
//! prints, as its last line, a JSON object with `correct`, `attempted`,
//! `failed` and `metrics` — the end-to-end metrics ([`output::END_TO_END`])
//! without tracing, or the per-layer metrics ([`output::PER_LAYER`]) with
//! it.  Every layer is timed from outside, by spans around calls into its
//! crate's public API ([`spans`]); no span comes from the program's own
//! trace ring.

pub mod calib;
pub mod cli;
pub mod ingest;
pub mod output;
pub mod pass;
pub mod serve;
pub mod spans;
pub mod stats;
pub mod sys;
pub mod truth;

use cli::{Options, Workload};
use output::{Outcome, END_TO_END, PER_LAYER};
use spans::SpanLog;

/// Run one workload end to end: set-up, measurement, verification.  Data
/// and spill files live in a per-run directory under `opts.work_dir`, which
/// is removed afterwards; the span file of a traced run is kept there.
///
/// Returns the outcome and the result line.
///
/// # Errors
/// A set-up failure: nothing could be measured.
pub fn run(opts: &Options) -> Result<(Outcome, String), String> {
    let dir = opts.work_dir.join(format!(
        "{}-seed{}-pid{}",
        opts.workload.name(),
        opts.seed,
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let mut spans = SpanLog::default();
    let result = match opts.workload {
        Workload::Ingest => ingest::run(opts, &dir, &mut spans),
        Workload::ServePoint | Workload::CoalesceRefresh => serve::run(opts, &dir, &mut spans),
    };
    let _ = std::fs::remove_dir_all(&dir);
    let mut outcome = result?;
    if opts.trace {
        let path = opts.work_dir.join(format!(
            "spans-{}-seed{}.jsonl",
            opts.workload.name(),
            opts.seed
        ));
        spans
            .write_jsonl(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        outcome.report.push_str(&format!(
            "{} spans written to {}\n",
            spans.spans().len(),
            path.display()
        ));
    }
    let line = outcome.result_line(if opts.trace { PER_LAYER } else { END_TO_END });
    Ok((outcome, line))
}
