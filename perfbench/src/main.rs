//! `opaq-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a report, then the result line (one JSON object) last.  Exits 0
//! when every answer was correct, 1 when a correctness gate failed, and 2
//! when the run could not be set up or the arguments are wrong.

use std::process::ExitCode;

fn main() -> ExitCode {
    let opts = match opaq_perfbench::cli::parse(std::env::args().skip(1)) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("{e}\n{}", opaq_perfbench::cli::USAGE);
            return ExitCode::from(2);
        }
    };
    match opaq_perfbench::run(&opts) {
        Ok((outcome, line)) => {
            print!("{}", outcome.report);
            for failure in &outcome.failures {
                eprintln!("FAILED: {failure}");
            }
            println!("{line}");
            if outcome.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("{}: set-up failed: {e}", opts.workload.name());
            ExitCode::from(2)
        }
    }
}
