//! A deliberately small `--key value` argument parser.
//!
//! The workspace avoids third-party CLI crates (its external dependencies
//! are vendored shims under `vendor/`), and the tool only needs flat
//! `--key value` pairs plus boolean flags, so a ~100-line parser is the
//! honest choice.

use crate::{CliError, CliResult};
use std::collections::BTreeMap;

/// Parsed `--key value` arguments.
#[derive(Debug, Clone, Default)]
pub struct Args {
    values: BTreeMap<String, String>,
    flags: Vec<String>,
}

impl Args {
    /// Parse a raw argument list (everything after the sub-command).
    ///
    /// `--key value` pairs populate [`Args::get`]; a trailing `--key` with no
    /// value (or followed by another `--key`) is recorded as a boolean flag.
    pub fn parse(argv: &[String]) -> CliResult<Self> {
        let mut args = Args::default();
        let mut i = 0usize;
        while i < argv.len() {
            let token = &argv[i];
            let Some(key) = token.strip_prefix("--") else {
                return Err(CliError::Usage(format!(
                    "unexpected positional argument '{token}' (all options are --key value)"
                )));
            };
            if key.is_empty() {
                return Err(CliError::Usage("empty option name '--'".to_string()));
            }
            if i + 1 < argv.len() && !argv[i + 1].starts_with("--") {
                args.values.insert(key.to_string(), argv[i + 1].clone());
                i += 2;
            } else {
                args.flags.push(key.to_string());
                i += 1;
            }
        }
        Ok(args)
    }

    /// Check every provided key against the command's declared `options`
    /// (take a value) and `flags` (bare).  Catches the silent-degradation
    /// class of bug — `--theads 4` used to parse fine and fall back to the
    /// default thread count — with a typed [`CliError::Usage`] that names
    /// the offender, suggests a near-miss spelling, and points at the help.
    pub fn validate(&self, command: &str, options: &[&str], flags: &[&str]) -> CliResult<()> {
        let complain = |key: &str, detail: String| {
            // Exclude the key itself: misuse errors (flag given a value,
            // option given bare) would otherwise "suggest" the very key the
            // user typed, at distance 0.
            let suggestion = nearest(key, options.iter().chain(flags.iter()))
                .filter(|s| *s != key)
                .map(|s| format!(" (did you mean --{s}?)"))
                .unwrap_or_default();
            Err(CliError::Usage(format!(
                "{detail}{suggestion}; run `opaq help` for usage of '{command}'"
            )))
        };
        for key in self.values.keys() {
            if options.contains(&key.as_str()) {
                continue;
            }
            if flags.contains(&key.as_str()) {
                return complain(key, format!("flag --{key} takes no value"));
            }
            return complain(key, format!("unknown option --{key} for '{command}'"));
        }
        for key in &self.flags {
            if flags.contains(&key.as_str()) {
                continue;
            }
            if options.contains(&key.as_str()) {
                return complain(key, format!("option --{key} requires a value"));
            }
            return complain(key, format!("unknown flag --{key} for '{command}'"));
        }
        Ok(())
    }

    /// The raw value of `--key`, if present.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str)
    }

    /// Whether `--key` was given as a boolean flag.
    pub fn flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }

    /// A required string option.
    pub fn require(&self, key: &str) -> CliResult<&str> {
        self.get(key)
            .ok_or_else(|| CliError::Usage(format!("missing required option --{key}")))
    }

    /// A required option parsed as `u64`.
    pub fn require_u64(&self, key: &str) -> CliResult<u64> {
        self.require(key)?
            .parse::<u64>()
            .map_err(|_| CliError::Usage(format!("option --{key} must be an unsigned integer")))
    }

    /// An optional option parsed as `u64`, with a default.
    pub fn u64_or(&self, key: &str, default: u64) -> CliResult<u64> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse::<u64>().map_err(|_| {
                CliError::Usage(format!("option --{key} must be an unsigned integer"))
            }),
        }
    }

    /// An optional option parsed as `f64`, with a default.
    pub fn f64_or(&self, key: &str, default: f64) -> CliResult<f64> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse::<f64>()
                .map_err(|_| CliError::Usage(format!("option --{key} must be a number"))),
        }
    }

    /// A comma-separated list of `f64` values.
    pub fn f64_list(&self, key: &str) -> CliResult<Option<Vec<f64>>> {
        let Some(raw) = self.get(key) else {
            return Ok(None);
        };
        let mut out = Vec::new();
        for part in raw.split(',') {
            let v: f64 = part.trim().parse().map_err(|_| {
                CliError::Usage(format!(
                    "option --{key} must be a comma-separated list of numbers"
                ))
            })?;
            out.push(v);
        }
        Ok(Some(out))
    }
}

/// The closest declared key within Levenshtein distance 2, for "did you
/// mean" hints on typos like `--theads`.
fn nearest<'a>(key: &str, candidates: impl Iterator<Item = &'a &'a str>) -> Option<&'a str> {
    candidates
        .map(|c| (levenshtein(key, c), *c))
        .filter(|(d, _)| *d <= 2)
        .min_by_key(|(d, _)| *d)
        .map(|(_, c)| c)
}

fn levenshtein(a: &str, b: &str) -> usize {
    let (a, b): (Vec<char>, Vec<char>) = (a.chars().collect(), b.chars().collect());
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    for (i, ca) in a.iter().enumerate() {
        let mut current = vec![i + 1];
        for (j, cb) in b.iter().enumerate() {
            let substitution = prev[j] + usize::from(ca != cb);
            current.push(substitution.min(prev[j + 1] + 1).min(current[j] + 1));
        }
        prev = current;
    }
    prev[b.len()]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Args {
        Args::parse(&tokens.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn key_value_pairs_and_flags() {
        let args = parse(&["--n", "1000", "--dist", "zipf", "--verbose"]);
        assert_eq!(args.get("n"), Some("1000"));
        assert_eq!(args.get("dist"), Some("zipf"));
        assert!(args.flag("verbose"));
        assert!(!args.flag("quiet"));
    }

    #[test]
    fn typed_accessors() {
        let args = parse(&["--n", "42", "--phi", "0.5,0.9", "--scale", "1.5"]);
        assert_eq!(args.require_u64("n").unwrap(), 42);
        assert_eq!(args.u64_or("missing", 7).unwrap(), 7);
        assert_eq!(args.f64_or("scale", 0.0).unwrap(), 1.5);
        assert_eq!(args.f64_list("phi").unwrap().unwrap(), vec![0.5, 0.9]);
        assert!(args.f64_list("missing").unwrap().is_none());
    }

    #[test]
    fn missing_required_option_is_an_error() {
        let args = parse(&["--n", "42"]);
        assert!(args.require("out").is_err());
        assert!(matches!(
            args.require("out").unwrap_err(),
            CliError::Usage(_)
        ));
    }

    #[test]
    fn malformed_numbers_are_errors() {
        let args = parse(&["--n", "forty-two"]);
        assert!(args.require_u64("n").is_err());
        assert!(args.f64_or("n", 1.0).is_err());
    }

    #[test]
    fn positional_arguments_are_rejected() {
        let err = Args::parse(&["data.bin".to_string()]).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)));
    }

    #[test]
    fn flag_followed_by_flag() {
        let args = parse(&["--fast", "--n", "5"]);
        assert!(args.flag("fast"));
        assert_eq!(args.require_u64("n").unwrap(), 5);
    }

    #[test]
    fn validate_rejects_unknown_options_with_a_suggestion() {
        let args = parse(&["--theads", "4"]);
        let err = args
            .validate("sketch", &["threads", "data", "n"], &[])
            .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("unknown option --theads"), "{msg}");
        assert!(msg.contains("did you mean --threads?"), "{msg}");
        assert!(msg.contains("opaq help"), "{msg}");
    }

    #[test]
    fn validate_accepts_declared_keys() {
        let args = parse(&["--n", "4", "--quick"]);
        args.validate("cmd", &["n"], &["quick"]).unwrap();
    }

    #[test]
    fn validate_catches_flag_option_confusion() {
        // A flag given a value: `--quick yes` silently parsed as an option
        // before, making `flag("quick")` false.
        let args = parse(&["--quick", "yes"]);
        let err = args.validate("cmd", &["n"], &["quick"]).unwrap_err();
        assert!(err.to_string().contains("takes no value"), "{err}");
        assert!(
            !err.to_string().contains("did you mean --quick"),
            "must not suggest the key the user already typed: {err}"
        );
        // An option given bare: `--budget` with no value.
        let args = parse(&["--budget"]);
        let err = args.validate("cmd", &["budget"], &[]).unwrap_err();
        assert!(err.to_string().contains("requires a value"), "{err}");
        assert!(!err.to_string().contains("did you mean"), "{err}");
    }

    #[test]
    fn validate_rejects_unknown_flags() {
        let args = parse(&["--verbosee"]);
        let err = args.validate("cmd", &[], &["verbose"]).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("unknown flag --verbosee"), "{msg}");
        assert!(msg.contains("did you mean --verbose?"), "{msg}");
    }

    #[test]
    fn levenshtein_basics() {
        assert_eq!(levenshtein("threads", "threads"), 0);
        assert_eq!(levenshtein("theads", "threads"), 1);
        assert_eq!(levenshtein("", "abc"), 3);
        assert_eq!(levenshtein("kitten", "sitting"), 3);
        assert!(nearest("zzz", ["threads"].iter()).is_none());
    }
}
