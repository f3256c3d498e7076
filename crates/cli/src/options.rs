//! Minimal command-line option parsing.
//!
//! The CLI keeps its dependency footprint to the workspace crates, so options
//! are parsed by hand: a subcommand, then any mix of `--flag value`,
//! `--switch` and positional arguments. Each subcommand names the flags it
//! accepts; any other flag is an error, so a misspelt or retired flag is
//! never silently ignored. Repeated flags accumulate (used for `--query` so
//! several queries can be registered in one run).

use std::collections::BTreeMap;
use std::fmt;

/// Parsed command-line options for one subcommand invocation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Options {
    /// Values per `--flag`; switches store an empty vector entry.
    flags: BTreeMap<String, Vec<String>>,
    /// Positional (non-flag) arguments in order.
    positional: Vec<String>,
}

/// Errors raised while parsing or interpreting options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OptionError {
    /// A `--flag` that requires a value appeared last without one.
    MissingValue(String),
    /// A required flag was not supplied.
    MissingFlag(String),
    /// The subcommand does not accept this flag.
    UnknownFlag(String),
    /// A flag value could not be interpreted.
    Invalid {
        /// The flag concerned.
        flag: String,
        /// What went wrong.
        message: String,
    },
}

impl fmt::Display for OptionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OptionError::MissingValue(flag) => write!(f, "flag --{flag} requires a value"),
            OptionError::MissingFlag(flag) => write!(f, "required flag --{flag} is missing"),
            OptionError::UnknownFlag(flag) => {
                write!(
                    f,
                    "unknown flag --{flag} (see --help for the accepted flags)"
                )
            }
            OptionError::Invalid { flag, message } => {
                write!(f, "invalid value for --{flag}: {message}")
            }
        }
    }
}

impl std::error::Error for OptionError {}

/// Flags that take no value (everything else consumes the next argument).
const SWITCHES: &[&str] = &["json", "telemetry", "metrics-json"];

impl Options {
    /// Parses raw arguments (excluding the binary name and subcommand),
    /// rejecting any flag not in `accepted`.
    pub fn parse<S: AsRef<str>>(args: &[S], accepted: &[&str]) -> Result<Options, OptionError> {
        let mut flags: BTreeMap<String, Vec<String>> = BTreeMap::new();
        let mut positional = Vec::new();
        let mut i = 0;
        while i < args.len() {
            let arg = args[i].as_ref();
            if let Some(name) = arg.strip_prefix("--") {
                if !accepted.contains(&name) {
                    return Err(OptionError::UnknownFlag(name.to_owned()));
                }
                if SWITCHES.contains(&name) {
                    flags.entry(name.to_owned()).or_default();
                    i += 1;
                    continue;
                }
                let value = args
                    .get(i + 1)
                    .map(|v| v.as_ref().to_owned())
                    .ok_or_else(|| OptionError::MissingValue(name.to_owned()))?;
                flags.entry(name.to_owned()).or_default().push(value);
                i += 2;
            } else {
                positional.push(arg.to_owned());
                i += 1;
            }
        }
        Ok(Options { flags, positional })
    }

    /// Positional arguments.
    pub fn positional(&self) -> &[String] {
        &self.positional
    }

    /// True if the switch `--name` was given.
    pub fn has(&self, name: &str) -> bool {
        self.flags.contains_key(name)
    }

    /// The last value of `--name`, if present.
    pub fn value(&self, name: &str) -> Option<&str> {
        self.flags
            .get(name)
            .and_then(|v| v.last())
            .map(String::as_str)
    }

    /// All values of a repeatable flag, in order.
    pub fn values(&self, name: &str) -> &[String] {
        self.flags.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The last value of `--name`, or an error if it was not supplied.
    pub fn require(&self, name: &str) -> Result<&str, OptionError> {
        self.value(name)
            .ok_or_else(|| OptionError::MissingFlag(name.to_owned()))
    }

    /// Parses the last value of `--name` as `T`, with a default when absent.
    pub fn parse_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, OptionError> {
        match self.value(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| OptionError::Invalid {
                flag: name.to_owned(),
                message: format!("cannot parse `{v}`"),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ACCEPTED: &[&str] = &["trace", "query", "json", "telemetry", "edges"];

    #[test]
    fn parses_flags_switches_and_positionals() {
        let opts = Options::parse(
            &[
                "--trace", "t.jsonl", "--query", "a.swq", "--query", "b.swq", "--json", "extra",
            ],
            ACCEPTED,
        )
        .unwrap();
        assert_eq!(opts.value("trace"), Some("t.jsonl"));
        assert_eq!(opts.values("query"), ["a.swq", "b.swq"]);
        assert!(opts.has("json"));
        assert!(!opts.has("telemetry"));
        assert_eq!(opts.positional(), ["extra"]);
    }

    #[test]
    fn missing_value_is_reported() {
        let err = Options::parse(&["--trace"], ACCEPTED).unwrap_err();
        assert!(matches!(err, OptionError::MissingValue(f) if f == "trace"));
    }

    #[test]
    fn flags_outside_the_accepted_list_are_named() {
        let err = Options::parse(&["--trace", "t.jsonl", "--shards", "2"], ACCEPTED).unwrap_err();
        assert_eq!(err, OptionError::UnknownFlag("shards".into()));
        assert!(err.to_string().contains("--shards"));
        // A known switch is still unknown where it is not accepted.
        let err = Options::parse(&["--metrics-json"], ACCEPTED).unwrap_err();
        assert_eq!(err, OptionError::UnknownFlag("metrics-json".into()));
    }

    #[test]
    fn require_and_parse_or_behave() {
        let opts = Options::parse(&["--edges", "500"], ACCEPTED).unwrap();
        assert_eq!(opts.require("edges").unwrap(), "500");
        assert!(opts.require("missing").is_err());
        assert_eq!(opts.parse_or("edges", 10usize).unwrap(), 500);
        assert_eq!(opts.parse_or("absent", 10usize).unwrap(), 10);
        let opts = Options::parse(&["--edges", "not-a-number"], ACCEPTED).unwrap();
        assert!(opts.parse_or("edges", 10usize).is_err());
    }

    #[test]
    fn errors_display_the_flag_name() {
        assert!(OptionError::MissingFlag("trace".into())
            .to_string()
            .contains("--trace"));
        assert!(OptionError::MissingValue("out".into())
            .to_string()
            .contains("--out"));
    }
}
