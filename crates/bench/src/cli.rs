//! The one command-line option parser of `njc` and the njc-bench binaries.
//!
//! Each command declares its accepted switches (no value), valued options
//! and positional arity in a [`Spec`]; [`Spec::parse`] checks the whole
//! command line against it before any work starts. Failures read the same
//! everywhere: a message naming the offending flag, then the usage text,
//! then exit status 1. `--help` (or `-h`) prints the usage text and exits
//! 0. Typed getters convert values once, with the same error shape.

use std::path::PathBuf;
use std::str::FromStr;

use njc_arch::Platform;
use njc_opt::ConfigKind;
use njc_recover::RecoveryStrategy;

/// What one command accepts.
pub struct Spec {
    /// Printed on `--help` and after every usage error.
    pub usage: &'static str,
    /// Flags that take no value.
    pub switches: &'static [&'static str],
    /// Flags that take the next argument as their value.
    pub options: &'static [&'static str],
    /// Most positional (non-flag) arguments accepted.
    pub positionals: usize,
}

/// A command line that failed to parse, or asked for `--help`.
#[derive(Debug)]
pub struct UsageError {
    usage: &'static str,
    /// `None` for `--help`.
    message: Option<String>,
}

impl UsageError {
    /// Prints the message and usage text and ends the process: exit 0 for
    /// `--help`, else 1.
    pub fn exit(self) -> ! {
        match self.message {
            None => {
                println!("{}", self.usage);
                std::process::exit(0)
            }
            Some(m) => {
                eprintln!("error: {m}\n{}", self.usage);
                std::process::exit(1)
            }
        }
    }
}

/// A parsed command line.
pub struct Args {
    usage: &'static str,
    /// Flags in command-line order, with their values.
    flags: Vec<(&'static str, Option<String>)>,
    /// Non-flag arguments, in order.
    pub positionals: Vec<String>,
}

impl Spec {
    /// Checks `argv` (program name already stripped) against the spec.
    pub fn parse<I: IntoIterator<Item = String>>(&self, argv: I) -> Result<Args, UsageError> {
        let mut args = Args {
            usage: self.usage,
            flags: Vec::new(),
            positionals: Vec::new(),
        };
        let mut it = argv.into_iter();
        while let Some(a) = it.next() {
            if a == "--help" || a == "-h" {
                return Err(UsageError {
                    usage: self.usage,
                    message: None,
                });
            }
            if let Some(&s) = self.switches.iter().find(|s| **s == a) {
                args.flags.push((s, None));
            } else if let Some(&o) = self.options.iter().find(|o| **o == a) {
                let v = it
                    .next()
                    .ok_or_else(|| args.error(format!("{o} needs a value")))?;
                args.flags.push((o, Some(v)));
            } else if a.starts_with('-') {
                return Err(args.error(format!("unknown flag `{a}`")));
            } else if args.positionals.len() < self.positionals {
                args.positionals.push(a);
            } else {
                return Err(args.error(format!("unexpected argument `{a}`")));
            }
        }
        Ok(args)
    }
}

impl Args {
    /// A usage error carrying this command's usage text.
    pub fn error(&self, message: String) -> UsageError {
        UsageError {
            usage: self.usage,
            message: Some(message),
        }
    }

    fn invalid(&self, flag: &str, value: &str) -> UsageError {
        self.error(format!("invalid value `{value}` for {flag}"))
    }

    /// Whether the switch was given.
    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|(f, _)| *f == name)
    }

    /// Which of `names` was given last, if any.
    pub fn last_of(&self, names: &[&str]) -> Option<&'static str> {
        self.flags
            .iter()
            .rev()
            .map(|(f, _)| *f)
            .find(|f| names.contains(f))
    }

    /// The option's value (the last one, if repeated).
    fn value(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(f, _)| *f == name)
            .and_then(|(_, v)| v.as_deref())
    }

    /// The `pos`-th positional argument.
    pub fn positional(&self, pos: usize) -> Option<&str> {
        self.positionals.get(pos).map(String::as_str)
    }

    /// The option's value converted with `parse`.
    pub fn parsed<T>(
        &self,
        name: &str,
        parse: impl FnOnce(&str) -> Option<T>,
    ) -> Result<Option<T>, UsageError> {
        self.value(name)
            .map(|v| parse(v).ok_or_else(|| self.invalid(name, v)))
            .transpose()
    }

    /// The option's value as any [`FromStr`] type.
    pub fn get<T: FromStr>(&self, name: &str) -> Result<Option<T>, UsageError> {
        self.parsed(name, |v| v.parse().ok())
    }

    /// The option's value as a number greater than zero.
    pub fn positive<T: FromStr + PartialOrd + Default>(
        &self,
        name: &str,
    ) -> Result<Option<T>, UsageError> {
        self.parsed(name, |v| v.parse().ok().filter(|n| *n > T::default()))
    }

    /// The option's value as a path.
    pub fn path(&self, name: &str) -> Option<PathBuf> {
        self.value(name).map(PathBuf::from)
    }

    /// `--config <name>` ([`ConfigKind::parse`]).
    pub fn config(&self) -> Result<Option<ConfigKind>, UsageError> {
        self.parsed("--config", ConfigKind::parse)
    }

    /// `--platform <name>` ([`Platform::parse`]).
    pub fn platform(&self) -> Result<Option<Platform>, UsageError> {
        self.parsed("--platform", Platform::parse)
    }

    /// `--threads N`, N > 0.
    pub fn threads(&self) -> Result<Option<usize>, UsageError> {
        self.positive("--threads")
    }

    /// `--recover <strategy>` ([`RecoveryStrategy::parse`]).
    pub fn recover(&self) -> Result<Option<RecoveryStrategy>, UsageError> {
        self.parsed("--recover", RecoveryStrategy::parse)
    }

    /// `--seeds N`.
    pub fn seeds(&self) -> Result<Option<u64>, UsageError> {
        self.get("--seeds")
    }

    /// `--out PATH`.
    pub fn out(&self) -> Option<PathBuf> {
        self.path("--out")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: Spec = Spec {
        usage: "usage: t [--smoke] [--threads N] [FILE]",
        switches: &["--smoke", "--on", "--off"],
        options: &["--threads", "--out"],
        positionals: 1,
    };

    fn parse(argv: &[&str]) -> Result<Args, UsageError> {
        SPEC.parse(argv.iter().map(|s| s.to_string()))
    }

    fn message(r: Result<Args, UsageError>) -> Option<String> {
        r.err().expect("must fail").message
    }

    #[test]
    fn switches_options_and_positionals() {
        let a = parse(&["f.njc", "--smoke", "--threads", "3", "--out", "x"]).unwrap();
        assert!(a.flag("--smoke"));
        assert_eq!(a.threads().unwrap(), Some(3));
        assert_eq!(a.out(), Some(PathBuf::from("x")));
        assert_eq!(a.positional(0), Some("f.njc"));
        assert_eq!(a.positional(1), None);
    }

    #[test]
    fn every_failure_names_the_flag() {
        let m = message(parse(&["--bogus"])).unwrap();
        assert!(m.contains("--bogus"), "{m}");
        let m = message(parse(&["--threads"])).unwrap();
        assert!(m.contains("--threads"), "{m}");
        let m = message(parse(&["a", "b"])).unwrap();
        assert!(m.contains("`b`"), "{m}");
        for bad in ["0", "x", "-1"] {
            let a = parse(&["--threads", bad]).unwrap();
            let m = a.threads().unwrap_err().message.unwrap();
            assert!(m.contains("--threads") && m.contains(bad), "{m}");
        }
    }

    #[test]
    fn help_is_not_an_error() {
        assert_eq!(message(parse(&["--smoke", "--help"])), None);
        assert_eq!(message(parse(&["-h"])), None);
    }

    #[test]
    fn last_value_and_last_switch_win() {
        let a = parse(&["--threads", "2", "--on", "--off", "--threads", "5"]).unwrap();
        assert_eq!(a.threads().unwrap(), Some(5));
        assert_eq!(a.last_of(&["--on", "--off"]), Some("--off"));
    }
}
