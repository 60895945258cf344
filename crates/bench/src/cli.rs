//! The one command-line flag parser every FlexCore binary uses.
//!
//! Binaries *pull* what they read: [`Args::flag`], [`Args::value`] and
//! [`Args::values`] consume the tokens they match, [`Args::subcommand`]
//! and [`Args::positional`] take the bare words that remain, and
//! [`Args::finish`] rejects anything left over. A mistyped flag
//! (`--trails 40`), a missing or malformed value, or a stray word is a
//! usage error: the program prints it with its synopsis and exits 2
//! before doing any work. `--help`/`-h` prints the synopsis and exits 0.
//!
//! ```
//! use flexcore_bench::cli::{ArgError, Args};
//!
//! let mut args = Args::new("demo [--seed N] [--quick] FILE", ["in.s", "--seed", "0xbeef"]);
//! assert_eq!(args.value::<u64>("--seed"), Some(0xbeef));
//! assert!(!args.flag("--quick"));
//! assert_eq!(args.positional().as_deref(), Some("in.s"));
//! assert_eq!(args.check(), Ok(()));
//!
//! let args = Args::new("demo [--trials N]", ["--trails", "40"]);
//! assert_eq!(args.check(), Err(ArgError::Usage("unknown flag `--trails`".into())));
//! ```

use std::path::PathBuf;

/// A type a flag value parses into.
pub trait FlagValue: Sized {
    /// Parses one value token; the error says what was expected.
    fn parse_flag(text: &str) -> Result<Self, String>;
}

macro_rules! int_flag_values {
    ($($t:ty),*) => {$(
        /// Decimal, or hexadecimal with a `0x` prefix.
        impl FlagValue for $t {
            fn parse_flag(text: &str) -> Result<Self, String> {
                match text.strip_prefix("0x") {
                    Some(hex) => <$t>::from_str_radix(hex, 16),
                    None => text.parse(),
                }
                .map_err(|e| format!("{e} (expected decimal or 0x-hex {})", stringify!($t)))
            }
        }
    )*};
}
int_flag_values!(u8, u32, u64, usize);

macro_rules! from_str_flag_values {
    ($($t:ty),*) => {$(
        impl FlagValue for $t {
            fn parse_flag(text: &str) -> Result<Self, String> {
                text.parse().map_err(|e| format!("{e}"))
            }
        }
    )*};
}
from_str_flag_values!(f64, String, PathBuf);

/// Why parsing stopped short of a run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ArgError {
    /// `--help` or `-h` was given.
    Help,
    /// A usage error, described for the user.
    Usage(String),
}

/// The command line of one binary, consumed flag by flag.
#[derive(Debug)]
pub struct Args {
    usage: &'static str,
    /// The arguments after the program name; `None` once consumed.
    tokens: Vec<Option<String>>,
    /// The first usage error met; reported by [`Args::finish`].
    error: Option<String>,
}

impl Args {
    /// The process's own command line. `usage` is the synopsis printed
    /// with a usage error, starting with the program name.
    pub fn from_env(usage: &'static str) -> Args {
        Args::new(usage, std::env::args().skip(1))
    }

    /// An explicit command line (without the program name).
    pub fn new<I: IntoIterator<Item = T>, T: Into<String>>(usage: &'static str, argv: I) -> Args {
        Args { usage, tokens: argv.into_iter().map(|t| Some(t.into())).collect(), error: None }
    }

    fn program(&self) -> &'static str {
        self.usage.split_whitespace().next().unwrap_or("")
    }

    /// Records a usage error; the first one recorded is the one
    /// reported. For checks across flags that the parser cannot see.
    pub fn error(&mut self, msg: impl Into<String>) {
        self.error.get_or_insert_with(|| msg.into());
    }

    /// Whether the boolean flag `name` was given (any number of times).
    pub fn flag(&mut self, name: &str) -> bool {
        let mut seen = false;
        for slot in &mut self.tokens {
            if slot.as_deref() == Some(name) {
                *slot = None;
                seen = true;
            }
        }
        seen
    }

    /// Every value given as `name VALUE`, in command-line order.
    pub fn values<T: FlagValue>(&mut self, name: &str) -> Vec<T> {
        let mut out = Vec::new();
        let mut i = 0;
        while i < self.tokens.len() {
            if self.tokens[i].as_deref() != Some(name) {
                i += 1;
                continue;
            }
            self.tokens[i] = None;
            let text = match self.tokens.get_mut(i + 1) {
                Some(slot) if slot.as_deref().is_some_and(|t| !t.starts_with("--")) => slot.take(),
                _ => None,
            };
            let Some(text) = text else {
                self.error(format!("{name} needs a value"));
                break;
            };
            match T::parse_flag(&text) {
                Ok(v) => out.push(v),
                Err(e) => self.error(format!("invalid value `{text}` for {name}: {e}")),
            }
            i += 2;
        }
        out
    }

    /// The value of `name VALUE`; when the flag repeats, the last wins.
    pub fn value<T: FlagValue>(&mut self, name: &str) -> Option<T> {
        self.values(name).pop()
    }

    /// The subcommand: the first argument, when it is a bare word.
    pub fn subcommand(&mut self) -> Option<String> {
        match self.tokens.first_mut() {
            Some(slot) if slot.as_deref().is_some_and(|t| !t.starts_with('-')) => slot.take(),
            _ => None,
        }
    }

    /// The next bare word not yet consumed. Call after every flag and
    /// value has been read, so their values are not taken for
    /// positionals.
    pub fn positional(&mut self) -> Option<String> {
        self.tokens
            .iter_mut()
            .find(|slot| slot.as_deref().is_some_and(|t| !t.starts_with('-')))?
            .take()
    }

    /// Every remaining bare word, in command-line order.
    pub fn positionals(&mut self) -> Vec<String> {
        std::iter::from_fn(|| self.positional()).collect()
    }

    /// Ends parsing: `Err` on `--help`, on any argument no call
    /// consumed (a typo explains more than what it caused), or on the
    /// first recorded error.
    ///
    /// # Errors
    ///
    /// [`ArgError::Help`] or [`ArgError::Usage`] as described.
    pub fn check(mut self) -> Result<(), ArgError> {
        if self.flag("--help") | self.flag("-h") {
            return Err(ArgError::Help);
        }
        match self.tokens.into_iter().flatten().next() {
            Some(t) if t.starts_with('-') => Err(ArgError::Usage(format!("unknown flag `{t}`"))),
            Some(t) => Err(ArgError::Usage(format!("unexpected argument `{t}`"))),
            None => self.error.map_or(Ok(()), |msg| Err(ArgError::Usage(msg))),
        }
    }

    /// [`Args::check`], exiting the process unless it passes: `--help`
    /// prints the synopsis and exits 0; a usage error prints the error
    /// and the synopsis to stderr and exits 2.
    pub fn finish(self) {
        let (program, usage) = (self.program(), self.usage);
        match self.check() {
            Ok(()) => {}
            Err(ArgError::Help) => {
                println!("usage: {usage}");
                std::process::exit(0);
            }
            Err(ArgError::Usage(msg)) => {
                eprintln!("{program}: {msg}\nusage: {usage}");
                std::process::exit(2);
            }
        }
    }

    /// Records `msg` as a usage error and [finishes](Args::finish).
    pub fn fail(mut self, msg: impl Into<String>) -> ! {
        self.error(msg);
        self.finish();
        unreachable!("finish exits on a recorded error")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const USAGE: &str = "demo [--seed N] [--spec FILE]... [--quick] [FILE]";

    fn usage_err(args: Args) -> String {
        match args.check() {
            Err(ArgError::Usage(msg)) => msg,
            other => panic!("expected a usage error, got {other:?}"),
        }
    }

    #[test]
    fn unknown_flag_is_rejected() {
        let mut args = Args::new(USAGE, ["--trails", "40"]);
        assert_eq!(args.value::<u64>("--trials"), None);
        assert_eq!(usage_err(args), "unknown flag `--trails`");
    }

    #[test]
    fn stray_word_is_rejected() {
        let mut args = Args::new(USAGE, ["--quick", "extra"]);
        assert!(args.flag("--quick"));
        assert_eq!(usage_err(args), "unexpected argument `extra`");
    }

    #[test]
    fn missing_value_is_rejected() {
        let mut args = Args::new(USAGE, ["--seed"]);
        assert_eq!(args.value::<u64>("--seed"), None);
        assert_eq!(usage_err(args), "--seed needs a value");

        // A following flag is not taken as the value.
        let mut args = Args::new(USAGE, ["--seed", "--quick"]);
        assert_eq!(args.value::<u64>("--seed"), None);
        assert!(args.flag("--quick"));
        assert_eq!(usage_err(args), "--seed needs a value");
    }

    #[test]
    fn malformed_and_out_of_range_values_are_rejected() {
        let mut args = Args::new(USAGE, ["--seed", "abc"]);
        assert_eq!(args.value::<u64>("--seed"), None);
        assert!(usage_err(args).starts_with("invalid value `abc` for --seed"));

        let mut args = Args::new(USAGE, ["--priority", "300"]);
        assert_eq!(args.value::<u8>("--priority"), None);
        assert!(usage_err(args).starts_with("invalid value `300` for --priority"));

        let mut args = Args::new(USAGE, ["--tolerance", "lots"]);
        assert_eq!(args.value::<f64>("--tolerance"), None);
        assert!(args.check().is_err());
    }

    #[test]
    fn integers_accept_hex() {
        let mut args = Args::new(USAGE, ["--seed", "0xf1ec", "--trials", "60"]);
        assert_eq!(args.value::<u64>("--seed"), Some(0xf1ec));
        assert_eq!(args.value::<usize>("--trials"), Some(60));
        assert_eq!(args.check(), Ok(()));

        let mut args = Args::new(USAGE, ["--seed", "0xzz"]);
        assert_eq!(args.value::<u64>("--seed"), None);
        assert!(args.check().is_err());
    }

    #[test]
    fn repeated_values_keep_order_and_the_last_single_value_wins() {
        let mut args = Args::new(USAGE, ["--spec", "a.json", "--seed", "1", "--spec", "b.json"]);
        args.flag("--seed");
        assert_eq!(args.values::<String>("--spec"), ["a.json", "b.json"]);
        let mut args = Args::new(USAGE, ["--seed", "1", "--seed", "2"]);
        assert_eq!(args.value::<u64>("--seed"), Some(2));
        assert_eq!(args.check(), Ok(()));
    }

    #[test]
    fn positionals_skip_consumed_values() {
        let mut args = Args::new(USAGE, ["--seed", "7", "sha", "--quick", "fft"]);
        assert_eq!(args.value::<u64>("--seed"), Some(7));
        assert!(args.flag("--quick"));
        assert_eq!(args.positionals(), ["sha", "fft"]);
        assert_eq!(args.check(), Ok(()));
    }

    #[test]
    fn subcommand_is_the_leading_bare_word() {
        let mut args = Args::new(USAGE, ["run", "--seed", "3"]);
        assert_eq!(args.subcommand().as_deref(), Some("run"));
        assert_eq!(args.value::<u64>("--seed"), Some(3));
        assert_eq!(args.check(), Ok(()));

        let mut args = Args::new(USAGE, ["--seed", "3", "run"]);
        assert_eq!(args.subcommand(), None);
    }

    #[test]
    fn help_wins_over_errors() {
        let args = Args::new(USAGE, ["--bogus", "--help"]);
        assert_eq!(args.check(), Err(ArgError::Help));
        let args = Args::new(USAGE, ["-h"]);
        assert_eq!(args.check(), Err(ArgError::Help));
    }

    #[test]
    fn explicit_errors_are_reported_first_come_after_leftovers() {
        let mut args = Args::new(USAGE, ["--resume"]);
        assert!(args.flag("--resume"));
        args.error("--resume needs --progress");
        args.error("second");
        assert_eq!(usage_err(args), "--resume needs --progress");

        let mut args = Args::new(USAGE, ["--resume", "--progres", "log"]);
        assert!(args.flag("--resume"));
        args.error("--resume needs --progress");
        assert_eq!(usage_err(args), "unknown flag `--progres`");
    }
}
