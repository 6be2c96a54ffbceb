//! One command-line parser for the `k2-bench` tools.
//!
//! Every tool's command line is an optional leading positional, then
//! `--flag <value>` pairs and bare `--switch`es in any order. Its usage
//! line is its flag table, so the two cannot drift apart. Every
//! [`Command::parse`] returns `Ok` or `Err`, never panics, and is fuzzed
//! in-process by `tests/cli.rs`; [`Command::usage_error`] is the one
//! usage-error path (message and usage line on stderr, exit 2).

use std::str::FromStr;

/// A command line split against one tool's usage line.
#[derive(Debug, Default)]
pub struct Args {
    positional: Option<String>,
    given: Vec<(String, Option<String>)>,
}

impl Args {
    /// Splits `argv` against `usage`, e.g. `<section> [--seed <n>]
    /// [--check]`. A leading `<…>` word admits one positional first
    /// argument (any token not starting with `--`); a `--flag` followed by
    /// a `<…>` word takes the next token as its value; any other `--flag`
    /// is a switch. An unknown token, a repeated flag or a flag without
    /// its value is an error.
    pub fn parse(argv: &[String], usage: &str) -> Result<Args, String> {
        let words: Vec<&str> = usage
            .split_whitespace()
            .map(|w| w.trim_matches(['[', ']']))
            .collect();
        let mut args = Args::default();
        let mut tokens = argv.iter().peekable();
        if words.first().is_some_and(|w| w.starts_with('<')) {
            args.positional = tokens.next_if(|t| !t.starts_with("--")).cloned();
        }
        while let Some(token) = tokens.next() {
            let at = words.iter().position(|w| w.starts_with("--") && w == token);
            let Some(at) = at else {
                return Err(format!("unexpected argument `{token}`"));
            };
            if args.switch(token) {
                return Err(format!("{token} given twice"));
            }
            let mut value = None;
            if words.get(at + 1).is_some_and(|w| w.starts_with('<')) {
                let missing = || format!("{token} needs a value");
                value = Some(tokens.next().ok_or_else(missing)?.clone());
            }
            args.given.push((token.clone(), value));
        }
        Ok(args)
    }

    /// The leading positional argument, if one was given.
    pub fn positional(&self) -> Option<&str> {
        self.positional.as_deref()
    }

    /// Whether `flag` was given.
    pub fn switch(&self, flag: &str) -> bool {
        self.given.iter().any(|(f, _)| f == flag)
    }

    /// The raw value of `flag`, if given.
    pub fn string(&self, flag: &str) -> Option<String> {
        self.given
            .iter()
            .find(|(f, _)| f == flag)
            .and_then(|(_, value)| value.clone())
    }

    /// The value of `flag` through `parse`; `None` when the flag was not
    /// given, an error when `parse` rejects the value.
    pub fn value<T>(
        &self,
        flag: &str,
        parse: impl FnOnce(&str) -> Option<T>,
    ) -> Result<Option<T>, String> {
        let bad = |v: &str| format!("bad value `{v}` for {flag}");
        self.string(flag)
            .map(|v| parse(&v).ok_or_else(|| bad(&v)))
            .transpose()
    }

    /// The value of `flag` as a number (or anything else [`FromStr`]).
    pub fn num<T: FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        self.value(flag, |v| v.parse().ok())
    }
}

/// One tool's command line.
pub struct Command<T> {
    /// The binary's name.
    pub name: &'static str,
    /// The usage line after the name; also the flag table.
    pub usage: &'static str,
    /// Turns the split arguments into the tool's configuration, or a
    /// usage error.
    pub read: fn(&Args) -> Result<T, String>,
}

impl<T> Command<T> {
    /// Parses the arguments after the program name. Never panics.
    pub fn parse(&self, argv: &[String]) -> Result<T, String> {
        (self.read)(&Args::parse(argv, self.usage)?)
    }

    /// Parses the process arguments, exiting through
    /// [`Command::usage_error`] on a usage error.
    pub fn parse_env(&self) -> T {
        let argv: Vec<String> = std::env::args_os()
            .skip(1)
            .map(|a| a.to_string_lossy().into_owned())
            .collect();
        self.parse(&argv).unwrap_or_else(|e| self.usage_error(&e))
    }

    /// Prints `error` and the usage line to stderr and exits 2.
    pub fn usage_error(&self, error: &str) -> ! {
        eprintln!(
            "{}: {error}\nusage: {} {}",
            self.name, self.name, self.usage
        );
        std::process::exit(2)
    }
}

/// Writes `contents` to `path`, or exits through [`exit_on_io_error`].
pub fn write_or_exit(path: &str, contents: impl AsRef<[u8]>) {
    if let Err(e) = std::fs::write(path, contents) {
        exit_on_io_error(path, e)
    }
}

/// Prints that `path` could not be written, and why, then exits 1.
pub fn exit_on_io_error(path: &str, e: std::io::Error) -> ! {
    eprintln!("cannot write {path}: {e}");
    std::process::exit(1)
}
