//! Shared command-line conventions of the harness binaries.
//!
//! Every binary used to hand-roll its own `args.iter().any(...)` scan and
//! keep a usage line in its module docs, and the two drifted (several docs
//! still said `--json PATH` when the parser had long accepted `--json`
//! with an optional path). This module is the single source of truth: a
//! binary declares its flags once as a [`FlagSpec`] table, and parsing,
//! the generated `--help` text and the optional [`Tracer`] construction
//! all derive from that one table — so the help text cannot drift from
//! what is parsed.

use mp_checker::{TraceOptions, Tracer};

/// Whether (and how) a flag takes a value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlagArg {
    /// A boolean switch (`--full`).
    None,
    /// A required value (`--trace PATH`); parsing fails when it is missing.
    Required(&'static str),
    /// An optional value (`--json [PATH]`): the next argument is consumed
    /// as the value unless it is absent or another `--flag`.
    Optional(&'static str),
}

/// One flag a harness binary accepts.
#[derive(Clone, Copy, Debug)]
pub struct FlagSpec {
    /// The spelling, including the leading dashes (`"--json"`).
    pub name: &'static str,
    /// The flag's value shape.
    pub arg: FlagArg,
    /// One-line description shown by `--help`.
    pub help: &'static str,
}

impl FlagSpec {
    /// A boolean switch.
    pub const fn switch(name: &'static str, help: &'static str) -> Self {
        FlagSpec {
            name,
            arg: FlagArg::None,
            help,
        }
    }

    /// A flag with a required value.
    pub const fn value(name: &'static str, placeholder: &'static str, help: &'static str) -> Self {
        FlagSpec {
            name,
            arg: FlagArg::Required(placeholder),
            help,
        }
    }

    /// A flag with an optional value.
    pub const fn optional_value(
        name: &'static str,
        placeholder: &'static str,
        help: &'static str,
    ) -> Self {
        FlagSpec {
            name,
            arg: FlagArg::Optional(placeholder),
            help,
        }
    }
}

/// The shared `--progress` flag (stderr heartbeat lines).
pub const PROGRESS_FLAG: FlagSpec = FlagSpec::switch(
    "--progress",
    "emit heartbeat progress lines (states/sec, depth) to stderr",
);

/// The shared `--trace PATH` flag (NDJSON event stream).
pub const TRACE_FLAG: FlagSpec = FlagSpec::value(
    "--trace",
    "PATH",
    "write machine-readable NDJSON trace events to PATH",
);

/// The shared `--threads N` flag (parallel BFS worker-pool size).
pub const THREADS_FLAG: FlagSpec = FlagSpec::value(
    "--threads",
    "N",
    "worker threads for the parallel BFS engine (0 = available CPUs)",
);

/// Why parsing stopped without producing a [`Cli`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CliError {
    /// `--help`/`-h` was given; the caller should print usage and exit 0.
    HelpRequested,
    /// A malformed invocation; the caller should print the message and the
    /// usage text and exit non-zero.
    Invalid(String),
}

impl CliError {
    /// Ends the process the way every harness binary does: usage and exit 0
    /// for `--help`, the message plus usage and exit 2 otherwise.
    fn exit(self, bin: &str, usage: &str) -> ! {
        match self {
            CliError::HelpRequested => {
                println!("{usage}");
                std::process::exit(0);
            }
            CliError::Invalid(message) => {
                eprintln!("{bin}: {message}");
                eprintln!("{usage}");
                std::process::exit(2);
            }
        }
    }
}

/// Parsed command line of one harness binary.
#[derive(Debug)]
pub struct Cli {
    bin: &'static str,
    summary: &'static str,
    flags: &'static [FlagSpec],
    positional_usage: Option<&'static str>,
    /// `(flag name, value)` for every flag that appeared.
    found: Vec<(&'static str, Option<String>)>,
    positionals: Vec<String>,
}

impl Cli {
    /// Parses `std::env::args()`, printing usage and exiting on `--help` or
    /// a malformed invocation — the entry point the binaries call.
    pub fn parse(bin: &'static str, summary: &'static str, flags: &'static [FlagSpec]) -> Cli {
        Self::parse_with_positionals(bin, summary, flags, None)
    }

    /// Like [`Cli::parse`], additionally accepting positional arguments
    /// (described by `positional_usage`, e.g. `"<baseline.json> <fresh.json>
    /// [...]"`).
    pub fn parse_with_positionals(
        bin: &'static str,
        summary: &'static str,
        flags: &'static [FlagSpec],
        positional_usage: Option<&'static str>,
    ) -> Cli {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Self::try_parse(bin, summary, flags, positional_usage, &args)
            .unwrap_or_else(|e| e.exit(bin, &usage(bin, summary, flags, positional_usage)))
    }

    /// Pure parsing core (testable; no I/O, no exit).
    ///
    /// # Errors
    ///
    /// [`CliError::HelpRequested`] on `--help`/`-h`;
    /// [`CliError::Invalid`] on an unknown flag, a missing required value,
    /// or an unexpected positional argument.
    pub fn try_parse(
        bin: &'static str,
        summary: &'static str,
        flags: &'static [FlagSpec],
        positional_usage: Option<&'static str>,
        args: &[String],
    ) -> Result<Cli, CliError> {
        let mut cli = Cli {
            bin,
            summary,
            flags,
            positional_usage,
            found: Vec::new(),
            positionals: Vec::new(),
        };
        let mut it = args.iter().peekable();
        while let Some(arg) = it.next() {
            if arg == "--help" || arg == "-h" {
                return Err(CliError::HelpRequested);
            }
            if let Some(spec) = flags.iter().find(|f| f.name == arg) {
                let value = match spec.arg {
                    FlagArg::None => None,
                    FlagArg::Required(placeholder) => match it.next() {
                        Some(v) => Some(v.clone()),
                        None => {
                            return Err(CliError::Invalid(format!(
                                "{arg} requires a {placeholder} value"
                            )))
                        }
                    },
                    FlagArg::Optional(_) => match it.peek() {
                        Some(next) if !next.starts_with("--") => {
                            Some(it.next().expect("peeked argument must be present").clone())
                        }
                        _ => None,
                    },
                };
                cli.found.push((spec.name, value));
            } else if arg.starts_with('-') {
                return Err(CliError::Invalid(format!("unknown flag `{arg}`")));
            } else if positional_usage.is_some() {
                cli.positionals.push(arg.clone());
            } else {
                return Err(CliError::Invalid(format!(
                    "unexpected positional argument `{arg}`"
                )));
            }
        }
        Ok(cli)
    }

    /// `true` when `name` appeared on the command line.
    pub fn has(&self, name: &str) -> bool {
        self.found.iter().any(|(n, _)| *n == name)
    }

    /// The value given with `name`, if the flag appeared with one.
    pub fn value(&self, name: &str) -> Option<&str> {
        self.found
            .iter()
            .find(|(n, _)| *n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    /// Positional (non-flag) arguments in order of appearance.
    pub fn positionals(&self) -> &[String] {
        &self.positionals
    }

    /// The value given with `name` parsed as a `usize`, or `default` when
    /// the flag is absent — the convention of every numeric flag
    /// ([`THREADS_FLAG`], `--spill-watermark`, …). A value that is not a
    /// number ends the process like any other malformed invocation (usage,
    /// exit 2) instead of silently running the default.
    pub fn usize_value(&self, name: &str, default: usize) -> usize {
        self.try_usize_value(name, default)
            .unwrap_or_else(|e| e.exit(self.bin, &self.usage()))
    }

    /// Pure core of [`Cli::usize_value`].
    ///
    /// # Errors
    ///
    /// [`CliError::Invalid`] naming the flag and the value when the value
    /// does not parse as a `usize`.
    pub fn try_usize_value(&self, name: &str, default: usize) -> Result<usize, CliError> {
        let Some(value) = self.value(name) else {
            return Ok(default);
        };
        value
            .parse()
            .map_err(|_| CliError::Invalid(format!("{name} expects a number, got `{value}`")))
    }

    /// The shared `--json [PATH]` convention: `None` when the flag is
    /// absent, `Some(default)` when it is given bare, `Some(path)`
    /// otherwise.
    pub fn json_path(&self, default: &str) -> Option<String> {
        if !self.has("--json") {
            return None;
        }
        Some(
            self.value("--json")
                .map(str::to_string)
                .unwrap_or_else(|| default.to_string()),
        )
    }

    /// Builds the tracer selected by [`PROGRESS_FLAG`] and [`TRACE_FLAG`]
    /// (disabled when neither appeared).
    ///
    /// # Panics
    ///
    /// Panics when the `--trace` file cannot be created; the binaries treat
    /// that as fatal, like an unwritable `--json` path.
    pub fn tracer(&self) -> Tracer {
        let mut options = TraceOptions::new();
        if self.has(PROGRESS_FLAG.name) {
            options = options.with_progress();
        }
        if let Some(path) = self.value(TRACE_FLAG.name) {
            options = options.with_ndjson(path);
        }
        Tracer::from_options(options)
            .unwrap_or_else(|e| panic!("{}: cannot open trace sink: {e}", self.bin))
    }

    /// The generated usage/help text (what `--help` prints).
    pub fn usage(&self) -> String {
        usage(self.bin, self.summary, self.flags, self.positional_usage)
    }
}

fn usage(bin: &str, summary: &str, flags: &[FlagSpec], positional_usage: Option<&str>) -> String {
    let mut line = format!("usage: {bin}");
    for spec in flags {
        let rendered = match spec.arg {
            FlagArg::None => spec.name.to_string(),
            FlagArg::Required(placeholder) => format!("{} {placeholder}", spec.name),
            FlagArg::Optional(placeholder) => format!("{} [{placeholder}]", spec.name),
        };
        line.push_str(&format!(" [{rendered}]"));
    }
    if let Some(positional) = positional_usage {
        line.push_str(&format!(" {positional}"));
    }
    let mut out = format!("{line}\n\n{summary}\n");
    if !flags.is_empty() {
        out.push_str("\noptions:\n");
        let width = flags
            .iter()
            .map(|f| {
                f.name.len()
                    + match f.arg {
                        FlagArg::None => 0,
                        FlagArg::Required(p) => p.len() + 1,
                        FlagArg::Optional(p) => p.len() + 3,
                    }
            })
            .max()
            .unwrap_or(0);
        for spec in flags {
            let rendered = match spec.arg {
                FlagArg::None => spec.name.to_string(),
                FlagArg::Required(placeholder) => format!("{} {placeholder}", spec.name),
                FlagArg::Optional(placeholder) => format!("{} [{placeholder}]", spec.name),
            };
            out.push_str(&format!("  {rendered:<width$}  {}\n", spec.help));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const FLAGS: &[FlagSpec] = &[
        FlagSpec::switch("--full", "paper-scale budgets"),
        FlagSpec::optional_value("--json", "PATH", "write rows as JSON"),
        PROGRESS_FLAG,
        TRACE_FLAG,
    ];

    fn to_args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    fn parse(args: &[&str]) -> Result<Cli, CliError> {
        Cli::try_parse("demo", "a demo binary", FLAGS, None, &to_args(args))
    }

    #[test]
    fn switches_and_values_parse() {
        let cli = parse(&["--full", "--trace", "out.ndjson"]).unwrap();
        assert!(cli.has("--full"));
        assert!(!cli.has("--json"));
        assert_eq!(cli.value("--trace"), Some("out.ndjson"));
        assert!(cli.positionals().is_empty());
    }

    #[test]
    fn json_path_follows_the_optional_value_convention() {
        assert_eq!(parse(&[]).unwrap().json_path("d.json"), None);
        assert_eq!(
            parse(&["--json"]).unwrap().json_path("d.json"),
            Some("d.json".to_string())
        );
        assert_eq!(
            parse(&["--json", "out.json"]).unwrap().json_path("d.json"),
            Some("out.json".to_string())
        );
        assert_eq!(
            parse(&["--json", "--full"]).unwrap().json_path("d.json"),
            Some("d.json".to_string())
        );
    }

    #[test]
    fn errors_are_reported_not_guessed() {
        assert!(matches!(parse(&["--help"]), Err(CliError::HelpRequested)));
        assert!(matches!(parse(&["-h"]), Err(CliError::HelpRequested)));
        assert!(matches!(
            parse(&["--bogus"]),
            Err(CliError::Invalid(m)) if m.contains("--bogus")
        ));
        assert!(matches!(
            parse(&["--trace"]),
            Err(CliError::Invalid(m)) if m.contains("PATH")
        ));
        assert!(matches!(
            parse(&["stray"]),
            Err(CliError::Invalid(m)) if m.contains("stray")
        ));
    }

    #[test]
    fn numeric_values_default_when_absent_and_fail_when_malformed() {
        const NUMERIC: &[FlagSpec] = &[THREADS_FLAG, FlagSpec::value("--voters", "N", "voters")];
        let parse = |args: &[&str]| Cli::try_parse("demo", "", NUMERIC, None, &to_args(args));
        let cli = parse(&["--threads", "3"]).unwrap();
        assert_eq!(cli.try_usize_value("--threads", 0), Ok(3));
        assert_eq!(cli.try_usize_value("--voters", 4), Ok(4), "absent: default");
        let cli = parse(&["--threads", "two", "--voters", "-1"]).unwrap();
        for (flag, value) in [("--threads", "two"), ("--voters", "-1")] {
            assert!(matches!(
                cli.try_usize_value(flag, 9),
                Err(CliError::Invalid(m)) if m.contains(flag) && m.contains(value)
            ));
        }
    }

    #[test]
    fn positionals_are_accepted_when_declared() {
        const GATE_FLAGS: &[FlagSpec] =
            &[FlagSpec::value("--tolerance", "T", "relative tolerance")];
        let cli = Cli::try_parse(
            "gate",
            "the gate",
            GATE_FLAGS,
            Some("<baseline.json> <fresh.json> [...]"),
            &to_args(&["a.json", "b.json", "--tolerance", "0.2"]),
        )
        .unwrap();
        assert_eq!(cli.positionals(), ["a.json", "b.json"]);
        assert_eq!(cli.value("--tolerance"), Some("0.2"));
        assert!(cli.usage().contains("<baseline.json>"));
    }

    #[test]
    fn usage_lists_every_flag_exactly_as_parsed() {
        let cli = parse(&[]).unwrap();
        let usage = cli.usage();
        assert!(usage.starts_with("usage: demo"));
        assert!(usage.contains("[--json [PATH]]"), "{usage}");
        assert!(usage.contains("[--trace PATH]"), "{usage}");
        assert!(usage.contains("--progress"));
        assert!(usage.contains("a demo binary"));
    }

    #[test]
    fn tracer_is_disabled_without_observability_flags() {
        assert!(!parse(&["--full"]).unwrap().tracer().is_enabled());
        // `--progress` alone enables it without touching the filesystem.
        assert!(parse(&["--progress"]).unwrap().tracer().is_enabled());
    }
}
