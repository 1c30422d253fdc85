//! The command line of the `mp-harness` binary.
//!
//! `mp-harness <subcommand> [flags]` runs one experiment. Each subcommand
//! is one [`Command`] entry: its name, its summary, and its flags declared
//! once as a [`FlagSpec`] table. Dispatch, the top-level usage
//! (`program_usage`), flag parsing, each subcommand's generated `--help`
//! and the optional [`Tracer`] construction all derive from that one table
//! — so the help text cannot drift from what is parsed.

use mp_checker::{TraceOptions, Tracer};

/// The binary's name, as usage lines print it.
pub const PROGRAM: &str = "mp-harness";

/// One subcommand of the `mp-harness` binary.
#[derive(Debug)]
pub struct Command {
    /// The subcommand's name (`fault_sweep`).
    pub name: &'static str,
    /// What `--help` prints under the usage line; the top-level usage shows
    /// its first line.
    pub summary: &'static str,
    /// The flags the subcommand accepts.
    pub flags: &'static [FlagSpec],
    /// Usage of its positional arguments, `None` when it takes none.
    pub positionals: Option<&'static str>,
    /// Runs the subcommand on its parsed command line.
    pub run: fn(&Cli),
}

impl Command {
    /// Parses the arguments after the subcommand name (no I/O, no exit).
    ///
    /// # Errors
    ///
    /// [`CliError::HelpRequested`] on `--help`/`-h`;
    /// [`CliError::Invalid`] on an unknown flag, a missing required value,
    /// or a positional argument the subcommand does not take.
    pub fn parse(&'static self, args: &[String]) -> Result<Cli, CliError> {
        let mut cli = Cli {
            command: self,
            found: Vec::new(),
            positionals: Vec::new(),
        };
        let mut it = args.iter().peekable();
        while let Some(arg) = it.next() {
            if arg == "--help" || arg == "-h" {
                return Err(CliError::HelpRequested);
            }
            if let Some(spec) = self.flags.iter().find(|f| f.name == arg) {
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
            } else if self.positionals.is_some() {
                cli.positionals.push(arg.clone());
            } else {
                return Err(CliError::Invalid(format!(
                    "unexpected positional argument `{arg}`"
                )));
            }
        }
        Ok(cli)
    }

    /// The generated usage/help text (what `--help` prints).
    pub(crate) fn usage(&self) -> String {
        let rendered: Vec<String> = self
            .flags
            .iter()
            .map(|spec| match spec.arg {
                FlagArg::None => spec.name.to_string(),
                FlagArg::Required(placeholder) => format!("{} {placeholder}", spec.name),
                FlagArg::Optional(placeholder) => format!("{} [{placeholder}]", spec.name),
            })
            .collect();
        let mut line = format!("usage: {PROGRAM} {}", self.name);
        for flag in &rendered {
            line.push_str(&format!(" [{flag}]"));
        }
        if let Some(positionals) = self.positionals {
            line.push_str(&format!(" {positionals}"));
        }
        let mut out = format!("{line}\n\n{}\n", self.summary);
        if !self.flags.is_empty() {
            out.push_str("\noptions:\n");
            let width = rendered.iter().map(String::len).max().unwrap_or(0);
            for (flag, spec) in rendered.iter().zip(self.flags) {
                out.push_str(&format!("  {flag:<width$}  {}\n", spec.help));
            }
        }
        out
    }
}

/// The top-level usage: every subcommand with its summary's first line.
pub(crate) fn program_usage(commands: &[Command]) -> String {
    let width = commands.iter().map(|c| c.name.len()).max().unwrap_or(0);
    let mut out = format!(
        "usage: {PROGRAM} <subcommand> [flags]\n\n\
         `{PROGRAM} <subcommand> --help` lists a subcommand's flags.\n\nsubcommands:\n"
    );
    for command in commands {
        let summary = command.summary.lines().next().unwrap_or_default();
        out.push_str(&format!("  {:<width$}  {summary}\n", command.name));
    }
    out
}

/// Picks the subcommand named by `args[0]` and parses the rest of `args`
/// with its flag table.
///
/// # Errors
///
/// The error, with the usage text to print beside it: the top-level usage
/// for `--help`, a missing or an unknown subcommand, the subcommand's own
/// for anything [`Command::parse`] rejects.
pub fn dispatch(
    commands: &'static [Command],
    args: &[String],
) -> Result<(&'static Command, Cli), (CliError, String)> {
    let error = match args.split_first() {
        None => CliError::Invalid("missing subcommand".to_string()),
        Some((name, _)) if name == "--help" || name == "-h" => CliError::HelpRequested,
        Some((name, rest)) => match commands.iter().find(|c| c.name == name) {
            Some(command) => {
                return command
                    .parse(rest)
                    .map(|cli| (command, cli))
                    .map_err(|e| (e, command.usage()))
            }
            None => CliError::Invalid(format!("unknown subcommand `{name}`")),
        },
    };
    Err((error, program_usage(commands)))
}

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

/// One flag a subcommand accepts.
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
    /// Ends the process the way every subcommand does: usage and exit 0
    /// for `--help`, the message plus usage and exit 2 otherwise.
    pub fn exit(self, bin: &str, usage: &str) -> ! {
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

/// Parsed command line of one subcommand.
#[derive(Debug)]
pub struct Cli {
    command: &'static Command,
    /// `(flag name, value)` for every flag that appeared.
    found: Vec<(&'static str, Option<String>)>,
    positionals: Vec<String>,
}

impl Cli {
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

    /// Ends the process as a malformed invocation: the message, then the
    /// usage text, exit 2.
    pub fn usage_error(&self, message: impl Into<String>) -> ! {
        CliError::Invalid(message.into()).exit(self.command.name, &self.usage())
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
            .unwrap_or_else(|e| e.exit(self.command.name, &self.usage()))
    }

    /// Pure core of [`Cli::usize_value`].
    ///
    /// # Errors
    ///
    /// [`CliError::Invalid`] naming the flag and the value when the value
    /// does not parse as a `usize`.
    pub(crate) fn try_usize_value(&self, name: &str, default: usize) -> Result<usize, CliError> {
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
        let path = self.value("--json").unwrap_or(default);
        self.has("--json").then(|| path.to_string())
    }

    /// Builds the tracer selected by [`PROGRESS_FLAG`] and [`TRACE_FLAG`]
    /// (disabled when neither appeared).
    ///
    /// # Panics
    ///
    /// Panics when the `--trace` file cannot be created; the subcommands
    /// treat that as fatal, like an unwritable `--json` path.
    pub fn tracer(&self) -> Tracer {
        let mut options = TraceOptions::new();
        if self.has(PROGRESS_FLAG.name) {
            options = options.with_progress();
        }
        if let Some(path) = self.value(TRACE_FLAG.name) {
            options = options.with_ndjson(path);
        }
        Tracer::from_options(options)
            .unwrap_or_else(|e| panic!("{}: cannot open trace sink: {e}", self.command.name))
    }

    /// The subcommand's usage/help text.
    pub(crate) fn usage(&self) -> String {
        self.command.usage()
    }
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

    fn noop(_: &Cli) {}

    static DEMO: Command = Command {
        name: "demo",
        summary: "a demo subcommand",
        flags: FLAGS,
        positionals: None,
        run: noop,
    };

    fn parse(args: &[&str]) -> Result<Cli, CliError> {
        DEMO.parse(&to_args(args))
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

        // Dispatch: a missing or unknown subcommand is a usage error that
        // prints the subcommand list; a known one parses its own flags.
        const COMMANDS: &[Command] = &[Command {
            name: "demo",
            summary: "a demo subcommand",
            flags: FLAGS,
            positionals: None,
            run: noop,
        }];
        for args in [&[][..], &["bogus", "--full"][..]] {
            let Err((CliError::Invalid(m), usage)) = dispatch(COMMANDS, &to_args(args)) else {
                panic!("{args:?} must be a usage error");
            };
            assert!(m.contains(args.first().unwrap_or(&"missing")), "{m}");
            assert!(usage.contains("demo  a demo subcommand"), "{usage}");
        }
        let Err((e, usage)) = dispatch(COMMANDS, &to_args(&["demo", "--bogus"])) else {
            panic!("an unknown flag must fail");
        };
        assert!(matches!(e, CliError::Invalid(m) if m.contains("--bogus")));
        assert!(usage.starts_with("usage: mp-harness demo"), "{usage}");
        let (command, cli) = dispatch(COMMANDS, &to_args(&["demo", "--full"])).unwrap();
        assert_eq!(command.name, "demo");
        assert!(cli.has("--full"));
    }

    #[test]
    fn numeric_values_default_when_absent_and_fail_when_malformed() {
        static NUMERIC: Command = Command {
            flags: &[THREADS_FLAG, FlagSpec::value("--voters", "N", "voters")],
            ..DEMO
        };
        let parse = |args: &[&str]| NUMERIC.parse(&to_args(args));
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
        static GATE: Command = Command {
            flags: &[FlagSpec::value("--trace-fresh", "PATH", "fresh trace")],
            positionals: Some("<baseline.json> <fresh.json> [...]"),
            ..DEMO
        };
        let cli = GATE
            .parse(&to_args(&["a.json", "b.json", "--trace-fresh", "t.ndjson"]))
            .unwrap();
        assert_eq!(cli.positionals(), ["a.json", "b.json"]);
        assert_eq!(cli.value("--trace-fresh"), Some("t.ndjson"));
        assert!(cli.usage().contains("<baseline.json>"));
    }

    #[test]
    fn usage_lists_every_flag_exactly_as_parsed() {
        let cli = parse(&[]).unwrap();
        let usage = cli.usage();
        assert!(usage.starts_with("usage: mp-harness demo"));
        assert!(usage.contains("[--json [PATH]]"), "{usage}");
        assert!(usage.contains("[--trace PATH]"), "{usage}");
        assert!(usage.contains("--progress"));
        assert!(usage.contains("a demo subcommand"));
    }

    #[test]
    fn tracer_is_disabled_without_observability_flags() {
        assert!(!parse(&["--full"]).unwrap().tracer().is_enabled());
        // `--progress` alone enables it without touching the filesystem.
        assert!(parse(&["--progress"]).unwrap().tracer().is_enabled());
    }
}
