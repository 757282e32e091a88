//! Minimal dependency-free command-line argument parsing for the `fsdl`
//! tool.
//!
//! Grammar: `fsdl <command> [positionals...] [--flag value]...`. Flags may
//! appear anywhere after the command; `--flag=value` is also accepted.
//!
//! A command reads every flag and positional it takes through the
//! accessors below, then calls [`ParsedArgs::finish`], which refuses
//! whatever it did not read, before it acts.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet};

/// A parsed command line: the command word, positional arguments, and
/// `--key value` options, plus which of them the command has read.
#[derive(Clone, Debug, Default)]
pub struct ParsedArgs {
    /// The command word (`gen`, `stats`, `label`, `query`, `route`).
    pub command: String,
    /// Positional arguments in order.
    pub positionals: Vec<String>,
    /// Options by key (without the leading `--`).
    pub options: BTreeMap<String, String>,
    /// Keys read through an accessor.
    read: RefCell<BTreeSet<String>>,
    /// Keys read as `yes`/`no` booleans.
    booleans: RefCell<BTreeSet<String>>,
    /// How many leading positionals have been read.
    positionals_read: Cell<usize>,
}

/// Errors from argument parsing or validation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ArgError(pub String);

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ArgError {}

impl ParsedArgs {
    /// Parses raw arguments (excluding the program name).
    ///
    /// # Errors
    ///
    /// Returns an [`ArgError`] when no command is given or an option is
    /// missing its value.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Self, ArgError> {
        let mut iter = args.into_iter().peekable();
        let command = iter
            .next()
            .ok_or_else(|| ArgError("missing command (try `fsdl help`)".into()))?;
        let mut parsed = ParsedArgs {
            command,
            ..ParsedArgs::default()
        };
        while let Some(arg) = iter.next() {
            if let Some(stripped) = arg.strip_prefix("--") {
                if let Some((key, value)) = stripped.split_once('=') {
                    parsed.options.insert(key.to_string(), value.to_string());
                } else {
                    let value = iter
                        .next()
                        .ok_or_else(|| ArgError(format!("option --{stripped} needs a value")))?;
                    parsed.options.insert(stripped.to_string(), value);
                }
            } else {
                parsed.positionals.push(arg);
            }
        }
        Ok(parsed)
    }

    /// The value of `--key`, if present.
    pub fn option(&self, key: &str) -> Option<&str> {
        self.read.borrow_mut().insert(key.to_string());
        self.options.get(key).map(String::as_str)
    }

    /// A boolean `--key yes|no` flag, false when absent. A value other
    /// than `yes` or `no` is refused by [`ParsedArgs::finish`].
    pub fn flag(&self, key: &str) -> bool {
        self.booleans.borrow_mut().insert(key.to_string());
        self.option(key) == Some("yes")
    }

    /// A required `--key` value.
    ///
    /// # Errors
    ///
    /// Returns an [`ArgError`] when the option is absent.
    pub fn required(&self, key: &str) -> Result<&str, ArgError> {
        self.option(key)
            .ok_or_else(|| ArgError(format!("missing required option --{key}")))
    }

    /// Parses `--key` as `T`, if present; an error if unparsable.
    pub fn parse_opt<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, ArgError> {
        self.option(key)
            .map(|raw| {
                raw.parse()
                    .map_err(|_| ArgError(format!("invalid value '{raw}' for --{key}")))
            })
            .transpose()
    }

    /// Parses `--key` as `T`, with a default when absent.
    ///
    /// # Errors
    ///
    /// Returns an [`ArgError`] when present but unparsable.
    pub fn parse_option<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, ArgError> {
        Ok(self.parse_opt(key)?.unwrap_or(default))
    }

    /// Parses a required `--key` as `T`.
    ///
    /// # Errors
    ///
    /// Returns an [`ArgError`] when absent or unparsable.
    pub fn parse_required<T: std::str::FromStr>(&self, key: &str) -> Result<T, ArgError> {
        let raw = self.required(key)?;
        raw.parse()
            .map_err(|_| ArgError(format!("invalid value '{raw}' for --{key}")))
    }

    /// The positional at `index`, or an error naming it.
    ///
    /// # Errors
    ///
    /// Returns an [`ArgError`] when absent.
    pub fn positional(&self, index: usize, name: &str) -> Result<&str, ArgError> {
        self.positionals_read
            .set(self.positionals_read.get().max(index + 1));
        self.positionals
            .get(index)
            .map(String::as_str)
            .ok_or_else(|| ArgError(format!("missing <{name}> argument")))
    }

    /// Ends the parse: refuses, naming the command, the first flag or
    /// positional the command did not read, or a boolean flag whose value
    /// is not `yes` or `no`.
    pub fn finish(&self) -> Result<(), ArgError> {
        let cmd = &self.command;
        let read = self.read.borrow();
        if let Some(key) = self.options.keys().find(|k| !read.contains(*k)) {
            return Err(ArgError(format!("{cmd} does not take --{key}")));
        }
        if let Some(extra) = self.positionals.get(self.positionals_read.get()) {
            return Err(ArgError(format!("{cmd} does not take argument '{extra}'")));
        }
        for key in self.booleans.borrow().iter() {
            match self.options.get(key).map(String::as_str) {
                None | Some("yes" | "no") => {}
                Some(raw) => {
                    return Err(ArgError(format!(
                        "{cmd}: --{key} takes yes or no (got '{raw}')"
                    )))
                }
            }
        }
        Ok(())
    }
}

/// Parses a comma-separated vertex list (`"3,17,42"`).
///
/// # Errors
///
/// Returns an [`ArgError`] on non-numeric entries.
pub fn parse_vertex_list(raw: &str) -> Result<Vec<u32>, ArgError> {
    raw.split(',')
        .filter(|s| !s.is_empty())
        .map(|s| {
            s.trim()
                .parse()
                .map_err(|_| ArgError(format!("invalid vertex '{s}'")))
        })
        .collect()
}

/// Parses a comma-separated edge list (`"0-1,5-6"`).
///
/// # Errors
///
/// Returns an [`ArgError`] on malformed pairs.
pub fn parse_edge_list(raw: &str) -> Result<Vec<(u32, u32)>, ArgError> {
    raw.split(',')
        .filter(|s| !s.is_empty())
        .map(|s| {
            let (a, b) = s
                .trim()
                .split_once('-')
                .ok_or_else(|| ArgError(format!("invalid edge '{s}' (use a-b)")))?;
            let a = a
                .parse()
                .map_err(|_| ArgError(format!("invalid edge endpoint '{a}'")))?;
            let b = b
                .parse()
                .map_err(|_| ArgError(format!("invalid edge endpoint '{b}'")))?;
            Ok((a, b))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<ParsedArgs, ArgError> {
        ParsedArgs::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn basic_command_and_positionals() {
        let p = parse(&["gen", "path", "64"]).unwrap();
        assert_eq!(p.command, "gen");
        assert_eq!(p.positionals, vec!["path", "64"]);
        assert_eq!(p.positional(0, "family").unwrap(), "path");
        assert!(p.positional(2, "missing").is_err());
    }

    #[test]
    fn options_with_space_and_equals() {
        let p = parse(&["query", "--eps", "0.5", "--seed=7", "g.txt"]).unwrap();
        assert_eq!(p.option("eps"), Some("0.5"));
        assert_eq!(p.option("seed"), Some("7"));
        assert_eq!(p.positionals, vec!["g.txt"]);
    }

    #[test]
    fn missing_command_and_values() {
        assert!(parse(&[]).is_err());
        assert!(parse(&["gen", "--out"]).is_err());
    }

    #[test]
    fn typed_option_parsing() {
        let p = parse(&["x", "--eps", "1.5"]).unwrap();
        assert_eq!(p.parse_option("eps", 1.0f64).unwrap(), 1.5);
        assert_eq!(p.parse_option("missing", 9usize).unwrap(), 9);
        assert!(p.parse_option::<usize>("eps", 0).is_err());
        assert!(p.parse_required::<f64>("eps").is_ok());
        assert!(p.parse_required::<f64>("nope").is_err());
    }

    #[test]
    fn finish_refuses_what_was_not_read() {
        let p = parse(&["query", "g.txt", "--forbidd", "1", "--exact", "no"]).unwrap();
        p.positional(0, "graph-file").unwrap();
        assert!(!p.flag("exact"));
        assert_eq!(p.finish().unwrap_err().0, "query does not take --forbidd");
        p.option("forbidd");
        assert!(p.finish().is_ok());
        let p = parse(&["gen", "path", "4", "5", "--x", "maybe"]).unwrap();
        p.positional(1, "N").unwrap();
        assert!(!p.flag("x"));
        assert_eq!(p.finish().unwrap_err().0, "gen does not take argument '5'");
        p.positional(2, "extra").unwrap();
        assert_eq!(
            p.finish().unwrap_err().0,
            "gen: --x takes yes or no (got 'maybe')"
        );
    }

    #[test]
    fn vertex_list_parsing() {
        assert_eq!(parse_vertex_list("1,2,3").unwrap(), vec![1, 2, 3]);
        assert_eq!(parse_vertex_list("7").unwrap(), vec![7]);
        assert_eq!(parse_vertex_list("").unwrap(), Vec::<u32>::new());
        assert!(parse_vertex_list("1,x").is_err());
    }

    #[test]
    fn edge_list_parsing() {
        assert_eq!(parse_edge_list("0-1,5-6").unwrap(), vec![(0, 1), (5, 6)]);
        assert!(parse_edge_list("0:1").is_err());
        assert!(parse_edge_list("a-1").is_err());
    }
}
