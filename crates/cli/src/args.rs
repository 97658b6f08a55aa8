//! A small dependency-free command-line argument parser.
//!
//! The approved offline dependency set has no CLI crate, so flags are
//! parsed by hand: `--flag value`, `--flag=value` and boolean `--flag` are
//! supported, plus positional arguments.

use std::collections::HashMap;

/// Parsed command line: positionals plus flag map.
#[derive(Clone, Debug, Default)]
pub struct ParsedArgs {
    /// Positional arguments in order (subcommand first).
    pub positional: Vec<String>,
    flags: HashMap<String, Vec<String>>,
    /// A last flag that expects a value and has none.
    missing: Option<String>,
}

/// A flag the command does not take, or one that lacks its value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ArgError(pub String);

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ArgError {}

impl ParsedArgs {
    /// Parses raw arguments. `bool_flags` names, space-separated, the flags
    /// that take no value. Which flags a command accepts is checked
    /// afterwards, by [`ParsedArgs::check`].
    pub fn parse(args: &[String], bool_flags: &str) -> ParsedArgs {
        let mut out = ParsedArgs::default();
        let mut i = 0;
        while i < args.len() {
            let a = &args[i];
            if let Some(name) = a.strip_prefix("--") {
                let (name, value) = match name.split_once('=') {
                    Some((k, v)) => (k, Some(v.to_string())),
                    None if bool_flags.split_whitespace().any(|f| f == name) => {
                        (name, Some(String::new()))
                    }
                    None => {
                        i += 1;
                        (name, args.get(i).cloned())
                    }
                };
                match value {
                    Some(v) => out.flags.entry(name.to_string()).or_default().push(v),
                    None => out.missing = Some(name.to_string()),
                }
            } else {
                out.positional.push(a.clone());
            }
            i += 1;
        }
        out
    }

    /// Fails on a flag outside `accepted` (groups of space-separated flag
    /// names), naming it and `command`, then on a flag that lacks its value.
    pub fn check(&self, command: &str, accepted: &[&str]) -> Result<(), ArgError> {
        let known: Vec<&str> = accepted.iter().flat_map(|g| g.split_whitespace()).collect();
        let mut given: Vec<&str> = self.flags.keys().map(String::as_str).collect();
        given.extend(self.missing.as_deref());
        given.sort_unstable();
        let unknown = given.into_iter().find(|f| !known.contains(f));
        let error = match (unknown, &self.missing) {
            (Some(f), _) => format!("unknown flag --{f} for '{command}' (see 'gentrius help')"),
            (None, Some(f)) => format!("--{f} expects a value"),
            (None, None) => return Ok(()),
        };
        Err(ArgError(error))
    }

    /// The last value of `flag`, if given.
    pub fn get(&self, flag: &str) -> Option<&str> {
        self.flags
            .get(flag)
            .and_then(|v| v.last())
            .map(|s| s.as_str())
    }

    /// True if the boolean `flag` was given.
    pub fn has(&self, flag: &str) -> bool {
        self.flags.contains_key(flag)
    }

    /// Parses the last value of `flag` as `T`, or returns `default`.
    pub fn get_parsed<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, ArgError> {
        match self.get(flag) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| ArgError(format!("--{flag}: cannot parse '{v}'"))),
        }
    }

    /// Parses a comma-separated list flag (e.g. `--threads 1,2,4`).
    pub fn get_list(&self, flag: &str) -> Result<Option<Vec<u64>>, ArgError> {
        match self.get(flag) {
            None => Ok(None),
            Some(v) => v
                .split(',')
                .map(|x| {
                    x.trim()
                        .parse::<u64>()
                        .map_err(|_| ArgError(format!("--{flag}: bad number '{x}'")))
                })
                .collect::<Result<Vec<_>, _>>()
                .map(Some),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(v: &[&str]) -> ParsedArgs {
        let owned: Vec<String> = v.iter().map(|s| s.to_string()).collect();
        ParsedArgs::parse(&owned, "verbose")
    }

    #[test]
    fn positionals_and_flags() {
        let a = parse(&["stand", "--trees", "x.nwk", "--threads", "4", "--verbose"]);
        assert_eq!(a.positional, vec!["stand"]);
        assert_eq!(a.get("trees"), Some("x.nwk"));
        assert_eq!(a.get_parsed::<usize>("threads", 1).unwrap(), 4);
        assert!(a.has("verbose"));
        assert!(!a.has("quiet"));
    }

    #[test]
    fn equals_syntax() {
        let a = parse(&["gen", "--seed=99"]);
        assert_eq!(a.get("seed"), Some("99"));
    }

    #[test]
    fn missing_value_is_error() {
        let a = parse(&["stand", "--trees"]);
        let e = a.check("stand", &["trees"]).unwrap_err();
        assert_eq!(e.0, "--trees expects a value");
        // An unknown flag is reported as such even without a value.
        let a = parse(&["stand", "--tree"]);
        let e = a.check("stand", &["trees"]).unwrap_err();
        assert!(e.0.starts_with("unknown flag --tree for 'stand'"), "{e}");
    }

    #[test]
    fn check_names_the_unknown_flag_and_the_command() {
        let a = parse(&["stand", "--trees", "x.nwk", "--thread", "4", "--verbose"]);
        assert!(a.check("stand", &["trees thread verbose"]).is_ok());
        let e = a.check("stand", &["trees threads", "verbose"]).unwrap_err();
        assert!(e.0.starts_with("unknown flag --thread for 'stand'"), "{e}");
    }

    #[test]
    fn list_flag() {
        let a = parse(&["sim", "--threads", "1,2,4,8"]);
        assert_eq!(a.get_list("threads").unwrap(), Some(vec![1, 2, 4, 8]));
        assert_eq!(a.get_list("nope").unwrap(), None);
        let b = parse(&["sim", "--threads", "1,x"]);
        assert!(b.get_list("threads").is_err());
    }

    #[test]
    fn default_when_absent() {
        let a = parse(&["stand"]);
        assert_eq!(a.get_parsed::<u64>("max-trees", 7).unwrap(), 7);
    }
}
