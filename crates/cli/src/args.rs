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
}

/// Parse error (unknown syntax only; semantic checks live with commands).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ArgError(pub String);

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ArgError {}

impl ParsedArgs {
    /// Parses raw arguments. `bool_flags` lists flags that take no value.
    pub fn parse(args: &[String], bool_flags: &[&str]) -> Result<ParsedArgs, ArgError> {
        let mut out = ParsedArgs::default();
        let mut i = 0;
        while i < args.len() {
            let a = &args[i];
            if let Some(name) = a.strip_prefix("--") {
                if let Some((k, v)) = name.split_once('=') {
                    out.flags
                        .entry(k.to_string())
                        .or_default()
                        .push(v.to_string());
                } else if bool_flags.contains(&name) {
                    out.flags
                        .entry(name.to_string())
                        .or_default()
                        .push(String::new());
                } else {
                    i += 1;
                    let v = args
                        .get(i)
                        .ok_or_else(|| ArgError(format!("--{name} expects a value")))?;
                    out.flags
                        .entry(name.to_string())
                        .or_default()
                        .push(v.clone());
                }
            } else {
                out.positional.push(a.clone());
            }
            i += 1;
        }
        Ok(out)
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
        ParsedArgs::parse(&owned, &["verbose"]).unwrap()
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
        let owned: Vec<String> = vec!["--trees".into()];
        assert!(ParsedArgs::parse(&owned, &[]).is_err());
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
