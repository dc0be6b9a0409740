//! Minimal flag parsing (no external dependencies).

use std::cell::RefCell;

/// Parsed positional arguments and `--key value` / `--flag` options.
#[derive(Debug, Default)]
pub struct Parsed {
    positional: Vec<String>,
    options: Vec<(String, Option<String>)>,
    /// Option keys the subcommand has asked for, so
    /// [`Parsed::reject_unread`] can name the ones it never reads.
    read: RefCell<Vec<String>>,
}

/// Flags that take no value.
const BOOL_FLAGS: [&str; 6] = [
    "json",
    "interprocedural",
    "compress",
    "no-finish",
    "resume",
    "cpd",
];

/// Parses `argv` into positionals and options.
///
/// # Errors
///
/// Returns an error for an option with a missing value.
pub fn parse(argv: &[String]) -> Result<Parsed, String> {
    let mut out = Parsed::default();
    let mut it = argv.iter().peekable();
    while let Some(arg) = it.next() {
        if let Some(key) = arg.strip_prefix("--") {
            if BOOL_FLAGS.contains(&key) {
                out.options.push((key.to_string(), None));
            } else {
                let value = it
                    .next()
                    .ok_or_else(|| format!("--{key} requires a value"))?;
                out.options.push((key.to_string(), Some(value.clone())));
            }
        } else {
            out.positional.push(arg.clone());
        }
    }
    Ok(out)
}

impl Parsed {
    /// The `i`-th positional argument.
    pub fn positional(&self, i: usize) -> Option<&str> {
        self.positional.get(i).map(String::as_str)
    }

    /// `true` when the boolean flag `key` was given.
    pub fn flag(&self, key: &str) -> bool {
        self.mark_read(key);
        self.options.iter().any(|(k, _)| k == key)
    }

    /// The value of `--key`, parsed, or `default`.
    ///
    /// # Errors
    ///
    /// Returns an error when the value does not parse as `T`.
    pub fn value_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        self.mark_read(key);
        match self.options.iter().rev().find(|(k, _)| k == key) {
            Some((_, Some(v))) => v
                .parse()
                .map_err(|_| format!("--{key}: cannot parse {v:?}")),
            _ => Ok(default),
        }
    }

    /// Fails on the first given option the subcommand never read,
    /// suggesting the closest option it did read. Call once every
    /// option the subcommand uses has been read.
    ///
    /// # Errors
    ///
    /// Names the unread option.
    pub fn reject_unread(&self) -> Result<(), String> {
        let read = self.read.borrow();
        let Some((key, _)) = self.options.iter().find(|(k, _)| !read.contains(k)) else {
            return Ok(());
        };
        let known: Vec<&str> = read.iter().map(String::as_str).collect();
        Err(match crate::commands::closest(key, &known) {
            Some(best) => format!("unknown option --{key}; did you mean --{best}?"),
            None => format!("unknown option --{key}"),
        })
    }

    fn mark_read(&self, key: &str) {
        let mut read = self.read.borrow_mut();
        if !read.iter().any(|k| k == key) {
            read.push(key.to_string());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|v| (*v).to_string()).collect()
    }

    #[test]
    fn positionals_and_options() {
        let p = parse(&argv(&["181.mcf", "--period", "45000", "--json"])).unwrap();
        assert_eq!(p.positional(0), Some("181.mcf"));
        assert!(p.flag("json"));
        assert_eq!(p.value_or("period", 0u64).unwrap(), 45_000);
        assert_eq!(p.value_or("intervals", 7usize).unwrap(), 7);
    }

    #[test]
    fn missing_value_is_an_error() {
        assert!(parse(&argv(&["--period"])).is_err());
    }

    #[test]
    fn bad_value_is_an_error() {
        let p = parse(&argv(&["--period", "abc"])).unwrap();
        assert!(p.value_or("period", 0u64).is_err());
    }

    #[test]
    fn last_occurrence_wins() {
        let p = parse(&argv(&["--period", "1", "--period", "2"])).unwrap();
        assert_eq!(p.value_or("period", 0u64).unwrap(), 2);
    }
}
