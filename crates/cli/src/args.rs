//! A small, dependency-free flag parser: `--key value` pairs, `-o`
//! shorthand, and positional arguments. Each verb names the flags it
//! takes; any other flag is an error, never silently ignored.

use std::collections::HashMap;

/// Parsed command line: positionals in order plus `--flag value` pairs.
#[derive(Debug, Default)]
pub struct Args {
    pub positional: Vec<String>,
    flags: HashMap<String, String>,
}

impl Args {
    /// Parses the raw arguments of `ckpt <verb>`, which takes the flags
    /// named in `accepted` (`out` covers `-o` too). Every flag must be
    /// followed by a value; a flag `verb` does not take is an error that
    /// names both.
    pub fn parse(argv: &[String], verb: &str, accepted: &[&str]) -> Result<Self, String> {
        let mut out = Args::default();
        let mut it = argv.iter();
        while let Some(a) = it.next() {
            let name = if a == "-o" { Some("out") } else { a.strip_prefix("--") };
            if let Some(name) = name {
                if !accepted.contains(&name) {
                    return Err(format!("unknown flag --{name} for ckpt {verb}"));
                }
                let v = it.next().ok_or_else(|| format!("missing value after {a}"))?;
                out.flags.insert(name.to_string(), v.clone());
            } else {
                out.positional.push(a.clone());
            }
        }
        Ok(out)
    }

    /// A flag's raw value.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(String::as_str)
    }

    /// A flag parsed into any `FromStr` type, with a default.
    pub fn get_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| format!("invalid value {raw:?} for --{name}")),
        }
    }

    /// The single required positional argument.
    pub fn one_positional(&self, what: &str) -> Result<&str, String> {
        match self.positional.as_slice() {
            [p] => Ok(p),
            [] => Err(format!("missing {what}")),
            _ => Err(format!("expected exactly one {what}")),
        }
    }
}

/// Parses `AxBxC` dimension syntax.
pub fn parse_dims(raw: &str) -> Result<Vec<usize>, String> {
    let dims: Result<Vec<usize>, _> = raw.split('x').map(str::parse).collect();
    let dims = dims.map_err(|_| format!("invalid --dims {raw:?}; expected e.g. 1156x82x2"))?;
    if dims.is_empty() || dims.contains(&0) {
        return Err(format!("invalid --dims {raw:?}: zero-size dimension"));
    }
    Ok(dims)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|v| v.to_string()).collect()
    }

    fn parse(s: &[&str]) -> Result<Args, String> {
        Args::parse(&argv(s), "test", &["n", "d", "out"])
    }

    #[test]
    fn parses_flags_and_positionals() {
        let a = parse(&["in.f64", "--n", "64", "-o", "out.wck"]).unwrap();
        assert_eq!(a.one_positional("input").unwrap(), "in.f64");
        assert_eq!(a.get("n"), Some("64"));
        assert_eq!(a.get("out"), Some("out.wck"));
        assert_eq!(a.get_or("n", 128usize).unwrap(), 64);
        assert_eq!(a.get_or("d", 64usize).unwrap(), 64);
    }

    #[test]
    fn missing_value_is_error() {
        assert!(parse(&["--n"]).is_err());
        assert!(parse(&["-o"]).is_err());
    }

    #[test]
    fn a_flag_the_verb_does_not_take_is_refused_by_name() {
        assert_eq!(parse(&["--thread", "4"]).unwrap_err(), "unknown flag --thread for ckpt test");
        let err = Args::parse(&argv(&["x", "-o", "y"]), "info", &[]).unwrap_err();
        assert_eq!(err, "unknown flag --out for ckpt info");
    }

    #[test]
    fn bad_typed_value_is_error() {
        let a = parse(&["--n", "lots"]).unwrap();
        assert!(a.get_or("n", 128usize).is_err());
    }

    #[test]
    fn positional_arity_checked() {
        let a = parse(&[]).unwrap();
        assert!(a.one_positional("input").is_err());
        let a = parse(&["x", "y"]).unwrap();
        assert!(a.one_positional("input").is_err());
    }

    #[test]
    fn dims_syntax() {
        assert_eq!(parse_dims("1156x82x2").unwrap(), vec![1156, 82, 2]);
        assert_eq!(parse_dims("64").unwrap(), vec![64]);
        assert!(parse_dims("4x0x2").is_err());
        assert!(parse_dims("axb").is_err());
        assert!(parse_dims("").is_err());
    }
}
