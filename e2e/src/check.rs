//! `--check`: the names the binary prints against the names
//! `BENCHMARK.json` declares, plus the small JSON reader that needs.

use crate::metrics::{valid_name, valid_unit, MetricDef, END_TO_END, PER_LAYER, WORKLOADS};
use std::collections::BTreeSet;

#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.bytes.get(self.at).is_some_and(u8::is_ascii_whitespace) {
            self.at += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> bool {
        let hit = self.bytes[self.at..].starts_with(lit.as_bytes());
        if hit {
            self.at += lit.len();
        }
        hit
    }

    fn expect(&mut self, lit: &str) -> Result<(), String> {
        self.ws();
        if self.eat(lit) {
            Ok(())
        } else {
            Err(format!("expected {lit:?} at byte {}", self.at))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.bytes.get(self.at) {
            Some(b'{') => {
                self.at += 1;
                let mut fields = Vec::new();
                self.ws();
                if self.eat("}") {
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.ws();
                    let key = self.string()?;
                    self.expect(":")?;
                    fields.push((key, self.value()?));
                    self.ws();
                    if self.eat("}") {
                        return Ok(Json::Obj(fields));
                    }
                    self.expect(",")?;
                }
            }
            Some(b'[') => {
                self.at += 1;
                let mut items = Vec::new();
                self.ws();
                if self.eat("]") {
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.ws();
                    if self.eat("]") {
                        return Ok(Json::Arr(items));
                    }
                    self.expect(",")?;
                }
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(_) if self.eat("true") => Ok(Json::Bool(true)),
            Some(_) if self.eat("false") => Ok(Json::Bool(false)),
            Some(_) if self.eat("null") => Ok(Json::Null),
            Some(_) => {
                let start = self.at;
                while self
                    .bytes
                    .get(self.at)
                    .is_some_and(|b| b"+-.eE0123456789".contains(b))
                {
                    self.at += 1;
                }
                std::str::from_utf8(&self.bytes[start..self.at])
                    .ok()
                    .and_then(|s| s.parse().ok())
                    .map(Json::Num)
                    .ok_or_else(|| format!("bad value at byte {start}"))
            }
            None => Err("unexpected end of input".into()),
        }
    }

    /// A string without `\u` escapes, which no name or unit needs.
    fn string(&mut self) -> Result<String, String> {
        if !self.eat("\"") {
            return Err(format!("expected a string at byte {}", self.at));
        }
        let mut out = Vec::new();
        loop {
            match self.bytes.get(self.at) {
                Some(b'"') => {
                    self.at += 1;
                    return String::from_utf8(out).map_err(|e| e.to_string());
                }
                Some(b'\\') => {
                    let c = match self.bytes.get(self.at + 1) {
                        Some(b'n') => b'\n',
                        Some(b't') => b'\t',
                        Some(&c @ (b'"' | b'\\' | b'/')) => c,
                        _ => return Err(format!("unsupported escape at byte {}", self.at)),
                    };
                    out.push(c);
                    self.at += 2;
                }
                Some(&c) => {
                    out.push(c);
                    self.at += 1;
                }
                None => return Err("unterminated string".into()),
            }
        }
    }
}

pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        at: 0,
    };
    let v = p.value()?;
    p.ws();
    if p.at == p.bytes.len() {
        Ok(v)
    } else {
        Err(format!("trailing bytes at {}", p.at))
    }
}

fn declared(doc: &Json, key: &str, field: Option<&str>) -> Result<BTreeSet<String>, String> {
    let items = doc
        .get(key)
        .and_then(Json::as_arr)
        .ok_or(format!("no {key:?} array"))?;
    let mut out = BTreeSet::new();
    for item in items {
        let name = item
            .get("name")
            .and_then(Json::as_str)
            .ok_or(format!("{key}: no name"))?;
        if !valid_name(name) {
            return Err(format!("{key}: {name:?} is not a valid name"));
        }
        let entry = match field {
            Some(f) => {
                let v = item
                    .get(f)
                    .and_then(Json::as_str)
                    .ok_or(format!("{key}.{name}: no {f}"))?;
                if !valid_unit(v) {
                    return Err(format!("{key}.{name}: {v:?} is not a valid unit"));
                }
                format!("{name} [{v}]")
            }
            None => name.to_string(),
        };
        if !out.insert(entry) {
            return Err(format!("{key}: {name} is listed twice"));
        }
    }
    Ok(out)
}

fn same(what: &str, declared: &BTreeSet<String>, printed: BTreeSet<String>) -> Result<(), String> {
    if *declared == printed {
        return Ok(());
    }
    let only = |a: &BTreeSet<String>, b: &BTreeSet<String>| {
        a.difference(b).cloned().collect::<Vec<_>>().join(", ")
    };
    Err(format!(
        "{what}: BENCHMARK.json and the binary disagree; only declared: [{}]; only printed: [{}]",
        only(declared, &printed),
        only(&printed, declared)
    ))
}

fn with_units(defs: &[MetricDef]) -> BTreeSet<String> {
    defs.iter()
        .map(|d| format!("{} [{}]", d.name, d.unit))
        .collect()
}

/// Checks that `BENCHMARK.json` declares exactly the workloads and the
/// metrics (with their units) this binary prints.
pub fn names_match(benchmark_json: &str) -> Result<(), String> {
    let doc = parse(benchmark_json)?;
    same(
        "workloads",
        &declared(&doc, "workloads", None)?,
        WORKLOADS.iter().map(|w| w.to_string()).collect(),
    )?;
    same(
        "end_to_end",
        &declared(&doc, "end_to_end", Some("unit"))?,
        with_units(&END_TO_END),
    )?;
    same(
        "per_layer",
        &declared(&doc, "per_layer", Some("unit"))?,
        with_units(&PER_LAYER),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_shapes_benchmark_json_uses() {
        let doc =
            parse(r#"{"a": [1, -2.5e1, "x\"y", true, null], "b": {"c": []}, "d": {}}"#).unwrap();
        let a = doc.get("a").and_then(Json::as_arr).unwrap();
        assert_eq!(a[1], Json::Num(-25.0));
        assert_eq!(a[2].as_str(), Some("x\"y"));
        assert_eq!(a[3..], [Json::Bool(true), Json::Null]);
        assert_eq!(
            doc.get("b").and_then(|b| b.get("c")),
            Some(&Json::Arr(vec![]))
        );
        assert!(parse("{\"a\": 1} x").is_err());
        assert!(parse("[1, 2").is_err());
        assert!(parse("{\"a\" 1}").is_err());
    }

    #[test]
    fn a_missing_or_renamed_metric_is_reported_by_name() {
        let list = |defs: &[MetricDef]| {
            defs.iter()
                .map(|d| format!("{{\"name\": \"{}\", \"unit\": \"{}\"}}", d.name, d.unit))
                .collect::<Vec<_>>()
                .join(",")
        };
        let workloads = WORKLOADS
            .iter()
            .map(|w| format!("{{\"name\": \"{w}\"}}"))
            .collect::<Vec<_>>()
            .join(",");
        let doc = |e2e: &str| {
            format!(
                "{{\"workloads\": [{workloads}], \"end_to_end\": [{e2e}], \"per_layer\": [{}]}}",
                list(&PER_LAYER)
            )
        };
        names_match(&doc(&list(&END_TO_END))).unwrap();
        let err = names_match(&doc(&list(&END_TO_END[1..]))).unwrap_err();
        assert!(err.contains("only printed: [setup_s [s]]"), "{err}");
    }
}
