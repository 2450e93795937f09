//! The result line the driver reads, and (for the tests) a parser that
//! accepts exactly the JSON grammar, so `inf` and `NaN` are caught.

use std::fmt::Write as _;

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Collects metrics in print order.
#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// # Panics
    /// On a value that is not finite: JSON cannot carry it, and a metric
    /// that cannot be formed is a bug in the benchmark.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        assert!(value.is_finite(), "metric {name} is {value}");
        self.0.push(Metric { name, value, unit });
    }
}

/// The one-object result line: `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // `{}` prints an f64 with every digit it needs and no exponent.
        write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        )
        .expect("write to a String");
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
#[derive(Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

#[cfg(test)]
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

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }
}

#[cfg(test)]
pub fn parse(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let v = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos == bytes.len() {
        Ok(v)
    } else {
        Err(format!("trailing input at byte {pos}"))
    }
}

#[cfg(test)]
fn skip_ws(b: &[u8], pos: &mut usize) {
    while b.get(*pos).is_some_and(|c| c.is_ascii_whitespace()) {
        *pos += 1;
    }
}

#[cfg(test)]
fn expect(b: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("expected `{lit}` at byte {pos}"))
    }
}

#[cfg(test)]
fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'n') => expect(b, pos, "null").map(|()| Json::Null),
        Some(b't') => expect(b, pos, "true").map(|()| Json::Bool(true)),
        Some(b'f') => expect(b, pos, "false").map(|()| Json::Bool(false)),
        Some(b'"') => parse_string(b, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            loop {
                skip_ws(b, pos);
                if b.get(*pos) == Some(&b']') {
                    *pos += 1;
                    return Ok(Json::Arr(items));
                }
                if !items.is_empty() {
                    expect(b, pos, ",")?;
                }
                items.push(parse_value(b, pos)?);
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            loop {
                skip_ws(b, pos);
                if b.get(*pos) == Some(&b'}') {
                    *pos += 1;
                    return Ok(Json::Obj(fields));
                }
                if !fields.is_empty() {
                    expect(b, pos, ",")?;
                    skip_ws(b, pos);
                }
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                expect(b, pos, ":")?;
                fields.push((key, parse_value(b, pos)?));
            }
        }
        Some(c) if *c == b'-' || c.is_ascii_digit() => {
            let start = *pos;
            while b.get(*pos).is_some_and(|c| {
                matches!(c, b'-' | b'+' | b'.' | b'e' | b'E') || c.is_ascii_digit()
            }) {
                *pos += 1;
            }
            let text = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
            text.parse::<f64>()
                .map(Json::Num)
                .map_err(|e| format!("bad number `{text}`: {e}"))
        }
        other => Err(format!("unexpected {other:?} at byte {pos}")),
    }
}

#[cfg(test)]
fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, "\"")?;
    let start = *pos;
    while let Some(c) = b.get(*pos) {
        match c {
            b'"' => {
                let s = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
                *pos += 1;
                return Ok(s.to_string());
            }
            // The benchmark writes names and units only; none has an escape.
            b'\\' => return Err(format!("escape at byte {pos}")),
            _ => *pos += 1,
        }
    }
    Err("unterminated string".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_parses_back() {
        let mut m = Metrics::default();
        m.push("e2e_ms", 123.456789, "ms");
        m.push("compile_us", 1e-7, "us");
        m.push("exec.op_ms.Join", 0.0, "ms");
        let line = result_line(40, 0, &m.0);
        let v = parse(&line).expect("result line parses");
        assert_eq!(v.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(v.get("attempted").and_then(Json::as_f64), Some(40.0));
        let metrics = v.get("metrics").expect("metrics");
        let e2e = metrics.get("e2e_ms").expect("e2e_ms");
        assert_eq!(e2e.get("value").and_then(Json::as_f64), Some(123.456789));
        assert_eq!(e2e.get("unit").and_then(Json::as_str), Some("ms"));
        assert!(!line.contains("e-"), "no exponent notation: {line}");
    }

    #[test]
    fn parser_rejects_what_json_cannot_carry() {
        assert!(parse("{\"v\": inf}").is_err());
        assert!(parse("{\"v\": NaN}").is_err());
        assert!(parse("{\"v\": 1} x").is_err());
    }

    #[test]
    #[should_panic(expected = "metric speedup is inf")]
    fn a_metric_that_is_not_finite_is_refused() {
        Metrics::default().push("speedup", f64::INFINITY, "ratio");
    }
}
