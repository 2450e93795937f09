//! CSV-backed storage for the dynamic value model (paper, Listing 3 line 5:
//! `read(url, CsvInputFormat[A])` / `write(url, CsvOutputFormat[A])`).
//!
//! Quoted programs read named datasets from a [`Catalog`]; this module loads
//! catalogs from and persists sinks to a simple headerless CSV dialect over
//! [`Value`] rows:
//!
//! * each line is one row; fields are separated by `,` (no quoting — string
//!   fields must not contain commas or newlines);
//! * a row with several fields becomes a `Value::Tuple`; a single field
//!   stays a scalar;
//! * fields parse as `Int`, then `Float`, then `Bool`, then `Str`, with the
//!   empty field as `Null`;
//! * vectors serialize as `;`-separated floats wrapped in `[` `]`.
//!
//! Nested bags are not representable (flatten them before writing) — the
//! same restriction the paper's record formats have.

use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::Path;

use crate::interp::Catalog;
use crate::value::{Value, ValueError};

/// Parses one CSV field into a value.
pub(crate) fn parse_field(field: &str) -> Value {
    let f = field.trim();
    if f.is_empty() {
        return Value::Null;
    }
    if let Some(inner) = f.strip_prefix('[').and_then(|x| x.strip_suffix(']')) {
        let parts: Result<Vec<f64>, _> = if inner.trim().is_empty() {
            Ok(Vec::new())
        } else {
            inner.split(';').map(|p| p.trim().parse::<f64>()).collect()
        };
        if let Ok(v) = parts {
            return Value::vector(v);
        }
    }
    if let Ok(i) = f.parse::<i64>() {
        return Value::Int(i);
    }
    if let Ok(x) = f.parse::<f64>() {
        return Value::Float(x);
    }
    match f {
        "true" => Value::Bool(true),
        "false" => Value::Bool(false),
        _ => Value::str(f),
    }
}

/// Parses one CSV line into a row value.
pub(crate) fn parse_line(line: &str) -> Value {
    let fields: Vec<Value> = line.split(',').map(parse_field).collect();
    if fields.len() == 1 {
        fields.into_iter().next().expect("one field")
    } else {
        Value::tuple(fields)
    }
}

/// Serializes one value as a CSV field.
pub(crate) fn format_field(v: &Value) -> Result<String, ValueError> {
    match v {
        Value::Null => Ok(String::new()),
        Value::Bool(b) => Ok(b.to_string()),
        Value::Int(i) => Ok(i.to_string()),
        Value::Float(f) => Ok(format!("{f:?}")),
        Value::Str(s) => {
            if s.contains(',') || s.contains('\n') {
                Err(ValueError::Unknown(format!(
                    "string field contains a separator: {s:?}"
                )))
            } else {
                Ok(s.to_string())
            }
        }
        Value::Vector(xs) => {
            let mut out = String::from("[");
            for (i, x) in xs.iter().enumerate() {
                if i > 0 {
                    out.push(';');
                }
                let _ = write!(out, "{x:?}");
            }
            out.push(']');
            Ok(out)
        }
        Value::Tuple(_) | Value::Bag(_) => Err(ValueError::type_mismatch("flat field", v)),
    }
}

/// Serializes one row as a CSV line.
pub(crate) fn format_line(row: &Value) -> Result<String, ValueError> {
    match row {
        Value::Tuple(fields) => {
            let parts: Result<Vec<String>, _> = fields.iter().map(format_field).collect();
            Ok(parts?.join(","))
        }
        scalar => format_field(scalar),
    }
}

/// Reads a dataset from a CSV file.
pub fn read_rows(path: impl AsRef<Path>) -> Result<Vec<Value>, ValueError> {
    let file = File::open(&path).map_err(|e| ValueError::Unknown(format!("open: {e}")))?;
    let reader = BufReader::new(file);
    let mut out = Vec::new();
    for line in reader.lines() {
        let line = line.map_err(|e| ValueError::Unknown(format!("read: {e}")))?;
        if line.is_empty() {
            continue;
        }
        out.push(parse_line(&line));
    }
    Ok(out)
}

/// Writes a dataset to a CSV file.
pub fn write_rows(path: impl AsRef<Path>, rows: &[Value]) -> Result<(), ValueError> {
    let file = File::create(&path).map_err(|e| ValueError::Unknown(format!("create: {e}")))?;
    let mut writer = BufWriter::new(file);
    for row in rows {
        writeln!(writer, "{}", format_line(row)?)
            .map_err(|e| ValueError::Unknown(format!("write: {e}")))?;
    }
    writer
        .flush()
        .map_err(|e| ValueError::Unknown(format!("flush: {e}")))
}

/// Loads every `*.csv` file of a directory into a catalog, one dataset per
/// file (named after the file stem).
pub fn load_catalog(dir: impl AsRef<Path>) -> Result<Catalog, ValueError> {
    let mut catalog = Catalog::new();
    let entries =
        std::fs::read_dir(&dir).map_err(|e| ValueError::Unknown(format!("read_dir: {e}")))?;
    for entry in entries {
        let entry = entry.map_err(|e| ValueError::Unknown(format!("entry: {e}")))?;
        let path = entry.path();
        if path.extension().and_then(|e| e.to_str()) == Some("csv") {
            let name = path
                .file_stem()
                .and_then(|s| s.to_str())
                .ok_or_else(|| ValueError::Unknown("bad file name".into()))?
                .to_string();
            catalog.insert(name, read_rows(&path)?);
        }
    }
    Ok(catalog)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_round_trips() {
        for v in [
            Value::Int(42),
            Value::Float(2.5),
            Value::Bool(true),
            Value::str("hello"),
            Value::Null,
            Value::vector(vec![1.0, -2.25]),
        ] {
            let s = format_field(&v).expect("format");
            assert_eq!(parse_field(&s), v, "field {s:?}");
        }
    }

    #[test]
    fn line_round_trips_tuples() {
        let row = Value::tuple(vec![
            Value::Int(7),
            Value::str("abc"),
            Value::Float(1.5),
            Value::vector(vec![0.5, 0.25]),
        ]);
        let line = format_line(&row).expect("format");
        assert_eq!(parse_line(&line), row);
    }

    #[test]
    fn floats_keep_precision_through_debug_format() {
        let row = Value::Float(0.1 + 0.2);
        let line = format_line(&row).expect("format");
        assert_eq!(parse_line(&line), row);
    }

    #[test]
    fn nested_values_are_rejected() {
        let bag = Value::bag(vec![Value::Int(1)]);
        assert!(format_field(&bag).is_err());
        let nested = Value::tuple(vec![Value::tuple(vec![Value::Int(1)])]);
        assert!(format_line(&nested).is_err());
    }

    #[test]
    fn strings_with_separators_are_rejected() {
        assert!(format_field(&Value::str("a,b")).is_err());
    }

    #[test]
    fn file_and_catalog_round_trip() {
        let dir = std::env::temp_dir().join(format!("emma-csvio-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let rows = vec![
            Value::tuple(vec![Value::Int(1), Value::str("x")]),
            Value::tuple(vec![Value::Int(2), Value::str("y")]),
        ];
        write_rows(dir.join("pairs.csv"), &rows).expect("write");
        let back = read_rows(dir.join("pairs.csv")).expect("read");
        assert_eq!(back, rows);
        let catalog = load_catalog(&dir).expect("catalog");
        assert_eq!(catalog.get("pairs").expect("dataset"), &rows);
        std::fs::remove_dir_all(&dir).ok();
    }
}
