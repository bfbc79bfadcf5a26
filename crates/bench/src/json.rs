//! Minimal JSON emission for machine-readable benchmark artifacts.
//!
//! The workspace has no serialization dependency, so this module hand-writes
//! the tiny subset of JSON the harness needs: objects, arrays, strings and
//! finite numbers.  Every harness run persists one `BENCH_<experiment>.json`
//! per experiment so results can be regression-tracked across commits.

use crate::Row;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Escapes a string for a JSON string literal (quotes not included).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Formats a float as a JSON number (`null` for NaN/infinite values, which
/// JSON cannot represent).
pub fn number(v: f64) -> String {
    if v.is_finite() {
        // Rust's `Display` for f64 prints the shortest round-trip decimal,
        // which is valid JSON.
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// The warning emitted when a non-finite measurement is about to be written
/// as `null`.  A NaN in a bench artifact almost always means a bug upstream
/// (zero iterations, a 0/0 rate) — writing `null` silently would let a
/// regression-tracking diff read it as "no data" instead of "broken run".
fn non_finite_warning(experiment: &str, row: &str, key: &str, v: f64) -> String {
    format!(
        "wsm-bench: non-finite value {v} for experiment \"{experiment}\" row \"{row}\" key \"{key}\"; writing null"
    )
}

/// Renders one experiment's rows as a self-describing JSON document:
///
/// ```json
/// {
///   "experiment": "e15",
///   "meta": {"threads": "4"},
///   "rows": [{"label": "...", "values": {"mean ns/op": 123.4}}]
/// }
/// ```
pub fn rows_to_json(experiment: &str, meta: &[(&str, String)], rows: &[Row]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"experiment\": \"{}\",", escape(experiment));
    out.push_str("  \"meta\": {");
    for (i, (key, value)) in meta.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "\"{}\": \"{}\"", escape(key), escape(value));
    }
    out.push_str("},\n");
    out.push_str("  \"rows\": [\n");
    for (i, row) in rows.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"label\": \"{}\", \"values\": {{",
            escape(&row.label)
        );
        for (j, (key, value)) in row.values.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            if !value.is_finite() {
                eprintln!(
                    "{}",
                    non_finite_warning(experiment, &row.label, key, *value)
                );
            }
            let _ = write!(out, "\"{}\": {}", escape(key), number(*value));
        }
        out.push_str("}}");
        out.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Directory benchmark artifacts are written to: `$WSM_BENCH_DIR` if set,
/// otherwise the repository root (so `BENCH_*.json` trends accumulate in one
/// committed location no matter where the harness is invoked from), falling
/// back to the current working directory if no workspace root is found.
///
/// The root is located by walking up from the *invoking* directory to the
/// nearest ancestor holding both `Cargo.toml` and `ROADMAP.md` — not from
/// the compile-time manifest path, which would point a binary built in one
/// checkout at that checkout even when run from another.
pub fn bench_dir() -> PathBuf {
    if let Some(dir) = std::env::var_os("WSM_BENCH_DIR") {
        return PathBuf::from(dir);
    }
    if let Ok(cwd) = std::env::current_dir() {
        for dir in cwd.ancestors() {
            if dir.join("Cargo.toml").is_file() && dir.join("ROADMAP.md").is_file() {
                return dir.to_path_buf();
            }
        }
    }
    PathBuf::from(".")
}

/// Writes `BENCH_<experiment>.json` into `dir`, returning the path written.
pub fn write_rows(
    dir: &Path,
    experiment: &str,
    meta: &[(&str, String)],
    rows: &[Row],
) -> std::io::Result<PathBuf> {
    let path = dir.join(format!("BENCH_{experiment}.json"));
    std::fs::write(&path, rows_to_json(experiment, meta, rows))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_handles_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn number_handles_non_finite() {
        assert_eq!(number(1.5), "1.5");
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(number(f64::INFINITY), "null");
    }

    #[test]
    fn non_finite_values_warn_with_full_context_and_render_null() {
        let warning = non_finite_warning("e20", "wal sync=always", "ns/op", f64::NAN);
        assert!(warning.contains("\"e20\""), "{warning}");
        assert!(warning.contains("\"wal sync=always\""), "{warning}");
        assert!(warning.contains("\"ns/op\""), "{warning}");
        assert!(warning.contains("NaN"), "{warning}");
        // The artifact itself still gets valid JSON: null, never NaN.
        let rows = vec![Row::new("wal sync=always", vec![("ns/op", f64::NAN)])];
        let json = rows_to_json("e20", &[], &rows);
        assert!(json.contains("\"ns/op\": null"), "{json}");
        assert!(!json.contains("NaN"), "{json}");
    }

    #[test]
    fn rows_render_as_valid_looking_json() {
        let rows = vec![
            Row::new("pesort t=1", vec![("threads", 1.0), ("mean ns/op", 250.25)]),
            Row::new("pesort t=2", vec![("threads", 2.0), ("mean ns/op", 130.0)]),
        ];
        let json = rows_to_json("e15", &[("threads", "2".to_string())], &rows);
        assert!(json.contains("\"experiment\": \"e15\""));
        assert!(json.contains("\"threads\": 1"));
        assert!(json.contains("\"mean ns/op\": 250.25"));
        // Balanced braces / brackets (cheap well-formedness check).
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces in {json}"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn bench_dir_defaults_to_repo_root() {
        // Only meaningful when WSM_BENCH_DIR is unset (the test environment
        // does not set it); the default must be the workspace root of the
        // *invoking* directory so that committed BENCH_*.json trends
        // accumulate in one place.
        if std::env::var_os("WSM_BENCH_DIR").is_none() {
            let dir = bench_dir();
            assert!(
                (dir.join("ROADMAP.md").is_file() && dir.join("Cargo.toml").is_file())
                    || dir == Path::new("."),
                "bench_dir {dir:?} is neither the repo root nor the cwd fallback"
            );
        }
    }

    #[test]
    fn write_rows_creates_artifact() {
        let dir = std::env::temp_dir().join("wsm_bench_json_test");
        std::fs::create_dir_all(&dir).unwrap();
        let rows = vec![Row::new("r", vec![("v", 1.0)])];
        let path = write_rows(&dir, "e_test", &[], &rows).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.contains("\"experiment\": \"e_test\""));
        std::fs::remove_file(path).unwrap();
    }
}
