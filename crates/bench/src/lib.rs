//! # splice-bench — the experiment harness
//!
//! One binary per evaluation table/figure of the thesis (see DESIGN.md's
//! experiment index), plus ablation studies over the design choices the
//! thesis calls out. Shared table/JSON helpers live here.

use std::fmt::Write as _;

/// Escape a string for embedding in a JSON document (the workspace-shared
/// implementation from `splice-obs`, re-exported for the bench bins).
pub use splice_obs::json::escape as json_escape;

/// Render a simple aligned table.
pub fn table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    for (i, h) in headers.iter().enumerate() {
        let _ = write!(out, "{:>w$}  ", h, w = widths[i]);
    }
    out.push('\n');
    for (i, _) in headers.iter().enumerate() {
        let _ = write!(out, "{}  ", "-".repeat(widths[i]));
    }
    out.push('\n');
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            let _ = write!(out, "{:>w$}  ", cell, w = widths[i]);
        }
        out.push('\n');
    }
    out
}

/// Serialize rows as a JSON object for machine-readable experiment output.
pub fn json_rows(name: &str, headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    let _ = write!(out, "{{\"experiment\":\"{}\",\"rows\":[", json_escape(name));
    for (r, row) in rows.iter().enumerate() {
        if r > 0 {
            out.push(',');
        }
        out.push('{');
        for (i, (h, c)) in headers.iter().zip(row).enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":\"{}\"", json_escape(h), json_escape(c));
        }
        out.push('}');
    }
    out.push_str("]}");
    out
}

/// Write the JSON record next to the binary's working directory when the
/// `SPLICE_RESULTS_DIR` environment variable is set.
pub fn maybe_dump(name: &str, headers: &[&str], rows: &[Vec<String>]) {
    if let Ok(dir) = std::env::var("SPLICE_RESULTS_DIR") {
        let path = std::path::Path::new(&dir).join(format!("{name}.json"));
        let _ = std::fs::create_dir_all(&dir);
        let _ = std::fs::write(path, json_rows(name, headers, rows));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let t = table(
            &["name", "n"],
            &[vec!["a".into(), "1".into()], vec!["long-name".into(), "22".into()]],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name"));
        assert!(lines[2].ends_with("1  "));
    }

    #[test]
    fn json_has_experiment_name() {
        let j = json_rows("fig9_2", &["impl"], &[vec!["x".into()]]);
        assert!(j.contains("\"experiment\":\"fig9_2\""));
        assert!(j.contains("\"impl\":\"x\""));
    }
}
