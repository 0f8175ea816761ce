//! Structured lint diagnostics.
//!
//! Every finding is a [`Diagnostic`] value: a stable `SLxxxx` code, a
//! severity, the pipeline layer it was found at, a location (source
//! line:column for spec findings, a module/signal path for HDL findings),
//! a message and an optional suggestion. A [`LintReport`] collects them and
//! renders either aligned text for humans or JSON for tooling.

use splice_obs::json::quote as json_str;
use std::fmt;

/// How serious a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Suspicious but possibly intended; fails only under `--deny-warnings`.
    Warning,
    /// A defect: the design is wrong or will not synthesize.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// Which pipeline layer a finding belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Layer {
    /// The specification text / AST.
    Spec,
    /// The generated HDL module ASTs.
    Hdl,
    /// The generated C driver sources cross-checked against the hardware.
    Driver,
}

impl fmt::Display for Layer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Layer::Spec => "spec",
            Layer::Hdl => "hdl",
            Layer::Driver => "driver",
        })
    }
}

/// Where a finding points.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Location {
    /// No meaningful anchor (whole-design findings).
    None,
    /// A 1-based line:column position in the specification source.
    Source { line: usize, col: usize },
    /// A path into the design or the generated HDL, e.g.
    /// `user_dev.DATA_OUT` or `stub set_taps/state[2]`.
    Path(String),
}

impl Location {
    /// Path helper.
    pub fn path(p: impl Into<String>) -> Location {
        Location::Path(p.into())
    }

    /// `module.signal` path helper.
    pub fn signal(module: &str, signal: &str) -> Location {
        Location::Path(format!("{module}.{signal}"))
    }
}

impl fmt::Display for Location {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Location::None => f.write_str("-"),
            Location::Source { line, col } => write!(f, "{line}:{col}"),
            Location::Path(p) => f.write_str(p),
        }
    }
}

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable rule code (`SL0101`, ...). See `docs/lint.md` for the catalogue.
    pub code: &'static str,
    /// Severity.
    pub severity: Severity,
    /// Pipeline layer.
    pub layer: Layer,
    /// Location.
    pub location: Location,
    /// Human-readable description of the defect.
    pub message: String,
    /// Optional remedy.
    pub suggestion: Option<String>,
}

impl Diagnostic {
    /// Construct an error diagnostic.
    pub fn error(
        code: &'static str,
        layer: Layer,
        location: Location,
        message: impl Into<String>,
    ) -> Diagnostic {
        Diagnostic {
            code,
            severity: Severity::Error,
            layer,
            location,
            message: message.into(),
            suggestion: None,
        }
    }

    /// Construct a warning diagnostic.
    pub fn warning(
        code: &'static str,
        layer: Layer,
        location: Location,
        message: impl Into<String>,
    ) -> Diagnostic {
        Diagnostic {
            code,
            severity: Severity::Warning,
            layer,
            location,
            message: message.into(),
            suggestion: None,
        }
    }

    /// Attach a suggestion.
    pub fn suggest(mut self, s: impl Into<String>) -> Diagnostic {
        self.suggestion = Some(s.into());
        self
    }
}

/// A collection of findings plus rendering.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LintReport {
    /// All findings, in emission order (layer order when produced by
    /// `splice::run_pipeline`).
    pub diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// An empty report.
    pub fn new() -> LintReport {
        LintReport::default()
    }

    /// Add one finding.
    pub fn push(&mut self, d: Diagnostic) {
        self.diagnostics.push(d);
    }

    /// Number of error-severity findings.
    pub fn error_count(&self) -> usize {
        self.diagnostics.iter().filter(|d| d.severity == Severity::Error).count()
    }

    /// Number of warning-severity findings.
    pub fn warning_count(&self) -> usize {
        self.diagnostics.iter().filter(|d| d.severity == Severity::Warning).count()
    }

    /// True when nothing was found.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// True when the report should fail the run: any error, or any warning
    /// under `deny_warnings`.
    pub fn fails(&self, deny_warnings: bool) -> bool {
        self.error_count() > 0 || (deny_warnings && self.warning_count() > 0)
    }

    /// The distinct rule codes present, in first-appearance order.
    pub fn codes(&self) -> Vec<&'static str> {
        let mut out: Vec<&'static str> = Vec::new();
        for d in &self.diagnostics {
            if !out.contains(&d.code) {
                out.push(d.code);
            }
        }
        out
    }

    /// True when any finding carries `code`.
    pub fn has(&self, code: &str) -> bool {
        self.diagnostics.iter().any(|d| d.code == code)
    }

    /// Render as aligned, line-oriented text with a trailing summary.
    pub fn render_text(&self) -> String {
        if self.diagnostics.is_empty() {
            return "no findings\n".to_owned();
        }
        let loc_width = self
            .diagnostics
            .iter()
            .map(|d| d.location.to_string().len())
            .max()
            .unwrap_or(1)
            .min(40);
        let mut out = String::new();
        for d in &self.diagnostics {
            let loc = d.location.to_string();
            out.push_str(&format!(
                "{:<7} {} [{:<4}] {:<loc_width$}  {}\n",
                d.severity.to_string(),
                d.code,
                d.layer.to_string(),
                loc,
                d.message,
            ));
            if let Some(s) = &d.suggestion {
                out.push_str(&format!("        help: {s}\n"));
            }
        }
        out.push_str(&format!(
            "{} error(s), {} warning(s)\n",
            self.error_count(),
            self.warning_count()
        ));
        out
    }

    /// Render as a JSON document (hand-rolled: the workspace builds with no
    /// external dependencies).
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n  \"diagnostics\": [");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {");
            out.push_str(&format!("\"code\": {}, ", json_str(d.code)));
            out.push_str(&format!("\"severity\": {}, ", json_str(&d.severity.to_string())));
            out.push_str(&format!("\"layer\": {}, ", json_str(&d.layer.to_string())));
            out.push_str(&format!("\"location\": {}, ", json_str(&d.location.to_string())));
            out.push_str(&format!("\"message\": {}", json_str(&d.message)));
            if let Some(s) = &d.suggestion {
                out.push_str(&format!(", \"suggestion\": {}", json_str(s)));
            }
            out.push('}');
        }
        if !self.diagnostics.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str(&format!(
            "],\n  \"errors\": {},\n  \"warnings\": {}\n}}\n",
            self.error_count(),
            self.warning_count()
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> LintReport {
        let mut r = LintReport::new();
        r.push(
            Diagnostic::error("SL0301", Layer::Hdl, Location::signal("m", "s"), "two drivers")
                .suggest("remove one driver"),
        );
        r.push(Diagnostic::warning(
            "SL0102",
            Layer::Spec,
            Location::Source { line: 3, col: 1 },
            "unused `ulong`",
        ));
        r
    }

    #[test]
    fn counts_and_fails() {
        let r = sample();
        assert_eq!(r.error_count(), 1);
        assert_eq!(r.warning_count(), 1);
        assert!(r.fails(false));
        assert!(!LintReport::new().fails(true));
        let mut warn_only = LintReport::new();
        warn_only.push(Diagnostic::warning("SL0102", Layer::Spec, Location::None, "w"));
        assert!(!warn_only.fails(false));
        assert!(warn_only.fails(true));
    }

    #[test]
    fn text_render_is_aligned_and_summarized() {
        let t = sample().render_text();
        assert!(t.contains("error   SL0301 [hdl ] m.s"), "{t}");
        assert!(t.contains("warning SL0102 [spec] 3:1"), "{t}");
        assert!(t.contains("help: remove one driver"), "{t}");
        assert!(t.ends_with("1 error(s), 1 warning(s)\n"), "{t}");
        assert_eq!(LintReport::new().render_text(), "no findings\n");
    }

    #[test]
    fn json_render_escapes_and_counts() {
        let mut r = LintReport::new();
        r.push(Diagnostic::error("SL0304", Layer::Hdl, Location::None, "width \"8\" vs 16"));
        let j = r.render_json();
        assert!(j.contains("\"message\": \"width \\\"8\\\" vs 16\""), "{j}");
        assert!(j.contains("\"errors\": 1"), "{j}");
        assert!(j.contains("\"location\": \"-\""), "{j}");
        let empty = LintReport::new().render_json();
        assert!(empty.contains("\"diagnostics\": []"), "{empty}");
    }

    #[test]
    fn codes_dedup_in_order() {
        let mut r = sample();
        r.push(Diagnostic::error("SL0301", Layer::Hdl, Location::None, "again"));
        assert_eq!(r.codes(), vec!["SL0301", "SL0102"]);
        assert!(r.has("SL0301"));
        assert!(!r.has("SL9999"));
    }
}
