//! Identifier legalization for HDL emission.
//!
//! User-supplied names (function tags, parameter tags, device names) become
//! HDL identifiers. Both backends need names that avoid their reserved
//! words and illegal characters; VHDL additionally forbids leading/trailing
//! underscores and double underscores.
//!
//! The keyword tables live here — and only here — so the emitters and the
//! `splice-lint` identifier-hazard rules agree on what counts as reserved.

/// VHDL-93 reserved words (lowercased).
const VHDL_KEYWORDS: &[&str] = &[
    "abs",
    "access",
    "after",
    "alias",
    "all",
    "and",
    "architecture",
    "array",
    "assert",
    "attribute",
    "begin",
    "block",
    "body",
    "buffer",
    "bus",
    "case",
    "component",
    "configuration",
    "constant",
    "disconnect",
    "downto",
    "else",
    "elsif",
    "end",
    "entity",
    "exit",
    "file",
    "for",
    "function",
    "generate",
    "generic",
    "group",
    "guarded",
    "if",
    "impure",
    "in",
    "inertial",
    "inout",
    "is",
    "label",
    "library",
    "linkage",
    "literal",
    "loop",
    "map",
    "mod",
    "nand",
    "new",
    "next",
    "nor",
    "not",
    "null",
    "of",
    "on",
    "open",
    "or",
    "others",
    "out",
    "package",
    "port",
    "postponed",
    "procedure",
    "process",
    "pure",
    "range",
    "record",
    "register",
    "reject",
    "rem",
    "report",
    "return",
    "rol",
    "ror",
    "select",
    "severity",
    "signal",
    "shared",
    "sla",
    "sll",
    "sra",
    "srl",
    "subtype",
    "then",
    "to",
    "transport",
    "type",
    "unaffected",
    "units",
    "until",
    "use",
    "variable",
    "wait",
    "when",
    "while",
    "with",
    "xnor",
    "xor",
];

/// Verilog-2001 reserved words (subset that user tags could plausibly hit).
const VERILOG_KEYWORDS: &[&str] = &[
    "always",
    "and",
    "assign",
    "begin",
    "buf",
    "case",
    "casex",
    "casez",
    "default",
    "defparam",
    "disable",
    "edge",
    "else",
    "end",
    "endcase",
    "endfunction",
    "endmodule",
    "endtask",
    "for",
    "force",
    "forever",
    "function",
    "if",
    "initial",
    "inout",
    "input",
    "integer",
    "module",
    "negedge",
    "nor",
    "not",
    "or",
    "output",
    "parameter",
    "posedge",
    "reg",
    "repeat",
    "signed",
    "task",
    "time",
    "tri",
    "wait",
    "while",
    "wire",
    "xnor",
    "xor",
];

/// True when `name` matches a VHDL reserved word (VHDL is case-insensitive).
pub fn is_vhdl_keyword(name: &str) -> bool {
    let lower = name.to_ascii_lowercase();
    VHDL_KEYWORDS.contains(&lower.as_str())
}

/// True when `name` matches a Verilog reserved word (Verilog is
/// case-sensitive; its keywords are all lowercase).
pub fn is_verilog_keyword(name: &str) -> bool {
    VERILOG_KEYWORDS.contains(&name)
}

/// True when `name` collides with a reserved word in *either* backend —
/// generated designs must be emittable in both HDLs.
pub fn is_reserved(name: &str) -> bool {
    is_vhdl_keyword(name) || is_verilog_keyword(name)
}

/// Make `raw` a legal identifier in both VHDL and Verilog.
///
/// The result is deterministic and injective for distinct inputs that were
/// already legal modulo case (keywords get a `_sig` suffix, illegal
/// characters become `_`).
pub fn legalize(raw: &str) -> String {
    let mut s = String::with_capacity(raw.len());
    for (i, c) in raw.chars().enumerate() {
        if c.is_ascii_alphanumeric() {
            s.push(c);
        } else if c == '_' {
            // VHDL: no doubled underscores.
            if !s.ends_with('_') {
                s.push('_');
            }
        } else if i == 0 {
            s.push('x');
        } else if !s.ends_with('_') {
            s.push('_');
        }
    }
    // VHDL: must start with a letter, must not end with '_'.
    if s.is_empty() || !s.chars().next().unwrap().is_ascii_alphabetic() {
        s.insert(0, 'x');
    }
    while s.ends_with('_') {
        s.pop();
    }
    if s.is_empty() {
        s.push_str("sig");
    }
    // Conservative: a name whose lowercase form is reserved in either
    // backend is suffixed, even though Verilog keywords are case-sensitive —
    // `WIRE` as an identifier is legal Verilog but invites confusion.
    let lower = s.to_ascii_lowercase();
    if is_reserved(&lower) {
        s.push_str("_sig");
    }
    s
}

/// True when `name` is already legal in both languages.
pub fn is_legal(name: &str) -> bool {
    legalize(name) == name
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_names_unchanged() {
        assert_eq!(legalize("get_status"), "get_status");
        assert_eq!(legalize("DATA_IN"), "DATA_IN");
        assert_eq!(legalize("hw_timer"), "hw_timer");
        assert!(is_legal("set_threshold"));
    }

    #[test]
    fn keywords_suffixed() {
        assert_eq!(legalize("signal"), "signal_sig");
        assert_eq!(legalize("reg"), "reg_sig");
        assert_eq!(legalize("BEGIN"), "BEGIN_sig");
        assert!(!is_legal("process"));
    }

    #[test]
    fn illegal_characters_scrubbed() {
        assert_eq!(legalize("a-b"), "a_b");
        assert_eq!(legalize("a--b"), "a_b");
        assert_eq!(legalize("__x__"), "x_x");
        assert_eq!(legalize("9lives"), "x9lives");
        assert_eq!(legalize(""), "x");
    }

    #[test]
    fn distinct_simple_names_stay_distinct() {
        let names = ["a", "b", "ab", "a_b", "count1", "count2"];
        let mut out: Vec<String> = names.iter().map(|n| legalize(n)).collect();
        out.sort();
        out.dedup();
        assert_eq!(out.len(), names.len());
    }
}
