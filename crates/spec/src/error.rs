//! Diagnostics for the Splice front end.
//!
//! The thesis requires the tool to "alert the end user of the error and allow
//! them to address the problem" for a number of specific conditions (missing
//! required directives, DMA requested without `%dma_support`, implicit index
//! ordering violations, ...). Each such condition has a dedicated
//! [`SpecErrorKind`] variant so callers — and tests — can match on the exact
//! failure instead of scraping message strings.

use crate::span::{line_col, Span};
use std::fmt;

/// The category of a specification error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecErrorKind {
    // ---- lexical ----
    /// A character that can never start a token.
    UnexpectedChar(char),
    /// A `/*` comment with no closing `*/`.
    UnterminatedComment,
    /// A numeric literal that does not parse (overflow, bad hex digits, ...).
    BadNumber(String),

    // ---- syntactic ----
    /// Generic "expected X, found Y" parse failure.
    Expected { expected: String, found: String },
    /// A directive keyword that the tool does not recognise.
    UnknownDirective(String),
    /// A directive with a malformed argument list.
    BadDirectiveArg { directive: String, detail: String },

    // ---- semantic: directives ----
    /// `%bus_type` is required but was not supplied (§3.2.1).
    MissingBusType,
    /// `%bus_width` is required but was not supplied (§3.2.1).
    MissingBusWidth,
    /// `%device_name` is required but was not supplied (§3.2.3).
    MissingDeviceName,
    /// `%base_address` is required for memory-mapped buses (§3.2.1).
    MissingBaseAddress,
    /// The named bus is not in the registry.
    UnknownBus(String),
    /// The requested `%bus_width` is not one the target bus supports.
    UnsupportedBusWidth { bus: String, width: u32, allowed: Vec<u32> },
    /// The bus library's parameter checking routine (§7.1.2) refused a
    /// configuration the physical bus cannot provide.
    BusLibraryRejected { bus: String, reason: String },
    /// The same directive appeared twice with conflicting values.
    DuplicateDirective(String),
    /// `%target_hdl` named an HDL the tool cannot emit.
    UnknownHdl(String),
    /// A `%user_type` redefined an existing type name.
    DuplicateUserType(String),
    /// A `%user_type` with an unusable bit width (0 or > 1024).
    BadUserTypeWidth { name: String, bits: u32 },

    // ---- semantic: declarations ----
    /// Two interface declarations share a name.
    DuplicateFunction(String),
    /// Two parameters of one declaration share a tag (§3.1.1).
    DuplicateParam { func: String, param: String },
    /// A declaration used a type name with no definition.
    UnknownType(String),
    /// `^` used but the bus has no DMA, or `%dma_support` is off (§3.2.2).
    DmaNotAvailable { func: String, param: String, reason: String },
    /// Burst macros requested on a bus with no burst capability.
    BurstNotAvailable { bus: String },
    /// An implicit bound references a parameter that is not declared,
    /// is itself a pointer, or appears *after* the array (§3.3).
    BadImplicitIndex { func: String, param: String, index: String, detail: String },
    /// Packing (`+`) on a non-pointer parameter (§3.1.3 requires a bounded
    /// pointer) or on an element as wide as the bus.
    BadPacking { func: String, param: String, detail: String },
    /// DMA (`^`) on a non-pointer parameter (§3.1.5).
    BadDma { func: String, param: String },
    /// `void`/`nowait` used as a parameter type.
    VoidParam { func: String, param: String },
    /// `nowait` combined with a non-void-style return (§3.1.7: `nowait`
    /// replaces `void` and must not carry a value).
    NowaitWithValue { func: String },
    /// Explicit bound of zero elements.
    ZeroBound { func: String, param: String },
    /// Explicit bound past the 16-bit beat counters the generator gives
    /// array transfers.
    BoundTooLarge { func: String, param: String, bound: u64, max: u64 },
    /// Multi-instance count of zero (`):0`).
    ZeroInstances { func: String },
    /// A pointer parameter with no bound at all — hardware cannot accept an
    /// unbounded array (§3.1.2).
    UnboundedPointer { func: String, param: String },
    /// The declaration list was empty: nothing to generate.
    NoFunctions,
    /// More function instances than the device can serve; `reason` says
    /// which limit binds.
    TooManyFunctions { total: usize, max: usize, reason: String },
    /// Base address not aligned to the bus word size.
    MisalignedBaseAddress { addr: u64, align: u64 },
}

impl fmt::Display for SpecErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use SpecErrorKind::*;
        match self {
            UnexpectedChar(c) => write!(f, "unexpected character `{c}`"),
            UnterminatedComment => write!(f, "unterminated `/*` comment"),
            BadNumber(s) => write!(f, "invalid numeric literal `{s}`"),
            Expected { expected, found } => write!(f, "expected {expected}, found {found}"),
            UnknownDirective(d) => write!(f, "unknown directive `%{d}`"),
            BadDirectiveArg { directive, detail } => {
                write!(f, "bad argument for `%{directive}`: {detail}")
            }
            MissingBusType => write!(f, "required directive `%bus_type` was not supplied"),
            MissingBusWidth => write!(f, "required directive `%bus_width` was not supplied"),
            MissingDeviceName => write!(f, "required directive `%device_name` was not supplied"),
            MissingBaseAddress => {
                write!(f, "`%base_address` is required: the targeted bus is memory-mapped")
            }
            UnknownBus(b) => write!(f, "no interface library is registered for bus `{b}`"),
            UnsupportedBusWidth { bus, width, allowed } => write!(
                f,
                "bus `{bus}` cannot be configured {width} bits wide (supported: {allowed:?})"
            ),
            BusLibraryRejected { bus, reason } => {
                write!(f, "the `{bus}` bus library rejected the design: {reason}")
            }
            DuplicateDirective(d) => write!(f, "directive `%{d}` given more than once"),
            UnknownHdl(h) => write!(f, "unsupported target HDL `{h}` (supported: vhdl, verilog)"),
            DuplicateUserType(t) => write!(f, "user type `{t}` defined more than once"),
            BadUserTypeWidth { name, bits } => {
                write!(f, "user type `{name}` has unusable width {bits} bits")
            }
            DuplicateFunction(n) => write!(f, "interface `{n}` declared more than once"),
            DuplicateParam { func, param } => {
                write!(f, "parameter `{param}` appears twice in `{func}`")
            }
            UnknownType(t) => write!(f, "unknown type `{t}` (missing `%user_type`?)"),
            DmaNotAvailable { func, param, reason } => {
                write!(f, "`{func}`: parameter `{param}` requests DMA but {reason}")
            }
            BurstNotAvailable { bus } => {
                write!(f, "`%burst_support true` but bus `{bus}` has no burst capability")
            }
            BadImplicitIndex { func, param, index, detail } => {
                write!(f, "`{func}`: implicit bound `{index}` for `{param}` is invalid: {detail}")
            }
            BadPacking { func, param, detail } => {
                write!(f, "`{func}`: cannot pack `{param}`: {detail}")
            }
            BadDma { func, param } => write!(
                f,
                "`{func}`: DMA extension `^` requires a bounded pointer parameter (`{param}`)"
            ),
            VoidParam { func, param } => {
                write!(f, "`{func}`: parameter `{param}` cannot have type void/nowait")
            }
            NowaitWithValue { func } => {
                write!(f, "`{func}`: `nowait` declarations must not return a value")
            }
            ZeroBound { func, param } => {
                write!(f, "`{func}`: parameter `{param}` has an explicit bound of 0 elements")
            }
            BoundTooLarge { func, param, bound, max } => write!(
                f,
                "`{func}`: parameter `{param}` has an explicit bound of {bound} elements; \
                 at most {max} are supported"
            ),
            ZeroInstances { func } => write!(f, "`{func}`: multi-instance count must be >= 1"),
            UnboundedPointer { func, param } => write!(
                f,
                "`{func}`: pointer `{param}` needs an explicit `:N` or implicit `:var` bound; \
                 hardware cannot accept unbounded arrays"
            ),
            NoFunctions => write!(f, "specification declares no interfaces"),
            TooManyFunctions { total, max, reason } => {
                write!(
                    f,
                    "{total} function instances exceed the {max} this device can serve: {reason}"
                )
            }
            MisalignedBaseAddress { addr, align } => write!(
                f,
                "base address {addr:#x} is not aligned to the bus word size ({align} bytes)"
            ),
        }
    }
}

/// A diagnostic with a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// What went wrong.
    pub kind: SpecErrorKind,
    /// Where in the source it went wrong.
    pub span: Span,
}

impl SpecError {
    /// Construct an error at `span`.
    pub fn new(kind: SpecErrorKind, span: Span) -> Self {
        SpecError { kind, span }
    }

    /// Render the error with a `line:col` prefix resolved against `source`.
    pub fn render(&self, source: &str) -> String {
        let lc = line_col(source, self.span.start);
        format!("error at {lc}: {}", self.kind)
    }

    /// Render in the conventional `file:line:col: error: message` compiler
    /// format, resolving the span against `source`.
    pub fn render_at(&self, source: &str, path: &str) -> String {
        let lc = line_col(source, self.span.start);
        format!("{path}:{lc}: error: {}", self.kind)
    }
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} (at bytes {}..{})", self.kind, self.span.start, self.span.end)
    }
}

impl std::error::Error for SpecError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_includes_position() {
        let src = "abc\ndef";
        let e = SpecError::new(SpecErrorKind::MissingBusType, Span::new(4, 5));
        assert_eq!(e.render(src), "error at 2:1: required directive `%bus_type` was not supplied");
    }

    #[test]
    fn render_at_uses_compiler_format() {
        let src = "abc\ndef";
        let e = SpecError::new(SpecErrorKind::NoFunctions, Span::new(4, 5));
        assert_eq!(
            e.render_at(src, "dev.splice"),
            "dev.splice:2:1: error: specification declares no interfaces"
        );
    }

    #[test]
    fn display_mentions_span() {
        let e = SpecError::new(SpecErrorKind::NoFunctions, Span::new(1, 2));
        let s = format!("{e}");
        assert!(s.contains("1..2"), "{s}");
    }

    #[test]
    fn kind_messages_are_specific() {
        let k =
            SpecErrorKind::UnsupportedBusWidth { bus: "fcb".into(), width: 64, allowed: vec![32] };
        assert!(format!("{k}").contains("fcb"));
        assert!(format!("{k}").contains("64"));
    }
}
