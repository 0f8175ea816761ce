//! Recursive-descent parser for Splice specifications.
//!
//! Parsing runs in two passes over the token stream:
//!
//! 1. **Directive pass** — every line starting with `%` is parsed as a
//!    target-specification directive. `%user_type` definitions are folded
//!    into the [`TypeTable`] immediately, because the thesis allows typedefs
//!    to appear anywhere in the file ("the tool simply collects all the
//!    definitions", §3.2.3).
//! 2. **Declaration pass** — the remaining lines are parsed as interface
//!    declarations against the completed type table.
//!
//! The concrete syntax is deliberately liberal where the thesis itself is:
//! parameter lists may be wrapped in `(`..`)` or `{`..`}` (Fig 8.2 uses
//! braces), extension clusters may follow the bound in any order
//! (`*:16^+` and `*:16+^` both parse), and a bound written after the
//! parameter name (`char* x:8+`, §3.1.3 prose) is accepted and normalised.

use crate::ast::*;
use crate::error::{SpecError, SpecErrorKind};
use crate::lexer::lex;
use crate::span::Span;
use crate::token::{Token, TokenKind};
use crate::types::TypeTable;

/// Parse a complete source file into a [`Spec`].
///
/// All recoverable errors are collected; on any error the full list is
/// returned and no AST is produced.
pub fn parse(source: &str) -> Result<Spec, Vec<SpecError>> {
    let tokens = lex(source).map_err(|e| vec![e])?;
    let mut p = Parser::new(tokens);
    p.collect_directives();
    p.parse_declarations();
    if p.errors.is_empty() {
        Ok(Spec { directives: p.directives, decls: p.decls })
    } else {
        Err(p.errors)
    }
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    types: TypeTable,
    directives: Vec<Directive>,
    decls: Vec<InterfaceDecl>,
    errors: Vec<SpecError>,
    /// Token indices consumed by the directive pass, skipped in pass 2.
    directive_tokens: Vec<bool>,
}

impl Parser {
    fn new(tokens: Vec<Token>) -> Self {
        let n = tokens.len();
        Parser {
            tokens,
            pos: 0,
            types: TypeTable::builtin(),
            directives: Vec::new(),
            decls: Vec::new(),
            errors: Vec::new(),
            directive_tokens: vec![false; n],
        }
    }

    // ---- token helpers -------------------------------------------------

    fn peek(&self) -> &Token {
        &self.tokens[self.pos.min(self.tokens.len() - 1)]
    }

    fn peek_kind(&self) -> &TokenKind {
        &self.peek().kind
    }

    fn bump(&mut self) -> Token {
        let t = self.tokens[self.pos.min(self.tokens.len() - 1)].clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn at_eof(&self) -> bool {
        matches!(self.peek_kind(), TokenKind::Eof)
    }

    fn error_expected(&mut self, expected: &str) {
        let found = self.peek_kind().describe();
        let span = self.peek().span;
        self.errors.push(SpecError::new(
            SpecErrorKind::Expected { expected: expected.into(), found },
            span,
        ));
    }

    // ---- pass 1: directives -------------------------------------------

    fn collect_directives(&mut self) {
        let save = self.pos;
        while !self.at_eof() {
            if matches!(self.peek_kind(), TokenKind::Percent) {
                let start_idx = self.pos;
                self.parse_directive_line();
                for i in start_idx..self.pos {
                    self.directive_tokens[i] = true;
                }
                // Consume (and mark) the terminating newline, if present.
                if matches!(self.peek_kind(), TokenKind::Newline) {
                    self.directive_tokens[self.pos] = true;
                    self.bump();
                }
            } else {
                self.bump();
            }
        }
        self.pos = save;
    }

    /// Tokens until end-of-line, as raw tokens.
    fn directive_args(&mut self) -> Vec<Token> {
        let mut out = Vec::new();
        while !matches!(self.peek_kind(), TokenKind::Newline | TokenKind::Eof) {
            out.push(self.bump());
        }
        out
    }

    fn parse_directive_line(&mut self) {
        let pct = self.bump(); // '%'
        let (keyword, kw_span) = match self.peek_kind().clone() {
            TokenKind::Ident(s) => {
                let t = self.bump();
                (s, t.span)
            }
            _ => {
                self.error_expected("directive keyword after `%`");
                self.directive_args();
                return;
            }
        };
        let args = self.directive_args();
        let span = pct.span.merge(args.last().map(|t| t.span).unwrap_or(kw_span));
        let keyword_norm = keyword.to_ascii_lowercase();
        match keyword_norm.as_str() {
            "bus_type" => match ident_arg(&args) {
                Some(name) => self.directives.push(Directive::BusType { name, span }),
                None => self.bad_arg("bus_type", "expected a bus name", span),
            },
            "bus_width" => match int_arg(&args) {
                Some(bits) if bits > 0 && bits <= 1024 => {
                    self.directives.push(Directive::BusWidth { bits: bits as u32, span })
                }
                _ => self.bad_arg("bus_width", "expected a positive bit count", span),
            },
            "base_address" => match hex_arg(&args) {
                Some(addr) => self.directives.push(Directive::BaseAddress { addr, span }),
                None => self.bad_arg(
                    "base_address",
                    "expected a hexadecimal address written 0x...",
                    span,
                ),
            },
            "burst_support" => match bool_arg(&args) {
                Some(enabled) => self.directives.push(Directive::BurstSupport { enabled, span }),
                None => self.bad_arg("burst_support", "expected `true` or `false`", span),
            },
            "dma_support" => match bool_arg(&args) {
                Some(enabled) => self.directives.push(Directive::DmaSupport { enabled, span }),
                None => self.bad_arg("dma_support", "expected `true` or `false`", span),
            },
            "packing_support" => match bool_arg(&args) {
                Some(enabled) => self.directives.push(Directive::PackingSupport { enabled, span }),
                None => self.bad_arg("packing_support", "expected `true` or `false`", span),
            },
            "irq_support" => match bool_arg(&args) {
                Some(enabled) => self.directives.push(Directive::IrqSupport { enabled, span }),
                None => self.bad_arg("irq_support", "expected `true` or `false`", span),
            },
            "device_name" | "name" => match ident_arg(&args) {
                Some(name) => self.directives.push(Directive::DeviceName { name, span }),
                None => self.bad_arg("device_name", "expected an identifier", span),
            },
            "target_hdl" | "hdl_type" => match ident_arg(&args) {
                Some(hdl) => self.directives.push(Directive::TargetHdl { hdl, span }),
                None => self.bad_arg("target_hdl", "expected an HDL name", span),
            },
            "user_type" => self.parse_user_type(&args, span),
            other => {
                self.errors
                    .push(SpecError::new(SpecErrorKind::UnknownDirective(other.to_owned()), span));
            }
        }
    }

    /// `%user_type llong, unsigned long long, 64` (Fig 3.17).
    fn parse_user_type(&mut self, args: &[Token], span: Span) {
        // Split on commas.
        let mut groups: Vec<Vec<&Token>> = vec![Vec::new()];
        for t in args {
            if matches!(t.kind, TokenKind::Comma) {
                groups.push(Vec::new());
            } else {
                groups.last_mut().unwrap().push(t);
            }
        }
        if groups.len() != 3 {
            return self.bad_arg(
                "user_type",
                "expected `%user_type NAME, C-DEFINITION, BITS`",
                span,
            );
        }
        let name = match groups[0].as_slice() {
            [t] => match &t.kind {
                TokenKind::Ident(s) => s.clone(),
                _ => return self.bad_arg("user_type", "type name must be an identifier", span),
            },
            _ => return self.bad_arg("user_type", "type name must be a single identifier", span),
        };
        let mut def_words = Vec::new();
        for t in &groups[1] {
            match &t.kind {
                TokenKind::Ident(s) => def_words.push(s.clone()),
                _ => {
                    return self.bad_arg(
                        "user_type",
                        "C definition must be a sequence of identifiers",
                        span,
                    )
                }
            }
        }
        if def_words.is_empty() {
            return self.bad_arg("user_type", "C definition is empty", span);
        }
        let definition = def_words.join(" ");
        let bits = match groups[2].as_slice() {
            [t] => match t.kind {
                TokenKind::Int(n) if n > 0 && n <= 1024 => n as u32,
                TokenKind::Int(n) => {
                    self.errors.push(SpecError::new(
                        SpecErrorKind::BadUserTypeWidth { name: name.clone(), bits: n as u32 },
                        span,
                    ));
                    return;
                }
                _ => return self.bad_arg("user_type", "width must be a decimal bit count", span),
            },
            _ => return self.bad_arg("user_type", "width must be a single integer", span),
        };
        let signed = !definition.starts_with("unsigned");
        if !self.types.define_user(&name, &definition, bits, signed) {
            self.errors.push(SpecError::new(SpecErrorKind::DuplicateUserType(name.clone()), span));
            return;
        }
        self.directives.push(Directive::UserType { name, definition, bits, span });
    }

    fn bad_arg(&mut self, directive: &str, detail: &str, span: Span) {
        self.errors.push(SpecError::new(
            SpecErrorKind::BadDirectiveArg {
                directive: directive.to_owned(),
                detail: detail.to_owned(),
            },
            span,
        ));
    }

    // ---- pass 2: interface declarations --------------------------------

    fn parse_declarations(&mut self) {
        self.pos = 0;
        loop {
            self.skip_directive_and_newline_tokens();
            if self.at_eof() {
                break;
            }
            let before = self.pos;
            if let Some(decl) = self.parse_declaration() {
                self.decls.push(decl);
            } else {
                // Error recovery: resynchronise after the next `;`.
                while !self.at_eof() && !matches!(self.peek_kind(), TokenKind::Semi) {
                    if self.directive_tokens[self.pos] {
                        break;
                    }
                    self.bump();
                }
                if matches!(self.peek_kind(), TokenKind::Semi) {
                    self.bump();
                }
            }
            // Guarantee forward progress even on pathological input.
            if self.pos == before && !self.at_eof() {
                self.bump();
            }
        }
    }

    fn skip_directive_and_newline_tokens(&mut self) {
        loop {
            if self.at_eof() {
                return;
            }
            if self.directive_tokens[self.pos] || matches!(self.peek_kind(), TokenKind::Newline) {
                self.bump();
            } else {
                return;
            }
        }
    }

    /// Skip newlines that are *inside* a declaration (declarations may span
    /// lines; only directives are line-oriented).
    fn skip_inline_ws(&mut self) {
        self.skip_directive_and_newline_tokens();
    }

    fn parse_declaration(&mut self) -> Option<InterfaceDecl> {
        let start_span = self.peek().span;

        // Return type: `nowait` or a C type, optionally with extensions.
        let ret = if matches!(self.peek_kind(), TokenKind::Ident(s) if s == "nowait") {
            self.bump();
            ReturnKind::Nowait
        } else {
            let ty = self.parse_type()?;
            self.skip_inline_ws();
            let ext = self.parse_extensions(false);
            if ty.is_void && !ext.pointer {
                ReturnKind::Void
            } else {
                ReturnKind::Value { ty, ext }
            }
        };
        self.skip_inline_ws();

        // Interface name.
        let name = match self.peek_kind().clone() {
            TokenKind::Ident(s) => {
                self.bump();
                s
            }
            _ => {
                self.error_expected("interface name");
                return None;
            }
        };
        self.skip_inline_ws();

        // Parameter list: `(` ... `)` or `{` ... `}` (Fig 8.2).
        let close = match self.peek_kind() {
            TokenKind::LParen => {
                self.bump();
                TokenKind::RParen
            }
            TokenKind::LBrace => {
                self.bump();
                TokenKind::RBrace
            }
            _ => {
                self.error_expected("`(` or `{` starting the parameter list");
                return None;
            }
        };
        self.skip_inline_ws();

        let mut params = Vec::new();
        if self.peek_kind() != &close {
            loop {
                let p = self.parse_param()?;
                params.push(p);
                self.skip_inline_ws();
                match self.peek_kind() {
                    TokenKind::Comma => {
                        self.bump();
                        self.skip_inline_ws();
                    }
                    k if k == &close => break,
                    _ => {
                        self.error_expected("`,` or the closing bracket");
                        return None;
                    }
                }
            }
        }
        self.bump(); // closing bracket
        self.skip_inline_ws();

        // Optional multi-instance `:N` (§3.1.6).
        let mut instances = 1;
        if matches!(self.peek_kind(), TokenKind::Colon) {
            self.bump();
            self.skip_inline_ws();
            match self.peek_kind().clone() {
                TokenKind::Int(n) => {
                    self.bump();
                    instances = n;
                }
                _ => {
                    self.error_expected("instance count after `):`");
                    return None;
                }
            }
        }
        self.skip_inline_ws();

        // Terminating `;`.
        let end_span = match self.peek_kind() {
            TokenKind::Semi => self.bump().span,
            _ => {
                self.error_expected("`;` terminating the declaration");
                return None;
            }
        };

        Some(InterfaceDecl { name, ret, params, instances, span: start_span.merge(end_span) })
    }

    /// Parse one parameter: `type ext? name` with an optionally trailing
    /// `:bound` cluster after the name (both thesis spellings).
    fn parse_param(&mut self) -> Option<Param> {
        let start = self.peek().span;
        let ty = self.parse_type()?;
        self.skip_inline_ws();
        let mut ext = self.parse_extensions(false);
        self.skip_inline_ws();
        let name = match self.peek_kind().clone() {
            TokenKind::Ident(s) => {
                self.bump();
                s
            }
            _ => {
                self.error_expected("parameter name");
                return None;
            }
        };
        // Trailing extension cluster (`char* x:8+`). Only a bound / flags
        // may appear here, and only if no bound was given before the name.
        if ext.pointer
            && matches!(self.peek_kind(), TokenKind::Colon | TokenKind::Plus | TokenKind::Caret)
        {
            let trailing = self.parse_extensions(true);
            if trailing.bound.is_some() {
                if ext.bound.is_some() {
                    self.error_expected("a single `:bound` per parameter");
                    return None;
                }
                ext.bound = trailing.bound;
            }
            ext.packed |= trailing.packed;
            ext.dma |= trailing.dma;
        }
        let end = self.tokens[self.pos.saturating_sub(1)].span;
        Some(Param { ty, ext, name, span: start.merge(end) })
    }

    /// Parse an extension cluster: `*`, `:N`/`:var`, `+`, `^` in any order
    /// (the thesis's examples use several orders; §3.1.8's formal grammar
    /// uses one, so we normalise on the AST).
    ///
    /// `bound_without_star`: in a trailing cluster (`char* x:8+`) the `*`
    /// was consumed before the name, so a `:bound` is accepted here even
    /// though this cluster saw no `*` of its own.
    fn parse_extensions(&mut self, bound_without_star: bool) -> Extensions {
        let mut ext = Extensions::none();
        loop {
            match self.peek_kind().clone() {
                TokenKind::Star => {
                    self.bump();
                    ext.pointer = true;
                }
                TokenKind::Plus => {
                    self.bump();
                    ext.packed = true;
                }
                TokenKind::Caret => {
                    self.bump();
                    ext.dma = true;
                }
                TokenKind::Colon => {
                    // A colon here is only a bound when a pointer was seen
                    // and no bound exists yet; otherwise it belongs to the
                    // caller (multi-instance suffix).
                    if (!ext.pointer && !bound_without_star) || ext.bound.is_some() {
                        return ext;
                    }
                    let save = self.pos;
                    self.bump();
                    match self.peek_kind().clone() {
                        TokenKind::Int(n) => {
                            self.bump();
                            ext.bound = Some(PtrBound::Explicit(n));
                        }
                        TokenKind::Ident(v) => {
                            self.bump();
                            ext.bound = Some(PtrBound::Implicit(v));
                        }
                        _ => {
                            self.pos = save;
                            return ext;
                        }
                    }
                }
                _ => return ext,
            }
        }
    }

    /// Greedy multi-word type-name assembly against the type table.
    fn parse_type(&mut self) -> Option<crate::types::CType> {
        let first = match self.peek_kind().clone() {
            TokenKind::Ident(s) => s,
            _ => {
                self.error_expected("a type name");
                return None;
            }
        };
        if !self.types.is_type_start(&first) {
            let span = self.peek().span;
            self.errors.push(SpecError::new(SpecErrorKind::UnknownType(first), span));
            return None;
        }
        self.bump();
        let mut words = vec![first];
        // Maximal munch: keep absorbing identifiers while the extended
        // spelling still resolves to a type.
        loop {
            if let TokenKind::Ident(next) = self.peek_kind().clone() {
                let mut candidate = words.join(" ");
                candidate.push(' ');
                candidate.push_str(&next);
                if self.types.lookup(&candidate).is_some() {
                    self.bump();
                    words.push(next);
                    continue;
                }
            }
            break;
        }
        let spelled = words.join(" ");
        match self.types.lookup(&spelled) {
            Some(t) => Some(t.clone()),
            None => {
                let span = self.tokens[self.pos.saturating_sub(1)].span;
                self.errors.push(SpecError::new(SpecErrorKind::UnknownType(spelled), span));
                None
            }
        }
    }
}

fn ident_arg(args: &[Token]) -> Option<String> {
    match args {
        [t] => match &t.kind {
            TokenKind::Ident(s) => Some(s.clone()),
            _ => None,
        },
        _ => None,
    }
}

fn int_arg(args: &[Token]) -> Option<u64> {
    match args {
        [t] => match t.kind {
            TokenKind::Int(n) => Some(n),
            _ => None,
        },
        _ => None,
    }
}

fn hex_arg(args: &[Token]) -> Option<u64> {
    match args {
        [t] => match t.kind {
            TokenKind::HexInt(n) => Some(n),
            _ => None,
        },
        _ => None,
    }
}

fn bool_arg(args: &[Token]) -> Option<bool> {
    match args {
        [t] => match &t.kind {
            TokenKind::Ident(s) if s == "true" => Some(true),
            TokenKind::Ident(s) if s == "false" => Some(false),
            _ => None,
        },
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok(src: &str) -> Spec {
        match parse(src) {
            Ok(s) => s,
            Err(es) => panic!("parse failed: {:?}", es),
        }
    }

    #[test]
    fn basic_prototype() {
        let spec = ok("long get_status();");
        assert_eq!(spec.decls.len(), 1);
        let d = &spec.decls[0];
        assert_eq!(d.name, "get_status");
        assert!(d.params.is_empty());
        assert_eq!(d.ret.value_type().unwrap().bits, 32);
        assert_eq!(d.instances, 1);
    }

    #[test]
    fn explicit_pointer() {
        let spec = ok("void some_function(int*:5 x);");
        let p = &spec.decls[0].params[0];
        assert!(p.ext.pointer);
        assert_eq!(p.ext.bound, Some(PtrBound::Explicit(5)));
        assert_eq!(p.name, "x");
    }

    #[test]
    fn implicit_pointer() {
        let spec = ok("void some_function(char x, int*:x y);");
        let d = &spec.decls[0];
        assert_eq!(d.params.len(), 2);
        assert_eq!(d.params[1].ext.bound, Some(PtrBound::Implicit("x".into())));
    }

    #[test]
    fn packed_prefix_and_postfix_forms() {
        // Formal grammar form: bound before name.
        let a = ok("void f(char*:8+ x);");
        // Prose form (§3.1.3): bound after name.
        let b = ok("void f(char* x:8+);");
        assert_eq!(a.decls[0].params[0].ext, b.decls[0].params[0].ext);
        assert!(a.decls[0].params[0].ext.packed);
        assert_eq!(a.decls[0].params[0].ext.bound, Some(PtrBound::Explicit(8)));
    }

    #[test]
    fn dma_and_combined_extensions() {
        let spec = ok("void f(int*:8^ x, char*:16^+ y);");
        let p0 = &spec.decls[0].params[0];
        assert!(p0.ext.dma && !p0.ext.packed);
        let p1 = &spec.decls[0].params[1];
        assert!(p1.ext.dma && p1.ext.packed);
        assert_eq!(p1.ext.bound, Some(PtrBound::Explicit(16)));
    }

    #[test]
    fn multi_instance() {
        let spec = ok("void some_function(int x, int y):4;");
        assert_eq!(spec.decls[0].instances, 4);
    }

    #[test]
    fn nowait_return() {
        let spec = ok("nowait some_function(int x, int y);");
        assert!(spec.decls[0].ret.is_nowait());
    }

    #[test]
    fn brace_parameter_lists() {
        // Fig 8.2 writes declarations with braces.
        let spec =
            ok("void set_threshold{llong thold};\n%user_type llong, unsigned long long, 64\n");
        assert_eq!(spec.decls[0].params[0].ty.bits, 64);
    }

    #[test]
    fn multiword_types() {
        let spec = ok("unsigned long long big(unsigned short s);");
        assert_eq!(spec.decls[0].ret.value_type().unwrap().bits, 64);
        assert_eq!(spec.decls[0].params[0].ty.bits, 16);
    }

    #[test]
    fn directives_parse() {
        let spec =
            ok("%bus_type plb\n%bus_width 32\n%base_address 0x8000401C\n%dma_support false\n");
        assert_eq!(spec.directives.len(), 4);
        assert!(
            matches!(spec.directive("bus_type"), Some(Directive::BusType { name, .. }) if name == "plb")
        );
        assert!(
            matches!(spec.directive("base_address"), Some(Directive::BaseAddress { addr, .. }) if *addr == 0x8000_401C)
        );
    }

    #[test]
    fn user_type_then_use_before_definition_line() {
        // Directive pass runs first, so a decl may precede its typedef.
        let spec = ok("ulong get_clock();\n%user_type ulong, unsigned long, 32\n");
        assert_eq!(spec.decls[0].ret.value_type().unwrap().bits, 32);
        assert!(!spec.decls[0].ret.value_type().unwrap().signed);
    }

    #[test]
    fn full_timer_spec_of_fig_8_2() {
        let src = r#"
            // Target Specification
            %name hw_timer
            %hdl_type vhdl
            %bus_type plb
            %bus_width 32
            %base_address 0x8000401C
            %dma_support false
            %user_type llong, unsigned long long, 64
            %user_type ulong, unsigned long, 32

            // Interface Directives
            void disable{};
            void enable{};
            void set_threshold{llong thold};
            llong get_threshold{};
            llong get_snapshot{};
            ulong get_clock{};
            ulong get_status{};
        "#;
        let spec = ok(src);
        assert_eq!(spec.decls.len(), 7);
        assert_eq!(spec.directives.len(), 8);
        assert!(matches!(&spec.decls[2].ret, ReturnKind::Void));
        assert_eq!(spec.decls[3].ret.value_type().unwrap().bits, 64);
    }

    #[test]
    fn unknown_directive_is_error() {
        let errs = parse("%frobnicate 7\n").unwrap_err();
        assert!(matches!(errs[0].kind, SpecErrorKind::UnknownDirective(_)));
    }

    #[test]
    fn unknown_type_is_error() {
        let errs = parse("quux f();").unwrap_err();
        assert!(matches!(&errs[0].kind, SpecErrorKind::UnknownType(t) if t == "quux"));
    }

    #[test]
    fn missing_semicolon_is_error() {
        let errs = parse("void f()").unwrap_err();
        assert!(matches!(&errs[0].kind, SpecErrorKind::Expected { .. }));
    }

    #[test]
    fn base_address_requires_hex_form() {
        let errs = parse("%base_address 1234\n").unwrap_err();
        assert!(
            matches!(&errs[0].kind, SpecErrorKind::BadDirectiveArg { directive, .. } if directive == "base_address")
        );
    }

    #[test]
    fn error_recovery_collects_multiple() {
        let errs = parse("quux f();\nvoid ok();\nquux g();").unwrap_err();
        assert_eq!(errs.len(), 2, "{errs:?}");
    }

    #[test]
    fn duplicate_user_type_is_error() {
        let errs = parse("%user_type t, int, 32\n%user_type t, int, 32\n").unwrap_err();
        assert!(matches!(&errs[0].kind, SpecErrorKind::DuplicateUserType(t) if t == "t"));
    }

    #[test]
    fn pointer_return_parses() {
        let spec = ok("int*:4 quad();");
        match &spec.decls[0].ret {
            ReturnKind::Value { ext, .. } => {
                assert!(ext.pointer);
                assert_eq!(ext.bound, Some(PtrBound::Explicit(4)));
            }
            other => panic!("unexpected return {other:?}"),
        }
    }

    #[test]
    fn declaration_spanning_lines() {
        let spec = ok("void f(\n  int a,\n  int b\n);");
        assert_eq!(spec.decls[0].params.len(), 2);
    }

    #[test]
    fn zero_instance_parses_for_validation_to_reject() {
        let spec = ok("void f():0;");
        assert_eq!(spec.decls[0].instances, 0);
    }

    #[test]
    fn bool_directive_rejects_other_words() {
        let errs = parse("%dma_support yes\n").unwrap_err();
        assert!(matches!(&errs[0].kind, SpecErrorKind::BadDirectiveArg { .. }));
    }
}
