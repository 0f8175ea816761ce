//! Semantic validation: AST → [`ValidatedSpec`].
//!
//! This pass enforces every rule the thesis states the tool checks before
//! generation (§3.2–§3.3):
//!
//! * `%bus_type`, `%bus_width` and `%device_name` are required; the tool
//!   "will generate an error message and refuse to proceed" without them.
//! * `%base_address` is required when the targeted bus is memory-mapped
//!   "and is ignored in cases where it is defined but not required".
//! * DMA extensions require both `%dma_support true` *and* a bus with
//!   physical DMA channels.
//! * `%burst_support true` on a burst-less bus is an error.
//! * Implicit bounds may only reference scalar parameters transmitted
//!   *before* the array (§3.3).
//! * Pointer parameters must carry a bound; packing needs a bounded pointer
//!   whose element is narrower than the bus.
//!
//! It also performs **FUNC_ID assignment**: identifier 0 is reserved for the
//! CALC_DONE status register (§4.2.2) and function instances are numbered
//! consecutively from 1 in declaration order, instances expanding in place
//! (§5.2).

use crate::ast::{Directive, Extensions, InterfaceDecl, PtrBound, ReturnKind, Spec};
use crate::bus::{BusCaps, BusRegistry, SyncClass};
use crate::error::{SpecError, SpecErrorKind};
use crate::span::Span;
use crate::types::CType;

/// Which HDL the generated hardware files should be expressed in
/// (`%target_hdl`, Fig 3.16 — extended with Verilog per §10.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TargetHdl {
    /// VHDL (the thesis's only shipping target, and the default).
    #[default]
    Vhdl,
    /// Verilog (thesis future work, implemented here).
    Verilog,
}

impl TargetHdl {
    /// File extension for generated sources.
    pub fn extension(&self) -> &'static str {
        match self {
            TargetHdl::Vhdl => "vhd",
            TargetHdl::Verilog => "v",
        }
    }
}

/// Module-level (device-level) configuration distilled from the directives.
/// Mirrors the `s_module_params` structure of Fig 7.3.
#[derive(Debug, Clone, PartialEq)]
pub struct ModuleParams {
    /// `%device_name` — used to name files and output directories.
    pub device_name: String,
    /// Target HDL.
    pub hdl: TargetHdl,
    /// Target bus capabilities (resolved from `%bus_type`).
    pub bus: BusCaps,
    /// `%bus_width` in bits.
    pub bus_width: u32,
    /// `%base_address` (0 for non-memory-mapped buses like the FCB).
    pub base_address: u64,
    /// `%packing_support` — global packing (§3.2.2).
    pub packing: bool,
    /// `%burst_support`.
    pub burst: bool,
    /// `%dma_support`.
    pub dma: bool,
    /// `%irq_support` — completion interrupts for `nowait` functions
    /// (thesis future work §10.2).
    pub irq: bool,
    /// Width of the FUNC_ID field in bits, sized to cover id 0 (status) plus
    /// every function instance.
    pub func_id_width: u32,
}

/// The element-count bound of a validated pointer transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoBound {
    /// A scalar: exactly one element.
    Scalar,
    /// `*:N`.
    Explicit(u64),
    /// `*:var` where `var` is the parameter at this index within the same
    /// function's parameter list.
    Implicit { index_param: usize, max_hint: u64 },
}

impl IoBound {
    /// The element count if statically known.
    pub fn static_count(&self) -> Option<u64> {
        match self {
            IoBound::Scalar => Some(1),
            IoBound::Explicit(n) => Some(*n),
            IoBound::Implicit { .. } => None,
        }
    }
}

/// One validated input or output. Mirrors `s_io_params` of Fig 7.3.
#[derive(Debug, Clone, PartialEq)]
pub struct ValidatedIo {
    /// Parameter tag (or `"result"` for the return value).
    pub name: String,
    /// Element type.
    pub ty: CType,
    /// Whether this is a pointer (array) transfer.
    pub is_pointer: bool,
    /// Element-count bound.
    pub bound: IoBound,
    /// Packed transfer (`+` or global `%packing_support` where profitable).
    pub packed: bool,
    /// DMA transfer (`^`).
    pub dma: bool,
    /// True if another parameter uses this one as its implicit index.
    pub used_as_index: bool,
}

impl ValidatedIo {
    /// Bits moved per element.
    pub fn elem_bits(&self) -> u32 {
        self.ty.bits
    }
}

/// The transfer shape of one I/O under the module's bus configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransferShape {
    /// One element per beat.
    Direct,
    /// Several elements per beat.
    Packed { per_beat: u32 },
    /// Several beats per element (MSW first).
    Split { beats_per_elem: u32 },
}

impl TransferShape {
    /// Beats needed to move `elems` elements in this shape.
    pub fn beats(self, elems: u64) -> u64 {
        match self {
            TransferShape::Direct => elems,
            TransferShape::Packed { per_beat } => elems.div_ceil(per_beat as u64),
            TransferShape::Split { beats_per_elem } => elems * beats_per_elem as u64,
        }
    }
}

/// Determine how `io` moves over a `bus_width`-bit bus.
pub fn transfer_shape(io: &ValidatedIo, bus_width: u32) -> TransferShape {
    let bits = io.ty.bits.max(1);
    if io.packed && bits < bus_width {
        TransferShape::Packed { per_beat: bus_width / bits }
    } else if bits > bus_width {
        TransferShape::Split { beats_per_elem: bits.div_ceil(bus_width) }
    } else {
        TransferShape::Direct
    }
}

/// One validated interface declaration. Mirrors `s_func_params` of Fig 7.3.
#[derive(Debug, Clone, PartialEq)]
pub struct ValidatedFunction {
    /// Interface name.
    pub name: String,
    /// First FUNC_ID assigned to this function; instance `k` (0-based) uses
    /// `first_func_id + k` (§6.1.2's `SAMPLE_FUNCTION_ID + inst_index`).
    pub first_func_id: u32,
    /// Number of hardware instances (§3.1.6).
    pub instances: u32,
    /// Inputs in transmission order.
    pub inputs: Vec<ValidatedIo>,
    /// The output, if the function returns a value.
    pub output: Option<ValidatedIo>,
    /// `nowait` — the driver does not wait for completion.
    pub nowait: bool,
    /// Source span of the originating declaration.
    pub span: Span,
}

impl ValidatedFunction {
    /// True when a blocking `void` function needs the pseudo output state
    /// (§5.3.1: "a special pseudo output state is created").
    pub fn needs_pseudo_output(&self) -> bool {
        self.output.is_none() && !self.nowait
    }
}

/// A fully validated specification, ready for elaboration.
#[derive(Debug, Clone, PartialEq)]
pub struct ValidatedSpec {
    /// Device/module level parameters.
    pub module: ModuleSpec,
}

/// Device-level content: parameters plus functions.
#[derive(Debug, Clone, PartialEq)]
pub struct ModuleSpec {
    /// Directive-derived configuration.
    pub params: ModuleParams,
    /// Validated functions in declaration order.
    pub functions: Vec<ValidatedFunction>,
    /// `%user_type` definitions in order (name, C definition, bits).
    pub user_types: Vec<(String, String, u32)>,
}

impl ModuleSpec {
    /// Total function instances (excluding the reserved status id 0).
    pub fn total_instances(&self) -> u32 {
        self.functions.iter().map(|f| f.instances).sum()
    }

    /// Find a function by name.
    pub fn function(&self, name: &str) -> Option<&ValidatedFunction> {
        self.functions.iter().find(|f| f.name == name)
    }
}

/// Most function instances any device serves: the completion vector
/// (CALC_DONE_VEC) holds one bit per instance after the reserved id 0, and
/// the generated logic and its checks handle vectors of at most 64 bits.
pub const MAX_FUNC_INSTANCES: usize = 63;

/// The most function instances a device on this bus serves, and why.
fn instance_limit(params: &ModuleParams) -> (usize, &'static str) {
    let word = params.bus_width as usize - 1;
    if params.bus.sync == SyncClass::StrictlySynchronous && word < MAX_FUNC_INSTANCES {
        (
            word,
            "a strictly synchronous bus polls completion through one status word, \
             one bit per instance after the reserved bit 0",
        )
    } else {
        (
            MAX_FUNC_INSTANCES,
            "the completion vector holds one bit per instance after the reserved bit 0 \
             and is at most 64 bits wide",
        )
    }
}

/// Largest explicit pointer bound (`*:N`): what the 16-bit counters the
/// generator gives every dynamic beat tracker can count.
pub const MAX_EXPLICIT_BOUND: u64 = 65_535;

/// Run semantic validation against `registry`.
pub fn validate(spec: &Spec, registry: &BusRegistry) -> Result<ValidatedSpec, SpecError> {
    let v = Validator { spec, registry };
    v.run()
}

struct Validator<'a> {
    spec: &'a Spec,
    registry: &'a BusRegistry,
}

impl<'a> Validator<'a> {
    fn run(&self) -> Result<ValidatedSpec, SpecError> {
        self.check_duplicate_directives()?;
        let params = self.module_params()?;
        let functions = self.functions(&params)?;
        let params = self.finish_params(params, &functions)?;
        let user_types = self
            .spec
            .user_types()
            .map(|d| match d {
                Directive::UserType { name, definition, bits, .. } => {
                    (name.clone(), definition.clone(), *bits)
                }
                _ => unreachable!("user_types() filters on UserType"),
            })
            .collect();
        Ok(ValidatedSpec { module: ModuleSpec { params, functions, user_types } })
    }

    fn check_duplicate_directives(&self) -> Result<(), SpecError> {
        let mut seen: Vec<&'static str> = Vec::new();
        for d in &self.spec.directives {
            let kw = d.keyword();
            if kw == "user_type" {
                continue; // any number allowed (§3.2.3)
            }
            if seen.contains(&kw) {
                return Err(SpecError::new(
                    SpecErrorKind::DuplicateDirective(kw.to_owned()),
                    d.span(),
                ));
            }
            seen.push(kw);
        }
        Ok(())
    }

    fn module_params(&self) -> Result<ModuleParams, SpecError> {
        let whole = Span::point(0);

        let device_name = match self.spec.directive("device_name") {
            Some(Directive::DeviceName { name, .. }) => name.clone(),
            _ => return Err(SpecError::new(SpecErrorKind::MissingDeviceName, whole)),
        };

        let (bus_name, bus_span) = match self.spec.directive("bus_type") {
            Some(Directive::BusType { name, span }) => (name.clone(), *span),
            _ => return Err(SpecError::new(SpecErrorKind::MissingBusType, whole)),
        };
        let bus = self
            .registry
            .get(&bus_name)
            .ok_or_else(|| SpecError::new(SpecErrorKind::UnknownBus(bus_name.clone()), bus_span))?
            .clone();

        let (bus_width, width_span) = match self.spec.directive("bus_width") {
            Some(Directive::BusWidth { bits, span }) => (*bits, *span),
            _ => return Err(SpecError::new(SpecErrorKind::MissingBusWidth, whole)),
        };
        if !bus.supports_width(bus_width) {
            return Err(SpecError::new(
                SpecErrorKind::UnsupportedBusWidth {
                    bus: bus_name.clone(),
                    width: bus_width,
                    allowed: bus.widths.clone(),
                },
                width_span,
            ));
        }

        let base_address = match self.spec.directive("base_address") {
            Some(Directive::BaseAddress { addr, span }) => {
                let align = (bus_width / 8) as u64;
                if bus.memory_mapped && *addr % align != 0 {
                    return Err(SpecError::new(
                        SpecErrorKind::MisalignedBaseAddress { addr: *addr, align },
                        *span,
                    ));
                }
                *addr
            }
            _ if bus.memory_mapped => {
                return Err(SpecError::new(SpecErrorKind::MissingBaseAddress, whole))
            }
            _ => 0, // ignored for non-memory-mapped buses (§3.2.1)
        };

        let hdl = match self.spec.directive("target_hdl") {
            Some(Directive::TargetHdl { hdl, span }) => match hdl.to_ascii_lowercase().as_str() {
                "vhdl" => TargetHdl::Vhdl,
                "verilog" => TargetHdl::Verilog,
                other => {
                    return Err(SpecError::new(SpecErrorKind::UnknownHdl(other.into()), *span))
                }
            },
            _ => TargetHdl::Vhdl,
        };

        let flag = |kw: &str| -> Option<(bool, Span)> {
            match self.spec.directive(kw) {
                Some(Directive::BurstSupport { enabled, span })
                | Some(Directive::DmaSupport { enabled, span })
                | Some(Directive::IrqSupport { enabled, span })
                | Some(Directive::PackingSupport { enabled, span }) => Some((*enabled, *span)),
                _ => None,
            }
        };
        let (burst, burst_span) = flag("burst_support").unwrap_or((false, whole));
        // A strictly synchronous bus carries single transfers only (§4.2.2),
        // whatever burst depths its library declares.
        if burst && (bus.burst_beats.is_empty() || bus.sync == SyncClass::StrictlySynchronous) {
            return Err(SpecError::new(
                SpecErrorKind::BurstNotAvailable { bus: bus_name.clone() },
                burst_span,
            ));
        }
        let (dma, _) = flag("dma_support").unwrap_or((false, whole));
        let (packing, _) = flag("packing_support").unwrap_or((false, whole));
        let (irq, _) = flag("irq_support").unwrap_or((false, whole));

        Ok(ModuleParams {
            device_name,
            hdl,
            bus,
            bus_width,
            base_address,
            packing,
            burst,
            dma,
            irq,
            func_id_width: 0, // sized in finish_params
        })
    }

    fn functions(&self, params: &ModuleParams) -> Result<Vec<ValidatedFunction>, SpecError> {
        if self.spec.decls.is_empty() {
            return Err(SpecError::new(SpecErrorKind::NoFunctions, Span::point(0)));
        }

        let mut out: Vec<ValidatedFunction> = Vec::with_capacity(self.spec.decls.len());
        let mut next_id: u32 = 1; // 0 is the CALC_DONE status register

        for decl in &self.spec.decls {
            if out.iter().any(|f| f.name == decl.name) {
                return Err(SpecError::new(
                    SpecErrorKind::DuplicateFunction(decl.name.clone()),
                    decl.span,
                ));
            }
            if decl.instances == 0 {
                return Err(SpecError::new(
                    SpecErrorKind::ZeroInstances { func: decl.name.clone() },
                    decl.span,
                ));
            }

            let mut inputs: Vec<ValidatedIo> = Vec::with_capacity(decl.params.len());
            for (pi, p) in decl.params.iter().enumerate() {
                if decl.params[..pi].iter().any(|q| q.name == p.name) {
                    return Err(SpecError::new(
                        SpecErrorKind::DuplicateParam {
                            func: decl.name.clone(),
                            param: p.name.clone(),
                        },
                        p.span,
                    ));
                }
                if p.ty.is_void {
                    return Err(SpecError::new(
                        SpecErrorKind::VoidParam { func: decl.name.clone(), param: p.name.clone() },
                        p.span,
                    ));
                }
                let io =
                    self.validate_io(decl, &p.name, &p.ty, &p.ext, &mut inputs, p.span, params)?;
                inputs.push(io);
            }

            let (output, nowait) = match &decl.ret {
                ReturnKind::Void => (None, false),
                ReturnKind::Nowait => (None, true),
                ReturnKind::Value { ty, ext } => {
                    let io =
                        self.validate_io(decl, "result", ty, ext, &mut inputs, decl.span, params)?;
                    (Some(io), false)
                }
            };

            let f = ValidatedFunction {
                name: decl.name.clone(),
                first_func_id: next_id,
                instances: decl.instances as u32,
                inputs,
                output,
                nowait,
                span: decl.span,
            };
            next_id = next_id.saturating_add(f.instances);
            out.push(f);
        }

        let total: usize = out.iter().map(|f| f.instances as usize).sum();
        let (max, reason) = instance_limit(params);
        if total > max {
            // Anchor the diagnostic on the declaration that crosses the
            // limit rather than a meaningless 1:1 position.
            let mut acc = 0usize;
            let span = out
                .iter()
                .find(|f| {
                    acc += f.instances as usize;
                    acc > max
                })
                .map_or_else(|| Span::point(0), |f| f.span);
            return Err(SpecError::new(
                SpecErrorKind::TooManyFunctions { total, max, reason: reason.into() },
                span,
            ));
        }
        Ok(out)
    }

    #[allow(clippy::too_many_arguments)]
    fn validate_io(
        &self,
        decl: &InterfaceDecl,
        name: &str,
        ty: &CType,
        ext: &Extensions,
        earlier: &mut [ValidatedIo],
        span: Span,
        params: &ModuleParams,
    ) -> Result<ValidatedIo, SpecError> {
        let func = decl.name.clone();

        // Bound resolution.
        let bound = if ext.pointer {
            match &ext.bound {
                None => {
                    return Err(SpecError::new(
                        SpecErrorKind::UnboundedPointer { func, param: name.into() },
                        span,
                    ))
                }
                Some(PtrBound::Explicit(0)) => {
                    return Err(SpecError::new(
                        SpecErrorKind::ZeroBound { func, param: name.into() },
                        span,
                    ))
                }
                Some(PtrBound::Explicit(n)) if *n > MAX_EXPLICIT_BOUND => {
                    return Err(SpecError::new(
                        SpecErrorKind::BoundTooLarge {
                            func,
                            param: name.into(),
                            bound: *n,
                            max: MAX_EXPLICIT_BOUND,
                        },
                        span,
                    ))
                }
                Some(PtrBound::Explicit(n)) => IoBound::Explicit(*n),
                Some(PtrBound::Implicit(var)) => {
                    let Some(idx) = earlier.iter().position(|io| io.name == *var) else {
                        // Distinguish "declared later" from "not declared".
                        let declared_later = decl.params.iter().any(|p| &p.name == var);
                        let detail = if declared_later {
                            "index parameters must be transmitted before the arrays that \
                             reference them (§3.3)"
                        } else {
                            "no such parameter"
                        };
                        return Err(SpecError::new(
                            SpecErrorKind::BadImplicitIndex {
                                func,
                                param: name.into(),
                                index: var.clone(),
                                detail: detail.into(),
                            },
                            span,
                        ));
                    };
                    if earlier[idx].is_pointer {
                        return Err(SpecError::new(
                            SpecErrorKind::BadImplicitIndex {
                                func,
                                param: name.into(),
                                index: var.clone(),
                                detail: "index parameter must be a scalar".into(),
                            },
                            span,
                        ));
                    }
                    earlier[idx].used_as_index = true;
                    // Max representable value is bounded by the index type.
                    let bits = earlier[idx].ty.bits.min(63);
                    IoBound::Implicit { index_param: idx, max_hint: (1u64 << bits) - 1 }
                }
            }
        } else {
            if ext.bound.is_some() || ext.packed || ext.dma {
                // `:`/`+`/`^` on a scalar.
                if ext.dma {
                    return Err(SpecError::new(
                        SpecErrorKind::BadDma { func, param: name.into() },
                        span,
                    ));
                }
                return Err(SpecError::new(
                    SpecErrorKind::BadPacking {
                        func,
                        param: name.into(),
                        detail: "packing/bounds apply only to pointer transfers".into(),
                    },
                    span,
                ));
            }
            IoBound::Scalar
        };

        // Packing legality (§3.1.3, §3.2.2): element must be strictly
        // narrower than the bus so that ≥2 elements fit per beat.
        let explicitly_packed = ext.packed;
        if explicitly_packed && ty.bits >= params.bus_width {
            return Err(SpecError::new(
                SpecErrorKind::BadPacking {
                    func,
                    param: name.into(),
                    detail: format!(
                        "{}-bit elements do not pack onto a {}-bit bus",
                        ty.bits, params.bus_width
                    ),
                },
                span,
            ));
        }
        // Global `%packing_support` packs every eligible array transfer
        // ("will only be implemented in cases where the size of the array
        // entries ... is small in comparison to the width of the bus").
        let packed =
            explicitly_packed || (params.packing && ext.pointer && ty.bits * 2 <= params.bus_width);

        // DMA legality (§3.1.5, §3.2.2).
        if ext.dma {
            if !params.bus.dma() || params.bus.sync == SyncClass::StrictlySynchronous {
                let reason = if params.bus.dma() {
                    "a strictly synchronous bus carries single transfers only".into()
                } else {
                    format!("bus `{}` has no physical DMA support", params.bus.kind)
                };
                return Err(SpecError::new(
                    SpecErrorKind::DmaNotAvailable { func, param: name.into(), reason },
                    span,
                ));
            }
            if !params.dma {
                return Err(SpecError::new(
                    SpecErrorKind::DmaNotAvailable {
                        func,
                        param: name.into(),
                        reason: "`%dma_support` is not enabled".into(),
                    },
                    span,
                ));
            }
        }

        let io = ValidatedIo {
            name: name.to_owned(),
            ty: ty.clone(),
            is_pointer: ext.pointer,
            bound,
            packed,
            dma: ext.dma,
            used_as_index: false,
        };
        // The stub latches a runtime element count as a beat count with a
        // shift, so the elements per beat or the beats per element must be
        // a power of two. An explicit bound's beats are counted at
        // generation time, whatever the shape.
        if let IoBound::Implicit { index_param, .. } = bound {
            let width = params.bus_width;
            let detail = match transfer_shape(&io, width) {
                TransferShape::Packed { per_beat } if !per_beat.is_power_of_two() => {
                    format!("{per_beat} {}-bit elements share each {width}-bit beat", ty.bits)
                }
                TransferShape::Split { beats_per_elem } if !beats_per_elem.is_power_of_two() => {
                    format!("each {}-bit element takes {beats_per_elem} {width}-bit beats", ty.bits)
                }
                _ => return Ok(io),
            };
            return Err(SpecError::new(
                SpecErrorKind::BadImplicitIndex {
                    func,
                    param: name.into(),
                    index: earlier[index_param].name.clone(),
                    detail: format!(
                        "{detail}, and the hardware converts a runtime count to beats only by a \
                         power of two; give `{name}` an explicit bound"
                    ),
                },
                span,
            ));
        }
        Ok(io)
    }

    fn finish_params(
        &self,
        mut params: ModuleParams,
        functions: &[ValidatedFunction],
    ) -> Result<ModuleParams, SpecError> {
        let total: u32 = functions.iter().map(|f| f.instances).sum();
        // ids 0..=total must be representable.
        let width = 32 - (total.max(1)).leading_zeros();
        params.func_id_width = width.max(1);
        Ok(params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus::BusRegistry;
    use crate::parser::parse;

    fn check(src: &str) -> Result<ValidatedSpec, SpecError> {
        let spec = parse(src).expect("parse ok");
        validate(&spec, &BusRegistry::builtin())
    }

    const HEADER: &str =
        "%device_name dev\n%bus_type plb\n%bus_width 32\n%base_address 0x80000000\n";

    fn with_header(decls: &str) -> String {
        format!("{HEADER}{decls}")
    }

    #[test]
    fn minimal_spec_validates() {
        let v = check(&with_header("void f();")).unwrap();
        assert_eq!(v.module.params.device_name, "dev");
        assert_eq!(v.module.functions.len(), 1);
        assert_eq!(v.module.functions[0].first_func_id, 1);
        assert!(v.module.functions[0].needs_pseudo_output());
    }

    #[test]
    fn missing_required_directives() {
        let e = check("void f();").unwrap_err();
        assert_eq!(e.kind, SpecErrorKind::MissingDeviceName);
        let e = check("%device_name d\nvoid f();").unwrap_err();
        assert_eq!(e.kind, SpecErrorKind::MissingBusType);
        let e = check("%device_name d\n%bus_type plb\nvoid f();").unwrap_err();
        assert_eq!(e.kind, SpecErrorKind::MissingBusWidth);
        let e = check("%device_name d\n%bus_type plb\n%bus_width 32\nvoid f();").unwrap_err();
        assert_eq!(e.kind, SpecErrorKind::MissingBaseAddress);
    }

    #[test]
    fn fcb_ignores_base_address() {
        // FCB is opcode-addressed: no %base_address needed (§3.2.1 says the
        // directive "is ignored in cases where it is defined but not
        // required").
        let v = check("%device_name d\n%bus_type fcb\n%bus_width 32\nvoid f();").unwrap();
        assert_eq!(v.module.params.base_address, 0);
    }

    #[test]
    fn unknown_bus() {
        let e = check("%device_name d\n%bus_type vme\n%bus_width 32\nvoid f();").unwrap_err();
        assert!(matches!(e.kind, SpecErrorKind::UnknownBus(ref b) if b == "vme"));
    }

    #[test]
    fn unsupported_width() {
        let e = check("%device_name d\n%bus_type fcb\n%bus_width 64\nvoid f();").unwrap_err();
        assert!(matches!(e.kind, SpecErrorKind::UnsupportedBusWidth { width: 64, .. }));
    }

    #[test]
    fn func_ids_skip_zero_and_expand_instances() {
        let v = check(&with_header("void a();\nvoid b(int x):4;\nvoid c();")).unwrap();
        let f = &v.module.functions;
        assert_eq!(f[0].first_func_id, 1);
        assert_eq!(f[1].first_func_id, 2);
        assert_eq!(f[1].instances, 4);
        assert_eq!(f[2].first_func_id, 6);
        assert_eq!(v.module.total_instances(), 6);
        assert_eq!(v.module.params.func_id_width, 3); // ids 0..=6 need 3 bits
    }

    #[test]
    fn implicit_index_must_precede() {
        // Valid per §3.3.
        assert!(check(&with_header("void f(int x, int*:x y);")).is_ok());
        // Invalid: referenced after.
        let e = check(&with_header("void f(int*:x y, int x);")).unwrap_err();
        assert!(matches!(e.kind, SpecErrorKind::BadImplicitIndex { .. }));
        // Invalid: no such parameter.
        let e = check(&with_header("void f(int*:k y);")).unwrap_err();
        assert!(
            matches!(e.kind, SpecErrorKind::BadImplicitIndex { ref detail, .. } if detail == "no such parameter")
        );
    }

    #[test]
    fn implicit_index_marks_used_as_index() {
        let v = check(&with_header("void f(int x, int*:x y);")).unwrap();
        let f = &v.module.functions[0];
        assert!(f.inputs[0].used_as_index);
        assert!(matches!(f.inputs[1].bound, IoBound::Implicit { index_param: 0, .. }));
    }

    #[test]
    fn index_param_must_be_scalar() {
        let e = check(&with_header("void f(int*:2 x, int*:x y);")).unwrap_err();
        assert!(
            matches!(e.kind, SpecErrorKind::BadImplicitIndex { ref detail, .. } if detail.contains("scalar"))
        );
    }

    #[test]
    fn runtime_bounds_need_a_power_of_two_beat_factor() {
        let wb8 = "%device_name d\n%bus_type wishbone\n%bus_width 8\n%base_address 0x80000000\n\
                   %user_type odd, unsigned int, 24\n";
        let plb64 = "%device_name d\n%bus_type plb\n%bus_width 64\n%base_address 0x80000000\n\
                     %packing_support true\n%user_type tw, unsigned short, 12\n";
        for (head, array, detail) in [
            (wb8, "odd*:n xs", "each 24-bit element takes 3 8-bit beats"),
            (plb64, "tw*:n+ xs", "5 12-bit elements share each 64-bit beat"),
        ] {
            let decl = format!("void g(int n, {array});");
            let src = format!("{head}{decl}");
            let e = check(&src).unwrap_err();
            let SpecErrorKind::BadImplicitIndex { param, index, detail: got, .. } = &e.kind else {
                panic!("{decl}: {e:?}");
            };
            assert_eq!((param.as_str(), index.as_str()), ("xs", "n"), "{decl}");
            assert!(got.starts_with(detail), "{decl}: {got}");
            assert!(src[e.span.start..].starts_with(array), "{decl}: located at the array");
            // An explicit bound of the same shape is accepted.
            let explicit = decl.replace(":n", ":9");
            assert!(check(&format!("{head}{explicit}")).is_ok(), "{explicit}");
        }
        // Power-of-two factors keep their runtime bounds.
        assert!(check(&format!("{wb8}int g(char n, int*:n xs);")).is_ok());
    }

    #[test]
    fn unbounded_pointer_rejected() {
        let e = check(&with_header("void f(int* x);")).unwrap_err();
        assert!(matches!(e.kind, SpecErrorKind::UnboundedPointer { .. }));
    }

    #[test]
    fn dma_needs_directive_and_bus() {
        // No %dma_support.
        let e = check(&with_header("void f(int*:8^ x);")).unwrap_err();
        assert!(
            matches!(e.kind, SpecErrorKind::DmaNotAvailable { ref reason, .. } if reason.contains("%dma_support"))
        );
        // %dma_support but FCB has no DMA.
        let e = check(
            "%device_name d\n%bus_type fcb\n%bus_width 32\n%dma_support true\nvoid f(int*:8^ x);",
        )
        .unwrap_err();
        assert!(
            matches!(e.kind, SpecErrorKind::DmaNotAvailable { ref reason, .. } if reason.contains("fcb"))
        );
        // Fully enabled: ok.
        let ok = check(&format!("{HEADER}%dma_support true\nvoid f(int*:8^ x);")).unwrap();
        assert!(ok.module.functions[0].inputs[0].dma);
    }

    #[test]
    fn burst_on_burstless_bus_rejected() {
        let e = check(
            "%device_name d\n%bus_type apb\n%bus_width 32\n%base_address 0x80000000\n%burst_support true\nvoid f();",
        )
        .unwrap_err();
        assert!(matches!(e.kind, SpecErrorKind::BurstNotAvailable { .. }));
    }

    /// A third-party strictly synchronous bus that declares burst depths
    /// and a DMA size still carries single transfers only; the same caps on
    /// a pseudo-asynchronous bus validate.
    #[test]
    fn strictly_synchronous_buses_refuse_bursts_and_dma() {
        let head = "%device_name d\n%bus_type custom\n%bus_width 32\n%base_address 0x80000000\n";
        let burst = format!("{head}%burst_support true\nvoid f(int*:4 x);");
        let dma = format!("{head}%dma_support true\nvoid f(int*:8^ x);");
        for sync in [SyncClass::StrictlySynchronous, SyncClass::PseudoAsynchronous] {
            let mut registry = BusRegistry::builtin();
            let caps = BusCaps {
                burst_beats: vec![2, 4],
                dma_max_bytes: 256,
                sync,
                ..BusCaps::builtin(crate::bus::BusKind::Apb)
            };
            registry.register("custom", caps);
            let run = |src: &str| validate(&crate::parser::parse(src).unwrap(), &registry);
            if sync == SyncClass::PseudoAsynchronous {
                assert!(run(&burst).is_ok() && run(&dma).is_ok());
                continue;
            }
            let e = run(&burst).unwrap_err();
            assert!(matches!(e.kind, SpecErrorKind::BurstNotAvailable { .. }), "{e}");
            let e = run(&dma).unwrap_err();
            assert!(
                matches!(e.kind, SpecErrorKind::DmaNotAvailable { ref reason, .. } if reason.contains("strictly synchronous")),
                "{e}"
            );
        }
    }

    #[test]
    fn packing_of_wide_elements_rejected() {
        let e = check(&with_header("void f(int*:4+ x);")).unwrap_err();
        assert!(matches!(e.kind, SpecErrorKind::BadPacking { .. }));
        // chars pack fine.
        let ok = check(&with_header("void f(char*:8+ x);")).unwrap();
        assert!(ok.module.functions[0].inputs[0].packed);
    }

    #[test]
    fn global_packing_applies_to_eligible_arrays_only() {
        let v =
            check(&format!("{HEADER}%packing_support true\nvoid f(char*:8 c, int*:4 w, short s);"))
                .unwrap();
        let f = &v.module.functions[0];
        assert!(f.inputs[0].packed, "8-bit chars pack on 32-bit bus");
        assert!(!f.inputs[1].packed, "32-bit ints do not pack on 32-bit bus");
        assert!(!f.inputs[2].packed, "scalars never pack");
    }

    #[test]
    fn dma_on_scalar_rejected() {
        let e = check(&format!("{HEADER}%dma_support true\nvoid f(int^ x);")).unwrap_err();
        assert!(matches!(e.kind, SpecErrorKind::BadDma { .. }));
    }

    #[test]
    fn duplicate_function_and_param() {
        let e = check(&with_header("void f();\nvoid f();")).unwrap_err();
        assert!(matches!(e.kind, SpecErrorKind::DuplicateFunction(_)));
        let e = check(&with_header("void f(int x, int x);")).unwrap_err();
        assert!(matches!(e.kind, SpecErrorKind::DuplicateParam { .. }));
    }

    #[test]
    fn void_param_rejected() {
        let e = check(&with_header("void f(void x);")).unwrap_err();
        assert!(matches!(e.kind, SpecErrorKind::VoidParam { .. }));
    }

    #[test]
    fn explicit_bounds_stop_at_the_16_bit_beat_counters() {
        assert!(check(&with_header("void f(int*:65535 xs);")).is_ok());
        for n in [65_536u64, 1 << 32] {
            let e = check(&with_header(&format!("void f(int*:{n} xs);"))).unwrap_err();
            let SpecErrorKind::BoundTooLarge { param, bound, max, .. } = &e.kind else {
                panic!("`*:{n}` must be refused as too large: {e}");
            };
            assert_eq!((param.as_str(), *bound, *max), ("xs", n, MAX_EXPLICIT_BOUND));
        }
    }

    #[test]
    fn zero_bound_and_zero_instances() {
        let e = check(&with_header("void f(int*:0 x);")).unwrap_err();
        assert!(matches!(e.kind, SpecErrorKind::ZeroBound { .. }));
        let e = check(&with_header("void f():0;")).unwrap_err();
        assert!(matches!(e.kind, SpecErrorKind::ZeroInstances { .. }));
    }

    #[test]
    fn empty_spec_rejected() {
        let e = check(HEADER).unwrap_err();
        assert_eq!(e.kind, SpecErrorKind::NoFunctions);
    }

    #[test]
    fn too_many_instances_rejected() {
        let e = check(&with_header("void f():300;")).unwrap_err();
        assert!(matches!(e.kind, SpecErrorKind::TooManyFunctions { total: 300, max: 63, .. }));
    }

    /// Validate `n` one-input functions on `bus`; an error comes back with
    /// the declaration it is located at.
    fn functions_on(bus: &str, n: usize) -> Result<ValidatedSpec, (SpecErrorKind, String)> {
        let decls: String = (0..n).map(|k| format!("int f{k}(int a{k});\n")).collect();
        let src = format!(
            "%device_name d\n%bus_type {bus}\n%bus_width 32\n%base_address 0x80000000\n{decls}"
        );
        check(&src).map_err(|e| (e.kind, e.span.slice(&src).to_owned()))
    }

    #[test]
    fn strictly_synchronous_buses_serve_one_status_word_of_instances() {
        assert!(functions_on("apb", 31).is_ok());
        let (kind, at) = functions_on("apb", 32).unwrap_err();
        assert!(matches!(kind, SpecErrorKind::TooManyFunctions { total: 32, max: 31, .. }));
        assert!(at.starts_with("int f31("), "located at the 32nd declaration, not `{at}`");
        assert!(kind.to_string().contains("status word"), "{kind}");
    }

    #[test]
    fn every_bus_serves_at_most_63_instances() {
        assert!(functions_on("plb", 63).is_ok());
        let (kind, at) = functions_on("plb", 64).unwrap_err();
        assert!(matches!(kind, SpecErrorKind::TooManyFunctions { total: 64, max: 63, .. }));
        assert!(at.starts_with("int f63("), "located at the 64th declaration, not `{at}`");
        assert!(kind.to_string().contains("64 bits"), "{kind}");
    }

    #[test]
    fn misaligned_base_address() {
        let e = check(
            "%device_name d\n%bus_type plb\n%bus_width 32\n%base_address 0x80000001\nvoid f();",
        )
        .unwrap_err();
        assert!(matches!(e.kind, SpecErrorKind::MisalignedBaseAddress { .. }));
    }

    #[test]
    fn duplicate_directive_rejected() {
        let e = check(&format!("{HEADER}%bus_width 32\nvoid f();")).unwrap_err();
        assert!(matches!(e.kind, SpecErrorKind::DuplicateDirective(ref d) if d == "bus_width"));
    }

    #[test]
    fn hdl_selection() {
        let v = check(&format!("{HEADER}%target_hdl verilog\nvoid f();")).unwrap();
        assert_eq!(v.module.params.hdl, TargetHdl::Verilog);
        let e = check(&format!("{HEADER}%target_hdl abel\nvoid f();")).unwrap_err();
        assert!(matches!(e.kind, SpecErrorKind::UnknownHdl(_)));
    }

    #[test]
    fn nowait_function_flagged() {
        let v = check(&with_header("nowait fire(int x);")).unwrap();
        let f = &v.module.functions[0];
        assert!(f.nowait);
        assert!(!f.needs_pseudo_output());
    }

    #[test]
    fn timer_spec_validates_end_to_end() {
        let src = r#"
            %name hw_timer
            %hdl_type vhdl
            %bus_type plb
            %bus_width 32
            %base_address 0x8000401C
            %dma_support false
            %user_type llong, unsigned long long, 64
            %user_type ulong, unsigned long, 32

            void disable{};
            void enable{};
            void set_threshold{llong thold};
            llong get_threshold{};
            llong get_snapshot{};
            ulong get_clock{};
            ulong get_status{};
        "#;
        let v = check(src).unwrap();
        assert_eq!(v.module.functions.len(), 7);
        assert_eq!(v.module.params.base_address, 0x8000_401C);
        assert_eq!(v.module.function("set_threshold").unwrap().inputs[0].ty.bits, 64);
        assert_eq!(v.module.user_types.len(), 2);
        // ids: disable=1 .. get_status=7
        assert_eq!(v.module.function("get_status").unwrap().first_func_id, 7);
        assert_eq!(v.module.params.func_id_width, 3);
    }
}
