//! The abstract value domain: ternary known-bits × unsigned interval ×
//! X-taint, as a reduced product.
//!
//! [`AbsVal`] generalizes the concrete [`TWord`]: where a `TWord` bit is
//! either known or X, an `AbsVal` bit is known or *unconstrained* — and the
//! unconstrained bits are split into environment freedom (an input that may
//! take any value) and **X-taint** (`xmask`): bits that may still hold the
//! uninitialized power-on X. The interval `[lo, hi]` bounds the unsigned
//! value across all concretizations.
//!
//! The two component domains reduce each other after every operation:
//! interval endpoints sharpen to the known-bit envelope, and agreeing high
//! bits of `lo`/`hi` become known bits. A single-point interval therefore
//! always collapses to a fully known value.
//!
//! Soundness contract (checked by `tests/soundness.rs`): every operation
//! over-approximates the concrete [`TWord`] operation — if concrete
//! operands are contained in the abstract operands, the concrete result is
//! contained in the abstract result, and any concrete X bit is covered by
//! `xmask`. A concrete X word stands for every value of its X bits, so
//! the interval of a value that may be X must cover them all: arithmetic
//! on a possibly-X operand is all X, as [`TWord::add`] is, and a fork on a
//! possibly-X condition keeps only the known-bits envelope of its join,
//! as [`TWord::join`] does.

use crate::flat::{DomainValue, Truth};
use crate::tv::{mask, TWord};
use splice_hdl::BinOp;

/// An abstract value: known bits, may-be-X mask, and value interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AbsVal {
    /// Ternary known-bits envelope. `kb.unknown` marks every bit the
    /// analysis cannot pin down (environment freedom and X alike).
    pub kb: TWord,
    /// Subset of `kb.unknown` that may be an uninitialized X (as opposed
    /// to a free-but-driven environment value).
    pub xmask: u64,
    /// Smallest possible unsigned value.
    pub lo: u64,
    /// Largest possible unsigned value.
    pub hi: u64,
}

impl AbsVal {
    /// A fully known constant.
    pub fn known(value: u64, width: u32) -> AbsVal {
        let v = value & mask(width);
        AbsVal { kb: TWord::known(v, width), xmask: 0, lo: v, hi: v }
    }

    /// Any driven value: the abstraction of a free environment input.
    pub fn top(width: u32) -> AbsVal {
        AbsVal { kb: TWord::unknown(width), xmask: 0, lo: 0, hi: mask(width) }
    }

    /// Possibly uninitialized: any value, every bit X-tainted.
    pub fn undriven(width: u32) -> AbsVal {
        AbsVal { kb: TWord::unknown(width), xmask: mask(width), lo: 0, hi: mask(width) }
    }

    /// Vector width in bits.
    pub fn width(&self) -> u32 {
        self.kb.width
    }

    /// True when some bit may be an uninitialized X.
    pub fn is_tainted(&self) -> bool {
        self.xmask != 0
    }

    /// The single value this abstraction pins down, if any.
    pub fn as_const(&self) -> Option<u64> {
        self.kb.value()
    }

    /// Could the value equal the concrete `v`?
    pub fn may_be(&self, v: u64) -> bool {
        let v = v & mask(self.width());
        self.kb.may_equal(v) && self.lo <= v && v <= self.hi
    }

    /// Does this abstraction contain the concrete ternary word `t`? Every
    /// concretization of `t` must be a concretization of `self`, and every
    /// X bit of `t` must be covered by `xmask`.
    pub fn contains(&self, t: &TWord) -> bool {
        if t.width != self.width() {
            return false;
        }
        // Abstractly known bits must be concretely known and agree.
        let abs_known = !self.kb.unknown;
        if t.unknown & abs_known != 0 || (t.bits ^ self.kb.bits) & abs_known & mask(t.width) != 0 {
            return false;
        }
        // Concrete X bits must be tainted.
        if t.unknown & !self.xmask != 0 {
            return false;
        }
        // The interval must cover the concretization range.
        self.lo <= t.bits && (t.bits | t.unknown) <= self.hi
    }

    /// Restore the reduced-product invariants: intersect the interval with
    /// the known-bits envelope, then promote agreeing high interval bits
    /// to known bits.
    fn normalized(mut self) -> AbsVal {
        let m = mask(self.width());
        self.lo = self.lo.max(self.kb.bits) & m;
        self.hi = self.hi.min(self.kb.bits | self.kb.unknown) & m;
        debug_assert!(self.lo <= self.hi, "contradictory abstract value {self:?}");
        // Bits above the highest differing bit of lo/hi are shared by
        // every value in the interval: promote them to known.
        let varying = match self.lo ^ self.hi {
            0 => 0,
            d => 64 - d.leading_zeros(),
        };
        let fixed = m & !mask(varying);
        let newly = self.kb.unknown & fixed;
        self.kb.bits |= self.lo & newly;
        self.kb.unknown &= !newly;
        self.xmask &= self.kb.unknown;
        self
    }

    /// Zero-extend or truncate to `width`.
    pub fn resize(&self, width: u32) -> AbsVal {
        let m = mask(width);
        let (lo, hi) = if self.hi <= m { (self.lo, self.hi) } else { (0, m) };
        AbsVal { kb: self.kb.resize(width), xmask: self.xmask & m, lo, hi }.normalized()
    }

    fn bitwise(kb: TWord, xmask: u64) -> AbsVal {
        let lo = kb.bits;
        let hi = kb.bits | kb.unknown;
        AbsVal { kb, xmask: xmask & kb.unknown, lo, hi }.normalized()
    }

    /// Bitwise AND.
    pub fn and(&self, other: &AbsVal) -> AbsVal {
        AbsVal::bitwise(self.kb.and(&other.kb), self.xmask | other.xmask)
    }

    /// Bitwise OR.
    pub fn or(&self, other: &AbsVal) -> AbsVal {
        AbsVal::bitwise(self.kb.or(&other.kb), self.xmask | other.xmask)
    }

    /// Bitwise NOT.
    pub fn not(&self) -> AbsVal {
        AbsVal::bitwise(self.kb.not(), self.xmask)
    }

    /// Bit slice `[hi..=lo]`.
    pub fn slice(&self, hi: u32, lo: u32) -> AbsVal {
        let w = hi.saturating_sub(lo) + 1;
        AbsVal::bitwise(self.kb.slice(hi, lo), (self.xmask >> lo) & mask(w))
    }

    /// Concatenate with `low` below this word.
    pub fn concat(&self, low: &AbsVal) -> AbsVal {
        AbsVal::bitwise(self.kb.concat(&low.kb), (self.xmask << low.width()) | low.xmask)
    }

    /// Arithmetic on a possibly-X operand: [`TWord::add`] and
    /// [`TWord::sub`] go all X on any X bit, so no interval of the
    /// operands bounds the result.
    fn x_arith(a: &AbsVal, b: &AbsVal) -> Option<AbsVal> {
        (a.is_tainted() || b.is_tainted()).then(|| AbsVal::undriven(a.width().max(b.width())))
    }

    /// Wrapping addition with exact interval arithmetic (top on wrap).
    pub fn add(&self, other: &AbsVal) -> AbsVal {
        if let Some(x) = AbsVal::x_arith(self, other) {
            return x;
        }
        let kb = self.kb.add(&other.kb);
        let m = mask(kb.width) as u128;
        let (l, h) = (self.lo as u128 + other.lo as u128, self.hi as u128 + other.hi as u128);
        let (lo, hi) = if h <= m {
            (l as u64, h as u64)
        } else if l > m {
            // Both endpoints wrap: the interval shifts down by 2^w.
            ((l - m - 1) as u64, (h - m - 1) as u64)
        } else {
            (0, m as u64)
        };
        AbsVal { xmask: 0, kb, lo, hi }.normalized()
    }

    /// Wrapping subtraction with exact interval arithmetic (top on wrap).
    pub fn sub(&self, other: &AbsVal) -> AbsVal {
        if let Some(x) = AbsVal::x_arith(self, other) {
            return x;
        }
        let kb = self.kb.sub(&other.kb);
        let m = mask(kb.width) as i128;
        let (l, h) = (self.lo as i128 - other.hi as i128, self.hi as i128 - other.lo as i128);
        let (lo, hi) = if l >= 0 {
            (l as u64, h.min(m) as u64)
        } else if h < 0 {
            ((l + m + 1) as u64, (h + m + 1) as u64)
        } else {
            (0, m as u64)
        };
        AbsVal { xmask: 0, kb, lo, hi }.normalized()
    }

    fn boolean(known: Option<bool>, tainted: bool) -> AbsVal {
        match known {
            Some(b) => AbsVal::known(b as u64, 1),
            None => AbsVal { kb: TWord::unknown(1), xmask: u64::from(tainted), lo: 0, hi: 1 },
        }
    }

    /// Three-valued equality, sharpened by disjoint intervals.
    ///
    /// Interval sharpening is only sound on untainted operands: a tainted
    /// operand may concretely be an X word, and [`TWord::eq`] then yields
    /// X even when the intervals are disjoint, so a known-`false` here
    /// would not contain it. (The known-bits path is taint-safe: it only
    /// decides on a known-bit mismatch, which every concretization
    /// shares.)
    pub fn eq(&self, other: &AbsVal) -> AbsVal {
        let tainted = self.is_tainted() || other.is_tainted();
        let t = self.kb.eq(&other.kb);
        let known = match t.value() {
            Some(v) => Some(v != 0),
            None if !tainted && (self.hi < other.lo || other.hi < self.lo) => Some(false),
            None => None,
        };
        AbsVal::boolean(known, tainted)
    }

    /// Three-valued inequality.
    pub fn ne(&self, other: &AbsVal) -> AbsVal {
        self.eq(other).not()
    }

    /// Unsigned less-than, decided by interval ordering when possible.
    ///
    /// As with [`AbsVal::eq`], interval decisions require untainted
    /// operands: [`TWord::lt`] goes all-X on any unknown bit, so a tainted
    /// operand's concrete X word escapes a known verdict. When tainted,
    /// the known-bits path decides only if both operands are fully known —
    /// i.e. never — which is exactly the sound answer.
    pub fn lt(&self, other: &AbsVal) -> AbsVal {
        let tainted = self.is_tainted() || other.is_tainted();
        let known = if tainted {
            None
        } else if self.hi < other.lo {
            Some(true)
        } else if self.lo >= other.hi {
            Some(false)
        } else {
            self.kb.lt(&other.kb).value().map(|v| v != 0)
        };
        AbsVal::boolean(known, tainted)
    }

    /// Unsigned greater-or-equal, decided by interval ordering when
    /// possible; tainted operands stay undecided (see [`AbsVal::lt`]).
    pub fn ge(&self, other: &AbsVal) -> AbsVal {
        let tainted = self.is_tainted() || other.is_tainted();
        let known = if tainted {
            None
        } else if self.lo >= other.hi {
            Some(true)
        } else if self.hi < other.lo {
            Some(false)
        } else {
            self.kb.ge(&other.kb).value().map(|v| v != 0)
        };
        AbsVal::boolean(known, tainted)
    }

    /// Least upper bound: both operands' concretizations are contained in
    /// the result.
    pub fn join(&self, other: &AbsVal) -> AbsVal {
        AbsVal {
            kb: self.kb.join(&other.kb),
            xmask: self.xmask | other.xmask,
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
        .normalized()
    }

    /// Widening: accept `next` (which must be `self.join(stepped)`), but
    /// jump any still-growing interval endpoint to its extreme so chains
    /// of joins terminate. Known-bits and taint need no widening — their
    /// lattices have finite height per bit.
    pub fn widen(&self, next: &AbsVal) -> AbsVal {
        let m = mask(next.width());
        AbsVal {
            kb: next.kb,
            xmask: next.xmask,
            lo: if next.lo < self.lo { 0 } else { next.lo },
            hi: if next.hi > self.hi { m } else { next.hi },
        }
        .normalized()
    }

    /// Three-valued truth as a branch condition (nonzero test).
    pub fn truth(&self) -> Truth {
        if self.kb.bits != 0 || self.lo > 0 {
            Truth::True
        } else if self.hi == 0 {
            Truth::False
        } else {
            Truth::Unknown
        }
    }
}

impl DomainValue for AbsVal {
    fn lit(value: u64, width: u32) -> AbsVal {
        AbsVal::known(value, width)
    }
    fn undriven(width: u32) -> AbsVal {
        AbsVal::undriven(width)
    }
    fn width(&self) -> u32 {
        AbsVal::width(self)
    }
    fn resize(&self, width: u32) -> AbsVal {
        AbsVal::resize(self, width)
    }
    fn binop(op: BinOp, lhs: &AbsVal, rhs: &AbsVal) -> AbsVal {
        match op {
            BinOp::Eq => lhs.eq(rhs),
            BinOp::Ne => lhs.ne(rhs),
            BinOp::Add => lhs.add(rhs),
            BinOp::Sub => lhs.sub(rhs),
            BinOp::And => lhs.and(rhs),
            BinOp::Or => lhs.or(rhs),
            BinOp::Lt => lhs.lt(rhs),
            BinOp::Ge => lhs.ge(rhs),
        }
    }
    fn not(&self) -> AbsVal {
        AbsVal::not(self)
    }
    fn slice(&self, hi: u32, lo: u32) -> AbsVal {
        AbsVal::slice(self, hi, lo)
    }
    fn concat(&self, low: &AbsVal) -> AbsVal {
        AbsVal::concat(self, low)
    }
    fn join(&self, other: &AbsVal) -> AbsVal {
        AbsVal::join(self, other)
    }
    fn fork_join(&self, other: &AbsVal, cond: &AbsVal) -> AbsVal {
        let j = AbsVal::join(self, other);
        if !cond.is_tainted() {
            return j;
        }
        // The ternary join makes X every bit the sides may disagree on,
        // and its X word ranges over the whole known-bits envelope.
        AbsVal::bitwise(j.kb, j.kb.unknown)
    }
    fn truth(&self) -> Truth {
        AbsVal::truth(self)
    }
    fn value(&self) -> Option<u64> {
        self.as_const()
    }
    fn may_equal(&self, v: u64) -> bool {
        self.may_be(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_interval_collapses_to_known() {
        let v = AbsVal { kb: TWord::unknown(4), xmask: 0, lo: 5, hi: 5 }.normalized();
        assert_eq!(v.as_const(), Some(5));
        assert_eq!(v, AbsVal::known(5, 4));
    }

    #[test]
    fn interval_high_bits_become_known() {
        // [4, 6] in 4 bits: bits 3..2 are fixed at 0b01.
        let v = AbsVal { kb: TWord::unknown(4), xmask: 0, lo: 4, hi: 6 }.normalized();
        assert_eq!(v.kb.bits, 0b0100);
        assert_eq!(v.kb.unknown, 0b0011, "only the low two bits vary");
    }

    #[test]
    fn add_tracks_interval_and_wraps_to_top() {
        let a = AbsVal { kb: TWord::unknown(4), xmask: 0, lo: 1, hi: 3 }.normalized();
        let b = AbsVal::known(2, 4);
        let s = a.add(&b);
        assert_eq!((s.lo, s.hi), (3, 5));
        // 14 + [1,3] wraps for some values: top.
        let near = AbsVal::known(14, 4);
        let w = a.add(&near);
        assert_eq!((w.lo, w.hi), (0, 15));
        // 15 + [1,3] wraps for every value: shifted interval.
        let full = AbsVal::known(15, 4);
        let w2 = a.add(&full);
        assert_eq!((w2.lo, w2.hi), (0, 2));
    }

    #[test]
    fn compares_decide_by_interval() {
        let small = AbsVal { kb: TWord::unknown(4), xmask: 0, lo: 0, hi: 3 }.normalized();
        let big = AbsVal { kb: TWord::unknown(4), xmask: 0, lo: 8, hi: 11 }.normalized();
        assert_eq!(small.lt(&big).as_const(), Some(1));
        assert_eq!(big.lt(&small).as_const(), Some(0));
        assert_eq!(big.ge(&small).as_const(), Some(1));
        assert_eq!(small.eq(&big).as_const(), Some(0));
        assert_eq!(small.ne(&big).as_const(), Some(1));
        assert_eq!(small.lt(&small).as_const(), None, "overlap stays unknown");
    }

    #[test]
    fn taint_propagates_through_mixing_ops_only_when_unknown() {
        let x = AbsVal::undriven(4);
        let k = AbsVal::known(3, 4);
        assert!(x.add(&k).is_tainted());
        assert!(x.eq(&k).is_tainted());
        // AND with known 0 forces the result: no residual taint.
        let zero = AbsVal::known(0, 4);
        let masked = x.and(&zero);
        assert_eq!(masked.as_const(), Some(0));
        assert!(!masked.is_tainted());
        // Top (driven but free) never taints.
        assert!(!AbsVal::top(4).add(&k).is_tainted());
    }

    #[test]
    fn truth_uses_both_components() {
        assert_eq!(AbsVal::known(0, 4).truth(), Truth::False);
        assert_eq!(AbsVal::known(9, 4).truth(), Truth::True);
        assert_eq!(AbsVal::top(4).truth(), Truth::Unknown);
        let positive = AbsVal { kb: TWord::unknown(4), xmask: 0, lo: 2, hi: 9 }.normalized();
        assert_eq!(positive.truth(), Truth::True, "lo > 0 is provably nonzero");
    }

    #[test]
    fn widen_jumps_growing_bounds() {
        let prev = AbsVal { kb: TWord::unknown(8), xmask: 0, lo: 0, hi: 200 }.normalized();
        let next = AbsVal { kb: TWord::unknown(8), xmask: 0, lo: 0, hi: 201 }.normalized();
        let w = prev.widen(&prev.join(&next));
        assert_eq!((w.lo, w.hi), (0, 255));
        // A stable bound is kept.
        let same = prev.widen(&prev.join(&prev));
        assert_eq!((same.lo, same.hi), (0, 200));
        // When the known bits bound the value, normalization clamps the
        // widened interval back to them — still a sound fixpoint jump.
        let small = AbsVal { kb: TWord::unknown(8), xmask: 0, lo: 0, hi: 3 }.normalized();
        let grown = AbsVal { kb: TWord::unknown(8), xmask: 0, lo: 0, hi: 4 }.normalized();
        let clamped = small.widen(&small.join(&grown));
        assert_eq!((clamped.lo, clamped.hi), (0, 7), "kb says bits 7..3 are zero");
    }

    #[test]
    fn contains_checks_bits_interval_and_taint() {
        let v = AbsVal { kb: TWord::unknown(4), xmask: 0, lo: 2, hi: 6 }.normalized();
        assert!(v.contains(&TWord::known(4, 4)));
        assert!(!v.contains(&TWord::known(9, 4)), "outside the interval");
        assert!(!v.contains(&TWord::unknown(4)), "concrete X needs taint");
        assert!(AbsVal::undriven(4).contains(&TWord::unknown(4)));
        assert!(!AbsVal::known(3, 4).contains(&TWord::known(2, 4)));
    }
}
