//! Exhaustive reachability over a nondeterministic SIS environment.
//!
//! Where the scripted runs of [`crate::env`] check directed liveness (every
//! driver transaction completes), this module checks *safety over every
//! reachable state*: starting from reset, the environment may drive any
//! combination of DATA_IN_VALID / IO_ENABLE, any data value from a small
//! domain and any FUNC_ID (this function's, the reserved status id 0, and a
//! foreign id) on every cycle. The BFS verifies that no reachable state
//! carries X, that DATA_OUT is defined whenever DATA_OUT_VALID is asserted,
//! and — for composed arbiter designs — that no two function instances
//! drive the shared return lines in the same cycle.
//!
//! Exploration is bounded two ways: `max_states` (a work budget whose
//! exhaustion is reported as a warning) and `max_depth` (a horizon for
//! designs whose counters legitimately free-run under arbitrary input,
//! reported in the statistics only).
//!
//! A flattened arbiter's instances step independently, so a [`StepMemo`]
//! learns each instance's transitions once and composes later edges from
//! them, across every exploration of the design. The safety checks read
//! only a few registers ([`observed_registers`]), so each exploration
//! settles an observation once per row and value of those registers.

use crate::compile::{CompiledDesign, Interp};
use crate::env::EnvPins;
use crate::tv::{self, TWord};
use std::collections::{HashMap, VecDeque};
use std::ops::Range;

/// Nondeterministic environment and exploration bounds.
#[derive(Debug, Clone)]
pub struct ExploreSpec {
    /// FUNC_ID values the environment may drive.
    pub func_ids: Vec<u64>,
    /// DATA_IN values the environment may drive.
    pub data_domain: Vec<u64>,
    /// Stop (with a warning) after this many distinct states.
    pub max_states: usize,
    /// Do not expand states deeper than this many steps past reset.
    pub max_depth: u32,
    /// Polled between state expansions (every
    /// [`STOP_POLL_INTERVAL`] pops): when it returns true the
    /// search stops where it is and reports `interrupted`, so a Ctrl-C'd
    /// `splice check` flushes a partial report instead of dying mid-BFS.
    pub stop: Option<fn() -> bool>,
}

/// How many frontier pops happen between two polls of
/// [`ExploreSpec::stop`] — cheap enough to keep exploration throughput
/// unchanged, frequent enough that an interrupt lands within milliseconds.
pub const STOP_POLL_INTERVAL: u32 = 512;

/// A safety violation found by the BFS.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BfsViolation {
    /// A register or observed output carried X after reset.
    UnknownValue {
        /// Flattened signal name.
        signal: String,
    },
    /// DATA_OUT carried X while DATA_OUT_VALID was asserted.
    UnknownData,
    /// Two instances drove copies of the same shared return line at once.
    MutexOverlap {
        /// The shared line (`IO_DONE` or `DATA_OUT_VALID`).
        line: String,
        /// First asserted per-instance net.
        a: String,
        /// Second asserted per-instance net.
        b: String,
    },
}

/// Result of one exploration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BfsOutcome {
    /// Number of distinct reachable register states discovered.
    pub reachable: usize,
    /// True when the full reachable set was closed (no cap, no budget).
    pub complete: bool,
    /// True when `max_states` stopped the search.
    pub budget_exhausted: bool,
    /// True when [`ExploreSpec::stop`] stopped the search (SIGINT): the
    /// outcome covers only the prefix explored so far.
    pub interrupted: bool,
    /// True when some states were left unexpanded at `max_depth`.
    pub depth_capped: bool,
    /// Largest number of states ever waiting in the BFS frontier — a proxy
    /// for the design's branching factor (and the search's memory high-water
    /// mark).
    pub frontier_peak: usize,
    /// First violation plus the input trace reaching it (reset rows
    /// included; the violating observation is at the final row).
    pub violation: Option<(BfsViolation, Vec<Vec<u64>>)>,
}

/// A group of per-instance nets that must be mutually exclusive, labelled
/// with the shared line they multiplex onto.
#[derive(Debug, Clone)]
pub struct MutexGroup {
    /// The shared SIS line (`IO_DONE`, `DATA_OUT_VALID`).
    pub line: String,
    /// Signal ids of the per-instance copies.
    pub members: Vec<usize>,
}

/// How a stored state was reached, in `u32`s like the [`WordSet`] indices.
struct Stored {
    /// Index into the environment's rows of the row that led here (unused
    /// for the reset state).
    row: u32,
    parent: u32,
    depth: u32,
}

/// An empty entry: a table slot holding no row, or a transition not
/// learned yet.
const NONE: u32 = u32::MAX;

/// Rows of `width` words, each stored once in insertion order and found
/// through an open-addressing table of row indices. It holds the BFS's
/// visited states, each step group's local states and the observations
/// the verdict set is keyed on.
struct WordSet {
    width: usize,
    words: Vec<u64>,
    len: usize,
    /// Row index per slot, [`NONE`] when empty; a power of two long and
    /// at most half full.
    slots: Vec<u32>,
}

impl WordSet {
    fn new(width: usize) -> WordSet {
        WordSet { width, words: Vec::new(), len: 0, slots: vec![NONE; 16] }
    }

    fn get(&self, idx: usize) -> &[u64] {
        &self.words[idx * self.width..(idx + 1) * self.width]
    }

    /// The slot `key` hashes to. Its keys are register bits, so a
    /// multiplicative hash suffices; the product's high bits index.
    fn home(&self, key: &[u64]) -> usize {
        let h = key
            .iter()
            .fold(0u64, |h, &w| (h.rotate_left(5) ^ w).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        (h >> (64 - self.slots.len().trailing_zeros())) as usize
    }

    /// `Ok(index)` of `key`, or `Err(slot)` where [`WordSet::insert_at`]
    /// may put it.
    fn find(&self, key: &[u64]) -> Result<usize, usize> {
        let mask = self.slots.len() - 1;
        let mut slot = self.home(key);
        loop {
            match self.slots[slot] {
                NONE => return Err(slot),
                idx if self.get(idx as usize) == key => return Ok(idx as usize),
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// Append `key` at the empty `slot` that [`WordSet::find`] returned
    /// for it, with no insertion in between.
    fn insert_at(&mut self, slot: usize, key: &[u64]) -> usize {
        let idx = self.len;
        self.slots[slot] = u32::try_from(idx).expect("fewer than 2^32 rows");
        self.words.extend_from_slice(key);
        self.len += 1;
        if self.len * 2 > self.slots.len() {
            self.slots = vec![NONE; self.slots.len() * 2];
            let mask = self.slots.len() - 1;
            for i in 0..self.len {
                let mut slot = self.home(self.get(i));
                while self.slots[slot] != NONE {
                    slot = (slot + 1) & mask;
                }
                self.slots[slot] = i as u32;
            }
        }
        idx
    }

    fn intern(&mut self, key: &[u64]) -> usize {
        self.find(key).unwrap_or_else(|slot| self.insert_at(slot, key))
    }
}

/// Where each register's known bits sit in a packed state: every register
/// at a fixed (word, shift) slot, each step group starting a word of its
/// own, so a group's local state is one run of words.
struct Layout {
    /// `(word, shift)` per register slot.
    at: Vec<(usize, u32)>,
    widths: Vec<u32>,
    /// Words of each group, in group order.
    spans: Vec<Range<usize>>,
    /// Words per state.
    words: usize,
}

impl Layout {
    /// Pack `groups` (register slots; none means one group of them all).
    fn new(d: &CompiledDesign, groups: &[Vec<usize>]) -> Layout {
        let widths: Vec<u32> = d.registers.iter().map(|&id| d.signals[id].width).collect();
        let all = [(0..widths.len()).collect::<Vec<usize>>()];
        let groups = if groups.is_empty() { &all[..] } else { groups };
        let mut at = vec![(0, 0); widths.len()];
        let mut spans = Vec::with_capacity(groups.len());
        let mut words = 0;
        for group in groups {
            let start = words;
            let mut free = 0u32;
            for &slot in group {
                if words == start || free < widths[slot].max(1) {
                    words += 1;
                    free = 64;
                }
                at[slot] = (words - 1, 64 - free);
                free -= widths[slot].min(free);
            }
            spans.push(start..words);
        }
        Layout { at, widths, spans, words }
    }

    /// Pack the known bits of `regs` into `out`.
    fn pack(&self, regs: &[TWord], out: &mut [u64]) {
        out.fill(0);
        for (reg, &(word, shift)) in regs.iter().zip(&self.at) {
            out[word] |= reg.bits << shift;
        }
    }

    /// The words holding some of the register slots `slots`, each with
    /// the mask of those slots' bits in it.
    fn mask(&self, slots: &[usize]) -> Vec<(usize, u64)> {
        let mut mask = vec![0u64; self.words];
        for &slot in slots {
            let (word, shift) = self.at[slot];
            mask[word] |= tv::mask(self.widths[slot]) << shift;
        }
        mask.into_iter().enumerate().filter(|&(_, m)| m != 0).collect()
    }

    fn unpack(&self, packed: &[u64], out: &mut Vec<TWord>) {
        out.clear();
        out.extend(
            self.at
                .iter()
                .zip(&self.widths)
                .map(|(&(word, shift), &w)| TWord::known(packed[word] >> shift, w)),
        );
    }
}

/// `set |= other`, growing `set` to `words` words.
fn or_into(set: &mut Vec<u64>, other: &[u64], words: usize) {
    set.resize(words, 0);
    for (acc, &w) in set.iter_mut().zip(other) {
        *acc |= w;
    }
}

/// Register support of each signal of `d`: the register slots a settle
/// reads to produce it, as a bitset over register slots (empty: none). One
/// pass in `comb_order` is exact: a settle runs the nodes once in that
/// order, so a read sees only earlier nodes' writes.
fn register_support(d: &CompiledDesign) -> Vec<Vec<u64>> {
    let words = d.registers.len().div_ceil(64);
    let mut support: Vec<Vec<u64>> = vec![Vec::new(); d.signals.len()];
    for (slot, &id) in d.registers.iter().enumerate() {
        support[id] = vec![0; words];
        support[id][slot / 64] |= 1 << (slot % 64);
    }
    for node in &d.comb_order {
        let mut set = Vec::new();
        for &id in &node.reads {
            or_into(&mut set, &support[id], words);
        }
        for &id in &node.writes {
            or_into(&mut support[id], &set, words);
        }
    }
    support
}

/// The register slots in the bitset `set`, ascending.
fn slots_in(set: &[u64], n: usize) -> impl Iterator<Item = usize> + '_ {
    (0..n).filter(move |&slot| set.get(slot / 64).is_some_and(|w| w >> (slot % 64) & 1 == 1))
}

/// Partition `d`'s registers into step groups: the registers of two
/// clocked processes share a group when one reads a register the other
/// writes, directly or through the combinational nets, or when both write
/// one register. A group's next registers are then a function of its own
/// registers and the input row alone. Groups list register slots in
/// ascending order and are ordered by their first slot.
pub fn step_groups(d: &CompiledDesign) -> Vec<Vec<usize>> {
    let n = d.registers.len();
    let words = n.div_ceil(64);
    let support = register_support(d);
    // Union-find over register slots, each root the smallest slot of its
    // class.
    fn root(parent: &mut [usize], mut i: usize) -> usize {
        while parent[i] != i {
            parent[i] = parent[parent[i]];
            i = parent[i];
        }
        i
    }
    let mut parent: Vec<usize> = (0..n).collect();
    for node in &d.clocked {
        let mut set = vec![0; words];
        for &id in node.reads.iter().chain(&node.writes) {
            or_into(&mut set, &support[id], words);
        }
        let mut slots = slots_in(&set, n);
        if let Some(first) = slots.next() {
            for slot in slots {
                let (a, b) = (root(&mut parent, first), root(&mut parent, slot));
                parent[a.max(b)] = a.min(b);
            }
        }
    }
    let mut group_of = vec![usize::MAX; n];
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for slot in 0..n {
        let r = root(&mut parent, slot);
        if group_of[r] == usize::MAX {
            group_of[r] = groups.len();
            groups.push(Vec::new());
        }
        groups[group_of[r]].push(slot);
    }
    groups
}

/// The register slots, ascending, whose values decide the safety checks'
/// settle on an edge: the register support of every output, of
/// DATA_OUT_VALID and DATA_OUT, and of every mutex member. The settle's
/// verdict is a function of these registers and the input row alone.
pub fn observed_registers(
    d: &CompiledDesign,
    pins: &EnvPins,
    mutex_groups: &[MutexGroup],
) -> Vec<usize> {
    let words = d.registers.len().div_ceil(64);
    let support = register_support(d);
    let mut set = vec![0; words];
    let members = mutex_groups.iter().flat_map(|g| &g.members);
    for &id in d.outputs.iter().chain([&pins.dov, &pins.data_out]).chain(members) {
        or_into(&mut set, &support[id], words);
    }
    slots_in(&set, d.registers.len()).collect()
}

/// Transitions learned per step group ([`step_groups`]), kept across every
/// exploration of one design so the pair runs of an arbiter share them.
///
/// For each group it interns the local states seen and maps (local state,
/// input row) to the successor's local state. Rows are interned by value.
/// An edge whose every group has an entry is composed from them without
/// stepping the design. A design of one group gets an empty memo, which
/// learns nothing: every edge steps.
#[derive(Default)]
pub struct StepMemo {
    /// Register slots per group; empty for a one-group design.
    groups: Vec<Vec<usize>>,
    /// Interned local states, per group.
    locals: Vec<WordSet>,
    /// `next[row][group][local]`: the successor's local state, or
    /// [`NONE`].
    next: Vec<Vec<Vec<u32>>>,
    rows: HashMap<Vec<u64>, u32>,
    /// Edges tried.
    edges: u64,
    /// Edges that ran [`Interp::step`].
    stepped: u64,
    /// Observations settled for the safety checks.
    settled: u64,
}

impl StepMemo {
    /// The memo for `d`: empty unless `d` splits into two or more groups.
    pub fn new(d: &CompiledDesign) -> StepMemo {
        let groups = step_groups(d);
        if groups.len() < 2 {
            return StepMemo::default();
        }
        let layout = Layout::new(d, &groups);
        let locals = layout.spans.iter().map(|s| WordSet::new(s.len())).collect();
        StepMemo { groups, locals, ..StepMemo::default() }
    }

    /// Groups the memo learns for; 0 when it is empty.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Edges tried, over every exploration given this memo.
    pub fn edges(&self) -> u64 {
        self.edges
    }

    /// Edges, over every exploration given this memo, that it could not
    /// compose, so the design was stepped.
    pub fn stepped(&self) -> u64 {
        self.stepped
    }

    /// Edges, over every exploration given this memo, whose safety checks
    /// settled the observation because no earlier edge of the same
    /// exploration had the same row and observed registers.
    pub fn settled(&self) -> u64 {
        self.settled
    }

    fn row_id(&mut self, row: &[u64]) -> u32 {
        if self.groups.is_empty() {
            return 0;
        }
        let fresh = self.rows.len() as u32;
        let id = *self.rows.entry(row.to_vec()).or_insert(fresh);
        if id == fresh {
            self.next.push(vec![Vec::new(); self.groups.len()]);
        }
        id
    }

    /// Each group's local id in the packed state `state`, into `out`.
    fn locals_of(&mut self, state: &[u64], layout: &Layout, out: &mut Vec<u32>) {
        out.clear();
        for (set, span) in self.locals.iter_mut().zip(&layout.spans) {
            out.push(set.intern(&state[span.clone()]) as u32);
        }
    }

    /// Compose the successor of `locals` under `row` into `out`; false
    /// when some group has no entry.
    fn compose(&self, row: u32, locals: &[u32], layout: &Layout, out: &mut [u64]) -> bool {
        let Some(table) = self.next.get(row as usize) else {
            return false;
        };
        for (g, &local) in locals.iter().enumerate() {
            match table[g].get(local as usize) {
                Some(&to) if to != NONE => {
                    out[layout.spans[g].clone()].copy_from_slice(self.locals[g].get(to as usize));
                }
                _ => return false,
            }
        }
        true
    }

    /// Record, from one step of `locals` under `row` to `next` (packed in
    /// `packed`), every group whose next local state is fully known.
    fn learn(&mut self, row: u32, locals: &[u32], next: &[TWord], packed: &[u64], layout: &Layout) {
        for (g, group) in self.groups.iter().enumerate() {
            if group.iter().all(|&slot| next[slot].is_known()) {
                let to = self.locals[g].intern(&packed[layout.spans[g].clone()]) as u32;
                let table = &mut self.next[row as usize][g];
                let from = locals[g] as usize;
                if table.len() <= from {
                    table.resize(from + 1, NONE);
                }
                table[from] = to;
            }
        }
    }
}

/// The verdict set of one exploration. The safety checks' settle on an
/// edge is a pure function of its row and the successor's
/// [`observed_registers`], so each distinct observation (a packed state's
/// words masked to those registers) is interned and carries one bit per
/// row whose settle checked clean.
struct Verdicts {
    /// `(word, mask)` of each packed word holding observed register bits.
    observed: Vec<(usize, u64)>,
    views: WordSet,
    /// The observation being looked up.
    view: Vec<u64>,
    row_words: usize,
    /// `row_words` words of clean bits per observation.
    clean: Vec<u64>,
}

impl Verdicts {
    fn new(observed: Vec<(usize, u64)>, rows: usize) -> Verdicts {
        Verdicts {
            views: WordSet::new(observed.len()),
            view: vec![0; observed.len()],
            observed,
            row_words: rows.div_ceil(64),
            clean: Vec::new(),
        }
    }

    /// The observation of the packed state `packed`.
    fn view(&mut self, packed: &[u64]) -> u32 {
        for (v, &(word, mask)) in self.view.iter_mut().zip(&self.observed) {
            *v = packed[word] & mask;
        }
        let idx = self.views.intern(&self.view);
        self.clean.resize(self.views.len * self.row_words, 0);
        idx as u32
    }

    fn is_clean(&self, view: u32, row: usize) -> bool {
        self.clean[view as usize * self.row_words + row / 64] >> (row % 64) & 1 == 1
    }

    fn mark_clean(&mut self, view: u32, row: usize) {
        self.clean[view as usize * self.row_words + row / 64] |= 1 << (row % 64);
    }
}

/// Breadth-first search of the product of `d` and the free environment.
///
/// `memo` must be [`StepMemo::new`] of `d` (or empty); it carries what one
/// exploration learns to the next. Three things are reused, each exactly:
///
/// * an edge is composed from `memo`'s per-group transitions when every
///   group has one, and only otherwise stepped;
/// * the safety checks' settle is a pure function of the row and the
///   successor's [`observed_registers`], so one verdict set per call, keyed
///   on (row, the successor's packed words masked to those registers),
///   skips the settle of every key already checked clean; a violating key
///   is never entered, so the first violation is the one a settle of every
///   edge finds;
/// * each state's register bits are stored once, packed at fixed (word,
///   shift) slots, and found through an open-addressing table.
///
/// Keying on the known bits alone is exact because only fully known states
/// are stored — a register carrying X is a violation, returned before
/// insertion — and every register keeps its declared width. States are
/// inserted in the order the rows are tried, so the outcome is the one a
/// plain step of every edge gives.
pub fn explore(
    d: &CompiledDesign,
    pins: &EnvPins,
    spec: &ExploreSpec,
    mutex_groups: &[MutexGroup],
    memo: &mut StepMemo,
) -> BfsOutcome {
    let to_words = |row: &[u64]| -> Vec<TWord> {
        d.inputs
            .iter()
            .enumerate()
            .map(|(slot, &id)| TWord::known(row[slot], d.signals[id].width))
            .collect()
    };
    let mut reset_row = vec![0u64; d.inputs.len()];
    reset_row[pins.rst] = 1;
    let idle = vec![0u64; d.inputs.len()];
    // Every row the free environment may drive, in the order the BFS tries
    // them on each state.
    let mut rows: Vec<(Vec<u64>, Vec<TWord>)> = Vec::new();
    for valid in [0u64, 1] {
        for enable in [0u64, 1] {
            for &data in &spec.data_domain {
                for &func in &spec.func_ids {
                    let mut row = vec![0u64; d.inputs.len()];
                    row[pins.data_in] = data;
                    row[pins.valid] = valid;
                    row[pins.enable] = enable;
                    row[pins.func] = func;
                    let words = to_words(&row);
                    rows.push((row, words));
                }
            }
        }
    }
    let row_ids: Vec<u32> = rows.iter().map(|(row, _)| memo.row_id(row)).collect();

    // Two reset steps bring the design to its post-reset state; the reset
    // prefix is replayed verbatim into every counterexample trace.
    let mut interp = Interp::new(d);
    let mut state = d.initial_state();
    let mut next = Vec::with_capacity(state.len());
    let reset_words = to_words(&reset_row);
    for _ in 0..2 {
        interp.step(&state, &reset_words, &mut next);
        std::mem::swap(&mut state, &mut next);
    }

    let trace_to = |stored: &[Stored], mut idx: usize, last: &[u64]| -> Vec<Vec<u64>> {
        let mut trace = vec![last.to_vec()];
        while idx != 0 {
            trace.push(rows[stored[idx].row as usize].0.clone());
            idx = stored[idx].parent as usize;
        }
        trace.push(reset_row.clone());
        trace.push(reset_row.clone());
        trace.reverse();
        trace
    };

    let mut stored = vec![Stored { row: 0, parent: 0, depth: 0 }];
    // Check the post-reset state itself (with an idle observation row).
    if let Some(v) = check_state(d, pins, &state, &to_words(&idle), mutex_groups, &mut interp) {
        let trace = trace_to(&stored, 0, &idle);
        return BfsOutcome {
            reachable: 1,
            complete: false,
            budget_exhausted: false,
            interrupted: false,
            depth_capped: false,
            frontier_peak: 0,
            violation: Some((v, trace)),
        };
    }

    assert!(
        memo.groups.is_empty()
            || memo.groups.iter().map(Vec::len).sum::<usize>() == d.registers.len(),
        "the step memo was built for another design"
    );
    let layout = Layout::new(d, &memo.groups);
    let mut states = WordSet::new(layout.words);
    let mut packed = vec![0u64; layout.words];
    layout.pack(&state, &mut packed);
    states.intern(&packed);
    let observed = layout.mask(&observed_registers(d, pins, mutex_groups));
    let mut verdicts = Verdicts::new(observed, rows.len());
    // Per stored state, its observation in `verdicts`.
    let mut state_views = vec![verdicts.view(&packed)];
    let mut cur: Vec<TWord> = Vec::with_capacity(layout.widths.len());
    let mut locals: Vec<u32> = Vec::with_capacity(memo.groups.len());

    let mut queue = VecDeque::new();
    queue.push_back(0usize);
    let mut budget_exhausted = false;
    let mut depth_capped = false;
    let mut interrupted = false;
    let mut frontier_peak = queue.len();
    let mut since_stop_poll = 0u32;

    while let Some(idx) = queue.pop_front() {
        if let Some(stop) = spec.stop {
            since_stop_poll += 1;
            if since_stop_poll >= STOP_POLL_INTERVAL {
                since_stop_poll = 0;
                if stop() {
                    interrupted = true;
                    break;
                }
            }
        }
        if stored[idx].depth >= spec.max_depth {
            depth_capped = true;
            continue;
        }
        let depth = stored[idx].depth;
        layout.unpack(states.get(idx), &mut cur);
        memo.locals_of(states.get(idx), &layout, &mut locals);
        for (r, (row, inputs)) in rows.iter().enumerate() {
            memo.edges += 1;
            let composed = memo.compose(row_ids[r], &locals, &layout, &mut packed);
            let known = composed || {
                interp.step(&cur, inputs, &mut next);
                memo.stepped += 1;
                layout.pack(&next, &mut packed);
                memo.learn(row_ids[r], &locals, &next, &packed, &layout);
                next.iter().all(TWord::is_known)
            };
            let seen = known.then(|| states.find(&packed));
            let view = match seen {
                Some(Ok(j)) => Some(state_views[j]),
                Some(Err(_)) => Some(verdicts.view(&packed)),
                None => None,
            };
            if !view.is_some_and(|v| verdicts.is_clean(v, r)) {
                if composed {
                    layout.unpack(&packed, &mut next);
                }
                memo.settled += 1;
                if let Some(v) = check_state(d, pins, &next, inputs, mutex_groups, &mut interp) {
                    let trace = trace_to(&stored, idx, row);
                    return BfsOutcome {
                        reachable: stored.len(),
                        complete: false,
                        budget_exhausted: false,
                        interrupted: false,
                        depth_capped,
                        frontier_peak,
                        violation: Some((v, trace)),
                    };
                }
                verdicts.mark_clean(view.expect("check_state rejects a successor carrying X"), r);
            }
            let (Some(Err(slot)), Some(view)) = (seen, view) else {
                continue;
            };
            if stored.len() >= spec.max_states {
                budget_exhausted = true;
                continue;
            }
            let new_idx = states.insert_at(slot, &packed);
            state_views.push(view);
            stored.push(Stored { row: r as u32, parent: idx as u32, depth: depth + 1 });
            queue.push_back(new_idx);
            frontier_peak = frontier_peak.max(queue.len());
        }
    }

    BfsOutcome {
        reachable: stored.len(),
        complete: !budget_exhausted && !depth_capped && !interrupted,
        budget_exhausted,
        interrupted,
        depth_capped,
        frontier_peak,
        violation: None,
    }
}

/// Safety checks on one (state, input) edge.
fn check_state(
    d: &CompiledDesign,
    pins: &EnvPins,
    state: &[TWord],
    inputs: &[TWord],
    mutex_groups: &[MutexGroup],
    interp: &mut Interp<TWord>,
) -> Option<BfsViolation> {
    for (slot, &id) in d.registers.iter().enumerate() {
        if !state[slot].is_known() {
            return Some(BfsViolation::UnknownValue { signal: d.signals[id].name.clone() });
        }
    }
    let obs = interp.settle(state, inputs);
    for &id in &d.outputs {
        if !obs[id].is_known() {
            return Some(BfsViolation::UnknownValue { signal: d.signals[id].name.clone() });
        }
    }
    if obs[pins.dov].is(1) && !obs[pins.data_out].is_known() {
        return Some(BfsViolation::UnknownData);
    }
    for group in mutex_groups {
        let mut first: Option<usize> = None;
        for &m in &group.members {
            if obs[m].is(1) {
                match first {
                    None => first = Some(m),
                    Some(a) => {
                        return Some(BfsViolation::MutexOverlap {
                            line: group.line.clone(),
                            a: d.signals[a].name.clone(),
                            b: d.signals[m].name.clone(),
                        });
                    }
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use splice_hdl::{Decl, Expr, Instance, Item, Module, Port, Process, Stmt};

    fn generated(stem: &str) -> (splice_core::DesignIr, Vec<Module>) {
        let path = format!("{}/../../examples/specs/{stem}.splice", env!("CARGO_MANIFEST_DIR"));
        let text = std::fs::read_to_string(path).expect("example spec exists");
        let v = splice_spec::parse_and_validate(&text).expect("example validates");
        let ir = splice_core::elaborate(&v.module);
        let modules = splice_core::hdlgen::design_modules(&ir, "check").expect("generates");
        (ir, modules)
    }

    fn compiled(stem: &str, top: &str) -> CompiledDesign {
        CompiledDesign::compile(&generated(stem).1, top).expect("compiles")
    }

    fn register_names(d: &CompiledDesign, slots: &[usize]) -> Vec<String> {
        slots.iter().map(|&slot| d.signals[d.registers[slot]].name.clone()).collect()
    }

    /// Every instance of an example arbiter is a step group of its own (the
    /// arbiter's own logic is combinational), and a function module is one
    /// group, so its memo is empty.
    #[test]
    fn example_arbiters_split_into_their_instances() {
        for (stem, top, groups) in [
            ("apb_sensor", "user_apb_sensor", 5),
            ("dma_stream", "user_dma_stream", 2),
            ("fir_filter", "user_fir", 2),
            ("hw_timer", "user_hw_timer", 7),
            ("mac", "user_mac_unit", 3),
        ] {
            let d = compiled(stem, top);
            let memo = StepMemo::new(&d);
            assert_eq!((stem, memo.group_count()), (stem, groups));
            assert_eq!(step_groups(&d).len(), groups);
        }
        let d = compiled("hw_timer", "func_set_threshold");
        assert_eq!(step_groups(&d).len(), 1);
        assert_eq!(StepMemo::new(&d).group_count(), 0, "one group: the memo is empty");
    }

    /// A top module with instances `u_<tag>` of a one-register cell (`r`
    /// latches EN; Q reads `r` through a continuous assign), each Q on net
    /// `q<tag>`, and `both` = qa & qb.
    fn cells(tags: &[&str], out: Port) -> (Module, Module) {
        let mut cell = Module::new("cell");
        cell.ports = vec![Port::input("CLK", 1), Port::input("EN", 1), Port::output("Q", 1)];
        cell.decls = vec![Decl::Signal { name: "r".into(), width: 1, init: Some(0) }];
        cell.items = vec![
            Item::Process(Process {
                label: "hold".into(),
                clocked: true,
                body: vec![Stmt::assign("r", Expr::sig("EN"))],
            }),
            Item::Assign { lhs: "Q".into(), rhs: Expr::sig("r") },
        ];
        let mut top = Module::new("top");
        top.ports = vec![Port::input("CLK", 1), Port::input("EN", 1), out];
        top.decls.push(Decl::Signal { name: "both".into(), width: 1, init: None });
        for tag in tags {
            let q = format!("q{tag}");
            top.decls.push(Decl::Signal { name: q.clone(), width: 1, init: None });
            top.items.push(Item::Instance(Instance {
                label: format!("u_{tag}"),
                module: "cell".into(),
                connections: vec![
                    ("CLK".into(), "CLK".into()),
                    ("EN".into(), "EN".into()),
                    ("Q".into(), q),
                ],
            }));
        }
        top.items
            .push(Item::Assign { lhs: "both".into(), rhs: Expr::sig("qa").and(Expr::sig("qb")) });
        (cell, top)
    }

    /// Two instances of the cell, and a top-level process that latches
    /// `watched`.
    fn watcher(watched: Expr) -> CompiledDesign {
        let (cell, mut top) = cells(&["a", "b"], Port::output("SEEN", 1));
        top.items.push(Item::Process(Process {
            label: "watch".into(),
            clocked: true,
            body: vec![Stmt::assign("SEEN", watched)],
        }));
        CompiledDesign::compile(&[cell, top], "top").expect("compiles")
    }

    /// A clocked process that reads two instances' registers through a
    /// combinational net joins both instances' groups; one that reads only
    /// an input leaves all three processes apart.
    #[test]
    fn a_read_through_combinational_nets_joins_groups() {
        let d = watcher(Expr::sig("both"));
        assert_eq!(d.clocked.len(), 3);
        assert_eq!(step_groups(&d), vec![vec![0, 1, 2]]);
        assert_eq!(StepMemo::new(&d).group_count(), 0);

        let d = watcher(Expr::sig("EN"));
        assert_eq!(step_groups(&d).len(), 3);
        assert_eq!(StepMemo::new(&d).group_count(), 3);
    }

    /// On the `mac` arbiter the safety checks read each instance's four
    /// output registers, 12 of its 20: the instances' FSM registers never
    /// reach an observed net, so they are left out of the verdict key.
    #[test]
    fn the_mac_arbiter_observes_each_instance_s_output_registers() {
        let (ir, modules) = generated("mac");
        let d = CompiledDesign::compile(&modules, "user_mac_unit").expect("compiles");
        let pins = crate::env::resolve_pins(&d).expect("SIS pins");
        let (groups, _) = crate::arbiter_explorations(&ir, &d, &crate::CheckOptions::default());
        assert_eq!(groups.len(), 2, "IO_DONE and DATA_OUT_VALID");
        let want: Vec<String> = ["f1_mac", "f2_mac_clear", "f3_preload"]
            .iter()
            .flat_map(|inst| {
                ["DATA_OUT", "DATA_OUT_VALID", "IO_DONE", "CALC_DONE"]
                    .map(|reg| format!("{inst}_{reg}"))
            })
            .collect();
        assert_eq!(register_names(&d, &observed_registers(&d, &pins, &groups)), want);
        assert_eq!(d.registers.len(), 20);
    }

    /// An output that reads registers only through combinational nets
    /// (each cell's Q assign, then `both`) observes those registers, and a
    /// register whose net reaches no output is left out.
    #[test]
    fn a_read_through_combinational_nets_is_observed() {
        let (cell, mut top) = cells(&["a", "b", "c"], Port::output("OUT", 1));
        top.items.push(Item::Assign { lhs: "OUT".into(), rhs: Expr::sig("both") });
        let d = CompiledDesign::compile(&[cell, top], "top").expect("compiles");
        assert_eq!(d.registers.len(), 3);
        let out = d.signal_id("OUT").expect("OUT");
        let pins = EnvPins {
            rst: 0,
            data_in: 0,
            valid: 0,
            enable: 0,
            func: 0,
            io_done: out,
            dov: out,
            data_out: out,
            calc_done: None,
        };
        assert_eq!(register_names(&d, &observed_registers(&d, &pins, &[])), ["u_a.r", "u_b.r"]);
    }
}
