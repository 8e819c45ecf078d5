//! The analyzer's replay as it stood before the plan interpreter
//! ([`crate::interp`]) replaced it, kept as a differential oracle.
//!
//! Two behaviours differ on purpose.  The replay drove ranks from a LIFO
//! stack of woken ranks, while the interpreter's canonical schedule runs
//! the lowest runnable rank, so wildcard plans can get a different
//! canonical matching.  And the replay counted fences per window, while
//! the interpreter (like the runtime) gives a fence a slot in its
//! communicator's collective sequence.  Everywhere else the two must
//! produce byte-identical reports.

use std::collections::{BTreeMap, HashMap, VecDeque};

use crate::check::{check_well_formed, find_cycle, report, ChanKey};
use crate::diag::{Code, Diag, Loc, Report, Severity, Verdict, WaitEdge};
use crate::plan::{CollKind, CommId, Op, Program, Src, Tag, WinId};
use crate::race::{Determinism, IndependenceMap};

/// Why a rank is parked.
#[derive(Debug, Clone, Copy)]
enum Blocked {
    /// At a `Recv` whose match has not arrived (details re-read from the op).
    Recv,
    /// At occurrence `occ` of a collective on `comm`.
    Coll { comm: CommId, occ: usize },
    /// At occurrence `occ` of a fence on `win`.
    Fence { win: WinId, occ: usize },
}

/// One member's arrival at a collective/fence occurrence.
#[derive(Debug, Clone, Copy)]
struct Arrival {
    rank: usize,
    step: usize,
    kind: CollKind,
    root: Option<usize>,
}

/// One one-sided access inside the current epoch of a window.
#[derive(Debug, Clone, Copy)]
struct Access {
    origin: usize,
    step: usize,
    target: usize,
    offset: u64,
    bytes: u64,
    /// `true` for put (a write); accumulate is tracked separately.
    write: bool,
    accumulate: bool,
}

/// The old `analyze_program`, also returning the replay's match log.
pub(crate) fn old_analyze_program(p: &Program) -> (Report, Vec<(Loc, Loc)>) {
    let mut diags = Vec::new();
    check_well_formed(p, &mut diags);
    if !diags.is_empty() {
        let report = Report {
            plan: p.name().to_string(),
            nranks: p.nranks(),
            total_ops: p.total_ops(),
            verdict: Verdict::Malformed,
            determinism: Determinism::Unknown,
            independence: IndependenceMap::empty(p.nranks()),
            diags,
            channels: Vec::new(),
        };
        return (report, Vec::new());
    }
    Replay::new(p).run()
}

struct Replay<'p> {
    p: &'p Program,
    pc: Vec<usize>,
    blocked: Vec<Option<Blocked>>,
    /// Per-channel FIFO of (arrival seq, bytes).
    channels: HashMap<ChanKey, VecDeque<(u64, u64)>>,
    /// Per-destination pending messages in global arrival order.
    arrivals: Vec<BTreeMap<u64, ChanKey>>,
    next_seq: u64,
    totals: BTreeMap<ChanKey, (u64, u64)>,
    /// Per comm: completed-or-open collective occurrences.
    coll_occ: Vec<Vec<Vec<Arrival>>>,
    /// Per comm, per rank: how many collectives this rank has completed.
    coll_idx: Vec<Vec<usize>>,
    /// Per win: fence occurrences / per-rank completed-fence counters.
    fence_occ: Vec<Vec<Vec<Arrival>>>,
    fence_idx: Vec<Vec<usize>>,
    /// Per win: one-sided accesses of the currently open epoch.
    epoch: Vec<Vec<Access>>,
    wildcard_sites: Vec<Loc>,
    /// Arrival seq → the send op that produced it (for the match log).
    send_locs: HashMap<u64, Loc>,
    /// The canonical matching as `(send, recv)` location pairs.
    matches: Vec<(Loc, Loc)>,
    diags: Vec<Diag>,
}

impl<'p> Replay<'p> {
    fn new(p: &'p Program) -> Self {
        let n = p.nranks();
        Self {
            p,
            pc: vec![0; n],
            blocked: vec![None; n],
            channels: HashMap::new(),
            arrivals: vec![BTreeMap::new(); n],
            next_seq: 0,
            totals: BTreeMap::new(),
            coll_occ: vec![Vec::new(); p.ncomms()],
            coll_idx: vec![vec![0; n]; p.ncomms()],
            fence_occ: vec![Vec::new(); p.nwins()],
            fence_idx: vec![vec![0; n]; p.nwins()],
            epoch: vec![Vec::new(); p.nwins()],
            wildcard_sites: Vec::new(),
            send_locs: HashMap::new(),
            matches: Vec::new(),
            diags: Vec::new(),
        }
    }

    fn done(&self, r: usize) -> bool {
        self.pc[r] == self.p.rank_ops(r).len()
    }

    /// Find the earliest-arrived pending message for a receive, returning
    /// its `(seq, channel)` without consuming it.
    fn find_match(&self, r: usize, comm: CommId, src: Src, tag: Tag) -> Option<(u64, ChanKey)> {
        match (src, tag) {
            (Src::Rank(s), Tag::Is(t)) => {
                let key = (comm, s, r, t);
                let head = self.channels.get(&key)?.front()?;
                Some((head.0, key))
            }
            _ => self.arrivals[r]
                .iter()
                .find(|(_, &(c, s, _, t))| {
                    c == comm
                        && tag.admits(t)
                        && match src {
                            Src::Rank(want) => s == want,
                            Src::Any => true,
                        }
                })
                .map(|(&seq, &key)| (seq, key)),
        }
    }

    fn consume(&mut self, r: usize, seq: u64, key: ChanKey) {
        if let Some(q) = self.channels.get_mut(&key) {
            let head = q.pop_front();
            debug_assert_eq!(
                head.map(|(s, _)| s),
                Some(seq),
                "wildcard match must take its channel's head"
            );
            if q.is_empty() {
                self.channels.remove(&key);
            }
        }
        self.arrivals[r].remove(&seq);
    }

    /// Close the epoch of `win` at a completed fence: report conflicting
    /// accesses, then clear the log.
    fn close_epoch(&mut self, win: WinId) {
        let log = std::mem::take(&mut self.epoch[win.0 as usize]);
        for (i, a) in log.iter().enumerate() {
            for b in &log[i + 1..] {
                if a.origin == b.origin || a.target != b.target {
                    continue;
                }
                let overlap = a.offset < b.offset + b.bytes && b.offset < a.offset + a.bytes;
                if !overlap {
                    continue;
                }
                // Accumulates commute with each other; everything else
                // racing on the same bytes is a conflict when at least one
                // side writes.
                if (a.accumulate && b.accumulate) || (!a.write && !b.write) {
                    continue;
                }
                self.diags.push(Diag {
                    code: Code::A008,
                    severity: Severity::Warning,
                    loc: Some(Loc { rank: a.origin, step: a.step }),
                    message: format!(
                        "conflicting one-sided accesses in one epoch of window {}: rank {} \
                         (step {}) and rank {} (step {}) touch bytes [{}, {}) ∩ [{}, {}) of \
                         rank {}'s window",
                        win.0,
                        a.origin,
                        a.step,
                        b.origin,
                        b.step,
                        a.offset,
                        a.offset + a.bytes,
                        b.offset,
                        b.offset + b.bytes,
                        a.target
                    ),
                });
            }
        }
    }

    /// Check kind/root agreement of a completed collective occurrence.
    fn check_coll_agreement(&mut self, comm: CommId, occ: usize, arrivals: &[Arrival]) {
        let first = arrivals[0];
        for a in &arrivals[1..] {
            if a.kind != first.kind {
                self.diags.push(Diag {
                    code: Code::A006,
                    severity: Severity::Error,
                    loc: Some(Loc { rank: a.rank, step: a.step }),
                    message: format!(
                        "collective #{occ} on comm {}: rank {} calls {} but rank {} calls {}",
                        comm.0, a.rank, a.kind, first.rank, first.kind
                    ),
                });
            } else if a.root != first.root {
                let fmt_root = |r: Option<usize>| {
                    r.map_or_else(|| "no root".to_string(), |r| format!("root {r}"))
                };
                self.diags.push(Diag {
                    code: Code::A007,
                    severity: Severity::Error,
                    loc: Some(Loc { rank: a.rank, step: a.step }),
                    message: format!(
                        "collective {} #{occ} on comm {}: rank {} uses {} but rank {} uses {}",
                        first.kind,
                        comm.0,
                        a.rank,
                        fmt_root(a.root),
                        first.rank,
                        fmt_root(first.root)
                    ),
                });
            }
        }
    }

    /// Run rank `r` until it blocks or finishes; returns ranks to wake.
    fn step_rank(&mut self, r: usize) -> Vec<usize> {
        let mut wake = Vec::new();
        while self.pc[r] < self.p.rank_ops(r).len() {
            let step = self.pc[r];
            match self.p.rank_ops(r)[step] {
                Op::Send { comm, dst, tag, bytes } => {
                    let key = (comm, r, dst, tag);
                    let seq = self.next_seq;
                    self.next_seq += 1;
                    self.send_locs.insert(seq, Loc { rank: r, step });
                    self.channels.entry(key).or_default().push_back((seq, bytes));
                    self.arrivals[dst].insert(seq, key);
                    let t = self.totals.entry(key).or_default();
                    t.0 += 1;
                    t.1 += bytes;
                    if matches!(self.blocked[dst], Some(Blocked::Recv)) {
                        self.blocked[dst] = None;
                        wake.push(dst);
                    }
                }
                Op::Recv { comm, src, tag } => {
                    if matches!(src, Src::Any) || matches!(tag, Tag::Any) {
                        let loc = Loc { rank: r, step };
                        if self.wildcard_sites.last() != Some(&loc) {
                            self.wildcard_sites.push(loc);
                        }
                    }
                    match self.find_match(r, comm, src, tag) {
                        Some((seq, key)) => {
                            if let Some(&s) = self.send_locs.get(&seq) {
                                self.matches.push((s, Loc { rank: r, step }));
                            }
                            self.consume(r, seq, key);
                        }
                        None => {
                            self.blocked[r] = Some(Blocked::Recv);
                            return wake;
                        }
                    }
                }
                Op::Coll { comm, kind, root } => {
                    let c = comm.0 as usize;
                    let occ = self.coll_idx[c][r];
                    if self.coll_occ[c].len() <= occ {
                        self.coll_occ[c].resize(occ + 1, Vec::new());
                    }
                    self.coll_occ[c][occ].push(Arrival { rank: r, step, kind, root });
                    // Well-formedness guarantees the comm exists; 0 never
                    // equals a non-empty arrival count, so a (impossible)
                    // miss simply parks the rank.
                    let members = self.p.comm_members(comm).map_or(0, <[usize]>::len);
                    if self.coll_occ[c][occ].len() == members {
                        let arrivals = std::mem::take(&mut self.coll_occ[c][occ]);
                        self.check_coll_agreement(comm, occ, &arrivals);
                        for a in &arrivals {
                            self.coll_idx[c][a.rank] = occ + 1;
                            if a.rank != r {
                                self.blocked[a.rank] = None;
                                self.pc[a.rank] += 1;
                                wake.push(a.rank);
                            }
                        }
                    } else {
                        self.blocked[r] = Some(Blocked::Coll { comm, occ });
                        return wake;
                    }
                }
                Op::Put { win, target, offset, bytes } => {
                    self.epoch[win.0 as usize].push(Access {
                        origin: r,
                        step,
                        target,
                        offset,
                        bytes,
                        write: true,
                        accumulate: false,
                    });
                }
                Op::Get { win, target, offset, bytes } => {
                    self.epoch[win.0 as usize].push(Access {
                        origin: r,
                        step,
                        target,
                        offset,
                        bytes,
                        write: false,
                        accumulate: false,
                    });
                }
                Op::Accumulate { win, target, offset, bytes } => {
                    self.epoch[win.0 as usize].push(Access {
                        origin: r,
                        step,
                        target,
                        offset,
                        bytes,
                        write: true,
                        accumulate: true,
                    });
                }
                Op::Fence { win } => {
                    let w = win.0 as usize;
                    let occ = self.fence_idx[w][r];
                    if self.fence_occ[w].len() <= occ {
                        self.fence_occ[w].resize(occ + 1, Vec::new());
                    }
                    self.fence_occ[w][occ].push(Arrival {
                        rank: r,
                        step,
                        kind: CollKind::Barrier,
                        root: None,
                    });
                    let members = self
                        .p
                        .win_comm(win)
                        .and_then(|c| self.p.comm_members(c))
                        .map_or(0, <[usize]>::len);
                    if self.fence_occ[w][occ].len() == members {
                        let arrivals = std::mem::take(&mut self.fence_occ[w][occ]);
                        self.close_epoch(win);
                        for a in &arrivals {
                            self.fence_idx[w][a.rank] = occ + 1;
                            if a.rank != r {
                                self.blocked[a.rank] = None;
                                self.pc[a.rank] += 1;
                                wake.push(a.rank);
                            }
                        }
                    } else {
                        self.blocked[r] = Some(Blocked::Fence { win, occ });
                        return wake;
                    }
                }
            }
            self.pc[r] += 1;
        }
        wake
    }

    fn run(mut self) -> (Report, Vec<(Loc, Loc)>) {
        let n = self.p.nranks();
        let mut runnable: Vec<usize> = (0..n).rev().collect();
        while let Some(r) = runnable.pop() {
            if self.blocked[r].is_some() || self.done(r) {
                continue;
            }
            let woken = self.step_rank(r);
            runnable.extend(woken);
        }
        let stalled: Vec<usize> = (0..n).filter(|&r| !self.done(r)).collect();
        let verdict =
            if stalled.is_empty() { self.finish_clean() } else { self.post_mortem(&stalled) };
        let matches = std::mem::take(&mut self.matches);
        (report(self.p, self.diags, verdict, &self.totals, &matches), matches)
    }

    /// All ranks completed: flag leftover traffic and unclosed epochs, then
    /// classify by wildcard presence.
    fn finish_clean(&mut self) -> Verdict {
        let mut leftover: Vec<(ChanKey, usize)> =
            self.channels.iter().map(|(&k, q)| (k, q.len())).filter(|&(_, len)| len > 0).collect();
        leftover.sort_unstable();
        for ((comm, src, dst, tag), count) in leftover {
            self.diags.push(Diag {
                code: Code::A003,
                severity: Severity::Error,
                loc: None,
                message: format!(
                    "channel {src}→{dst} (comm {}, tag {tag}) has {count} send{} that \
                     are never received",
                    comm.0,
                    if count == 1 { "" } else { "s" }
                ),
            });
        }
        for (w, log) in self.epoch.iter().enumerate() {
            if !log.is_empty() {
                self.diags.push(Diag {
                    code: Code::A009,
                    severity: Severity::Error,
                    loc: Some(Loc { rank: log[0].origin, step: log[0].step }),
                    message: format!(
                        "window {w}: {} one-sided access{} never closed by a fence",
                        log.len(),
                        if log.len() == 1 { "" } else { "es" }
                    ),
                });
            }
        }
        if self.wildcard_sites.is_empty() {
            Verdict::DeadlockFree
        } else {
            let sites = self.wildcard_sites.clone();
            let shown: Vec<String> = sites.iter().take(8).map(|l| format!("{l}")).collect();
            self.diags.push(Diag {
                code: Code::A005,
                severity: Severity::Warning,
                loc: Some(sites[0]),
                message: format!(
                    "{} wildcard receive{} make matching nondeterministic ({}{}); the \
                     deadlock-free verdict holds for the canonical matching only",
                    sites.len(),
                    if sites.len() == 1 { "" } else { "s" },
                    shown.join("; "),
                    if sites.len() > 8 { "; …" } else { "" }
                ),
            });
            Verdict::PotentialDeadlock { wildcard_sites: sites }
        }
    }

    /// Does rank `s` still have a send matching `(comm, → dst, tag)` at or
    /// after its current pc?
    fn has_future_send(&self, s: usize, comm: CommId, dst: usize, tag: Tag) -> bool {
        self.p.rank_ops(s)[self.pc[s]..].iter().any(|op| {
            matches!(*op, Op::Send { comm: c, dst: d, tag: t, .. }
                if c == comm && d == dst && tag.admits(t))
        })
    }

    /// The replay stalled: build the wait-for graph over the blocked ranks,
    /// report orphans / missing participants, find a cycle, classify.
    fn post_mortem(&mut self, stalled: &[usize]) -> Verdict {
        // Adjacency: r → (waits_for, description).  All stalled ranks are
        // blocked (a runnable rank would have been stepped).
        let mut edges: HashMap<usize, Vec<(usize, String)>> = HashMap::new();
        for &r in stalled {
            let step = self.pc[r];
            let mut out: Vec<(usize, String)> = Vec::new();
            // A stalled rank is always blocked (a runnable one would have
            // been stepped); a miss just contributes no wait edges.
            let Some(blocked) = self.blocked[r] else { continue };
            match blocked {
                Blocked::Recv => {
                    let Op::Recv { comm, src, tag } = self.p.rank_ops(r)[step] else {
                        unreachable!("Blocked::Recv parks at a Recv op");
                    };
                    let tag_str = match tag {
                        Tag::Is(t) => format!("tag {t}"),
                        Tag::Any => "any tag".to_string(),
                    };
                    let candidates: Vec<usize> = match src {
                        Src::Rank(s) => vec![s],
                        Src::Any => (0..self.p.nranks()).filter(|&s| s != r).collect(),
                    };
                    let mut live = Vec::new();
                    for s in candidates {
                        if !self.done(s) && self.has_future_send(s, comm, r, tag) {
                            live.push(s);
                        }
                    }
                    if live.is_empty() {
                        let from = match src {
                            Src::Rank(s) => format!(
                                "rank {s}{}",
                                if self.done(s) { " (terminated)" } else { "" }
                            ),
                            Src::Any => "any source".to_string(),
                        };
                        self.diags.push(Diag {
                            code: Code::A004,
                            severity: Severity::Error,
                            loc: Some(Loc { rank: r, step }),
                            message: format!(
                                "orphan receive: rank {r} waits for a message from {from} \
                                 (comm {}, {tag_str}) that no remaining send can satisfy",
                                comm.0
                            ),
                        });
                    }
                    for s in live {
                        out.push((
                            s,
                            format!("a message from rank {s} (comm {}, {tag_str})", comm.0),
                        ));
                    }
                }
                Blocked::Coll { comm, occ } => {
                    let Op::Coll { kind, .. } = self.p.rank_ops(r)[step] else {
                        unreachable!("Blocked::Coll parks at a Coll op");
                    };
                    let arrived = move |b: Option<Blocked>| matches!(b, Some(Blocked::Coll { comm: c, occ: o }) if c == comm && o == occ);
                    self.missing_members(comm, &arrived, &mut out, &mut |missing, done| {
                        if done {
                            Some(Diag {
                                code: Code::A006,
                                severity: Severity::Error,
                                loc: Some(Loc { rank: r, step }),
                                message: format!(
                                    "collective {kind} #{occ} on comm {}: rank {missing} \
                                     terminated without participating",
                                    comm.0
                                ),
                            })
                        } else {
                            None
                        }
                    });
                    for (_, what) in &mut out {
                        *what = format!("collective {kind} #{occ} on comm {}: {what}", comm.0);
                    }
                }
                Blocked::Fence { win, occ } => {
                    let Some(comm) = self.p.win_comm(win) else { continue };
                    let arrived = move |b: Option<Blocked>| matches!(b, Some(Blocked::Fence { win: w, occ: o }) if w == win && o == occ);
                    self.missing_members(comm, &arrived, &mut out, &mut |missing, done| {
                        if done {
                            Some(Diag {
                                code: Code::A009,
                                severity: Severity::Error,
                                loc: Some(Loc { rank: r, step }),
                                message: format!(
                                    "fence #{occ} on window {}: rank {missing} terminated \
                                     without fencing",
                                    win.0
                                ),
                            })
                        } else {
                            None
                        }
                    });
                    for (_, what) in &mut out {
                        *what = format!("fence #{occ} on window {}: {what}", win.0);
                    }
                }
            }
            edges.insert(r, out);
        }
        let chain = find_cycle(stalled, &edges, &|r| self.pc[r]);
        let closed = chain
            .last()
            .zip(chain.first())
            .is_some_and(|(last, first)| last.waits_for == first.rank);
        let describe = |chain: &[WaitEdge]| {
            chain
                .iter()
                .map(|e| format!("rank {} (step {}) → rank {}", e.rank, e.step, e.waits_for))
                .collect::<Vec<_>>()
                .join(", ")
        };
        if self.wildcard_sites.is_empty()
            && !stalled.iter().any(|&r| {
                matches!(self.blocked[r], Some(Blocked::Recv))
                    && matches!(
                        self.p.rank_ops(r)[self.pc[r]],
                        Op::Recv { src: Src::Any, .. } | Op::Recv { tag: Tag::Any, .. }
                    )
            })
        {
            if !chain.is_empty() {
                self.diags.push(Diag {
                    code: Code::A002,
                    severity: Severity::Error,
                    loc: chain.first().map(|e| Loc { rank: e.rank, step: e.step }),
                    message: format!(
                        "definite deadlock: {} among {} rank{}: {}",
                        if closed { "circular wait" } else { "blocked chain" },
                        chain.len(),
                        if chain.len() == 1 { "" } else { "s" },
                        describe(&chain)
                    ),
                });
            }
            Verdict::DefiniteDeadlock { cycle: chain }
        } else {
            let mut sites = self.wildcard_sites.clone();
            for &r in stalled {
                if matches!(self.blocked[r], Some(Blocked::Recv))
                    && matches!(
                        self.p.rank_ops(r)[self.pc[r]],
                        Op::Recv { src: Src::Any, .. } | Op::Recv { tag: Tag::Any, .. }
                    )
                {
                    let loc = Loc { rank: r, step: self.pc[r] };
                    if !sites.contains(&loc) {
                        sites.push(loc);
                    }
                }
            }
            self.diags.push(Diag {
                code: Code::A010,
                severity: Severity::Error,
                loc: chain.first().map(|e| Loc { rank: e.rank, step: e.step }),
                message: format!(
                    "potential deadlock: the canonical matching stalls ({}), but wildcard \
                     receives make matching nondeterministic — another matching might progress",
                    if chain.is_empty() { "no progress".to_string() } else { describe(&chain) }
                ),
            });
            Verdict::PotentialDeadlock { wildcard_sites: sites }
        }
    }

    /// Append an edge per not-yet-arrived member of `comm`; `arrived` tests
    /// whether a member's park state is *this* barrier occurrence, and
    /// `on_missing` turns a terminated member into a diagnostic instead.
    fn missing_members(
        &mut self,
        comm: CommId,
        arrived: &dyn Fn(Option<Blocked>) -> bool,
        out: &mut Vec<(usize, String)>,
        on_missing: &mut dyn FnMut(usize, bool) -> Option<Diag>,
    ) {
        let Some(members) = self.p.comm_members(comm).map(<[usize]>::to_vec) else { return };
        for m in members {
            if arrived(self.blocked[m]) {
                continue;
            }
            let done = self.done(m);
            if let Some(d) = on_missing(m, done) {
                self.diags.push(d);
            }
            if !done {
                out.push((m, format!("rank {m} has not arrived")));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use mim_apps::builtin::{built_in, Shape, PLANS};
    use mim_explore::plans::{wildcard_clean, wildcard_race};
    use mim_util::prop::{check, Gen};
    use mim_util::props;

    use super::old_analyze_program;
    use crate::check::analyze_program;
    use crate::diag::{Code, Loc, Report, Verdict};
    use crate::interp::{Canonical, Interp, Msg, Observer};
    use crate::plan::{CollKind, CommId, Op, Program, Src, Tag, WinId, WORLD};

    /// `mim-apps` and `mim-explore` build plans against the library build
    /// of this crate; rebuild one as this (test) build's [`Program`].
    fn local(p: &mim_analyze::Program) -> Program {
        let mut q = Program::new(p.name(), p.nranks());
        for c in 1..p.ncomms() {
            let members = p.comm_members(mim_analyze::CommId(c as u32)).unwrap_or(&[]);
            q.add_comm(members.to_vec());
        }
        for w in 0..p.nwins() {
            let comm = p.win_comm(mim_analyze::WinId(w as u32)).map_or(0, |c| c.0);
            q.add_window(CommId(comm));
        }
        let kind = |k: mim_analyze::CollKind| match k {
            mim_analyze::CollKind::Barrier => CollKind::Barrier,
            mim_analyze::CollKind::Bcast => CollKind::Bcast,
            mim_analyze::CollKind::Reduce => CollKind::Reduce,
            mim_analyze::CollKind::Allreduce => CollKind::Allreduce,
            mim_analyze::CollKind::Allgather => CollKind::Allgather,
            mim_analyze::CollKind::Alltoall => CollKind::Alltoall,
            mim_analyze::CollKind::Gather => CollKind::Gather,
            mim_analyze::CollKind::Scatter => CollKind::Scatter,
            mim_analyze::CollKind::ReduceScatter => CollKind::ReduceScatter,
            mim_analyze::CollKind::Scan => CollKind::Scan,
        };
        use mim_analyze::Op as X;
        for r in 0..p.nranks() {
            for op in p.rank_ops(r) {
                q.push(
                    r,
                    match *op {
                        X::Send { comm, dst, tag, bytes } => {
                            Op::Send { comm: CommId(comm.0), dst, tag, bytes }
                        }
                        X::Recv { comm, src, tag } => Op::Recv {
                            comm: CommId(comm.0),
                            src: match src {
                                mim_analyze::Src::Rank(s) => Src::Rank(s),
                                mim_analyze::Src::Any => Src::Any,
                            },
                            tag: match tag {
                                mim_analyze::Tag::Is(t) => Tag::Is(t),
                                mim_analyze::Tag::Any => Tag::Any,
                            },
                        },
                        X::Coll { comm, kind: k, root } => {
                            Op::Coll { comm: CommId(comm.0), kind: kind(k), root }
                        }
                        X::Put { win, target, offset, bytes } => {
                            Op::Put { win: WinId(win.0), target, offset, bytes }
                        }
                        X::Get { win, target, offset, bytes } => {
                            Op::Get { win: WinId(win.0), target, offset, bytes }
                        }
                        X::Accumulate { win, target, offset, bytes } => {
                            Op::Accumulate { win: WinId(win.0), target, offset, bytes }
                        }
                        X::Fence { win } => Op::Fence { win: WinId(win.0) },
                    },
                );
            }
        }
        q
    }

    props! {
        /// The 16 built-in plans get byte-identical reports from the old
        /// replay and the interpreter.
        fn builtins_match_the_old_replay(g, cases = 16) {
            let n = g.gen_range(2usize..50);
            let shape = Shape {
                n,
                root: g.gen_range(0usize..n),
                bytes: g.gen_range(64u64..1 << 20),
                seg: g.gen_range(16u64..4096),
            };
            let mut plans: Vec<Program> =
                PLANS.iter().map(|name| local(&built_in(name, &shape).unwrap())).collect();
            if n >= 3 {
                plans.push(local(&wildcard_race(n)));
            }
            plans.push(local(&wildcard_clean(n)));
            for p in &plans {
                let (old, _) = old_analyze_program(p);
                let new = analyze_program(p);
                assert_eq!(old.to_string(), new.to_string(), "{} n={n}", p.name());
                assert_eq!(old.to_json(), new.to_json(), "{} n={n}", p.name());
            }
        }
    }

    /// A random plan over a world and a sub-communicator.  Each
    /// communicator carries one kind of barrier only — the world
    /// collectives, the sub-communicator the fences of its one window —
    /// so per-window fence counting (the old replay) and per-communicator
    /// sequences (the interpreter) pair the same operations.  Messages
    /// follow one global order, some received by wildcards; a few
    /// adjacent swaps then cross orders, so some plans wedge.
    fn random_program(g: &mut Gen) -> Program {
        let n = g.gen_range(2usize..6);
        let mut p = Program::new("random", n);
        let mut members: Vec<usize> = (0..n).filter(|_| g.gen_bool(0.7)).collect();
        if members.len() < 2 {
            members = vec![0, 1];
        }
        let sub = p.add_comm(members.clone());
        let comms: [(CommId, Vec<usize>); 2] = [(WORLD, (0..n).collect()), (sub, members)];
        let win = p.add_window(sub);
        let mut ops: Vec<Vec<Op>> = vec![Vec::new(); n];
        for _ in 0..g.gen_range(1usize..4) {
            for _ in 0..g.gen_range(0usize..7) {
                let (comm, m) = &comms[g.index(2)];
                let src = *g.choose(m);
                let dst = *g.choose(m);
                if src == dst {
                    continue;
                }
                let tag = g.gen_range(0u32..3);
                ops[src].push(Op::Send { comm: *comm, dst, tag, bytes: g.gen_range(1u64..64) });
                let rsrc = if g.gen_bool(0.3) { Src::Any } else { Src::Rank(src) };
                let rtag = if g.gen_bool(0.2) { Tag::Any } else { Tag::Is(tag) };
                ops[dst].push(Op::Recv { comm: *comm, src: rsrc, tag: rtag });
            }
            for _ in 0..g.gen_range(0usize..3) {
                let m = &comms[1].1;
                let (origin, target) = (*g.choose(m), *g.choose(m));
                let (offset, bytes) = (g.gen_range(0u64..16), g.gen_range(1u64..9));
                ops[origin].push(match g.index(3) {
                    0 => Op::Put { win, target, offset, bytes },
                    1 => Op::Get { win, target, offset, bytes },
                    _ => Op::Accumulate { win, target, offset, bytes },
                });
            }
            let ci = g.index(2);
            let op = match (ci, g.index(3)) {
                (1, _) => Op::Fence { win },
                (_, 0) => Op::Coll { comm: WORLD, kind: CollKind::Barrier, root: None },
                (_, 1) => Op::Coll { comm: WORLD, kind: CollKind::Allreduce, root: None },
                _ => Op::Coll { comm: WORLD, kind: CollKind::Bcast, root: Some(0) },
            };
            for &r in &comms[ci].1 {
                ops[r].push(op);
            }
        }
        for _ in 0..g.gen_range(0usize..3) {
            let r = g.index(n);
            if ops[r].len() >= 2 {
                let i = g.index(ops[r].len() - 1);
                ops[r].swap(i, i + 1);
            }
        }
        for (r, list) in ops.into_iter().enumerate() {
            for op in list {
                p.push(r, op);
            }
        }
        p
    }

    /// Collects the interpreter's canonical match log.
    struct MatchLog<'a>(&'a mut Vec<(Loc, Loc)>);

    impl Observer for MatchLog<'_> {
        fn send(&mut self, _: usize, _: usize, _: usize, _: u64, _: &Msg) {}
        fn recv(&mut self, rank: usize, step: usize, _: u64, msg: &Msg) {
            self.0.push((Loc { rank: msg.src, step: msg.step }, Loc { rank, step }));
        }
        fn rma(&mut self, _: usize, _: usize, _: &Op) {}
        fn barrier(&mut self, _: CommId, _: usize, _: &[(usize, usize)]) {}
    }

    /// Where the old replay's LIFO order found the same canonical matching
    /// and listed the same wildcard sites as the interpreter's
    /// lowest-rank-first order, both reports must be byte-identical —
    /// unless they carry a finding whose text names the order in which
    /// ranks reached a barrier or an epoch (A006–A009).  Elsewhere only the
    /// verdict kind must agree.  (The old replay listed a site again each
    /// time a wake re-ran its blocked receive; the interpreter lists each
    /// site once, in match order.)
    #[test]
    fn random_plans_match_the_old_replay() {
        let (mut same, mut differ) = (0, 0);
        check(512, |g| {
            let p = random_program(g);
            let (old, old_matches) = old_analyze_program(&p);
            let new = analyze_program(&p);
            let mut new_matches = Vec::new();
            Interp::new(&p).run(&mut Canonical, &mut MatchLog(&mut new_matches)).unwrap();
            let sites = |r: &Report| match &r.verdict {
                Verdict::PotentialDeadlock { wildcard_sites } => wildcard_sites.clone(),
                _ => Vec::new(),
            };
            let order_named = new
                .diags
                .iter()
                .any(|d| matches!(d.code, Code::A006 | Code::A007 | Code::A008 | Code::A009));
            if old_matches == new_matches && sites(&old) == sites(&new) && !order_named {
                same += 1;
                assert_eq!(old.to_string(), new.to_string(), "{p:?}");
                assert_eq!(old.to_json(), new.to_json(), "{p:?}");
            } else {
                assert_eq!(old.verdict.kind(), new.verdict.kind(), "{p:?}");
                differ += usize::from(old.to_json() != new.to_json());
            }
        });
        eprintln!("{same} plans with the same matching and sites; {differ} other reports differ");
    }
}
