//! The analyzer: the plan interpreter ([`crate::interp`]) run on the
//! canonical schedule with an observer that collects the checks, plus a
//! wait-for-graph post-mortem when the run stalls.
//!
//! The canonical schedule answers index 0 to every question: the lowest
//! runnable rank runs next, and a wildcard receive takes the eligible
//! message with the smallest arrival sequence — the *canonical matching*.
//! When every rank runs to completion the plan is deadlock-free under the
//! canonical matching; when the run stalls, the blocked ranks form a
//! wait-for graph whose cycle (found by DFS) *is* the deadlock, reported
//! rank by rank.
//!
//! Wildcard receives make matching nondeterministic, so any verdict in
//! their presence is only canonical-matching-sound: completion becomes
//! [`Verdict::PotentialDeadlock`], and a stall is reported as potential
//! rather than definite (another matching might progress).

use std::collections::{BTreeMap, HashMap};

use crate::diag::{ChannelUse, Code, Diag, Loc, Report, Severity, Verdict, WaitEdge};
use crate::interp::{Canonical, Interp, Msg, Observer};
use crate::plan::{CollKind, CommId, CommPlan, Op, Program, Src, Tag, WinId};
use crate::race::{self, Determinism, IndependenceMap};

/// Matching-scope channel key: `(comm, src, dst, tag)`.
pub(crate) type ChanKey = (CommId, usize, usize, u32);

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

/// Statically verify a communication plan.
///
/// Lowers `plan` via [`CommPlan::lower`] and analyzes the resulting
/// [`Program`]; see [`analyze_program`].
pub fn analyze(plan: &impl CommPlan) -> Report {
    analyze_program(&plan.lower())
}

/// Statically verify an already-lowered [`Program`].
pub fn analyze_program(p: &Program) -> Report {
    let mut diags = Vec::new();
    check_well_formed(p, &mut diags);
    if !diags.is_empty() {
        return Report {
            plan: p.name().to_string(),
            nranks: p.nranks(),
            total_ops: p.total_ops(),
            verdict: Verdict::Malformed,
            determinism: Determinism::Unknown,
            independence: IndependenceMap::empty(p.nranks()),
            diags,
            channels: Vec::new(),
        };
    }
    let mut it = Interp::new(p);
    let mut f = Findings::new(p);
    // The canonical scheduler never aborts.
    let _ = it.run(&mut Canonical, &mut f);
    let stalled: Vec<usize> = (0..p.nranks()).filter(|&r| !it.done(r)).collect();
    let verdict = if stalled.is_empty() {
        f.finish_clean(&it)
    } else {
        post_mortem(&it, &stalled, &f.wildcard_sites, &mut f.diags)
    };
    diags.append(&mut f.diags);
    report(p, diags, verdict, &f.totals, &f.matches)
}

/// Assemble the [`Report`]: per-channel totals plus the race pass over the
/// canonical match log.
pub(crate) fn report(
    p: &Program,
    mut diags: Vec<Diag>,
    verdict: Verdict,
    totals: &BTreeMap<ChanKey, (u64, u64)>,
    matches: &[(Loc, Loc)],
) -> Report {
    let channels = totals
        .iter()
        .map(|(&(comm, src, dst, tag), &(messages, bytes))| ChannelUse {
            comm,
            src,
            dst,
            tag,
            messages,
            bytes,
        })
        .collect();
    let (determinism, independence) = race::race_pass(p, matches, &mut diags);
    Report {
        plan: p.name().to_string(),
        nranks: p.nranks(),
        total_ops: p.total_ops(),
        verdict,
        determinism,
        independence,
        diags,
        channels,
    }
}

/// A001 pass: every rank/handle an op references must exist and be in
/// scope.  The interpreter assumes this (it indexes unchecked), so
/// analysis stops here when anything fails.
pub(crate) fn check_well_formed(p: &Program, diags: &mut Vec<Diag>) {
    let n = p.nranks();
    let mut push = |rank: usize, step: usize, msg: String| {
        diags.push(Diag {
            code: Code::A001,
            severity: Severity::Error,
            loc: Some(Loc { rank, step }),
            message: msg,
        });
    };
    for r in 0..n {
        for (i, op) in p.rank_ops(r).iter().enumerate() {
            let comm_of = |win: WinId| p.win_comm(win);
            let (comm, peer) = match *op {
                Op::Send { comm, dst, .. } => (Some(comm), Some(dst)),
                Op::Recv { comm, src: Src::Rank(s), .. } => (Some(comm), Some(s)),
                Op::Recv { comm, src: Src::Any, .. } => (Some(comm), None),
                Op::Coll { comm, root, .. } => (Some(comm), root),
                Op::Put { win, target, .. }
                | Op::Get { win, target, .. }
                | Op::Accumulate { win, target, .. } => match comm_of(win) {
                    Some(c) => (Some(c), Some(target)),
                    None => {
                        push(r, i, format!("unknown window id {}", win.0));
                        continue;
                    }
                },
                Op::Fence { win } => match comm_of(win) {
                    Some(c) => (Some(c), None),
                    None => {
                        push(r, i, format!("unknown window id {}", win.0));
                        continue;
                    }
                },
            };
            let Some(comm) = comm else { continue };
            let Some(members) = p.comm_members(comm) else {
                push(r, i, format!("unknown communicator id {}", comm.0));
                continue;
            };
            if !members.contains(&r) {
                push(r, i, format!("rank {r} is not a member of comm {}", comm.0));
            }
            if let Some(peer) = peer {
                if peer >= n {
                    push(r, i, format!("peer rank {peer} is out of range (nranks = {n})"));
                } else if !members.contains(&peer) {
                    push(r, i, format!("peer rank {peer} is not a member of comm {}", comm.0));
                }
            }
        }
    }
}

/// The analyzer's observer: channel totals, the canonical match log, the
/// wildcard sites reached, and the checks that fire while the plan runs
/// (collective agreement, one-sided epoch conflicts).
struct Findings<'p> {
    p: &'p Program,
    totals: BTreeMap<ChanKey, (u64, u64)>,
    /// The canonical matching as `(send, recv)` location pairs.
    matches: Vec<(Loc, Loc)>,
    /// Wildcard receives in the order they matched.
    wildcard_sites: Vec<Loc>,
    /// Per win: one-sided accesses of the currently open epoch.
    epoch: Vec<Vec<Access>>,
    diags: Vec<Diag>,
}

impl Observer for Findings<'_> {
    fn send(&mut self, rank: usize, _step: usize, dst: usize, _seq: u64, msg: &Msg) {
        let t = self.totals.entry((msg.comm, rank, dst, msg.tag)).or_default();
        t.0 += 1;
        t.1 += msg.bytes;
    }

    fn recv(&mut self, rank: usize, step: usize, _seq: u64, msg: &Msg) {
        let loc = Loc { rank, step };
        if self.p.rank_ops(rank)[step].is_wildcard() {
            self.wildcard_sites.push(loc);
        }
        self.matches.push((Loc { rank: msg.src, step: msg.step }, loc));
    }

    fn rma(&mut self, rank: usize, step: usize, op: &Op) {
        let (Op::Put { win, target, offset, bytes }
        | Op::Get { win, target, offset, bytes }
        | Op::Accumulate { win, target, offset, bytes }) = *op
        else {
            return;
        };
        let write = !matches!(op, Op::Get { .. });
        let accumulate = matches!(op, Op::Accumulate { .. });
        let access = Access { origin: rank, step, target, offset, bytes, write, accumulate };
        self.epoch[win.0 as usize].push(access);
    }

    fn barrier(&mut self, comm: CommId, occ: usize, arrived: &[(usize, usize)]) {
        self.check_agreement(comm, occ, arrived);
        // An occurrence closes the epoch of every window fenced in it.
        let mut wins: Vec<WinId> = arrived
            .iter()
            .filter_map(|&(r, s)| match self.p.rank_ops(r)[s] {
                Op::Fence { win } => Some(win),
                _ => None,
            })
            .collect();
        wins.sort_unstable();
        wins.dedup();
        for win in wins {
            self.close_epoch(win);
        }
    }
}

impl<'p> Findings<'p> {
    fn new(p: &'p Program) -> Self {
        Findings {
            p,
            totals: BTreeMap::new(),
            matches: Vec::new(),
            wildcard_sites: Vec::new(),
            epoch: vec![Vec::new(); p.nwins()],
            diags: Vec::new(),
        }
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

    /// Check kind/root agreement of a completed occurrence against its
    /// first arrival.  A fence is a barrier on its window's communicator,
    /// so it agrees with a barrier.
    fn check_agreement(&mut self, comm: CommId, occ: usize, arrived: &[(usize, usize)]) {
        let sig = |r: usize, s: usize| match self.p.rank_ops(r)[s] {
            Op::Coll { kind, root, .. } => (kind, root, kind.name()),
            _ => (CollKind::Barrier, None, "fence"),
        };
        let fmt_root = |r: Option<usize>| r.map_or("no root".to_string(), |r| format!("root {r}"));
        let (r0, s0) = arrived[0];
        let (kind0, root0, name0) = sig(r0, s0);
        for &(rank, step) in &arrived[1..] {
            let (kind, root, name) = sig(rank, step);
            let (code, message) = if kind != kind0 {
                let on = format!("collective #{occ} on comm {}", comm.0);
                (Code::A006, format!("{on}: rank {rank} calls {name} but rank {r0} calls {name0}"))
            } else if root != root0 {
                let (root, root0) = (fmt_root(root), fmt_root(root0));
                let on = format!("collective {name0} #{occ} on comm {}", comm.0);
                (Code::A007, format!("{on}: rank {rank} uses {root} but rank {r0} uses {root0}"))
            } else {
                continue;
            };
            let loc = Some(Loc { rank, step });
            self.diags.push(Diag { code, severity: Severity::Error, loc, message });
        }
    }

    /// All ranks completed: flag leftover traffic and unclosed epochs, then
    /// classify by wildcard presence.
    fn finish_clean(&mut self, it: &Interp<'_>) -> Verdict {
        let mut leftover: BTreeMap<ChanKey, usize> = BTreeMap::new();
        for (dst, m) in it.in_flight() {
            *leftover.entry((m.comm, m.src, dst, m.tag)).or_default() += 1;
        }
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
}

/// Does rank `s` still have a send matching `(comm, → dst, tag)` at or
/// after its current pc?
fn has_future_send(it: &Interp<'_>, s: usize, comm: CommId, dst: usize, tag: Tag) -> bool {
    it.program().rank_ops(s)[it.pc(s)..].iter().any(|op| {
        matches!(*op, Op::Send { comm: c, dst: d, tag: t, .. }
            if c == comm && d == dst && tag.admits(t))
    })
}

/// The run stalled: build the wait-for graph over the blocked ranks,
/// report orphans / missing participants, find a cycle, classify.
fn post_mortem(
    it: &Interp<'_>,
    stalled: &[usize],
    wildcard_sites: &[Loc],
    diags: &mut Vec<Diag>,
) -> Verdict {
    let p = it.program();
    let at_wildcard = |r: usize| p.rank_ops(r)[it.pc(r)].is_wildcard();
    // Adjacency: r → (waits_for, description).
    let mut edges: HashMap<usize, Vec<(usize, String)>> = HashMap::new();
    for &r in stalled {
        let step = it.pc(r);
        let mut out: Vec<(usize, String)> = Vec::new();
        let (comm, occ, head, code, verb) = match p.rank_ops(r)[step] {
            Op::Recv { comm, src, tag } => {
                let tag_str = match tag {
                    Tag::Is(t) => format!("tag {t}"),
                    Tag::Any => "any tag".to_string(),
                };
                let candidates: Vec<usize> = match src {
                    Src::Rank(s) => vec![s],
                    Src::Any => (0..p.nranks()).filter(|&s| s != r).collect(),
                };
                let live: Vec<usize> = candidates
                    .into_iter()
                    .filter(|&s| !it.done(s) && has_future_send(it, s, comm, r, tag))
                    .collect();
                if live.is_empty() {
                    let from = match src {
                        Src::Rank(s) => {
                            format!("rank {s}{}", if it.done(s) { " (terminated)" } else { "" })
                        }
                        Src::Any => "any source".to_string(),
                    };
                    diags.push(Diag {
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
                    out.push((s, format!("a message from rank {s} (comm {}, {tag_str})", comm.0)));
                }
                edges.insert(r, out);
                continue;
            }
            // A stalled rank at a collective or fence is parked in the
            // occurrence it is at (it would run otherwise).
            Op::Coll { comm, kind, .. } => {
                let occ = it.occurrence(r, comm);
                let head = format!("collective {kind} #{occ} on comm {}", comm.0);
                (comm, occ, head, Code::A006, "participating")
            }
            Op::Fence { win } => {
                let Some(comm) = p.win_comm(win) else { continue };
                let occ = it.occurrence(r, comm);
                (comm, occ, format!("fence #{occ} on window {}", win.0), Code::A009, "fencing")
            }
            // Well-formedness rules out any other way to stall.
            _ => continue,
        };
        for missing in missing_members(it, comm, occ, &mut out) {
            diags.push(Diag {
                code,
                severity: Severity::Error,
                loc: Some(Loc { rank: r, step }),
                message: format!("{head}: rank {missing} terminated without {verb}"),
            });
        }
        for (_, what) in &mut out {
            *what = format!("{head}: {what}");
        }
        edges.insert(r, out);
    }
    let chain = find_cycle(stalled, &edges, &|r| it.pc(r));
    let closed =
        chain.last().zip(chain.first()).is_some_and(|(last, first)| last.waits_for == first.rank);
    let describe = |chain: &[WaitEdge]| {
        chain
            .iter()
            .map(|e| format!("rank {} (step {}) → rank {}", e.rank, e.step, e.waits_for))
            .collect::<Vec<_>>()
            .join(", ")
    };
    if wildcard_sites.is_empty() && !stalled.iter().any(|&r| at_wildcard(r)) {
        if !chain.is_empty() {
            diags.push(Diag {
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
        let mut sites = wildcard_sites.to_vec();
        for &r in stalled {
            let loc = Loc { rank: r, step: it.pc(r) };
            if at_wildcard(r) && !sites.contains(&loc) {
                sites.push(loc);
            }
        }
        diags.push(Diag {
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

/// Append an edge per member of `comm` not yet arrived at occurrence
/// `occ`; returns the members that terminated instead.
fn missing_members(
    it: &Interp<'_>,
    comm: CommId,
    occ: usize,
    out: &mut Vec<(usize, String)>,
) -> Vec<usize> {
    let mut terminated = Vec::new();
    let Some(members) = it.program().comm_members(comm) else { return terminated };
    let arrived = it.arrived(comm, occ);
    for &m in members {
        if arrived.iter().any(|&(a, _)| a == m) {
            continue;
        }
        if it.done(m) {
            terminated.push(m);
        } else {
            out.push((m, format!("rank {m} has not arrived")));
        }
    }
    terminated
}

/// DFS for a cycle in the wait-for graph; returns the cycle as `WaitEdge`s
/// (closed: the last edge waits for the first rank).  When no cycle exists
/// the graph is a DAG into terminated/orphaned ranks; the longest blocking
/// chain from the lowest stalled rank is returned instead so reports always
/// show *why* nothing moves.
pub(crate) fn find_cycle(
    stalled: &[usize],
    edges: &HashMap<usize, Vec<(usize, String)>>,
    pc: &dyn Fn(usize) -> usize,
) -> Vec<WaitEdge> {
    #[derive(Clone, Copy, PartialEq)]
    enum Color {
        White,
        Grey,
        Black,
    }
    let mut color: HashMap<usize, Color> = stalled.iter().map(|&r| (r, Color::White)).collect();
    // Iterative DFS keeping the grey path; on a grey hit, the path suffix
    // from that node is the cycle.
    for &start in stalled {
        if color[&start] != Color::White {
            continue;
        }
        let mut path: Vec<(usize, usize)> = vec![(start, 0)]; // (node, next edge index)
        color.insert(start, Color::Grey);
        while let Some(frame) = path.last_mut() {
            let node = frame.0;
            let outs = edges.get(&node).map_or(&[][..], Vec::as_slice);
            if frame.1 >= outs.len() {
                color.insert(node, Color::Black);
                path.pop();
                continue;
            }
            let (next, _) = outs[frame.1];
            frame.1 += 1;
            match color.get(&next).copied() {
                Some(Color::Grey) => {
                    // Cycle: suffix of `path` starting at `next`.  A grey
                    // node is by construction on the path; a miss would
                    // just keep searching.
                    let Some(pos) = path.iter().position(|&(n, _)| n == next) else { continue };
                    let cycle_nodes: Vec<usize> = path[pos..].iter().map(|&(n, _)| n).collect();
                    let mut out = Vec::new();
                    for (i, &n) in cycle_nodes.iter().enumerate() {
                        let to = cycle_nodes[(i + 1) % cycle_nodes.len()];
                        let what = edges
                            .get(&n)
                            .and_then(|v| v.iter().find(|&&(w, _)| w == to))
                            .map_or_else(String::new, |(_, s)| s.clone());
                        out.push(WaitEdge { rank: n, step: pc(n), waits_for: to, what });
                    }
                    return out;
                }
                Some(Color::White) => {
                    color.insert(next, Color::Grey);
                    path.push((next, 0));
                }
                _ => {} // Black or not-stalled (terminated): skip.
            }
        }
    }
    // No cycle: walk first-edges from the lowest stalled rank.
    let mut out = Vec::new();
    let Some(&start) = stalled.first() else { return out };
    let mut seen = vec![start];
    let mut node = start;
    while let Some((next, what)) = edges.get(&node).and_then(|v| v.first()).cloned() {
        out.push(WaitEdge { rank: node, step: pc(node), waits_for: next, what });
        if seen.contains(&next) || !edges.contains_key(&next) {
            break;
        }
        seen.push(next);
        node = next;
    }
    out
}
