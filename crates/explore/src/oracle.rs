//! The model executor as it stood before it became a layer over the
//! analyzer's plan interpreter, kept as a differential oracle: the
//! explorer must produce byte-identical runs and decision logs.

use std::collections::BTreeMap;

use mim_analyze::{CollKind, IndependenceMap, Op, Program, Src, Tag};
use mim_trace::{TraceData, Tracer};

use crate::model::{ModelPolicy, RunOutput};

/// An in-flight message: arrival order plus its matching coordinates.
#[derive(Debug, Clone, Copy)]
struct Msg {
    comm: u32,
    src: usize,
    tag: u32,
    bytes: u64,
}

/// Static vocabulary for the flight recorder (its `name` fields never
/// allocate).
fn coll_name(kind: CollKind) -> &'static str {
    match kind {
        CollKind::Barrier => "barrier",
        CollKind::Bcast => "bcast",
        CollKind::Reduce => "reduce",
        CollKind::Allreduce => "allreduce",
        CollKind::Allgather => "allgather",
        CollKind::Alltoall => "alltoall",
        CollKind::Gather => "gather",
        CollKind::Scatter => "scatter",
        CollKind::ReduceScatter => "reduce_scatter",
        CollKind::Scan => "scan",
    }
}

fn src_desc(src: Src) -> String {
    match src {
        Src::Rank(r) => r.to_string(),
        Src::Any => "any".into(),
    }
}

fn tag_desc(tag: Tag) -> String {
    match tag {
        Tag::Is(t) => t.to_string(),
        Tag::Any => "any".into(),
    }
}

struct Model<'a> {
    program: &'a Program,
    policy: &'a dyn ModelPolicy,
    tracer: Option<&'a std::sync::Arc<Tracer>>,
    tracks: Vec<Option<mim_trace::TraceHandle>>,
    /// Per-destination in-flight messages, keyed by global arrival sequence.
    inbox: Vec<BTreeMap<u64, Msg>>,
    next_seq: u64,
    /// Per-rank program counter.
    pc: Vec<usize>,
    /// Ranks currently parked inside a collective (pc points at it).
    joined: Vec<bool>,
    /// Per-(rank, comm) collective occurrence counters.
    occ: Vec<Vec<usize>>,
    /// Barrier membership: (comm, occurrence) → ranks arrived.
    barriers: BTreeMap<(u32, usize), Vec<usize>>,
    /// Which ranks ever wildcard-receive *racily*, and on which (comm, tag)
    /// space — the match-graph side of the persistent-set computation.
    /// Sites the independence map proves benign are omitted.
    wildcard_pats: Vec<Vec<(u32, Tag)>>,
    /// The analyzer's static independence relation, when supplied: benign
    /// wildcard sites stop seeding backtrack points (their decisions are
    /// still recorded, so logs stay byte-comparable).
    imap: Option<&'a IndependenceMap>,
    trace: Vec<String>,
    steps: usize,
}

impl<'a> Model<'a> {
    fn new(
        program: &'a Program,
        policy: &'a dyn ModelPolicy,
        tracer: Option<&'a std::sync::Arc<Tracer>>,
        imap: Option<&'a IndependenceMap>,
    ) -> Self {
        let n = program.nranks();
        let mut wildcard_pats = vec![Vec::new(); n];
        for (r, pats) in wildcard_pats.iter_mut().enumerate() {
            for (step, op) in program.rank_ops(r).iter().enumerate() {
                if imap.is_some_and(|m| m.wildcard_is_benign(r, step)) {
                    continue; // statically order-insensitive: not a race
                }
                if let Op::Recv { comm, src: Src::Any, tag } = op {
                    pats.push((comm.0, *tag));
                } else if let Op::Recv { comm, tag: Tag::Any, .. } = op {
                    pats.push((comm.0, Tag::Any));
                }
            }
        }
        let tracks = (0..n).map(|r| tracer.map(|t| t.track(format!("rank{r}")))).collect();
        Model {
            program,
            policy,
            tracer,
            tracks,
            inbox: vec![BTreeMap::new(); n],
            next_seq: 0,
            pc: vec![0; n],
            joined: vec![false; n],
            occ: vec![vec![0; program.ncomms()]; n],
            barriers: BTreeMap::new(),
            wildcard_pats,
            imap,
            trace: Vec::new(),
            steps: 0,
        }
    }

    /// Is the wildcard receive at `(r, step)` statically order-insensitive?
    fn wildcard_is_benign(&self, r: usize, step: usize) -> bool {
        self.imap.is_some_and(|m| m.wildcard_is_benign(r, step))
    }

    fn record(&mut self, rank: usize, line: String, data: Option<TraceData>) {
        if let (Some(track), Some(data)) = (&self.tracks[rank], data) {
            track.record(self.steps as f64, data);
        }
        self.trace.push(line);
        self.steps += 1;
    }

    fn done(&self, r: usize) -> bool {
        self.pc[r] >= self.program.rank_ops(r).len()
    }

    /// Does some wildcard receive of `dst` admit a `(comm, tag)` message?
    /// Such sends are *racy*: their arrival order can steer the match.
    fn send_is_racy(&self, dst: usize, comm: u32, tag: u32) -> bool {
        self.wildcard_pats[dst].iter().any(|&(c, t)| c == comm && t.admits(tag))
    }

    /// Can a later decision about rank `r` change any wildcard match?
    /// Conservative (whole remaining program, not just the next burst):
    /// errs toward exploring, never toward pruning a real race.  Wildcard
    /// sites the independence map proves benign do not count.
    fn rank_is_racy(&self, r: usize) -> bool {
        self.program.rank_ops(r)[self.pc[r]..].iter().enumerate().any(|(j, op)| match *op {
            Op::Send { comm, dst, tag, .. } => self.send_is_racy(dst, comm.0, tag),
            Op::Recv { src: Src::Any, .. } | Op::Recv { tag: Tag::Any, .. } => {
                !self.wildcard_is_benign(r, self.pc[r] + j)
            }
            _ => false,
        })
    }

    /// Matching channels for a receive, in head-arrival order (the slate a
    /// wildcard decision ranges over).  One entry per distinct
    /// `(comm, src, tag)` channel, carrying that channel's head sequence.
    fn slate(&self, r: usize, comm: u32, src: Src, tag: Tag) -> Vec<(u64, Msg)> {
        let mut seen: Vec<(usize, u32)> = Vec::new();
        let mut out = Vec::new();
        for (&seq, m) in &self.inbox[r] {
            if m.comm != comm || !tag.admits(m.tag) {
                continue;
            }
            if let Src::Rank(want) = src {
                if m.src != want {
                    continue;
                }
            }
            if !seen.contains(&(m.src, m.tag)) {
                seen.push((m.src, m.tag));
                out.push((seq, *m));
            }
        }
        out
    }

    /// Join rank `r`'s pending collective; returns true if that completed
    /// the barrier (releasing every participant).
    fn join_coll(&mut self, r: usize, comm: u32, members: &[usize], desc: String) -> bool {
        let occ = self.occ[r][comm as usize];
        let arrived = self.barriers.entry((comm, occ)).or_default();
        arrived.push(r);
        self.joined[r] = true;
        if arrived.len() < members.len() {
            return false;
        }
        let arrived = self.barriers.remove(&(comm, occ)).unwrap_or_default();
        for &m in &arrived {
            self.joined[m] = false;
            self.pc[m] += 1;
            self.occ[m][comm as usize] += 1;
            let line = format!("t={} rank={m} {desc} occ={occ}", self.steps);
            self.record(
                m,
                line,
                Some(TraceData::DesStep { rank: m, op: "park", peer: r, bytes: 0 }),
            );
        }
        true
    }

    /// Execute ops of rank `r` until it blocks or finishes (run-to-block).
    fn burst(&mut self, r: usize) {
        loop {
            if self.done(r) {
                return;
            }
            let op = self.program.rank_ops(r)[self.pc[r]];
            match op {
                Op::Send { comm, dst, tag, bytes } => {
                    let seq = self.next_seq;
                    self.next_seq += 1;
                    self.inbox[dst].insert(seq, Msg { comm: comm.0, src: r, tag, bytes });
                    self.pc[r] += 1;
                    let line = format!(
                        "t={} rank={r} send dst={dst} comm={} tag={tag} bytes={bytes} seq={seq}",
                        self.steps, comm.0
                    );
                    self.record(
                        r,
                        line,
                        Some(TraceData::DesStep { rank: r, op: "send", peer: dst, bytes }),
                    );
                }
                Op::Recv { comm, src, tag } => {
                    let slate = self.slate(r, comm.0, src, tag);
                    let (seq, m) = match slate.len() {
                        0 => return, // blocked
                        1 => slate[0],
                        n => {
                            // A benign site still *records* its decision
                            // (logs stay byte-comparable) but flags every
                            // candidate non-racy, so the persistent set is
                            // empty and the DFS never backtracks here.
                            let racy: Vec<bool> = if self.wildcard_is_benign(r, self.pc[r]) {
                                vec![false; n]
                            } else {
                                Vec::new()
                            };
                            let i = self.policy.pick('w', n, &racy);
                            slate[i.min(n - 1)]
                        }
                    };
                    self.inbox[r].remove(&seq);
                    self.pc[r] += 1;
                    let line = format!(
                        "t={} rank={r} recv src={} comm={} tag={} bytes={} seq={seq}",
                        self.steps, m.src, m.comm, m.tag, m.bytes
                    );
                    self.record(
                        r,
                        line,
                        Some(TraceData::DesStep {
                            rank: r,
                            op: "recv",
                            peer: m.src,
                            bytes: m.bytes,
                        }),
                    );
                }
                Op::Coll { comm, kind, root } => {
                    let Some(members) = self.program.comm_members(comm).map(<[usize]>::to_vec)
                    else {
                        return; // malformed: treat as blocked forever
                    };
                    let desc = match root {
                        Some(root) => {
                            format!("coll {} comm={} root={root}", coll_name(kind), comm.0)
                        }
                        None => format!("coll {} comm={}", coll_name(kind), comm.0),
                    };
                    if !self.join_coll(r, comm.0, &members, desc) {
                        return; // parked in the barrier
                    }
                }
                Op::Put { win, target, bytes, .. }
                | Op::Get { win, target, bytes, .. }
                | Op::Accumulate { win, target, bytes, .. } => {
                    let verb = match op {
                        Op::Put { .. } => "put",
                        Op::Get { .. } => "get",
                        _ => "accumulate",
                    };
                    self.pc[r] += 1;
                    let line = format!(
                        "t={} rank={r} rma {verb} target={target} win={} bytes={bytes}",
                        self.steps, win.0
                    );
                    self.record(r, line, None);
                }
                Op::Fence { win } => {
                    let Some(comm) = self.program.win_comm(win) else {
                        return;
                    };
                    let Some(members) = self.program.comm_members(comm).map(<[usize]>::to_vec)
                    else {
                        return;
                    };
                    let desc = format!("fence win={} comm={}", win.0, comm.0);
                    if !self.join_coll(r, comm.0, &members, desc) {
                        return;
                    }
                }
            }
        }
    }

    /// Is `r` able to make progress right now?
    fn runnable(&self, r: usize) -> bool {
        if self.done(r) || self.joined[r] {
            return false;
        }
        match self.program.rank_ops(r)[self.pc[r]] {
            Op::Recv { comm, src, tag } => !self.slate(r, comm.0, src, tag).is_empty(),
            // A reference to an unknown comm or window (a malformed plan
            // the analyzer would reject) blocks forever instead of spinning.
            Op::Coll { comm, .. } => self.program.comm_members(comm).is_some(),
            Op::Fence { win } => {
                self.program.win_comm(win).and_then(|c| self.program.comm_members(c)).is_some()
            }
            _ => true,
        }
    }

    /// Describe why `r` is not done (the normalized stuck dump).
    fn stuck_line(&self, r: usize) -> String {
        let pc = self.pc[r];
        match self.program.rank_ops(r)[pc] {
            Op::Recv { comm, src, tag } => format!(
                "rank {r} blocked at step {pc}: recv src={} tag={} comm={} (0 eligible)",
                src_desc(src),
                tag_desc(tag),
                comm.0
            ),
            Op::Coll { comm, kind, .. } => {
                let occ = self.occ[r][comm.0 as usize];
                let arrived = self.barriers.get(&(comm.0, occ)).map_or(0, Vec::len);
                let members = self.program.comm_members(comm).map_or(0, <[usize]>::len);
                format!(
                    "rank {r} blocked at step {pc}: coll {} comm={} occ={occ} \
                     ({arrived}/{members} arrived)",
                    coll_name(kind),
                    comm.0
                )
            }
            Op::Fence { win } => format!("rank {r} blocked at step {pc}: fence win={}", win.0),
            ref op => format!("rank {r} blocked at step {pc}: {op:?}"),
        }
    }

    fn run(mut self) -> Result<RunOutput, String> {
        // Every scheduler iteration either executes an op or parks a rank
        // in a barrier, so this bound is unreachable without a model bug.
        let max_iters = 2 * self.program.total_ops() + self.program.nranks() + 4;
        let mut iters = 0;
        let n = self.program.nranks();
        loop {
            if let Some(err) = self.policy.error() {
                return Err(err);
            }
            iters += 1;
            if iters > max_iters {
                return Err(format!(
                    "model executor exceeded its iteration budget ({max_iters}) — \
                     this is a bug in the model, not the plan"
                ));
            }
            let runnable: Vec<usize> = (0..n).filter(|&r| self.runnable(r)).collect();
            let chosen = match runnable.len() {
                0 => break,
                1 => runnable[0],
                k => {
                    let racy: Vec<bool> = runnable.iter().map(|&r| self.rank_is_racy(r)).collect();
                    let i = self.policy.pick('r', k, &racy);
                    runnable[i.min(k - 1)]
                }
            };
            self.burst(chosen);
        }
        if let Some(err) = self.policy.error() {
            return Err(err);
        }
        let stuck: Vec<String> =
            (0..n).filter(|&r| !self.done(r)).map(|r| self.stuck_line(r)).collect();
        if let Some(t) = self.tracer {
            t.flush();
        }
        Ok(RunOutput {
            trace: self.trace,
            stuck: (!stuck.is_empty()).then_some(stuck),
            steps: self.steps,
        })
    }
}

/// The old `run_model_with`.
pub(crate) fn old_run_model_with(
    program: &Program,
    policy: &dyn ModelPolicy,
    tracer: Option<&std::sync::Arc<Tracer>>,
    independence: Option<&IndependenceMap>,
) -> Result<RunOutput, String> {
    Model::new(program, policy, tracer, independence).run()
}

#[cfg(test)]
mod tests {
    use mim_analyze::{analyze_program, CommId, Op, Program, Src, Tag, WORLD};
    use mim_apps::builtin::{built_in, Shape, PLANS};
    use mim_trace::Tracer;
    use mim_util::prop::Gen;
    use mim_util::props;

    use super::old_run_model_with;
    use crate::model::run_model_with;
    use crate::plans::{wildcard_clean, wildcard_race};
    use crate::policy::{RecordingPolicy, ReplayPolicy};

    /// A random plan: a world and a sub-communicator, two windows on the
    /// world and one on the sub-communicator, messages in one global order
    /// (some received by wildcards), RMA accesses, and per-phase barriers
    /// where members may mix collectives and fences of different windows.
    /// A few adjacent swaps then cross orders, so some plans wedge.
    fn random_program(g: &mut Gen) -> Program {
        let n = g.gen_range(2usize..6);
        let mut p = Program::new("random", n);
        let mut members: Vec<usize> = (0..n).filter(|_| g.gen_bool(0.7)).collect();
        if members.len() < 2 {
            members = vec![0, 1];
        }
        let sub = p.add_comm(members.clone());
        let comms: [(CommId, Vec<usize>); 2] = [(WORLD, (0..n).collect()), (sub, members)];
        let wins = [p.add_window(WORLD), p.add_window(WORLD), p.add_window(sub)];
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
                let wi = g.index(3);
                let m = &comms[usize::from(wi == 2)].1;
                let (origin, target) = (*g.choose(m), *g.choose(m));
                let (win, offset, bytes) = (wins[wi], g.gen_range(0u64..16), g.gen_range(1u64..9));
                ops[origin].push(match g.index(3) {
                    0 => Op::Put { win, target, offset, bytes },
                    1 => Op::Get { win, target, offset, bytes },
                    _ => Op::Accumulate { win, target, offset, bytes },
                });
            }
            let ci = g.index(2);
            for &r in &comms[ci].1 {
                ops[r].push(match g.index(4) {
                    0 => Op::Coll {
                        comm: comms[ci].0,
                        kind: mim_analyze::CollKind::Barrier,
                        root: None,
                    },
                    1 => Op::Coll {
                        comm: comms[ci].0,
                        kind: mim_analyze::CollKind::Bcast,
                        root: Some(comms[ci].1[0]),
                    },
                    _ if ci == 1 => Op::Fence { win: wins[2] },
                    _ => Op::Fence { win: wins[g.index(2)] },
                });
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

    /// Run `program` on the old model and the new one under the same
    /// policy recipe; outputs, flight reports and decision logs must be
    /// identical, and so must a strict replay of the log.
    fn assert_same_runs(program: &Program, script: &[usize], seed: Option<u64>) {
        let make = || match seed {
            Some(s) => RecordingPolicy::random(script.to_vec(), s),
            None => RecordingPolicy::scripted(script.to_vec()),
        };
        let report = analyze_program(program);
        for imap in [None, Some(&report.independence)] {
            let (old_pol, new_pol) = (make(), make());
            let (old_tr, new_tr) = (Tracer::new(64), Tracer::new(64));
            let old = old_run_model_with(program, &old_pol, Some(&old_tr), imap);
            let new = run_model_with(program, &new_pol, Some(&new_tr), imap);
            let what = format!("{} script {script:?} seed {seed:?}", program.name());
            assert_eq!(old, new, "{what}");
            assert_eq!(old_pol.recs(), new_pol.recs(), "{what}");
            assert_eq!(old_tr.flight_report(16), new_tr.flight_report(16), "{what}");
            let (old_rep, new_rep) = (
                ReplayPolicy::from_log(&old_pol.log()).unwrap(),
                ReplayPolicy::from_log(&new_pol.log()).unwrap(),
            );
            let old = old_run_model_with(program, &old_rep, None, imap);
            let new = run_model_with(program, &new_rep, None, imap);
            assert_eq!(old, new, "{what} (replayed)");
            assert_eq!(new_rep.divergence(), None, "{what}");
        }
    }

    fn policies(g: &mut Gen) -> Vec<(Vec<usize>, Option<u64>)> {
        let script = g.vec(0..6, |g| g.gen_range(0usize..4));
        vec![(Vec::new(), None), (script, None), (Vec::new(), Some(g.next_u64()))]
    }

    props! {
        /// The 16 built-in plans run identically on the old and new model
        /// under canonical, scripted and random-seed policies.
        fn builtins_match_the_old_model(g, cases = 4) {
            let n = g.gen_range(3usize..9);
            let shape = Shape {
                n,
                root: g.gen_range(0usize..n),
                bytes: g.gen_range(64u64..8192),
                seg: g.gen_range(16u64..2048),
            };
            let mut plans: Vec<Program> =
                PLANS.iter().map(|name| built_in(name, &shape).unwrap()).collect();
            plans.push(wildcard_race(n));
            plans.push(wildcard_clean(n));
            for (script, seed) in policies(g) {
                for p in &plans {
                    assert_same_runs(p, &script, seed);
                }
            }
        }

        /// Random plans with wildcards, sub-communicators, fences and RMA
        /// run identically on the old and new model.
        fn random_plans_match_the_old_model(g, cases = 256) {
            let p = random_program(g);
            for (script, seed) in policies(g) {
                assert_same_runs(&p, &script, seed);
            }
        }
    }
}
