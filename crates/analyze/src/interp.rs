//! The plan interpreter: the one implementation of a [`Program`]'s
//! matching semantics, shared by the analyzer and the schedule explorer.
//!
//! The semantics follow the runtime: sends are eager and arrive at once,
//! receives block, channels `(comm, src, dst, tag)` are FIFO
//! (non-overtaking), one-sided operations complete locally, and
//! collectives and fences are barriers keyed by `(comm, occurrence)`.  A
//! fence *is* a barrier on its window's communicator (the runtime
//! implements `fence` as `barrier(&win.comm)`), so it takes a slot in that
//! communicator's collective sequence, and one occurrence may gather
//! fences of several windows and plain collectives alike.
//!
//! Scheduling is run-to-block: the chosen rank executes until it cannot
//! make progress.  Two questions are left open, and the interpreter asks a
//! [`Scheduler`]: which runnable rank runs next (`'r'`), and which
//! eligible channel a receive takes when several match (`'w'`).  Answering
//! index 0 to both is the *canonical* schedule — the lowest runnable rank
//! runs, and a wildcard takes the earliest-arrived eligible message.  What
//! happens is reported to an [`Observer`]: the analyzer's observer
//! collects its checks, the explorer's writes the normalized trace.
//!
//! Every run is a pure function of `(program, scheduler answers)`.

use std::collections::{BTreeMap, BTreeSet};

use crate::plan::{CommId, Op, Program, Src, Tag};

/// A message in flight.
#[derive(Debug, Clone, Copy)]
pub struct Msg {
    /// Matching scope.
    pub comm: CommId,
    /// Sending world rank.
    pub src: usize,
    /// The sender's step that posted it (the send half of a match).
    pub step: usize,
    /// Message tag.
    pub tag: u32,
    /// Payload size.
    pub bytes: u64,
}

/// A scheduling question the semantics leave open.
#[derive(Debug, Clone, Copy)]
pub enum Choice<'a> {
    /// `'r'`: which of these runnable ranks (ascending) runs next.
    Resume(&'a BTreeSet<usize>),
    /// `'w'`: which of `n` eligible channels, in head-arrival order, the
    /// receive at `(rank, step)` consumes.
    Match {
        /// Receiving rank.
        rank: usize,
        /// Its step.
        step: usize,
        /// Eligible channels (at least 2).
        n: usize,
    },
}

/// Answers the interpreter's scheduling questions.
pub trait Scheduler {
    /// Pick an index into the choice's candidates; `pc` is every rank's
    /// program counter at the moment of the question.  Out-of-range
    /// answers are clamped to the last candidate.
    fn pick(&mut self, pc: &[usize], choice: Choice<'_>) -> usize;

    /// A failure detected by the scheduler itself; stops the run.
    fn abort(&self) -> Option<String> {
        None
    }
}

/// The canonical schedule: index 0 for every question.
#[derive(Debug)]
pub(crate) struct Canonical;

impl Scheduler for Canonical {
    fn pick(&mut self, _pc: &[usize], _choice: Choice<'_>) -> usize {
        0
    }
}

/// Watches a run.  Every callback fires after the state change it
/// reports (the rank's pc has already moved past the op).
pub trait Observer {
    /// Rank `rank`'s send at `step` posted `msg` to `dst` as arrival `seq`.
    fn send(&mut self, rank: usize, step: usize, dst: usize, seq: u64, msg: &Msg);

    /// Rank `rank`'s receive at `step` consumed `msg` (arrival `seq`).
    fn recv(&mut self, rank: usize, step: usize, seq: u64, msg: &Msg);

    /// Rank `rank` executed the one-sided `op` at `step`.
    fn rma(&mut self, rank: usize, step: usize, op: &Op);

    /// Occurrence `occ` of `comm`'s barrier sequence completed.
    /// `arrived` lists the `(rank, step)` of each member's collective or
    /// fence in arrival order; the last one completed it.
    fn barrier(&mut self, comm: CommId, occ: usize, arrived: &[(usize, usize)]);
}

/// The interpreter state: program counters, per-destination arrivals,
/// open barriers and parked ranks.
#[derive(Debug)]
pub struct Interp<'p> {
    program: &'p Program,
    pc: Vec<usize>,
    /// Per-destination messages in flight, keyed by global arrival seq.
    inbox: Vec<BTreeMap<u64, Msg>>,
    next_seq: u64,
    /// `occ[r][c]`: barrier occurrences rank `r` has completed on comm `c`.
    occ: Vec<Vec<usize>>,
    /// Open barriers: `(comm, occurrence)` → `(rank, step)` arrivals.
    barriers: BTreeMap<(CommId, usize), Vec<(usize, usize)>>,
    /// Ranks parked inside an open barrier (pc points at its op).
    joined: Vec<bool>,
    /// The ranks that can make progress, kept current as the state
    /// changes: a rank's own burst, an arrival in its inbox and a barrier
    /// release are the only events that change whether it can run.
    ready: BTreeSet<usize>,
}

impl<'p> Interp<'p> {
    /// A fresh interpreter with every rank at step 0.
    pub fn new(program: &'p Program) -> Self {
        let n = program.nranks();
        Interp {
            program,
            pc: vec![0; n],
            inbox: vec![BTreeMap::new(); n],
            next_seq: 0,
            occ: vec![vec![0; program.ncomms()]; n],
            barriers: BTreeMap::new(),
            joined: vec![false; n],
            ready: BTreeSet::new(),
        }
    }

    /// The interpreted program.
    pub fn program(&self) -> &'p Program {
        self.program
    }

    /// Rank `r`'s program counter (its next op, or its op count when done).
    pub fn pc(&self, r: usize) -> usize {
        self.pc[r]
    }

    /// Has rank `r` executed its whole program?
    pub fn done(&self, r: usize) -> bool {
        self.pc[r] >= self.program.rank_ops(r).len()
    }

    /// The occurrence of `comm`'s barrier sequence rank `r` is at.
    pub fn occurrence(&self, r: usize, comm: CommId) -> usize {
        self.occ[r].get(comm.0 as usize).copied().unwrap_or(0)
    }

    /// Arrivals `(rank, step)` at an open barrier occurrence.
    pub fn arrived(&self, comm: CommId, occ: usize) -> &[(usize, usize)] {
        self.barriers.get(&(comm, occ)).map_or(&[], Vec::as_slice)
    }

    /// Messages still in flight as `(dst, msg)`, per destination in
    /// arrival order.
    pub(crate) fn in_flight(&self) -> impl Iterator<Item = (usize, &Msg)> + '_ {
        self.inbox.iter().enumerate().flat_map(|(dst, q)| q.values().map(move |m| (dst, m)))
    }

    /// Does `msg` satisfy a `(comm, src, tag)` receive?
    fn admits(msg: &Msg, comm: CommId, src: Src, tag: Tag) -> bool {
        msg.comm == comm
            && tag.admits(msg.tag)
            && match src {
                Src::Rank(want) => msg.src == want,
                Src::Any => true,
            }
    }

    /// The eligible channels of a receive in head-arrival order: one
    /// `(seq, msg)` per distinct `(src, tag)`, carrying that channel's head.
    fn slate(&self, r: usize, comm: CommId, src: Src, tag: Tag) -> Vec<(u64, Msg)> {
        let exact = matches!((src, tag), (Src::Rank(_), Tag::Is(_)));
        let mut out: Vec<(u64, Msg)> = Vec::new();
        for (&seq, m) in &self.inbox[r] {
            if !Self::admits(m, comm, src, tag) {
                continue;
            }
            if !out.iter().any(|(_, o)| (o.src, o.tag) == (m.src, m.tag)) {
                out.push((seq, *m));
                if exact {
                    break; // one channel only: its head is the match
                }
            }
        }
        out
    }

    /// Can rank `r` make progress right now?
    fn runnable(&self, r: usize) -> bool {
        if self.joined[r] {
            return false;
        }
        match self.program.rank_ops(r).get(self.pc[r]) {
            None => false,
            Some(&Op::Recv { comm, src, tag }) => {
                self.inbox[r].values().any(|m| Self::admits(m, comm, src, tag))
            }
            // A reference to an unknown comm or window (a malformed plan
            // the analyzer rejects) blocks forever instead of spinning.
            Some(&Op::Coll { comm, .. }) => self.program.comm_members(comm).is_some(),
            Some(&Op::Fence { win }) => {
                self.program.win_comm(win).and_then(|c| self.program.comm_members(c)).is_some()
            }
            Some(_) => true,
        }
    }

    /// Re-evaluate whether rank `r` can run.
    fn refresh(&mut self, r: usize) {
        if self.runnable(r) {
            self.ready.insert(r);
        } else {
            self.ready.remove(&r);
        }
    }

    /// Rank `r` arrives at its collective or fence on `comm`; returns true
    /// when that completed the occurrence (releasing every member).
    fn join(&mut self, r: usize, comm: CommId, obs: &mut impl Observer) -> bool {
        let Some(size) = self.program.comm_members(comm).map(<[usize]>::len) else {
            return false; // malformed: blocked forever
        };
        let c = comm.0 as usize;
        let occ = self.occ[r][c];
        let arrived = self.barriers.entry((comm, occ)).or_default();
        arrived.push((r, self.pc[r]));
        if arrived.len() < size {
            self.joined[r] = true;
            return false;
        }
        let arrived = self.barriers.remove(&(comm, occ)).unwrap_or_default();
        for &(m, _) in &arrived {
            self.joined[m] = false;
            self.pc[m] += 1;
            self.occ[m][c] += 1;
            self.refresh(m);
        }
        obs.barrier(comm, occ, &arrived);
        true
    }

    /// Execute rank `r` until it blocks or finishes (run-to-block).
    fn burst(&mut self, r: usize, sched: &mut impl Scheduler, obs: &mut impl Observer) {
        while let Some(&op) = self.program.rank_ops(r).get(self.pc[r]) {
            let step = self.pc[r];
            match op {
                Op::Send { comm, dst, tag, bytes } => {
                    let seq = self.next_seq;
                    self.next_seq += 1;
                    let msg = Msg { comm, src: r, step, tag, bytes };
                    self.inbox[dst].insert(seq, msg);
                    self.refresh(dst);
                    self.pc[r] += 1;
                    obs.send(r, step, dst, seq, &msg);
                }
                Op::Recv { comm, src, tag } => {
                    let slate = self.slate(r, comm, src, tag);
                    let (seq, msg) = match slate.len() {
                        0 => return, // blocked
                        1 => slate[0],
                        n => {
                            let i = sched.pick(&self.pc, Choice::Match { rank: r, step, n });
                            slate[i.min(n - 1)]
                        }
                    };
                    self.inbox[r].remove(&seq);
                    self.pc[r] += 1;
                    obs.recv(r, step, seq, &msg);
                }
                Op::Coll { comm, .. } => {
                    if !self.join(r, comm, obs) {
                        return; // parked in the barrier
                    }
                }
                Op::Fence { win } => {
                    let Some(comm) = self.program.win_comm(win) else { return };
                    if !self.join(r, comm, obs) {
                        return;
                    }
                }
                Op::Put { .. } | Op::Get { .. } | Op::Accumulate { .. } => {
                    self.pc[r] += 1;
                    obs.rma(r, step, &op);
                }
            }
        }
    }

    /// Run to completion or until every unfinished rank is blocked; errors
    /// when the scheduler aborts.  Every iteration executes an op or parks
    /// a rank in a barrier, so the loop ends.
    pub fn run(
        &mut self,
        sched: &mut impl Scheduler,
        obs: &mut impl Observer,
    ) -> Result<(), String> {
        for r in 0..self.program.nranks() {
            self.refresh(r);
        }
        while sched.abort().is_none() {
            let i = match self.ready.len() {
                0 => break,
                1 => 0,
                k => sched.pick(&self.pc, Choice::Resume(&self.ready)).min(k - 1),
            };
            let Some(&chosen) = self.ready.iter().nth(i) else { break };
            self.burst(chosen, sched, obs);
            self.refresh(chosen);
        }
        sched.abort().map_or(Ok(()), Err)
    }
}
