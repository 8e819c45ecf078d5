//! The model executor: runs a `mim-analyze` [`Program`] outline on the
//! analyzer's plan interpreter ([`mim_analyze::interp`]) under an explicit
//! scheduler, surfacing exactly the nondeterminism the live runtime has —
//! which runnable rank resumes next, which eligible channel a wildcard
//! receive consumes — as policy decisions.
//!
//! This module is the explorer's layer over the interpreter: the
//! [`ModelPolicy`] adapter with the race flags that feed the DPOR-lite
//! persistent sets, and the observer that writes the normalized trace and
//! the flight-recorder events.
//!
//! Every run is a pure function of `(program, policy decisions)`.  The
//! normalized trace uses a logical step counter as its clock, so two runs
//! that made the same decisions produce *byte-identical* output — the
//! property witness replay rests on.

use mim_analyze::interp::{Choice, Interp, Msg, Observer, Scheduler};
use mim_analyze::{CommId, IndependenceMap, Op, Program, Src, Tag};
use mim_trace::{TraceData, Tracer};

use crate::policy::{RecordingPolicy, ReplayPolicy};

/// What a policy needs to answer the model's scheduling questions.
///
/// The narrow `(kind, slate size, race flags)` view matches what the live
/// runtime's `SchedulePolicy` seams expose, so one decision log drives
/// both executors.
pub trait ModelPolicy {
    /// Choose an index in `0..n` for a decision of `kind`.
    fn pick(&self, kind: char, n: usize, racy: &[bool]) -> usize;

    /// A failure detected by the policy itself (replay divergence).
    fn error(&self) -> Option<String> {
        None
    }
}

impl ModelPolicy for RecordingPolicy {
    fn pick(&self, kind: char, n: usize, racy: &[bool]) -> usize {
        RecordingPolicy::pick(self, kind, n, racy)
    }
}

impl ModelPolicy for ReplayPolicy {
    fn pick(&self, kind: char, n: usize, racy: &[bool]) -> usize {
        ReplayPolicy::pick(self, kind, n, racy)
    }

    fn error(&self) -> Option<String> {
        self.divergence()
    }
}

/// Result of one model run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunOutput {
    /// Normalized event lines, one per executed operation.
    pub trace: Vec<String>,
    /// Per-rank blocked states when the run wedged; `None` on completion.
    pub stuck: Option<Vec<String>>,
    /// Operations executed.
    pub steps: usize,
}

impl RunOutput {
    /// Did the run wedge?
    pub fn deadlocked(&self) -> bool {
        self.stuck.is_some()
    }
}

/// Turns the interpreter's questions into [`ModelPolicy`] decisions,
/// flagging which candidates race.
struct Steer<'a> {
    program: &'a Program,
    policy: &'a dyn ModelPolicy,
    /// Which ranks ever wildcard-receive *racily*, and on which (comm, tag)
    /// space — the match-graph side of the persistent-set computation.
    /// Sites the independence map proves benign are omitted.
    wildcard_pats: Vec<Vec<(CommId, Tag)>>,
    /// The analyzer's static independence relation, when supplied: benign
    /// wildcard sites stop seeding backtrack points (their decisions are
    /// still recorded, so logs stay byte-comparable).
    imap: Option<&'a IndependenceMap>,
}

impl<'a> Steer<'a> {
    fn new(
        program: &'a Program,
        policy: &'a dyn ModelPolicy,
        imap: Option<&'a IndependenceMap>,
    ) -> Self {
        let mut wildcard_pats = vec![Vec::new(); program.nranks()];
        for (r, pats) in wildcard_pats.iter_mut().enumerate() {
            for (step, op) in program.rank_ops(r).iter().enumerate() {
                if imap.is_some_and(|m| m.wildcard_is_benign(r, step)) {
                    continue; // statically order-insensitive: not a race
                }
                if let Op::Recv { comm, src: Src::Any, tag } = op {
                    pats.push((*comm, *tag));
                } else if let Op::Recv { comm, tag: Tag::Any, .. } = op {
                    pats.push((*comm, Tag::Any));
                }
            }
        }
        Steer { program, policy, wildcard_pats, imap }
    }

    /// Is the wildcard receive at `(r, step)` statically order-insensitive?
    fn wildcard_is_benign(&self, r: usize, step: usize) -> bool {
        self.imap.is_some_and(|m| m.wildcard_is_benign(r, step))
    }

    /// Does some wildcard receive of `dst` admit a `(comm, tag)` message?
    /// Such sends are *racy*: their arrival order can steer the match.
    fn send_is_racy(&self, dst: usize, comm: CommId, tag: u32) -> bool {
        self.wildcard_pats[dst].iter().any(|&(c, t)| c == comm && t.admits(tag))
    }

    /// Can a later decision about rank `r` (now at step `pc`) change any
    /// wildcard match?  Conservative (whole remaining program, not just
    /// the next burst): errs toward exploring, never toward pruning a real
    /// race.  Wildcard sites the independence map proves benign do not
    /// count.
    fn rank_is_racy(&self, r: usize, pc: usize) -> bool {
        self.program.rank_ops(r)[pc..].iter().enumerate().any(|(j, op)| match *op {
            Op::Send { comm, dst, tag, .. } => self.send_is_racy(dst, comm, tag),
            Op::Recv { src: Src::Any, .. } | Op::Recv { tag: Tag::Any, .. } => {
                !self.wildcard_is_benign(r, pc + j)
            }
            _ => false,
        })
    }
}

impl Scheduler for Steer<'_> {
    fn pick(&mut self, pc: &[usize], choice: Choice<'_>) -> usize {
        match choice {
            Choice::Resume(ranks) => {
                let racy: Vec<bool> = ranks.iter().map(|&r| self.rank_is_racy(r, pc[r])).collect();
                self.policy.pick('r', ranks.len(), &racy)
            }
            Choice::Match { rank, step, n } => {
                // A benign site still *records* its decision (logs stay
                // byte-comparable) but flags every candidate non-racy, so
                // the persistent set is empty and the DFS never backtracks
                // here.
                let racy =
                    if self.wildcard_is_benign(rank, step) { vec![false; n] } else { Vec::new() };
                self.policy.pick('w', n, &racy)
            }
        }
    }

    fn abort(&self) -> Option<String> {
        self.policy.error()
    }
}

/// Writes the normalized trace (and, with a tracer, per-rank flight
/// recorder events) of a model run.
struct Recorder<'a> {
    program: &'a Program,
    tracks: Vec<Option<mim_trace::TraceHandle>>,
    trace: Vec<String>,
    steps: usize,
}

impl Recorder<'_> {
    fn record(&mut self, rank: usize, line: String, data: Option<TraceData>) {
        if let (Some(track), Some(data)) = (&self.tracks[rank], data) {
            track.record(self.steps as f64, data);
        }
        self.trace.push(line);
        self.steps += 1;
    }
}

impl Observer for Recorder<'_> {
    fn send(&mut self, rank: usize, _step: usize, dst: usize, seq: u64, m: &Msg) {
        let line = format!(
            "t={} rank={rank} send dst={dst} comm={} tag={} bytes={} seq={seq}",
            self.steps, m.comm.0, m.tag, m.bytes
        );
        let data = TraceData::DesStep { rank, op: "send", peer: dst, bytes: m.bytes };
        self.record(rank, line, Some(data));
    }

    fn recv(&mut self, rank: usize, _step: usize, seq: u64, m: &Msg) {
        let line = format!(
            "t={} rank={rank} recv src={} comm={} tag={} bytes={} seq={seq}",
            self.steps, m.src, m.comm.0, m.tag, m.bytes
        );
        let data = TraceData::DesStep { rank, op: "recv", peer: m.src, bytes: m.bytes };
        self.record(rank, line, Some(data));
    }

    fn rma(&mut self, rank: usize, _step: usize, op: &Op) {
        let (verb, win, target, bytes) = match *op {
            Op::Put { win, target, bytes, .. } => ("put", win, target, bytes),
            Op::Get { win, target, bytes, .. } => ("get", win, target, bytes),
            Op::Accumulate { win, target, bytes, .. } => ("accumulate", win, target, bytes),
            _ => return,
        };
        let line = format!(
            "t={} rank={rank} rma {verb} target={target} win={} bytes={bytes}",
            self.steps, win.0
        );
        self.record(rank, line, None);
    }

    fn barrier(&mut self, comm: CommId, occ: usize, arrived: &[(usize, usize)]) {
        // Every member's line describes the op that completed the barrier.
        let Some(&(last, last_step)) = arrived.last() else { return };
        let desc = match self.program.rank_ops(last)[last_step] {
            Op::Coll { kind, root: Some(root), .. } => {
                format!("coll {kind} comm={} root={root}", comm.0)
            }
            Op::Coll { kind, root: None, .. } => format!("coll {kind} comm={}", comm.0),
            Op::Fence { win } => format!("fence win={} comm={}", win.0, comm.0),
            _ => return,
        };
        for &(m, _) in arrived {
            let line = format!("t={} rank={m} {desc} occ={occ}", self.steps);
            let data = TraceData::DesStep { rank: m, op: "park", peer: last, bytes: 0 };
            self.record(m, line, Some(data));
        }
    }
}

/// Describe why `r` is not done (the normalized stuck dump).
fn stuck_line(it: &Interp<'_>, r: usize) -> String {
    let pc = it.pc(r);
    match it.program().rank_ops(r)[pc] {
        Op::Recv { comm, src, tag } => {
            let src = if let Src::Rank(s) = src { s.to_string() } else { "any".into() };
            let tag = if let Tag::Is(t) = tag { t.to_string() } else { "any".into() };
            format!(
                "rank {r} blocked at step {pc}: recv src={src} tag={tag} comm={} (0 eligible)",
                comm.0
            )
        }
        Op::Coll { comm, kind, .. } => {
            let occ = it.occurrence(r, comm);
            let arrived = it.arrived(comm, occ).len();
            let members = it.program().comm_members(comm).map_or(0, <[usize]>::len);
            format!(
                "rank {r} blocked at step {pc}: coll {kind} comm={} occ={occ} \
                 ({arrived}/{members} arrived)",
                comm.0
            )
        }
        Op::Fence { win } => format!("rank {r} blocked at step {pc}: fence win={}", win.0),
        ref op => format!("rank {r} blocked at step {pc}: {op:?}"),
    }
}

/// Run `program` to completion or deadlock under `policy`.
///
/// With a tracer attached, each rank also records flight-recorder events
/// on its own track (logical step counter as the clock), so a wedged run
/// can dump recent history via `Tracer::flight_report`.
pub fn run_model(
    program: &Program,
    policy: &dyn ModelPolicy,
    tracer: Option<&std::sync::Arc<Tracer>>,
) -> Result<RunOutput, String> {
    run_model_with(program, policy, tracer, None)
}

/// [`run_model`], additionally consulting the analyzer's static
/// [`IndependenceMap`]: wildcard sites it proves benign stop flagging
/// races (empty persistent sets, non-racy rank resumes) while their
/// decisions are still recorded, so a pruned run's decision log is
/// byte-identical to the unpruned run making the same choices.
pub fn run_model_with(
    program: &Program,
    policy: &dyn ModelPolicy,
    tracer: Option<&std::sync::Arc<Tracer>>,
    independence: Option<&IndependenceMap>,
) -> Result<RunOutput, String> {
    let tracks = (0..program.nranks()).map(|r| tracer.map(|t| t.track(format!("rank{r}"))));
    let mut rec = Recorder { program, tracks: tracks.collect(), trace: Vec::new(), steps: 0 };
    let mut it = Interp::new(program);
    it.run(&mut Steer::new(program, policy, independence), &mut rec)?;
    let stuck: Vec<String> =
        (0..program.nranks()).filter(|&r| !it.done(r)).map(|r| stuck_line(&it, r)).collect();
    if let Some(t) = tracer {
        t.flush();
    }
    Ok(RunOutput {
        trace: rec.trace,
        stuck: (!stuck.is_empty()).then_some(stuck),
        steps: rec.steps,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mim_analyze::{CollKind, CommId, WORLD};

    fn send(dst: usize, tag: u32) -> Op {
        Op::Send { comm: WORLD, dst, tag, bytes: 8 }
    }

    fn recv(src: usize, tag: u32) -> Op {
        Op::Recv { comm: WORLD, src: Src::Rank(src), tag: Tag::Is(tag) }
    }

    #[test]
    fn ping_pong_completes() {
        let mut p = Program::new("pp", 2);
        p.push(0, send(1, 0));
        p.push(0, recv(1, 0));
        p.push(1, recv(0, 0));
        p.push(1, send(0, 0));
        let pol = RecordingPolicy::canonical();
        let out = run_model(&p, &pol, None).unwrap();
        assert!(!out.deadlocked(), "{:?}", out.stuck);
        assert_eq!(out.steps, 4);
    }

    #[test]
    fn crossed_recvs_deadlock_with_normalized_dump() {
        let mut p = Program::new("crossed", 2);
        p.push(0, recv(1, 0));
        p.push(0, send(1, 0));
        p.push(1, recv(0, 0));
        p.push(1, send(0, 0));
        let pol = RecordingPolicy::canonical();
        let out = run_model(&p, &pol, None).unwrap();
        let stuck = out.stuck.expect("must wedge");
        assert_eq!(stuck.len(), 2);
        assert!(stuck[0].contains("rank 0 blocked at step 0: recv src=1"), "{stuck:?}");
    }

    #[test]
    fn barrier_and_rma_complete() {
        let mut p = Program::new("fence", 3);
        let w = p.add_window(WORLD);
        p.push(0, Op::Put { win: w, target: 2, offset: 0, bytes: 16 });
        for r in 0..3 {
            p.push(r, Op::Fence { win: w });
            p.push(r, Op::Coll { comm: WORLD, kind: CollKind::Barrier, root: None });
        }
        let pol = RecordingPolicy::canonical();
        let out = run_model(&p, &pol, None).unwrap();
        assert!(!out.deadlocked(), "{:?}", out.stuck);
    }

    #[test]
    fn missing_collective_participant_wedges() {
        let mut p = Program::new("short", 2);
        p.push(0, Op::Coll { comm: WORLD, kind: CollKind::Barrier, root: None });
        let pol = RecordingPolicy::canonical();
        let out = run_model(&p, &pol, None).unwrap();
        let stuck = out.stuck.expect("must wedge");
        assert!(stuck[0].contains("coll barrier comm=0 occ=0 (1/2 arrived)"), "{stuck:?}");
    }

    #[test]
    fn wildcard_decision_steers_the_match() {
        // Rank 1 sends tags 7 then 8; rank 0 wildcard-receives twice.
        let mut p = Program::new("steer", 2);
        p.push(1, send(0, 7));
        p.push(1, send(0, 8));
        p.push(0, Op::Recv { comm: WORLD, src: Src::Any, tag: Tag::Any });
        p.push(0, Op::Recv { comm: WORLD, src: Src::Any, tag: Tag::Any });
        let canonical = RecordingPolicy::canonical();
        let a = run_model(&p, &canonical, None).unwrap();
        // Steer every decision to its last alternative: the wildcard takes
        // tag 8 first.
        let steered = RecordingPolicy::scripted(vec![usize::MAX; 4]);
        let b = run_model(&p, &steered, None).unwrap();
        assert!(!a.deadlocked() && !b.deadlocked());
        let tag_of = |out: &RunOutput| {
            out.trace.iter().find(|l| l.contains("rank=0 recv")).map(|l| l.contains("tag=7"))
        };
        assert_eq!(tag_of(&a), Some(true), "{:?}", a.trace);
        assert_eq!(tag_of(&b), Some(false), "{:?}", b.trace);
        assert!(canonical.log().contains("w:0/2"), "{}", canonical.log());
    }

    #[test]
    fn same_decisions_are_byte_identical() {
        let mut p = Program::new("det", 3);
        for r in 1..3 {
            p.push(r, send(0, r as u32));
            p.push(0, Op::Recv { comm: WORLD, src: Src::Any, tag: Tag::Any });
        }
        p.push(0, Op::Coll { comm: WORLD, kind: CollKind::Allreduce, root: None });
        p.push(1, Op::Coll { comm: WORLD, kind: CollKind::Allreduce, root: None });
        p.push(2, Op::Coll { comm: WORLD, kind: CollKind::Allreduce, root: None });
        let rec = RecordingPolicy::random(vec![], 99);
        let a = run_model(&p, &rec, None).unwrap();
        let rep = ReplayPolicy::from_log(&rec.log()).unwrap();
        let b = run_model(&p, &rep, None).unwrap();
        assert_eq!(rep.divergence(), None);
        assert_eq!(a, b, "replayed run must be byte-identical");
    }

    #[test]
    fn subcommunicator_channels_are_scoped() {
        // Same (src, dst, tag) on two comms: the sub-comm recv must not
        // match the world send.
        let mut p = Program::new("scoped", 2);
        let sub: CommId = p.add_comm(vec![0, 1]);
        p.push(0, send(1, 0));
        p.push(0, Op::Send { comm: sub, dst: 1, tag: 0, bytes: 32 });
        p.push(1, Op::Recv { comm: sub, src: Src::Rank(0), tag: Tag::Is(0) });
        p.push(1, recv(0, 0));
        let pol = RecordingPolicy::canonical();
        let out = run_model(&p, &pol, None).unwrap();
        assert!(!out.deadlocked(), "{:?}", out.stuck);
        let first_recv = out.trace.iter().find(|l| l.contains("rank=1 recv")).unwrap();
        assert!(first_recv.contains("comm=1 tag=0 bytes=32"), "{first_recv}");
    }
}
