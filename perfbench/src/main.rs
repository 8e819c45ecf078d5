//! Workload runner of the repository benchmark.
//!
//! `perfbench/run.py` builds this binary and runs each workload in a
//! process of its own; `perfbench/README.md` describes the workloads, the
//! metrics and which layer should move which metric on which workload.
//!
//! The runner reaches the simulator only through public APIs and times each
//! layer from outside, around the calls into that layer.  Spans live in
//! rank-local buffers (no locks, no shared state) and are written out when
//! the run ends.  Output is one plain record per line on stdout; run.py
//! computes the statistics and emits the JSON result:
//!
//! | record                         | meaning                                |
//! |--------------------------------|----------------------------------------|
//! | `meta <key> <value>`           | a fact about the run                   |
//! | `sample <name> <value>`        | one sample of a distribution           |
//! | `span <layer> <ns> <step> <t>` | one traced span: duration, step, start |
//! | `layer <name> <value>`         | a per-layer count                      |
//! | `digest <label> <hex>`         | output digest of one launch kind       |
//! | `conserve <name> <want> <got>` | a conservation law, checked by run.py  |
//! | `fail <reason>`                | a failed operation                     |
//!
//! Usage: `mim-perfbench <stream|halo|reorder_cg|churn> --seed N
//! --seconds S [--trace] [--verify] [--executor threads|tasks]`.
//! `--verify` runs one launch of each kind instead of a timed loop and
//! adds the deterministic checks (sequential CG reference, the reordering
//! gain); run.py runs it on a second executor configuration and compares
//! digests.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mim_apps::cg;
use mim_apps::sparse::{cg_reference, Csr};
use mim_chaos::FaultPlan;
use mim_core::{Flags, Monitoring, Msid};
use mim_mpisim::trace::{Tracer, DEFAULT_RING_CAPACITY};
use mim_mpisim::{
    CanonicalPolicy, Comm, ExecutorKind, PmlEvent, PmlHook, Rank, SrcSel, TagSel, Universe,
    UniverseConfig,
};
use mim_reorder::monitored_reorder;
use mim_topology::{Machine, Placement};
use mim_util::rng::Rng;

// ----- spans -----------------------------------------------------------------

/// The layer boundaries the benchmark wraps.  Names are the per-layer
/// metric names run.py reports.
#[derive(Clone, Copy)]
enum Layer {
    Send,
    Recv,
    Allreduce,
    Allgather,
    Bcast,
    CommSplit,
    MonStart,
    MonSuspend,
    MonRootgather,
    MonFree,
    Pipeline,
    Liveness,
    Shrink,
    Grow,
    Admit,
    AwaitRejoin,
}

impl Layer {
    fn name(self) -> &'static str {
        match self {
            Layer::Send => "p2p.send_ns",
            Layer::Recv => "p2p.recv_ns",
            Layer::Allreduce => "coll.allreduce_ns",
            Layer::Allgather => "coll.allgather_ns",
            Layer::Bcast => "coll.bcast_ns",
            Layer::CommSplit => "coll.comm_split_ns",
            Layer::MonStart => "mon.start_ns",
            Layer::MonSuspend => "mon.suspend_ns",
            Layer::MonRootgather => "mon.rootgather_ns",
            Layer::MonFree => "mon.free_ns",
            Layer::Pipeline => "reorder.pipeline_ns",
            Layer::Liveness => "elastic.liveness_exchange_ns",
            Layer::Shrink => "elastic.comm_shrink_ns",
            Layer::Grow => "elastic.comm_grow_ns",
            Layer::Admit => "elastic.admit_ns",
            Layer::AwaitRejoin => "elastic.await_rejoin_ns",
        }
    }
}

/// One recorded span: the layer, the application step it belongs to (the
/// identifier the spans of one step share), its start relative to the
/// launch call, and its duration.
struct Span {
    layer: Layer,
    step: u32,
    start_ns: u64,
    dur_ns: u64,
}

/// A rank-local span buffer.  Disabled buffers cost one branch per call.
struct Spans {
    on: bool,
    origin: Instant,
    step: Cell<u32>,
    /// Record one per-message span (send/recv) in `p2p_stride`, so that a
    /// traced stream run keeps its buffer small; coarse layers record all.
    p2p_stride: u64,
    p2p_seq: Cell<u64>,
    buf: RefCell<Vec<Span>>,
}

impl Spans {
    fn new(on: bool, origin: Instant, p2p_stride: u64) -> Self {
        Self {
            on,
            origin,
            step: Cell::new(0),
            p2p_stride: p2p_stride.max(1),
            p2p_seq: Cell::new(0),
            buf: RefCell::new(Vec::new()),
        }
    }

    fn time<R>(&self, layer: Layer, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        if matches!(layer, Layer::Send | Layer::Recv) {
            let seq = self.p2p_seq.get();
            self.p2p_seq.set(seq + 1);
            if !seq.is_multiple_of(self.p2p_stride) {
                return f();
            }
        }
        let t0 = Instant::now();
        let r = f();
        let dur_ns = t0.elapsed().as_nanos() as u64;
        let start_ns = t0.duration_since(self.origin).as_nanos() as u64;
        self.buf.borrow_mut().push(Span { layer, step: self.step.get(), start_ns, dur_ns });
        r
    }
}

// ----- launches -----------------------------------------------------------------

/// How one launch runs.
struct Mode {
    executor: ExecutorKind,
    /// Record spans in this launch.
    traced: bool,
    /// Count every wire message with a global PML hook (untimed launches).
    count_wire: bool,
}

/// What one rank body hands back.
#[derive(Default)]
struct RankOut {
    /// Virtual time the digest records for this rank.
    vtime: f64,
    /// Host-time step samples (ns), kept by the rank that times steps.
    steps: Vec<f64>,
    /// Host time per message of each stream block (ns), rank 0 only.
    block_ns_per_msg: Vec<f64>,
    spans: Vec<Span>,
    /// Point-to-point receives that returned the expected source, tag and
    /// size.
    recvd: u64,
    /// Further digest words (results, permutations, residual bits).
    words: Vec<u64>,
    /// `Rank::max_unexpected_depth` at the end of the body.
    depth: usize,
    /// Message totals of the benchmark's WORLD monitoring sessions, read
    /// at the root.
    mon_msgs: Vec<u64>,
    /// `ReorderOutcome::mapping_wall_s` samples, rank 0 only.
    mapping_s: Vec<f64>,
    /// A wrong result the body detected.
    error: Option<String>,
}

/// Host-time marks shared by the rank bodies of one launch.
struct Marks {
    base: Instant,
    entered: AtomicU64,
    exited: AtomicU64,
}

impl Marks {
    fn since_base(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }
}

/// Counts every wire message the PML layer sees.
#[derive(Default)]
struct WireCount(AtomicU64);

impl PmlHook for WireCount {
    fn on_send(&self, _ev: &PmlEvent) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }
}

/// One finished launch.
struct Launch {
    /// Digest group: launches with equal labels must have equal digests.
    label: &'static str,
    /// Input generation + `Universe::new` + launch call until every rank
    /// body has been entered.
    setup_ns: f64,
    /// Launch call until every rank body has been entered.
    launch_ns: f64,
    /// Last rank-body exit, from the launch call.
    exited_ns: f64,
    /// Last rank-body exit until the launch call returns.
    join_ns: f64,
    ranks: Vec<RankOut>,
    nic_bytes: u64,
    nic_events: u64,
    /// Wire messages, when counted.
    wire: Option<u64>,
    /// Wire messages this launch issues by construction, when known.
    analytic_msgs: Option<u64>,
    /// Point-to-point messages the rank bodies receive, when known.
    analytic_recvd: Option<u64>,
    /// Messages each benchmark monitoring session records, when known.
    analytic_mon: Option<u64>,
    digest: u64,
}

/// Configuration shared by every workload: explicit executor, no tracer
/// from the environment, and a deadlock deadline well inside a run.
fn base_cfg(machine: Machine, placement: Placement, executor: ExecutorKind) -> UniverseConfig {
    let mut cfg = UniverseConfig::new(machine, placement).with_executor(executor);
    cfg.tracer = None;
    cfg.deadline = Duration::from_secs(20);
    cfg
}

/// Build the universe, launch `body` on every rank, and time the launch's
/// set-up and join.  `t_input` is when input generation started.  Rank
/// bodies of reborn incarnations and late joiners do not count as
/// "entered": set-up ends when the initial world is running.
fn run_launch(
    t_input: Instant,
    cfg: UniverseConfig,
    mode: &Mode,
    elastic: bool,
    p2p_stride: u64,
    body: impl Fn(&Rank, &Spans) -> RankOut + Sync,
) -> Result<Launch, String> {
    let u = Universe::new(cfg);
    let wire = mode.count_wire.then(|| {
        let w = Arc::new(WireCount::default());
        u.add_global_hook(w.clone());
        w
    });
    let marks =
        Marks { base: Instant::now(), entered: AtomicU64::new(0), exited: AtomicU64::new(0) };
    let wrapped = |rank: &Rank| {
        if rank.incarnation() == 0 && rank.join_comm().is_none() {
            marks.entered.fetch_max(marks.since_base(), Ordering::Relaxed);
        }
        let sp = Spans::new(mode.traced, marks.base, p2p_stride);
        let mut out = body(rank, &sp);
        out.spans = sp.buf.into_inner();
        marks.exited.fetch_max(marks.since_base(), Ordering::Relaxed);
        out
    };
    let ranks = catch_unwind(AssertUnwindSafe(|| {
        if elastic {
            u.launch_elastic(wrapped)
                .into_iter()
                .enumerate()
                .map(|(r, res)| match res {
                    Ok(out) => Ok(out.unwrap_or_default()),
                    Err(f) => Err(format!("rank {r} failed: {f:?}")),
                })
                .collect::<Result<Vec<_>, _>>()
        } else {
            Ok(u.launch(wrapped))
        }
    }));
    let returned = marks.since_base();
    let ranks = match ranks {
        Ok(r) => r?,
        Err(p) => {
            let msg = p
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "non-string panic".into());
            return Err(format!("panic: {}", msg.lines().next().unwrap_or("")));
        }
    };
    if let Some(e) = ranks.iter().find_map(|r| r.error.clone()) {
        return Err(e);
    }
    let nic = u.nic();
    let entered = marks.entered.load(Ordering::Relaxed);
    let exited = marks.exited.load(Ordering::Relaxed);
    Ok(Launch {
        label: "all",
        setup_ns: (marks.base - t_input).as_nanos() as f64 + entered as f64,
        launch_ns: entered as f64,
        exited_ns: exited as f64,
        join_ns: returned.saturating_sub(exited) as f64,
        nic_bytes: (0..nic.num_nodes()).map(|n| nic.xmit_bytes(n)).sum(),
        nic_events: (0..nic.num_nodes()).map(|n| nic.xmit_msgs(n)).sum(),
        wire: wire.map(|w| w.0.load(Ordering::Relaxed)),
        ranks,
        analytic_msgs: None,
        analytic_recvd: None,
        analytic_mon: None,
        digest: 0,
    })
}

/// FNV-1a over 64-bit words (little-endian bytes).
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// The digest words every workload shares: per-rank virtual times and
/// result words, then the NIC byte count.
fn common_digest(l: &Launch) -> u64 {
    let ranks = l
        .ranks
        .iter()
        .flat_map(|r| std::iter::once(r.vtime.to_bits()).chain(r.words.iter().copied()));
    fnv(ranks.chain(std::iter::once(l.nic_bytes)))
}

fn elapsed_ns(t0: Instant) -> f64 {
    t0.elapsed().as_nanos() as f64
}

// ----- workloads -----------------------------------------------------------------

/// One workload: its default executor, how many launches make a cycle of
/// distinct launch kinds, and the launch itself.
struct Workload {
    name: &'static str,
    executor: ExecutorKind,
    cycle: usize,
    /// One step sample per cycle, the sum of its launches' steps, instead
    /// of one per launch step.  Stream's rungs differ by up to 1.7× in
    /// cost: per-launch samples would mix five distributions and put the
    /// tail in the slowest rung's scheduling hiccups.
    cycle_step: bool,
    /// Per-message span sampling stride for traced launches.
    p2p_stride: u64,
    launch: fn(u64, usize, &Mode, u64) -> Result<Launch, String>,
}

const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "stream",
        executor: ExecutorKind::Threads,
        cycle: RUNGS.len(),
        cycle_step: true,
        p2p_stride: 8,
        launch: stream,
    },
    Workload {
        name: "halo",
        executor: ExecutorKind::Tasks,
        cycle: 1,
        cycle_step: false,
        p2p_stride: 1,
        launch: halo,
    },
    Workload {
        name: "reorder_cg",
        executor: ExecutorKind::Tasks,
        cycle: CG_PLACEMENTS.len(),
        cycle_step: false,
        p2p_stride: 1,
        launch: reorder_cg,
    },
    Workload {
        name: "churn",
        executor: ExecutorKind::Tasks,
        cycle: 1,
        cycle_step: false,
        p2p_stride: 1,
        launch: churn,
    },
];

// --- stream: the per-message send path, rung by rung ---

/// Cumulative seam rungs, cycled round-robin one launch each.
const RUNGS: [&str; 5] = ["bare", "sessions", "tracer", "chaos", "sched"];
/// One block of 20 000 messages per launch, so a rung's per-message cost
/// is one sample per launch; the step sample is a whole rung cycle (see
/// `Workload::cycle_step`).
const STREAM_BLOCKS: usize = 1;
const STREAM_BLOCK: usize = 20_000;
const STREAM_BYTES: u64 = 4096;
const STREAM_SESSIONS: usize = 4;
const ACK_TAG: u32 = 1 << 20;

fn stream(seed: u64, i: usize, mode: &Mode, p2p_stride: u64) -> Result<Launch, String> {
    let rung = i % RUNGS.len();
    let t_input = Instant::now();
    let mut rng = Rng::seed_from_u64(seed);
    let tags: Vec<u32> =
        (0..STREAM_BLOCKS * STREAM_BLOCK).map(|_| rng.next_u64() as u32 % ACK_TAG).collect();
    let mut cfg = base_cfg(Machine::cluster(2, 1, 1), Placement::packed(2), mode.executor);
    if rung >= 2 {
        cfg.tracer = Some(Tracer::new(DEFAULT_RING_CAPACITY));
    }
    if rung >= 3 {
        cfg = cfg.with_injector(FaultPlan::new(seed).into_injector());
    }
    if rung >= 4 {
        cfg = cfg.with_schedule_policy(Arc::new(CanonicalPolicy));
    }
    let mut l = run_launch(t_input, cfg, mode, false, p2p_stride, |rank, sp| {
        let world = rank.comm_world();
        let me = world.rank();
        let mut out = RankOut::default();
        let mon = (rung >= 1).then(|| Monitoring::init(rank).expect("monitoring init"));
        let ids: Vec<Msid> = mon
            .as_ref()
            .map(|m| {
                (0..STREAM_SESSIONS)
                    .map(|_| sp.time(Layer::MonStart, || m.start(rank, &world)).expect("start"))
                    .collect()
            })
            .unwrap_or_default();
        for (b, block) in tags.chunks(STREAM_BLOCK).enumerate() {
            sp.step.set(b as u32);
            if me == 0 {
                let t0 = Instant::now();
                for &tag in block {
                    sp.time(Layer::Send, || rank.send_synthetic(&world, 1, tag, STREAM_BYTES));
                }
                let st = sp.time(Layer::Recv, || {
                    rank.recv_synthetic(&world, SrcSel::Rank(1), TagSel::Is(ACK_TAG))
                });
                let dt = elapsed_ns(t0);
                out.steps.push(dt);
                out.block_ns_per_msg.push(dt / (block.len() + 1) as f64);
                out.recvd += u64::from((st.src, st.tag, st.bytes) == (1, ACK_TAG, 0));
            } else {
                for &tag in block {
                    let st = sp.time(Layer::Recv, || {
                        rank.recv_synthetic(&world, SrcSel::Rank(0), TagSel::Is(tag))
                    });
                    out.recvd += u64::from((st.src, st.tag, st.bytes) == (0, tag, STREAM_BYTES));
                }
                sp.time(Layer::Send, || rank.send_synthetic(&world, 0, ACK_TAG, 0));
            }
        }
        if let Some(m) = &mon {
            sp.time(Layer::MonSuspend, || m.suspend(Msid::ALL)).expect("suspend");
            let g = sp
                .time(Layer::MonRootgather, || m.rootgather_data(rank, ids[0], 0, Flags::P2P_ONLY))
                .expect("rootgather");
            if let Some(g) = g {
                out.words.extend([g.counts.total(), g.sizes.total()]);
                out.mon_msgs.push(g.counts.total());
            }
            for &id in &ids {
                sp.time(Layer::MonFree, || m.free(id)).expect("free");
            }
            m.finalize(rank).expect("finalize");
        }
        out.vtime = rank.now_ns();
        out.depth = rank.max_unexpected_depth();
        out
    })?;
    l.label = RUNGS[rung];
    let app = (STREAM_BLOCKS * (STREAM_BLOCK + 1)) as u64;
    // Session rungs add four 2-rank dissemination barriers (mon.start) and
    // one tree-gather message.
    l.analytic_msgs = Some(if rung >= 1 { app + 2 * STREAM_SESSIONS as u64 + 1 } else { app });
    l.analytic_recvd = Some(app);
    l.analytic_mon = (rung >= 1).then_some(app);
    l.digest = common_digest(&l);
    Ok(l)
}

// --- halo: executor park/resume, matching and collective decomposition ---

const HALO_SIDE: usize = 64;
const HALO_STEPS: usize = 8;
const HALO_BYTES: u64 = 1024;
const HALO_ALLREDUCE_EVERY: usize = 4;

fn halo(seed: u64, _i: usize, mode: &Mode, p2p_stride: u64) -> Result<Launch, String> {
    let n = HALO_SIDE * HALO_SIDE;
    let t_input = Instant::now();
    let machine = Machine::cluster(128, 2, 16);
    let placement = Placement::random(&machine.tree, n, seed);
    let mut rng = Rng::seed_from_u64(seed ^ 0x4a10);
    let contrib: Vec<u64> = (0..n).map(|_| rng.next_u64() >> 24).collect();
    let total = contrib.iter().fold(0u64, |a, &b| a.wrapping_add(b));
    let cfg = base_cfg(machine, placement, mode.executor);
    let mut l = run_launch(t_input, cfg, mode, false, p2p_stride, |rank, sp| {
        let world = rank.comm_world();
        let me = world.rank();
        let (x, y) = (me % HALO_SIDE, me / HALO_SIDE);
        let at = |x: usize, y: usize| (y % HALO_SIDE) * HALO_SIDE + x % HALO_SIDE;
        let nbrs = [at(x + HALO_SIDE - 1, y), at(x + 1, y), at(x, y + HALO_SIDE - 1), at(x, y + 1)];
        let mut out = RankOut::default();
        let mut t_step = Instant::now();
        for s in 0..HALO_STEPS {
            sp.step.set(s as u32);
            for &nb in &nbrs {
                sp.time(Layer::Send, || rank.send_synthetic(&world, nb, s as u32, HALO_BYTES));
            }
            for &nb in &nbrs {
                let st = sp.time(Layer::Recv, || {
                    rank.recv_synthetic(&world, SrcSel::Rank(nb), TagSel::Is(s as u32))
                });
                out.recvd += u64::from((st.src, st.tag, st.bytes) == (nb, s as u32, HALO_BYTES));
            }
            if s % HALO_ALLREDUCE_EVERY == HALO_ALLREDUCE_EVERY - 1 {
                let v = sp.time(Layer::Allreduce, || {
                    rank.allreduce(&world, &[contrib[me]], |a: u64, b| a.wrapping_add(b))
                });
                if v[0] != total {
                    out.error = Some(format!("halo allreduce {} != {total}", v[0]));
                }
            }
            if me == 0 {
                out.steps.push(elapsed_ns(t_step));
                t_step = Instant::now();
            }
        }
        out.vtime = rank.now_ns();
        out.depth = rank.max_unexpected_depth();
        out
    })?;
    let reductions = (HALO_STEPS / HALO_ALLREDUCE_EVERY) as u64;
    let log2n = u64::from(n.trailing_zeros());
    l.analytic_msgs = Some((HALO_STEPS * 4 * n) as u64 + reductions * n as u64 * log2n);
    l.analytic_recvd = Some((HALO_STEPS * 4 * n) as u64);
    l.digest = common_digest(&l);
    Ok(l)
}

// --- reorder_cg: the paper's Fig 1 + Fig 7 loop ---

const CG_RANKS: usize = 64;
const CG_ROUNDS: usize = 2;
/// Launches cycle through four seeded random placements (one digest label
/// each): the reordering gain of a single placement varies by about 10%
/// between seeds, the aggregate over four by half as much.
const CG_PLACEMENTS: [&str; 4] = ["p0", "p1", "p2", "p3"];

/// The machine, placement number `p`, class and matrix of a seed.
fn cg_inputs(seed: u64, p: usize) -> (Machine, Placement, cg::CgClass, Csr) {
    let machine = Machine::plafrim(3);
    let mut rng = Rng::seed_from_u64(seed);
    let placement_seed = (0..=p).map(|_| rng.next_u64()).last().expect("p + 1 draws");
    let placement = Placement::random(&machine.tree, CG_RANKS, placement_seed);
    let class = cg::class("B");
    let a = cg::generate_matrix(class, CG_RANKS, seed);
    (machine, placement, class, a)
}

/// Checks one reordering outcome with the benchmark's own collective
/// calls, recorded by a WORLD monitoring session the benchmark starts,
/// reads and frees itself: every rank holds rank 0's permutation (bcast),
/// the reordered communicator puts world rank `i` at `k[i]` (allgather),
/// and splitting it by world rank restores the world order (comm_split).
/// Returns the session's message total (at rank 0) and the first wrong
/// result.  `monitored_reorder` makes the same kinds of calls internally,
/// where the benchmark cannot time them.
fn check_reorder(
    rank: &Rank,
    mon: &Monitoring,
    world: &Comm,
    comm: &Comm,
    k: &[usize],
    sp: &Spans,
) -> (Option<u64>, Option<String>) {
    let me = world.rank();
    let id = sp.time(Layer::MonStart, || mon.start(rank, world)).expect("start");
    let mut k0: Vec<u64> = k.iter().map(|&v| v as u64).collect();
    sp.time(Layer::Bcast, || rank.bcast(world, 0, &mut k0));
    let placed = sp.time(Layer::Allgather, || rank.allgather(world, &[comm.rank() as u64]));
    let back = sp.time(Layer::CommSplit, || rank.comm_split(comm, 0, me as i64));
    sp.time(Layer::MonSuspend, || mon.suspend(id)).expect("suspend");
    let gathered = sp
        .time(Layer::MonRootgather, || mon.rootgather_data(rank, id, 0, Flags::ALL_COMM))
        .expect("rootgather");
    sp.time(Layer::MonFree, || mon.free(id)).expect("free");
    let follows = |v: &[u64]| v.iter().map(|&x| x as usize).eq(k.iter().copied());
    let error = if !follows(&k0) {
        Some(format!("rank {me} holds another permutation than rank 0"))
    } else if !follows(&placed) {
        Some("the reordered communicator does not follow the permutation".into())
    } else if back.rank() != me {
        Some(format!("splitting by world rank put world rank {me} at {}", back.rank()))
    } else {
        None
    };
    (gathered.map(|g| g.counts.total()), error)
}

/// Wire messages of the calls in `check_reorder` the session records, on
/// `n` ranks: a binomial bcast (n−1), a ring allgather (n(n−1)) and
/// comm_split (a ring allgather and a binomial bcast).
fn check_reorder_msgs(n: u64) -> u64 {
    2 * (n * (n - 1) + (n - 1))
}

fn reorder_cg(seed: u64, i: usize, mode: &Mode, p2p_stride: u64) -> Result<Launch, String> {
    let p = i % CG_PLACEMENTS.len();
    let t_input = Instant::now();
    let (machine, placement, class, a) = cg_inputs(seed, p);
    let cfg = base_cfg(machine, placement, mode.executor);
    let mut l = run_launch(t_input, cfg, mode, false, p2p_stride, |rank, sp| {
        let world = rank.comm_world();
        let lead = world.rank() == 0;
        let mon = Monitoring::init(rank).expect("monitoring init");
        let mut out = RankOut::default();
        let solve = |comm: &Comm, iters: usize| {
            cg::run_cg_charged(rank, comm, &a, iters, class.flops_per_iter).1.residual
        };
        let t0 = Instant::now();
        let residual = solve(&world, class.iters);
        if lead {
            out.steps.push(elapsed_ns(t0) / class.iters as f64);
        }
        // Everything up to here is free of host-timed charges.
        out.vtime = rank.now_ns();
        out.words.push(residual.to_bits());
        for round in 0..CG_ROUNDS {
            sp.step.set(round as u32 + 1);
            let t0 = Instant::now();
            let o = sp.time(Layer::Pipeline, || {
                monitored_reorder(rank, &mon, &world, Flags::ALL_COMM, |c| {
                    solve(c, 1);
                })
            });
            let t1 = Instant::now();
            let (mon_msgs, error) = check_reorder(rank, &mon, &world, &o.comm, &o.k, sp);
            out.error = out.error.or(error);
            out.mon_msgs.extend(mon_msgs);
            let t2 = Instant::now();
            let residual = solve(&o.comm, class.iters);
            if lead {
                out.steps.push((t1 - t0).as_nanos() as f64);
                out.steps.push(elapsed_ns(t2) / class.iters as f64);
                out.mapping_s.push(o.mapping_wall_s);
                out.words.extend(o.k.iter().map(|&v| v as u64));
            }
            out.words.push(residual.to_bits());
        }
        mon.finalize(rank).expect("finalize");
        out.depth = rank.max_unexpected_depth();
        out
    })?;
    // Per solve of I iterations: 2I+1 recursive-doubling allreduces
    // (n·log2 n messages each) and I ring allgathers (n(n−1)).  Per round:
    // a dissemination barrier (mon.start), one monitored iteration, a tree
    // gather (n−1), a binomial bcast (n−1) and comm_split (allgather ring
    // + bcast); then the check: another barrier, its collectives and tree
    // gather.
    let n = CG_RANKS as u64;
    let log2n = u64::from(CG_RANKS.trailing_zeros());
    let solve = |i: u64| (2 * i + 1) * n * log2n + i * n * (n - 1);
    let pipeline = n * log2n + solve(1) + (n - 1) + (n - 1) + n * (n - 1) + (n - 1);
    let check = n * log2n + check_reorder_msgs(n) + (n - 1);
    let iters = class.iters as u64;
    l.analytic_msgs = Some(solve(iters) + CG_ROUNDS as u64 * (pipeline + check + solve(iters)));
    l.analytic_mon = Some(check_reorder_msgs(n));
    l.label = CG_PLACEMENTS[p];
    l.digest = common_digest(&l);
    Ok(l)
}

/// Virtual CG communication time on placement `p`, and on the communicator
/// reordered by `k`, summed over ranks.  Nothing in this launch is charged
/// with host time, so both sums are exact.
fn cg_comm_ns(seed: u64, p: usize, k: &[usize], executor: ExecutorKind) -> (f64, f64) {
    let (machine, placement, class, a) = cg_inputs(seed, p);
    let u = Universe::new(base_cfg(machine, placement, executor));
    let comm_ns = u.launch(|rank| {
        let world = rank.comm_world();
        let before = cg::run_cg_charged(rank, &world, &a, class.iters, class.flops_per_iter).1;
        let opt = rank.comm_split(&world, 0, k[world.rank()] as i64);
        let after = cg::run_cg_charged(rank, &opt, &a, class.iters, class.flops_per_iter).1;
        (before.comm_ns, after.comm_ns)
    });
    comm_ns.iter().fold((0.0, 0.0), |(b, a), c| (b + c.0, a + c.1))
}

/// The distributed baseline residual must agree with the sequential
/// reference solver on the same matrix.
fn cg_reference_check(seed: u64, residual: f64) -> Result<(), String> {
    let (_, _, class, a) = cg_inputs(seed, 0);
    let b = vec![1.0; a.order()];
    let (_, reference, _) = cg_reference(&a, &b, class.iters, 0.0);
    let rel = (reference - residual).abs() / reference.abs().max(f64::MIN_POSITIVE);
    if rel > 1e-6 {
        return Err(format!("CG residual {residual:e} vs sequential {reference:e}"));
    }
    Ok(())
}

// --- churn: the chaos seam and elastic membership ---

const CHURN_RANKS: usize = 256;
/// The rank the plan crash-restarts and its crash point.  The seed drives
/// the plan's delay verdicts only: which rank restarts changes the cost of
/// the protocol by about 10%, which would make seeds different workloads.
const CHURN_VICTIM: usize = 2;
const CHURN_CRASH_OPS: u64 = 5;

fn churn(seed: u64, _i: usize, mode: &Mode, p2p_stride: u64) -> Result<Launch, String> {
    let n = CHURN_RANKS;
    let victim = CHURN_VICTIM;
    let t_input = Instant::now();
    let plan = FaultPlan::new(seed).delay(0.2, 30_000.0).restart_at_ops(victim, CHURN_CRASH_OPS);
    let latent = n;
    let cfg = base_cfg(
        Machine::cluster((n + 1).div_ceil(64), 1, 64),
        Placement::packed(n + 1),
        mode.executor,
    )
    .with_latent_ranks(1)
    .with_injector(plan.into_injector());
    let mut l = run_launch(t_input, cfg, mode, true, p2p_stride, |rank, sp| {
        let t0 = Instant::now();
        let mut out = RankOut::default();
        let full = if let Some(c) = rank.join_comm() {
            c
        } else {
            let grown = if rank.incarnation() > 0 {
                rank.recv_admission()
            } else {
                let world = rank.comm_world();
                let me = world.rank();
                let left = (me + n - 1) % n;
                for r in 0..4u64 {
                    sp.step.set(r as u32);
                    sp.time(Layer::Send, || rank.send(&world, (me + 1) % n, 7, &[me as u64 + r]));
                    // A receive from the restarted rank may report its
                    // failure instead; a delivered message must be right.
                    let got = sp.time(Layer::Recv, || rank.recv_or_failure::<u64>(&world, left, 7));
                    if let Ok((v, _)) = got {
                        if v != [left as u64 + r] {
                            out.error =
                                Some(format!("churn ring: rank {me} got {v:?} in round {r}"));
                        }
                    }
                }
                sp.step.set(4);
                let alive = sp.time(Layer::Liveness, || rank.liveness_exchange(&world));
                let work = sp.time(Layer::Shrink, || rank.comm_shrink(&world, &alive));
                let _ = sp.time(Layer::AwaitRejoin, || rank.await_rejoin(victim));
                if work.rank() == 0 {
                    sp.time(Layer::Admit, || rank.admit(&work, victim))
                } else {
                    sp.time(Layer::Grow, || rank.comm_grow(&work, &[victim]))
                }
            };
            if grown.rank() == 0 {
                sp.time(Layer::Admit, || rank.admit(&grown, latent))
            } else {
                sp.time(Layer::Grow, || rank.comm_grow(&grown, &[latent]))
            }
        };
        let members = sp.time(Layer::Allreduce, || rank.allreduce(&full, &[1u64], |a, b| a + b))[0];
        if members != n as u64 + 1 {
            out.error = Some(format!("churn world has {members} members, want {}", n + 1));
        }
        out.words.push(members);
        if rank.world_rank() == 0 {
            out.steps.push(elapsed_ns(t0));
        }
        out.vtime = rank.now_ns();
        out.depth = rank.max_unexpected_depth();
        out
    })?;
    l.digest = common_digest(&l);
    Ok(l)
}

// ----- main -----------------------------------------------------------------

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    verify: bool,
    executor: Option<ExecutorKind>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let name = it.next().ok_or("missing workload name")?;
    let workload =
        WORKLOADS.iter().find(|w| w.name == name).ok_or(format!("unknown workload {name:?}"))?;
    let mut args =
        Args { workload, seed: 0, seconds: 10.0, trace: false, verify: false, executor: None };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => args.trace = true,
            "--verify" => args.verify = true,
            "--executor" => {
                args.executor = Some(match value()?.as_str() {
                    "threads" => ExecutorKind::Threads,
                    "tasks" => ExecutorKind::Tasks,
                    other => return Err(format!("unknown executor {other:?}")),
                });
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(args)
}

/// A numeric field of `/proc/self/status` (kB for sizes), 0 if absent.
fn proc_status(key: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .unwrap_or(0.0)
}

/// Collects the records of one run and prints them at the end.
#[derive(Default)]
struct Records {
    lines: Vec<String>,
    /// Per layer: `(step, start_ns, dur_ns)` of every recorded span.
    spans: BTreeMap<&'static str, Vec<(u32, u64, u64)>>,
}

impl Records {
    fn push(&mut self, line: String) {
        self.lines.push(line);
    }

    fn sample(&mut self, name: &str, v: f64) {
        self.push(format!("sample {name} {v}"));
    }

    /// Print everything; per-layer spans are thinned to at most
    /// `MAX_SPANS` per layer by uniform striding, which keeps the
    /// distribution.
    fn print(self) {
        const MAX_SPANS: usize = 10_000;
        let mut out = self.lines.join("\n");
        for (layer, spans) in self.spans {
            let stride = spans.len().div_ceil(MAX_SPANS).max(1);
            for (step, start, dur) in spans.iter().step_by(stride) {
                out.push_str(&format!("\nspan {layer} {dur} {step} {start}"));
            }
        }
        println!("{out}");
    }
}

/// First-seen digest per launch label; later launches must match it.
#[derive(Default)]
struct Digests(BTreeMap<&'static str, u64>);

impl Digests {
    fn check(&mut self, l: &Launch) -> Result<(), String> {
        let want = *self.0.entry(l.label).or_insert(l.digest);
        if want != l.digest {
            return Err(format!("digest of {} launch {:016x} != {want:016x}", l.label, l.digest));
        }
        Ok(())
    }
}

/// The untimed launches that start every run: one launch of each kind,
/// with every wire message counted.  They fix the reference digests and
/// check the analytic message counts against the hook.  Each waits until
/// the previous launch's worker threads have exited, which they do after
/// `launch` returns, so that the peak RSS the verify process reports does
/// not depend on how two launches' threads happened to overlap.
fn reference_cycle(
    w: &Workload,
    seed: u64,
    executor: ExecutorKind,
    rec: &mut Records,
    digests: &mut Digests,
) -> Result<Vec<Launch>, String> {
    let mode = Mode { executor, traced: false, count_wire: true };
    let mut launches = Vec::new();
    for i in 0..w.cycle {
        let t = Instant::now();
        while proc_status("Threads:") > 1.0 && t.elapsed() < Duration::from_secs(2) {
            std::thread::sleep(Duration::from_millis(1));
        }
        let l = (w.launch)(seed, i, &mode, w.p2p_stride)?;
        digests.check(&l)?;
        let all = l.wire.expect("reference launches count wire messages");
        if let Some(want) = l.analytic_msgs {
            rec.push(format!("conserve wire_msgs.{} {want} {all}", l.label));
        }
        rec.push(format!("digest {} {:016x}", l.label, l.digest));
        rec.push(format!("meta msgs_per_launch.{} {all}", l.label));
        launches.push(l);
    }
    Ok(launches)
}

fn verify(
    w: &Workload,
    seed: u64,
    executor: ExecutorKind,
    rec: &mut Records,
) -> Result<(), String> {
    let mut digests = Digests::default();
    let launches = reference_cycle(w, seed, executor, rec, &mut digests)?;
    // Peak RSS (MiB) after one launch of each kind (every rung or
    // placement) in a fresh process.  run.py runs this on one worker, whose
    // schedule is deterministic, with one malloc arena; on two workers, or
    // on the threads executor, the peak follows how the threads happen to
    // interleave (stream: 3.7-4.7 MB over six fresh threads-executor
    // processes).  Over a timed loop it would grow with the number of
    // launches a fast run fits in, as the allocator keeps freed memory.
    rec.push(format!("meta peak_rss_mb {}", proc_status("VmHWM:") / 1024.0));
    if w.name == "reorder_cg" {
        cg_reference_check(seed, f64::from_bits(launches[0].ranks[0].words[0]))?;
        // The gain over the whole placement cycle: total communication
        // time before reordering over the total after.
        let (mut before, mut after) = (0.0, 0.0);
        for (p, l) in launches.iter().enumerate() {
            let k: Vec<usize> =
                l.ranks[0].words[1..=CG_RANKS].iter().map(|&v| v as usize).collect();
            let (b, a) = cg_comm_ns(seed, p, &k, executor);
            before += b;
            after += a;
        }
        rec.push(format!("meta sim_comm_gain {}", before / after));
    }
    Ok(())
}

/// Per-launch records of the timed loop.  `cycle_ms` accumulates the
/// step time of the current cycle for `cycle_step` workloads (NaN once a
/// launch of the cycle failed).
fn record_launch(
    w: &Workload,
    l: &Launch,
    traced: bool,
    rec: &mut Records,
    cycle_ms: &mut f64,
    cycle_end: bool,
) {
    let lead = l.ranks.iter().find(|r| !r.steps.is_empty());
    let steps = lead.map_or(&[][..], |r| &r.steps[..]);
    let step_name = if traced { "traced_step_ms" } else { "step_ms" };
    if w.cycle_step {
        *cycle_ms += steps.iter().sum::<f64>() / 1e6;
        if cycle_end {
            if !cycle_ms.is_nan() {
                rec.sample(step_name, *cycle_ms);
            }
            *cycle_ms = 0.0;
        }
    } else {
        for &s in steps {
            rec.sample(step_name, s / 1e6);
        }
    }
    if !traced {
        rec.sample("setup_s", l.setup_ns / 1e9);
        if w.name == "stream" {
            for &v in &l.ranks[0].block_ns_per_msg {
                rec.sample(&format!("rung.{}", l.label), v);
            }
        }
        return;
    }
    let launch_spans =
        [("exec.launch_ns", 0.0, l.launch_ns), ("exec.join_ns", l.exited_ns, l.join_ns)];
    for (name, start, dur) in launch_spans {
        rec.spans.entry(name).or_default().push((0, start as u64, dur as u64));
    }
    for r in &l.ranks {
        for s in &r.spans {
            rec.spans.entry(s.layer.name()).or_default().push((s.step, s.start_ns, s.dur_ns));
        }
        for &m in &r.mapping_s {
            rec.sample("reorder.mapping_s", m);
        }
    }
    let depth = l.ranks.iter().map(|r| r.depth).max().unwrap_or(0);
    rec.push(format!("layer mailbox.max_unexpected_depth {depth}"));
    rec.push(format!("layer nic.bytes {}", l.nic_bytes));
    rec.push(format!("layer nic.events {}", l.nic_events));
    // Conservation: the receives the rank bodies observed, the totals of
    // the benchmark's monitoring sessions and (stream: every message
    // crosses the network) the NIC events must agree with the analytic
    // counts.
    if let Some(want) = l.analytic_recvd {
        let got: u64 = l.ranks.iter().map(|r| r.recvd).sum();
        rec.push(format!("conserve p2p_recvd.{} {want} {got}", l.label));
    }
    if let Some(want) = l.analytic_mon {
        for m in l.ranks.iter().flat_map(|r| &r.mon_msgs) {
            rec.push(format!("conserve monitoring_msgs.{} {want} {m}", l.label));
        }
    }
    if w.name == "stream" {
        let want = l.analytic_msgs.unwrap_or(0);
        rec.push(format!("conserve nic_events.{} {want} {}", l.label, l.nic_events));
    }
}

fn measure(args: &Args, rec: &mut Records) -> Result<(), String> {
    let w = args.workload;
    let executor = args.executor.unwrap_or(w.executor);
    let mut digests = Digests::default();
    let reference = reference_cycle(w, args.seed, executor, rec, &mut digests)?;
    let msgs_per_launch: Vec<u64> = reference.iter().map(|l| l.wire.unwrap_or(0)).collect();
    drop(reference);

    let deadline = Duration::from_secs_f64(args.seconds);
    let t0 = Instant::now();
    let (mut launches, mut msgs) = (0usize, 0u64);
    let mut cycle_ms = 0.0;
    // Whole cycles only, so every launch kind is equally represented; a
    // traced run alternates traced and untraced cycles, and the gap
    // between the two is the tracing overhead.
    while launches == 0 || t0.elapsed() < deadline || launches % w.cycle != 0 {
        let i = launches;
        let traced = args.trace && (i / w.cycle) % 2 == 1;
        let mode = Mode { executor, traced, count_wire: false };
        launches += 1;
        match (w.launch)(args.seed, i, &mode, w.p2p_stride)
            .and_then(|l| digests.check(&l).map(|()| l))
        {
            Ok(l) => {
                msgs += msgs_per_launch[i % w.cycle];
                record_launch(w, &l, traced, rec, &mut cycle_ms, launches % w.cycle == 0);
            }
            Err(e) => {
                cycle_ms = if launches % w.cycle == 0 { 0.0 } else { f64::NAN };
                rec.push(format!("fail {}", e.replace('\n', " ")));
            }
        }
    }
    let loop_s = t0.elapsed().as_secs_f64();
    rec.push(format!("meta loop_s {loop_s}"));
    rec.push(format!("meta launches {launches}"));
    rec.push(format!("meta msgs {msgs}"));
    Ok(())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mim-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let executor = args.executor.unwrap_or(args.workload.executor);
    let mut rec = Records::default();
    rec.push(format!("meta workload {}", args.workload.name));
    rec.push(format!(
        "meta executor {}",
        if executor == ExecutorKind::Tasks { "tasks" } else { "threads" }
    ));
    let result = if args.verify {
        verify(args.workload, args.seed, executor, &mut rec)
    } else {
        measure(&args, &mut rec)
    };
    if let Err(e) = result {
        rec.push(format!("fail {}", e.replace('\n', " ")));
    }
    rec.print();
}
