//! Map-task assignment: the three *mapstyles* of MapReduce-MPI.
//!
//! The original library's `mapstyle` setting selects how the `nmap` task
//! indices of a `map()` call are assigned to ranks:
//!
//! * `Chunk` — rank *r* gets the contiguous block of tasks
//!   `[r·n/P, (r+1)·n/P)`;
//! * `RoundRobin` — rank *r* gets tasks `r, r+P, r+2P, …`;
//! * `MasterWorker` — rank 0 acts as a dedicated master handing one task at a
//!   time to whichever worker asks next. The paper uses this mode for BLAST,
//!   "such that each worker is kept occupied as long as there are remaining
//!   work units", because BLAST work-unit runtimes are highly skewed.
//!
//! In a world of one rank every style degenerates to running all tasks
//! locally.

use std::time::Duration;

use mpisim::{Comm, MpiError, ANY_SOURCE};

/// Tag for a worker's "give me work" request.
const TAG_REQ: u32 = 0x4D52_0001;
/// Tag for the master's task assignment / termination reply.
const TAG_TASK: u32 = 0x4D52_0002;

/// Sentinel index meaning "no more tasks".
const DONE: u64 = u64::MAX;
/// Sentinel index meaning "the run is being abandoned" (fault-tolerant
/// scheduler only).
const ABORT: u64 = u64::MAX - 1;
/// Sentinel for "no unit completed yet" in a worker's request.
const NO_UNIT: u64 = u64::MAX - 2;
/// Sentinel `completed` value confirming receipt of `DONE`/`ABORT`
/// (fault-tolerant scheduler only). The master holds each farewell until
/// every live worker has said farewell (a termination barrier: a worker can
/// still die on receiving `DONE`), then answers them all with `DONE`. It
/// keeps answering retransmissions until then, so a dropped termination
/// reply cannot strand a worker.
const FAREWELL: u64 = u64::MAX - 3;
/// Sentinel reply telling a parked worker "no work yet, but I am alive"
/// (fault-tolerant scheduler only); resets the worker's retry budget so a
/// long-running unit elsewhere cannot exhaust it.
const WAIT: u64 = u64::MAX - 4;
/// Sentinel sequence number marking a one-way progress beacon
/// ([`ft_beacon`]): the master refreshes the sender's heartbeat deadline and
/// sends no reply, bypassing the request/seq dedup machinery entirely.
const BEACON: u64 = u64::MAX - 5;

/// Worker-request completion flags (third word of the request).
const FLAG_NONE: u64 = 0;
/// The reported unit ran to completion; its staged output awaits a verdict.
const FLAG_OK: u64 = 1;
/// The reported unit panicked (or was poison-injected); nothing is staged.
const FLAG_PANIC: u64 = 2;

/// Master-reply verdicts (third word of the reply) for the completion the
/// worker reported in the request being answered.
const V_NONE: u64 = 0;
/// First result for the unit: publish the staged output.
const V_COMMIT: u64 = 1;
/// A backup (or the primary) already won the unit: drop the staged output.
const V_DISCARD: u64 = 2;

// Scheduler-log record kinds. Every master state transition is journaled as
// one `[round, lsn, kind, unit, worker]` record — appended to the durable
// log ([`FtConfig::log_path`]) and mirrored to the standby rank by
// piggybacking on reply traffic ([`FtConfig::mirror`]), so an elected
// successor can replay the acting master's accounting.
/// A unit was handed to a worker (primary or speculative dispatch).
const LOG_DISPATCH: u64 = 1;
/// A completion won its unit; the worker's staged output was published.
const LOG_COMMIT: u64 = 2;
/// A completion lost arbitration; its staged output was dropped.
const LOG_DISCARD: u64 = 3;
/// The unit exhausted its poison retries and was quarantined.
const LOG_QUARANTINE: u64 = 4;
/// A silent straggler was fenced off the run after losing to a backup.
const LOG_FENCE: u64 = 5;

/// Words per scheduler-log record: `[round, lsn, kind, unit, worker]`.
const LOG_REC_WORDS: usize = 5;
/// Cap on log records piggybacked onto one reply, bounding message size;
/// the remainder follows on subsequent replies.
const MAX_PIGGYBACK: usize = 32;
/// Words of a reply frame before the piggybacked log records:
/// `[seq_echo, code, verdict, epoch, nrec]`.
const REPLY_HEAD: usize = 5;
/// Words of a request frame before the claim list:
/// `[seq, completed, flag, epoch, generation, nclaims]`.
const REQ_HEAD: usize = 6;

thread_local! {
    /// The rank this rank currently believes holds the master *role* (one
    /// cell per rank: the simulator runs ranks as threads). Routes
    /// [`ft_beacon`] traffic to the acting master across failovers.
    static CURRENT_MASTER: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Task-to-rank assignment policy for [`crate::MapReduce::map_tasks`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MapStyle {
    /// Contiguous blocks of tasks per rank (original `mapstyle 0`).
    Chunk,
    /// Strided assignment: task `t` runs on rank `t % P` (original
    /// `mapstyle 1`).
    RoundRobin,
    /// Rank 0 is a dedicated master doling out tasks dynamically (original
    /// `mapstyle 2`); this is the load-balanced mode the paper's BLAST uses.
    /// It runs on the fault-tolerant scheduler ([`assign_and_run_ft_report`])
    /// with [`DispatchPolicy::Fifo`].
    MasterWorker,
}

/// How the master-worker scheduler picks the next pending unit for a worker
/// that asks for work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DispatchPolicy<'a> {
    /// Units go out in index order (requeued units join the back).
    Fifo,
    /// The paper's locality-aware master: `affinity[t]` names the resource
    /// (DB partition) unit `t` needs. A worker gets a unit of the resource it
    /// was last handed while one remains; otherwise a unit of the resource
    /// with the most pending units (ties to the first-seen resource), so
    /// late-run workers spread across resources instead of piling onto one.
    /// Units within a resource go out in index order. Degenerates to `Fifo`
    /// when all affinities are equal.
    Affinity(&'a [usize]),
}

/// Execute `run(task)` for every task index a static mapstyle (`Chunk` or
/// `RoundRobin`) gives this rank. Returns the task indices executed locally,
/// in execution order.
///
/// # Panics
/// Panics on `MasterWorker`: it has no static assignment and runs on
/// [`assign_and_run_ft_report`].
pub(crate) fn assign_and_run(
    comm: &Comm,
    ntasks: usize,
    style: MapStyle,
    mut run: impl FnMut(usize),
) -> Vec<usize> {
    let size = comm.size();
    let rank = comm.rank();
    let mine: Vec<usize> = match style {
        MapStyle::Chunk => (rank * ntasks / size..(rank + 1) * ntasks / size).collect(),
        MapStyle::RoundRobin => (rank..ntasks).step_by(size).collect(),
        MapStyle::MasterWorker => panic!("MasterWorker runs on the fault-tolerant scheduler"),
    };
    mine.iter().for_each(|&t| run(t));
    mine
}

// ----------------------------------------------------------------------
// Fault-tolerant master-worker scheduling
// ----------------------------------------------------------------------

/// Tuning knobs of the fault-tolerant scheduler ([`assign_and_run_ft_report`]).
#[derive(Debug, Clone)]
pub struct FtConfig {
    /// Per-request wall-clock timeout for a worker waiting on the master's
    /// reply (and for the master waiting on requests). This is the liveness
    /// backstop that bounds every blocking wait; it is not charged to the
    /// virtual clock.
    pub rpc_timeout: Duration,
    /// How many times a worker re-sends one request before concluding the
    /// master is unreachable.
    pub max_rpc_retries: usize,
    /// How many times one work unit may be dispatched (first dispatch
    /// included) before the master aborts the whole run.
    pub max_attempts: usize,
    /// Enable speculative re-execution of units stuck on *suspected*
    /// (heartbeat-silent) workers. Off by default: speculation trades spare
    /// cycles for tail latency and is only worthwhile when stragglers are
    /// expected.
    pub speculate: bool,
    /// Heartbeat deadline of the failure detector: a worker with a unit in
    /// flight that has been silent (no request, no beacon) for this long is
    /// declared *suspected*. Wall-clock, like [`FtConfig::rpc_timeout`].
    pub suspect_after: Duration,
    /// Initial backoff between speculative launches of the same unit; it
    /// doubles after each launch so a genuinely slow unit does not fan out
    /// across every idle worker.
    pub spec_backoff: Duration,
    /// How many times one unit may panic before it is *quarantined* (dropped
    /// from the run and reported) instead of retried. Must stay below
    /// [`FtConfig::max_attempts`] or the run aborts before quarantine fires.
    pub poison_retries: usize,
    /// Treat the master as a *role*, not a rank (the default). When the
    /// acting master dies — or stalls past a worker's whole retry budget —
    /// survivors depose it and elect the lowest eligible rank as successor,
    /// which replays the scheduler log, gathers the survivors' commit
    /// claims, and resumes dispatch. When `false`, master loss keeps the
    /// legacy fail-fast behaviour: workers return
    /// [`SchedError::MasterDied`] / [`SchedError::MasterUnreachable`].
    pub failover: bool,
    /// Mirror scheduler-log records to the standby (the lowest eligible
    /// non-master rank) by piggybacking them on reply traffic, so a
    /// successor can replay accounting without a durable log. Only
    /// meaningful with [`FtConfig::failover`]; on by default.
    pub mirror: bool,
    /// Durable scheduler-log file: every master state transition is
    /// appended as a CRC-framed record through [`crate::durable`]. A
    /// successor master replays the longer of this file and its mirrored
    /// copy. `None` (the default) relies on mirroring alone.
    pub log_path: Option<std::path::PathBuf>,
    /// Seeded disk-fault plan consulted on scheduler-log appends, letting
    /// chaos campaigns tear or corrupt the log itself. Log damage is never
    /// fatal: replay recovers the valid prefix and the claim gather covers
    /// the rest.
    pub log_faults: Option<std::sync::Arc<crate::durable::DiskFaultPlan>>,
}

impl Default for FtConfig {
    fn default() -> Self {
        FtConfig {
            rpc_timeout: Duration::from_millis(200),
            max_rpc_retries: 150,
            max_attempts: 8,
            speculate: false,
            suspect_after: Duration::from_millis(500),
            spec_backoff: Duration::from_millis(300),
            poison_retries: 3,
            failover: true,
            mirror: true,
            log_path: None,
            log_faults: None,
        }
    }
}

/// Typed failure of a fault-tolerant scheduled run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchedError {
    /// The master exhausted [`FtConfig::max_attempts`] dispatches of `unit`
    /// and abandoned the run.
    Aborted {
        /// The unit that kept failing.
        unit: u64,
    },
    /// A worker could not reach the master within its retry budget.
    MasterUnreachable,
    /// The master rank died; workers cannot make progress.
    MasterDied,
    /// Every worker died before all units completed.
    AllWorkersDead,
}

impl std::fmt::Display for SchedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchedError::Aborted { unit } => {
                write!(f, "work unit {unit} exceeded its dispatch-attempt budget; run aborted")
            }
            SchedError::MasterUnreachable => write!(f, "master did not answer within the retry budget"),
            SchedError::MasterDied => write!(f, "master rank died"),
            SchedError::AllWorkersDead => write!(f, "all workers died with work outstanding"),
        }
    }
}

impl std::error::Error for SchedError {}

/// Outcome of a fault-tolerant scheduled run ([`assign_and_run_ft_report`]).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FtRun {
    /// Unit indices whose output this rank *committed* (first-result-wins),
    /// in execution order. Empty on a rank that only ever held the master
    /// role; a worker elected master mid-run keeps the units it committed
    /// while it was serving.
    pub units: Vec<usize>,
    /// Units quarantined as poison (each panicked
    /// [`FtConfig::poison_retries`] times), sorted. Populated on the *final
    /// acting master* only — workers learn about quarantine indirectly,
    /// through the higher layer's reconciliation exchange.
    pub quarantined: Vec<u64>,
}

/// Dynamic master-worker scheduling that survives worker deaths, stragglers,
/// and poison work units.
///
/// Protocol (at-least-once RPC with master-side dedup, so dropped or delayed
/// messages are harmless):
///
/// * a worker's request carries `[seq, completed, flag, epoch, generation,
///   nclaims, claims…]`: `flag` says whether `completed` ran clean
///   (`FLAG_OK`) or panicked (`FLAG_PANIC`); `epoch` is the rank the worker
///   believes holds the master role (the fencing tag); `generation` is the
///   sender's incarnation number (a restarted rank's stale traffic is
///   fenced by it); the claim list — the units this worker has committed —
///   rides only on the first request to each new master. The worker
///   re-sends the same request on timeout and the master de-duplicates by
///   `seq` (re-sending its cached reply), so a completion is recorded
///   exactly once;
/// * the master's reply carries `[seq_echo, code, verdict, epoch, nrec,
///   records…]`: `code` is a unit index, `DONE`, or `ABORT`; `verdict`
///   arbitrates the reported completion (`V_COMMIT` publishes the staged
///   output, `V_DISCARD` drops it — a backup already won); `epoch` fences
///   replies from a deposed zombie ex-master; the trailing records mirror
///   the scheduler log to the standby rank. The worker discards replies
///   whose echo or epoch does not match.
/// * workers may additionally send one-way `[BEACON, …]` progress beacons
///   mid-unit ([`ft_beacon`]) to keep the failure detector's heartbeat
///   deadline at bay during long compute phases.
///
/// Fault handling (fail-stop deaths are detected perfectly via the fault
/// board; *stragglers* only via heartbeat silence):
///
/// * a confirmed-dead worker's units — in flight **and** committed (the
///   emitted pairs died with the rank) — go back in the queue;
/// * with [`FtConfig::speculate`], a worker silent past
///   [`FtConfig::suspect_after`] with a unit in flight is declared
///   *suspected*; its unit is speculatively re-dispatched to idle workers
///   with exponential backoff. The first result wins; the loser's output is
///   discarded by verdict, keeping output bit-for-bit identical to a
///   fault-free run. When a backup wins and the straggler is still silent,
///   the master *fences* it (declares it dead on the board) so it stops
///   burning wall-clock — indistinguishable from a crash at that instant;
/// * a unit that panics [`FtConfig::poison_retries`] times is quarantined:
///   reported in [`FtRun::quarantined`] instead of crashing the run or
///   aborting it — an explicit partial result;
/// * a unit dispatched more than [`FtConfig::max_attempts`] times aborts the
///   run with a typed error on every rank — no hang, no silent loss.
///
/// The master itself is a *role*, not a rank (with [`FtConfig::failover`],
/// the default): rank 0 coordinates initially, but when the acting master
/// dies — or stalls past a worker's whole RPC retry budget and is *deposed*
/// on the fault board — the survivors elect the lowest eligible rank as the
/// successor. Eligibility (alive, never died, not departed or deposed this
/// round) is shrink-only, so elected ranks strictly increase within a round
/// and every rank converges on the same master from local board reads; the
/// winner's rank doubles as the fencing *epoch* carried by every message,
/// which silences a stalled zombie ex-master's stale replies. The successor
/// replays the replicated scheduler log (durable file and/or the mirrored
/// copy it received as standby), merges departed ranks' manifests, then
/// holds dispatch until every surviving worker has re-registered its
/// committed-unit claims — so no committed unit is ever re-dispatched and
/// the run's output stays bit-for-bit identical to a fault-free run. A
/// restarted rank rejoins as a fresh incarnation in the current epoch and
/// receives fresh units (its stale traffic is fenced by generation).
/// Without failover, master loss keeps the legacy typed errors
/// ([`SchedError::MasterDied`] / [`SchedError::MasterUnreachable`]).
///
/// `policy` picks which pending unit a requesting worker gets; units
/// requeued after a death, a panic or a failover go through the same rule.
///
/// `run(unit)` executes a unit, emitting into *staging*; `verdict(unit,
/// commit)` is called exactly once per completed execution to publish
/// (`true`) or drop (`false`) that staging. A panicked execution discards
/// its partial staging before the failure is reported.
///
/// # Panics
/// Panics if an affinity policy does not name one resource per unit.
pub fn assign_and_run_ft_report(
    comm: &Comm,
    ntasks: usize,
    cfg: &FtConfig,
    policy: DispatchPolicy<'_>,
    run: &mut dyn FnMut(usize),
    verdict: &mut dyn FnMut(usize, bool),
) -> Result<FtRun, SchedError> {
    if let DispatchPolicy::Affinity(affinity) = policy {
        assert_eq!(affinity.len(), ntasks, "one affinity per task");
    }
    if comm.size() == 1 {
        return Ok(ft_run_local(comm, ntasks, cfg, policy, run, verdict));
    }
    let round = comm.next_round();
    let board = comm.board();
    let me = comm.rank();
    let mut mine: Vec<usize> = Vec::new();
    let mut mirror: Vec<[u64; LOG_REC_WORDS]> = Vec::new();
    let mut seq = 0u64;
    let (mut completed, mut flag) = (NO_UNIT, FLAG_NONE);

    // The role state machine. `via_failover` distinguishes a takeover
    // (commits may exist — replay and gather before dispatching) from being
    // the round's first master. Without failover rank 0 leads the round and
    // its loss ends the run.
    let first = if cfg.failover { board.elect_coordinator(round) } else { Some(0) };
    let Some(mut master) = first else {
        // Nobody can lead. A rejoiner that revived into a world with no
        // coordinator left bails out empty; an original rank reports the
        // legacy error.
        return if comm.incarnation() > 0 {
            Ok(FtRun::default())
        } else {
            Err(SchedError::MasterUnreachable)
        };
    };
    CURRENT_MASTER.with(|m| m.set(master));
    let mut via_failover = false;
    let mut last_died;
    loop {
        if master == me {
            if completed != NO_UNIT {
                // A completion the dead master never arbitrated: drop the
                // staging and let the unit re-dispatch — self-committing
                // could race a speculative backup's claim.
                if flag == FLAG_OK {
                    verdict(completed as usize, false);
                }
                completed = NO_UNIT;
                flag = FLAG_NONE;
            }
            let seed = via_failover.then(|| (std::mem::take(&mut mirror), mine.clone()));
            match ft_master_loop(comm, ntasks, cfg, policy, round, seed) {
                MasterExit::Finished(q) => {
                    board.record_departure(me, round, mine.iter().map(|&u| u as u64).collect());
                    board.close_gate_if(|| true);
                    return Ok(FtRun { units: mine, quarantined: q });
                }
                MasterExit::Aborted(unit) => return Err(SchedError::Aborted { unit }),
                MasterExit::AllWorkersDead => return Err(SchedError::AllWorkersDead),
                // Peers lost patience during a stall and elected around us:
                // step down and serve the successor as a worker.
                MasterExit::Deposed => last_died = false,
            }
        } else {
            match ft_worker_phase(
                comm, cfg, master, run, verdict, &mut mine, &mut mirror, &mut seq,
                &mut completed, &mut flag,
            ) {
                WorkerExit::Done => {
                    board.record_departure(me, round, mine.iter().map(|&u| u as u64).collect());
                    return Ok(FtRun { units: mine, quarantined: Vec::new() });
                }
                WorkerExit::Abort => return Err(SchedError::Aborted { unit: u64::MAX }),
                WorkerExit::MasterGone { died } if !cfg.failover => {
                    return Err(if died {
                        SchedError::MasterDied
                    } else {
                        SchedError::MasterUnreachable
                    });
                }
                WorkerExit::MasterGone { died } => {
                    if !died {
                        // Alive but absent past the whole retry budget:
                        // strike it from eligibility so the election below
                        // cannot pick it again.
                        board.depose(master, round);
                    }
                    last_died = died;
                }
            }
        }
        via_failover = true;
        let lost = master;
        let Some(next) = board.elect_coordinator(round) else {
            return if comm.incarnation() > 0 {
                Ok(FtRun { units: mine, quarantined: Vec::new() })
            } else if last_died {
                Err(SchedError::MasterDied)
            } else {
                Err(SchedError::MasterUnreachable)
            };
        };
        master = next;
        // This election only ever runs on failover (the round's first
        // master is picked before the loop), so a fault-free trace carries
        // zero `sched.elect` events.
        if let Some(o) = comm.obs() {
            o.add("sched.elections", 1);
            o.instant(
                o.now(),
                "sched.elect",
                format!(
                    "master role moved {lost} -> {master} ({})",
                    if last_died { "predecessor died" } else { "predecessor unreachable" }
                ),
            );
        }
        CURRENT_MASTER.with(|m| m.set(master));
    }
}

/// Send a one-way progress beacon to the *acting* FT master (tracked across
/// failovers), refreshing this worker's heartbeat deadline. Call from inside
/// a long-running work unit (e.g. after loading a database partition) so a
/// genuinely busy worker is not mistaken for a straggler. No-op on the
/// acting master and in single-rank worlds.
pub fn ft_beacon(comm: &Comm) {
    if comm.size() <= 1 {
        return;
    }
    let master = CURRENT_MASTER.with(|m| m.get());
    if comm.rank() != master {
        comm.send_u64s(
            master,
            TAG_REQ,
            &[BEACON, 0, 0, master as u64, comm.incarnation(), 0],
        );
    }
}

/// Single-rank degenerate case: run every unit locally, in the order the
/// `policy` would hand them to one worker, with panic isolation and the same
/// retry-then-quarantine policy as the distributed path.
fn ft_run_local(
    comm: &Comm,
    ntasks: usize,
    cfg: &FtConfig,
    policy: DispatchPolicy<'_>,
    run: &mut dyn FnMut(usize),
    verdict: &mut dyn FnMut(usize, bool),
) -> FtRun {
    let mut pending = Pending::new(ntasks, policy);
    (0..ntasks as u64).for_each(|u| pending.push(u));
    let mut units = Vec::new();
    let mut quarantined = Vec::new();
    while let Some(unit) = pending.pop_for(comm.rank()) {
        let t = unit as usize;
        let mut fails = 0usize;
        loop {
            if let Some(o) = comm.obs() {
                o.add("sched.dispatch", 1);
            }
            if run_unit_isolated(comm, unit, run) {
                verdict(t, true);
                units.push(t);
                if let Some(o) = comm.obs() {
                    o.add("sched.commit", 1);
                    o.add("sched.worker_commit", 1);
                }
                break;
            }
            verdict(t, false); // drop any partial staging from the panic
            fails += 1;
            if fails >= cfg.poison_retries.max(1) {
                quarantined.push(unit);
                if let Some(o) = comm.obs() {
                    o.add("sched.quarantine", 1);
                    o.instant(
                        o.now(),
                        "sched.quarantine",
                        format!("unit {t} quarantined (single rank)"),
                    );
                }
                break;
            }
        }
    }
    FtRun { units, quarantined }
}

/// Execute one unit with panic isolation: a poison injection from the fault
/// plan or a genuine panic inside `run` yields `false` instead of tearing
/// the rank down. An injected *rank death* is not a unit failure and keeps
/// unwinding.
fn run_unit_isolated(comm: &Comm, unit: u64, run: &mut dyn FnMut(usize)) -> bool {
    let _span = obs::maybe_span(comm.obs(), "sched.unit");
    if comm.unit_poisoned(unit) {
        return false;
    }
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run(unit as usize))) {
        Ok(()) => true,
        Err(payload) => {
            if payload.downcast_ref::<mpisim::RankDeath>().is_some() {
                std::panic::resume_unwind(payload);
            }
            false
        }
    }
}

/// How one tenure of the master role ended.
enum MasterExit {
    /// Every unit is accounted for and every live worker confirmed
    /// termination; carries the sorted quarantine list.
    Finished(Vec<u64>),
    /// Peers deposed this master (it stalled past their patience) and
    /// elected a successor; step down and rejoin as a worker.
    Deposed,
    /// A unit exhausted [`FtConfig::max_attempts`]; the run is abandoned.
    Aborted(u64),
    /// Work remains but no worker is left to run it.
    AllWorkersDead,
}

/// How one tenure serving a particular master ended, on the worker side.
#[derive(Clone, Copy)]
enum WorkerExit {
    /// Termination confirmed; this worker's run is over.
    Done,
    /// The master abandoned the run.
    Abort,
    /// The master is gone: confirmed dead (`died`) or silent past the whole
    /// retry budget (`!died`). The role state machine elects a successor.
    MasterGone { died: bool },
}

/// The units awaiting dispatch, queued per resource (FIFO within one), and
/// the [`DispatchPolicy`] rule that picks the next one for a worker. Under
/// [`DispatchPolicy::Fifo`] every unit shares one resource, so the pick is
/// plain FIFO.
struct Pending {
    /// Dense resource index of each unit, numbered in first-seen order.
    resource: Vec<usize>,
    queues: Vec<std::collections::VecDeque<u64>>,
    /// Resource of the unit each worker was handed last.
    last: std::collections::HashMap<usize, usize>,
}

impl Pending {
    fn new(ntasks: usize, policy: DispatchPolicy<'_>) -> Self {
        let resource: Vec<usize> = match policy {
            DispatchPolicy::Fifo => vec![0; ntasks],
            DispatchPolicy::Affinity(affinity) => {
                let mut dense = std::collections::HashMap::new();
                affinity
                    .iter()
                    .map(|&a| {
                        let next = dense.len();
                        *dense.entry(a).or_insert(next)
                    })
                    .collect()
            }
        };
        let nres = resource.iter().max().map_or(0, |&r| r + 1);
        Pending { resource, queues: vec![Default::default(); nres], last: Default::default() }
    }

    fn push(&mut self, unit: u64) {
        self.queues[self.resource[unit as usize]].push_back(unit);
    }

    fn contains(&self, unit: u64) -> bool {
        self.queues[self.resource[unit as usize]].contains(&unit)
    }

    fn is_empty(&self) -> bool {
        self.queues.iter().all(|q| q.is_empty())
    }

    /// Record that `worker` now holds `unit`'s resource.
    fn note_dispatch(&mut self, worker: usize, unit: u64) {
        self.last.insert(worker, self.resource[unit as usize]);
    }

    /// Take the next unit for `worker`: one of the resource it was handed
    /// last while any remain, else the first unit of the fullest resource.
    fn pop_for(&mut self, worker: usize) -> Option<u64> {
        let resource = match self.last.get(&worker) {
            Some(&r) if !self.queues[r].is_empty() => r,
            _ => (0..self.queues.len())
                .max_by_key(|&r| (self.queues[r].len(), std::cmp::Reverse(r)))?,
        };
        let unit = self.queues[resource].pop_front()?;
        self.last.insert(worker, resource);
        Some(unit)
    }
}

/// Master bookkeeping for one tenure of the master role.
struct FtMaster<'c> {
    comm: &'c Comm,
    max_attempts: usize,
    poison_retries: usize,
    speculate: bool,
    suspect_after: Duration,
    spec_backoff: Duration,
    /// Scheduler round this tenure belongs to (scopes fault-board state).
    round: u64,
    /// Fencing epoch — this master's own rank, stamped on every reply.
    epoch: u64,
    /// Piggyback log records to the standby rank on replies?
    mirror_on: bool,
    log_path: Option<std::path::PathBuf>,
    log_faults: Option<std::sync::Arc<crate::durable::DiskFaultPlan>>,
    /// The full scheduler log of this round as this master knows it:
    /// replayed prefix (from the durable file or its own standby mirror)
    /// plus everything journaled during this tenure.
    log_all: Vec<[u64; LOG_REC_WORDS]>,
    /// Next log sequence number to assign.
    lsn_next: u64,
    /// How many of `log_all`'s records each worker has been sent.
    mirrored_upto: std::collections::HashMap<usize, usize>,
    /// Ranks still owed a first contact before dispatch may open (an
    /// elected successor's gather barrier); `None` once dispatch is open.
    gathering: Option<std::collections::HashSet<usize>>,
    /// Workers that have made first contact this tenure (their claim lists
    /// are merged exactly once).
    greeted: std::collections::HashSet<usize>,
    /// Last incarnation generation observed per worker; a bump means the
    /// rank died and rejoined, so its previous incarnation's state is
    /// reclaimed even if the death itself fell between reap ticks.
    gen_seen: std::collections::HashMap<usize, u64>,
    pending: Pending,
    /// Completion flag per unit; a unit owned by a dead worker is un-done.
    done: Vec<bool>,
    ndone: usize,
    /// Unit currently running on each worker. Under speculation several
    /// workers may be running the *same* unit; the first completion wins.
    inflight: std::collections::HashMap<usize, u64>,
    /// Committed units whose output lives on each worker.
    owned: std::collections::HashMap<usize, Vec<u64>>,
    /// Dispatch attempts per unit.
    attempts: Vec<usize>,
    /// Panic count per unit; at `poison_retries` the unit is quarantined.
    fails: Vec<usize>,
    /// Units given up on as poison, in quarantine order.
    quarantined: Vec<u64>,
    /// Highest request sequence number seen per worker, with the cached
    /// reply for duplicate-request retransmission.
    last: std::collections::HashMap<usize, (u64, Option<Vec<u64>>)>,
    /// Workers waiting for work while the queue is empty but units are
    /// still outstanding on other workers, with the verdict owed to their
    /// reported completion (delivered with the eventual assignment).
    parked: Vec<(usize, u64, u64)>,
    /// Wall-clock instant each worker was last heard from (request or
    /// beacon); the failure detector's heartbeat state.
    last_heard: std::collections::HashMap<usize, std::time::Instant>,
    /// Per-unit speculative-launch gate: earliest next launch and the
    /// current (doubling) backoff.
    spec_next: std::collections::HashMap<u64, (std::time::Instant, Duration)>,
    retired: std::collections::HashSet<usize>,
    /// Farewells held at the termination barrier, as `(worker, seq)`: a
    /// worker that has seen `DONE` is only released once every live worker
    /// has said farewell, because a worker can still die on receiving its
    /// own `DONE` and take committed output with it. Until then a death
    /// reopens the run and the held workers go back to work.
    leaving: Vec<(usize, u64)>,
    known_dead: std::collections::HashSet<usize>,
    abort: Option<u64>,
}

impl FtMaster<'_> {
    /// Journal one master state transition: append to the in-memory log
    /// (mirrored to the standby via reply piggybacks) and to the durable
    /// log file when configured. A failed durable append is tolerated — the
    /// log is redundancy on top of the claim gather, never load-bearing on
    /// its own.
    fn journal(&mut self, kind: u64, unit: u64, worker: usize) {
        // Every master transition flows through here, so this is also the
        // single choke point feeding the metrics registry.
        if let Some(o) = self.comm.obs() {
            match kind {
                LOG_DISPATCH => o.add("sched.dispatch", 1),
                LOG_COMMIT => o.add("sched.commit", 1),
                LOG_DISCARD => o.add("sched.discard", 1),
                LOG_QUARANTINE => {
                    o.add("sched.quarantine", 1);
                    o.instant(
                        o.now(),
                        "sched.quarantine",
                        format!("unit {unit} quarantined (last worker {worker})"),
                    );
                }
                LOG_FENCE => o.add("sched.fence", 1),
                _ => {}
            }
        }
        let rec = [self.round, self.lsn_next, kind, unit, worker as u64];
        self.lsn_next += 1;
        self.log_all.push(rec);
        if let Some(path) = &self.log_path {
            let bytes = mpisim::wire::u64s_to_bytes(&rec);
            let _ = crate::durable::append_record(path, &bytes, self.log_faults.as_deref());
        }
    }

    /// The standby rank mirroring the scheduler log: the lowest eligible
    /// non-master rank — exactly the rank an election would promote if this
    /// master died now.
    fn standby(&self) -> Option<usize> {
        let me = self.comm.rank();
        (0..self.comm.size())
            .find(|&r| r != me && self.comm.board().is_eligible_coordinator(r, self.round))
    }

    /// Send (and cache) a reply `[seq, code, verdict]`, stamped with this
    /// master's epoch and carrying the next window of unmirrored log
    /// records when `worker` is the current standby.
    fn reply(&mut self, worker: usize, head: [u64; 3]) {
        let mut payload = vec![head[0], head[1], head[2], self.epoch, 0];
        if self.mirror_on && Some(worker) == self.standby() {
            let from = self.mirrored_upto.get(&worker).copied().unwrap_or(0);
            let from = from.min(self.log_all.len());
            let n = (self.log_all.len() - from).min(MAX_PIGGYBACK);
            payload[4] = n as u64;
            for rec in &self.log_all[from..from + n] {
                payload.extend_from_slice(rec);
            }
            self.mirrored_upto.insert(worker, from + n);
        }
        self.last.insert(worker, (head[0], Some(payload.clone())));
        self.comm.send_u64s(worker, TAG_TASK, &payload);
    }

    /// Every unit is accounted for: committed on a live worker or
    /// quarantined.
    fn settled(&self) -> bool {
        self.ndone + self.quarantined.len() == self.done.len()
    }

    /// Answer `worker`'s request `seq`: hand out a unit, tell it the run is
    /// over, or park it until outstanding units resolve. `verdict` is the
    /// arbitration owed for the completion that came with this request.
    /// Retirement is *not* recorded here — only a [`FAREWELL`] confirms the
    /// worker actually received a termination reply.
    fn serve(&mut self, worker: usize, seq: u64, verdict: u64) {
        if self.abort.is_some() {
            self.reply(worker, [seq, ABORT, verdict]);
            return;
        }
        if let Some(unit) = self.pending.pop_for(worker) {
            self.attempts[unit as usize] += 1;
            if self.attempts[unit as usize] > self.max_attempts {
                self.abort = Some(unit);
                self.reply(worker, [seq, ABORT, verdict]);
                self.flush_parked();
                return;
            }
            self.inflight.insert(worker, unit);
            self.journal(LOG_DISPATCH, unit, worker);
            self.reply(worker, [seq, unit, verdict]);
        } else if self.settled() {
            self.reply(worker, [seq, DONE, verdict]);
        } else {
            self.last.insert(worker, (seq, None));
            self.parked.push((worker, seq, verdict));
        }
    }

    /// Re-serve every parked worker after the queue or completion state
    /// changed (requeue after a death, last unit completed, abort).
    fn flush_parked(&mut self) {
        let parked = std::mem::take(&mut self.parked);
        for (worker, seq, verdict) in parked {
            if self.known_dead.contains(&worker) {
                continue;
            }
            self.serve(worker, seq, verdict);
        }
    }

    /// Should `unit` go back in the queue? Not if its result is already in
    /// (or given up on), not if it is already queued, and not if another
    /// worker is still running it (that execution may yet win).
    fn should_requeue(&self, unit: u64) -> bool {
        !self.done[unit as usize]
            && !self.quarantined.contains(&unit)
            && !self.pending.contains(unit)
            && !self.inflight.values().any(|&u| u == unit)
    }

    /// Reclaim everything `worker` owned: the in-flight unit (unless a
    /// speculative copy already resolved it) and all committed units (their
    /// output died with the rank) go back to the pending queue.
    fn reclaim(&mut self, worker: usize) {
        self.retired.remove(&worker);
        self.parked.retain(|&(w, _, _)| w != worker);
        self.leaving.retain(|&(w, _)| w != worker);
        let inflight = self.inflight.remove(&worker);
        for unit in self.owned.remove(&worker).unwrap_or_default() {
            self.done[unit as usize] = false;
            self.ndone -= 1;
            if self.should_requeue(unit) {
                self.pending.push(unit);
            }
        }
        if let Some(unit) = inflight {
            if self.should_requeue(unit) {
                self.pending.push(unit);
            }
        }
    }

    /// A bumped incarnation generation means `worker` died and rejoined —
    /// possibly entirely between two reap ticks, so the death itself may
    /// never be observed. Reclaim the previous incarnation's state and
    /// reset its protocol bookkeeping (the fresh incarnation restarts its
    /// sequence numbers and owes a fresh first contact).
    fn note_generation(&mut self, worker: usize) {
        let g = self.comm.board().generation(worker);
        let seen = self.gen_seen.get(&worker).copied().unwrap_or(0);
        if g <= seen {
            return;
        }
        self.gen_seen.insert(worker, g);
        self.known_dead.remove(&worker);
        self.greeted.remove(&worker);
        self.last.remove(&worker);
        self.last_heard.insert(worker, std::time::Instant::now());
        self.reclaim(worker);
    }

    /// Detect newly-dead and newly-rejoined workers and reclaim what their
    /// gone incarnations owned. Master-agnostic: scans every rank but this
    /// one, since any rank may hold the master role.
    fn reap_deaths(&mut self) {
        for worker in 0..self.comm.size() {
            if worker == self.comm.rank() {
                continue;
            }
            self.note_generation(worker);
            if self.comm.is_alive(worker) || self.known_dead.contains(&worker) {
                continue;
            }
            self.known_dead.insert(worker);
            self.reclaim(worker);
        }
        self.tick_gather();
        if !self.pending.is_empty() || self.settled() {
            self.flush_parked();
        }
        self.release_leaving();
    }

    /// Progress the termination barrier. Once the run has settled (or
    /// aborted) and every live worker has said farewell, acknowledge all
    /// held farewells with `DONE`. While a death has reopened the run,
    /// hand its requeued units to held workers instead.
    fn release_leaving(&mut self) {
        if self.abort.is_none() && !self.settled() {
            while !self.pending.is_empty() && !self.leaving.is_empty() {
                let (worker, seq) = self.leaving.remove(0);
                self.serve(worker, seq, V_NONE);
            }
            return;
        }
        if self.abort.is_none() && self.live_workers().any(|w| {
            !self.retired.contains(&w) && !self.leaving.iter().any(|&(l, _)| l == w)
        }) {
            return;
        }
        for (worker, seq) in std::mem::take(&mut self.leaving) {
            self.retired.insert(worker);
            self.reply(worker, [seq, DONE, V_NONE]);
        }
    }

    /// Progress the takeover gather barrier: drop members that died, and
    /// credit members that departed cleanly with their board manifest
    /// instead of a claim contact. Opens dispatch when the last expected
    /// contact resolves.
    fn tick_gather(&mut self) {
        let Some(expected) = &self.gathering else { return };
        let board = self.comm.board();
        let resolved: Vec<(usize, bool)> = expected
            .iter()
            .filter_map(|&r| {
                if !board.is_alive(r) {
                    Some((r, false))
                } else if board.is_departed(r, self.round) {
                    Some((r, true))
                } else {
                    None
                }
            })
            .collect();
        for (r, departed_alive) in resolved {
            if departed_alive {
                for u in self.comm.board().departure_manifest(r, self.round) {
                    if (u as usize) < self.done.len() && !self.done[u as usize] {
                        self.done[u as usize] = true;
                        self.ndone += 1;
                        self.owned.entry(r).or_default().push(u);
                        self.journal(LOG_COMMIT, u, r);
                    }
                }
            }
            if let Some(expected) = &mut self.gathering {
                expected.remove(&r);
            }
        }
        if self.gathering.as_ref().is_some_and(|e| e.is_empty()) {
            self.finish_gather();
        }
    }

    /// The last expected survivor has re-registered: build the pending
    /// queue from everything not committed-or-quarantined and open
    /// dispatch.
    fn finish_gather(&mut self) {
        self.gathering = None;
        for unit in 0..self.done.len() as u64 {
            if self.should_requeue(unit) {
                self.pending.push(unit);
            }
        }
        self.flush_parked();
    }

    /// Record a sign of life from `worker` and lift any suspicion.
    fn note_heard(&mut self, worker: usize) {
        self.last_heard.insert(worker, std::time::Instant::now());
        if self.comm.is_suspected(worker) {
            self.comm.clear_suspected(worker);
        }
    }

    /// Has `worker` been silent past the heartbeat deadline?
    fn silent(&self, worker: usize) -> bool {
        self.last_heard
            .get(&worker)
            .is_none_or(|t| t.elapsed() >= self.suspect_after)
    }

    /// The failure-detector + speculation tick, run once per master loop
    /// iteration (so at least every `rpc_timeout`):
    ///
    /// 1. workers with a unit in flight that missed the heartbeat deadline
    ///    are marked *suspected* on the fault board (advisory);
    /// 2. each unit running only on suspected workers is re-dispatched to a
    ///    parked, unsuspected worker, gated by per-unit exponential backoff.
    fn tick_speculation(&mut self) {
        if !self.speculate {
            return;
        }
        let now = std::time::Instant::now();
        let mut stuck: Vec<u64> = Vec::new();
        let mut healthy: std::collections::HashSet<u64> = Default::default();
        for (&worker, &unit) in &self.inflight {
            if self.known_dead.contains(&worker) {
                continue;
            }
            if self.silent(worker) {
                if !self.comm.is_suspected(worker) {
                    self.comm.mark_suspected(worker);
                    if let Some(o) = self.comm.obs() {
                        o.add("sched.suspect", 1);
                    }
                }
                stuck.push(unit);
            } else {
                healthy.insert(unit);
            }
        }
        stuck.sort_unstable();
        stuck.dedup();
        for unit in stuck {
            if healthy.contains(&unit)
                || self.done[unit as usize]
                || self.quarantined.contains(&unit)
                || self.pending.contains(unit)
            {
                continue;
            }
            let (gate, backoff) = self
                .spec_next
                .get(&unit)
                .copied()
                .unwrap_or((now, self.spec_backoff));
            if now < gate {
                continue;
            }
            // A backup needs an idle, trusted worker; waking a parked one
            // delivers the assignment as the (pushed) answer to its parked
            // request.
            let Some(pos) = self.parked.iter().position(|&(w, _, _)| {
                !self.comm.is_suspected(w) && !self.known_dead.contains(&w)
            }) else {
                continue;
            };
            let (worker, seq, verdict) = self.parked.remove(pos);
            self.attempts[unit as usize] += 1;
            if self.attempts[unit as usize] > self.max_attempts {
                self.abort = Some(unit);
                self.reply(worker, [seq, ABORT, verdict]);
                self.flush_parked();
                return;
            }
            self.inflight.insert(worker, unit);
            self.pending.note_dispatch(worker, unit);
            if let Some(o) = self.comm.obs() {
                o.add("sched.speculative_dispatch", 1);
                o.instant(
                    o.now(),
                    "sched.speculate",
                    format!("unit {unit} re-dispatched to backup worker {worker}"),
                );
            }
            self.journal(LOG_DISPATCH, unit, worker);
            self.reply(worker, [seq, unit, verdict]);
            self.spec_next.insert(unit, (now + backoff, backoff.saturating_mul(2)));
        }
    }

    /// A backup just won `unit`: fence any *still-silent* suspected loser
    /// that is running the same unit. The winner is alive, so fencing can
    /// never remove the last worker; the fenced straggler wakes from its
    /// stall at the board check and unwinds exactly like a crashed rank.
    /// Its earlier commits die with it, so they are reclaimed at once: the
    /// commit that fenced it must not settle the run and release the other
    /// workers while those units still need a new home.
    fn fence_silent_losers(&mut self, unit: u64, winner: usize) {
        if !self.speculate {
            return;
        }
        let losers: Vec<usize> = self
            .inflight
            .iter()
            .filter(|&(&w, &u)| u == unit && w != winner)
            .map(|(&w, _)| w)
            .collect();
        for worker in losers {
            if self.comm.is_suspected(worker)
                && self.silent(worker)
                && self.comm.is_alive(worker)
            {
                self.comm.fence(worker);
                self.journal(LOG_FENCE, unit, worker);
                self.known_dead.insert(worker);
                self.reclaim(worker);
            }
        }
    }

    fn handle_request(
        &mut self,
        worker: usize,
        seq: u64,
        completed: u64,
        flag: u64,
        gen: u64,
        claims: &[u64],
    ) {
        if gen != self.comm.board().generation(worker) {
            // Stale traffic from a dead incarnation of a since-restarted
            // rank: fenced by generation.
            return;
        }
        self.note_generation(worker);
        if self.known_dead.contains(&worker) || !self.comm.is_alive(worker) {
            // Request queued before the death (or before a fence this loop
            // iteration has not reaped yet): its sender is gone and will
            // never apply a verdict, so accepting a completion here would
            // mark a unit done with its staged output lost — and a commit
            // from a dead "winner" could fence the last live worker.
            return;
        }
        self.note_heard(worker);
        if let Some((last_seq, cached)) = self.last.get(&worker) {
            if *last_seq == seq {
                // Duplicate of a request already seen: re-send the cached
                // reply (the original may have been dropped). A parked
                // worker has no reply yet; answer WAIT (uncached — the real
                // assignment will come through `flush_parked`) so its retry
                // budget survives arbitrarily long units elsewhere.
                match cached.clone() {
                    Some(payload) => self.comm.send_u64s(worker, TAG_TASK, &payload),
                    None => self
                        .comm
                        .send_u64s(worker, TAG_TASK, &[seq, WAIT, V_NONE, self.epoch, 0]),
                }
                return;
            }
        }
        if completed == FAREWELL {
            // Held until the barrier releases; duplicates meanwhile get
            // `WAIT` like a parked request.
            self.last.insert(worker, (seq, None));
            self.leaving.push((worker, seq));
            self.release_leaving();
            return;
        }
        self.last.insert(worker, (seq, None));
        let first_contact = self.greeted.insert(worker);
        if first_contact {
            // Merge the worker's committed-unit claims: after a failover
            // the successor learns which outputs already live on this rank
            // and must never re-dispatch them.
            for &u in claims {
                if (u as usize) < self.done.len() && !self.done[u as usize] {
                    self.done[u as usize] = true;
                    self.ndone += 1;
                    self.owned.entry(worker).or_default().push(u);
                    self.journal(LOG_COMMIT, u, worker);
                }
            }
        }
        let mut verdict = V_NONE;
        if completed != NO_UNIT {
            let u = completed as usize;
            match flag {
                FLAG_OK if u < self.done.len() => {
                    // A first contact may carry a completion the previous
                    // master never arbitrated; it is trusted like an
                    // in-flight match.
                    let known =
                        self.inflight.get(&worker) == Some(&completed) || first_contact;
                    let first = known && !self.done[u] && !self.quarantined.contains(&completed);
                    if self.inflight.get(&worker) == Some(&completed) {
                        self.inflight.remove(&worker);
                    }
                    if first {
                        self.done[u] = true;
                        self.ndone += 1;
                        self.owned.entry(worker).or_default().push(completed);
                        verdict = V_COMMIT;
                        self.journal(LOG_COMMIT, completed, worker);
                        self.fence_silent_losers(completed, worker);
                        if self.settled() {
                            self.flush_parked();
                        }
                    } else {
                        verdict = V_DISCARD;
                        self.journal(LOG_DISCARD, completed, worker);
                    }
                }
                FLAG_PANIC if u < self.done.len() => {
                    if self.inflight.get(&worker) == Some(&completed) {
                        self.inflight.remove(&worker);
                    }
                    self.fails[u] += 1;
                    if self.fails[u] >= self.poison_retries {
                        if !self.quarantined.contains(&completed) {
                            self.quarantined.push(completed);
                            self.journal(LOG_QUARANTINE, completed, worker);
                            if self.settled() {
                                self.flush_parked();
                            }
                        }
                    } else if self.should_requeue(completed) {
                        self.pending.push(completed);
                    }
                }
                _ => {}
            }
        }
        // The gather closes only after this contact's completion is
        // arbitrated: closing it first would requeue that unit and could
        // hand it to a parked worker while this one commits it.
        if first_contact {
            if let Some(expected) = &mut self.gathering {
                expected.remove(&worker);
                if expected.is_empty() {
                    self.finish_gather();
                }
            }
        }
        self.serve(worker, seq, verdict);
    }

    /// Live, not-yet-departed workers. Master-agnostic: scans every rank
    /// but this one. A rank that departed cleanly this round (e.g. under a
    /// predecessor master) is no longer a worker of this tenure. A death
    /// counts only once [`FtMaster::reap_deaths`] has reclaimed what the
    /// rank owned, so no decision here can outrun that reclaim.
    fn live_workers(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.comm.size()).filter(move |&w| {
            w != self.comm.rank()
                && !self.known_dead.contains(&w)
                && !self.comm.board().is_departed(w, self.round)
        })
    }

    /// Count live workers and whether every one of them has confirmed
    /// termination.
    fn live_workers_all_retired(&self) -> (usize, bool) {
        let mut live = 0;
        let mut all_retired = true;
        for worker in self.live_workers() {
            live += 1;
            all_retired &= self.retired.contains(&worker);
        }
        (live, all_retired)
    }
}

/// One tenure of the master role. `takeover` is `None` for the round's
/// first master (full pending queue, no gather) and
/// `Some((mirror, my_claims))` for an elected successor: it replays the
/// scheduler log (the longer of the durable file and the mirrored copy it
/// received as standby), seeds its own committed units, merges
/// already-departed ranks' manifests, and holds dispatch behind a gather
/// barrier until every surviving worker has re-registered its claims.
fn ft_master_loop(
    comm: &Comm,
    ntasks: usize,
    cfg: &FtConfig,
    policy: DispatchPolicy<'_>,
    round: u64,
    takeover: Option<(Vec<[u64; LOG_REC_WORDS]>, Vec<usize>)>,
) -> MasterExit {
    let now = std::time::Instant::now();
    let board = comm.board();
    let me = comm.rank();
    // Late restarts may rejoin while a run is in progress; the gate closes
    // again when this (or a successor) master finishes the round.
    board.open_gate();
    let mut m = FtMaster {
        comm,
        max_attempts: cfg.max_attempts,
        poison_retries: cfg.poison_retries.max(1),
        speculate: cfg.speculate,
        suspect_after: cfg.suspect_after,
        spec_backoff: cfg.spec_backoff,
        round,
        epoch: me as u64,
        mirror_on: cfg.mirror,
        log_path: cfg.log_path.clone(),
        log_faults: cfg.log_faults.clone(),
        log_all: Vec::new(),
        lsn_next: 0,
        mirrored_upto: Default::default(),
        gathering: None,
        greeted: Default::default(),
        // Baseline at the board's current generations so only *future*
        // restarts read as incarnation bumps.
        gen_seen: (0..comm.size())
            .filter(|&r| r != me)
            .map(|r| (r, board.generation(r)))
            .collect(),
        pending: Pending::new(ntasks, policy),
        done: vec![false; ntasks],
        ndone: 0,
        inflight: Default::default(),
        owned: Default::default(),
        attempts: vec![0; ntasks],
        fails: vec![0; ntasks],
        quarantined: Vec::new(),
        last: Default::default(),
        parked: Vec::new(),
        // Workers start with a full heartbeat budget: nobody is suspect
        // before they have had `suspect_after` to make first contact.
        last_heard: (0..comm.size()).filter(|&w| w != me).map(|w| (w, now)).collect(),
        spec_next: Default::default(),
        retired: Default::default(),
        leaving: Vec::new(),
        known_dead: Default::default(),
        abort: None,
    };
    match takeover {
        None => (0..ntasks as u64).for_each(|u| m.pending.push(u)),
        Some((mirror, my_claims)) => {
            // Replay the replicated log. The durable file and the standby
            // mirror are both prefixes (possibly with append gaps) of the
            // same totally-ordered log; the longer copy wins.
            let mut from_file: Vec<[u64; LOG_REC_WORDS]> = Vec::new();
            if let Some(path) = &cfg.log_path {
                if let Ok(records) = crate::durable::read_record_stream(path) {
                    for bytes in records {
                        let words = mpisim::wire::bytes_to_u64s(&bytes);
                        if words.len() == LOG_REC_WORDS && words[0] == round {
                            from_file.push([words[0], words[1], words[2], words[3], words[4]]);
                        }
                    }
                }
            }
            let log = if from_file.len() >= mirror.len() { from_file } else { mirror };
            // Only dispatch attempts and quarantine verdicts are trusted
            // from the log: a journaled COMMIT's output may have died with
            // its rank, so commits flow exclusively from live workers'
            // claims and departed ranks' manifests.
            for rec in &log {
                let unit = rec[3] as usize;
                if unit >= ntasks {
                    continue;
                }
                match rec[2] {
                    LOG_DISPATCH => m.attempts[unit] += 1,
                    LOG_QUARANTINE if !m.quarantined.contains(&rec[3]) => {
                        m.fails[unit] = m.poison_retries;
                        m.quarantined.push(rec[3]);
                    }
                    _ => {}
                }
                m.lsn_next = m.lsn_next.max(rec[1] + 1);
            }
            m.log_all = log;
            // This rank's own committed output survives the promotion.
            for unit in my_claims {
                if unit < ntasks && !m.done[unit] {
                    m.done[unit] = true;
                    m.ndone += 1;
                    m.owned.entry(me).or_default().push(unit as u64);
                    m.journal(LOG_COMMIT, unit as u64, me);
                }
            }
            // Ranks that already departed cleanly this round left their
            // manifests on the board instead of a claim contact.
            let mut expected: std::collections::HashSet<usize> = Default::default();
            for r in (0..comm.size()).filter(|&r| r != me) {
                if board.is_departed(r, round) {
                    for u in board.departure_manifest(r, round) {
                        if (u as usize) < ntasks && !m.done[u as usize] {
                            m.done[u as usize] = true;
                            m.ndone += 1;
                            m.owned.entry(r).or_default().push(u);
                            m.journal(LOG_COMMIT, u, r);
                        }
                    }
                } else if board.is_alive(r) {
                    expected.insert(r);
                }
            }
            // Dispatch stays closed until every expected survivor makes
            // first contact (or dies / departs); `finish_gather` then
            // builds the pending queue from whatever is still unaccounted.
            m.gathering = Some(expected);
        }
    }
    // Consecutive quiet ticks tolerated once no unit can still be running:
    // a live worker retries at least once per `rpc_timeout`, so a longer
    // silence means every unconfirmed worker is gone (e.g. its farewell and
    // all retransmissions were dropped).
    let quiet_limit = cfg.max_rpc_retries + 5;
    let mut quiet = 0usize;
    loop {
        if cfg.failover && board.is_deposed(me, round) {
            // Peers elected around us during a stall; any replies we send
            // from here on are fenced by epoch. Step down.
            return MasterExit::Deposed;
        }
        m.reap_deaths();
        m.tick_speculation();
        let (live, all_confirmed) = m.live_workers_all_retired();
        let finish = |m: &FtMaster| match m.abort {
            Some(unit) => MasterExit::Aborted(unit),
            None if m.settled() => {
                let mut q = m.quarantined.clone();
                q.sort_unstable();
                MasterExit::Finished(q)
            }
            // Outstanding units with nobody left to run them (workers died
            // after confirming, taking completed output with them).
            None => MasterExit::AllWorkersDead,
        };
        if live == 0 || all_confirmed {
            return finish(&m);
        }
        // No unit can be mid-execution once every unit is settled, or once
        // the run aborted with nothing in flight — only (bounded)
        // termination chatter remains, so prolonged silence is safe to act
        // on.
        let drained = m.settled() || (m.abort.is_some() && m.inflight.is_empty());
        if drained && quiet > quiet_limit {
            return finish(&m);
        }
        match comm.recv_timeout(ANY_SOURCE, TAG_REQ, cfg.rpc_timeout) {
            Ok(msg) => {
                quiet = 0;
                let req = mpisim::wire::bytes_to_u64s(&msg.data);
                if req[0] == BEACON {
                    if req.len() < REQ_HEAD
                        || req[4] == board.generation(msg.status.source)
                    {
                        if let Some(o) = comm.obs() {
                            o.add("sched.heartbeats", 1);
                        }
                        m.note_heard(msg.status.source);
                    }
                    continue;
                }
                if req.len() < REQ_HEAD || req[3] != me as u64 {
                    // Malformed, or addressed to a different master epoch.
                    continue;
                }
                let nclaims = (req[5] as usize).min(req.len() - REQ_HEAD);
                m.handle_request(
                    msg.status.source,
                    req[0],
                    req[1],
                    req[2],
                    req[4],
                    &req[REQ_HEAD..REQ_HEAD + nclaims],
                );
            }
            Err(MpiError::Timeout) => quiet += 1,
            // A death interrupted the wait or every worker is gone: loop
            // back to reap and re-evaluate.
            Err(MpiError::Interrupted) | Err(MpiError::RankDead { .. }) => quiet = 0,
            Err(e) => panic!("ft master recv: {e}"),
        }
    }
}

/// One at-least-once request round against the acting `master`: send
/// `[seq, completed, flag, epoch, generation, nclaims, claims…]`, resend on
/// timeout (master-side dedup makes this harmless), and return the
/// `(code, verdict)` of the reply whose sequence echo and epoch both match.
/// Log records piggybacked on any reply from the master are absorbed into
/// `mirror` (this worker may be the standby). Errors report how the master
/// was lost: `Err(true)` = confirmed dead, `Err(false)` = silent past the
/// whole retry budget.
#[allow(clippy::too_many_arguments)]
fn ft_request(
    comm: &Comm,
    cfg: &FtConfig,
    master: usize,
    seq: u64,
    completed: u64,
    flag: u64,
    claims: &[u64],
    mirror: &mut Vec<[u64; LOG_REC_WORDS]>,
) -> Result<(u64, u64), bool> {
    let mut frame = vec![
        seq,
        completed,
        flag,
        master as u64,
        comm.incarnation(),
        claims.len() as u64,
    ];
    frame.extend_from_slice(claims);
    let mut resends = 0usize;
    let mut need_send = true;
    loop {
        if need_send {
            comm.send_u64s(master, TAG_REQ, &frame);
            need_send = false;
        }
        match comm.recv_timeout(master, TAG_TASK, cfg.rpc_timeout) {
            Ok(msg) => {
                let reply = mpisim::wire::bytes_to_u64s(&msg.data);
                if reply.len() < REPLY_HEAD || reply[3] != master as u64 {
                    // Zombie fencing: a deposed ex-master's stale replies
                    // carry its old epoch and are discarded.
                    continue;
                }
                // Absorb mirrored log records before any seq filtering —
                // even a stale echo may carry records whose original
                // delivery was dropped. Records arrive in lsn order;
                // strictly-increasing lsn both de-duplicates retransmitted
                // windows and tolerates gaps from failed durable appends.
                let nrec = (reply[4] as usize)
                    .min((reply.len() - REPLY_HEAD) / LOG_REC_WORDS);
                for i in 0..nrec {
                    let at = REPLY_HEAD + i * LOG_REC_WORDS;
                    let rec = [
                        reply[at],
                        reply[at + 1],
                        reply[at + 2],
                        reply[at + 3],
                        reply[at + 4],
                    ];
                    if mirror.last().is_none_or(|last| rec[1] > last[1]) {
                        mirror.push(rec);
                    }
                }
                if reply[0] != seq {
                    continue; // stale echo of an earlier request: discard
                }
                if reply[1] == WAIT {
                    // Master is alive but has nothing to hand out yet; the
                    // real assignment will be pushed when one frees up.
                    resends = 0;
                    continue;
                }
                return Ok((reply[1], reply[2]));
            }
            Err(MpiError::RankDead { .. }) => return Err(true),
            Err(MpiError::Timeout) => {
                resends += 1;
                if let Some(o) = comm.obs() {
                    o.add("sched.rpc_retries", 1);
                }
                if resends > cfg.max_rpc_retries {
                    return Err(false);
                }
                need_send = true;
            }
            // Another rank died; our request may still be answered.
            Err(MpiError::Interrupted) => {}
            Err(e) => panic!("ft worker recv: {e}"),
        }
    }
}

/// One tenure serving `master` as a worker. Execution state persists across
/// tenures through the `&mut` parameters so a failover mid-run carries this
/// worker's committed units (`mine` — re-registered as claims on the first
/// request to each new master), its standby mirror of the scheduler log, its
/// monotonic request sequence, and any not-yet-arbitrated completion.
#[allow(clippy::too_many_arguments)]
fn ft_worker_phase(
    comm: &Comm,
    cfg: &FtConfig,
    master: usize,
    run: &mut dyn FnMut(usize),
    verdict: &mut dyn FnMut(usize, bool),
    mine: &mut Vec<usize>,
    mirror: &mut Vec<[u64; LOG_REC_WORDS]>,
    seq: &mut u64,
    completed: &mut u64,
    flag: &mut u64,
) -> WorkerExit {
    let mut first = true;
    // Set once the master has said `DONE` or `ABORT`: the next request is a
    // farewell, and its `DONE` reply ends the tenure with this outcome. A
    // unit in that reply means a death reopened the run.
    let mut leaving: Option<WorkerExit> = None;
    loop {
        *seq += 1;
        // Committed-unit claims ride only on the first request to this
        // master; it merges them exactly once (keyed on first contact).
        let claims: Vec<u64> = if first {
            mine.iter().map(|&u| u as u64).collect()
        } else {
            Vec::new()
        };
        first = false;
        let (report, report_flag) = match leaving {
            Some(_) => (FAREWELL, FLAG_NONE),
            None => (*completed, *flag),
        };
        let (code, verd) =
            match ft_request(comm, cfg, master, *seq, report, report_flag, &claims, mirror) {
                Ok(r) => r,
                // The un-arbitrated completion (if any) stays in
                // `completed`/`flag` for the role state machine to resolve.
                // A farewell is best-effort: a master lost at the barrier
                // leaves any reopened work to its successor.
                Err(died) => return leaving.unwrap_or(WorkerExit::MasterGone { died }),
            };
        // The reply arbitrates the completion this request reported: commit
        // publishes the staged output, discard drops it (a backup won).
        // Panicked executions already dropped their partial staging.
        if *completed != NO_UNIT && *flag == FLAG_OK {
            let commit = verd == V_COMMIT;
            verdict(*completed as usize, commit);
            if let Some(o) = comm.obs() {
                o.add(if commit { "sched.worker_commit" } else { "sched.worker_discard" }, 1);
            }
            if commit {
                mine.push(*completed as usize);
            }
        }
        *completed = NO_UNIT;
        *flag = FLAG_NONE;
        match code {
            DONE => match leaving {
                Some(outcome) => return outcome,
                None => leaving = Some(WorkerExit::Done),
            },
            // Workers don't learn which unit exhausted its budget; the
            // master's own return value carries it.
            ABORT => leaving = Some(WorkerExit::Abort),
            unit => {
                leaving = None;
                if run_unit_isolated(comm, unit, run) {
                    *flag = FLAG_OK;
                } else {
                    verdict(unit as usize, false); // drop partial staging
                    *flag = FLAG_PANIC;
                }
                *completed = unit;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpisim::World;

    fn run_style(ranks: usize, ntasks: usize, style: MapStyle) -> Vec<Vec<usize>> {
        World::new(ranks).run(move |comm| assign_and_run(comm, ntasks, style, |_| {}))
    }

    fn assert_partition(assignments: &[Vec<usize>], ntasks: usize) {
        let mut all: Vec<usize> = assignments.concat();
        all.sort_unstable();
        assert_eq!(all, (0..ntasks).collect::<Vec<_>>(), "tasks must partition exactly");
    }

    #[test]
    fn chunk_assigns_contiguous_blocks() {
        let got = run_style(4, 10, MapStyle::Chunk);
        assert_partition(&got, 10);
        for ranks_tasks in &got {
            for w in ranks_tasks.windows(2) {
                assert_eq!(w[1], w[0] + 1, "chunk must be contiguous");
            }
        }
    }

    #[test]
    fn round_robin_strides() {
        let got = run_style(3, 10, MapStyle::RoundRobin);
        assert_partition(&got, 10);
        assert_eq!(got[0], vec![0, 3, 6, 9]);
        assert_eq!(got[1], vec![1, 4, 7]);
        assert_eq!(got[2], vec![2, 5, 8]);
    }

    /// The fault-tolerant scheduler with no faults: per rank, the units it
    /// ran. `affinity` selects affinity dispatch; `None` is FIFO.
    fn master_worker(ranks: usize, ntasks: usize, affinity: Option<Vec<usize>>) -> Vec<Vec<usize>> {
        World::new(ranks).run(move |comm| {
            let policy = affinity.as_deref().map_or(DispatchPolicy::Fifo, DispatchPolicy::Affinity);
            ft_units(comm, ntasks, &FtConfig::default(), policy, |_| {}).expect("fault-free run")
        })
    }

    #[test]
    fn master_worker_partitions_and_master_idles() {
        let got = master_worker(4, 23, None);
        assert!(got[0].is_empty(), "master must not execute tasks");
        assert_partition(&got, 23);
    }

    #[test]
    fn master_worker_zero_tasks_terminates() {
        let got = master_worker(3, 0, None);
        for m in got {
            assert!(m.is_empty());
        }
    }

    #[test]
    fn master_worker_fewer_tasks_than_workers() {
        let got = master_worker(8, 3, None);
        assert_partition(&got, 3);
    }

    #[test]
    fn single_rank_runs_everything_for_every_style() {
        for style in [MapStyle::Chunk, MapStyle::RoundRobin] {
            let got = run_style(1, 7, style);
            assert_eq!(got[0], (0..7).collect::<Vec<_>>());
        }
        assert_eq!(master_worker(1, 7, None)[0], (0..7).collect::<Vec<_>>());
    }

    #[test]
    fn affinity_scheduler_partitions_tasks_exactly() {
        let ntasks = 30;
        let affinity: Vec<usize> = (0..ntasks).map(|t| t % 5).collect();
        let got = master_worker(4, ntasks, Some(affinity));
        assert!(got[0].is_empty(), "master must not execute tasks");
        assert_partition(&got, ntasks);
    }

    #[test]
    fn affinity_scheduler_groups_same_resource_on_one_worker() {
        // 3 resources × 10 tasks each, 4 workers: each worker should see far
        // fewer resource switches than task count.
        let ntasks = 30;
        let affinity: Vec<usize> = (0..ntasks).map(|t| t / 10).collect();
        let got = master_worker(5, ntasks, Some(affinity.clone()));
        assert_partition(&got, ntasks);
        let mut total_switches = 0usize;
        for tasks in &got[1..] {
            let mut switches = 0;
            for w in tasks.windows(2) {
                if affinity[w[0]] != affinity[w[1]] {
                    switches += 1;
                }
            }
            total_switches += switches;
        }
        // Plain dynamic dispatch of the interleaved stream would switch
        // almost every task; affinity should keep it near the minimum
        // (#resources - 1 per worker at worst).
        assert!(
            total_switches <= 8,
            "too many resource switches: {total_switches} (got {got:?})"
        );
    }

    #[test]
    fn affinity_scheduler_single_rank_and_zero_tasks() {
        // One rank follows the same pick as a worker of many: it stays on
        // resource 0 while units of it remain.
        let got = master_worker(1, 4, Some(vec![0, 1, 0, 1]));
        assert_eq!(got[0], vec![0, 2, 1, 3]);
        let got = master_worker(3, 0, Some(vec![]));
        assert!(got.iter().all(Vec::is_empty));
    }

    #[test]
    #[should_panic(expected = "one affinity per task")]
    fn affinity_length_mismatch_panics() {
        master_worker(1, 3, Some(vec![0]));
    }

    #[test]
    fn master_worker_virtual_makespan_is_bounded_by_serial_work() {
        // NOTE on virtual-time fidelity: the master serves requests in
        // *physical* arrival order, and virtual charges consume no real time,
        // so the simulated schedule of a master-worker map is *a* feasible
        // schedule, not necessarily the one a wall-clock run would produce.
        // (The discrete-event simulator in the `perfmodel` crate is the
        // faithful tool for skewed-load scaling studies; this test pins down
        // the guarantees that do hold.)
        let ntasks = 16usize;
        let slow = 8.0; // seconds, task 0
        let fast = 1.0;
        let total = slow + (ntasks - 1) as f64 * fast;
        let times = World::new(3).run(move |comm| {
            ft_units(comm, ntasks, &FtConfig::default(), DispatchPolicy::Fifo, |t| {
                comm.charge(if t == 0 { slow } else { fast });
            })
            .expect("fault-free run");
            comm.barrier();
            comm.now()
        });
        let makespan = times[0];
        // Any feasible 2-worker schedule is at least the critical path and at
        // most all work on one worker.
        assert!(makespan >= total / 2.0, "impossibly fast: {makespan}");
        assert!(makespan <= total + 1e-9, "worse than serial: {makespan}");
    }

    // ---- fault-tolerant scheduler ----

    use mpisim::{FaultPlan, RankOutcome};
    use std::sync::Arc as StdArc;

    /// The fault-tolerant scheduler with `run` publishing directly (no
    /// staging): the units this rank committed, in execution order.
    fn ft_units(
        comm: &mpisim::Comm,
        ntasks: usize,
        cfg: &FtConfig,
        policy: DispatchPolicy<'_>,
        mut run: impl FnMut(usize),
    ) -> Result<Vec<usize>, SchedError> {
        assign_and_run_ft_report(comm, ntasks, cfg, policy, &mut run, &mut |_, _| {})
            .map(|r| r.units)
    }

    /// Run the fault-tolerant scheduler under `plan` and return, per rank,
    /// either the locally committed unit list or the death time.
    fn ft_run(
        size: usize,
        ntasks: usize,
        plan: FaultPlan,
    ) -> Vec<RankOutcome<Result<Vec<usize>, SchedError>>> {
        World::new(size).with_faults(plan).run_faulty(move |comm| {
            ft_units(comm, ntasks, &FtConfig::default(), DispatchPolicy::Fifo, |_| {})
        })
    }

    /// Collect the union of executed units across surviving workers and
    /// assert it is an exact partition of `0..ntasks`.
    fn assert_exact_partition(
        outcomes: &[RankOutcome<Result<Vec<usize>, SchedError>>],
        ntasks: usize,
    ) {
        let mut count = vec![0usize; ntasks];
        for o in outcomes {
            if let RankOutcome::Done(Ok(units)) = o {
                for &u in units {
                    count[u] += 1;
                }
            }
        }
        for (u, &c) in count.iter().enumerate() {
            assert_eq!(c, 1, "unit {u} executed {c} times from the survivors' view");
        }
    }

    #[test]
    fn ft_one_worker_death_redispatches_its_units() {
        // Rank 2 dies almost immediately; its in-flight unit and anything it
        // had completed must be re-run by the survivors.
        let plan = FaultPlan::new(11).kill(2, 0.0);
        let outcomes = ft_run(4, 20, plan);
        assert!(outcomes[2].is_died(), "rank 2 should have died");
        assert!(matches!(&outcomes[0], RankOutcome::Done(Ok(_))));
        assert_exact_partition(&outcomes, 20);
    }

    #[test]
    fn ft_two_worker_deaths_still_complete_every_unit() {
        let plan = FaultPlan::new(23).kill(1, 0.0).kill(3, 0.0);
        let outcomes = ft_run(5, 24, plan);
        assert!(outcomes[1].is_died() && outcomes[3].is_died());
        assert!(matches!(&outcomes[0], RankOutcome::Done(Ok(_))));
        assert_exact_partition(&outcomes, 24);
    }

    #[test]
    fn ft_death_mid_run_unwinds_completed_units_too() {
        // Kill late enough (virtual time) that rank 1 has completed several
        // units before dying: every one of them must be re-executed because
        // its output died with the rank. Each unit charges 1 virtual second,
        // so rank 1 dies after finishing a handful.
        let plan = FaultPlan::new(7).kill(1, 5.5);
        let world = World::new(3).with_faults(plan);
        let outcomes = world.run_faulty(move |comm| {
            ft_units(comm, 12, &FtConfig::default(), DispatchPolicy::Fifo, |_| comm.charge(1.0))
        });
        assert!(outcomes[1].is_died());
        assert_exact_partition(&outcomes, 12);
    }

    #[test]
    fn ft_all_workers_dead_yields_typed_error_not_hang() {
        let plan = FaultPlan::new(3).kill(1, 0.0).kill(2, 0.0);
        let outcomes = ft_run(3, 9, plan);
        assert!(outcomes[1].is_died() && outcomes[2].is_died());
        match &outcomes[0] {
            RankOutcome::Done(Err(SchedError::AllWorkersDead)) => {}
            other => panic!("master should report AllWorkersDead, got {other:?}"),
        }
    }

    #[test]
    fn ft_message_drops_are_survived_by_retransmission() {
        // Drop half of all traffic in both directions between master and
        // worker 1. The at-least-once RPC layer must still complete the run
        // without duplicating any unit.
        let plan = FaultPlan::new(99)
            .drop_p2p(1, 0, 0.5)
            .drop_p2p(0, 1, 0.5);
        let outcomes = ft_run(3, 16, plan);
        for o in &outcomes {
            assert!(matches!(o, RankOutcome::Done(Ok(_))), "outcome: {o:?}");
        }
        assert_exact_partition(&outcomes, 16);
    }

    #[test]
    fn ft_run_is_deterministic_for_a_fixed_fault_seed() {
        // Same plan, same seed: the set of survivors and the executed-unit
        // partition invariant hold on every run (the *assignment* may differ
        // across runs — only the output-visible contract is deterministic).
        for _ in 0..3 {
            let plan = FaultPlan::new(41).kill(2, 0.0).drop_p2p(1, 0, 0.3);
            let outcomes = ft_run(4, 18, plan);
            assert!(outcomes[2].is_died());
            assert_exact_partition(&outcomes, 18);
        }
    }

    #[test]
    fn ft_worker_reports_master_death_without_failover() {
        // Legacy fail-fast mode: with failover disabled, master loss stays a
        // typed error instead of triggering an election.
        let plan = FaultPlan::new(5).kill(0, 0.0);
        let world = World::new(3).with_faults(plan);
        let cfg = FtConfig { failover: false, ..FtConfig::default() };
        let outcomes = world.run_faulty(move |comm| {
            ft_units(comm, 6, &cfg, DispatchPolicy::Fifo, |_| {})
        });
        assert!(outcomes[0].is_died());
        for o in &outcomes[1..] {
            match o {
                RankOutcome::Done(Err(SchedError::MasterDied)) => {}
                other => panic!("worker should report MasterDied, got {other:?}"),
            }
        }
    }

    // ---- master failover, elections, rejoin ----

    #[test]
    fn ft_master_death_fails_over_and_completes_exactly() {
        // Kill rank 0 (the initial master) mid-run: the survivors elect
        // rank 1, which gathers the workers' committed-unit claims and
        // finishes the run with an exact partition — no unit lost, none
        // duplicated.
        let plan = FaultPlan::new(11).kill(0, 2.5);
        let world = World::new(4).with_faults(plan);
        let outcomes = world.run_faulty(move |comm| {
            ft_units(comm, 12, &FtConfig::default(), DispatchPolicy::Fifo, |_| comm.charge(1.0))
        });
        assert!(outcomes[0].is_died());
        for o in &outcomes[1..] {
            assert!(matches!(o, RankOutcome::Done(Ok(_))), "outcome: {o:?}");
        }
        assert_exact_partition(&outcomes, 12);
    }

    /// Block each worker's first execution until `n` units have started,
    /// so every worker of an `n`-worker world holds exactly one unit.
    fn hold_until_started(started: &std::sync::atomic::AtomicUsize, n: usize) {
        use std::sync::atomic::Ordering::SeqCst;
        started.fetch_add(1, SeqCst);
        let t0 = std::time::Instant::now();
        while started.load(SeqCst) < n && t0.elapsed() < Duration::from_secs(10) {
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn ft_worker_dying_on_its_done_reopens_the_run() {
        // Rank 1 commits its unit at t = 1 and parks; rank 2's unit ends at
        // t = 3, so the DONE that settles the run reaches rank 1 at t >= 3
        // and kills it (death at 2) with a committed unit on board. Rank 2
        // must not be released before the master has seen that death: it
        // gets the lost unit back instead.
        let started = StdArc::new(std::sync::atomic::AtomicUsize::new(0));
        let plan = FaultPlan::new(3).kill(1, 2.0);
        let outcomes = World::new(3).with_faults(plan).run_faulty(move |comm| {
            let started = started.clone();
            ft_units(comm, 2, &FtConfig::default(), DispatchPolicy::Fifo, |_| {
                hold_until_started(&started, 2);
                comm.charge(if comm.rank() == 1 { 1.0 } else { 3.0 });
            })
        });
        assert!(outcomes[1].is_died(), "rank 1 dies on receiving DONE");
        assert!(matches!(&outcomes[0], RankOutcome::Done(Ok(_))), "{outcomes:?}");
        assert_exact_partition(&outcomes, 2);
    }

    #[test]
    fn ft_successor_arbitrates_the_last_gathered_completion_before_dispatch() {
        // Each worker holds one unit. Rank 1's is short: it completes at
        // t = 0.1 and parks. Ranks 2 and 3 finish at t = 1; the first of
        // their completions kills rank 0 (death at 0.5), so both carry an
        // unarbitrated completion to the successor, rank 1. Rank 3 arrives
        // last. Its completion must be committed before the gather reopens
        // dispatch, or its unit is requeued and handed to parked rank 2 too.
        // The successor drops its own unarbitrated completion, so only that
        // unit may run twice.
        let started = StdArc::new(std::sync::atomic::AtomicUsize::new(0));
        let runs = StdArc::new(std::sync::Mutex::new(Vec::new()));
        let plan = FaultPlan::new(5).kill(0, 0.5);
        let log = runs.clone();
        let outcomes = World::new(4).with_faults(plan).run_faulty(move |comm| {
            let (started, log) = (started.clone(), log.clone());
            ft_units(comm, 3, &FtConfig::default(), DispatchPolicy::Fifo, |unit| {
                log.lock().unwrap().push((comm.rank(), unit));
                hold_until_started(&started, 3);
                if comm.rank() == 3 {
                    std::thread::sleep(Duration::from_millis(300));
                }
                comm.charge(if comm.rank() == 1 { 0.1 } else { 1.0 });
            })
        });
        assert!(outcomes[0].is_died());
        assert_exact_partition(&outcomes, 3);
        let runs = runs.lock().unwrap();
        let successor_unit = runs.iter().find(|&&(r, _)| r == 1).expect("rank 1 ran a unit").1;
        for unit in (0..3).filter(|&u| u != successor_unit) {
            let n = runs.iter().filter(|&&(_, u)| u == unit).count();
            assert_eq!(n, 1, "unit {unit} ran {n} times: {runs:?}");
        }
    }

    #[test]
    fn ft_two_master_deaths_across_epochs() {
        // Rank 0 dies, rank 1 takes over (epoch 1), then rank 1 dies too:
        // rank 2 must win the second election (elected ranks strictly
        // increase within a round) and still finish exactly.
        let plan = FaultPlan::new(17).kill(0, 2.5).kill(1, 4.0);
        let world = World::new(5).with_faults(plan);
        let outcomes = world.run_faulty(move |comm| {
            ft_units(comm, 20, &FtConfig::default(), DispatchPolicy::Fifo, |_| comm.charge(1.0))
        });
        assert!(outcomes[0].is_died() && outcomes[1].is_died());
        for o in &outcomes[2..] {
            assert!(matches!(o, RankOutcome::Done(Ok(_))), "outcome: {o:?}");
        }
        assert_exact_partition(&outcomes, 20);
    }

    #[test]
    fn ft_stalled_master_is_deposed_and_steps_down() {
        // The master stalls for 1 s of wall clock — longer than a worker's
        // whole RPC retry budget — without dying. The workers depose it,
        // elect rank 1, and finish; the ex-master wakes as a zombie, sees
        // the deposition on the board, and rejoins as a worker (its stale
        // epoch-0 replies are fenced). Every rank ends Ok.
        let plan = FaultPlan::new(23).stall(0, 0.005, 1.0);
        let cfg = FtConfig {
            rpc_timeout: Duration::from_millis(20),
            max_rpc_retries: 5,
            ..FtConfig::default()
        };
        let world = World::new(3).with_faults(plan);
        let outcomes = world.run_faulty(move |comm| {
            ft_units(comm, 8, &cfg, DispatchPolicy::Fifo, |_| comm.charge(0.01))
        });
        for o in &outcomes {
            assert!(matches!(o, RankOutcome::Done(Ok(_))), "outcome: {o:?}");
        }
        assert_exact_partition(&outcomes, 8);
    }

    #[test]
    fn ft_restarted_worker_rejoins_and_gets_fresh_units() {
        // Rank 1 dies mid-run and restarts 50 ms later while the run is
        // still going (units burn real wall clock): the fresh incarnation
        // re-enters through the join gate, is recognized by its bumped
        // generation, and finishes Ok alongside the others.
        let plan = FaultPlan::new(19).kill(1, 1.5).restart(1, 0.05);
        let world = World::new(3).with_faults(plan);
        let outcomes = world.run_faulty(move |comm| {
            ft_units(comm, 8, &FtConfig::default(), DispatchPolicy::Fifo, |_| {
                std::thread::sleep(Duration::from_millis(50));
                comm.charge(1.0);
            })
            .map(|units| (comm.incarnation(), units))
        });
        match &outcomes[1] {
            RankOutcome::Done(Ok((incarnation, _))) => {
                assert_eq!(*incarnation, 1, "rank 1 must finish as its second incarnation");
            }
            other => panic!("restarted rank should rejoin and finish Ok, got {other:?}"),
        }
        let mut all: Vec<usize> = Vec::new();
        for o in &outcomes {
            if let RankOutcome::Done(Ok((_, units))) = o {
                all.extend(units);
            }
        }
        all.sort_unstable();
        assert_eq!(all, (0..8).collect::<Vec<_>>(), "units must partition exactly");
    }

    #[test]
    fn ft_late_restart_after_run_end_is_refused_by_the_join_gate() {
        // Rank 1 dies instantly; the (fast) run finishes long before its
        // 500 ms restart fires. The join gate has closed, so the revival is
        // refused and the rank stays dead instead of stranding itself in a
        // finished world.
        let plan = FaultPlan::new(43).kill(1, 0.0).restart(1, 0.5);
        let world = World::new(3).with_faults(plan);
        let outcomes = world.run_faulty(move |comm| {
            ft_units(comm, 6, &FtConfig::default(), DispatchPolicy::Fifo, |_| {})
        });
        assert!(outcomes[1].is_died(), "late rejoiner must stay dead: {:?}", outcomes[1]);
        assert!(matches!(&outcomes[0], RankOutcome::Done(Ok(_))));
        assert!(matches!(&outcomes[2], RankOutcome::Done(Ok(_))));
        assert_exact_partition(&outcomes, 6);
    }

    #[test]
    fn ft_failover_replays_quarantine_and_attempts_from_log() {
        // Unit 3 is poison and gets quarantined (3 fast failures) before the
        // master dies at virtual t=1.5 (good units burn 100 ms wall and 1.0
        // virtual each, so the quarantine strictly precedes the death). With
        // max_attempts = 4 the successor would abort if it forgot unit 3's
        // three dispatches and re-ran the quarantine dance from scratch —
        // completing with exactly [3] quarantined proves the replicated log
        // (durable file + standby mirror) was replayed.
        let log = std::env::temp_dir().join(format!(
            "mrmpi-ftlog-{}-{}",
            std::process::id(),
            line!()
        ));
        let _ = std::fs::remove_file(&log);
        let plan = FaultPlan::new(47).poison(3).kill(0, 1.5);
        let cfg = FtConfig {
            max_attempts: 4,
            log_path: Some(log.clone()),
            ..FtConfig::default()
        };
        let world = World::new(3).with_faults(plan);
        let outcomes = world.run_faulty(move |comm| {
            assign_and_run_ft_report(
                comm,
                4,
                &cfg,
                DispatchPolicy::Fifo,
                &mut |_| {
                    std::thread::sleep(Duration::from_millis(100));
                    comm.charge(1.0);
                },
                &mut |_, _| {},
            )
        });
        let _ = std::fs::remove_file(&log);
        assert!(outcomes[0].is_died());
        let mut all: Vec<usize> = Vec::new();
        let mut quarantined: Vec<u64> = Vec::new();
        for o in &outcomes[1..] {
            match o {
                RankOutcome::Done(Ok(run)) => {
                    all.extend(&run.units);
                    quarantined.extend(&run.quarantined);
                }
                other => panic!("survivor should finish Ok, got {other:?}"),
            }
        }
        assert_eq!(quarantined, vec![3], "exactly unit 3 quarantined, reported once");
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2], "good units must partition exactly");
    }

    #[test]
    fn ft_config_default_is_bounded() {
        let cfg = FtConfig::default();
        assert!(cfg.rpc_timeout > Duration::ZERO);
        assert!(cfg.max_rpc_retries > 0 && cfg.max_attempts > 0);
        assert!(!cfg.speculate, "speculation must be opt-in");
        assert!(cfg.poison_retries >= 1 && cfg.poison_retries < cfg.max_attempts);
        let _ = StdArc::new(cfg); // Clone + Send across rank closures
    }

    // ---- stragglers, speculation, quarantine ----

    #[test]
    fn ft_poisoned_units_are_quarantined_and_run_completes() {
        let plan = FaultPlan::new(13).poison(2).poison(7);
        let outcomes = World::new(3).with_faults(plan).run_faulty(move |comm| {
            assign_and_run_ft_report(
                comm,
                10,
                &FtConfig::default(),
                DispatchPolicy::Fifo,
                &mut |_| {},
                &mut |_, _| {},
            )
        });
        let master = outcomes[0].as_done().unwrap().as_ref().expect("run completes");
        assert_eq!(master.quarantined, vec![2, 7], "sorted quarantine list");
        let mut committed: Vec<usize> = outcomes
            .iter()
            .filter_map(|o| o.as_done())
            .filter_map(|r| r.as_ref().ok())
            .flat_map(|r| r.units.iter().copied())
            .collect();
        committed.sort_unstable();
        assert_eq!(committed, vec![0, 1, 3, 4, 5, 6, 8, 9]);
    }

    #[test]
    fn ft_single_rank_quarantines_poison_too() {
        let plan = FaultPlan::new(17).poison(1);
        let outcomes = World::new(1).with_faults(plan).run_faulty(move |comm| {
            assign_and_run_ft_report(
                comm,
                4,
                &FtConfig::default(),
                DispatchPolicy::Fifo,
                &mut |_| {},
                &mut |_, _| {},
            )
        });
        let run = outcomes[0].as_done().unwrap().as_ref().unwrap();
        assert_eq!(run.units, vec![0, 2, 3]);
        assert_eq!(run.quarantined, vec![1]);
    }

    #[test]
    fn ft_genuine_panic_in_run_is_isolated_and_quarantined() {
        let outcomes = World::new(3).run_faulty(move |comm| {
            assign_and_run_ft_report(
                comm,
                6,
                &FtConfig::default(),
                DispatchPolicy::Fifo,
                &mut |t| {
                    if t == 3 {
                        panic!("bad work unit");
                    }
                },
                &mut |_, _| {},
            )
        });
        let master = outcomes[0].as_done().unwrap().as_ref().expect("no crash");
        assert_eq!(master.quarantined, vec![3]);
    }

    #[test]
    fn ft_stalled_worker_is_fenced_and_backup_commits_every_unit() {
        // Rank 1 stalls for 30 wall-clock seconds inside its first unit;
        // with speculation on, its unit is re-run elsewhere, the straggler
        // is fenced, and everything it had committed is re-executed — the
        // committed union is still an exact partition, long before the
        // stall window ends.
        let start = std::time::Instant::now();
        let cfg = FtConfig {
            rpc_timeout: Duration::from_millis(25),
            speculate: true,
            suspect_after: Duration::from_millis(100),
            spec_backoff: Duration::from_millis(50),
            ..FtConfig::default()
        };
        let plan = FaultPlan::new(29).stall(1, 0.005, 30.0);
        let outcomes = World::new(3).with_faults(plan).run_faulty(move |comm| {
            let mut run = |_| comm.charge(0.01);
            assign_and_run_ft_report(comm, 8, &cfg, DispatchPolicy::Fifo, &mut run, &mut |_, _| {})
        });
        assert!(outcomes[1].is_died(), "straggler must be fenced: {:?}", outcomes[1]);
        let master = outcomes[0].as_done().unwrap().as_ref().expect("master finishes");
        assert!(master.quarantined.is_empty());
        let mut committed: Vec<usize> = outcomes
            .iter()
            .filter_map(|o| o.as_done())
            .filter_map(|r| r.as_ref().ok())
            .flat_map(|r| r.units.iter().copied())
            .collect();
        committed.sort_unstable();
        assert_eq!(committed, (0..8).collect::<Vec<_>>());
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "speculation must beat the stall window, elapsed {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn ft_fenced_straggler_commits_are_rerun_before_the_run_settles() {
        // Rank 1 commits its first unit, then stalls inside its second, the
        // last one outstanding. The backup's commit settles every unit but
        // fences rank 1, whose committed unit dies with it: that unit must
        // go to the surviving worker, not end the run as unaccounted work.
        let cfg = FtConfig {
            rpc_timeout: Duration::from_millis(25),
            speculate: true,
            suspect_after: Duration::from_millis(100),
            spec_backoff: Duration::from_millis(50),
            ..FtConfig::default()
        };
        let plan = FaultPlan::new(41).stall(1, 0.005, 30.0);
        let outcomes = World::new(3).with_faults(plan).run_faulty(move |comm| {
            if comm.rank() == 2 {
                // Rank 1 asks first, so it owns a commit before it stalls.
                std::thread::sleep(Duration::from_millis(50));
            }
            // Rank 1's clock crosses the stall time during its second unit.
            let mut run = |_| comm.charge(0.003);
            assign_and_run_ft_report(comm, 3, &cfg, DispatchPolicy::Fifo, &mut run, &mut |_, _| {})
        });
        assert!(outcomes[1].is_died(), "straggler must be fenced: {:?}", outcomes[1]);
        let master = outcomes[0].as_done().unwrap().as_ref().expect("master finishes");
        assert!(master.quarantined.is_empty());
        let mut committed: Vec<usize> = outcomes
            .iter()
            .filter_map(|o| o.as_done())
            .filter_map(|r| r.as_ref().ok())
            .flat_map(|r| r.units.iter().copied())
            .collect();
        committed.sort_unstable();
        assert_eq!(committed, vec![0, 1, 2]);
    }

    #[test]
    fn ft_recovered_straggler_wins_and_beaconing_backup_discards() {
        // One unit, two workers. Rank 1 takes the unit and stalls 400ms;
        // the master suspects it and launches a backup on rank 2, whose
        // execution takes ~600ms but beacons while it works (so it is never
        // mistaken for a straggler itself). Rank 1 recovers first: its
        // result commits, the backup's is discarded, and both survive.
        let cfg = FtConfig {
            rpc_timeout: Duration::from_millis(25),
            speculate: true,
            suspect_after: Duration::from_millis(100),
            spec_backoff: Duration::from_millis(50),
            ..FtConfig::default()
        };
        let plan = FaultPlan::new(31).stall(1, 0.005, 0.4);
        let outcomes = World::new(3).with_faults(plan).run_faulty(move |comm| {
            if comm.rank() == 2 {
                // Guarantee rank 1 asks first and owns the only unit.
                std::thread::sleep(Duration::from_millis(50));
            }
            let mut verdicts: Vec<(usize, bool)> = Vec::new();
            let run = assign_and_run_ft_report(
                comm,
                1,
                &cfg,
                DispatchPolicy::Fifo,
                &mut |_| {
                    comm.charge(0.01); // rank 1 hits its stall window here
                    if comm.rank() == 2 {
                        for _ in 0..12 {
                            ft_beacon(comm);
                            std::thread::sleep(Duration::from_millis(50));
                        }
                    }
                },
                &mut |unit, commit| verdicts.push((unit, commit)),
            );
            (run, verdicts)
        });
        let (r1, v1) = outcomes[1].as_done().expect("straggler recovered, not fenced");
        let (r2, v2) = outcomes[2].as_done().expect("backup survives");
        assert_eq!(r1.as_ref().unwrap().units, vec![0], "primary wins");
        assert_eq!(v1, &vec![(0, true)]);
        assert!(r2.as_ref().unwrap().units.is_empty(), "backup loses");
        assert_eq!(v2, &vec![(0, false)], "backup's staged output is discarded");
        let master = outcomes[0].as_done().unwrap().0.as_ref().unwrap();
        assert!(master.quarantined.is_empty());
    }

    #[test]
    fn ft_speculation_off_never_discards_live_work() {
        // Same stall, speculation disabled: the run simply waits the
        // straggler out and every worker's completions commit.
        let cfg = FtConfig {
            rpc_timeout: Duration::from_millis(25),
            suspect_after: Duration::from_millis(100),
            ..FtConfig::default()
        };
        let plan = FaultPlan::new(37).stall(1, 0.005, 0.2);
        let outcomes = World::new(3).with_faults(plan).run_faulty(move |comm| {
            let mut discards = 0usize;
            let run = assign_and_run_ft_report(
                comm,
                6,
                &cfg,
                DispatchPolicy::Fifo,
                &mut |_| comm.charge(0.01),
                &mut |_, commit| {
                    if !commit {
                        discards += 1;
                    }
                },
            );
            (run, discards)
        });
        for o in &outcomes {
            let (run, discards) = o.as_done().expect("nobody dies without speculation");
            assert!(run.is_ok());
            assert_eq!(*discards, 0);
        }
        let mut committed: Vec<usize> = outcomes
            .iter()
            .filter_map(|o| o.as_done())
            .flat_map(|(r, _)| r.as_ref().unwrap().units.iter().copied())
            .collect();
        committed.sort_unstable();
        assert_eq!(committed, (0..6).collect::<Vec<_>>());
    }
}
