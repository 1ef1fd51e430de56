//! Deterministic discrete-event simulation of the work-unit schedules.
//!
//! Models the three mechanisms the paper's BLAST scaling discussion rests
//! on (§IV.A):
//!
//! 1. **dynamic master-worker dispatch** — work units handed to whichever
//!    worker frees up first, rank 0 dedicated to the master role;
//! 2. **per-node partition RAM caching** — a node that has loaded a DB
//!    partition before re-maps it from page cache ("the memory mapped DB
//!    partitions stay cached in RAM after being loaded upon the first read
//!    access"), with LRU eviction under the node's RAM budget;
//! 3. **tail idling** — "the entire MPI program then has to wait for that
//!    longest unit of work to finish".
//!
//! One event loop, [`Sim`], runs the dynamic schedule with any mix of
//! locality-aware dispatch, worker deaths, stalls, speculative backups and
//! a master death. Static schedules (round-robin / chunk) are simulated by
//! [`simulate_static`] for the HTC and mapstyle-ablation comparisons.

use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, HashMap, VecDeque};

use crate::cluster::ClusterModel;

/// One work unit: the DB partition it needs and its search compute cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Task {
    /// DB partition index this task scans.
    pub part: usize,
    /// Search (engine) time in seconds, excluding partition load.
    pub cost_s: f64,
}

/// Static scheduling policy for [`simulate_static`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Schedule {
    /// Task `t` on worker `t % workers`, all cores compute.
    RoundRobin,
    /// Contiguous task ranges, all cores compute.
    Chunk,
}

/// Result of one simulated run.
#[derive(Debug, Clone, Default)]
pub struct SimResult {
    /// Wall clock of the whole run in seconds.
    pub makespan_s: f64,
    /// Per-worker total search seconds.
    pub worker_busy: Vec<f64>,
    /// Per-worker search intervals (start, end) for utilization curves.
    pub busy_intervals: Vec<Vec<(f64, f64)>>,
    /// Partition loads that missed every cache (cold, from Lustre).
    pub cold_loads: u64,
    /// Partition loads served from the node page cache (warm re-maps).
    pub warm_loads: u64,
    /// Total search seconds across workers (the "useful" work).
    pub total_search_s: f64,
    /// Work units executed more than once because their worker or master
    /// died — the re-dispatch cost of fault recovery (0 without deaths).
    pub redispatched: u64,
    /// Speculative backup copies launched against suspected stragglers
    /// (0 without [`Sim::speculate`]).
    pub speculated: usize,
    /// Cores the run was charged for (workers + dedicated master if any).
    pub cores: usize,
}

impl SimResult {
    /// Core-seconds charged: makespan × allocated cores.
    pub fn core_seconds(&self) -> f64 {
        self.makespan_s * self.cores as f64
    }

    /// Mean "useful CPU utilization" over the run (Fig. 5's metric averaged
    /// over time): total search time ÷ (makespan × cores).
    pub fn mean_utilization(&self) -> f64 {
        if self.makespan_s <= 0.0 {
            return 0.0;
        }
        self.total_search_s / self.core_seconds()
    }

    /// Utilization time series over `buckets` equal slices of the makespan
    /// (the Fig. 5 curve).
    pub fn utilization_curve(&self, buckets: usize) -> Vec<f64> {
        assert!(buckets > 0);
        let mut out = vec![0.0; buckets];
        if self.makespan_s <= 0.0 {
            return out;
        }
        let width = self.makespan_s / buckets as f64;
        for intervals in &self.busy_intervals {
            for &(s, e) in intervals {
                let first = ((s / width).floor() as usize).min(buckets - 1);
                let last = ((e / width).ceil() as usize).min(buckets);
                for (b, slot) in out.iter_mut().enumerate().take(last).skip(first) {
                    let b_start = b as f64 * width;
                    let b_end = b_start + width;
                    *slot += (e.min(b_end) - s.max(b_start)).max(0.0);
                }
            }
        }
        for v in &mut out {
            *v /= width * self.cores as f64;
        }
        out
    }

    /// An idle run of `workers` workers charged for `cores` cores.
    fn empty(workers: usize, cores: usize) -> Self {
        let busy_intervals = vec![Vec::new(); workers];
        SimResult { worker_busy: vec![0.0; workers], busy_intervals, cores, ..Default::default() }
    }

    /// Close the accounting: load counts and total search time.
    fn finish(mut self, loads: &LoadModel) -> Self {
        self.cold_loads = loads.cold;
        self.warm_loads = loads.warm;
        self.total_search_s = self.worker_busy.iter().sum();
        self
    }
}

/// LRU cache of partition indices with combined-RAM capacity.
///
/// This implements the paper's own explanation of the superlinear speedup:
/// "all 109 1GB DB partitions begin to fit entirely into the *combined RAM
/// of the MPI process ranks* (32 cores only have 64 GB)" — once the
/// aggregate page cache of the allocation covers the database, re-reads of
/// a previously loaded partition are warm re-maps; below that capacity the
/// LRU thrashes and loads come cold from Lustre. (Per-node cache locality
/// is not modelled; worker-level reuse is, see [`Sim::affinity`].)
struct LruCache {
    capacity: usize,
    entries: Vec<usize>, // most recent last
}

impl LruCache {
    fn new(capacity: usize) -> Self {
        LruCache { capacity, entries: Vec::new() }
    }

    /// Touch a partition; returns true when it was already cached.
    fn touch(&mut self, part: usize) -> bool {
        if let Some(pos) = self.entries.iter().position(|&p| p == part) {
            self.entries.remove(pos);
            self.entries.push(part);
            return true;
        }
        if self.capacity == 0 {
            return false;
        }
        if self.entries.len() == self.capacity {
            self.entries.remove(0);
        }
        self.entries.push(part);
        false
    }
}

/// Partition load costs over the allocation's combined page cache.
struct LoadModel<'a> {
    cluster: &'a ClusterModel,
    partition_gb: f64,
    cache: LruCache,
    cold: u64,
    warm: u64,
}

impl<'a> LoadModel<'a> {
    fn new(cluster: &'a ClusterModel, cores: usize, partition_gb: f64) -> Self {
        let nodes = cluster.nodes_for(cores);
        let capacity = cluster.cache_capacity(partition_gb, 4.0).saturating_mul(nodes);
        LoadModel { cluster, partition_gb, cache: LruCache::new(capacity), cold: 0, warm: 0 }
    }

    /// Load cost of `part`; updates the combined cache and counters.
    fn load(&mut self, part: usize) -> f64 {
        if self.cache.touch(part) {
            self.warm += 1;
            self.cluster.warm_load_s_per_gb * self.partition_gb
        } else {
            self.cold += 1;
            self.cluster.cold_load_s_per_gb * self.partition_gb
        }
    }
}

/// A scheduled fail-stop worker death for [`Sim::failures`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Failure {
    /// Worker index (0-based over the `cores − 1` workers).
    pub worker: usize,
    /// Virtual time at which the worker dies, in seconds.
    pub at_s: f64,
}

/// A straggler episode for [`Sim::stalls`]: the worker freezes (GC pause,
/// flaky NIC, contended node) but does not die.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stall {
    /// Worker index (0-based over the `cores − 1` workers).
    pub worker: usize,
    /// Virtual time at which the freeze begins, in seconds.
    pub at_s: f64,
    /// Freeze duration in seconds.
    pub dur_s: f64,
}

/// How the run answers the death of its dedicated master.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MasterLoss {
    /// In-place failover, as in `mrmpi::sched`. Dispatch stops at the death;
    /// `detect_s + failover_s` later the lowest live worker becomes master.
    /// Units finished meanwhile commit, except the new master's own, which
    /// is re-queued with its in-flight unit. A second election is not modelled.
    Failover { detect_s: f64, failover_s: f64 },
    /// The legacy fail-fast answer: abort `detect_s` after the death and
    /// re-run from scratch with cold caches. Units done before the abort
    /// count as redispatched; the load counts are the rerun's.
    AbortRestart { detect_s: f64 },
}

/// The dynamic master-worker schedule: rank 0 is a dedicated master and
/// the `cores − 1` workers, lowest index first, are handed units in `tasks`
/// order as they free up. The settings added before [`Sim::run`] compose.
/// At equal times events apply in the order master death < worker death <
/// completion < speculation check < promotion < dispatch wake-up: a unit
/// finishing as the master dies is unarbitrated, and one finishing on its
/// deadline is never speculated against.
#[derive(Debug, Clone, Copy)]
pub struct Sim<'a> {
    cluster: &'a ClusterModel,
    cores: usize,
    partition_gb: f64,
    affinity: bool,
    failures: &'a [Failure],
    detect_s: f64,
    stalls: &'a [Stall],
    suspect_after_s: Option<f64>,
    master: Option<(f64, MasterLoss)>,
}

impl<'a> Sim<'a> {
    /// The fault-free schedule on `cores` cores of `cluster`, with DB
    /// partitions of `partition_gb` GB.
    pub fn new(cluster: &'a ClusterModel, cores: usize, partition_gb: f64) -> Self {
        Sim {
            cluster,
            cores,
            partition_gb,
            affinity: false,
            failures: &[],
            detect_s: 0.0,
            stalls: &[],
            suspect_after_s: None,
            master: None,
        }
    }

    /// The paper's future-work **locality-aware** master: a freed worker
    /// gets a unit of the partition it holds, else one of the partition
    /// with most pending units, ties to the first seen (as the runtime).
    pub fn affinity(self) -> Self {
        Sim { affinity: true, ..self }
    }

    /// Fail-stop worker deaths, as in `mrmpi::sched`: a dying worker loses
    /// its in-flight unit **and every unit it completed**; the master
    /// re-dispatches them `detect_s` later. Cut-short compute is not charged.
    pub fn failures(self, failures: &'a [Failure], detect_s: f64) -> Self {
        Sim { failures, detect_s, ..self }
    }

    /// Stragglers: the unit a stalled worker is running (or is handed
    /// next) finishes the stall's duration late.
    pub fn stalls(self, stalls: &'a [Stall]) -> Self {
        Sim { stalls, ..self }
    }

    /// Speculation, as in `mrmpi::sched`: a unit `suspect_after_s` overdue is
    /// copied once to an idle worker; the first completion wins.
    pub fn speculate(self, suspect_after_s: f64) -> Self {
        Sim { suspect_after_s: Some(suspect_after_s), ..self }
    }

    /// The master dies at `at_s`, answered by `loss`.
    pub fn master_dies(self, at_s: f64, loss: MasterLoss) -> Self {
        Sim { master: Some((at_s, loss)), ..self }
    }

    /// Simulate the schedule over `tasks`. Busy intervals and
    /// `total_search_s` count every completed execution, re-runs included.
    ///
    /// # Panics
    /// With fewer than 2 cores (3 for [`MasterLoss::Failover`]), if a
    /// failure or stall names no worker, or if every worker dies early.
    pub fn run(&self, tasks: &[Task]) -> SimResult {
        assert!(self.cores >= 2, "master-worker needs >= 2 cores");
        if let Some((at_s, MasterLoss::AbortRestart { detect_s })) = self.master {
            return self.abort_restart(tasks, at_s, detect_s);
        }
        let workers = self.cores - 1;
        let mut run = Run {
            sim: self,
            tasks,
            loads: LoadModel::new(self.cluster, self.cores, self.partition_gb),
            events: BinaryHeap::new(),
            pool: Pool::new(tasks, self.affinity),
            workers: vec![Worker { alive: true, ..Worker::default() }; workers],
            idle: (0..workers).collect(),
            done: vec![false; tasks.len()],
            backed_up: vec![false; tasks.len()],
            frozen: false,
            ndone: 0,
            out: SimResult::empty(workers, self.cores),
        };
        if let Some((at_s, MasterLoss::Failover { detect_s, failover_s })) = self.master {
            assert!(self.cores >= 3, "failover needs >= 3 cores: master, successor, one worker");
            run.schedule(at_s, EV_MDEATH, 0);
            run.schedule(at_s + detect_s + failover_s, EV_PROMOTE, 0);
        }
        for f in self.failures {
            assert!(f.worker < workers, "failure names worker {} of {workers}", f.worker);
            run.schedule(f.at_s, EV_DEATH, f.worker);
        }
        let mut stalls: Vec<&Stall> = self.stalls.iter().collect();
        stalls.sort_by(|a, b| a.at_s.partial_cmp(&b.at_s).expect("no NaN stall times"));
        for s in stalls {
            assert!(s.worker < workers, "stall names worker {} of {workers}", s.worker);
            run.workers[s.worker].stalls.push_back((s.at_s, s.dur_s));
        }
        run.schedule(0.0, EV_WAKE, 0);
        while run.ndone < tasks.len() {
            let Some(Reverse((OrdF64(now), kind, x))) = run.events.pop() else {
                break; // every worker dead with units remaining
            };
            let changed = match kind {
                EV_MDEATH => {
                    run.frozen = true;
                    true
                }
                EV_DEATH => run.death(x, now),
                EV_FREE => run.free(x),
                EV_SPEC => run.suspect(x, now),
                EV_PROMOTE => run.promote(now),
                _ => true, // EV_WAKE: re-queued units became available
            };
            // Nobody dispatches between a master death and the promotion.
            if changed && !run.frozen {
                run.sweep(now);
            }
        }
        assert_eq!(run.ndone, tasks.len(), "all {workers} workers dead with units unfinished");
        run.out.finish(&run.loads)
    }

    /// [`MasterLoss::AbortRestart`]: the clean run up to the abort, then again.
    fn abort_restart(&self, tasks: &[Task], at_s: f64, detect_s: f64) -> SimResult {
        let clean = Sim { master: None, ..*self }.run(tasks);
        if at_s >= clean.makespan_s {
            return clean;
        }
        let abort_at = at_s + detect_s;
        let mut out = clean.clone();
        out.makespan_s = abort_at + clean.makespan_s;
        for (w, intervals) in clean.busy_intervals.iter().enumerate() {
            let wasted: Vec<_> =
                intervals.iter().copied().filter(|&(_, e)| e <= abort_at).collect();
            out.redispatched += wasted.len() as u64;
            out.worker_busy[w] =
                wasted.iter().fold(0.0, |acc, &(s, e)| acc + (e - s)) + clean.worker_busy[w];
            let rerun = intervals.iter().map(|&(s, e)| (s + abort_at, e + abort_at));
            out.busy_intervals[w] = wasted.into_iter().chain(rerun).collect();
        }
        out.total_search_s = out.worker_busy.iter().sum();
        out
    }
}

// Event kinds, in their order at equal times (see [`Sim`]).
const EV_MDEATH: u8 = 0;
const EV_DEATH: u8 = 1;
const EV_FREE: u8 = 2;
const EV_SPEC: u8 = 3;
const EV_PROMOTE: u8 = 4;
const EV_WAKE: u8 = 5;

/// Units awaiting dispatch in sub-pools ordered by (available-from, task
/// index): one shared sub-pool, or with affinity one per partition,
/// numbered in first-seen task order.
struct Pool {
    slot: Vec<usize>,
    subs: Vec<BinaryHeap<Reverse<(OrdF64, usize)>>>,
}

impl Pool {
    fn new(tasks: &[Task], affinity: bool) -> Self {
        let mut first_seen = HashMap::new();
        let mut pool = Pool { slot: Vec::new(), subs: Vec::new() };
        for (task, t) in tasks.iter().enumerate() {
            let next = first_seen.len();
            pool.slot.push(*first_seen.entry(if affinity { t.part } else { 0 }).or_insert(next));
            pool.subs.resize_with(first_seen.len(), BinaryHeap::new);
            pool.push(0.0, task);
        }
        pool
    }

    fn push(&mut self, avail: f64, task: usize) {
        self.subs[self.slot[task]].push(Reverse((OrdF64(avail), task)));
    }

    /// Take the next unit available at `now` for a worker holding `held`'s
    /// partition: from its sub-pool if ready, else from the fullest ready.
    fn pop(&mut self, held: Option<usize>, now: f64) -> Option<usize> {
        let ready = |s: &usize| self.subs[*s].peek().is_some_and(|Reverse((at, _))| at.0 <= now);
        let s = held.map(|task| self.slot[task]).filter(ready).or_else(|| {
            (0..self.subs.len()).filter(ready).max_by_key(|&s| (self.subs[s].len(), Reverse(s)))
        })?;
        self.subs[s].pop().map(|Reverse((_, task))| task)
    }
}

/// One worker's state during a [`Sim::run`].
#[derive(Clone, Default)]
struct Worker {
    alive: bool,
    /// (task, start, end) in flight; `end` includes stalls.
    running: Option<(usize, f64, f64)>,
    /// Committed units; their output dies with the worker.
    committed: Vec<usize>,
    /// A unit finished while the master was down, not yet arbitrated.
    carried: Option<usize>,
    /// The unit whose DB partition this worker holds.
    held: Option<usize>,
    /// Pending (start, duration) stalls, earliest first.
    stalls: VecDeque<(f64, f64)>,
}

/// The state of one [`Sim::run`]. Event handlers return whether the event
/// changed anything; a stale event triggers no dispatch.
struct Run<'s, 'a> {
    sim: &'s Sim<'a>,
    tasks: &'s [Task],
    loads: LoadModel<'a>,
    events: BinaryHeap<Reverse<(OrdF64, u8, usize)>>,
    pool: Pool,
    workers: Vec<Worker>,
    idle: BTreeSet<usize>,
    done: Vec<bool>,
    backed_up: Vec<bool>,
    /// The master is dead and no successor promoted yet.
    frozen: bool,
    ndone: usize,
    out: SimResult,
}

impl Run<'_, '_> {
    fn schedule(&mut self, t: f64, kind: u8, x: usize) {
        self.events.push(Reverse((OrdF64(t), kind, x)));
    }

    /// Hand available units to idle workers, lowest index first.
    fn sweep(&mut self, now: f64) {
        while let Some(&w) = self.idle.first() {
            let Some(task) = self.pool.pop(self.workers[w].held, now) else { break };
            if self.done[task] {
                continue; // a speculative copy already committed it
            }
            self.idle.remove(&w);
            self.dispatch(w, task, now);
        }
    }

    /// Hand `task` to `w` at `now`. Stalls starting before the unit ends
    /// delay it; the overdue check fires past the stall-free end.
    fn dispatch(&mut self, w: usize, task: usize, now: f64) {
        let Task { part, cost_s } = self.tasks[task];
        let worker = &mut self.workers[w];
        // A worker keeps its DB object "cached between map() invocations on
        // a given rank"; another partition is (re-)mapped, warm or cold.
        let load = if worker.held.is_some_and(|h| self.tasks[h].part == part) {
            0.0
        } else {
            self.loads.load(part)
        };
        worker.held = Some(task);
        let start = now + self.sim.cluster.dispatch_latency_s + load;
        let nominal_end = start + cost_s;
        let mut end = nominal_end;
        while let Some((_, dur)) = worker.stalls.front().copied().filter(|&(at, _)| at < end) {
            end += dur;
            worker.stalls.pop_front();
        }
        worker.running = Some((task, start, end));
        self.schedule(end, EV_FREE, w);
        if let Some(grace) = self.sim.suspect_after_s {
            self.schedule(nominal_end + grace, EV_SPEC, task);
        }
    }

    fn commit(&mut self, w: usize, task: usize, at: f64) {
        self.done[task] = true;
        self.workers[w].committed.push(task);
        self.ndone += 1;
        self.out.makespan_s = self.out.makespan_s.max(at);
    }

    /// Re-queue `w`'s in-flight and carried units and `committed` at `avail`.
    fn requeue(&mut self, w: usize, committed: Vec<usize>, avail: f64) -> usize {
        let running = self.workers[w].running.take().map(|(task, _, _)| task);
        let lost: Vec<usize> =
            running.into_iter().chain(self.workers[w].carried.take()).chain(committed).collect();
        lost.iter().for_each(|&task| self.pool.push(avail, task));
        self.out.redispatched += lost.len() as u64;
        lost.len()
    }

    fn death(&mut self, w: usize, now: f64) -> bool {
        if !self.workers[w].alive {
            return false;
        }
        self.workers[w].alive = false;
        self.idle.remove(&w);
        let committed = std::mem::take(&mut self.workers[w].committed);
        committed.iter().for_each(|&task| self.done[task] = false);
        self.ndone -= committed.len();
        let avail = now + self.sim.detect_s;
        if self.requeue(w, committed, avail) > 0 {
            self.schedule(avail, EV_WAKE, 0);
        }
        true
    }

    fn free(&mut self, w: usize) -> bool {
        // A death or the promotion took the unit already: nothing to do.
        let Some((task, start, end)) = self.workers[w].running.take() else { return false };
        self.idle.insert(w);
        if !self.done[task] {
            // else it lost the race to a speculative copy
            self.out.busy_intervals[w].push((start, end));
            self.out.worker_busy[w] += self.tasks[task].cost_s;
            if self.frozen {
                self.workers[w].carried = Some(task);
            } else {
                self.commit(w, task, end);
            }
        }
        true
    }

    /// Overdue check: copy `task` once if it is still running. With no idle
    /// worker or no live master, check again one grace period later.
    fn suspect(&mut self, task: usize, now: f64) -> bool {
        if self.done[task] || self.backed_up[task] {
            return false;
        }
        let running = |w: &Worker| w.running.filter(|&(t, _, _)| t == task);
        let Some(primary) = self.workers.iter().position(|w| running(w).is_some()) else {
            return false;
        };
        let (_, _, end) = running(&self.workers[primary]).expect("running");
        if end <= now + 1e-12 {
            return false; // completes momentarily; not worth a copy
        }
        let backup = self.idle.iter().copied().find(|&b| b != primary).filter(|_| !self.frozen);
        let Some(backup) = backup else {
            let grace = self.sim.suspect_after_s.expect("checks run only when speculating");
            self.schedule(now + grace, EV_SPEC, task);
            return false;
        };
        self.idle.remove(&backup);
        self.backed_up[task] = true;
        self.out.speculated += 1;
        self.dispatch(backup, task, now);
        true
    }

    /// The lowest live worker becomes the acting master.
    fn promote(&mut self, now: f64) -> bool {
        let Some(p) = self.workers.iter().position(|w| w.alive) else {
            return false; // all dead; the final assert reports it
        };
        self.requeue(p, Vec::new(), now);
        // Survivors' carried completions commit at first contact.
        for w in 0..self.workers.len() {
            if let Some(task) = self.workers[w].carried.take().filter(|&t| !self.done[t]) {
                self.commit(w, task, now);
            }
        }
        self.idle.remove(&p);
        self.frozen = false;
        true
    }
}

/// Simulate a static schedule (all cores compute; no dynamic balancing).
pub fn simulate_static(
    cluster: &ClusterModel,
    cores: usize,
    tasks: &[Task],
    partition_gb: f64,
    schedule: Schedule,
) -> SimResult {
    assert!(cores >= 1);
    let mut loads = LoadModel::new(cluster, cores, partition_gb);
    let mut out = SimResult::empty(cores, cores);
    let mut clock = vec![0.0f64; cores];
    let mut last_part: Vec<Option<usize>> = vec![None; cores];

    for (i, task) in tasks.iter().enumerate() {
        let w = match schedule {
            Schedule::RoundRobin => i % cores,
            Schedule::Chunk => i * cores / tasks.len().max(1),
        };
        let load = if last_part[w] == Some(task.part) {
            0.0
        } else {
            last_part[w] = Some(task.part);
            loads.load(task.part)
        };
        let start = clock[w] + load;
        let end = start + task.cost_s;
        out.busy_intervals[w].push((start, end));
        out.worker_busy[w] += task.cost_s;
        clock[w] = end;
    }
    out.makespan_s = clock.iter().copied().fold(0.0, f64::max);
    out.finish(&loads)
}

/// Total-orderable f64 for the event heap (costs are never NaN).
#[derive(Debug, Clone, Copy, PartialEq)]
struct OrdF64(f64);

impl Eq for OrdF64 {}

impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.partial_cmp(&other.0).expect("no NaN times")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cheap_cluster() -> ClusterModel {
        ClusterModel {
            cold_load_s_per_gb: 0.0,
            warm_load_s_per_gb: 0.0,
            dispatch_latency_s: 0.0,
            ..ClusterModel::ranger()
        }
    }

    fn uniform_tasks(n: usize, cost: f64) -> Vec<Task> {
        (0..n).map(|i| Task { part: i % 4, cost_s: cost }).collect()
    }

    #[test]
    fn uniform_tasks_give_ceil_distribution() {
        // 10 tasks, 3 cores (2 workers), unit cost, zero overheads:
        // makespan = ceil(10/2) = 5.
        let r = Sim::new(&cheap_cluster(), 3, 0.0).run(&uniform_tasks(10, 1.0));
        assert!((r.makespan_s - 5.0).abs() < 1e-9, "makespan {}", r.makespan_s);
        assert_eq!(r.total_search_s, 10.0);
    }

    #[test]
    fn single_worker_serializes() {
        let r = Sim::new(&cheap_cluster(), 2, 0.0).run(&uniform_tasks(7, 2.0));
        assert!((r.makespan_s - 14.0).abs() < 1e-9);
    }

    #[test]
    fn master_worker_beats_static_on_skewed_load() {
        // One giant task plus many small: dynamic dispatch must win.
        let mut tasks = vec![Task { part: 0, cost_s: 50.0 }];
        tasks.extend((0..40).map(|i| Task { part: i % 4, cost_s: 1.0 }));
        let cluster = cheap_cluster();
        let dynamic = Sim::new(&cluster, 5, 0.0).run(&tasks);
        let static_rr = simulate_static(&cluster, 5, &tasks, 0.0, Schedule::RoundRobin);
        assert!(
            dynamic.makespan_s < static_rr.makespan_s,
            "dynamic {} vs static {}",
            dynamic.makespan_s,
            static_rr.makespan_s
        );
        // Dynamic is near the lower bound max(longest task, total/workers).
        let lower = 50.0f64.max(90.0 / 4.0);
        assert!(dynamic.makespan_s <= lower * 1.1, "dynamic {}", dynamic.makespan_s);
    }

    #[test]
    fn tail_idling_appears_when_tasks_scarce() {
        // 5 equal tasks on 4 workers: one worker runs 2 → utilization 5/8.
        let r = Sim::new(&cheap_cluster(), 5, 0.0).run(&uniform_tasks(5, 1.0));
        assert!((r.makespan_s - 2.0).abs() < 1e-9);
        let util = r.total_search_s / (r.makespan_s * 4.0); // worker cores
        assert!((util - 5.0 / 8.0).abs() < 1e-9);
    }

    #[test]
    fn cold_then_warm_loads_with_cache() {
        let cluster = ClusterModel {
            cold_load_s_per_gb: 10.0,
            warm_load_s_per_gb: 1.0,
            dispatch_latency_s: 0.0,
            ..ClusterModel::ranger()
        };
        // 2 cores → 1 worker, alternating partitions 0,1,0,1 of 1 GB; node
        // cache holds both → first two cold, rest warm.
        let tasks: Vec<Task> =
            (0..6).map(|i| Task { part: i % 2, cost_s: 1.0 }).collect();
        let r = Sim::new(&cluster, 2, 1.0).run(&tasks);
        assert_eq!(r.cold_loads, 2);
        assert_eq!(r.warm_loads, 4);
        // makespan = 2 cold (10s) + 4 warm (1s) + 6 × 1s search.
        assert!((r.makespan_s - (20.0 + 4.0 + 6.0)).abs() < 1e-9, "{}", r.makespan_s);
    }

    #[test]
    fn repeated_same_partition_needs_no_reload() {
        let cluster = ClusterModel {
            cold_load_s_per_gb: 10.0,
            dispatch_latency_s: 0.0,
            ..ClusterModel::ranger()
        };
        let tasks = vec![Task { part: 3, cost_s: 1.0 }; 5];
        let r = Sim::new(&cluster, 2, 1.0).run(&tasks);
        assert_eq!(r.cold_loads, 1, "partition loaded once, then rank-cached");
        assert!((r.makespan_s - 15.0).abs() < 1e-9);
    }

    #[test]
    fn cache_too_small_thrashes() {
        let cluster = ClusterModel {
            ram_per_node_gb: 5.0, // capacity (5-4)/1 = 1 partition
            cold_load_s_per_gb: 10.0,
            warm_load_s_per_gb: 0.1,
            dispatch_latency_s: 0.0,
            ..ClusterModel::ranger()
        };
        let tasks: Vec<Task> = (0..6).map(|i| Task { part: i % 2, cost_s: 1.0 }).collect();
        let r = Sim::new(&cluster, 2, 1.0).run(&tasks);
        assert_eq!(r.cold_loads, 6, "alternating partitions must thrash a 1-slot cache");
    }

    #[test]
    fn utilization_curve_tapers_at_end() {
        // Few long tasks at the end starve most workers.
        let mut tasks = uniform_tasks(40, 1.0);
        tasks.push(Task { part: 0, cost_s: 10.0 });
        let r = Sim::new(&cheap_cluster(), 9, 0.0).run(&tasks);
        let curve = r.utilization_curve(10);
        assert!(curve[0] > 0.8, "start busy: {curve:?}");
        assert!(curve[9] < 0.4, "tail idle: {curve:?}");
    }

    #[test]
    fn affinity_dispatch_cuts_reloads_without_hurting_balance() {
        let cluster = ClusterModel {
            cold_load_s_per_gb: 5.0,
            warm_load_s_per_gb: 5.0, // cache off: every switch pays
            dispatch_latency_s: 0.0,
            ..ClusterModel::ranger()
        };
        // 8 partitions × 16 unit tasks, interleaved (block-major) order.
        let tasks: Vec<Task> =
            (0..128).map(|i| Task { part: i % 8, cost_s: 1.0 }).collect();
        let plain = Sim::new(&cluster, 5, 1.0).run(&tasks);
        let affine = Sim::new(&cluster, 5, 1.0).affinity().run(&tasks);
        assert_eq!(plain.total_search_s, affine.total_search_s);
        // With affinity, each of 4 workers should touch ~2 partitions; the
        // plain dispatcher reloads nearly every task.
        assert!(
            affine.cold_loads + affine.warm_loads <= 16,
            "affinity loads: {} + {}",
            affine.cold_loads,
            affine.warm_loads
        );
        assert!(
            plain.cold_loads + plain.warm_loads > 60,
            "plain loads unexpectedly low: {} + {}",
            plain.cold_loads,
            plain.warm_loads
        );
        assert!(affine.makespan_s < plain.makespan_s);
    }

    #[test]
    fn affinity_dispatch_handles_skew_like_plain() {
        let cluster = cheap_cluster();
        let mut tasks = vec![Task { part: 0, cost_s: 30.0 }];
        tasks.extend((0..40).map(|i| Task { part: 1 + i % 3, cost_s: 1.0 }));
        let r = Sim::new(&cluster, 5, 0.0).affinity().run(&tasks);
        let lower = 30.0f64.max(70.0 / 4.0);
        assert!(r.makespan_s <= lower * 1.35, "affinity makespan {}", r.makespan_s);
        assert_eq!(r.total_search_s, 70.0);
    }

    #[test]
    fn static_chunk_and_round_robin_process_all_tasks() {
        let tasks = uniform_tasks(13, 1.0);
        for sched in [Schedule::RoundRobin, Schedule::Chunk] {
            let r = simulate_static(&cheap_cluster(), 4, &tasks, 0.0, sched);
            assert_eq!(r.total_search_s, 13.0);
            assert!(r.makespan_s >= 13.0 / 4.0);
        }
    }

    #[test]
    fn faulty_sim_with_no_failures_matches_plain() {
        let cluster = ClusterModel {
            cold_load_s_per_gb: 3.0,
            warm_load_s_per_gb: 0.5,
            dispatch_latency_s: 0.01,
            ..ClusterModel::ranger()
        };
        let mut tasks = vec![Task { part: 0, cost_s: 9.0 }];
        tasks.extend((0..30).map(|i| Task { part: i % 4, cost_s: 1.0 + (i % 3) as f64 }));
        let plain = Sim::new(&cluster, 5, 1.0).run(&tasks);
        let faulty = Sim::new(&cluster, 5, 1.0).failures(&[], 0.5).run(&tasks);
        assert!((plain.makespan_s - faulty.makespan_s).abs() < 1e-9);
        assert_eq!(plain.cold_loads, faulty.cold_loads);
        assert_eq!(plain.warm_loads, faulty.warm_loads);
        assert_eq!(faulty.redispatched, 0);
    }

    #[test]
    fn dead_worker_at_t0_gives_reduced_ceil_distribution() {
        // 12 unit tasks, 4 cores (3 workers), one dead at t=0: the closed
        // form is ceil(12/2) = 6 on the two survivors.
        let fails = [Failure { worker: 1, at_s: 0.0 }];
        let r =
            Sim::new(&cheap_cluster(), 4, 0.0).failures(&fails, 0.25).run(&uniform_tasks(12, 1.0));
        assert!((r.makespan_s - 6.0).abs() < 1e-9, "makespan {}", r.makespan_s);
        assert_eq!(r.redispatched, 0, "a worker that never got a unit loses none");
    }

    #[test]
    fn mid_run_death_redispatches_completed_units_and_stretches_makespan() {
        // 3 workers, 12 unit tasks. Worker 0 dies at t=2.5: it has finished
        // units at t=1 and t=2 and is mid-unit — all 3 must be redone.
        let fails = [Failure { worker: 0, at_s: 2.5 }];
        let r =
            Sim::new(&cheap_cluster(), 4, 0.0).failures(&fails, 0.0).run(&uniform_tasks(12, 1.0));
        assert_eq!(r.redispatched, 3);
        // 12 final + 2 re-runs of completed units = 14 completed executions
        // (the killed in-flight unit's first attempt never finished).
        assert!((r.total_search_s - 14.0).abs() < 1e-9, "search {}", r.total_search_s);
        // Fault-free on 3 workers would be 4.0; losing a worker and 3 units
        // must cost extra, and the survivors' bound still holds.
        assert!(r.makespan_s > 4.0 + 1e-9, "makespan {}", r.makespan_s);
        assert!(r.makespan_s >= 12.0 / 2.0 - 1e-9);
    }

    #[test]
    fn detection_delay_is_paid_once_per_death() {
        // Single task, 2 workers; worker 0 dies mid-unit at t=1, detection
        // takes 2s, then worker 1 reruns the 3s unit: makespan = 1+2+3.
        let tasks = vec![Task { part: 0, cost_s: 3.0 }];
        let fails = [Failure { worker: 0, at_s: 1.0 }];
        let r = Sim::new(&cheap_cluster(), 3, 0.0).failures(&fails, 2.0).run(&tasks);
        assert!((r.makespan_s - 6.0).abs() < 1e-9, "makespan {}", r.makespan_s);
        assert_eq!(r.redispatched, 1);
    }

    #[test]
    fn death_after_completion_changes_nothing() {
        let fails = [Failure { worker: 0, at_s: 1e6 }];
        let r =
            Sim::new(&cheap_cluster(), 3, 0.0).failures(&fails, 0.5).run(&uniform_tasks(10, 1.0));
        assert!((r.makespan_s - 5.0).abs() < 1e-9);
        assert_eq!(r.redispatched, 0);
    }

    #[test]
    #[should_panic(expected = "workers dead")]
    fn all_workers_dead_panics_with_units_unfinished() {
        let fails = [Failure { worker: 0, at_s: 0.0 }, Failure { worker: 1, at_s: 0.0 }];
        Sim::new(&cheap_cluster(), 3, 0.0).failures(&fails, 0.1).run(&uniform_tasks(4, 1.0));
    }

    #[test]
    fn speculative_sim_with_no_stalls_matches_plain() {
        let cluster = ClusterModel {
            cold_load_s_per_gb: 3.0,
            warm_load_s_per_gb: 0.5,
            dispatch_latency_s: 0.01,
            ..ClusterModel::ranger()
        };
        let mut tasks = vec![Task { part: 0, cost_s: 9.0 }];
        tasks.extend((0..30).map(|i| Task { part: i % 4, cost_s: 1.0 + (i % 3) as f64 }));
        let plain = Sim::new(&cluster, 5, 1.0).run(&tasks);
        for speculate in [false, true] {
            let sim = Sim::new(&cluster, 5, 1.0).stalls(&[]);
            let spec = if speculate { sim.speculate(0.5) } else { sim }.run(&tasks);
            assert!(
                (plain.makespan_s - spec.makespan_s).abs() < 1e-9,
                "speculate={speculate}: {} vs {}",
                plain.makespan_s,
                spec.makespan_s
            );
            assert_eq!(spec.speculated, 0);
        }
    }

    #[test]
    fn stall_without_speculation_is_absorbed_in_full() {
        // 8 unit tasks on 2 workers; worker 0 freezes 10s inside its first
        // unit: without speculation the makespan pays the entire stall.
        let stalls = [Stall { worker: 0, at_s: 0.5, dur_s: 10.0 }];
        let r = Sim::new(&cheap_cluster(), 3, 0.0).stalls(&stalls).run(&uniform_tasks(8, 1.0));
        // Worker 1 clears the other 7 units by t=7; worker 0's unit lands at
        // t=11 and dominates.
        assert!((r.makespan_s - 11.0).abs() < 1e-9, "makespan {}", r.makespan_s);
        assert_eq!(r.speculated, 0);
    }

    #[test]
    fn speculation_hides_the_stall_and_first_result_wins() {
        let stalls = [Stall { worker: 0, at_s: 0.5, dur_s: 10.0 }];
        let r = Sim::new(&cheap_cluster(), 3, 0.0)
            .stalls(&stalls)
            .speculate(0.5)
            .run(&uniform_tasks(8, 1.0));
        // Worker 1 finishes the other 7 by t=7; the stuck unit is declared
        // overdue at t=1.5 and its backup runs on worker 1 as soon as it
        // idles — the run never waits for the frozen worker.
        assert!(r.makespan_s < 11.0 - 1e-9, "speculation must beat {}", r.makespan_s);
        assert!(r.makespan_s <= 8.0 + 1e-9, "makespan {}", r.makespan_s);
        assert_eq!(r.speculated, 1, "exactly one backup for one stuck unit");
        // Every unit appears exactly once in the winning busy intervals.
        assert!((r.total_search_s - 8.0).abs() < 1e-9, "search {}", r.total_search_s);
    }

    #[test]
    fn speculation_on_a_recovering_straggler_keeps_one_copy() {
        // The stall is short: the primary recovers and wins before the
        // backup (launched at suspicion) can finish; output conservation
        // still holds — the unit counts once.
        let stalls = [Stall { worker: 0, at_s: 0.2, dur_s: 1.2 }];
        let r = Sim::new(&cheap_cluster(), 3, 0.0)
            .stalls(&stalls)
            .speculate(0.1)
            .run(&uniform_tasks(2, 1.0));
        assert!((r.total_search_s - 2.0).abs() < 1e-9, "search {}", r.total_search_s);
        assert!(r.makespan_s <= 2.2 + 1e-9, "makespan {}", r.makespan_s);
    }

    #[test]
    fn speculation_scales_to_paper_sized_fleets() {
        // 1024 cores, one straggler frozen for an hour mid-unit: with
        // speculation the fleet's makespan is within noise of fault-free.
        let cluster = cheap_cluster();
        let tasks = uniform_tasks(4096, 30.0);
        let clean = Sim::new(&cluster, 1024, 0.0).run(&tasks);
        let stalls = [Stall { worker: 17, at_s: 10.0, dur_s: 3600.0 }];
        let stalled = Sim::new(&cluster, 1024, 0.0).stalls(&stalls).run(&tasks);
        let spec = Sim::new(&cluster, 1024, 0.0).stalls(&stalls).speculate(15.0).run(&tasks);
        assert!(stalled.makespan_s > clean.makespan_s + 3000.0, "{}", stalled.makespan_s);
        assert!(
            spec.makespan_s < clean.makespan_s + 120.0,
            "speculated makespan {} vs clean {}",
            spec.makespan_s,
            clean.makespan_s
        );
        assert_eq!(spec.speculated, 1);
    }

    #[test]
    fn failover_sim_with_master_death_after_completion_matches_plain() {
        let cluster = ClusterModel {
            cold_load_s_per_gb: 3.0,
            warm_load_s_per_gb: 0.5,
            dispatch_latency_s: 0.01,
            ..ClusterModel::ranger()
        };
        let mut tasks = vec![Task { part: 0, cost_s: 9.0 }];
        tasks.extend((0..30).map(|i| Task { part: i % 4, cost_s: 1.0 + (i % 3) as f64 }));
        let plain = Sim::new(&cluster, 5, 1.0).run(&tasks);
        let fo = Sim::new(&cluster, 5, 1.0)
            .master_dies(1e6, MasterLoss::Failover { detect_s: 0.5, failover_s: 0.5 })
            .run(&tasks);
        assert!((plain.makespan_s - fo.makespan_s).abs() < 1e-9);
        assert_eq!(plain.cold_loads, fo.cold_loads);
        assert_eq!(plain.warm_loads, fo.warm_loads);
        assert_eq!(fo.redispatched, 0);
    }

    #[test]
    fn master_death_freezes_dispatch_and_promotion_loses_one_worker() {
        // 2 workers, 8 unit tasks. Units 4 and 5 are in flight when the
        // master dies at t=2.5; both land at t=3 unarbitrated. Failover
        // completes at t=4 = 2.5 + 1.0 detect + 0.5 election: worker 1's
        // carried unit commits then, worker 0 is promoted and its carried
        // unit is discarded. The single remaining worker clears units 6, 7
        // and the re-run at t=5, 6, 7.
        let r = Sim::new(&cheap_cluster(), 3, 0.0)
            .master_dies(2.5, MasterLoss::Failover { detect_s: 1.0, failover_s: 0.5 })
            .run(&uniform_tasks(8, 1.0));
        assert!((r.makespan_s - 7.0).abs() < 1e-9, "makespan {}", r.makespan_s);
        assert_eq!(r.redispatched, 1, "exactly the promoted worker's carried unit");
        // 8 final + 1 discarded execution all really ran.
        assert!((r.total_search_s - 9.0).abs() < 1e-9, "search {}", r.total_search_s);
    }

    #[test]
    fn promotion_discards_the_successors_in_flight_unit() {
        // 2 workers, 6 tasks of 2s. Promotion fires at t=3.9 while both
        // workers are mid-unit: worker 0 is promoted and its in-flight unit
        // 2 is re-queued (its partial compute uncharged); worker 1 finishes
        // unit 3 at t=4 and then serially clears units 4, 5 and the re-run:
        // makespan 4 + 3 × 2 = 10.
        let r = Sim::new(&cheap_cluster(), 3, 0.0)
            .master_dies(2.5, MasterLoss::Failover { detect_s: 1.0, failover_s: 0.4 })
            .run(&uniform_tasks(6, 2.0));
        assert!((r.makespan_s - 10.0).abs() < 1e-9, "makespan {}", r.makespan_s);
        assert_eq!(r.redispatched, 1);
        assert!((r.total_search_s - 12.0).abs() < 1e-9, "search {}", r.total_search_s);
    }

    #[test]
    fn failover_composes_with_a_worker_death() {
        // Worker 2 dies mid-run, then the master dies: both recoveries land
        // in one run and every unit still completes exactly once.
        let fails = [Failure { worker: 2, at_s: 1.5 }];
        let r = Sim::new(&cheap_cluster(), 4, 0.0)
            .failures(&fails, 0.5)
            .master_dies(2.5, MasterLoss::Failover { detect_s: 0.5, failover_s: 0.5 })
            .run(&uniform_tasks(12, 1.0));
        // Worker 2 loses its completed unit and its in-flight unit; the
        // promoted worker discards one more.
        assert_eq!(r.redispatched, 3, "redispatched {}", r.redispatched);
        assert!(r.total_search_s >= 12.0 - 1e-9);
        assert!(r.makespan_s >= 12.0 / 3.0);
    }

    #[test]
    fn abort_restart_pays_for_the_whole_rerun_and_failover_beats_it() {
        // 2 workers, 20 unit tasks → clean makespan 10. Master dies at t=8.
        let tasks = uniform_tasks(20, 1.0);
        let cluster = cheap_cluster();
        let abort = Sim::new(&cluster, 3, 0.0)
            .master_dies(8.0, MasterLoss::AbortRestart { detect_s: 1.0 })
            .run(&tasks);
        // Abort declared at t=9; full rerun appended: 9 + 10.
        assert!((abort.makespan_s - 19.0).abs() < 1e-9, "abort {}", abort.makespan_s);
        // 18 units had completed by t=9 (9 per worker) and are thrown away.
        assert_eq!(abort.redispatched, 18);
        assert!((abort.total_search_s - 38.0).abs() < 1e-9, "search {}", abort.total_search_s);
        let fo = Sim::new(&cluster, 3, 0.0)
            .master_dies(8.0, MasterLoss::Failover { detect_s: 1.0, failover_s: 0.5 })
            .run(&tasks);
        assert!(
            fo.makespan_s < abort.makespan_s - 1e-9,
            "failover {} must beat abort-restart {}",
            fo.makespan_s,
            abort.makespan_s
        );
    }

    #[test]
    fn abort_restart_with_late_death_matches_plain() {
        let tasks = uniform_tasks(10, 1.0);
        let plain = Sim::new(&cheap_cluster(), 3, 0.0).run(&tasks);
        let r = Sim::new(&cheap_cluster(), 3, 0.0)
            .master_dies(1e6, MasterLoss::AbortRestart { detect_s: 1.0 })
            .run(&tasks);
        assert!((r.makespan_s - plain.makespan_s).abs() < 1e-9);
        assert_eq!(r.redispatched, 0);
    }

    #[test]
    fn core_seconds_and_mean_utilization() {
        let r = Sim::new(&cheap_cluster(), 3, 0.0).run(&uniform_tasks(4, 1.0));
        assert!((r.makespan_s - 2.0).abs() < 1e-9);
        assert!((r.core_seconds() - 6.0).abs() < 1e-9);
        // 4 search-seconds over 6 core-seconds (master idles by design).
        assert!((r.mean_utilization() - 4.0 / 6.0).abs() < 1e-9);
    }

    #[test]
    fn a_stale_completion_dispatches_nothing() {
        // Worker 0 dies at t=1 mid-unit; detection re-queues its unit at
        // t=2, the instant its preempted completion would have fired. That
        // stale event must not dispatch: the unit goes to the lowest worker
        // idle at t=2 (worker 1, freed then), not to worker 2.
        let tasks = [2.0, 2.0, 1.0].map(|cost_s| Task { part: 0, cost_s });
        let deaths = [Failure { worker: 0, at_s: 1.0 }];
        let r = Sim::new(&cheap_cluster(), 4, 0.0).failures(&deaths, 1.0).run(&tasks);
        assert_eq!(r.busy_intervals[1], vec![(0.0, 2.0), (2.0, 4.0)]);
        assert_eq!(r.busy_intervals[2], vec![(0.0, 1.0)]);
        assert_eq!(r.redispatched, 1);
    }

    #[test]
    fn affinity_with_a_worker_death_and_a_speculated_stall_commits_every_unit_once() {
        // The combination the runtime's locality-aware master already runs:
        // 8 workers, 96 units over 6 partitions, worker 3 dies at t=7.25
        // and worker 5 freezes for 500 s, with speculation on.
        let cluster = ClusterModel {
            cold_load_s_per_gb: 2.0,
            warm_load_s_per_gb: 0.5,
            dispatch_latency_s: 0.01,
            ..ClusterModel::ranger()
        };
        let tasks: Vec<Task> =
            (0..96).map(|i| Task { part: i % 6, cost_s: (1 + i % 5) as f64 }).collect();
        let (dead, survivors) = (3, 7);
        let deaths = [Failure { worker: dead, at_s: 7.25 }];
        let stalls = [Stall { worker: 5, at_s: 2.0, dur_s: 500.0 }];
        let r = Sim::new(&cluster, 9, 1.0)
            .affinity()
            .failures(&deaths, 0.5)
            .stalls(&stalls)
            .speculate(3.0)
            .run(&tasks);

        // Survivors commit every unit exactly once: one busy interval per
        // unit, and their search seconds add up to the total cost.
        let total: f64 = tasks.iter().map(|t| t.cost_s).sum();
        let alive = |w: &usize| *w != dead;
        let committed: usize = (0..8).filter(alive).map(|w| r.busy_intervals[w].len()).sum();
        let committed_s: f64 = (0..8).filter(alive).map(|w| r.worker_busy[w]).sum();
        assert_eq!(committed, tasks.len());
        assert_eq!(committed_s, total);
        // The dead worker's completions were charged, then redone.
        assert_eq!(r.total_search_s, total + r.worker_busy[dead]);
        // At t=7.25 most units are still pending, so the dead worker was
        // mid-unit: it loses that unit plus every unit it completed.
        assert_eq!(r.redispatched, r.busy_intervals[dead].len() as u64 + 1);
        assert!(r.busy_intervals[dead].iter().all(|&(_, e)| e <= 7.25));

        let longest = tasks.iter().map(|t| t.cost_s).fold(0.0, f64::max);
        assert!(r.makespan_s >= longest.max(total / survivors as f64), "{}", r.makespan_s);
        // The frozen unit was backed up, so the run did not wait 500 s.
        assert!(r.speculated >= 1);
        assert!(r.makespan_s < 500.0, "makespan {}", r.makespan_s);
    }
}
