//! Golden digests of the master-worker simulator.
//!
//! Every scenario the figure and ablation benches run is simulated here and
//! each `SimResult` field is hashed bit for bit (FNV-1a over `to_bits`), so
//! any change to event order, tie-breaking or floating-point arithmetic in
//! the DES shows up as a digest mismatch rather than as a quietly moved
//! figure.

use perfmodel::{BlastScenario, ClusterModel, Failure, MasterLoss, Sim, SimResult, Stall};

struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn digest(r: &SimResult) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    h.word(r.makespan_s.to_bits());
    h.word(r.worker_busy.len() as u64);
    for b in &r.worker_busy {
        h.word(b.to_bits());
    }
    h.word(r.busy_intervals.len() as u64);
    for intervals in &r.busy_intervals {
        h.word(intervals.len() as u64);
        for &(s, e) in intervals {
            h.word(s.to_bits());
            h.word(e.to_bits());
        }
    }
    h.word(r.cold_loads);
    h.word(r.warm_loads);
    h.word(r.total_search_s.to_bits());
    h.word(r.redispatched);
    h.word(r.speculated as u64);
    h.word(r.cores as u64);
    h.0
}

/// Compare labelled digests against the pinned table, printing the actual
/// table on mismatch so a deliberate model change can be re-pinned.
fn check(actual: &[(String, u64)], expected: &[(&str, u64)]) {
    let got: Vec<(&str, u64)> = actual.iter().map(|(l, d)| (l.as_str(), *d)).collect();
    if got != expected {
        let table: String = got
            .iter()
            .map(|(l, d)| format!("        (\"{l}\", {d:#018x}),\n"))
            .collect();
        panic!("DES digests moved; actual table:\n{table}");
    }
}

const PAPER_SUBSET: [usize; 4] = [3, 32, 128, 1024];

/// The 1024-core 80K/1000 baseline the fault, failover and speculation
/// ablations time their injections against.
fn paper_1024() -> (
    ClusterModel,
    BlastScenario,
    Vec<perfmodel::des::Task>,
    SimResult,
) {
    let cluster = ClusterModel::ranger();
    let scenario = BlastScenario::paper_nucleotide(80_000, 1000);
    let tasks = scenario.tasks();
    let base = Sim::new(&cluster, 1024, scenario.partition_gb).run(&tasks);
    (cluster, scenario, tasks, base)
}

#[test]
fn plain_and_affinity_digests_are_pinned() {
    let cluster = ClusterModel::ranger();
    let mut actual = Vec::new();
    for block in [1000, 250] {
        let scenario = BlastScenario::paper_nucleotide(80_000, block);
        let tasks = scenario.tasks();
        for cores in PAPER_SUBSET {
            let sim = Sim::new(&cluster, cores, scenario.partition_gb);
            actual.push((format!("plain {block} @{cores}"), digest(&sim.run(&tasks))));
            actual.push((
                format!("affinity {block} @{cores}"),
                digest(&sim.affinity().run(&tasks)),
            ));
        }
    }
    check(
        &actual,
        &[
            ("plain 1000 @3", 0x2ecb9dffeb102d2b),
            ("affinity 1000 @3", 0xe03b0c73cc09743f),
            ("plain 1000 @32", 0x9b8aad90808edb4c),
            ("affinity 1000 @32", 0xc491c4390cb89222),
            ("plain 1000 @128", 0x591eeeb1e5ae60c2),
            ("affinity 1000 @128", 0x3b86c40ef2b0a299),
            ("plain 1000 @1024", 0x244b8d90aa5c58ff),
            ("affinity 1000 @1024", 0x7e4b31f652e434ec),
            ("plain 250 @3", 0x352169de180fceaf),
            ("affinity 250 @3", 0xd4c8f24d42aa6228),
            ("plain 250 @32", 0x0addf992e3df508a),
            ("affinity 250 @32", 0x8a209c94a900bf63),
            ("plain 250 @128", 0x6a2603e210587cc6),
            ("affinity 250 @128", 0xc5e7f1b81457aabc),
            ("plain 250 @1024", 0x9df1287e9506cc00),
            ("affinity 250 @1024", 0x062b72232ea7f078),
        ],
    );
}

#[test]
fn worker_failure_digests_are_pinned() {
    let (cluster, scenario, tasks, base) = paper_1024();
    let workers = 1023;
    let mut actual = Vec::new();
    for (nfail, frac) in [
        (1usize, 0.5f64),
        (4, 0.5),
        (16, 0.5),
        (16, 0.1),
        (16, 0.9),
        (64, 0.5),
    ] {
        let failures: Vec<Failure> = (0..nfail)
            .map(|i| Failure {
                worker: i * workers / nfail,
                at_s: base.makespan_s * frac,
            })
            .collect();
        let r = Sim::new(&cluster, 1024, scenario.partition_gb)
            .failures(&failures, 0.5)
            .run(&tasks);
        actual.push((format!("{nfail} deaths at {frac}"), digest(&r)));
    }
    check(
        &actual,
        &[
            ("1 deaths at 0.5", 0x02364f89c1b3e304),
            ("4 deaths at 0.5", 0xd3ae7b7268069deb),
            ("16 deaths at 0.5", 0xa7aa5084c266152c),
            ("16 deaths at 0.1", 0xab0c7f41fb668caa),
            ("16 deaths at 0.9", 0x778459b3ac3c94d1),
            ("64 deaths at 0.5", 0x44f33fb09bf2a63a),
        ],
    );
}

#[test]
fn master_loss_digests_are_pinned() {
    let (cluster, scenario, tasks, base) = paper_1024();
    let (detect_s, failover_s) = (15.0, 5.0);
    let worker_death = [Failure {
        worker: 511,
        at_s: base.makespan_s * 0.4,
    }];
    let mut actual = Vec::new();
    for frac in [0.25f64, 0.5, 0.75] {
        let at_s = base.makespan_s * frac;
        let sim = Sim::new(&cluster, 1024, scenario.partition_gb);
        let failover = sim.master_dies(
            at_s,
            MasterLoss::Failover {
                detect_s,
                failover_s,
            },
        );
        actual.push((format!("failover at {frac}"), digest(&failover.run(&tasks))));
        let both = failover.failures(&worker_death, detect_s);
        actual.push((
            format!("failover + worker death at {frac}"),
            digest(&both.run(&tasks)),
        ));
        let abort = sim.master_dies(at_s, MasterLoss::AbortRestart { detect_s });
        actual.push((
            format!("abort-restart at {frac}"),
            digest(&abort.run(&tasks)),
        ));
    }
    check(
        &actual,
        &[
            ("failover at 0.25", 0x1835a3704d42de10),
            ("failover + worker death at 0.25", 0x58591e7d9f91ea75),
            ("abort-restart at 0.25", 0x0eb94a4dc5283678),
            ("failover at 0.5", 0xe20663e5d1a74465),
            ("failover + worker death at 0.5", 0x522e206281b01db5),
            ("abort-restart at 0.5", 0x4e34f00824ea114b),
            ("failover at 0.75", 0x244b8d90aa5c58ff),
            ("failover + worker death at 0.75", 0x4aa52708c70b1a30),
            ("abort-restart at 0.75", 0x107416f6880952cd),
        ],
    );
}

#[test]
fn straggler_digests_are_pinned() {
    let (cluster, scenario, tasks, base) = paper_1024();
    let mut actual = Vec::new();
    for stall_min in [5.0f64, 15.0, 60.0] {
        let stalls = [Stall {
            worker: 17,
            at_s: base.makespan_s * 0.3,
            dur_s: stall_min * 60.0,
        }];
        let sim = Sim::new(&cluster, 1024, scenario.partition_gb).stalls(&stalls);
        actual.push((
            format!("{stall_min} min stall, spec off"),
            digest(&sim.run(&tasks)),
        ));
        let on = sim.speculate(15.0).run(&tasks);
        actual.push((format!("{stall_min} min stall, spec on"), digest(&on)));
    }
    check(
        &actual,
        &[
            ("5 min stall, spec off", 0x2a10c1d42201da33),
            ("5 min stall, spec on", 0x68d023f0e557c1f0),
            ("15 min stall, spec off", 0x345d1d775d96680f),
            ("15 min stall, spec on", 0x68d023f0e557c1f0),
            ("60 min stall, spec off", 0x660b2e25468064e3),
            ("60 min stall, spec on", 0x68d023f0e557c1f0),
        ],
    );
}

#[test]
fn affinity_model_is_deterministic_within_one_process() {
    // Ties between equally full partitions must not be broken in hash
    // order: eight runs in one process give the same bits.
    let cluster = ClusterModel::ranger();
    let scenario = BlastScenario::paper_nucleotide(80_000, 1000);
    let tasks = scenario.tasks();
    let sim = Sim::new(&cluster, 64, scenario.partition_gb).affinity();
    let first = digest(&sim.run(&tasks));
    for run in 1..8 {
        assert_eq!(
            digest(&sim.run(&tasks)),
            first,
            "run {run} differs from run 0"
        );
    }
}
