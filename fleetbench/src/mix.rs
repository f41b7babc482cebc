//! Seeded inputs: the job mixes and the open-loop arrival schedule. The
//! program under test receives only the `JobSpec`s made here.

use trustmeter_fleet::{AttackSpec, JobSpec, TenantId};
use trustmeter_workloads::Workload;

/// splitmix64: the benchmark's own generator, so inputs do not depend on
/// the simulator's RNG.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in (0, 1].
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 1.0) / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The fleet seed the service runs under, derived from the benchmark seed.
pub fn fleet_seed(seed: u64) -> u64 {
    Rng::new(seed ^ 0xF1EE_7BE7_C4A7_0001).next_u64()
}

/// Tenants of every workload; tenant 1 is the batch tenant of the open
/// loop.
pub const TENANTS: [TenantId; 4] = [TenantId(1), TenantId(2), TenantId(3), TenantId(4)];

/// Rate cards in $/cpu-hour; fairness weights are their multiples of the
/// cheapest card, so [1, 2, 2, 4].
pub const RATE_CARDS: [f64; 4] = [0.05, 0.10, 0.10, 0.20];

/// The deficit-round-robin weight a tenant's rate card buys.
pub fn weight(tenant: usize) -> u32 {
    (RATE_CARDS[tenant] / RATE_CARDS[0]).round() as u32
}

/// Scales of the closed-loop mix.
const CLOSED_SCALES: [f64; 2] = [0.001, 0.01];

/// The cheap code-injection attacks of the closed-loop mix.
const CHEAP_ATTACKS: [AttackSpec; 3] = [
    AttackSpec::Shell,
    AttackSpec::PreloadConstructor,
    AttackSpec::Interposition,
];

/// Jobs per block of the closed-loop mix: every tenant × workload × scale
/// once, four of them attacked.
pub const CLOSED_BLOCK: usize = 32;

/// The closed-loop mix: blocks of [`CLOSED_BLOCK`] jobs, each block every
/// (tenant, workload, scale) combination once in a seeded order. One job
/// in eight is attacked — the combinations where the tenant index equals
/// the workload index, at one scale each — rotating through the cheap
/// code-injection attacks. Every seed gives the same composition, so
/// seeds vary the order and the kernel seeds, not the amount of work.
pub fn closed_batch(seed: u64, jobs: usize) -> Vec<JobSpec> {
    let mut rng = Rng::new(seed);
    let mut out = Vec::with_capacity(jobs);
    let mut block = Vec::with_capacity(CLOSED_BLOCK);
    let mut attacks = 0usize;
    while out.len() < jobs {
        block.clear();
        for t in 0..TENANTS.len() {
            for (w, workload) in Workload::ALL.iter().enumerate() {
                for (s, scale) in CLOSED_SCALES.iter().enumerate() {
                    block.push((t, *workload, *scale, t == w && s == w % 2));
                }
            }
        }
        rng.shuffle(&mut block);
        for (t, workload, scale, attacked) in block.drain(..) {
            if out.len() == jobs {
                break;
            }
            let id = out.len() as u64;
            out.push(if attacked {
                let attack = CHEAP_ATTACKS[attacks % CHEAP_ATTACKS.len()];
                attacks += 1;
                JobSpec::attacked(id, TENANTS[t], workload, scale, attack)
            } else {
                JobSpec::clean(id, TENANTS[t], workload, scale)
            });
        }
    }
    out
}

/// Scale of every open-loop job.
const OPEN_SCALE: f64 = 0.001;

/// Arrivals after which the open-loop mix repeats.
pub const OPEN_CYCLE: usize = 84;

/// The open-loop job kind at arrival index `i`: every third arrival is
/// attacked, rotating through all seven attacks; the workload rotates too.
/// Any [`OPEN_CYCLE`] consecutive arrivals hold the same mix.
pub fn open_job(i: u64, tenant: TenantId) -> JobSpec {
    let k = (i / 3) as usize;
    match i % 3 {
        2 => {
            let attack = AttackSpec::ALL[k % AttackSpec::ALL.len()];
            let workload = Workload::ALL[(k / AttackSpec::ALL.len()) % 4];
            JobSpec::attacked(i, tenant, workload, OPEN_SCALE, attack)
        }
        r => JobSpec::clean(
            i,
            tenant,
            Workload::ALL[(2 * k + r as usize) % 4],
            OPEN_SCALE,
        ),
    }
}

/// One scheduled open-loop arrival.
#[derive(Debug, Clone)]
pub struct Arrival {
    /// When the job is due, in nanoseconds after the window opens.
    pub at_ns: u64,
    pub job: JobSpec,
}

/// Period of the batch tenant's bursts.
const BURST_PERIOD_S: f64 = 0.5;

/// The open-loop schedule over `duration` seconds at `rate` jobs/s: the
/// three interactive tenants (2, 3, 4) each send an independent Poisson
/// stream of a quarter of the rate; the batch tenant (1) sends its quarter
/// as one burst every [`BURST_PERIOD_S`], starting at a seeded phase.
pub fn open_schedule(seed: u64, rate: f64, duration: f64) -> Vec<Arrival> {
    let mut rng = Rng::new(seed ^ 0x09E4_100B);
    let share = rate / 4.0;
    let mut timed: Vec<(u64, TenantId)> = Vec::new();
    for tenant in &TENANTS[1..] {
        let mut at = 0.0;
        loop {
            at += -rng.unit().ln() / share;
            if at >= duration {
                break;
            }
            timed.push(((at * 1e9) as u64, *tenant));
        }
    }
    let burst = (share * BURST_PERIOD_S).round().max(1.0) as usize;
    let mut at = rng.unit() * BURST_PERIOD_S;
    while at < duration {
        timed.extend(std::iter::repeat_n(((at * 1e9) as u64, TENANTS[0]), burst));
        at += BURST_PERIOD_S;
    }
    // Stable: a burst keeps its jobs together.
    timed.sort_by_key(|(at, _)| *at);
    timed
        .into_iter()
        .enumerate()
        .map(|(i, (at_ns, tenant))| Arrival {
            at_ns,
            job: open_job(i as u64, tenant),
        })
        .collect()
}
