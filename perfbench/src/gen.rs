//! Seeded workload generation.
//!
//! Everything the program under test receives is drawn here from the
//! `--seed` argument, with a generator of the benchmark's own so that the
//! inputs stay the same when the repository's vendored RNG changes. Pools
//! are stratified (every model and strategy gets the same share) so that
//! seeds change which inputs run, not how much work a run holds.

/// The zoo models every library workload draws from.
pub const ZOO: [&str; 7] = [
    "TinyYOLOv4",
    "TinyYOLOv3",
    "VGG16",
    "VGG19",
    "ResNet50",
    "ResNet101",
    "ResNet152",
];

/// SplitMix64.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n.max(1)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// `count` indices into a pool of `n`, as back-to-back seeded
/// permutations: every entry runs equally often (±1).
pub fn passes(rng: &mut Rng, n: usize, count: usize) -> Vec<usize> {
    let mut out = Vec::with_capacity(count);
    let mut pass: Vec<usize> = (0..n).collect();
    while out.len() < count && n > 0 {
        rng.shuffle(&mut pass);
        out.extend(pass.iter().take(count - out.len()));
    }
    out
}

/// Scheduling strategy of one compile, in the paper's notation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Layer-by-layer baseline.
    LayerByLayer,
    /// Cross-layer scheduling.
    Xinf,
    /// Weight duplication.
    Wdup,
    /// Weight duplication plus cross-layer scheduling.
    WdupXinf,
}

/// Edge-cost model of one compile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CostModel {
    /// The paper's peak model.
    Free,
    /// NoC hop latency on forwarded data.
    NocHops,
    /// NoC hops plus GPEU processing.
    NocAndGpeu,
}

/// One compile configuration of `compile-cold`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompileSpec {
    /// Index into [`ZOO`].
    pub model: usize,
    /// Mapping and scheduling strategy.
    pub strategy: Strategy,
    /// Extra PEs over `PE_min`.
    pub x: usize,
    /// Stage-I sets per OFM (`None` = finest).
    pub max_sets: Option<usize>,
    /// Edge-cost model.
    pub cost: CostModel,
}

const STRATEGIES: [Strategy; 4] = [
    Strategy::LayerByLayer,
    Strategy::Xinf,
    Strategy::Wdup,
    Strategy::WdupXinf,
];

const XS: [usize; 5] = [0, 8, 16, 32, 64];
const POLICIES: [Option<usize>; 3] = [None, Some(8), Some(2)];
const COSTS: [CostModel; 3] = [CostModel::Free, CostModel::NocHops, CostModel::NocAndGpeu];

/// The `compile-cold` pool: every model × strategy × extra-PE count ×
/// Stage-I policy × cost model, once each (1,260 configs). A seed changes
/// only the order they run in (see [`passes`]), so every seed measures
/// the same work.
pub fn compile_pool() -> Vec<CompileSpec> {
    let mut pool =
        Vec::with_capacity(ZOO.len() * STRATEGIES.len() * XS.len() * POLICIES.len() * COSTS.len());
    for model in 0..ZOO.len() {
        for strategy in STRATEGIES {
            for x in XS {
                for max_sets in POLICIES {
                    for cost in COSTS {
                        pool.push(CompileSpec {
                            model,
                            strategy,
                            x,
                            max_sets,
                            cost,
                        });
                    }
                }
            }
        }
    }
    pool
}

/// One `(model, strategy, x)` key of the serve registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeKey {
    /// Registry model name.
    pub model: &'static str,
    /// Strategy name on the wire.
    pub strategy: &'static str,
    /// Extra PEs (only duplication strategies read it).
    pub x: usize,
}

/// Configurations every registry model serves in the popular head.
const HEAD_CONFIGS: [(&str, usize); 8] = [
    ("layer-by-layer", 0),
    ("xinf", 0),
    ("wdup", 0),
    ("wdup", 4),
    ("wdup", 16),
    ("wdup+xinf", 0),
    ("wdup+xinf", 4),
    ("wdup+xinf", 16),
];

/// Keys in the popular head: the first entries of [`serve_keys`].
pub const SERVE_HEAD: usize = (1 + ZOO.len()) * HEAD_CONFIGS.len();

/// The model of every first-time key, under both duplication strategies
/// at these extra-PE counts. New keys of one model cost about the same, so
/// the cold misses that set the tail form one smooth cost distribution
/// rather than one cluster per model, whose boundaries a tail percentile
/// would hop across.
const COLD_MODEL: &str = "TinyYOLOv4";
const COLD_XS: std::ops::Range<usize> = 24..174;

/// Every key the serve workload can draw: first the head (each registry
/// model under [`HEAD_CONFIGS`]), then the first-time keys.
pub fn serve_keys() -> Vec<ServeKey> {
    let mut keys = Vec::new();
    for model in std::iter::once("fig5").chain(ZOO) {
        for (strategy, x) in HEAD_CONFIGS {
            keys.push(ServeKey { model, strategy, x });
        }
    }
    for strategy in ["wdup", "wdup+xinf"] {
        for x in COLD_XS {
            keys.push(ServeKey {
                model: COLD_MODEL,
                strategy,
                x,
            });
        }
    }
    keys
}

/// Zipf sampler over ranks `0..n`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Rank `k` has weight `1 / (k + 1)^s`.
    pub fn new(n: usize, s: f64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|k| {
                acc += 1.0 / ((k + 1) as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// Draws a rank.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// Seeded serve traffic: the head drawn by Zipf popularity, plus a fixed
/// share of first-time keys.
///
/// Popularity ranks deal the models in turn (rank `r` belongs to the
/// `r mod models`-th model of a seeded model order; each model's head keys
/// take its ranks in seeded order), so every model is equally represented
/// at every popularity level. Each round holds exactly [`COLD_SHARE`] of
/// first-time keys, distinct within the round, so every round has the same
/// shape.
#[derive(Debug, Clone)]
pub struct ServePlan {
    /// Head key index of each popularity rank.
    by_rank: Vec<usize>,
    cold: Vec<usize>,
    zipf: Zipf,
}

/// Share of requests that ask for a key never asked for before.
const COLD_SHARE: f64 = 0.04;
/// Zipf exponent of head popularity.
const SERVE_ZIPF_S: f64 = 1.1;

impl ServePlan {
    /// A seeded plan over `keys` (as [`serve_keys`] orders them).
    pub fn new(rng: &mut Rng, keys: &[ServeKey]) -> Self {
        let head = SERVE_HEAD.min(keys.len());
        let mut models: Vec<&str> = Vec::new();
        for k in &keys[..head] {
            if !models.contains(&k.model) {
                models.push(k.model);
            }
        }
        rng.shuffle(&mut models);
        let mut per_model: Vec<Vec<usize>> = models
            .iter()
            .map(|m| {
                let mut own: Vec<usize> = (0..head).filter(|&i| keys[i].model == *m).collect();
                rng.shuffle(&mut own);
                own.reverse(); // popped from the back
                own
            })
            .collect();
        let mut by_rank = Vec::with_capacity(head);
        while by_rank.len() < head {
            for own in &mut per_model {
                by_rank.extend(own.pop());
            }
        }
        ServePlan {
            zipf: Zipf::new(by_rank.len(), SERVE_ZIPF_S),
            by_rank,
            cold: (head..keys.len()).collect(),
        }
    }

    /// The head, most popular first.
    pub fn head(&self) -> &[usize] {
        &self.by_rank
    }

    /// The keys of one round of `n` requests, in seeded order: `n` ×
    /// [`COLD_SHARE`] distinct first-time keys, the rest head draws.
    pub fn round(&self, rng: &mut Rng, n: usize) -> Vec<usize> {
        let n_cold = ((n as f64 * COLD_SHARE).round() as usize).min(self.cold.len());
        let mut keys = self.cold.clone();
        rng.shuffle(&mut keys);
        keys.truncate(n_cold);
        keys.extend((n_cold..n).map(|_| self.by_rank[self.zipf.sample(rng)]));
        rng.shuffle(&mut keys);
        keys
    }
}

/// One multi-tenant mix of `fabric-contended`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MixSpec {
    /// Zoo index of each stream.
    pub streams: Vec<usize>,
    /// Partitioned (`true`) or shared co-residency.
    pub partitioned: bool,
    /// Arrival stagger in cycles.
    pub stagger: u64,
    /// Seed of the mix's arrival jitter.
    pub seed: u64,
}

/// Arrival staggers (cycles) the mixes of one cell rotate through.
const STAGGERS: [u64; 3] = [0, 500, 2000];

/// Stream counts of the mixes, with the mixes per zoo model in each of
/// their two cells (one per co-residency policy): 2 × 7 × (3 + 5) = 112
/// mixes, so a tail percentile over per-mix times has ten mixes beyond its
/// p90. 16-stream mixes take about twice as long as 8-stream ones; with
/// equal shares the median would be the slowest 8-stream mix, at the edge
/// of the gap between the two sizes, where a few percent of noise moves it
/// across. With more 16-stream mixes it falls inside their range.
const MIX_SIZES: [(usize, usize); 2] = [(8, 3), (16, 5)];

/// The `fabric-contended` pool: for each of [`MIX_SIZES`] under both
/// co-residency policies, a fixed number of mixes per zoo model. Every mix
/// holds each zoo model equally often; the streams beyond that are the
/// mix's `k`-th model (and, for 16 streams, the one three places on), so
/// each cell covers every model as an extra exactly as often. The seed
/// orders the streams, rotates the arrival staggers and seeds each mix's
/// jitter.
pub fn fabric_pool(rng: &mut Rng) -> Vec<MixSpec> {
    let mut pool = Vec::new();
    for (size, variants) in MIX_SIZES {
        for partitioned in [false, true] {
            let rotation = rng.below(STAGGERS.len());
            for k in 0..ZOO.len() {
                for variant in 0..variants {
                    let mut streams: Vec<usize> = (0..size).map(|i| i % ZOO.len()).collect();
                    let full = size / ZOO.len() * ZOO.len();
                    for (e, s) in streams.iter_mut().skip(full).enumerate() {
                        *s = (k + 3 * e) % ZOO.len();
                    }
                    rng.shuffle(&mut streams);
                    pool.push(MixSpec {
                        streams,
                        partitioned,
                        stagger: STAGGERS[(k + variant + rotation) % STAGGERS.len()],
                        seed: rng.next_u64(),
                    });
                }
            }
        }
    }
    pool
}

#[cfg(test)]
mod tests {
    use super::*;

    fn everything(seed: u64) -> (Vec<CompileSpec>, Vec<usize>, Vec<usize>, Vec<MixSpec>) {
        let mut rng = Rng::new(seed, 1);
        let pool = compile_pool();
        let order = passes(&mut rng, pool.len(), 300);
        let plan = ServePlan::new(&mut rng, &serve_keys());
        let round = plan.round(&mut rng, 500);
        (pool, order, round, fabric_pool(&mut rng))
    }

    #[test]
    fn same_seed_same_workload_other_seed_other_workload() {
        assert_eq!(everything(7), everything(7));
        let (a, b) = (everything(7), everything(8));
        assert_eq!(a.0, b.0, "the compile pool is the same for every seed");
        assert_ne!(a.1, b.1);
        assert_ne!(a.2, b.2);
        assert_ne!(a.3, b.3);
    }

    #[test]
    fn pools_are_stratified() {
        let (pool, _, _, mixes) = everything(3);
        assert_eq!(pool.len(), 1260);
        assert_eq!(mixes.len(), 112);
        for m in 0..ZOO.len() {
            assert_eq!(pool.iter().filter(|c| c.model == m).count(), 180);
        }
        let order = passes(&mut Rng::new(3, 9), 252, 300);
        // 300 draws over 252 entries: each runs once or twice.
        let mut counts = vec![0; 252];
        order.iter().for_each(|&i| counts[i] += 1);
        assert!(counts.iter().all(|&c| (1..=2).contains(&c)));
        for mix in &mixes {
            for m in 0..ZOO.len() {
                assert!(
                    mix.streams.iter().filter(|&&s| s == m).count()
                        >= mix.streams.len() / ZOO.len()
                );
            }
        }
    }

    #[test]
    fn rounds_hold_a_fixed_cold_share() {
        let mut rng = Rng::new(11, 0);
        let keys = serve_keys();
        let plan = ServePlan::new(&mut rng, &keys);
        // Every model holds one of the eight most popular keys.
        let mut top: Vec<&str> = plan.head()[..8].iter().map(|&k| keys[k].model).collect();
        top.sort_unstable();
        top.dedup();
        assert_eq!(top.len(), 8);
        for _ in 0..3 {
            let round = plan.round(&mut rng, 2000);
            assert_eq!(round.len(), 2000);
            // Exactly COLD_SHARE of the requests are first-time keys, each
            // asked for once; the rest come from the head.
            let cold: Vec<usize> = round
                .iter()
                .copied()
                .filter(|k| !plan.head().contains(k))
                .collect();
            assert_eq!(cold.len(), 80);
            let mut unique = cold.clone();
            unique.sort_unstable();
            unique.dedup();
            assert_eq!(unique.len(), cold.len());
            assert!(cold.iter().all(|&k| keys[k].model == COLD_MODEL));
        }
    }
}
