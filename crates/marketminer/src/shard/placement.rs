//! Which rank runs which parameter set — the one place that knows.
//!
//! The sweep's whole performance argument is that parameter sets share
//! correlation engines, so the fleet is cut *along* the engines: the
//! units are the engines of the spec list's [`EnginePlan`] (the robust
//! plane of a window — both lanes together — else one `(Ctype, M)`
//! stream), each with the hosts it serves; units go heaviest-first to
//! the least-loaded rank, and
//! `build_sweep_graph(.., &included)` then gives every rank a disjoint
//! set of engines. A group is cut across ranks only as a last resort: a
//! cut makes both ranks build the engine, so it is taken only when a
//! rank would otherwise idle, or when it shortens the heaviest rank by
//! more than the engine it duplicates.
//!
//! The worker (its slice), the supervisor (degraded masking, the
//! placement report) and the tests all call [`placement`]; it is a pure
//! function of the spec list and the shard count, so they agree without
//! exchanging anything.

use pairtrade_core::spec::StrategySpec;
use stats::correlation::CorrType;
use stats::parallel::EnginePlan;
use telemetry::metrics::MetricsSnapshot;

use crate::components::CorrelationEngineNode;

/// Load of one robust plane, in strategy hosts: a host is one spec's
/// rule work, the unit every `Unit` load counts in. Measured with
/// `profile_report --seed 2009 --workers 2` when each spec ran in a host
/// node of its own: a plane's self-time is 287–418 ms against 4.4 ms per
/// host at n = 16 (65–95 hosts) and 2.4–3.7 s against 32 ms per host at
/// n = 61 (76–117 hosts). Since the hosts and the risk checks folded
/// into the stream nodes, a spec's whole share of its stream node and of
/// the gateway measures 23 ms at n = 16, which puts a plane at 11–19
/// specs, not 70. The value stays 70 all the same: placement, and with
/// it every pinned fleet output, must not move with a change that only
/// regroups nodes. Re-deriving it from a cost model is ROADMAP #5.
const ROBUST_PLANE_HOSTS: u64 = 70;

/// Load of one non-robust stream's engine, in strategy hosts: the online
/// Pearson engine's self-time is 2–3 ms at n = 16 and 6–9 ms at n = 61,
/// under one host either way.
const STREAM_HOSTS: u64 = 1;

/// Specs that go to a rank together: one engine and the hosts on it.
#[derive(Debug, Clone)]
struct Unit {
    /// The key of the engine's first stream. A plane's is either robust
    /// measure of its window: both order between Pearson and Quadrant,
    /// the only other engines that window can have.
    key: (CorrType, usize),
    /// The engine's own load, in strategy hosts.
    engine_hosts: u64,
    /// Global spec indices, by `(measure, index)`: halving a robust
    /// group separates its lanes before it separates a lane's hosts.
    members: Vec<(u8, usize)>,
}

impl Unit {
    fn load(&self) -> u64 {
        self.engine_hosts + self.members.len() as u64
    }

    /// Heaviest first; every tie broken by what the unit *is*, and only
    /// between the halves of one group by which specs it holds.
    fn order(&self) -> impl Ord {
        (
            std::cmp::Reverse(self.load()),
            self.key.1,
            self.key.0 as u8,
            self.members[0],
        )
    }

    fn halves(&self) -> [Unit; 2] {
        let (a, b) = self.members.split_at(self.members.len().div_ceil(2));
        [a, b].map(|members| Unit {
            members: members.to_vec(),
            ..*self
        })
    }
}

/// Longest-processing-time-first: each unit, heaviest first, to the
/// least-loaded rank (the lowest such rank). Returns each unit's rank
/// and each rank's load.
fn assign(units: &mut [Unit], shards: usize) -> (Vec<usize>, Vec<u64>) {
    units.sort_by_key(|a| a.order());
    let mut loads = vec![0u64; shards];
    let owners = (units.iter())
        .map(|unit| {
            let rank = (0..shards)
                .min_by_key(|&r| loads[r])
                .expect("at least one rank");
            loads[rank] += unit.load();
            rank
        })
        .collect();
    (owners, loads)
}

/// The parameter sets (global indices into `specs`, ascending) each of
/// `shards` ranks runs. Every spec is on exactly one rank; no rank is
/// empty while there are at least as many specs as ranks.
///
/// # Panics
/// Panics if `shards` is 0.
pub fn placement(specs: &[StrategySpec], shards: usize) -> Vec<Vec<usize>> {
    assert!(shards > 0, "a fleet has at least one rank");
    let plan = EnginePlan::of(specs.iter().map(StrategySpec::stream_key));
    let readers = plan.readers();
    let mut units: Vec<Unit> = (plan.engines.iter().enumerate())
        .map(|(e, ids)| {
            let mut members: Vec<(u8, usize)> = (ids.iter())
                .flat_map(|&j| {
                    let measure = plan.streams[j].0 as u8;
                    readers[j].iter().map(move |&k| (measure, k))
                })
                .collect();
            members.sort_unstable();
            Unit {
                key: plan.streams[ids[0]],
                engine_hosts: if plan.is_robust(e) {
                    ROBUST_PLANE_HOSTS
                } else {
                    STREAM_HOSTS
                },
                members,
            }
        })
        .collect();

    let (mut owners, mut loads) = assign(&mut units, shards);
    loop {
        let heaviest = *loads.iter().max().expect("at least one rank");
        let idle = loads.contains(&0);
        // What to cut: the heaviest group that can be, anywhere if a
        // rank idles, else on the heaviest rank.
        let Some(cut) = (0..units.len())
            .find(|&u| units[u].members.len() > 1 && (idle || loads[owners[u]] == heaviest))
        else {
            break;
        };
        let mut trial = units.clone();
        let [a, b] = trial[cut].halves();
        trial[cut] = a;
        trial.push(b);
        let (trial_owners, trial_loads) = assign(&mut trial, shards);
        let shortened = heaviest.saturating_sub(*trial_loads.iter().max().expect("a rank"));
        if !idle && shortened <= units[cut].engine_hosts {
            break;
        }
        (units, owners, loads) = (trial, trial_owners, trial_loads);
    }

    let mut ranks = vec![Vec::new(); shards];
    for (unit, &rank) in units.iter().zip(&owners) {
        ranks[rank].extend(unit.members.iter().map(|&(_, k)| k));
    }
    for rank in &mut ranks {
        rank.sort_unstable();
    }
    ranks
}

/// The engines one rank builds: the plan of its specs.
fn engines_of(specs: &[StrategySpec], rank: &[usize]) -> EnginePlan {
    EnginePlan::of(rank.iter().map(|&k| specs[k].stream_key()))
}

/// The placement of `specs` over `shards` ranks against what a finished
/// run measured, one row per rank: hosts, engines, the engines'
/// self-time (a cut engine's, which the merged report sums under one
/// name, in equal shares), and — for a fleet report, whose supervisor
/// keeps a `shard<r>` row per rank — the bytes its durable cuts wrote and
/// the time its epoch loop spent saving them.
/// Rendered by `fleet_sweep --profile` and `profile_report`.
pub fn render_placement(
    specs: &[StrategySpec],
    shards: usize,
    metrics: &MetricsSnapshot,
) -> String {
    let grid = EnginePlan::of(specs.iter().map(StrategySpec::stream_key));
    let planes = (0..grid.engines.len())
        .filter(|&e| grid.is_robust(e))
        .count();
    let ranks = placement(specs, shards);
    let engines: Vec<Vec<String>> = (ranks.iter())
        .map(|rank| {
            let plan = engines_of(specs, rank);
            (plan.engines.iter())
                .map(|ids| {
                    let (ctype, m) = plan.streams[ids[0]];
                    CorrelationEngineNode::engine_name(ctype, m)
                })
                .collect()
        })
        .collect();
    let holders = |name: &String| engines.iter().filter(|e| e.contains(name)).count();
    let mut out = format!(
        "\nplan: {} specs → {} streams → {} engines ({planes} robust planes)\n\
         placement over {shards} ranks (engines go whole; hosts follow)\n",
        specs.len(),
        grid.streams.len(),
        grid.engines.len(),
    );
    for (r, (rank, names)) in ranks.iter().zip(&engines).enumerate() {
        let corr_ns: u64 = (names.iter())
            .map(|name| {
                let self_ns = metrics.histogram(name, "step.ns").map_or(0, |h| h.sum());
                self_ns / holders(name) as u64
            })
            .sum();
        out.push_str(&format!(
            "  rank{r:<3} {:>3} hosts  corr self {:>7.3} s  {}\n",
            rank.len(),
            corr_ns as f64 / 1e9,
            names.join(", "),
        ));
        let label = format!("shard{r}");
        let saves = metrics.counter(&label, "ckpt.saves");
        if saves > 0 {
            let save_us = (metrics.histogram(&label, "ckpt.write_us")).map_or(0, |h| h.sum());
            out.push_str(&format!(
                "          {saves} cuts, {:.2} MB, {:.1} ms saving them\n",
                metrics.counter(&label, "ckpt.bytes") as f64 / 1e6,
                save_us as f64 / 1e3,
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pairtrade_core::params::{paper_parameter_grid, StrategyParams};
    use proptest::prelude::*;

    fn spec(ctype: CorrType, corr_window: usize, k: usize) -> StrategySpec {
        StrategySpec::Paper(StrategyParams {
            ctype,
            corr_window,
            divergence: 0.0001 * (k + 1) as f64,
            ..StrategyParams::paper_default()
        })
    }

    fn paper_grid() -> Vec<StrategySpec> {
        (paper_parameter_grid().into_iter())
            .map(StrategySpec::Paper)
            .collect()
    }

    /// Engine nodes the fleet builds: per rank, the engines of its plan.
    fn engine_nodes(specs: &[StrategySpec], ranks: &[Vec<usize>]) -> usize {
        ranks
            .iter()
            .map(|r| engines_of(specs, r).engines.len())
            .sum()
    }

    /// The name of the engine node serving `spec`.
    fn engine_name(spec: &StrategySpec) -> String {
        let (ctype, m) = spec.stream_key();
        CorrelationEngineNode::engine_name(ctype, m)
    }

    /// Per rank, the streams of its specs — what a placement is, once
    /// the specs' positions in the list are forgotten.
    fn streams_by_rank(specs: &[StrategySpec], ranks: &[Vec<usize>]) -> Vec<Vec<(usize, u8)>> {
        ranks
            .iter()
            .map(|rank| {
                let mut keys: Vec<(usize, u8)> = (rank.iter())
                    .map(|&k| specs[k].stream_key())
                    .map(|(c, m)| (m, c as u8))
                    .collect();
                keys.sort_unstable();
                keys
            })
            .collect()
    }

    #[test]
    fn paper_grid_puts_each_plane_on_one_rank() {
        let specs = paper_grid();
        for shards in [2usize, 3] {
            let ranks = placement(&specs, shards);
            // Six engines in the grid, six in the fleet: nothing is
            // computed twice, and both lanes of a window share a rank.
            assert_eq!(engine_nodes(&specs, &ranks), 6, "shards={shards}");
            for window in [50usize, 100, 200] {
                let plane = format!("corr-engine(robust, M={window})");
                let holders = (ranks.iter())
                    .filter(|rank| rank.iter().any(|&k| engine_name(&specs[k]) == plane))
                    .count();
                assert_eq!(holders, 1, "robust M={window} at shards={shards}");
            }
        }
        let sizes: Vec<usize> = placement(&specs, 2).iter().map(Vec::len).collect();
        assert_eq!(
            sizes,
            vec![36, 6],
            "robust M=100 and every Pearson stream | robust M=200, M=50"
        );
    }

    #[test]
    fn a_lone_group_is_cut_to_fill_the_fleet() {
        let specs: Vec<StrategySpec> = (0..8).map(|k| spec(CorrType::Pearson, 100, k)).collect();
        let sizes: Vec<usize> = placement(&specs, 3).iter().map(Vec::len).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 8);
        assert!(sizes.iter().all(|&s| s >= 2), "{sizes:?}");
        // A robust group is cut between its lanes first.
        let mut specs: Vec<StrategySpec> =
            (0..3).map(|k| spec(CorrType::Combined, 50, k)).collect();
        specs.extend((3..6).map(|k| spec(CorrType::Maronna, 50, k)));
        let ranks = placement(&specs, 2);
        assert_eq!(ranks, vec![vec![3, 4, 5], vec![0, 1, 2]]);
    }

    #[test]
    fn a_plane_is_not_cut_to_save_a_few_hosts() {
        // Four ranks, the paper grid: cutting robust M=100 would shorten
        // the heaviest rank by 9 hosts and cost a second plane.
        let specs = paper_grid();
        let ranks = placement(&specs, 4);
        assert_eq!(engine_nodes(&specs, &ranks), 6);
        // Many hosts on a cheap engine are worth cutting.
        let specs: Vec<StrategySpec> = (0..40)
            .map(|k| spec(CorrType::Pearson, 100, k))
            .chain([spec(CorrType::Pearson, 50, 40)])
            .collect();
        let sizes: Vec<usize> = placement(&specs, 2).iter().map(Vec::len).collect();
        assert_eq!(sizes, vec![21, 20]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn placement_properties(
            // One draw per spec: measure × window.
            picks in proptest::collection::vec(0usize..9, 1..60),
            shards in 1usize..9,
            shuffle in proptest::collection::vec(0usize..1000, 60),
        ) {
            const CTYPES: [CorrType; 3] = [CorrType::Pearson, CorrType::Maronna, CorrType::Combined];
            const WINDOWS: [usize; 3] = [50, 100, 200];
            let specs: Vec<StrategySpec> = (picks.iter().enumerate())
                .map(|(k, &pick)| spec(CTYPES[pick % 3], WINDOWS[pick / 3], k))
                .collect();
            let n = specs.len();
            let ranks = placement(&specs, shards);

            // Exact cover.
            prop_assert_eq!(ranks.len(), shards);
            let mut seen = vec![0u32; n];
            for rank in &ranks {
                prop_assert!(rank.windows(2).all(|w| w[0] < w[1]), "ascending");
                for &k in rank {
                    seen[k] += 1;
                }
            }
            prop_assert!(seen.iter().all(|&c| c == 1), "every spec on exactly one rank");
            // Nobody idles while there is work to hand out.
            if n >= shards {
                prop_assert!(ranks.iter().all(|r| !r.is_empty()), "empty rank: {:?}", ranks);
            }
            // The ends of the range.
            prop_assert_eq!(placement(&specs, 1), vec![(0..n).collect::<Vec<_>>()]);
            prop_assert!(placement(&specs, n).iter().all(|r| r.len() == 1));

            // Never more engines than dealing the specs out round-robin.
            let dealt: Vec<Vec<usize>> = (0..shards)
                .map(|r| (0..n).filter(|k| k % shards == r).collect())
                .collect();
            prop_assert!(
                engine_nodes(&specs, &ranks) <= engine_nodes(&specs, &dealt),
                "{} engines placed, {} dealt", engine_nodes(&specs, &ranks), engine_nodes(&specs, &dealt)
            );

            // With a group for every rank no plane of this size is worth
            // cutting: both lanes of a window stay together.
            let groups = engines_of(&specs, &(0..n).collect::<Vec<_>>());
            if groups.engines.len() >= shards {
                for (e, ids) in groups.engines.iter().enumerate() {
                    if !groups.is_robust(e) {
                        continue;
                    }
                    let (ctype, m) = groups.streams[ids[0]];
                    let name = CorrelationEngineNode::engine_name(ctype, m);
                    let holders = (ranks.iter())
                        .filter(|rank| rank.iter().any(|&k| engine_name(&specs[k]) == name))
                        .count();
                    prop_assert_eq!(holders, 1, "{} cut across ranks", name);
                }
            }

            // The order the specs are listed in decides nothing but which
            // of a cut group's hosts go where.
            let mut order: Vec<usize> = (0..n).collect();
            for (i, pick) in shuffle.iter().enumerate().take(n) {
                order.swap(i, i + pick % (n - i));
            }
            let shuffled: Vec<StrategySpec> = order.iter().map(|&k| specs[k].clone()).collect();
            prop_assert_eq!(
                streams_by_rank(&specs, &ranks),
                streams_by_rank(&shuffled, &placement(&shuffled, shards))
            );
        }
    }
}
