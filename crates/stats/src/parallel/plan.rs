//! Which parameter sets share a correlation stream, and which streams
//! share an engine: the one place that decides.

use super::plane_slot;
use crate::correlation::CorrType;

/// How a list of `(Ctype, M)` keys — one per parameter set, in order —
/// is computed. Equal keys read one stream; a robust engine (the plane of
/// one window, see [`super::robust_cubes`]) computes the Maronna and
/// Combined streams of its window together, and every other engine one
/// stream. The paper grid's 42 keys are 9 streams on 6 engines.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EnginePlan {
    /// The distinct keys in order of first appearance: a key's index is
    /// its stream id.
    pub streams: Vec<(CorrType, usize)>,
    /// The stream id of each input key.
    pub stream_of: Vec<usize>,
    /// The stream ids each engine computes, ascending; engines in order
    /// of first appearance.
    pub engines: Vec<Vec<usize>>,
}

impl EnginePlan {
    /// The plan of `keys`.
    pub fn of(keys: impl IntoIterator<Item = (CorrType, usize)>) -> EnginePlan {
        let robust = |(ctype, _): (CorrType, usize)| plane_slot(ctype).is_some();
        let mut plan = EnginePlan::default();
        for key in keys {
            let stream = match plan.streams.iter().position(|&s| s == key) {
                Some(stream) => stream,
                None => {
                    let stream = plan.streams.len();
                    let plane = (plan.engines.iter_mut()).find(|e| {
                        let first = plan.streams[e[0]];
                        robust(key) && robust(first) && first.1 == key.1
                    });
                    match plane {
                        Some(engine) => engine.push(stream),
                        None => plan.engines.push(vec![stream]),
                    }
                    plan.streams.push(key);
                    stream
                }
            };
            plan.stream_of.push(stream);
        }
        plan
    }

    /// The engine that computes stream `stream`.
    ///
    /// # Panics
    /// Panics if `stream` is not a stream of the plan.
    pub fn engine_of(&self, stream: usize) -> usize {
        (self.engines.iter().position(|e| e.contains(&stream)))
            .unwrap_or_else(|| panic!("stream {stream} is not in the plan"))
    }

    /// Whether engine `engine` is a robust plane.
    pub fn is_robust(&self, engine: usize) -> bool {
        plane_slot(self.streams[self.engines[engine][0]].0).is_some()
    }

    /// Per stream, the positions of the input keys that read it,
    /// ascending.
    pub fn readers(&self) -> Vec<Vec<usize>> {
        let mut readers = vec![Vec::new(); self.streams.len()];
        for (k, &stream) in self.stream_of.iter().enumerate() {
            readers[stream].push(k);
        }
        readers
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const CTYPES: [CorrType; 4] = [
        CorrType::Pearson,
        CorrType::Maronna,
        CorrType::Combined,
        CorrType::Quadrant,
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The plan against a brute-force reading of its definition.
        #[test]
        fn the_plan_is_its_definition(picks in proptest::collection::vec(0usize..12, 0..40)) {
            let keys: Vec<(CorrType, usize)> =
                picks.iter().map(|&p| (CTYPES[p % 4], [20, 50, 100][p / 4])).collect();
            let plan = EnginePlan::of(keys.iter().copied());

            // Streams: the distinct keys, first appearance first.
            let mut distinct = Vec::new();
            for key in &keys {
                if !distinct.contains(key) {
                    distinct.push(*key);
                }
            }
            prop_assert_eq!(&plan.streams, &distinct);
            prop_assert_eq!(plan.stream_of.len(), keys.len());
            for (k, key) in keys.iter().enumerate() {
                prop_assert_eq!(plan.streams[plan.stream_of[k]], *key);
            }

            // Engines partition the stream ids, each ascending.
            let mut ids: Vec<usize> = plan.engines.iter().flatten().copied().collect();
            ids.sort_unstable();
            prop_assert_eq!(ids, (0..distinct.len()).collect::<Vec<_>>());
            prop_assert!(plan.engines.iter().all(|e| e.windows(2).all(|w| w[0] < w[1])));
            // ... in order of first appearance.
            prop_assert!(plan.engines.windows(2).all(|w| w[0][0] < w[1][0]));

            // Two streams share an engine iff both are robust measures
            // of one window.
            let robust = |c: CorrType| matches!(c, CorrType::Maronna | CorrType::Combined);
            for a in 0..distinct.len() {
                for b in 0..distinct.len() {
                    let ((ca, ma), (cb, mb)) = (distinct[a], distinct[b]);
                    let shared = a == b || (ma == mb && robust(ca) && robust(cb));
                    prop_assert_eq!(plan.engine_of(a) == plan.engine_of(b), shared);
                }
            }
            for e in 0..plan.engines.len() {
                prop_assert_eq!(plan.is_robust(e), robust(plan.streams[plan.engines[e][0]].0));
            }
        }
    }
}
