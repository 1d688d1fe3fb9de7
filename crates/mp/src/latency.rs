use interleave_engine::rand64;

/// Unloaded memory latencies sampled from uniform ranges (paper Table 8).
///
/// The published numeric cells are corrupted in the source text; these
/// DASH-like ranges are the reconstruction documented in DESIGN.md. All
/// values are processor cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyModel {
    /// Primary-cache hit (cycles, not a range).
    pub hit: u64,
    /// Reply from local memory: inclusive uniform range.
    pub local: (u64, u64),
    /// Reply from remote memory.
    pub remote: (u64, u64),
    /// Reply from a remote cache (dirty intervention).
    pub remote_cache: (u64, u64),
}

impl LatencyModel {
    /// The reconstructed DASH-like default ranges.
    pub fn dash_like() -> LatencyModel {
        LatencyModel { hit: 1, local: (22, 38), remote: (80, 130), remote_cache: (100, 160) }
    }

    /// Checks range sanity.
    ///
    /// # Panics
    ///
    /// Panics if any range is inverted or zero, or if the classes are not
    /// ordered hit < local < remote.
    pub fn validate(&self) {
        assert!(self.hit >= 1);
        for (name, (lo, hi)) in
            [("local", self.local), ("remote", self.remote), ("remote_cache", self.remote_cache)]
        {
            assert!(lo >= 1 && lo <= hi, "{name} range ({lo}, {hi}) invalid");
        }
        assert!(self.hit < self.local.0, "local memory must be slower than a hit");
        assert!(self.local.1 < self.remote.0, "remote must be slower than local");
    }

    /// Conservative lookahead of the parallel driver: the minimum number
    /// of cycles any cross-node message can take, i.e. the floor of the
    /// remote-memory and remote-cache reply ranges (Table 8). No message
    /// generated inside a simulation quantum of at most this many cycles
    /// can be due before the quantum's end barrier, so nodes may advance
    /// a full quantum independently without reordering any delivery.
    pub fn lookahead(&self) -> u64 {
        self.remote.0.min(self.remote_cache.0)
    }

    /// Samples a latency for one miss class without shared generator
    /// state: the draw is a pure hash of `(seed, node, draw)` via
    /// [`interleave_engine::rand64`], so concurrent shards sample
    /// identical sequences no matter how the host schedules them — the
    /// property that makes `--mp-jobs` bit-invisible.
    pub fn sample_hashed(&self, range: (u64, u64), seed: u64, node: usize, draw: u64) -> u64 {
        if range.0 == range.1 {
            return range.0;
        }
        let span = range.1 - range.0 + 1;
        range.0 + rand64::bounded(rand64::hashed(seed, node as u64, draw), span)
    }
}

impl Default for LatencyModel {
    fn default() -> Self {
        LatencyModel::dash_like()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_validates() {
        LatencyModel::dash_like().validate();
    }

    #[test]
    #[should_panic]
    fn inverted_range_rejected() {
        let m = LatencyModel { remote: (130, 80), ..LatencyModel::dash_like() };
        m.validate();
    }

    #[test]
    #[should_panic]
    fn unordered_classes_rejected() {
        let m = LatencyModel { local: (80, 200), ..LatencyModel::dash_like() };
        m.validate();
    }

    #[test]
    fn lookahead_is_min_cross_node_floor() {
        assert_eq!(LatencyModel::dash_like().lookahead(), 80);
        let m = LatencyModel { remote_cache: (60, 160), ..LatencyModel::dash_like() };
        assert_eq!(m.lookahead(), 60);
    }

    #[test]
    fn hashed_samples_stay_in_range_and_are_deterministic() {
        let m = LatencyModel::dash_like();
        for draw in 0..1000 {
            for node in 0..4 {
                let l = m.sample_hashed(m.local, 7, node, draw);
                assert!((22..=38).contains(&l));
                assert_eq!(l, m.sample_hashed(m.local, 7, node, draw));
            }
        }
        // Distinct nodes and draws decorrelate.
        let a: Vec<u64> = (0..50).map(|d| m.sample_hashed(m.remote, 7, 0, d)).collect();
        let b: Vec<u64> = (0..50).map(|d| m.sample_hashed(m.remote, 7, 1, d)).collect();
        assert_ne!(a, b);
        assert!(a.iter().collect::<std::collections::HashSet<_>>().len() > 10);
    }

    #[test]
    fn hashed_degenerate_range_is_constant() {
        let m = LatencyModel { local: (30, 30), ..LatencyModel::dash_like() };
        assert_eq!(m.sample_hashed(m.local, 1, 0, 0), 30);
    }
}
