/// Operating-system cache interference at a scheduler call (paper
/// Table 6, after Torrellas's IRIX measurements).
///
/// The published table's numeric cells are corrupted in the source text;
/// this is a monotone reconstruction scaled to the modeled 2048-line
/// primary caches (see DESIGN.md). Each row gives the instruction- and
/// data-cache lines displaced when a given number of processes is
/// switched.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InterferenceTable {
    /// Rows of (processes switched, I-cache lines, D-cache lines).
    rows: Vec<(usize, usize, usize)>,
}

impl InterferenceTable {
    /// The reconstructed Table 6.
    pub fn torrellas_like() -> InterferenceTable {
        InterferenceTable {
            rows: vec![(0, 40, 30), (1, 170, 140), (2, 320, 260), (4, 600, 500), (8, 1100, 900)],
        }
    }

    /// Lines displaced when `switched` processes are swapped: returns
    /// `(icache_lines, dcache_lines)` from the row with the nearest
    /// not-smaller process count (saturating at the largest row).
    pub fn displacement(&self, switched: usize) -> (usize, usize) {
        let row = self
            .rows
            .iter()
            .find(|(n, _, _)| *n >= switched)
            .or_else(|| self.rows.last())
            .expect("table has rows");
        (row.1, row.2)
    }

    /// The raw rows, for the configuration report.
    pub fn rows(&self) -> &[(usize, usize, usize)] {
        &self.rows
    }
}

impl Default for InterferenceTable {
    fn default() -> Self {
        InterferenceTable::torrellas_like()
    }
}

/// The simple operating-system model of paper Section 4.3: a periodic
/// scheduler with processor affinity and cache interference.
///
/// The paper uses a 30 ms slice on a 200 MHz processor (six million
/// cycles) and runs 36 slices; the default here scales the slice down by
/// 100× so the full evaluation grid completes quickly while keeping many
/// slices per run. `--scale full` runs the paper-scale configuration
/// from the benchmark harnesses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OsModel {
    /// Scheduler interrupt period in cycles.
    pub slice_cycles: u64,
    /// Number of slices an application set stays resident (affinity).
    pub affinity_slices: u64,
    /// Cache displacement per scheduler call.
    pub interference: InterferenceTable,
}

impl OsModel {
    /// Scaled-down default (60 k-cycle slices, affinity 3).
    pub fn scaled() -> OsModel {
        OsModel {
            slice_cycles: 60_000,
            affinity_slices: 3,
            interference: InterferenceTable::torrellas_like(),
        }
    }

    /// The paper's configuration: 30 ms slices at 200 MHz = 6 M cycles.
    pub fn paper_scale() -> OsModel {
        OsModel { slice_cycles: 6_000_000, ..OsModel::scaled() }
    }

    /// Checks configuration sanity.
    ///
    /// # Panics
    ///
    /// Panics if the slice length or affinity is zero.
    pub fn validate(&self) {
        assert!(self.slice_cycles > 0, "slice must be non-empty");
        assert!(self.affinity_slices > 0, "affinity must cover at least one slice");
    }
}

impl Default for OsModel {
    fn default() -> Self {
        OsModel::scaled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displacement_monotone() {
        let t = InterferenceTable::torrellas_like();
        let mut last = (0, 0);
        for n in [0, 1, 2, 4, 8] {
            let d = t.displacement(n);
            assert!(d.0 >= last.0 && d.1 >= last.1, "not monotone at {n}");
            last = d;
        }
    }

    #[test]
    fn displacement_rounds_up_and_saturates() {
        let t = InterferenceTable::torrellas_like();
        assert_eq!(t.displacement(3), t.displacement(4));
        assert_eq!(t.displacement(100), t.displacement(8));
    }

    #[test]
    fn paper_scale_slice() {
        let os = OsModel::paper_scale();
        assert_eq!(os.slice_cycles, 6_000_000);
        os.validate();
    }

    #[test]
    #[should_panic]
    fn zero_slice_rejected() {
        let os = OsModel { slice_cycles: 0, ..OsModel::scaled() };
        os.validate();
    }
}
