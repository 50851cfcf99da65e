//! Pre-binned feature matrix for histogram-based tree growing.
//!
//! Each feature is quantised once into at most 256 equal-frequency buckets;
//! tree training then touches only `u8` bin codes (column-major for
//! cache-friendly histogram accumulation), while the fitted cut points let
//! trained trees carry raw `f32` thresholds for binning-free serving.

use crate::dataset::Dataset;
use titant_parallel::Pool;

/// Column-major quantised view of a dataset.
#[derive(Debug)]
pub struct BinnedMatrix {
    n_rows: usize,
    /// Per-feature sorted cut points; bin `b` covers `[cuts[b-1], cuts[b])`.
    cuts: Vec<Vec<f32>>,
    /// Column-major codes: feature `j` occupies `codes[j*n_rows..(j+1)*n_rows]`.
    codes: Vec<u8>,
}

impl BinnedMatrix {
    /// Quantise `data` into at most `max_bins` (≤ 256) buckets per feature,
    /// single-threaded. See [`BinnedMatrix::build_with_pool`].
    ///
    /// # Panics
    /// Panics if `max_bins` is not in `2..=256` or the dataset is empty.
    pub fn build(data: &Dataset, max_bins: usize) -> Self {
        Self::build_with_pool(data, max_bins, &Pool::serial())
    }

    /// Quantise `data` with the cut-point fits and code fills spread
    /// feature-wise over `pool`. Every feature is processed end-to-end by
    /// exactly one worker, so the result is identical for any thread count.
    ///
    /// # Panics
    /// Panics if `max_bins` is not in `2..=256` or the dataset is empty.
    pub fn build_with_pool(data: &Dataset, max_bins: usize, pool: &Pool) -> Self {
        assert!((2..=256).contains(&max_bins), "max_bins must be in 2..=256");
        assert!(data.n_rows() > 0, "cannot bin an empty dataset");
        let n_rows = data.n_rows();
        let n_cols = data.n_cols();
        let mut codes = vec![0u8; n_rows * n_cols];

        // Feature-parallel: worker chunks own contiguous column ranges of
        // the code matrix; cut vectors come back in chunk order and are
        // flattened back into feature order.
        let mut cuts: Vec<Vec<f32>> = Vec::with_capacity(n_cols);
        let chunk_cuts: Vec<Vec<Vec<f32>>> = {
            let codes_chunks: Vec<(usize, &mut [u8])> = {
                let mut out = Vec::new();
                let mut rest = &mut codes[..];
                for r in titant_parallel::chunk_ranges(n_cols, pool.threads()) {
                    let (chunk, tail) = rest.split_at_mut((r.end - r.start) * n_rows);
                    rest = tail;
                    out.push((r.start, chunk));
                }
                out
            };
            // Not on `Pool` yet: there the one-thread fit bins inline, and
            // the benchmark's `ingest_durable` peak RSS rose 603 -> 641 MB
            // with the same model (2-vCPU box). See ROADMAP small items.
            #[allow(clippy::disallowed_methods)]
            std::thread::scope(|scope| {
                let handles: Vec<_> = codes_chunks
                    .into_iter()
                    .map(|(first_col, chunk)| {
                        scope.spawn(move || {
                            chunk
                                .chunks_mut(n_rows)
                                .enumerate()
                                .map(|(k, dst)| fit_feature(data, first_col + k, max_bins, dst))
                                .collect::<Vec<Vec<f32>>>()
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("binning worker panicked"))
                    .collect()
            })
        };
        for chunk in chunk_cuts {
            cuts.extend(chunk);
        }
        Self {
            n_rows,
            cuts,
            codes,
        }
    }

    /// Number of rows.
    #[inline]
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of features.
    #[inline]
    pub fn n_features(&self) -> usize {
        self.cuts.len()
    }

    /// Number of occupied bins of feature `j` (= cut count + 1).
    #[inline]
    pub fn n_bins(&self, j: usize) -> usize {
        self.cuts[j].len() + 1
    }

    /// Column of bin codes for feature `j`.
    #[inline]
    pub fn column(&self, j: usize) -> &[u8] {
        &self.codes[j * self.n_rows..(j + 1) * self.n_rows]
    }

    /// Bin code of a single cell.
    #[inline]
    pub fn code(&self, row: u32, j: usize) -> u8 {
        self.codes[j * self.n_rows + row as usize]
    }

    /// The raw threshold corresponding to "bin < s": `value < threshold`.
    /// `s` must be in `1..n_bins(j)`.
    #[inline]
    pub fn threshold(&self, j: usize, s: usize) -> f32 {
        self.cuts[j][s - 1]
    }
}

/// Fit cut points for feature `j` and fill its code column.
fn fit_feature(data: &Dataset, j: usize, max_bins: usize, dst: &mut [u8]) -> Vec<f32> {
    let n_rows = data.n_rows();
    let mut col = data.column(j);
    // NaNs sort to the front deterministically and land in bin 0.
    col.sort_unstable_by(|a, b| a.total_cmp(b));
    // Greedy quantile cuts: close a bin once it holds >= n/max_bins
    // rows and the next value is distinct, so duplicate-heavy
    // columns never get empty bins.
    let mut c: Vec<f32> = Vec::with_capacity(max_bins - 1);
    let target = (n_rows / max_bins).max(1);
    let mut in_bin = 0usize;
    for i in 0..n_rows {
        in_bin += 1;
        if in_bin >= target
            && i + 1 < n_rows
            && col[i + 1] > col[i]
            && col[i + 1].is_finite()
            && c.len() < max_bins - 1
        {
            c.push(col[i + 1]);
            in_bin = 0;
        }
    }
    for (i, slot) in dst.iter_mut().enumerate() {
        *slot = bin_code(&c, data.row(i)[j]);
    }
    c
}

#[inline]
fn bin_code(cuts: &[f32], v: f32) -> u8 {
    if v.is_nan() {
        return 0;
    }
    cuts.partition_point(|&c| c <= v) as u8
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dataset_one_col(values: &[f32]) -> Dataset {
        let mut d = Dataset::new(1);
        for &v in values {
            d.push_row(&[v], 0.0);
        }
        d
    }

    #[test]
    fn codes_are_monotone_in_value() {
        let values: Vec<f32> = (0..100).map(|i| i as f32).collect();
        let d = dataset_one_col(&values);
        let m = BinnedMatrix::build(&d, 8);
        let col = m.column(0);
        for w in (0..100).collect::<Vec<_>>().windows(2) {
            assert!(col[w[0]] <= col[w[1]]);
        }
        assert_eq!(m.n_bins(0), 8);
    }

    #[test]
    fn threshold_is_consistent_with_codes() {
        let values: Vec<f32> = (0..50).map(|i| (i * 3) as f32).collect();
        let d = dataset_one_col(&values);
        let m = BinnedMatrix::build(&d, 5);
        for s in 1..m.n_bins(0) {
            let t = m.threshold(0, s);
            for (i, &v) in values.iter().enumerate() {
                let goes_left_by_code = (m.column(0)[i] as usize) < s;
                let goes_left_by_value = v < t;
                assert_eq!(goes_left_by_code, goes_left_by_value, "v={v}, s={s}, t={t}");
            }
        }
    }

    #[test]
    fn constant_column_has_one_bin() {
        let d = dataset_one_col(&[4.0; 20]);
        let m = BinnedMatrix::build(&d, 16);
        assert_eq!(m.n_bins(0), 1);
        assert!(m.column(0).iter().all(|&c| c == 0));
    }

    #[test]
    fn heavy_tail_still_separates_extremes() {
        let mut values = vec![1.0f32; 95];
        values.extend([1e6, 2e6, 3e6, 4e6, 5e6]);
        let d = dataset_one_col(&values);
        let m = BinnedMatrix::build(&d, 32);
        assert!(m.code(0, 0) < m.code(99, 0));
    }

    #[test]
    fn nan_lands_in_bin_zero() {
        let d = dataset_one_col(&[f32::NAN, 1.0, 2.0, 3.0, 4.0, 5.0]);
        let m = BinnedMatrix::build(&d, 4);
        assert_eq!(m.code(0, 0), 0);
    }

    #[test]
    fn parallel_build_matches_serial() {
        let mut d = Dataset::new(5);
        let mut state = 3u64;
        let mut rand01 = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as f32 / (1u64 << 31) as f32
        };
        for _ in 0..500 {
            let row: Vec<f32> = (0..5).map(|_| rand01()).collect();
            d.push_row(&row, 0.0);
        }
        let serial = BinnedMatrix::build(&d, 16);
        for threads in [2usize, 3, 8] {
            let par = BinnedMatrix::build_with_pool(&d, 16, &Pool::new(threads));
            assert_eq!(par.codes, serial.codes, "threads={threads}");
            assert_eq!(par.cuts, serial.cuts, "threads={threads}");
        }
    }

    #[test]
    #[should_panic(expected = "max_bins")]
    fn too_many_bins_rejected() {
        let d = dataset_one_col(&[1.0]);
        BinnedMatrix::build(&d, 257);
    }
}
