//! Dataset construction and caching for benchmarks.
//!
//! All experiments share one scale-1 base dataset (deterministic seed) and
//! derive scaled variants with the paper's scale-factor semantics. Building
//! and compressing large tables is expensive, so everything is cached.

use cohana_activity::{generate, scale_table, ActivityTable, GeneratorConfig, TableBuilder};
use cohana_storage::{CompressedTable, CompressionOptions};
use std::collections::HashMap;
use std::sync::Arc;

/// Harness configuration.
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// Users in the scale-1 dataset. The paper's dataset has 57,077 users
    /// and 30 M tuples; the default here (1,000 users, ≈100 K tuples) keeps
    /// every figure laptop-runnable. Override with `--users` or
    /// `COHANA_BENCH_USERS`.
    pub base_users: usize,
    /// Scale factors to sweep (paper: 1–64; default here 1–8).
    pub scales: Vec<usize>,
    /// Chunk sizes for the Figure 6/7 sweeps (paper: 16K–1M tuples).
    pub chunk_sizes: Vec<usize>,
    /// Measured runs per point (paper: 5).
    pub runs: usize,
}

impl Default for BenchConfig {
    fn default() -> Self {
        BenchConfig {
            base_users: env_or("COHANA_BENCH_USERS", 1_000),
            scales: vec![1, 2, 4, 8],
            chunk_sizes: vec![16 * 1024, 64 * 1024, 256 * 1024, 1024 * 1024],
            runs: 5,
        }
    }
}

impl BenchConfig {
    /// The paper's full sweep (scales to 64). Expect long runtimes.
    pub fn full() -> Self {
        BenchConfig { scales: vec![1, 2, 4, 8, 16, 32, 64], ..Default::default() }
    }

    /// A quick configuration for CI / smoke tests.
    pub fn quick() -> Self {
        BenchConfig {
            base_users: 200,
            scales: vec![1, 2],
            chunk_sizes: vec![4 * 1024, 64 * 1024],
            runs: 2,
        }
    }
}

fn env_or(name: &str, default: usize) -> usize {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// Caches base/scaled/compressed datasets across experiments.
pub struct DatasetCache {
    config: BenchConfig,
    base: Arc<ActivityTable>,
    scaled: HashMap<usize, Arc<ActivityTable>>,
    compressed: HashMap<(usize, usize), Arc<CompressedTable>>,
}

impl DatasetCache {
    /// Build the scale-1 dataset for a configuration.
    pub fn new(config: BenchConfig) -> Self {
        let base = Arc::new(generate(&GeneratorConfig::new(config.base_users)));
        DatasetCache { config, base, scaled: HashMap::new(), compressed: HashMap::new() }
    }

    /// The configuration.
    pub fn config(&self) -> &BenchConfig {
        &self.config
    }

    /// The scale-1 activity table.
    pub fn base(&self) -> Arc<ActivityTable> {
        self.base.clone()
    }

    /// The activity table at a scale factor.
    pub fn at_scale(&mut self, scale: usize) -> Arc<ActivityTable> {
        if scale == 1 {
            return self.base.clone();
        }
        self.scaled.entry(scale).or_insert_with(|| Arc::new(scale_table(&self.base, scale))).clone()
    }

    /// The compressed table at `(scale, chunk_size)`.
    pub fn compressed(&mut self, scale: usize, chunk_size: usize) -> Arc<CompressedTable> {
        if let Some(c) = self.compressed.get(&(scale, chunk_size)) {
            return c.clone();
        }
        let table = self.at_scale(scale);
        let compressed = Arc::new(
            CompressedTable::build(&table, CompressionOptions::with_chunk_size(chunk_size))
                .expect("compression succeeds"),
        );
        self.compressed.insert((scale, chunk_size), compressed.clone());
        compressed
    }

    /// Drop cached scaled tables (frees memory between experiments).
    pub fn evict_scaled(&mut self) {
        self.scaled.clear();
        self.compressed.clear();
    }
}

/// Split a table into `k` contiguous time slices (the streaming-arrival
/// shape): users active across slice boundaries return in later slices, so
/// appending the slices in order rewrites their chunks and leaves dead
/// bytes for compaction.
pub fn time_slices(table: &ActivityTable, k: usize) -> Vec<ActivityTable> {
    let tidx = table.schema().time_idx();
    let mut order: Vec<usize> = (0..table.num_rows()).collect();
    order.sort_by_key(|&r| table.rows()[r].get(tidx).as_int().expect("time"));
    let per = table.num_rows().div_ceil(k).max(1);
    order
        .chunks(per)
        .map(|rows| {
            let mut b = TableBuilder::new(table.schema().clone());
            for &r in rows {
                b.push(table.rows()[r].values().to_vec()).expect("row pushes");
            }
            b.finish().expect("slice sorts")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_reuses_instances() {
        let mut c = DatasetCache::new(BenchConfig::quick());
        let a = c.at_scale(2);
        let b = c.at_scale(2);
        assert!(Arc::ptr_eq(&a, &b));
        let x = c.compressed(1, 4096);
        let y = c.compressed(1, 4096);
        assert!(Arc::ptr_eq(&x, &y));
        assert_eq!(a.num_rows(), c.base().num_rows() * 2);
    }

    #[test]
    fn quick_config_is_small() {
        let q = BenchConfig::quick();
        assert!(q.base_users <= 500);
        assert!(q.scales.iter().all(|s| *s <= 4));
    }
}
