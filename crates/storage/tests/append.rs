//! Integration tests for incremental ingest at the storage layer: appending
//! batches to v3/v4 files (preserving each file's format version),
//! dictionary-epoch remapping, refresh-based cache invalidation, and
//! compaction.

use cohana_activity::{generate, ActivityTable, GeneratorConfig, TableBuilder};
use cohana_storage::{
    persist, shard, ChunkSource, CompressedTable, CompressionOptions, FileSource, StorageError,
    TableWriter,
};
use std::path::PathBuf;

const CHUNK: usize = 256;

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("cohana-append-test");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn base_table() -> ActivityTable {
    generate(&GeneratorConfig::small())
}

/// Split a table's rows into `k` batches by a row-index round-robin over
/// users (no user spans batches).
fn split_by_user(table: &ActivityTable, k: usize) -> Vec<ActivityTable> {
    let mut builders: Vec<TableBuilder> =
        (0..k).map(|_| TableBuilder::new(table.schema().clone())).collect();
    for (bi, block) in table.user_blocks().enumerate() {
        for row in block.range() {
            builders[bi % k].push(table.rows()[row].values().to_vec()).unwrap();
        }
    }
    builders.into_iter().map(|b| b.finish().unwrap()).collect()
}

/// Split a table's rows into `k` contiguous time slices: users active across
/// the whole observation window return in every later batch.
fn split_by_time(table: &ActivityTable, k: usize) -> Vec<ActivityTable> {
    let tidx = table.schema().time_idx();
    let mut order: Vec<usize> = (0..table.num_rows()).collect();
    order.sort_by_key(|&r| table.rows()[r].get(tidx).as_int().unwrap());
    let per = table.num_rows().div_ceil(k);
    order
        .chunks(per)
        .map(|rows| {
            let mut b = TableBuilder::new(table.schema().clone());
            for &r in rows {
                b.push(table.rows()[r].values().to_vec()).unwrap();
            }
            b.finish().unwrap()
        })
        .collect()
}

/// Split a table so later batches bring back only some users: every
/// `every`-th user's second half (by time) is spread over `k - 1` later
/// batches, in time order, and everything else is batch 0. Later batches'
/// returning users then sit in some chunks but not all, so appends take the
/// in-place path and leave dead bytes.
fn split_returning_subset(table: &ActivityTable, every: usize, k: usize) -> Vec<ActivityTable> {
    let tidx = table.schema().time_idx();
    let (lo, hi) = table.int_range(tidx).unwrap();
    let mid = lo + (hi - lo) / 2;
    let mut builders: Vec<TableBuilder> =
        (0..k).map(|_| TableBuilder::new(table.schema().clone())).collect();
    for (bi, block) in table.user_blocks().enumerate() {
        for row in &table.rows()[block.range()] {
            let t = row.get(tidx).as_int().unwrap();
            let slot = if bi % every != 0 || t < mid {
                0
            } else {
                1 + ((t - mid) as usize * (k - 1) / (hi - mid + 1) as usize)
            };
            builders[slot].push(row.values().to_vec()).unwrap();
        }
    }
    builders.into_iter().map(|b| b.finish().unwrap()).collect()
}

/// Write the first batch as a fresh v3 file, append the rest, and return the
/// path plus the per-append stats.
fn build_by_appends(name: &str, batches: &[ActivityTable]) -> (PathBuf, Vec<persist::AppendStats>) {
    let path = temp_path(name);
    let first =
        CompressedTable::build(&batches[0], CompressionOptions::with_chunk_size(CHUNK)).unwrap();
    persist::write_file(&first, &path).unwrap();
    let stats = batches[1..].iter().map(|b| persist::append(&path, b).unwrap()).collect();
    (path, stats)
}

#[test]
fn user_sliced_appends_never_rewrite_and_roundtrip() {
    let table = base_table();
    let batches = split_by_user(&table, 3);
    let (path, stats) = build_by_appends("user-sliced.cohana", &batches);
    for s in &stats {
        assert_eq!(s.chunks_rewritten, 0, "user-disjoint batches are pure appends");
        assert!(s.bytes_appended > 0);
        assert!(s.dead_bytes > 0, "superseded footers become dead bytes");
    }
    // Eager read-back decompresses to exactly the build-once table.
    let eager = persist::read_file(&path).unwrap();
    assert_eq!(eager.decompress().unwrap().rows(), table.rows());
    // Merged dictionaries equal the build-once dictionaries (sorted, no
    // gid drift).
    let once = CompressedTable::build(&table, CompressionOptions::with_chunk_size(CHUNK)).unwrap();
    assert_eq!(eager.metas(), once.metas());
    std::fs::remove_file(&path).ok();
}

#[test]
fn time_sliced_appends_rewrite_returning_users_and_roundtrip() {
    let table = base_table();
    let batches = split_by_time(&table, 4);
    let (path, stats) = build_by_appends("time-sliced.cohana", &batches);
    assert!(
        stats.iter().any(|s| s.chunks_rewritten > 0),
        "time slices revisit users, forcing chunk rewrites"
    );
    let eager = persist::read_file(&path).unwrap();
    assert_eq!(eager.decompress().unwrap().rows(), table.rows());
    // No user is split across chunks — the §4.1 invariant survives appends.
    let mut seen = std::collections::HashSet::new();
    for chunk in eager.chunks() {
        for run in chunk.user_rle().runs() {
            assert!(seen.insert(run.user_gid), "user {} split across chunks", run.user_gid);
        }
    }
    // The lazy path agrees with the eager one, chunk by chunk.
    let src = FileSource::open(&path).unwrap();
    assert_eq!(src.num_chunks(), eager.chunks().len());
    for i in 0..src.num_chunks() {
        assert_eq!(&*src.chunk(i).unwrap(), &eager.chunks()[i]);
        assert_eq!(src.index_entry(i), &eager.index_entries()[i]);
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn table_writer_appends_buffered_batches() {
    let table = base_table();
    let batches = split_by_time(&table, 3);
    let path = temp_path("writer.cohana");
    let mut w = TableWriter::new(table.schema().clone());
    w.push_batch(&batches[0]).unwrap();
    persist::write_file(&w.build(CompressionOptions::with_chunk_size(CHUNK)).unwrap(), &path)
        .unwrap();
    // Buffer the remaining batches and flush them in one append.
    for b in &batches[1..] {
        w.push_batch(b).unwrap();
    }
    let stats = w.append_to(&path).unwrap();
    assert_eq!(stats.rows_appended, batches[1..].iter().map(|b| b.num_rows()).sum::<usize>());
    assert!(w.is_empty());
    let eager = persist::read_file(&path).unwrap();
    assert_eq!(eager.decompress().unwrap().rows(), table.rows());
    std::fs::remove_file(&path).ok();
}

#[test]
fn append_onto_empty_file() {
    let schema = base_table().schema().clone();
    let empty = TableBuilder::new(schema).finish().unwrap();
    let path = temp_path("from-empty.cohana");
    let c = CompressedTable::build(&empty, CompressionOptions::with_chunk_size(CHUNK)).unwrap();
    persist::write_file(&c, &path).unwrap();

    let table = base_table();
    let stats = persist::append(&path, &table).unwrap();
    assert_eq!(stats.chunks_before, 0);
    assert!(stats.chunks_after > 0);
    let eager = persist::read_file(&path).unwrap();
    assert_eq!(eager.decompress().unwrap().rows(), table.rows());
    std::fs::remove_file(&path).ok();
}

#[test]
fn empty_batch_append_is_a_noop() {
    let table = base_table();
    let path = temp_path("noop.cohana");
    let c = CompressedTable::build(&table, CompressionOptions::with_chunk_size(CHUNK)).unwrap();
    persist::write_file(&c, &path).unwrap();
    let before = std::fs::read(&path).unwrap();
    let empty = TableBuilder::new(table.schema().clone()).finish().unwrap();
    let stats = persist::append(&path, &empty).unwrap();
    assert_eq!(stats.rows_appended, 0);
    assert_eq!(stats.chunks_before, stats.chunks_after);
    assert_eq!(std::fs::read(&path).unwrap(), before, "no bytes written");
    std::fs::remove_file(&path).ok();
}

#[test]
fn append_rejects_v1_and_v2_files() {
    // No v1/v2 writer remains: relabel a v4 image's header by hand.
    let table = base_table();
    let c = CompressedTable::build(&table, CompressionOptions::with_chunk_size(CHUNK)).unwrap();
    for version in [1u32, 2] {
        let mut bytes = persist::to_bytes(&c).to_vec();
        bytes[4..8].copy_from_slice(&version.to_le_bytes());
        let path = temp_path(&format!("reject-v{version}.cohana"));
        std::fs::write(&path, &bytes).unwrap();
        let errors = [
            ("append", persist::append(&path, &table).err()),
            ("compact", persist::compact(&path).err()),
            ("inspect", persist::inspect(&path).err()),
            ("file_space_stats", persist::file_space_stats(&path).err()),
        ];
        for (entry, err) in errors {
            match err {
                Some(StorageError::Unsupported(msg)) => assert!(
                    msg.contains("re-save"),
                    "{entry} v{version}: error should carry a migration hint: {msg}"
                ),
                other => panic!("{entry} v{version}: expected Unsupported, got {other:?}"),
            }
        }
        // A rejected append or compaction must not touch the file.
        assert_eq!(std::fs::read(&path).unwrap(), bytes);
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn append_rejects_duplicate_keys_and_foreign_schema() {
    let table = base_table();
    let path = temp_path("conflict.cohana");
    let c = CompressedTable::build(&table, CompressionOptions::with_chunk_size(CHUNK)).unwrap();
    persist::write_file(&c, &path).unwrap();
    // Re-appending the same rows collides on every primary key.
    assert!(matches!(persist::append(&path, &table).unwrap_err(), StorageError::Invalid(_)));
    std::fs::remove_file(&path).ok();
}

#[test]
fn refresh_picks_up_appends_without_serving_stale_segments() {
    let table = base_table();
    let batches = split_by_time(&table, 2);
    let path = temp_path("refresh.cohana");
    let first =
        CompressedTable::build(&batches[0], CompressionOptions::with_chunk_size(CHUNK)).unwrap();
    persist::write_file(&first, &path).unwrap();

    let mut src = FileSource::open(&path).unwrap();
    // Warm the cache with every chunk, then grow the file behind the source.
    for i in 0..src.num_chunks() {
        src.chunk(i).unwrap();
    }
    let chunks_before = src.num_chunks();
    persist::append(&path, &batches[1]).unwrap();

    // Until refresh, the source still serves its open-time snapshot.
    assert_eq!(src.num_chunks(), chunks_before);
    assert_eq!(src.table_meta().num_rows(), batches[0].num_rows());

    let stats = src.refresh().unwrap();
    assert_eq!(stats.chunks_before, chunks_before);
    assert_eq!(stats.chunks_after, src.num_chunks());
    assert!(stats.segments_invalidated > 0, "rewritten/re-based segments must drop");
    assert_eq!(src.table_meta().num_rows(), table.num_rows());

    // Every chunk served after the refresh matches the eager read of the
    // appended file — nothing stale survives.
    let eager = persist::read_file(&path).unwrap();
    assert_eq!(src.num_chunks(), eager.chunks().len());
    for i in 0..src.num_chunks() {
        assert_eq!(&*src.chunk(i).unwrap(), &eager.chunks()[i], "chunk {i} diverges");
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn refresh_after_compact_switches_to_the_new_image() {
    let table = base_table();
    let batches = split_by_time(&table, 3);
    let (path, _) = build_by_appends("refresh-compact.cohana", &batches);
    let mut src = FileSource::open(&path).unwrap();
    for i in 0..src.num_chunks() {
        src.chunk(i).unwrap();
    }
    let warm_chunks = src.num_chunks();
    let arity = persist::read_file(&path).unwrap().schema().arity();
    persist::compact(&path).unwrap();
    let stats = src.refresh().unwrap();
    // Compaction replaces the inode; byte locations mean nothing across the
    // rewrite, so *every* cached segment (RLE + each non-user column per
    // chunk) must drop, even where offsets happen to coincide.
    assert_eq!(stats.segments_invalidated, warm_chunks * arity);
    let eager = persist::read_file(&path).unwrap();
    assert_eq!(src.num_chunks(), eager.chunks().len());
    for i in 0..src.num_chunks() {
        assert_eq!(&*src.chunk(i).unwrap(), &eager.chunks()[i]);
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn compact_reclaims_dead_bytes_and_restores_build_once_image() {
    let table = base_table();
    let batches = split_returning_subset(&table, 8, 4);
    let (path, stats) = build_by_appends("compact.cohana", &batches);
    let appended_size = std::fs::metadata(&path).unwrap().len();
    assert!(stats.last().unwrap().dead_bytes > 0);

    let cstats = persist::compact(&path).unwrap();
    assert_eq!(cstats.bytes_before, appended_size);
    assert_eq!(cstats.rows, table.num_rows());
    assert!(cstats.reclaimed_bytes > 0, "compaction reclaims dead bytes");
    assert!(cstats.bytes_after < cstats.bytes_before);

    // Compaction restores the exact build-once image: same primary order,
    // same chunking, same dictionaries, same codec selections — byte for
    // byte, in the current (v4) format.
    let bytes = std::fs::read(&path).unwrap();
    assert_eq!(&bytes[4..8], 4u32.to_le_bytes());
    let once = CompressedTable::build(&table, CompressionOptions::with_chunk_size(CHUNK)).unwrap();
    assert_eq!(bytes, persist::to_bytes(&once).to_vec());
    std::fs::remove_file(&path).ok();
}

#[test]
fn v3_files_grow_in_v3_and_compact_migrates_them_to_v4() {
    let table = base_table();
    let batches = split_by_time(&table, 3);
    let path = temp_path("v3-migrate.cohana");
    let first =
        CompressedTable::build(&batches[0], CompressionOptions::with_chunk_size(CHUNK)).unwrap();
    std::fs::write(&path, persist::to_bytes_v3(&first)).unwrap();

    // Appends keep the file in its own version: new blobs are written raw
    // and the grown file still opens as v3.
    for b in &batches[1..] {
        persist::append(&path, b).unwrap();
        assert_eq!(&std::fs::read(&path).unwrap()[4..8], 3u32.to_le_bytes());
    }
    let eager = persist::read_file(&path).unwrap();
    assert_eq!(eager.decompress().unwrap().rows(), table.rows());

    // Compact rewrites in the current version — the v3 → v4 migration path
    // — and lands on the exact v4 build-once image.
    persist::compact(&path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    assert_eq!(&bytes[4..8], 4u32.to_le_bytes());
    let once = CompressedTable::build(&table, CompressionOptions::with_chunk_size(CHUNK)).unwrap();
    assert_eq!(bytes, persist::to_bytes(&once).to_vec());
    std::fs::remove_file(&path).ok();
}

#[test]
fn v4_appends_match_v3_appends_decoded() {
    // The same batch sequence ingested into a v3 and a v4 file must decode
    // to identical chunks — the codec layer changes bytes on disk, never
    // the decoded table.
    let table = base_table();
    let batches = split_by_time(&table, 3);
    let first =
        CompressedTable::build(&batches[0], CompressionOptions::with_chunk_size(CHUNK)).unwrap();
    let v3_path = temp_path("parity-v3.cohana");
    let v4_path = temp_path("parity-v4.cohana");
    std::fs::write(&v3_path, persist::to_bytes_v3(&first)).unwrap();
    std::fs::write(&v4_path, persist::to_bytes(&first)).unwrap();
    for b in &batches[1..] {
        persist::append(&v3_path, b).unwrap();
        persist::append(&v4_path, b).unwrap();
    }
    let v3 = persist::read_file(&v3_path).unwrap();
    let v4 = persist::read_file(&v4_path).unwrap();
    assert_eq!(v3.chunks(), v4.chunks());
    assert_eq!(v3.metas(), v4.metas());
    std::fs::remove_file(&v3_path).ok();
    std::fs::remove_file(&v4_path).ok();
}

#[test]
fn open_snapshot_survives_append_and_compact() {
    let table = base_table();
    let batches = split_by_time(&table, 2);
    let path = temp_path("snapshot.cohana");
    let first =
        CompressedTable::build(&batches[0], CompressionOptions::with_chunk_size(CHUNK)).unwrap();
    persist::write_file(&first, &path).unwrap();

    let src = FileSource::open(&path).unwrap();
    persist::append(&path, &batches[1]).unwrap();
    persist::compact(&path).unwrap();
    // The old handle still reads the pre-append image: the append left the
    // old footer's bytes untouched and the compact replaced the path via
    // rename, keeping the old inode alive through the open fd.
    assert_eq!(src.table_meta().num_rows(), batches[0].num_rows());
    for i in 0..src.num_chunks() {
        assert_eq!(&*src.chunk(i).unwrap(), &first.chunks()[i]);
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn truncated_appended_file_reports_named_corruption() {
    let table = base_table();
    let batches = split_by_time(&table, 2);
    let (path, _) = build_by_appends("truncated.cohana", &batches);
    let bytes = std::fs::read(&path).unwrap();
    // A tail whose footer length reaches past the start of the file must
    // name the impossible offset, not panic or report a bare UnexpectedEof.
    let mut crafted = bytes.clone();
    let tail = crafted.len() - 12;
    crafted[tail..tail + 8].copy_from_slice(&u64::MAX.to_le_bytes());
    match persist::from_bytes(&crafted).unwrap_err() {
        StorageError::Corrupt(msg) => {
            assert!(msg.contains("would start at offset"), "unhelpful message: {msg}")
        }
        other => panic!("expected Corrupt, got {other:?}"),
    }
    // Any truncation of an appended image errors cleanly (the tail magic or
    // the footer bounds catch it), never panics.
    for cut in [bytes.len() - 1, bytes.len() - 13, bytes.len() / 2, 9] {
        assert!(persist::from_bytes(&bytes[..cut]).is_err(), "cut at {cut} should fail");
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn full_rewrite_append_lands_the_compacted_image() {
    // Time slices revisit every user, so the second batch supersedes every
    // chunk: the append writes the compacted image instead of a tail.
    let table = base_table();
    let batches = split_by_time(&table, 2);
    let opts = CompressionOptions::with_chunk_size(CHUNK);
    let once = CompressedTable::build(&table, opts).unwrap();
    let first = CompressedTable::build(&batches[0], opts).unwrap();
    type Writer = fn(&CompressedTable) -> bytes::Bytes;
    for (name, writer) in [("v3", persist::to_bytes_v3 as Writer), ("v4", persist::to_bytes)] {
        let path = temp_path(&format!("full-rewrite-{name}.cohana"));
        std::fs::write(&path, writer(&first)).unwrap();
        let mut src = FileSource::open(&path).unwrap();
        for i in 0..src.num_chunks() {
            src.chunk(i).unwrap();
        }
        let warm_chunks = src.num_chunks();

        let stats = persist::append(&path, &batches[1]).unwrap();
        assert_eq!(stats.chunks_rewritten, stats.chunks_before, "{name}: every chunk superseded");
        assert_eq!(stats.dead_bytes, 0, "{name}");
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(bytes, writer(&once).to_vec(), "{name}: not the build-once image");
        assert_eq!(
            (stats.bytes_appended, stats.file_bytes),
            (bytes.len() as u64, bytes.len() as u64)
        );
        assert_eq!(persist::file_space_stats(&path).unwrap().dead_bytes, 0);

        // The open source keeps its pre-append snapshot through the old
        // inode; refresh sees a new file and drops every cached segment.
        assert_eq!(src.table_meta().num_rows(), batches[0].num_rows());
        assert_eq!(&*src.chunk(0).unwrap(), &first.chunks()[0]);
        let refreshed = src.refresh().unwrap();
        assert_eq!(refreshed.segments_invalidated, warm_chunks * table.schema().arity());
        assert_eq!(src.table_meta().num_rows(), table.num_rows());
        std::fs::remove_file(&path).ok();
    }
}

/// Split a table into `k` batches, some users whole (round-robin) and the
/// rest by time, so returning users meet both fresh and rewritten chunks.
fn split_mixed(table: &ActivityTable, k: usize) -> Vec<ActivityTable> {
    let tidx = table.schema().time_idx();
    let (lo, hi) = table.int_range(tidx).unwrap();
    let span = (hi - lo + 1) as usize;
    let mut builders: Vec<TableBuilder> =
        (0..k).map(|_| TableBuilder::new(table.schema().clone())).collect();
    for (bi, block) in table.user_blocks().enumerate() {
        for row in &table.rows()[block.range()] {
            let t = (row.get(tidx).as_int().unwrap() - lo) as usize;
            let slot = if bi % 2 == 0 { bi % k } else { t * k / span };
            builders[slot].push(row.values().to_vec()).unwrap();
        }
    }
    builders.into_iter().map(|b| b.finish().unwrap()).collect()
}

/// A sorted table of the given rows.
fn table_of<'a>(
    schema: &cohana_activity::Schema,
    rows: impl IntoIterator<Item = &'a cohana_activity::Tuple>,
) -> ActivityTable {
    let mut b = TableBuilder::new(schema.clone());
    for row in rows {
        b.push(row.values().to_vec()).unwrap();
    }
    b.finish().unwrap()
}

use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    #[test]
    fn prop_rewrites_match_build_once_images(
        seed in 0u64..1_000_000,
        users in 6usize..24,
        k in 2usize..6,
        split in 0usize..3,
        chunk in prop::sample::select(vec![64usize, 256, 1024]),
        v3 in prop::bool::ANY,
    ) {
        let table = generate(&GeneratorConfig { seed, ..GeneratorConfig::new(users) });
        let schema = table.schema().clone();
        let user_idx = schema.user_idx();
        let batches = match split {
            0 => split_by_user(&table, k),
            1 => split_by_time(&table, k),
            _ => split_mixed(&table, k),
        };
        let opts = CompressionOptions::with_chunk_size(chunk);
        let writer = if v3 { persist::to_bytes_v3 } else { persist::to_bytes };
        let image = |t: &ActivityTable| writer(&CompressedTable::build(t, opts).unwrap()).to_vec();
        let path = temp_path(&format!("prop-{seed}-{users}-{k}-{split}-{chunk}-{v3}.cohana"));
        std::fs::write(&path, image(&batches[0])).unwrap();

        for i in 1..batches.len() {
            let so_far = table_of(&schema, batches[..i].iter().flat_map(|b| b.rows()));
            // One stored row slipped into the batch: prefer a row of a user
            // the batch brings back, so the duplicate sits inside that
            // user's merged run.
            let stored = |u: &str| {
                so_far.rows().iter().find(|r| r.get(user_idx).as_str() == Some(u))
            };
            let returning = batches[i]
                .rows()
                .iter()
                .find_map(|r| stored(r.get(user_idx).as_str().unwrap()));
            if let Some(dup) = returning.or(so_far.rows().first()) {
                let before = std::fs::read(&path).unwrap();
                let bad = table_of(&schema, batches[i].rows().iter().chain([dup]));
                prop_assert!(matches!(persist::append(&path, &bad), Err(StorageError::Invalid(_))));
                prop_assert_eq!(std::fs::read(&path).unwrap(), before);
            }

            let stats = persist::append(&path, &batches[i]).unwrap();
            let rows = table_of(&schema, batches[..=i].iter().flat_map(|b| b.rows()));
            let eager = persist::read_file(&path).unwrap();
            prop_assert_eq!(eager.decompress().unwrap().rows(), rows.rows());
            let bytes = std::fs::read(&path).unwrap();
            if stats.chunks_rewritten == stats.chunks_before {
                prop_assert_eq!(stats.dead_bytes, 0);
                prop_assert!(bytes == image(&rows), "full rewrite is not the build-once image");
            }
            prop_assert_eq!(&bytes[4..8], &(if v3 { 3u32 } else { 4 }).to_le_bytes());
        }

        // Compaction lands on the v4 build-once image.
        persist::compact(&path).unwrap();
        let once = CompressedTable::build(&table, opts).unwrap();
        prop_assert!(std::fs::read(&path).unwrap() == persist::to_bytes(&once).to_vec());
        std::fs::remove_file(&path).ok();

        // Deleting users from a grown sharded table rewrites each owning
        // shard to the build-once image of its remaining rows.
        // (Shard boundaries come from the first batch's users.)
        if !batches[0].is_empty() {
            let dir = temp_path(&format!("prop-shards-{seed}-{users}-{k}-{split}-{chunk}-{v3}"));
            std::fs::remove_dir_all(&dir).ok();
            let manifest = shard::create_sharded(&dir, &batches[0], 2, opts).unwrap();
            for b in &batches[1..] {
                shard::append_sharded(&dir, b).unwrap();
            }
            let names: Vec<&str> = table
                .user_blocks()
                .map(|b| table.rows()[b.start].get(user_idx).as_str().unwrap())
                .collect();
            let victims: Vec<&str> = names.iter().copied().step_by(3).collect();
            shard::delete_users(&dir, &victims).unwrap();
            for s in 0..manifest.num_shards() {
                if !victims.iter().any(|v| manifest.route(v) == s) {
                    continue;
                }
                let kept = table_of(
                    &schema,
                    table.rows().iter().filter(|r| {
                        let u = r.get(user_idx).as_str().unwrap();
                        manifest.route(u) == s && !victims.contains(&u)
                    }),
                );
                let got = std::fs::read(manifest.shard_path(&dir, s)).unwrap();
                let want = persist::to_bytes(&CompressedTable::build(&kept, opts).unwrap()).to_vec();
                prop_assert!(got == want, "shard {} after delete is not build(rows minus victims)", s);
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}
