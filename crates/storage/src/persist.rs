//! Binary persistence of compressed tables.
//!
//! # v4: the codec-compressed column-addressable format
//!
//! Every chunk's segments are written as **independently addressable
//! blobs** — the RLE user column first, then one blob per remaining
//! attribute — followed by a footer that records, per chunk, the byte
//! location of every blob plus per-column statistics, and finally the
//! footer length + magic (the Parquet `RowGroupMetaData` /
//! `ColumnChunkMetaData` layout, adapted to COHANA's user-clustered
//! chunks). New in v4, each column blob's packed-array section is run
//! through the smallest of the [`crate::codec`] codecs (raw /
//! delta-then-pack / rANS) at write time, and the footer's blob record
//! grows a codec tag plus the blob's uncompressed (v3-serialized) size:
//!
//! ```text
//! ┌────────────────────────────────────────────────────────────────────┐
//! │ magic "COHA" u32 │ version=4 u32                                   │  header
//! ├────────────────────────────────────────────────────────────────────┤
//! │ chunk 0: rle blob │ col 1 blob │ col 2 blob │ …                    │  payload
//! │ chunk 1: rle blob │ col 1 blob │ …                                 │
//! ├────────────────────────────────────────────────────────────────────┤
//! │ chunk_size u64                                                     │  footer
//! │ schema (arity u16, then name │ vtype u8 │ role u8 per attribute)   │
//! │ one ColumnMeta per attribute (dictionaries / ranges)               │
//! │ num_rows u64 │ chunk_count u32                                     │
//! │ per chunk: rle offset u64 │ len u64 │ codec u8 │ uncompressed u64  │
//! │            per attribute: offset u64 │ len u64 │ codec u8 │        │
//! │                           uncompressed u64  (all-zero for user)    │
//! │            rows u64 │ users u64 │ time_min i64 │ time_max i64      │
//! │            n_actions u32 │ gids…                                   │
//! │            per attribute: stats (user u8=0 │ str u8=1 + distinct   │
//! │                                  u32 │ int u8=2 + min i64 + max)   │
//! ├────────────────────────────────────────────────────────────────────┤
//! │ footer_len u64 │ magic "COHA" u32                                  │  tail
//! └────────────────────────────────────────────────────────────────────┘
//! ```
//!
//! All integers are little-endian. Each blob is self-contained given its
//! footer record, so any single column of any chunk can be fetched and
//! decoded from its `(offset, len, codec, uncompressed)` alone — the
//! property projection pushdown builds on:
//! [`FileSource`](crate::source::FileSource) opens in O(footer), prunes
//! chunks from index entries, and then reads **only the bytes of the
//! columns the plan projects**. A `Raw` blob is byte-identical to its v3
//! form (the RLE blob always is); `Delta`/`Ans` blobs keep their header
//! (tag byte, chunk dictionary gids, int min/max) raw and entropy-code
//! only the packed array, decoding back into the exact
//! [`BitPacked`] the raw path would produce — cursors, the SIMD
//! `unpack_range`, and the morsel executor never see the difference.
//!
//! # Appending
//!
//! v3/v4 files grow in place: [`append`] writes a batch's chunks after the
//! old end of file and re-serializes the footer at the new tail, leaving
//! every previously written byte untouched (old footers and superseded
//! chunk versions become dead bytes until [`compact`] reclaims them). The
//! file's version is preserved: appending to a v4 file codec-compresses the
//! new blobs, appending to a v3 file keeps writing raw v3 blobs (its footer
//! has no codec fields), and [`compact`] — which rewrites the whole file in
//! the current format — is the migration path from v3 to v4. Dictionary
//! growth is recorded as per-epoch gid remaps in the footer instead of
//! rewriting blobs; chunks holding users that reappear in a batch are
//! re-encoded so no user ever spans two chunks. An append that would
//! supersede every chunk writes the compacted image instead (temp file +
//! rename, still in the file's own version). Every re-encoding — append,
//! compaction, user deletion — goes through one columnar rewrite core that
//! works in global-id space. See `docs/FORMAT.md` for the exact layout and
//! `crate::writer::TableWriter` for the batching front end.
//!
//! # Versions
//!
//! Every entry point — [`from_bytes`]/[`read_file`], `FileSource`,
//! [`append`], [`compact`], [`inspect`], [`file_space_stats`] — runs the
//! same header check first. v3 files (raw column-addressable blobs, the
//! pre-codec format) read identically through every path, and
//! [`to_bytes_v3`] keeps that writer byte-for-byte; [`compact`] is their
//! migration path to v4. The retired v1 (eager, footer-less) and v2
//! (whole-chunk blobs) formats are rejected with
//! [`StorageError::Unsupported`] carrying a conversion hint: re-save such a
//! file with a release that still reads it.

use crate::bitpack::BitPacked;
use crate::chunk::Chunk;
use crate::codec::{self, Codec};
use crate::column::ChunkColumn;
use crate::dict::{ChunkDict, GlobalDict};
use crate::rle::UserRle;
use crate::source::{ChunkIndexEntry, ColumnStats};
use crate::table::{ColumnMeta, CompressedTable, CompressionOptions, TableMeta};
use crate::{Result, StorageError};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use cohana_activity::{ActivityTable, Attribute, AttributeRole, Schema, ValueType};
use std::fs::File;
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

const MAGIC: u32 = 0x434F_4841; // "COHA"
/// Current on-disk format version (column-addressable, per-blob codecs).
pub const VERSION: u32 = 4;
/// Bytes before the first blob: magic + version.
const HEADER_LEN: u64 = 8;
/// Bytes after the footer: footer_len u64 + magic u32.
const TAIL_LEN: u64 = 12;
/// How to convert a file in a retired format, carried by every rejection.
const CONVERSION_HINT: &str = "this build reads only v3/v4 files; re-save it with a release that \
     still reads it (load with persist::read_file, save with persist::write_file)";

/// The one header check every entry point runs: the magic, then the
/// version. Returns the version (3 or 4); v1/v2 files are rejected with
/// [`StorageError::Unsupported`] carrying [`CONVERSION_HINT`].
fn check_header(header: &[u8]) -> Result<u32> {
    let mut cur = header;
    let magic = get_u32(&mut cur)?;
    if magic != MAGIC {
        return Err(StorageError::Corrupt(format!("bad magic {magic:#x}")));
    }
    match get_u32(&mut cur)? {
        v @ (3 | 4) => Ok(v),
        v @ (1 | 2) => Err(StorageError::Unsupported(format!(
            "version {v} files are no longer supported: {CONVERSION_HINT}"
        ))),
        v => Err(StorageError::BadVersion(v)),
    }
}

/// Serialize a compressed table into the current (v4, column-addressable
/// with per-blob codecs) format.
pub fn to_bytes(table: &CompressedTable) -> Bytes {
    to_bytes_versioned(table, VERSION)
}

/// Serialize in the v3 column-addressable format (raw blobs, 16-byte footer
/// blob records) — byte-identical to what the pre-v4 writer produced. Kept
/// for round-trip tests, downgrades, and producing files readable by
/// v3-only consumers.
pub fn to_bytes_v3(table: &CompressedTable) -> Bytes {
    to_bytes_versioned(table, 3)
}

fn to_bytes_versioned(table: &CompressedTable, version: u32) -> Bytes {
    debug_assert!(version == 3 || version == 4);
    let mut buf = BytesMut::new();
    buf.put_u32_le(MAGIC);
    buf.put_u32_le(version);
    let layouts = write_blobs(&mut buf, table.chunks(), table.schema(), 0, version);
    let footer_start = buf.len() as u64;
    write_footer(
        &mut buf,
        version,
        table.options().chunk_size,
        table.schema(),
        table.metas(),
        table.num_rows() as u64,
        &layouts,
        table.index_entries(),
        &[],
        &[],
    );
    let footer_len = buf.len() as u64 - footer_start;
    buf.put_u64_le(footer_len);
    buf.put_u32_le(MAGIC);
    buf.freeze()
}

/// Write every chunk's blobs back-to-back into `buf`, returning their
/// layouts with offsets shifted by `base` (the file offset `buf[0]` will
/// land at — 0 when writing a whole image, the old file size when writing an
/// appended region). At `version >= 4` every column blob goes through codec
/// selection; the RLE blob is always raw (its three packed arrays carry the
/// scan-critical user runs, decoded for every touched chunk).
fn write_blobs(
    buf: &mut BytesMut,
    chunks: &[Chunk],
    schema: &Schema,
    base: u64,
    version: u32,
) -> Vec<ChunkLayout> {
    let arity = schema.arity();
    let user_idx = schema.user_idx();
    let mut layouts = Vec::with_capacity(chunks.len());
    for chunk in chunks {
        let rle_offset = base + buf.len() as u64;
        write_rle_blob(buf, chunk.user_rle());
        let rle = BlobLoc::raw(rle_offset, base + buf.len() as u64 - rle_offset);
        let mut cols = vec![BlobLoc::absent(); arity];
        for (idx, slot) in cols.iter_mut().enumerate() {
            if idx == user_idx {
                continue;
            }
            let offset = base + buf.len() as u64;
            let (codec, uncompressed) = write_column_blob(buf, chunk.column_required(idx), version);
            *slot = BlobLoc { offset, len: base + buf.len() as u64 - offset, codec, uncompressed };
        }
        layouts.push(ChunkLayout { rle, cols });
    }
    layouts
}

/// Write a v3/v4 footer (everything between the last blob and the tail):
/// options + schema + global column metadata, the per-chunk index, and — for
/// appended files — the dictionary-epoch extension. `epochs` and
/// `chunk_epochs` must be empty or sized together (`chunk_epochs.len() ==
/// layouts.len()`). v4 blob records additionally carry the codec tag and
/// uncompressed size.
#[allow(clippy::too_many_arguments)]
fn write_footer(
    buf: &mut BytesMut,
    version: u32,
    chunk_size: usize,
    schema: &Schema,
    metas: &[ColumnMeta],
    num_rows: u64,
    layouts: &[ChunkLayout],
    entries: &[ChunkIndexEntry],
    epochs: &[EpochRemaps],
    chunk_epochs: &[u32],
) {
    let arity = schema.arity();
    let write_loc = |buf: &mut BytesMut, loc: &BlobLoc| {
        buf.put_u64_le(loc.offset);
        buf.put_u64_le(loc.len);
        if version >= 4 {
            buf.put_u8(loc.codec.tag());
            buf.put_u64_le(loc.uncompressed);
        }
    };
    buf.put_u64_le(chunk_size as u64);
    write_schema(buf, schema);
    for meta in metas {
        write_meta(buf, meta);
    }
    buf.put_u64_le(num_rows);
    buf.put_u32_le(layouts.len() as u32);
    for (layout, entry) in layouts.iter().zip(entries) {
        write_loc(buf, &layout.rle);
        for loc in &layout.cols {
            write_loc(buf, loc);
        }
        buf.put_u64_le(entry.num_rows);
        buf.put_u64_le(entry.num_users);
        buf.put_u64_le(entry.time_min as u64);
        buf.put_u64_le(entry.time_max as u64);
        buf.put_u32_le(entry.action_gids.len() as u32);
        for gid in &entry.action_gids {
            buf.put_u32_le(*gid);
        }
        debug_assert_eq!(entry.column_stats.len(), arity);
        for stats in &entry.column_stats {
            write_column_stats(buf, stats);
        }
    }
    // The epoch extension is omitted entirely when every chunk is current,
    // keeping never-appended images byte-identical to the original v3
    // layout.
    if !epochs.is_empty() {
        debug_assert_eq!(chunk_epochs.len(), layouts.len());
        buf.put_u32_le(epochs.len() as u32);
        for epoch in chunk_epochs {
            buf.put_u32_le(*epoch);
        }
        for per_attr in epochs {
            debug_assert_eq!(per_attr.len(), arity);
            for remap in per_attr {
                match remap {
                    None => buf.put_u8(0),
                    Some(remap) => {
                        buf.put_u8(1);
                        buf.put_u32_le(remap.len() as u32);
                        for gid in remap.iter() {
                            buf.put_u32_le(*gid);
                        }
                    }
                }
            }
        }
    }
}

/// Deserialize a compressed table from a v3/v4 image, materializing every
/// chunk.
pub fn from_bytes(data: &[u8]) -> Result<CompressedTable> {
    let footer = parse_footer_region(data)?;
    let user_idx = footer.meta.schema().user_idx();
    let mut chunks = Vec::with_capacity(footer.layouts.len());
    for (ci, layout) in footer.layouts.iter().enumerate() {
        let corrupt = |e: StorageError| StorageError::Corrupt(format!("chunk {ci}: {e}"));
        let mut rle = decode_rle_blob(blob_bytes(data, &layout.rle)).map_err(corrupt)?;
        if let Some(remap) = footer.remap_for(ci, user_idx) {
            rle = rle.remap_users(remap).map_err(corrupt)?;
        }
        let mut columns: Vec<Option<Arc<ChunkColumn>>> = vec![None; layout.cols.len()];
        for (idx, loc) in layout.cols.iter().enumerate() {
            if idx == user_idx {
                continue;
            }
            let col_err =
                |e: StorageError| StorageError::Corrupt(format!("chunk {ci}: col {idx}: {e}"));
            let mut col = decode_column_blob_loc(blob_bytes(data, loc), loc).map_err(col_err)?;
            if let Some(remap) = footer.remap_for(ci, idx) {
                col = col.remap_gids(remap).map_err(col_err)?;
            }
            columns[idx] = Some(Arc::new(col));
        }
        chunks.push(Chunk::from_shared(Arc::new(rle), columns)?);
    }
    let table = CompressedTable::from_parts(
        footer.meta.schema().clone(),
        footer.meta.metas().to_vec(),
        chunks,
        footer.meta.num_rows(),
        footer.meta.options(),
    )?;
    // The footer's index entries are untrusted input: they must agree with
    // the entries recomputed from the decoded chunks, or pruning decisions
    // would silently disagree with the data.
    if table.index_entries() != footer.entries.as_slice() {
        return Err(StorageError::Corrupt("footer index disagrees with chunk payloads".into()));
    }
    Ok(table)
}

/// The bytes of one blob inside a whole in-memory image (the footer parse
/// already bounded every location by the payload region).
fn blob_bytes<'a>(data: &'a [u8], loc: &BlobLoc) -> &'a [u8] {
    &data[loc.offset as usize..(loc.offset + loc.len) as usize]
}

/// Write a compressed table to a file (current v4 format).
pub fn write_file(table: &CompressedTable, path: &Path) -> Result<()> {
    std::fs::write(path, to_bytes(table))?;
    Ok(())
}

/// Read a compressed table from a v3/v4 file, materializing every chunk.
/// For lazy access use [`FileSource`](crate::source::FileSource) instead.
pub fn read_file(path: &Path) -> Result<CompressedTable> {
    let data = std::fs::read(path)?;
    from_bytes(&data)
}

// ----------------------------------------------------------------- append

/// What one [`append`] did to a file.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct AppendStats {
    /// Tuples in the appended batch.
    pub rows_appended: usize,
    /// Chunks in the file before the append.
    pub chunks_before: usize,
    /// Chunks in the file after the append.
    pub chunks_after: usize,
    /// Old chunks that had to be re-encoded because the batch contained
    /// activity of users already living in them (chunking never splits a
    /// user, so a returning user's old and new tuples must land in one
    /// chunk). When this equals `chunks_before`, the append rewrote the
    /// whole file compacted; otherwise their previous blob versions become
    /// dead bytes.
    pub chunks_rewritten: usize,
    /// Bytes the append wrote: the tail (new blobs + footer + tail marker)
    /// of an in-place append, or the whole compacted image when every chunk
    /// was superseded.
    pub bytes_appended: u64,
    /// Dead bytes now in the file: superseded footers and rewritten chunk
    /// versions, reclaimable by [`compact`]. Always 0 after an append that
    /// superseded every chunk.
    pub dead_bytes: u64,
    /// Total file size after the append.
    pub file_bytes: u64,
}

/// What one [`compact`] reclaimed.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CompactStats {
    /// File size before compaction.
    pub bytes_before: u64,
    /// File size after compaction.
    pub bytes_after: u64,
    /// `bytes_before - bytes_after` (0 if the rewrite grew the file).
    pub reclaimed_bytes: u64,
    /// Chunks before compaction (appends leave under-filled chunks).
    pub chunks_before: usize,
    /// Chunks after re-chunking at the configured target size.
    pub chunks_after: usize,
    /// Total tuples (unchanged by compaction).
    pub rows: usize,
}

/// Read exactly `len` bytes at `offset` with a positional read: no file
/// cursor is moved, so concurrent readers of one handle need no lock.
pub(crate) fn read_exact_at(file: &File, offset: u64, len: u64) -> std::io::Result<Vec<u8>> {
    let mut buf = vec![0u8; len as usize];
    read_into_at(file, &mut buf, offset)?;
    Ok(buf)
}

#[cfg(unix)]
fn read_into_at(file: &File, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
    std::os::unix::fs::FileExt::read_exact_at(file, buf, offset)
}

#[cfg(not(unix))]
fn read_into_at(file: &File, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
    use std::io::{Read, Seek, SeekFrom};
    // No positional reads here: seek and read the shared cursor, one pair
    // at a time.
    static CURSOR: std::sync::Mutex<()> = std::sync::Mutex::new(());
    let _cursor = CURSOR.lock().unwrap_or_else(|e| e.into_inner());
    let mut file = file;
    file.seek(SeekFrom::Start(offset))?;
    file.read_exact(buf)
}

/// Atomically replace the file at `path` with `bytes`: write a sibling temp
/// file, then rename it over `path`. Readers holding the old file open keep
/// reading its inode. On failure the temp file is removed and `path` is left
/// as it was.
pub(crate) fn replace_file(path: &Path, bytes: &[u8]) -> Result<()> {
    let mut tmp = path.as_os_str().to_os_string();
    tmp.push(".rewrite-tmp");
    let tmp = PathBuf::from(tmp);
    let replaced = std::fs::write(&tmp, bytes).and_then(|()| std::fs::rename(&tmp, path));
    if replaced.is_err() {
        std::fs::remove_file(&tmp).ok();
    }
    Ok(replaced?)
}

/// Decode the non-user columns of one chunk of an open v3/v4 file through
/// its epoch's `remaps` into the merged dictionaries of `meta`, around its
/// already decoded (and remapped) user column, and validate the result.
fn read_chunk_at(
    file: &File,
    meta: &TableMeta,
    layout: &ChunkLayout,
    ci: usize,
    remaps: Option<&EpochRemaps>,
    rle: UserRle,
) -> Result<Chunk> {
    let user_idx = meta.schema().user_idx();
    let mut columns: Vec<Option<Arc<ChunkColumn>>> = vec![None; meta.schema().arity()];
    for (idx, loc) in layout.cols.iter().enumerate() {
        if idx == user_idx {
            continue;
        }
        let mut col = decode_column_blob_loc(&read_exact_at(file, loc.offset, loc.len)?, loc)?;
        if let Some(remap) = remaps.and_then(|r| r[idx].as_ref()) {
            col = col.remap_gids(remap)?;
        }
        columns[idx] = Some(Arc::new(col));
    }
    let chunk = Chunk::from_shared(Arc::new(rle), columns)?;
    crate::table::validate_chunk(meta, ci, &chunk)?;
    Ok(chunk)
}

/// Compose two remap steps: `a` maps an epoch's gids into the previous
/// current dictionary, `step` maps the previous current dictionary into the
/// new one. `None` is the identity.
fn compose_remaps(a: &EpochRemaps, step: &EpochRemaps) -> Result<EpochRemaps> {
    a.iter()
        .zip(step)
        .map(|(a, s)| match (a, s) {
            (None, None) => Ok(None),
            (None, Some(s)) => Ok(Some(s.clone())),
            (Some(a), None) => Ok(Some(a.clone())),
            (Some(a), Some(s)) => {
                let composed: Result<Vec<u32>> = a
                    .iter()
                    .map(|&g| {
                        s.get(g as usize).copied().ok_or_else(|| {
                            StorageError::Corrupt(format!(
                                "epoch remap gid {g} outside the next step (size {})",
                                s.len()
                            ))
                        })
                    })
                    .collect();
                Ok(Some(Arc::new(composed?)))
            }
        })
        .collect()
}

/// Extend an existing v3/v4 file with a batch of activity tuples, preserving
/// the file's format version (v4 appends codec-compress the new blobs, v3
/// appends stay raw).
///
/// The batch is encoded against the file's dictionaries *merged* with its
/// new values. Chunks holding users that also appear in the batch are
/// superseded: a returning user's old and new tuples must live in one chunk
/// (the §4.1 invariant every executor pass relies on), so those chunks are
/// decoded and merged with the batch in global-id space (see
/// `crate::rewrite`) into chunk-sized runs. What happens next depends on how
/// much is superseded:
///
/// * **Some chunks survive** (the usual case): the new chunks' blobs are
///   written after the old end of file and a fresh footer is serialized at
///   the tail. Nothing else on disk is touched; the superseded chunk
///   versions and the old footer become dead bytes until [`compact`]
///   reclaims them.
/// * **Every chunk is superseded** (including a file with no chunks): a tail
///   would leave the whole old payload dead, so the append instead writes
///   the compacted image of all rows — byte for byte what [`compact`] would
///   produce, but in the file's own version — to a temp file and renames it
///   over `path`. The result has no dead bytes.
///
/// New dictionary values that sort into the middle of a global dictionary do
/// **not** shift the ids stored in surviving blobs: the footer records, per
/// dictionary *epoch*, the strictly increasing remap from that epoch's gids
/// into the merged dictionary, and the decode path re-bases old chunks
/// through it. The merged dictionaries stay sorted, so `rank`-based ordering
/// predicates remain valid.
///
/// v1/v2 files are rejected with [`StorageError::Unsupported`]. The batch
/// must have the file's schema, and its primary keys must not collide with
/// existing tuples ([`StorageError::Invalid`]); a rejected append leaves the
/// file untouched.
///
/// Readers holding the file open (e.g. a
/// [`FileSource`](crate::source::FileSource)) are unaffected: an in-place
/// append leaves every byte their footer describes in place, and a full
/// rewrite leaves their handle on the old inode. Call
/// [`FileSource::refresh`](crate::source::FileSource::refresh) (or re-open)
/// to observe the appended data.
///
/// **Single writer.** Appends are not internally synchronized: two
/// concurrent `append`s to one file would read the same footer and write
/// overlapping tails, corrupting it. Serialize writers externally — the
/// engine's `Cohana::ingest` does (one write lock per engine);
/// out-of-engine callers own the coordination.
pub fn append(path: &Path, batch: &ActivityTable) -> Result<AppendStats> {
    let mut file = std::fs::OpenOptions::new().read(true).write(true).open(path)?;
    let footer = read_footer_from_file(&file)?;
    let total = footer.file_len;
    let version = footer.version;
    let schema = footer.meta.schema().clone();
    if &schema != batch.schema() {
        return Err(StorageError::Invalid(
            "append batch schema differs from the file's schema".into(),
        ));
    }
    let chunks_before = footer.layouts.len();
    if batch.is_empty() {
        return Ok(AppendStats {
            chunks_before,
            chunks_after: chunks_before,
            file_bytes: total,
            dead_bytes: footer.dead_bytes(),
            ..AppendStats::default()
        });
    }
    let layouts = &footer.layouts;

    // Merge the batch's new values into every dictionary, remembering the
    // strictly increasing remap of each old dictionary into its merged form;
    // widen integer ranges.
    let (merged, step) = crate::rewrite::merge_metas(&footer.meta, batch)?;

    // Compose the dictionary epochs. Every chunk keeps its numeric epoch
    // tag: when the step is non-trivial it is pushed as a new epoch at index
    // `old epochs.len()`, exactly the tag previously meaning "current".
    // Through these remaps a chunk of any epoch decodes straight into the
    // merged dictionaries.
    let step_identity = step.iter().all(Option::is_none);
    let epochs: Vec<EpochRemaps> = if step_identity {
        footer.epochs.clone()
    } else {
        let mut composed: Vec<EpochRemaps> =
            footer.epochs.iter().map(|e| compose_remaps(e, &step)).collect::<Result<_>>()?;
        composed.push(step.clone());
        composed
    };
    let old_epoch_of = |ci: usize| -> u32 {
        footer.chunk_epochs.get(ci).copied().unwrap_or(footer.epochs.len() as u32)
    };

    // Old chunks containing users that also appear in the batch must be
    // rewritten. Their RLE blobs are cheap to scan relative to full chunk
    // payloads, and are skipped entirely when every batch user is new.
    // Remapping the whole RLE up front surfaces any gid outside its
    // dictionary epoch as corruption instead of silently misclassifying the
    // chunk, and hands the decoded user column to the rewrite below.
    let user_idx = schema.user_idx();
    let user_dict = merged.global_dict(user_idx).expect("user dictionary");
    let batch_users: Vec<u32> = batch
        .user_blocks()
        .filter_map(|b| user_dict.lookup(batch.rows()[b.start].get(user_idx).as_str()?))
        .collect();
    let old_users = footer.meta.global_dict(user_idx).expect("user dictionary").len();
    let any_returning = batch_users.len() > user_dict.len() - old_users;
    let mut affected = vec![false; chunks_before];
    let mut superseded: Vec<Chunk> = Vec::new();
    if any_returning {
        for (ci, layout) in layouts.iter().enumerate() {
            let corrupt = |e: StorageError| StorageError::Corrupt(format!("chunk {ci}: {e}"));
            let remaps = epochs.get(old_epoch_of(ci) as usize);
            let mut rle =
                decode_rle_blob(&read_exact_at(&file, layout.rle.offset, layout.rle.len)?)
                    .map_err(corrupt)?;
            if let Some(remap) = remaps.and_then(|r| r[user_idx].as_ref()) {
                rle = rle.remap_users(remap).map_err(corrupt)?;
            }
            if rle.runs().any(|run| batch_users.binary_search(&run.user_gid).is_ok()) {
                affected[ci] = true;
                superseded.push(read_chunk_at(&file, &merged, layout, ci, remaps, rle)?);
            }
        }
    }

    // The delta: every superseded chunk's rows plus the batch, merged into
    // primary-key order and encoded against the merged dictionaries — or,
    // when nothing survives, the compacted image of the whole table.
    let full_rewrite = affected.iter().all(|&a| a);
    let delta = crate::rewrite::rewrite(&merged, &superseded, Some(batch), &[], full_rewrite)
        .map_err(|e| match e {
            StorageError::Invalid(msg) => {
                StorageError::Invalid(format!("append batch conflicts with existing data: {msg}"))
            }
            e => e,
        })?;
    if full_rewrite {
        let image = to_bytes_versioned(&delta, version);
        drop(file);
        replace_file(path, &image)?;
        return Ok(AppendStats {
            rows_appended: batch.num_rows(),
            chunks_before,
            chunks_after: delta.chunks().len(),
            chunks_rewritten: chunks_before,
            bytes_appended: image.len() as u64,
            dead_bytes: 0,
            file_bytes: image.len() as u64,
        });
    }
    let current_epoch = epochs.len() as u32;

    // Assemble the new footer: surviving old chunks (offsets untouched,
    // action gids re-based onto the merged dictionary) followed by the delta
    // chunks at the tail.
    let surviving: Vec<usize> = (0..chunks_before).filter(|&ci| !affected[ci]).collect();
    let action_remap = step[schema.action_idx()].as_ref();
    let mut all_layouts: Vec<ChunkLayout> =
        Vec::with_capacity(surviving.len() + delta.chunks().len());
    let mut all_entries: Vec<ChunkIndexEntry> = Vec::with_capacity(all_layouts.capacity());
    let mut chunk_epochs: Vec<u32> = Vec::with_capacity(all_layouts.capacity());
    for &ci in &surviving {
        let mut entry = footer.entries[ci].clone();
        if let Some(remap) = action_remap {
            for gid in &mut entry.action_gids {
                *gid = *remap.get(*gid as usize).ok_or_else(|| {
                    StorageError::Corrupt(format!(
                        "chunk {ci}: action gid {gid} outside the old dictionary"
                    ))
                })?;
            }
        }
        all_layouts.push(layouts[ci].clone());
        all_entries.push(entry);
        chunk_epochs.push(old_epoch_of(ci));
    }
    let mut tail_buf = BytesMut::new();
    let new_layouts = write_blobs(&mut tail_buf, delta.chunks(), &schema, total, version);
    for (layout, entry) in new_layouts.into_iter().zip(delta.index_entries()) {
        all_layouts.push(layout);
        all_entries.push(entry.clone());
        chunk_epochs.push(current_epoch);
    }
    let num_rows: u64 = all_entries.iter().map(|e| e.num_rows).sum();

    let footer_start = total + tail_buf.len() as u64;
    write_footer(
        &mut tail_buf,
        version,
        footer.meta.options().chunk_size,
        &schema,
        merged.metas(),
        num_rows,
        &all_layouts,
        &all_entries,
        &epochs,
        if epochs.is_empty() { &[] } else { &chunk_epochs },
    );
    let footer_len = total + tail_buf.len() as u64 - footer_start;
    tail_buf.put_u64_le(footer_len);
    tail_buf.put_u32_le(MAGIC);

    // One contiguous write at the old EOF: the old footer (still describing
    // exactly the old bytes) is left in place as dead bytes, so a reader
    // that opened the file before this append keeps a consistent snapshot.
    file.seek(SeekFrom::Start(total))?;
    file.write_all(&tail_buf)?;

    let file_bytes = total + tail_buf.len() as u64;
    let live_payload: u64 = all_layouts.iter().map(ChunkLayout::payload_len).sum();
    Ok(AppendStats {
        rows_appended: batch.num_rows(),
        chunks_before,
        chunks_after: all_layouts.len(),
        chunks_rewritten: chunks_before - surviving.len(),
        bytes_appended: tail_buf.len() as u64,
        dead_bytes: file_bytes - HEADER_LEN - live_payload - footer_len - TAIL_LEN,
        file_bytes,
    })
}

/// Space accounting of one on-disk table file, readable from the footer
/// alone — O(footer), no chunk payload is touched. This is what a
/// maintenance policy polls to decide whether a file has accumulated enough
/// superseded bytes (rewritten chunks, earlier footers) to be worth
/// compacting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FileSpaceStats {
    /// Total size of the file on disk.
    pub file_bytes: u64,
    /// Unreferenced payload bytes: superseded chunk versions and earlier
    /// footers left behind by [`append`], reclaimable by [`compact`].
    pub dead_bytes: u64,
    /// Live rows the current footer describes.
    pub rows: u64,
    /// Chunks the current footer describes.
    pub chunks: usize,
}

impl FileSpaceStats {
    /// Fraction of the file that is dead bytes (0.0 for a freshly built or
    /// freshly compacted file).
    pub fn dead_ratio(&self) -> f64 {
        self.dead_bytes as f64 / self.file_bytes.max(1) as f64
    }
}

/// Read the space accounting of a v3/v4 file: total size plus the dead
/// bytes its current footer no longer references. Costs one footer parse.
pub fn file_space_stats(path: &Path) -> Result<FileSpaceStats> {
    let footer = read_footer_from_file(&File::open(path)?)?;
    Ok(FileSpaceStats {
        file_bytes: footer.file_len,
        dead_bytes: footer.dead_bytes(),
        rows: footer.entries.iter().map(|e| e.num_rows).sum(),
        chunks: footer.layouts.len(),
    })
}

/// Rewrite a v3/v4 file compactly: decode every chunk (through any
/// dictionary epochs), merge them back into the paper's §3 `(user, time,
/// action)` primary order in global-id space, re-chunk at the configured
/// target size, shrink the dictionaries to the values still used, and
/// atomically replace the file (write to a sibling temp file, then rename).
/// This merges the under-filled chunks appends leave behind, restores the
/// §4.2 pruning quality of time-clustered chunks, drops every dead byte, and
/// resets the epoch history. The rewrite always emits the current
/// [`VERSION`], so compacting a v3 file doubles as the v3 → v4 migration
/// path.
pub fn compact(path: &Path) -> Result<CompactStats> {
    let data = std::fs::read(path)?;
    let bytes_before = data.len() as u64;
    let table = from_bytes(&data)?;
    drop(data);
    let rebuilt = table.compacted()?;
    let bytes = to_bytes(&rebuilt);
    replace_file(path, &bytes)?;

    Ok(CompactStats {
        bytes_before,
        bytes_after: bytes.len() as u64,
        reclaimed_bytes: bytes_before.saturating_sub(bytes.len() as u64),
        chunks_before: table.chunks().len(),
        chunks_after: rebuilt.chunks().len(),
        rows: rebuilt.num_rows(),
    })
}

// --------------------------------------------------------------- inspect

/// Aggregate statistics for one codec across every blob of a file.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CodecStats {
    /// Number of blobs (RLE + column) encoded with this codec.
    pub blobs: usize,
    /// Total on-disk bytes of those blobs.
    pub compressed_bytes: u64,
    /// Total bytes those blobs decode (serialize raw) to.
    pub uncompressed_bytes: u64,
    /// Wall time [`inspect`] spent decoding those blobs, in nanoseconds.
    pub decode_nanos: u64,
}

impl CodecStats {
    /// Decode throughput in MB/s of *decoded* output (0.0 before any
    /// blob has been timed). "MB" here is 10^6 bytes, matching the bench
    /// reports.
    pub fn decode_mbps(&self) -> f64 {
        if self.decode_nanos == 0 {
            0.0
        } else {
            self.uncompressed_bytes as f64 * 1000.0 / self.decode_nanos as f64
        }
    }
}

/// Per-attribute compression summary. The user attribute's row covers the
/// RLE user blob, which is always raw.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnCompression {
    /// Attribute name from the schema.
    pub name: String,
    /// Total on-disk bytes across all chunks.
    pub compressed_bytes: u64,
    /// Total decoded (raw v3-serialized) bytes across all chunks.
    pub uncompressed_bytes: u64,
}

impl ColumnCompression {
    /// Uncompressed-to-compressed size ratio (1.0 for raw columns).
    pub fn ratio(&self) -> f64 {
        self.uncompressed_bytes as f64 / self.compressed_bytes.max(1) as f64
    }
}

/// What [`inspect`] reports about a column-addressable (v3/v4) file.
#[derive(Debug, Clone)]
pub struct FormatInfo {
    /// On-disk format version (3 or 4).
    pub version: u32,
    /// Total rows across all chunks.
    pub num_rows: usize,
    /// Number of chunks.
    pub num_chunks: usize,
    /// One entry per schema attribute, in schema order.
    pub columns: Vec<ColumnCompression>,
    /// Aggregates indexed by codec tag: raw, delta, ans.
    pub codecs: [CodecStats; 3],
}

impl FormatInfo {
    /// Total live on-disk payload bytes (header, footer and any dead bytes
    /// excluded).
    pub fn compressed_bytes(&self) -> u64 {
        self.columns.iter().map(|c| c.compressed_bytes).sum()
    }

    /// Total decoded payload bytes.
    pub fn uncompressed_bytes(&self) -> u64 {
        self.columns.iter().map(|c| c.uncompressed_bytes).sum()
    }

    /// Whole-payload uncompressed-to-compressed ratio.
    pub fn ratio(&self) -> f64 {
        self.uncompressed_bytes() as f64 / self.compressed_bytes().max(1) as f64
    }
}

/// Walk every live blob of a v3/v4 file, decode each through the same
/// blob decoders the lazy scan path uses, and report per-column and
/// per-codec size and decode-time aggregates — so the per-codec times are
/// what queries pay. This is the measurement backbone of the `lazy-io`
/// bench experiment and doubles as a whole-file decode validation pass.
pub fn inspect(path: &Path) -> Result<FormatInfo> {
    let data = std::fs::read(path)?;
    let footer = parse_footer_region(&data)?;
    let schema = footer.meta.schema();
    let user_idx = schema.user_idx();
    let mut columns: Vec<ColumnCompression> = (0..schema.arity())
        .map(|i| ColumnCompression {
            name: schema.attribute(i).name.clone(),
            compressed_bytes: 0,
            uncompressed_bytes: 0,
        })
        .collect();
    let mut codecs = [CodecStats::default(); 3];
    let mut record = |columns: &mut Vec<ColumnCompression>, idx: usize, loc: &BlobLoc, ns: u64| {
        columns[idx].compressed_bytes += loc.len;
        columns[idx].uncompressed_bytes += loc.uncompressed;
        let c = &mut codecs[loc.codec.tag() as usize];
        c.blobs += 1;
        c.compressed_bytes += loc.len;
        c.uncompressed_bytes += loc.uncompressed;
        c.decode_nanos += ns;
    };
    for (ci, (layout, entry)) in footer.layouts.iter().zip(&footer.entries).enumerate() {
        let loc = &layout.rle;
        let start = std::time::Instant::now();
        decode_rle_blob(blob_bytes(&data, loc))?;
        record(&mut columns, user_idx, loc, start.elapsed().as_nanos() as u64);
        for (idx, loc) in layout.cols.iter().enumerate() {
            if idx == user_idx {
                continue;
            }
            let start = std::time::Instant::now();
            let col = decode_column_blob_loc(blob_bytes(&data, loc), loc)?;
            record(&mut columns, idx, loc, start.elapsed().as_nanos() as u64);
            if col.len() as u64 != entry.num_rows {
                return Err(StorageError::Corrupt(format!(
                    "chunk {ci}: column {idx} has {} rows, footer claims {}",
                    col.len(),
                    entry.num_rows
                )));
            }
        }
    }
    Ok(FormatInfo {
        version: footer.version,
        num_rows: footer.meta.num_rows(),
        num_chunks: footer.layouts.len(),
        columns,
        codecs,
    })
}

// ------------------------------------------------------------------ footer

/// The byte location of one blob plus how it is encoded: where it lives,
/// how many bytes it occupies on disk, the codec its packed-array section
/// was written with, and the exact length the blob serializes to once
/// decoded back to raw v3 form. For v3 files `codec` is always
/// [`Codec::Raw`] and `uncompressed == len`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct BlobLoc {
    pub(crate) offset: u64,
    pub(crate) len: u64,
    pub(crate) codec: Codec,
    pub(crate) uncompressed: u64,
}

impl BlobLoc {
    /// A raw (uncompressed) blob: on-disk bytes are the decoded bytes.
    pub(crate) fn raw(offset: u64, len: u64) -> Self {
        BlobLoc { offset, len, codec: Codec::Raw, uncompressed: len }
    }

    /// The all-zero placeholder used at the user attribute's column slot
    /// (the user column lives in the RLE blob instead).
    pub(crate) fn absent() -> Self {
        BlobLoc { offset: 0, len: 0, codec: Codec::Raw, uncompressed: 0 }
    }
}

/// Byte locations of one v3/v4 chunk's blobs: the RLE user column plus one
/// entry per attribute ([`BlobLoc::absent`] at the user attribute's
/// position).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ChunkLayout {
    /// Location of the RLE blob (always raw).
    pub(crate) rle: BlobLoc,
    /// Location of each attribute's column blob.
    pub(crate) cols: Vec<BlobLoc>,
}

impl ChunkLayout {
    /// Payload bytes of the chunk: its RLE blob plus every column blob
    /// (they tile one contiguous span).
    pub(crate) fn payload_len(&self) -> u64 {
        self.rle.len + self.cols.iter().map(|loc| loc.len).sum::<u64>()
    }
}

/// One dictionary epoch's gid remaps: for every attribute, either `None`
/// (integer attribute, or a dictionary unchanged since that epoch) or the
/// strictly increasing map from the epoch's global ids into the file's
/// current (merged) dictionary. Chunks encoded under an older epoch are
/// re-based through their epoch's remap at decode time, which is what lets
/// [`append`] grow a dictionary **without rewriting any existing blob** while
/// keeping the current dictionary sorted (so `rank`-based ordering
/// predicates stay valid).
pub(crate) type EpochRemaps = Vec<Option<Arc<Vec<u32>>>>;

/// Parsed footer: the file's version and length, table metadata, and per
/// chunk the index entry and blob layout.
pub(crate) struct Footer {
    /// Format version from the header (3 or 4).
    pub(crate) version: u32,
    /// Total file length the footer was read from.
    pub(crate) file_len: u64,
    pub(crate) meta: TableMeta,
    pub(crate) entries: Vec<ChunkIndexEntry>,
    /// The per-blob layout of every chunk. Appended files may have
    /// dead-byte gaps *between* chunks (superseded chunk versions and
    /// earlier footers), never inside one.
    pub(crate) layouts: Vec<ChunkLayout>,
    /// Non-current dictionary epochs, oldest first (empty for files never
    /// appended to, or fully rewritten by [`compact`]).
    pub(crate) epochs: Vec<EpochRemaps>,
    /// Per chunk, the dictionary epoch its blobs were encoded under
    /// (`epochs.len()` = the current dictionary, needing no remap). An empty
    /// vector means every chunk is current.
    pub(crate) chunk_epochs: Vec<u32>,
    /// File offset where the footer begins — the exclusive upper bound of
    /// every payload blob.
    pub(crate) payload_end: u64,
}

impl Footer {
    /// The gid remap a given chunk needs for a given attribute (`None`:
    /// already in current-dictionary terms).
    pub(crate) fn remap_for(&self, chunk: usize, attr: usize) -> Option<&Arc<Vec<u32>>> {
        let epoch = self.chunk_epochs.get(chunk).copied().unwrap_or(self.epochs.len() as u32);
        self.epochs.get(epoch as usize).and_then(|per_attr| per_attr[attr].as_ref())
    }

    /// Dead (unreferenced) payload bytes: everything in the file that is
    /// neither header, live blob, current footer nor tail.
    pub(crate) fn dead_bytes(&self) -> u64 {
        let live: u64 = self.layouts.iter().map(ChunkLayout::payload_len).sum();
        self.payload_end - HEADER_LEN - live
    }
}

/// Check the header of a whole in-memory image, then parse its footer.
fn parse_footer_region(data: &[u8]) -> Result<Footer> {
    let version = check_header(data)?;
    let total = data.len() as u64;
    if total < HEADER_LEN + TAIL_LEN {
        return Err(StorageError::Corrupt("file too short for header + tail".into()));
    }
    let footer_start = parse_tail(&data[(total - TAIL_LEN) as usize..], total)?;
    let footer_bytes = &data[footer_start as usize..(total - TAIL_LEN) as usize];
    read_footer(footer_bytes, footer_start, version, total)
}

/// Validate the `TAIL_LEN`-byte tail of a `total`-byte file and return the
/// offset where its footer starts. A footer length pointing outside the
/// file — the signature of a truncated or mis-appended image — is reported
/// with the offsets, so the operator can see where the file ends versus
/// where the footer claims to live.
fn parse_tail(mut tail: &[u8], total: u64) -> Result<u64> {
    let footer_len = get_u64(&mut tail)?;
    let tail_magic = get_u32(&mut tail)?;
    if tail_magic != MAGIC {
        return Err(StorageError::Corrupt(format!("bad tail magic {tail_magic:#x}")));
    }
    if footer_len > total - HEADER_LEN - TAIL_LEN {
        let claimed_start = total as i128 - TAIL_LEN as i128 - footer_len as i128;
        return Err(StorageError::Corrupt(format!(
            "footer of length {footer_len} would start at offset {claimed_start}, outside the \
             valid payload region [{HEADER_LEN}, {}) of this {total}-byte file (truncated or \
             corrupt tail)",
            total - TAIL_LEN,
        )));
    }
    Ok(total - TAIL_LEN - footer_len)
}

/// Parse the footer bytes of a v3/v4 image; `footer_start` is the file
/// offset where the footer begins (== the end of the payload region), used
/// to validate blob locations, and `file_len` the file's total length.
fn read_footer(mut buf: &[u8], footer_start: u64, version: u32, file_len: u64) -> Result<Footer> {
    let chunk_size = get_u64(&mut buf)? as usize;
    // The writer never produces 0 (CompressedTable::build rejects it), so a
    // zero here is corruption, not a value to repair.
    if chunk_size == 0 {
        return Err(StorageError::Corrupt("footer chunk_size is zero".into()));
    }
    let schema = read_schema(&mut buf)?;
    let mut metas = Vec::with_capacity(schema.arity());
    for _ in 0..schema.arity() {
        metas.push(read_meta(&mut buf)?);
    }
    let num_rows = get_u64(&mut buf)? as usize;
    let num_chunks = get_u32(&mut buf)? as usize;
    let arity = schema.arity();
    // Guard the chunk count before allocating: every entry needs at least
    // its fixed-size fields.
    // rle record + per-attr records + counts/bounds + n_actions + 1-byte
    // stats tags. v4 blob records additionally carry a codec tag and an
    // uncompressed length (9 bytes per blob).
    let record_len = if version >= 4 { 25 } else { 16 };
    let min_entry = record_len * (1 + arity) + 32 + 4 + arity;
    if num_chunks > buf.remaining() / min_entry {
        return Err(StorageError::Corrupt(format!("chunk count {num_chunks} overruns footer")));
    }
    let mut entries = Vec::with_capacity(num_chunks);
    let mut layouts = Vec::with_capacity(num_chunks);
    let mut expected_offset = HEADER_LEN;
    for ci in 0..num_chunks {
        // Blob locations must be monotone, non-overlapping, and inside
        // [HEADER_LEN, footer_start). A chunk's first blob may start past
        // the previous chunk's end — appended files carry dead bytes there
        // (superseded footers and rewritten chunks) — but within one chunk
        // the blobs tile exactly. Lengths are compared by subtraction
        // (`offset < footer_start` is checked first), so a crafted length
        // near u64::MAX cannot wrap the bound check.
        let mut take_blob = |buf: &mut &[u8], what: &str, gap_ok: bool| -> Result<BlobLoc> {
            let offset = get_u64(buf)?;
            let len = get_u64(buf)?;
            let misplaced =
                if gap_ok { offset < expected_offset } else { offset != expected_offset };
            if misplaced || len == 0 || offset >= footer_start || len > footer_start - offset {
                return Err(StorageError::Corrupt(format!(
                    "chunk {ci}: {what} location ({offset}, {len}) does not tile the payload \
                     region"
                )));
            }
            expected_offset = offset + len;
            if version < 4 {
                return Ok(BlobLoc::raw(offset, len));
            }
            let tag = get_u8(buf)?;
            let uncompressed = get_u64(buf)?;
            let codec = Codec::from_tag(tag).ok_or_else(|| {
                StorageError::Corrupt(format!("chunk {ci}: {what} has unknown codec tag {tag}"))
            })?;
            // The write-time selector only picks a non-raw codec when it is
            // *strictly* smaller than raw, and the decoded size of any blob
            // is bounded by its row count (plus small per-blob headers), so
            // both inequalities are hard invariants, not heuristics. The
            // row-count bound caps what a crafted footer can make the
            // decoder allocate.
            let valid = match codec {
                Codec::Raw => uncompressed == len,
                _ => uncompressed > len && uncompressed <= 64 + 16 * num_rows as u64,
            };
            if !valid {
                return Err(StorageError::Corrupt(format!(
                    "chunk {ci}: {what} uncompressed length {uncompressed} is inconsistent \
                     with its {len}-byte {} blob",
                    codec.name(),
                )));
            }
            Ok(BlobLoc { offset, len, codec, uncompressed })
        };
        let rle = take_blob(&mut buf, "rle", true)?;
        if rle.codec != Codec::Raw {
            return Err(StorageError::Corrupt(format!(
                "chunk {ci}: rle blob must be raw, found codec {}",
                rle.codec.name(),
            )));
        }
        let mut cols = vec![BlobLoc::absent(); arity];
        for (idx, slot) in cols.iter_mut().enumerate() {
            if idx == schema.user_idx() {
                let offset = get_u64(&mut buf)?;
                let len = get_u64(&mut buf)?;
                let mut zero = (offset, len) == (0, 0);
                if version >= 4 {
                    zero &= get_u8(&mut buf)? == 0 && get_u64(&mut buf)? == 0;
                }
                if !zero {
                    return Err(StorageError::Corrupt(format!(
                        "chunk {ci}: user column has a blob location"
                    )));
                }
            } else {
                *slot = take_blob(&mut buf, "column", false)?;
            }
        }
        let num_rows = get_u64(&mut buf)?;
        let num_users = get_u64(&mut buf)?;
        let time_min = get_i64(&mut buf)?;
        let time_max = get_i64(&mut buf)?;
        let n_actions = get_u32(&mut buf)? as usize;
        if n_actions > buf.remaining() / 4 {
            return Err(StorageError::Corrupt(format!(
                "chunk {ci}: action dictionary count {n_actions} overruns footer"
            )));
        }
        let mut action_gids = Vec::with_capacity(n_actions);
        for _ in 0..n_actions {
            action_gids.push(get_u32(&mut buf)?);
        }
        if !action_gids.windows(2).all(|w| w[0] < w[1]) {
            return Err(StorageError::Corrupt(format!("chunk {ci}: action gids not sorted")));
        }
        let mut column_stats = Vec::with_capacity(arity);
        for (idx, meta) in metas.iter().enumerate() {
            let s = read_column_stats(&mut buf)?;
            // Stats kinds must agree with the attribute metadata.
            let agrees = matches!(
                (&s, meta),
                (ColumnStats::User, ColumnMeta::User { .. })
                    | (ColumnStats::Str { .. }, ColumnMeta::Str { .. })
                    | (ColumnStats::Int { .. }, ColumnMeta::Int { .. })
            );
            if !agrees {
                return Err(StorageError::Corrupt(format!(
                    "chunk {ci}: column {idx} stats kind disagrees with metadata"
                )));
            }
            column_stats.push(s);
        }
        entries.push(ChunkIndexEntry {
            num_rows,
            num_users,
            time_min,
            time_max,
            action_gids,
            column_stats,
        });
        layouts.push(ChunkLayout { rle, cols });
    }
    // Optional dictionary-epoch extension, present only in files that have
    // been appended to: per-chunk epoch tags, then one gid remap per
    // dictionary attribute for every non-current epoch.
    let mut epochs: Vec<EpochRemaps> = Vec::new();
    let mut chunk_epochs: Vec<u32> = Vec::new();
    if buf.has_remaining() {
        let epoch_count = get_u32(&mut buf)? as usize;
        // Every epoch needs at least one tag byte per attribute, every chunk
        // a 4-byte tag; guard before allocating.
        if epoch_count == 0 || epoch_count > buf.remaining() / arity.max(1) {
            return Err(StorageError::Corrupt(format!(
                "epoch count {epoch_count} is invalid for this footer"
            )));
        }
        if num_chunks > buf.remaining() / 4 {
            return Err(StorageError::Corrupt("chunk epoch tags overrun footer".into()));
        }
        for ci in 0..num_chunks {
            let epoch = get_u32(&mut buf)?;
            if epoch as usize > epoch_count {
                return Err(StorageError::Corrupt(format!(
                    "chunk {ci}: epoch {epoch} exceeds epoch count {epoch_count}"
                )));
            }
            chunk_epochs.push(epoch);
        }
        for e in 0..epoch_count {
            let mut per_attr: EpochRemaps = Vec::with_capacity(arity);
            for (idx, meta) in metas.iter().enumerate() {
                match get_u8(&mut buf)? {
                    0 => per_attr.push(None),
                    1 => {
                        let dict_len = match meta {
                            ColumnMeta::User { dict } | ColumnMeta::Str { dict } => dict.len(),
                            ColumnMeta::Int { .. } => {
                                return Err(StorageError::Corrupt(format!(
                                    "epoch {e}: remap addressed to integer attribute {idx}"
                                )))
                            }
                        };
                        let n = get_u32(&mut buf)? as usize;
                        if n > buf.remaining() / 4 {
                            return Err(StorageError::Corrupt(format!(
                                "epoch {e}: remap length {n} overruns footer"
                            )));
                        }
                        let mut remap = Vec::with_capacity(n);
                        for _ in 0..n {
                            remap.push(get_u32(&mut buf)?);
                        }
                        let sorted = remap.windows(2).all(|w| w[0] < w[1]);
                        let in_range = remap.last().is_none_or(|&g| (g as usize) < dict_len);
                        if !sorted || !in_range {
                            return Err(StorageError::Corrupt(format!(
                                "epoch {e}: remap of attribute {idx} is not a sorted injection \
                                 into the current dictionary"
                            )));
                        }
                        per_attr.push(Some(Arc::new(remap)));
                    }
                    t => {
                        return Err(StorageError::Corrupt(format!("bad epoch remap tag {t}")));
                    }
                }
            }
            epochs.push(per_attr);
        }
    }
    if buf.has_remaining() {
        return Err(StorageError::Corrupt(format!("{} trailing footer bytes", buf.remaining())));
    }
    let total_rows: u64 = entries.iter().map(|e| e.num_rows).sum();
    if total_rows != num_rows as u64 {
        return Err(StorageError::Corrupt(format!(
            "index entries cover {total_rows} rows, footer claims {num_rows}"
        )));
    }
    let meta =
        TableMeta::new(schema, metas, num_rows, CompressionOptions::with_chunk_size(chunk_size))?;
    Ok(Footer {
        version,
        file_len,
        meta,
        entries,
        layouts,
        epochs,
        chunk_epochs,
        payload_end: footer_start,
    })
}

/// Open a v3/v4 file for lazy access: check the header, then read and
/// parse only the footer.
pub(crate) fn read_footer_from_file(file: &File) -> Result<Footer> {
    let total = file.metadata()?.len();
    let version = check_header(&read_exact_at(file, 0, HEADER_LEN.min(total))?)?;
    if total < HEADER_LEN + TAIL_LEN {
        return Err(StorageError::Corrupt("file too short for header + tail".into()));
    }
    let footer_start = parse_tail(&read_exact_at(file, total - TAIL_LEN, TAIL_LEN)?, total)?;
    let footer_bytes = read_exact_at(file, footer_start, total - TAIL_LEN - footer_start)?;
    read_footer(&footer_bytes, footer_start, version, total)
}

/// Decode one self-contained RLE blob (as located by a v3 footer).
pub(crate) fn decode_rle_blob(blob: &[u8]) -> Result<UserRle> {
    let mut buf = blob;
    let users = read_packed(&mut buf)?;
    let firsts = read_packed(&mut buf)?;
    let counts = read_packed(&mut buf)?;
    let rle = UserRle::from_parts(users, firsts, counts)?;
    if buf.has_remaining() {
        return Err(StorageError::Corrupt(format!(
            "{} trailing bytes after rle payload",
            buf.remaining()
        )));
    }
    Ok(rle)
}

/// Decode one column blob through its footer record: the raw header (tag
/// byte, chunk dictionary gids or int min/max) is parsed once, then the
/// packed-array section is read as-is for raw blobs or handed to
/// [`codec::decode_array`] for codec-compressed ones, with the exact raw
/// section length implied by `loc.uncompressed` — which the codecs verify
/// against their own embedded width/length *before* allocating, and which
/// pins the decoded blob's v3 serialization to exactly `uncompressed`
/// bytes.
pub(crate) fn decode_column_blob_loc(blob: &[u8], loc: &BlobLoc) -> Result<ChunkColumn> {
    let mut buf = blob;
    let col = match get_u8(&mut buf)? {
        1 => {
            let n = get_u32(&mut buf)? as usize;
            if n > buf.remaining() / 4 {
                return Err(StorageError::Corrupt(format!(
                    "chunk dictionary count {n} overruns input"
                )));
            }
            let mut gids = Vec::with_capacity(n);
            for _ in 0..n {
                gids.push(get_u32(&mut buf)?);
            }
            let dict = ChunkDict::from_sorted(gids)?;
            let codes = decode_section(buf, loc, 5 + 4 * dict.len() as u64)?;
            ChunkColumn::Str { dict, codes }
        }
        2 => {
            let min = get_i64(&mut buf)?;
            let max = get_i64(&mut buf)?;
            let deltas = decode_section(buf, loc, 17)?;
            ChunkColumn::Int { min, max, deltas }
        }
        t => return Err(StorageError::Corrupt(format!("bad column tag {t}"))),
    };
    Ok(col)
}

/// Decode the packed-array section that follows a column blob's
/// `header_len`-byte raw header.
fn decode_section(mut buf: &[u8], loc: &BlobLoc, header_len: u64) -> Result<BitPacked> {
    if loc.codec != Codec::Raw {
        return codec::decode_array(loc.codec, buf, section_len(loc, header_len)?);
    }
    let packed = read_packed(&mut buf)?;
    if buf.has_remaining() {
        return Err(StorageError::Corrupt(format!(
            "{} trailing bytes after column payload",
            buf.remaining()
        )));
    }
    Ok(packed)
}

/// The raw packed-section length a blob's footer record implies once its
/// `header_len`-byte raw header is accounted for.
fn section_len(loc: &BlobLoc, header_len: u64) -> Result<u64> {
    loc.uncompressed.checked_sub(header_len).ok_or_else(|| {
        StorageError::Corrupt(format!(
            "blob uncompressed length {} is shorter than its {header_len}-byte header",
            loc.uncompressed
        ))
    })
}

// ---------------------------------------------------------------- helpers

fn get_u8(buf: &mut &[u8]) -> Result<u8> {
    if buf.remaining() < 1 {
        return Err(StorageError::Corrupt("unexpected end of input".into()));
    }
    Ok(buf.get_u8())
}

fn get_u32(buf: &mut &[u8]) -> Result<u32> {
    if buf.remaining() < 4 {
        return Err(StorageError::Corrupt("unexpected end of input".into()));
    }
    Ok(buf.get_u32_le())
}

fn get_u64(buf: &mut &[u8]) -> Result<u64> {
    if buf.remaining() < 8 {
        return Err(StorageError::Corrupt("unexpected end of input".into()));
    }
    Ok(buf.get_u64_le())
}

fn get_i64(buf: &mut &[u8]) -> Result<i64> {
    Ok(get_u64(buf)? as i64)
}

fn write_str(buf: &mut BytesMut, s: &str) {
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

fn read_str(buf: &mut &[u8]) -> Result<String> {
    let len = get_u32(buf)? as usize;
    if buf.remaining() < len {
        return Err(StorageError::Corrupt("string overruns input".into()));
    }
    let s = std::str::from_utf8(&buf[..len])
        .map_err(|_| StorageError::Corrupt("invalid utf-8".into()))?
        .to_string();
    buf.advance(len);
    Ok(s)
}

fn write_schema(buf: &mut BytesMut, schema: &Schema) {
    buf.put_u16_le(schema.arity() as u16);
    for attr in schema.attributes() {
        write_str(buf, &attr.name);
        buf.put_u8(match attr.vtype {
            ValueType::Str => 0,
            ValueType::Int => 1,
        });
        buf.put_u8(match attr.role {
            AttributeRole::User => 0,
            AttributeRole::Time => 1,
            AttributeRole::Action => 2,
            AttributeRole::Dimension => 3,
            AttributeRole::Measure => 4,
        });
    }
}

fn read_schema(buf: &mut &[u8]) -> Result<Schema> {
    if buf.remaining() < 2 {
        return Err(StorageError::Corrupt("unexpected end of input".into()));
    }
    let arity = buf.get_u16_le() as usize;
    let mut attrs = Vec::with_capacity(arity);
    for _ in 0..arity {
        let name = read_str(buf)?;
        let vtype = match get_u8(buf)? {
            0 => ValueType::Str,
            1 => ValueType::Int,
            t => return Err(StorageError::Corrupt(format!("bad value type {t}"))),
        };
        let role = match get_u8(buf)? {
            0 => AttributeRole::User,
            1 => AttributeRole::Time,
            2 => AttributeRole::Action,
            3 => AttributeRole::Dimension,
            4 => AttributeRole::Measure,
            r => return Err(StorageError::Corrupt(format!("bad role {r}"))),
        };
        attrs.push(Attribute::new(name, vtype, role));
    }
    Schema::new(attrs).map_err(|e| StorageError::Corrupt(e.to_string()))
}

fn write_dict(buf: &mut BytesMut, dict: &GlobalDict) {
    buf.put_u32_le(dict.len() as u32);
    for v in dict.values() {
        write_str(buf, v);
    }
}

fn read_dict(buf: &mut &[u8]) -> Result<GlobalDict> {
    let n = get_u32(buf)? as usize;
    // Each value consumes at least its 4-byte length prefix; a larger count
    // is corruption, and guarding here prevents huge pre-allocations.
    if n > buf.remaining() / 4 {
        return Err(StorageError::Corrupt(format!("dictionary count {n} overruns input")));
    }
    let mut values: Vec<Arc<str>> = Vec::with_capacity(n);
    for _ in 0..n {
        values.push(Arc::from(read_str(buf)?));
    }
    GlobalDict::from_sorted(values)
}

fn write_meta(buf: &mut BytesMut, meta: &ColumnMeta) {
    match meta {
        ColumnMeta::User { dict } => {
            buf.put_u8(0);
            write_dict(buf, dict);
        }
        ColumnMeta::Str { dict } => {
            buf.put_u8(1);
            write_dict(buf, dict);
        }
        ColumnMeta::Int { min, max } => {
            buf.put_u8(2);
            buf.put_u64_le(*min as u64);
            buf.put_u64_le(*max as u64);
        }
    }
}

fn read_meta(buf: &mut &[u8]) -> Result<ColumnMeta> {
    match get_u8(buf)? {
        0 => Ok(ColumnMeta::User { dict: read_dict(buf)? }),
        1 => Ok(ColumnMeta::Str { dict: read_dict(buf)? }),
        2 => {
            let min = get_i64(buf)?;
            let max = get_i64(buf)?;
            Ok(ColumnMeta::Int { min, max })
        }
        t => Err(StorageError::Corrupt(format!("bad meta tag {t}"))),
    }
}

fn write_column_stats(buf: &mut BytesMut, stats: &ColumnStats) {
    match stats {
        ColumnStats::User => buf.put_u8(0),
        ColumnStats::Str { distinct } => {
            buf.put_u8(1);
            buf.put_u32_le(*distinct);
        }
        ColumnStats::Int { min, max } => {
            buf.put_u8(2);
            buf.put_u64_le(*min as u64);
            buf.put_u64_le(*max as u64);
        }
    }
}

fn read_column_stats(buf: &mut &[u8]) -> Result<ColumnStats> {
    match get_u8(buf)? {
        0 => Ok(ColumnStats::User),
        1 => Ok(ColumnStats::Str { distinct: get_u32(buf)? }),
        2 => {
            let min = get_i64(buf)?;
            let max = get_i64(buf)?;
            if min > max {
                return Err(StorageError::Corrupt(format!("column stats min {min} > max {max}")));
            }
            Ok(ColumnStats::Int { min, max })
        }
        t => Err(StorageError::Corrupt(format!("bad column stats tag {t}"))),
    }
}

fn write_packed(buf: &mut BytesMut, packed: &BitPacked) {
    buf.put_u8(packed.width());
    buf.put_u64_le(packed.len() as u64);
    for w in packed.words() {
        buf.put_u64_le(*w);
    }
}

fn read_packed(buf: &mut &[u8]) -> Result<BitPacked> {
    let width = get_u8(buf)?;
    if width > 64 {
        return Err(StorageError::Corrupt(format!("bad bit width {width}")));
    }
    let len = get_u64(buf)? as usize;
    // Guard against corrupt lengths before allocating: at `width > 0`, the
    // packed words must actually be present in the input.
    let num_words = if width == 0 { 0 } else { len.div_ceil((64 / width as usize).max(1)) };
    if num_words > buf.remaining() / 8 {
        return Err(StorageError::Corrupt("bitpack words overrun input".into()));
    }
    let mut words = Vec::with_capacity(num_words);
    for _ in 0..num_words {
        words.push(buf.get_u64_le());
    }
    BitPacked::from_raw(width, len, words)
}

/// The RLE user column as a self-contained blob.
fn write_rle_blob(buf: &mut BytesMut, rle: &UserRle) {
    let (users, firsts, counts) = rle.parts();
    write_packed(buf, users);
    write_packed(buf, firsts);
    write_packed(buf, counts);
}

/// One column segment, tagged (1 = string, 2 = integer): the tag +
/// dictionary / min-max header stays raw (it is a few bytes and the footer
/// parser needs nothing from it), then the bit-packed array is written raw
/// at v3, or at v4 with whichever codec [`codec::encode_array`] picked.
/// Returns the codec and the exact length the blob serializes to raw (the
/// v3 length), which the footer records as `uncompressed`. A blob whose
/// section stays [`Codec::Raw`] is byte-identical to its v3 form.
fn write_column_blob(buf: &mut BytesMut, col: &ChunkColumn, version: u32) -> (Codec, u64) {
    let (packed, header_len) = match col {
        ChunkColumn::Str { dict, codes } => {
            buf.put_u8(1);
            buf.put_u32_le(dict.len() as u32);
            for gid in dict.global_ids() {
                buf.put_u32_le(*gid);
            }
            (codes, 5 + 4 * dict.len() as u64)
        }
        ChunkColumn::Int { min, max, deltas } => {
            buf.put_u8(2);
            buf.put_u64_le(*min as u64);
            buf.put_u64_le(*max as u64);
            (deltas, 17u64)
        }
    };
    let uncompressed = header_len + codec::raw_section_len(packed.width(), packed.len() as u64);
    if version < 4 {
        write_packed(buf, packed);
        return (Codec::Raw, uncompressed);
    }
    let (chosen, section) = codec::encode_array(packed);
    buf.put_slice(&section);
    (chosen, uncompressed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cohana_activity::{generate, GeneratorConfig};

    fn compressed() -> CompressedTable {
        let t = generate(&GeneratorConfig::small());
        CompressedTable::build(&t, CompressionOptions::with_chunk_size(256)).unwrap()
    }

    /// A dataset large enough that per-chunk codec selection actually picks
    /// non-raw codecs (the tiny 256-row chunks of [`compressed`] amortize no
    /// frequency table).
    fn compressed_large() -> CompressedTable {
        let t = generate(&GeneratorConfig::new(200));
        CompressedTable::build(&t, CompressionOptions::with_chunk_size(16 * 1024)).unwrap()
    }

    #[test]
    fn roundtrip_bytes_v4() {
        let c = compressed();
        let bytes = to_bytes(&c);
        let back = from_bytes(&bytes).unwrap();
        assert_eq!(back.num_rows(), c.num_rows());
        assert_eq!(back.chunks(), c.chunks());
        assert_eq!(back.schema(), c.schema());
        assert_eq!(back.index_entries(), c.index_entries());
        // Full decode equality.
        assert_eq!(back.decompress().unwrap().rows(), c.decompress().unwrap().rows());
    }

    #[test]
    fn roundtrip_bytes_v3() {
        let c = compressed();
        let bytes = to_bytes_v3(&c);
        assert_eq!(&bytes[4..8], 3u32.to_le_bytes());
        let back = from_bytes(&bytes).unwrap();
        assert_eq!(back.num_rows(), c.num_rows());
        assert_eq!(back.chunks(), c.chunks());
        assert_eq!(back.index_entries(), c.index_entries());
        assert_eq!(back.decompress().unwrap().rows(), c.decompress().unwrap().rows());
    }

    #[test]
    fn roundtrip_bytes_v4_with_compressed_blobs() {
        // Large chunks make the codec selector actually choose non-raw
        // codecs; the round trip must still reproduce the table exactly.
        let c = compressed_large();
        let v4 = to_bytes(&c);
        let v3 = to_bytes_v3(&c);
        assert!(
            v4.len() < v3.len(),
            "v4 image ({}) should be smaller than v3 ({}) on realistic chunks",
            v4.len(),
            v3.len()
        );
        let back = from_bytes(&v4).unwrap();
        assert_eq!(back.chunks(), c.chunks());
        assert_eq!(back.decompress().unwrap().rows(), c.decompress().unwrap().rows());
    }

    #[test]
    fn v4_header_declares_version_4() {
        let bytes = to_bytes(&compressed());
        assert_eq!(&bytes[0..4], MAGIC.to_le_bytes());
        assert_eq!(&bytes[4..8], VERSION.to_le_bytes());
        assert_eq!(VERSION, 4);
        // Tail carries the magic too.
        assert_eq!(&bytes[bytes.len() - 4..], MAGIC.to_le_bytes());
    }

    #[test]
    fn roundtrip_file() {
        let c = compressed();
        let dir = std::env::temp_dir().join("cohana-persist-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("table.cohana");
        write_file(&c, &path).unwrap();
        let back = read_file(&path).unwrap();
        assert_eq!(back.num_rows(), c.num_rows());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_bad_magic() {
        for writer in [to_bytes, to_bytes_v3] {
            let mut bytes = writer(&compressed()).to_vec();
            bytes[0] ^= 0xFF;
            assert!(matches!(from_bytes(&bytes).unwrap_err(), StorageError::Corrupt(_)));
        }
    }

    #[test]
    fn rejects_bad_tail_magic() {
        for writer in [to_bytes, to_bytes_v3] {
            let mut bytes = writer(&compressed()).to_vec();
            let last = bytes.len() - 1;
            bytes[last] ^= 0xFF;
            assert!(matches!(from_bytes(&bytes).unwrap_err(), StorageError::Corrupt(_)));
        }
    }

    #[test]
    fn rejects_bad_version() {
        let mut bytes = to_bytes(&compressed()).to_vec();
        bytes[4] = 99;
        assert!(matches!(from_bytes(&bytes).unwrap_err(), StorageError::BadVersion(99)));

        // The retired v1/v2 formats: a full image under a v1/v2 header, and
        // a bare header, are rejected with the conversion hint by every
        // reader in this module — before any length or footer check.
        let dir = std::env::temp_dir().join("cohana-persist-retired");
        std::fs::create_dir_all(&dir).unwrap();
        for version in [1u32, 2] {
            let mut image = to_bytes(&compressed()).to_vec();
            image[4..8].copy_from_slice(&version.to_le_bytes());
            for (kind, bytes) in [("image", &image[..]), ("header", &image[..8])] {
                let path = dir.join(format!("v{version}-{kind}.cohana"));
                std::fs::write(&path, bytes).unwrap();
                let errors = [
                    ("from_bytes", from_bytes(bytes).err()),
                    ("read_file", read_file(&path).err()),
                    ("inspect", inspect(&path).err()),
                    ("file_space_stats", file_space_stats(&path).err()),
                    ("compact", compact(&path).err()),
                ];
                for (entry, err) in errors {
                    match err {
                        Some(StorageError::Unsupported(msg)) => assert!(
                            msg.contains(&format!("version {version}"))
                                && msg.contains(CONVERSION_HINT),
                            "{entry} v{version} {kind}: no conversion hint: {msg}"
                        ),
                        other => {
                            panic!("{entry} v{version} {kind}: expected Unsupported, {other:?}")
                        }
                    }
                }
                assert_eq!(std::fs::read(&path).unwrap(), bytes, "a rejected file is untouched");
                std::fs::remove_file(&path).ok();
            }
        }
    }

    #[test]
    fn rejects_truncation_everywhere() {
        for writer in [to_bytes, to_bytes_v3] {
            let bytes = writer(&compressed()).to_vec();
            // Truncating at any prefix must error, never panic.
            for cut in (0..bytes.len().min(400)).chain([bytes.len() - 1]) {
                assert!(from_bytes(&bytes[..cut]).is_err(), "cut at {cut} should fail");
            }
        }
    }

    #[test]
    fn rejects_trailing_garbage() {
        // The tail magic lands on the wrong bytes once anything is appended.
        for writer in [to_bytes, to_bytes_v3] {
            let mut bytes = writer(&compressed()).to_vec();
            bytes.push(0);
            assert!(from_bytes(&bytes).is_err());
        }
    }

    /// Byte size of one v3 footer entry.
    fn v3_entry_size(arity: usize, e: &ChunkIndexEntry) -> usize {
        let stats: usize = e
            .column_stats
            .iter()
            .map(|s| match s {
                ColumnStats::User => 1,
                ColumnStats::Str { .. } => 5,
                ColumnStats::Int { .. } => 17,
            })
            .sum();
        16 + 16 * arity + 36 + 4 * e.action_gids.len() + stats
    }

    #[test]
    fn rejects_crafted_overflow_locations_v3() {
        // Same attack on the v3 footer: a near-u64::MAX RLE blob length in
        // the first chunk's layout must be rejected by the subtraction-based
        // tiling check — no wrap, no huge allocation, no panic.
        let c = compressed();
        assert!(c.chunks().len() >= 2);
        let arity = c.schema().arity();
        let bytes = to_bytes_v3(&c).to_vec();
        let tail = bytes.len() - 12;
        let entries_size: usize = c.index_entries().iter().map(|e| v3_entry_size(arity, e)).sum();
        let e0 = tail - entries_size;
        let mut crafted = bytes.clone();
        // rle_len is the second u64 of the first entry.
        crafted[e0 + 8..e0 + 16].copy_from_slice(&(u64::MAX - 7).to_le_bytes());
        assert!(matches!(from_bytes(&crafted), Err(StorageError::Corrupt(_))));
    }

    /// Byte size of one v4 footer entry: every blob record grows by a codec
    /// tag byte and an uncompressed-length u64.
    fn v4_entry_size(arity: usize, e: &ChunkIndexEntry) -> usize {
        v3_entry_size(arity, e) + 9 * (arity + 1)
    }

    /// Footer byte offset of the first chunk's entry in a v4 image with no
    /// epoch extension (entries run up to the tail).
    fn v4_first_entry_offset(c: &CompressedTable, bytes: &[u8]) -> usize {
        let arity = c.schema().arity();
        let entries_size: usize = c.index_entries().iter().map(|e| v4_entry_size(arity, e)).sum();
        bytes.len() - 12 - entries_size
    }

    #[test]
    fn rejects_crafted_overflow_locations_v4() {
        let c = compressed();
        assert!(c.chunks().len() >= 2);
        let bytes = to_bytes(&c).to_vec();
        let e0 = v4_first_entry_offset(&c, &bytes);
        let mut crafted = bytes.clone();
        // rle_len is still the second u64 of the first entry's rle record.
        crafted[e0 + 8..e0 + 16].copy_from_slice(&(u64::MAX - 7).to_le_bytes());
        assert!(matches!(from_bytes(&crafted), Err(StorageError::Corrupt(_))));
    }

    #[test]
    fn rejects_bad_codec_tags_v4() {
        let c = compressed();
        let bytes = to_bytes(&c).to_vec();
        let e0 = v4_first_entry_offset(&c, &bytes);
        // The rle record's codec tag (offset 16 within the record): an
        // unknown tag and a known-but-forbidden one must both be rejected.
        for tag in [7u8, Codec::Delta.tag()] {
            let mut crafted = bytes.clone();
            crafted[e0 + 16] = tag;
            assert!(matches!(from_bytes(&crafted), Err(StorageError::Corrupt(_))), "tag {tag}");
        }
    }

    #[test]
    fn rejects_tampered_uncompressed_length_v4() {
        let c = compressed();
        let bytes = to_bytes(&c).to_vec();
        let e0 = v4_first_entry_offset(&c, &bytes);
        // A raw blob's uncompressed length must equal its on-disk length;
        // growing it by one must fail footer validation.
        let rle_unc = u64::from_le_bytes(bytes[e0 + 17..e0 + 25].try_into().unwrap());
        let mut crafted = bytes.clone();
        crafted[e0 + 17..e0 + 25].copy_from_slice(&(rle_unc + 1).to_le_bytes());
        assert!(matches!(from_bytes(&crafted), Err(StorageError::Corrupt(_))));
    }

    #[test]
    fn rejects_tampered_uncompressed_length_on_compressed_blob_v4() {
        // Find a genuinely compressed blob through the parsed footer, then
        // nudge its uncompressed length so footer validation still passes
        // (> len, within the row bound) but the codec's own embedded
        // width/length no longer matches — the decoder must reject it.
        let c = compressed_large();
        let bytes = to_bytes(&c).to_vec();
        let footer = parse_footer_region(&bytes).unwrap();
        let layouts = &footer.layouts;
        let arity = c.schema().arity();
        let mut entry_start = v4_first_entry_offset(&c, &bytes);
        let mut target = None;
        'outer: for (ci, layout) in layouts.iter().enumerate() {
            for (j, loc) in layout.cols.iter().enumerate() {
                if loc.codec != Codec::Raw {
                    target = Some(entry_start + 25 + 25 * j);
                    break 'outer;
                }
            }
            entry_start += v4_entry_size(arity, &c.index_entries()[ci]);
        }
        let record = target.expect("large chunks must produce at least one compressed blob");
        let unc_at = record + 17;
        let unc = u64::from_le_bytes(bytes[unc_at..unc_at + 8].try_into().unwrap());
        let mut crafted = bytes.clone();
        crafted[unc_at..unc_at + 8].copy_from_slice(&(unc + 8).to_le_bytes());
        assert!(from_bytes(&crafted).is_err());
    }

    #[test]
    fn append_preserves_file_version() {
        let dir = std::env::temp_dir().join("cohana-persist-version-preserve");
        std::fs::create_dir_all(&dir).unwrap();
        let rows = generate(&GeneratorConfig::small());
        let (first, rest) = rows.rows().split_at(rows.rows().len() / 2);
        let opts = CompressionOptions::with_chunk_size(256);
        let build_table = |slice: &[cohana_activity::Tuple]| {
            let mut b = cohana_activity::TableBuilder::new(rows.schema().clone());
            for row in slice {
                b.push(row.values().to_vec()).unwrap();
            }
            b.finish().unwrap()
        };
        let tail = build_table(rest);
        for (name, writer, expect) in
            [("v3", to_bytes_v3 as fn(&CompressedTable) -> Bytes, 3u32), ("v4", to_bytes, 4u32)]
        {
            let path = dir.join(format!("table-{name}.cohana"));
            let c = CompressedTable::build(&build_table(first), opts).unwrap();
            std::fs::write(&path, writer(&c)).unwrap();
            append(&path, &tail).unwrap();
            let bytes = std::fs::read(&path).unwrap();
            assert_eq!(&bytes[4..8], expect.to_le_bytes(), "{name} file changed version");
            // The grown file still decodes to the full row set.
            let back = from_bytes(&bytes).unwrap();
            assert_eq!(back.num_rows(), rows.rows().len());
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn replace_file_cleans_up_when_the_rename_fails() {
        // A non-empty directory at the target path: the temp file is written,
        // the rename over the directory fails, and the temp file must go.
        let dir = std::env::temp_dir().join("cohana-persist-replace");
        std::fs::remove_dir_all(&dir).ok();
        let target = dir.join("table.cohana");
        std::fs::create_dir_all(target.join("occupied")).unwrap();
        let err = replace_file(&target, b"image").unwrap_err();
        assert!(matches!(err, StorageError::Io(_)), "{err:?}");
        let left: Vec<_> =
            std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().file_name()).collect();
        assert_eq!(left, ["table.cohana"], "the temp file was left behind");
        assert!(target.join("occupied").is_dir(), "the target was touched");

        // An ordinary target is replaced whole.
        let file = dir.join("plain.cohana");
        std::fs::write(&file, b"old contents").unwrap();
        replace_file(&file, b"new").unwrap();
        assert_eq!(std::fs::read(&file).unwrap(), b"new");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compact_upgrades_v3_to_v4() {
        let dir = std::env::temp_dir().join("cohana-persist-compact-upgrade");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("table.cohana");
        let c = compressed();
        std::fs::write(&path, to_bytes_v3(&c)).unwrap();
        compact(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(&bytes[4..8], 4u32.to_le_bytes());
        assert_eq!(bytes, to_bytes(&c).to_vec());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn inspect_reports_codec_selection() {
        let dir = std::env::temp_dir().join("cohana-persist-inspect");
        std::fs::create_dir_all(&dir).unwrap();
        let c = compressed_large();
        let v3_path = dir.join("table-v3.cohana");
        let v4_path = dir.join("table-v4.cohana");
        std::fs::write(&v3_path, to_bytes_v3(&c)).unwrap();
        std::fs::write(&v4_path, to_bytes(&c)).unwrap();

        let v3 = inspect(&v3_path).unwrap();
        assert_eq!(v3.version, 3);
        assert_eq!(v3.num_rows, c.num_rows());
        assert_eq!(v3.compressed_bytes(), v3.uncompressed_bytes());
        assert_eq!(v3.codecs[1].blobs + v3.codecs[2].blobs, 0);

        let v4 = inspect(&v4_path).unwrap();
        assert_eq!(v4.version, 4);
        assert_eq!(v4.num_chunks, c.chunks().len());
        // Decoded payload matches v3's raw payload exactly; the disk
        // payload is smaller, and at least one blob chose a real codec.
        assert_eq!(v4.uncompressed_bytes(), v3.compressed_bytes());
        assert!(v4.compressed_bytes() < v3.compressed_bytes());
        assert!(v4.codecs[1].blobs + v4.codecs[2].blobs > 0);
        assert!(v4.ratio() > 1.0);
        for (a, b) in v4.columns.iter().zip(v3.columns.iter()) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.uncompressed_bytes, b.uncompressed_bytes);
            assert!(a.compressed_bytes <= a.uncompressed_bytes);
        }
        std::fs::remove_file(&v3_path).ok();
        std::fs::remove_file(&v4_path).ok();
    }

    #[test]
    fn rejects_zero_chunk_size_footer() {
        for writer in [to_bytes, to_bytes_v3] {
            let bytes = writer(&compressed()).to_vec();
            let tail = bytes.len() - 12;
            let footer_len = u64::from_le_bytes(bytes[tail..tail + 8].try_into().unwrap()) as usize;
            let footer_start = tail - footer_len;
            let mut crafted = bytes;
            crafted[footer_start..footer_start + 8].copy_from_slice(&0u64.to_le_bytes());
            assert!(matches!(from_bytes(&crafted), Err(StorageError::Corrupt(_))));
        }
    }

    #[test]
    fn rejects_tampered_footer_index() {
        for writer in [to_bytes, to_bytes_v3] {
            let c = compressed();
            let bytes = writer(&c).to_vec();
            // Locate the footer and flip one byte inside it; either the
            // footer parse or the recomputed-index comparison must reject
            // the image.
            let tail = bytes.len() - 12;
            let footer_len = u64::from_le_bytes(bytes[tail..tail + 8].try_into().unwrap()) as usize;
            let footer_start = tail - footer_len;
            let mut seen_reject = false;
            for pos in [footer_start + 8, footer_start + footer_len / 2, tail - 1] {
                let mut tampered = bytes.clone();
                tampered[pos] ^= 0x01;
                if from_bytes(&tampered).is_err() {
                    seen_reject = true;
                }
            }
            assert!(seen_reject, "no footer tampering detected");
        }
    }

    #[test]
    fn all_versions_decode_identically() {
        let c = compressed();
        let v3 = from_bytes(&to_bytes_v3(&c)).unwrap();
        let v4 = from_bytes(&to_bytes(&c)).unwrap();
        assert_eq!(v3.chunks(), v4.chunks());
        assert_eq!(v3.schema(), v4.schema());
        assert_eq!(v3.num_rows(), v4.num_rows());
    }
}
