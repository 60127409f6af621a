//! The columnar rewrite core: the one place existing chunks are re-encoded.
//!
//! Chunking never splits a user (§4.1), so a batch carrying activity of users
//! already stored must re-encode those users' chunks; compaction, user
//! deletion and resident-table ingest re-encode whole tables. All of them go
//! through [`rewrite`]. Its inputs are decoded chunks already in the gid
//! space of one [`TableMeta`] (epoch- and overlay-remapped and passed through
//! `validate_chunk` by the caller), optionally a row-form batch, encoded once
//! into global ids against the same dictionaries, and optionally a set of
//! users to leave out.
//!
//! Global dictionaries are sorted, so ordering rows by `(user gid, time,
//! action gid)` is ordering them by the paper's §3 `(user, time, action)`
//! primary key. The core merges every input in that order, rejects duplicate
//! keys, re-chunks at the table's chunk size, and encodes each chunk straight
//! from gid and integer arrays: old data is never turned back into values or
//! hashed again. The chunking rule and the per-chunk encoders are the ones
//! [`CompressedTable::build`] uses, so a compacted rewrite of some rows is
//! byte-identical to building those rows once.

use crate::chunk::Chunk;
use crate::column::ChunkColumn;
use crate::dict::GlobalDict;
use crate::persist::EpochRemaps;
use crate::rle::UserRle;
use crate::table::{ColumnMeta, CompressedTable, TableMeta};
use crate::{Result, StorageError};
use cohana_activity::ActivityTable;
use std::collections::HashMap;
use std::sync::Arc;

/// Re-encode `chunks` plus `batch`, minus every row of `drop_users` (sorted
/// user gids), into a table over `meta`'s schema and chunk size.
///
/// `compacted == false` encodes against `meta`'s dictionaries and ranges as
/// given (the in-place append, whose surviving chunks keep using them).
/// `compacted == true` first shrinks every dictionary to the values the
/// output uses and every integer range to the values it holds, producing
/// exactly the [`CompressedTable::build`] image of the output rows.
///
/// A primary key occurring twice anywhere in the inputs is rejected with
/// [`StorageError::Invalid`].
pub(crate) fn rewrite(
    meta: &TableMeta,
    chunks: &[Chunk],
    batch: Option<&ActivityTable>,
    drop_users: &[u32],
    compacted: bool,
) -> Result<CompressedTable> {
    let schema = meta.schema();
    let (user_idx, time_idx, action_idx) =
        (schema.user_idx(), schema.time_idx(), schema.action_idx());
    let mut inputs: Vec<Columns> = chunks.iter().map(|c| Columns::of_chunk(c, user_idx)).collect();
    if let Some(batch) = batch {
        inputs.push(Columns::of_batch(batch, meta)?);
    }

    // Every input's user runs, ordered by user gid; ties keep input order.
    let mut runs: Vec<Run> = Vec::new();
    for (input, cols) in inputs.iter().enumerate() {
        let mut start = 0;
        for run in cols.gids(user_idx).chunk_by(|a, b| a == b) {
            runs.push(Run { user: run[0], input, start, len: run.len() });
            start += run.len();
        }
    }
    runs.sort_unstable_by_key(|r| (r.user, r.input));

    // The merged row order: per surviving user, its rows by (time, action).
    let times: Vec<&[i64]> = inputs.iter().map(|c| c.ints(time_idx)).collect();
    let actions: Vec<&[u32]> = inputs.iter().map(|c| c.gids(action_idx)).collect();
    let key =
        |&(i, r): &(u32, u32)| (times[i as usize][r as usize], actions[i as usize][r as usize]);
    let mut order: Vec<(u32, u32)> =
        Vec::with_capacity(inputs.iter().map(|c| c.gids(user_idx).len()).sum());
    let mut user_rows: Vec<usize> = Vec::new();
    for group in runs.chunk_by(|a, b| a.user == b.user) {
        let user = group[0].user;
        if drop_users.binary_search(&user).is_ok() {
            continue;
        }
        let first = order.len();
        for run in group {
            order
                .extend((run.start..run.start + run.len).map(|row| (run.input as u32, row as u32)));
        }
        let rows = &mut order[first..];
        if !rows.is_sorted_by_key(key) {
            rows.sort_unstable_by_key(key);
        }
        if let Some(w) = rows.windows(2).find(|w| key(&w[0]) == key(&w[1])) {
            let (time, action) = key(&w[0]);
            return Err(StorageError::Invalid(format!(
                "duplicate primary key (user {:?}, time {time}, action {:?})",
                meta.gid_value(user_idx, user),
                meta.gid_value(action_idx, action),
            )));
        }
        user_rows.push(rows.len());
    }

    let (metas, remaps) = if compacted {
        minimal_metas(meta, &inputs, &order)
    } else {
        (meta.metas().to_vec(), vec![None; schema.arity()])
    };

    // Close a chunk at the first user boundary at or past the target size —
    // the rule `CompressedTable::build` chunks by.
    let chunk_size = meta.options().chunk_size;
    let mut out = Vec::new();
    let (mut start, mut users) = (0usize, user_rows.iter().peekable());
    while users.peek().is_some() {
        let mut rows = 0;
        while rows < chunk_size {
            let Some(n) = users.next() else { break };
            rows += n;
        }
        out.push(encode_chunk(&inputs, &order[start..start + rows], &metas, &remaps)?);
        start += rows;
    }
    let meta = TableMeta::new(schema.clone(), metas, order.len(), meta.options())?;
    Ok(CompressedTable::from_encoded(meta, out))
}

/// Merge a batch's values into a table's metadata: every dictionary gains
/// the batch's new values (staying sorted) and every integer range widens to
/// cover the batch. Returns the merged metadata (counting the batch's rows)
/// plus, per attribute, the strictly increasing remap of the old
/// dictionary's gids into the merged one (`None`: an integer attribute, or a
/// dictionary the batch added nothing to).
pub(crate) fn merge_metas(
    meta: &TableMeta,
    batch: &ActivityTable,
) -> Result<(TableMeta, EpochRemaps)> {
    let old_is_empty = meta.num_rows() == 0;
    let mut metas = Vec::with_capacity(meta.metas().len());
    let mut step: EpochRemaps = Vec::with_capacity(meta.metas().len());
    for (idx, m) in meta.metas().iter().enumerate() {
        match m {
            ColumnMeta::User { dict } | ColumnMeta::Str { dict } => {
                let (merged, remap) = dict.merge_with(batch.distinct_strings(idx));
                let identity = merged.len() == dict.len();
                step.push((!identity).then(|| Arc::new(remap)));
                metas.push(if matches!(m, ColumnMeta::User { .. }) {
                    ColumnMeta::User { dict: merged }
                } else {
                    ColumnMeta::Str { dict: merged }
                });
            }
            ColumnMeta::Int { min, max } => {
                let (min, max) = match batch.int_range(idx) {
                    Some((lo, hi)) if old_is_empty => (lo, hi),
                    Some((lo, hi)) => ((*min).min(lo), (*max).max(hi)),
                    None => (*min, *max),
                };
                step.push(None);
                metas.push(ColumnMeta::Int { min, max });
            }
        }
    }
    let merged = TableMeta::new(
        meta.schema().clone(),
        metas,
        meta.num_rows() + batch.num_rows(),
        meta.options(),
    )?;
    Ok((merged, step))
}

/// Re-base a fully materialized chunk's gids through per-attribute remaps
/// (`None`: unchanged).
pub(crate) fn remap_chunk(chunk: &Chunk, remaps: &EpochRemaps, user_idx: usize) -> Result<Chunk> {
    let rle = match &remaps[user_idx] {
        Some(remap) => Arc::new(chunk.user_rle().remap_users(remap)?),
        None => chunk.shared_rle().clone(),
    };
    let columns = chunk
        .columns()
        .iter()
        .zip(remaps)
        .map(|(col, remap)| match (col, remap) {
            (Some(col), Some(remap)) => Ok(Some(Arc::new(col.remap_gids(remap)?))),
            (col, _) => Ok(col.clone()),
        })
        .collect::<Result<_>>()?;
    Chunk::from_shared(rle, columns)
}

/// A contiguous run of one user's rows inside one input.
struct Run {
    user: u32,
    input: usize,
    start: usize,
    len: usize,
}

/// One input's rows in global-id space, column-major: per attribute, the
/// per-row gids (user and string attributes) or integers.
struct Columns(Vec<Values>);

enum Values {
    Gids(Vec<u32>),
    Ints(Vec<i64>),
}

impl Columns {
    /// Unpack a validated, fully materialized chunk.
    fn of_chunk(chunk: &Chunk, user_idx: usize) -> Columns {
        let n = chunk.num_rows();
        let mut codes = vec![0u64; n];
        let attrs = (0..chunk.columns().len())
            .map(|idx| {
                if idx == user_idx {
                    let runs = chunk.user_rle().runs();
                    return Values::Gids(
                        runs.flat_map(|r| std::iter::repeat_n(r.user_gid, r.count as usize))
                            .collect(),
                    );
                }
                let col = chunk.column_required(idx);
                col.packed().unpack_range(0, n, &mut codes);
                match col {
                    ChunkColumn::Str { dict, .. } => {
                        Values::Gids(codes.iter().map(|&c| dict.global_id(c as u32)).collect())
                    }
                    ChunkColumn::Int { min, .. } => {
                        Values::Ints(codes.iter().map(|&d| min + d as i64).collect())
                    }
                }
            })
            .collect();
        Columns(attrs)
    }

    /// Encode a batch against `meta`'s dictionaries, hashing each batch
    /// string once per row and looking each distinct one up in its
    /// dictionary once.
    fn of_batch(batch: &ActivityTable, meta: &TableMeta) -> Result<Columns> {
        let rows = batch.rows();
        let missing = |idx: usize, value: &str| {
            StorageError::Invalid(format!(
                "value {value:?} of attribute {idx} is not covered by the provided dictionary"
            ))
        };
        let attrs = meta
            .metas()
            .iter()
            .enumerate()
            .map(|(idx, m)| match m {
                ColumnMeta::User { dict } => {
                    let mut users = Vec::with_capacity(rows.len());
                    for block in batch.user_blocks() {
                        let user = rows[block.start].get(idx).as_str().expect("user is a string");
                        let gid = dict.lookup(user).ok_or_else(|| missing(idx, user))?;
                        users.extend(std::iter::repeat_n(gid, block.len));
                    }
                    Ok(Values::Gids(users))
                }
                ColumnMeta::Str { dict } => {
                    let mut gids: HashMap<&str, u32> = HashMap::new();
                    let encoded = rows.iter().map(|row| {
                        let value = row.get(idx).as_str().expect("string attribute");
                        if let Some(&gid) = gids.get(value) {
                            return Ok(gid);
                        }
                        let gid = dict.lookup(value).ok_or_else(|| missing(idx, value))?;
                        gids.insert(value, gid);
                        Ok(gid)
                    });
                    Ok(Values::Gids(encoded.collect::<Result<_>>()?))
                }
                ColumnMeta::Int { .. } => Ok(Values::Ints(
                    rows.iter().map(|row| row.get(idx).as_int().expect("int attribute")).collect(),
                )),
            })
            .collect::<Result<_>>()?;
        Ok(Columns(attrs))
    }

    fn gids(&self, idx: usize) -> &[u32] {
        match &self.0[idx] {
            Values::Gids(gids) => gids,
            Values::Ints(_) => unreachable!("attribute {idx} is dictionary-encoded"),
        }
    }

    fn ints(&self, idx: usize) -> &[i64] {
        match &self.0[idx] {
            Values::Ints(ints) => ints,
            Values::Gids(_) => unreachable!("attribute {idx} is integer-encoded"),
        }
    }
}

/// The metadata `CompressedTable::build` would derive from the rows in
/// `order`: dictionaries shrunk to the values used (in their sorted order)
/// and integer ranges tightened to the values held (`(0, 0)` when empty).
/// Also returns, per dictionary that shrank, the old gid → new gid map.
fn minimal_metas(
    meta: &TableMeta,
    inputs: &[Columns],
    order: &[(u32, u32)],
) -> (Vec<ColumnMeta>, Vec<Option<Vec<u32>>>) {
    let mut metas = Vec::with_capacity(meta.metas().len());
    let mut remaps = Vec::with_capacity(meta.metas().len());
    for (idx, m) in meta.metas().iter().enumerate() {
        match m {
            ColumnMeta::User { dict } | ColumnMeta::Str { dict } => {
                let gids: Vec<&[u32]> = inputs.iter().map(|c| c.gids(idx)).collect();
                let mut used = vec![false; dict.len()];
                for &(i, r) in order {
                    used[gids[i as usize][r as usize] as usize] = true;
                }
                let kept: Vec<Arc<str>> = dict
                    .values()
                    .iter()
                    .zip(&used)
                    .filter(|(_, &u)| u)
                    .map(|(v, _)| v.clone())
                    .collect();
                // Unused gids map nowhere; no output row carries one.
                let remap = (kept.len() < dict.len()).then(|| {
                    used.iter()
                        .scan(0u32, |next, &u| {
                            *next += u32::from(u);
                            Some(next.wrapping_sub(1))
                        })
                        .collect()
                });
                let dict = GlobalDict::from_sorted(kept).expect("a subsequence of a sorted dict");
                metas.push(match m {
                    ColumnMeta::User { .. } => ColumnMeta::User { dict },
                    _ => ColumnMeta::Str { dict },
                });
                remaps.push(remap);
            }
            ColumnMeta::Int { .. } => {
                let ints: Vec<&[i64]> = inputs.iter().map(|c| c.ints(idx)).collect();
                let values = order.iter().map(|&(i, r)| ints[i as usize][r as usize]);
                let (min, max) = values.clone().min().zip(values.max()).unwrap_or((0, 0));
                metas.push(ColumnMeta::Int { min, max });
                remaps.push(None);
            }
        }
    }
    (metas, remaps)
}

/// Encode one output chunk from the rows it holds, re-basing gids through
/// `remaps` (`None`: unchanged).
fn encode_chunk(
    inputs: &[Columns],
    rows: &[(u32, u32)],
    metas: &[ColumnMeta],
    remaps: &[Option<Vec<u32>>],
) -> Result<Chunk> {
    let gids = |idx: usize| -> Vec<u32> {
        let cols: Vec<&[u32]> = inputs.iter().map(|c| c.gids(idx)).collect();
        let remap = remaps[idx].as_deref();
        rows.iter()
            .map(|&(i, r)| {
                let gid = cols[i as usize][r as usize];
                remap.map_or(gid, |m| m[gid as usize])
            })
            .collect()
    };
    let mut users = Vec::new();
    let columns = metas
        .iter()
        .enumerate()
        .map(|(idx, meta)| match meta {
            ColumnMeta::User { .. } => {
                users = gids(idx);
                None
            }
            ColumnMeta::Str { .. } => Some(ChunkColumn::from_gids(&gids(idx))),
            ColumnMeta::Int { .. } => {
                let cols: Vec<&[i64]> = inputs.iter().map(|c| c.ints(idx)).collect();
                let ints: Vec<i64> =
                    rows.iter().map(|&(i, r)| cols[i as usize][r as usize]).collect();
                Some(ChunkColumn::from_ints(&ints))
            }
        })
        .collect();
    Chunk::new(UserRle::from_rows(&users), columns)
}
