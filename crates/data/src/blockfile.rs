//! The `skmb` binary block file: the on-disk format behind out-of-core
//! clustering, plus its budgeted reader.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"SKMBLK01"
//! 8       4     dim        (u32, > 0)
//! 12      4     block_rows (u32, > 0)
//! 16      8     rows       (u64)
//! 24      —     payload: rows × dim f64 values, row-major
//! ```
//!
//! Rows are stored contiguously; block `b` starts at byte
//! `24 + b · block_rows · dim · 8`, so any block is one seek + one read.
//! Write files with [`BlockFileWriter`] (streaming, one row at a time —
//! the `skm convert` subcommand never materializes the dataset) or
//! [`write_block_file`] (from an in-memory matrix); read them with
//! [`BlockFileSource`], which enforces a caller-configured memory budget
//! with a fill-once block cache (blocks are admitted in first-read order
//! while they fit and never evicted, so the cyclic ascending sweeps of
//! every pass and block-sorted gather hit the same cached blocks each
//! time) and reports peak residency for the out-of-core assertions in
//! `tests/chunked_parity.rs`.

use crate::chunked::{check_block_buffer, ChunkedSource, Residency};
use crate::error::DataError;
use crate::matrix::PointMatrix;
use std::collections::HashMap;
use std::fmt;
use std::fs::File;
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::Mutex;

/// File magic identifying the format (see module docs).
pub const BLOCK_FILE_MAGIC: [u8; 8] = *b"SKMBLK01";
/// Header size in bytes; the payload starts here.
const HEADER_BYTES: u64 = 24;

/// Streaming writer for the binary block format.
///
/// ```
/// use kmeans_data::{BlockFileWriter, BlockFileSource, ChunkedSource};
/// let path = std::env::temp_dir().join("kmeans_blockfile_doc.skmb");
/// let mut writer = BlockFileWriter::create(&path, 2, 4).unwrap();
/// for i in 0..10 {
///     writer.push_row(&[i as f64, -(i as f64)]).unwrap();
/// }
/// assert_eq!(writer.finish().unwrap(), 10);
/// let source = BlockFileSource::open(&path, 1 << 20).unwrap();
/// assert_eq!((source.len(), source.dim(), source.num_blocks()), (10, 2, 3));
/// # std::fs::remove_file(path).unwrap();
/// ```
pub struct BlockFileWriter {
    out: BufWriter<File>,
    dim: usize,
    rows: u64,
}

impl fmt::Debug for BlockFileWriter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BlockFileWriter")
            .field("dim", &self.dim)
            .field("rows", &self.rows)
            .finish()
    }
}

impl BlockFileWriter {
    /// Creates a block file, writing a header with a zero row count that
    /// [`BlockFileWriter::finish`] patches.
    pub fn create(
        path: impl AsRef<Path>,
        dim: usize,
        block_rows: usize,
    ) -> Result<Self, DataError> {
        if dim == 0 {
            return Err(DataError::InvalidParam("dim must be positive".into()));
        }
        if block_rows == 0 {
            return Err(DataError::InvalidParam(
                "block_rows must be positive".into(),
            ));
        }
        let dim_u32 = u32::try_from(dim)
            .map_err(|_| DataError::InvalidParam(format!("dim {dim} exceeds u32")))?;
        let block_u32 = u32::try_from(block_rows)
            .map_err(|_| DataError::InvalidParam(format!("block_rows {block_rows} exceeds u32")))?;
        let mut out = BufWriter::new(File::create(path)?);
        out.write_all(&BLOCK_FILE_MAGIC)?;
        out.write_all(&dim_u32.to_le_bytes())?;
        out.write_all(&block_u32.to_le_bytes())?;
        out.write_all(&0u64.to_le_bytes())?;
        Ok(BlockFileWriter { out, dim, rows: 0 })
    }

    /// Appends one row.
    pub fn push_row(&mut self, row: &[f64]) -> Result<(), DataError> {
        if row.len() != self.dim {
            return Err(DataError::DimensionMismatch {
                expected: self.dim,
                got: row.len(),
            });
        }
        for &v in row {
            self.out.write_all(&v.to_le_bytes())?;
        }
        self.rows += 1;
        Ok(())
    }

    /// Appends every row of a matrix.
    pub fn write_matrix(&mut self, matrix: &PointMatrix) -> Result<(), DataError> {
        for row in matrix.rows() {
            self.push_row(row)?;
        }
        Ok(())
    }

    /// Patches the header row count and flushes; returns the rows written.
    pub fn finish(mut self) -> Result<u64, DataError> {
        self.out.flush()?;
        let mut file = self.out.into_inner().map_err(|e| e.into_error())?;
        file.seek(SeekFrom::Start(16))?;
        file.write_all(&self.rows.to_le_bytes())?;
        file.sync_data()?;
        Ok(self.rows)
    }
}

/// Writes an in-memory matrix as a block file (convenience wrapper over
/// [`BlockFileWriter`]).
pub fn write_block_file(
    path: impl AsRef<Path>,
    matrix: &PointMatrix,
    block_rows: usize,
) -> Result<(), DataError> {
    let mut writer = BlockFileWriter::create(path, matrix.dim(), block_rows)?;
    writer.write_matrix(matrix)?;
    writer.finish()?;
    Ok(())
}

/// Converts a CSV file to a block file in one streaming pass — each line
/// is parsed exactly once and written straight through; the dataset is
/// never materialized (this is what `skm convert` runs). Returns
/// `(rows, dim)`. With [`LabelColumn::Last`](crate::io::LabelColumn::Last)
/// the final column is validated and dropped, under the same contract as
/// [`crate::io::read_csv`].
pub fn csv_to_block_file(
    csv_path: impl AsRef<Path>,
    out_path: impl AsRef<Path>,
    block_rows: usize,
    labels: crate::io::LabelColumn,
) -> Result<(usize, usize), DataError> {
    let out_path = out_path.as_ref();
    let result = csv_to_block_file_inner(csv_path.as_ref(), out_path, block_rows, labels);
    if result.is_err() {
        // Never leave a half-written block file behind: its valid magic
        // and zero-row header would auto-detect as an "empty" dataset on
        // the next chunked fit, masking the real conversion failure.
        let _ = std::fs::remove_file(out_path);
    }
    result
}

fn csv_to_block_file_inner(
    csv_path: &Path,
    out_path: &Path,
    block_rows: usize,
    labels: crate::io::LabelColumn,
) -> Result<(usize, usize), DataError> {
    use crate::chunked::{parse_cells, validate_row};
    use std::io::BufRead;

    if block_rows == 0 {
        return Err(DataError::InvalidParam(
            "block_rows must be positive".into(),
        ));
    }
    let mut reader = std::io::BufReader::new(File::open(csv_path)?);
    let mut line = String::new();
    let mut scratch: Vec<f64> = Vec::new();
    let mut line_no = 0usize;
    let mut rows = 0usize;
    let mut dim: Option<usize> = None;
    // The writer needs the dimensionality, which the first data row fixes.
    let mut writer: Option<BlockFileWriter> = None;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            break;
        }
        line_no += 1;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        if !parse_cells(trimmed, &mut scratch) {
            // Only the first data-bearing line may be non-numeric (header).
            if rows == 0 && dim.is_none() {
                continue;
            }
            return Err(DataError::Parse {
                line: line_no,
                message: format!("unparseable numeric row: {trimmed:.40}"),
            });
        }
        let d = validate_row(&scratch, labels, line_no, dim)?;
        let writer = match &mut writer {
            Some(w) => w,
            None => writer.insert(BlockFileWriter::create(out_path, d, block_rows)?),
        };
        writer.push_row(&scratch[..d])?;
        dim = Some(d);
        rows += 1;
    }
    let (Some(writer), Some(dim)) = (writer, dim) else {
        return Err(DataError::Empty);
    };
    writer.finish()?;
    Ok((rows, dim))
}

/// Returns whether `path` starts with the block-file magic (used by the
/// CLI to auto-detect the input format).
pub fn is_block_file(path: impl AsRef<Path>) -> bool {
    let Ok(mut file) = File::open(path) else {
        return false;
    };
    let mut magic = [0u8; 8];
    file.read_exact(&mut magic).is_ok() && magic == BLOCK_FILE_MAGIC
}

/// Bound on the miss path's staging buffer: a miss reads its block in
/// chunks of whole rows of at most this many bytes (one row, if a row is
/// wider).
const STAGE_BYTES: usize = 64 * 1024;

/// Cache + accounting state behind the reader's interior mutability.
/// Lookup is O(1) (hits are the hot path — one per gather on cached
/// blocks). The cache fills once and never evicts.
struct ReaderState {
    file: File,
    cache: HashMap<usize, Vec<f64>>,
    cache_bytes: u64,
    /// The one miss-path staging buffer, reused across misses.
    stage: Vec<u8>,
    stats: Residency,
}

/// Budgeted [`ChunkedSource`] over a binary block file.
///
/// The memory budget covers every decoded feature block the source
/// materializes: the block copy handed to the caller plus an internal
/// fill-once cache (capacity `budget − block_bytes`; zero cache when the
/// budget only fits the working block). The cache admits blocks in first-
/// read order while they fit and never evicts: every pass and every
/// block-sorted gather walks the blocks in ascending order, and under such
/// cyclic sweeps an LRU cache evicts each block just before it is needed
/// again (zero hits), while a fill-once cache serves the same
/// `capacity / block_bytes` blocks on every sweep. Cache misses decode
/// straight into the caller's block through one reused staging buffer of
/// at most 64 KiB (one row, for rows wider than that) — the only
/// allocation outside the budget, constant regardless of block or
/// dataset size.
/// [`ChunkedSource::residency`] reports the peak, and
/// `peak_bytes ≤ budget` is an invariant — a dataset larger than the
/// budget streams, it is never fully resident.
pub struct BlockFileSource {
    state: Mutex<ReaderState>,
    rows: usize,
    dim: usize,
    block_rows: usize,
    budget_bytes: u64,
}

impl fmt::Debug for BlockFileSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BlockFileSource")
            .field("rows", &self.rows)
            .field("dim", &self.dim)
            .field("block_rows", &self.block_rows)
            .field("budget_bytes", &self.budget_bytes)
            .finish()
    }
}

impl BlockFileSource {
    /// Opens a block file with a memory budget in bytes.
    ///
    /// Fails with [`DataError::InvalidParam`] if the budget does not fit
    /// one block (`block_rows · dim · 8` bytes), and with
    /// [`DataError::Format`] on a malformed or truncated file.
    pub fn open(path: impl AsRef<Path>, budget_bytes: u64) -> Result<Self, DataError> {
        let mut file = File::open(&path)?;
        let mut header = [0u8; HEADER_BYTES as usize];
        file.read_exact(&mut header)
            .map_err(|_| DataError::Format("file shorter than the 24-byte header".into()))?;
        if header[..8] != BLOCK_FILE_MAGIC {
            return Err(DataError::Format("bad magic (expected SKMBLK01)".into()));
        }
        let dim = u32::from_le_bytes(header[8..12].try_into().expect("4 bytes")) as usize;
        let block_rows = u32::from_le_bytes(header[12..16].try_into().expect("4 bytes")) as usize;
        let rows = u64::from_le_bytes(header[16..24].try_into().expect("8 bytes"));
        if dim == 0 || block_rows == 0 {
            return Err(DataError::Format(format!(
                "header declares dim={dim}, block_rows={block_rows} (both must be positive)"
            )));
        }
        let rows = usize::try_from(rows)
            .map_err(|_| DataError::Format(format!("row count {rows} exceeds usize")))?;
        // All header fields are untrusted: size arithmetic must be checked,
        // or a corrupt header panics (debug) / defeats the truncation check
        // via wraparound (release).
        let checked_bytes = |count: u64, what: &str| {
            count
                .checked_mul(dim as u64)
                .and_then(|v| v.checked_mul(8))
                .ok_or_else(|| {
                    DataError::Format(format!("header implies an impossibly large {what} size"))
                })
        };
        let expected = HEADER_BYTES
            .checked_add(checked_bytes(rows as u64, "payload")?)
            .ok_or_else(|| DataError::Format("header implies an impossibly large file".into()))?;
        let actual = file.metadata()?.len();
        if actual < expected {
            return Err(DataError::Format(format!(
                "payload truncated: {actual} bytes on disk, header implies {expected}"
            )));
        }
        let block_bytes = checked_bytes(block_rows as u64, "block")?;
        if budget_bytes < block_bytes {
            return Err(DataError::InvalidParam(format!(
                "memory budget {budget_bytes} B cannot hold one {block_bytes} B block \
                 ({block_rows} rows x {dim} dims)"
            )));
        }
        Ok(BlockFileSource {
            state: Mutex::new(ReaderState {
                file,
                cache: HashMap::new(),
                cache_bytes: 0,
                stage: Vec::new(),
                stats: Residency {
                    budget_bytes: Some(budget_bytes),
                    ..Residency::default()
                },
            }),
            rows,
            dim,
            block_rows,
            budget_bytes,
        })
    }

    /// The configured memory budget in bytes.
    pub fn budget_bytes(&self) -> u64 {
        self.budget_bytes
    }

    /// Total feature payload on disk in bytes (`rows · dim · 8`).
    pub fn payload_bytes(&self) -> u64 {
        (self.rows as u64) * (self.dim as u64) * 8
    }
}

impl ChunkedSource for BlockFileSource {
    fn len(&self) -> usize {
        self.rows
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn block_rows(&self) -> usize {
        self.block_rows
    }

    fn read_block(&self, block: usize, out: &mut PointMatrix) -> Result<(), DataError> {
        check_block_buffer(self.dim, out)?;
        let range = self.block_range(block);
        let values = range.len() * self.dim;
        let block_bytes = (values * 8) as u64;
        let mut state = self.state.lock().expect("BlockFileSource state poisoned");
        let state = &mut *state;

        out.clear();
        if let Some(data) = state.cache.get(&block) {
            out.extend_from_flat(data)?;
            state.stats.hits += 1;
        } else {
            // Miss: one seek, then read through the reused stage and
            // decode each chunk straight into `out`, so a miss never
            // materializes more than the caller's block copy (plus the
            // stage, excluded from the feature-byte accounting).
            let offset = HEADER_BYTES + (range.start as u64) * (self.dim as u64) * 8;
            state.file.seek(SeekFrom::Start(offset))?;
            let row_bytes = self.dim * 8;
            // Sized by the full block, so the stage is allocated on the
            // first miss and never resized again.
            let stage_rows = (STAGE_BYTES / row_bytes).clamp(1, self.block_rows);
            state.stage.resize(stage_rows * row_bytes, 0);
            let mut remaining = range.len();
            while remaining > 0 {
                let take = remaining.min(stage_rows);
                let chunk = &mut state.stage[..take * row_bytes];
                state.file.read_exact(chunk)?;
                out.extend_from_le_bytes(chunk);
                remaining -= take;
            }
            state.stats.loads += 1;
            // Admit while the block fits in what remains of the budget
            // after the caller's working copy; never evict.
            let capacity = self.budget_bytes - ((self.block_rows * self.dim * 8) as u64);
            if state.cache_bytes + block_bytes <= capacity {
                state.cache_bytes += block_bytes;
                state.cache.insert(block, out.as_slice().to_vec());
            }
        }
        let resident = state.cache_bytes + block_bytes;
        state.stats.peak_bytes = state.stats.peak_bytes.max(resident);
        debug_assert!(state.stats.peak_bytes <= self.budget_bytes);
        Ok(())
    }

    fn residency(&self) -> Residency {
        self.state
            .lock()
            .expect("BlockFileSource state poisoned")
            .stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::LabelColumn;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("kmeans_blockfile_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn matrix(n: usize, dim: usize) -> PointMatrix {
        PointMatrix::from_flat((0..n * dim).map(|i| (i as f64).sin()).collect(), dim).unwrap()
    }

    #[test]
    fn write_then_read_round_trips_bitwise() {
        let path = tmp("roundtrip.skmb");
        let m = matrix(23, 5);
        write_block_file(&path, &m, 4).unwrap();
        assert!(is_block_file(&path));
        let source = BlockFileSource::open(&path, 1 << 20).unwrap();
        assert_eq!(source.len(), 23);
        assert_eq!(source.dim(), 5);
        assert_eq!(source.num_blocks(), 6);
        let mut buf = source.block_buffer();
        for b in 0..source.num_blocks() {
            source.read_block(b, &mut buf).unwrap();
            let range = source.block_range(b);
            for (off, row) in buf.rows().enumerate() {
                assert_eq!(row, m.row(range.start + off), "row {}", range.start + off);
            }
        }
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn budget_bounds_peak_residency() {
        let path = tmp("budget.skmb");
        let m = matrix(64, 4); // 2048 B payload
        write_block_file(&path, &m, 8).unwrap(); // 256 B per block
                                                 // Budget of two blocks: one working copy + one cached.
        let source = BlockFileSource::open(&path, 512).unwrap();
        let mut buf = source.block_buffer();
        for pass in 0..3 {
            for b in 0..source.num_blocks() {
                source.read_block(b, &mut buf).unwrap();
            }
            let r = source.residency();
            assert!(
                r.peak_bytes <= 512,
                "pass {pass}: peak {} exceeds budget",
                r.peak_bytes
            );
        }
        let r = source.residency();
        assert!(r.peak_bytes < source.payload_bytes());
        assert_eq!(r.budget_bytes, Some(512));
        assert!(r.loads > 0);
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn cache_serves_repeated_reads() {
        let path = tmp("cache.skmb");
        let m = matrix(16, 2);
        write_block_file(&path, &m, 4).unwrap(); // 64 B per block
                                                 // Room for the working copy plus all four blocks.
        let source = BlockFileSource::open(&path, 64 * 5).unwrap();
        let mut buf = source.block_buffer();
        for _ in 0..3 {
            for b in 0..source.num_blocks() {
                source.read_block(b, &mut buf).unwrap();
            }
        }
        let r = source.residency();
        assert_eq!(r.loads, 4, "each block decoded once");
        assert_eq!(r.hits, 8, "subsequent passes served from cache");
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn fill_once_cache_hits_on_every_repeated_sweep() {
        let path = tmp("fill_once.skmb");
        let m = matrix(40, 2);
        // 10 blocks of 64 B, read under a budget of the working copy plus
        // a 3-block cache: ascending sweeps evict each block just before
        // its next use under LRU (zero hits).
        write_block_file(&path, &m, 4).unwrap();
        let source = BlockFileSource::open(&path, 64 * 4).unwrap();
        let capacity_blocks = 3;
        let mut buf = source.block_buffer();
        let mut before = source.residency();
        for sweep in 0..4 {
            for b in 0..source.num_blocks() {
                source.read_block(b, &mut buf).unwrap();
                let range = source.block_range(b);
                assert_eq!(
                    buf.as_slice(),
                    &m.as_slice()[range.start * 2..range.end * 2]
                );
            }
            let r = source.residency();
            let hits = if sweep == 0 { 0 } else { capacity_blocks };
            assert_eq!(r.hits - before.hits, hits, "sweep {sweep}: hits");
            assert_eq!(r.loads - before.loads, 10 - hits, "sweep {sweep}: loads");
            assert!(
                r.peak_bytes <= 64 * 4,
                "sweep {sweep}: peak {}",
                r.peak_bytes
            );
            before = r;
        }
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn fill_once_cache_admits_a_short_tail_block() {
        let path = tmp("fill_once_tail.skmb");
        let m = matrix(37, 2);
        // 9 blocks of 64 B plus a 16 B tail, read under a budget of the
        // working copy plus one full block and the tail.
        write_block_file(&path, &m, 4).unwrap();
        let source = BlockFileSource::open(&path, 64 * 2 + 16).unwrap();
        assert_eq!(source.num_blocks(), 10);
        let mut buf = source.block_buffer();
        for _ in 0..2 {
            for b in 0..source.num_blocks() {
                source.read_block(b, &mut buf).unwrap();
            }
        }
        // Blocks 0 and 9 (the tail) were admitted on the first sweep.
        let r = source.residency();
        assert_eq!((r.loads, r.hits), (18, 2));
        assert_eq!(r.peak_bytes, 64 * 2 + 16);
        source.read_block(9, &mut buf).unwrap();
        assert_eq!(buf.len(), 1);
        assert_eq!(buf.row(0), m.row(36));
        assert_eq!(source.residency().hits, 3, "the tail is served from cache");
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn budget_smaller_than_a_block_is_rejected() {
        let path = tmp("tiny_budget.skmb");
        write_block_file(&path, &matrix(8, 2), 4).unwrap();
        assert!(matches!(
            BlockFileSource::open(&path, 63),
            Err(DataError::InvalidParam(_))
        ));
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn malformed_files_are_rejected() {
        let path = tmp("bad_magic.skmb");
        std::fs::write(&path, b"NOTMAGIC________________").unwrap();
        assert!(matches!(
            BlockFileSource::open(&path, 1 << 20),
            Err(DataError::Format(_))
        ));
        assert!(!is_block_file(&path));

        let path = tmp("truncated.skmb");
        let m = matrix(8, 2);
        write_block_file(&path, &m, 4).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 8]).unwrap();
        assert!(matches!(
            BlockFileSource::open(&path, 1 << 20),
            Err(DataError::Format(_))
        ));

        let path = tmp("short.skmb");
        std::fs::write(&path, b"SKMB").unwrap();
        assert!(matches!(
            BlockFileSource::open(&path, 1 << 20),
            Err(DataError::Format(_))
        ));

        // Regression: adversarial header sizes must be rejected with a
        // typed error, never overflow (debug panic / wrapped truncation
        // check in release).
        let path = tmp("overflow.skmb");
        let mut header = Vec::new();
        header.extend_from_slice(&BLOCK_FILE_MAGIC);
        header.extend_from_slice(&8u32.to_le_bytes()); // dim
        header.extend_from_slice(&u32::MAX.to_le_bytes()); // block_rows
        header.extend_from_slice(&(1u64 << 61).to_le_bytes()); // rows
        std::fs::write(&path, &header).unwrap();
        assert!(matches!(
            BlockFileSource::open(&path, u64::MAX),
            Err(DataError::Format(_))
        ));
    }

    #[test]
    fn failed_conversion_leaves_no_stale_output() {
        let csv = tmp("stale.csv");
        std::fs::write(&csv, "1,2\n3,4\nbroken,row\n").unwrap();
        let out = tmp("stale.skmb");
        assert!(matches!(
            csv_to_block_file(&csv, &out, 2, LabelColumn::None),
            Err(DataError::Parse { line: 3, .. })
        ));
        assert!(
            !out.exists(),
            "half-written block file left behind after a failed conversion"
        );
        std::fs::remove_file(csv).unwrap();
    }

    #[test]
    fn writer_rejects_bad_rows_and_params() {
        assert!(BlockFileWriter::create(tmp("bad.skmb"), 0, 4).is_err());
        assert!(BlockFileWriter::create(tmp("bad.skmb"), 2, 0).is_err());
        let mut w = BlockFileWriter::create(tmp("dims.skmb"), 2, 4).unwrap();
        assert!(matches!(
            w.push_row(&[1.0]),
            Err(DataError::DimensionMismatch {
                expected: 2,
                got: 1
            })
        ));
    }

    #[test]
    fn csv_conversion_streams_and_round_trips() {
        let csv = tmp("convert.csv");
        std::fs::write(&csv, "x,y,label\n1,2,0\n3,4,1\n5,6,0\n").unwrap();
        let out = tmp("convert.skmb");
        let (rows, dim) = csv_to_block_file(&csv, &out, 2, LabelColumn::Last).unwrap();
        assert_eq!((rows, dim), (3, 2));
        let source = BlockFileSource::open(&out, 1 << 20).unwrap();
        assert_eq!(source.len(), 3);
        let mut buf = source.block_buffer();
        source.read_block(1, &mut buf).unwrap();
        assert_eq!(buf.row(0), &[5.0, 6.0]);
        std::fs::remove_file(csv).unwrap();
        std::fs::remove_file(out).unwrap();
    }
}
