//! Versioned, checksummed solve checkpoints.
//!
//! A [`SolveCheckpoint`] freezes everything a killed chromatic-number
//! solve has paid for and a resumed solve can soundly reuse:
//!
//! * the **bracket** `[lower, upper]` — committed ladder rungs are
//!   monotone facts about the graph, so a resumed ladder starts where the
//!   dead one stopped instead of re-proving every rung;
//! * the **incumbent witness** — the best proper coloring seen, so a
//!   resumed run that is killed again still has a feasible answer;
//! * the **learned clauses** that pass the share filter — each is entailed
//!   by the encoding plus the committed bounds, so re-committing the
//!   bounds first makes every persisted clause sound to re-import (see
//!   `docs/ROBUSTNESS.md`);
//! * the **worker seeds** that were running, so a resume can diversify
//!   away from them;
//! * a **graph fingerprint** and the SBP label, so a checkpoint is never
//!   silently replayed against a different instance or encoding;
//! * the **SBP vertex order** the ordered modes followed: learned clauses
//!   are entailed only by the SBP clauses they were learned under, so a
//!   resume whose rebuilt session follows another order keeps the bracket
//!   and witness but imports none of them.
//!
//! The on-disk format is a zero-dependency hand-rolled little-endian
//! binary layout: magic `SBGC`, a format version, the payload, and a
//! CRC-32 trailer over everything before it. [`SolveCheckpoint::load`] is
//! a trust boundary — truncated files, flipped bits, wrong versions and
//! structurally absurd payloads all come back as typed
//! [`CheckpointError`]s, never panics. Writes go through
//! `sbgc-obs::write_atomic` (temp file + rename), so a crash mid-write
//! leaves the previous checkpoint intact.

use sbgc_formula::Lit;
use sbgc_graph::Graph;
use sbgc_obs::FaultPlan;
use std::fmt;
use std::path::Path;

/// Magic prefix of every checkpoint file.
const MAGIC: [u8; 4] = *b"SBGC";
/// Current format version; bump on any layout change.
const FORMAT_VERSION: u32 = 2;
/// Decode guard: refuse absurd element counts before allocating (a
/// corrupted length prefix must not become a multi-gigabyte `Vec`).
const MAX_ELEMENTS: u64 = 1 << 28;

/// An order-insensitive identity of a graph instance: vertex count, edge
/// count, and a commutative hash over the edge set. Two isomorphic but
/// differently-labeled graphs get different fingerprints — a checkpoint
/// is only valid for the exact labeled graph it was written for, because
/// committed bounds ride on vertex-indexed encoding variables.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GraphFingerprint {
    /// Number of vertices.
    pub vertices: u64,
    /// Number of undirected edges.
    pub edges: u64,
    /// Commutative SplitMix64 hash over normalized edges.
    pub edge_hash: u64,
}

impl GraphFingerprint {
    /// Fingerprints `graph`. Edge order does not matter; labels do.
    pub fn of(graph: &Graph) -> Self {
        let mut hash = 0u64;
        for (u, v) in graph.edges() {
            let (lo, hi) = if u <= v { (u, v) } else { (v, u) };
            hash = hash.wrapping_add(splitmix64(((lo as u64) << 32) | hi as u64));
        }
        GraphFingerprint {
            vertices: graph.num_vertices() as u64,
            edges: graph.num_edges() as u64,
            edge_hash: hash,
        }
    }
}

impl fmt::Display for GraphFingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n={} m={} hash={:016x}", self.vertices, self.edges, self.edge_hash)
    }
}

/// Everything a killed solve persists and a resumed solve restores.
///
/// The struct is plain data; all soundness-critical re-validation (witness
/// propriety, bracket sanity against the graph, SBP compatibility)
/// happens in `supervisor::resume`, *after* [`SolveCheckpoint::load`] has
/// established structural integrity.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SolveCheckpoint {
    /// Identity of the graph the checkpoint belongs to.
    pub fingerprint: GraphFingerprint,
    /// Parseable name of the SBP mode the dead solve ran with (the
    /// committed bounds and learned clauses are only sound under the same
    /// encoding).
    pub sbp: String,
    /// The encoding ceiling (session `k`) of the dead solve; learned
    /// clauses reference its variables, so a resume with a different
    /// ceiling drops them.
    pub ceiling: u64,
    /// The vertex order the dead solve's SBP construction followed
    /// (`order[i]` is the vertex at position i; empty for modes that
    /// follow none).
    /// Its learned clauses are entailed only under those SBP clauses, so a
    /// resume with a different order drops them.
    pub sbp_order: Vec<u64>,
    /// Proven lower chromatic bound.
    pub lower: u64,
    /// Proven (witnessed) upper chromatic bound.
    pub upper: u64,
    /// The incumbent proper coloring backing `upper`, one color per
    /// vertex, when one was found.
    pub witness: Option<Vec<u64>>,
    /// RNG seed of each portfolio worker that was running.
    pub worker_seeds: Vec<u64>,
    /// Learned clauses passing the share filter, as `(literals, LBD)`.
    pub clauses: Vec<(Vec<Lit>, u32)>,
}

/// Why a checkpoint failed to load, decode, or persist. Every constructor
/// on the load path returns one of these — corrupted input is an error
/// value, never a panic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckpointError {
    /// Reading or writing the file failed (I/O detail flattened to a
    /// string so the error stays `Clone + Eq`).
    Io {
        /// The path involved.
        path: String,
        /// The underlying I/O error, stringified.
        detail: String,
    },
    /// The file does not start with the `SBGC` magic — not a checkpoint.
    BadMagic,
    /// The file's format version is not the one this build reads (an
    /// older or a newer layout).
    UnsupportedVersion(u32),
    /// The CRC-32 trailer does not match the payload: bit rot, a flipped
    /// byte, or a truncated tail.
    ChecksumMismatch {
        /// CRC stored in the file.
        stored: u32,
        /// CRC computed over the payload actually read.
        computed: u32,
    },
    /// The payload is structurally invalid (truncated field, absurd
    /// length prefix, out-of-range literal code, inconsistent bracket).
    Malformed(String),
    /// The checkpoint belongs to a different graph than the one being
    /// resumed.
    GraphMismatch {
        /// Fingerprint stored in the checkpoint.
        stored: GraphFingerprint,
        /// Fingerprint of the graph the caller is resuming.
        resuming: GraphFingerprint,
    },
    /// The checkpoint's SBP mode name is unknown to this build or
    /// incompatible with the resume options.
    SbpMismatch {
        /// SBP name stored in the checkpoint.
        stored: String,
        /// What the resume expected, or why the name was rejected.
        detail: String,
    },
    /// The restored witness failed re-validation at the trust boundary
    /// (wrong length, improper coloring, or color count disagreeing with
    /// the stored upper bound).
    InvalidWitness(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io { path, detail } => {
                write!(f, "checkpoint I/O error on {path}: {detail}")
            }
            CheckpointError::BadMagic => {
                write!(f, "not a checkpoint file (missing SBGC magic)")
            }
            CheckpointError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported checkpoint format version {v} (this build reads only version {FORMAT_VERSION})"
                )
            }
            CheckpointError::ChecksumMismatch { stored, computed } => {
                write!(
                    f,
                    "checkpoint checksum mismatch (stored {stored:08x}, computed {computed:08x}): file is corrupted or truncated"
                )
            }
            CheckpointError::Malformed(detail) => {
                write!(f, "malformed checkpoint payload: {detail}")
            }
            CheckpointError::GraphMismatch { stored, resuming } => {
                write!(
                    f,
                    "checkpoint is for a different graph (checkpoint: {stored}; resuming: {resuming})"
                )
            }
            CheckpointError::SbpMismatch { stored, detail } => {
                write!(f, "checkpoint SBP mode {stored:?} rejected: {detail}")
            }
            CheckpointError::InvalidWitness(detail) => {
                write!(f, "checkpoint witness failed re-validation: {detail}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

impl SolveCheckpoint {
    /// Serializes the checkpoint to its on-disk byte layout (magic,
    /// version, payload, CRC-32 trailer).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(64 + self.clauses.len() * 16);
        buf.extend_from_slice(&MAGIC);
        put_u32(&mut buf, FORMAT_VERSION);
        put_u64(&mut buf, self.fingerprint.vertices);
        put_u64(&mut buf, self.fingerprint.edges);
        put_u64(&mut buf, self.fingerprint.edge_hash);
        put_bytes(&mut buf, self.sbp.as_bytes());
        put_u64(&mut buf, self.ceiling);
        put_u64(&mut buf, self.sbp_order.len() as u64);
        for &v in &self.sbp_order {
            put_u64(&mut buf, v);
        }
        put_u64(&mut buf, self.lower);
        put_u64(&mut buf, self.upper);
        match &self.witness {
            None => buf.push(0),
            Some(colors) => {
                buf.push(1);
                put_u64(&mut buf, colors.len() as u64);
                for &c in colors {
                    put_u64(&mut buf, c);
                }
            }
        }
        put_u64(&mut buf, self.worker_seeds.len() as u64);
        for &seed in &self.worker_seeds {
            put_u64(&mut buf, seed);
        }
        put_u64(&mut buf, self.clauses.len() as u64);
        for (lits, lbd) in &self.clauses {
            put_u32(&mut buf, *lbd);
            put_u64(&mut buf, lits.len() as u64);
            for &lit in lits {
                put_u32(&mut buf, lit.code() as u32);
            }
        }
        let crc = crc32(&buf);
        put_u32(&mut buf, crc);
        buf
    }

    /// Decodes a checkpoint from its on-disk byte layout.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::BadMagic`] when the prefix is wrong,
    /// [`CheckpointError::UnsupportedVersion`] for any format version but
    /// the current one,
    /// [`CheckpointError::ChecksumMismatch`] when the CRC trailer
    /// disagrees with the payload (corruption, truncation), and
    /// [`CheckpointError::Malformed`] for structural damage the CRC
    /// happens to cover (absurd lengths, out-of-range literal codes,
    /// an inverted bracket).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CheckpointError> {
        // Magic and version are checked before the CRC so the caller
        // learns "not a checkpoint at all" and "another format version"
        // distinctly; both checks read only fixed offsets.
        if bytes.len() < MAGIC.len() || bytes[..MAGIC.len()] != MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        let mut r = Reader { bytes, at: MAGIC.len() };
        let version = r.u32()?;
        if version != FORMAT_VERSION {
            return Err(CheckpointError::UnsupportedVersion(version));
        }
        if bytes.len() < MAGIC.len() + 4 + 4 {
            return Err(CheckpointError::Malformed("no room for a CRC trailer".to_string()));
        }
        let payload_end = bytes.len() - 4;
        let stored = u32::from_le_bytes(bytes[payload_end..].try_into().expect("4-byte slice"));
        let computed = crc32(&bytes[..payload_end]);
        if stored != computed {
            return Err(CheckpointError::ChecksumMismatch { stored, computed });
        }
        r.bytes = &bytes[..payload_end];
        let fingerprint =
            GraphFingerprint { vertices: r.u64()?, edges: r.u64()?, edge_hash: r.u64()? };
        let sbp = r.string()?;
        let ceiling = r.u64()?;
        let order_len = r.len(fingerprint.vertices)?;
        let mut sbp_order = Vec::with_capacity(order_len);
        for _ in 0..order_len {
            sbp_order.push(r.u64()?);
        }
        let lower = r.u64()?;
        let upper = r.u64()?;
        if lower > upper {
            return Err(CheckpointError::Malformed(format!("inverted bracket [{lower}, {upper}]")));
        }
        let witness = match r.u8()? {
            0 => None,
            1 => {
                let len = r.len(fingerprint.vertices.max(1))?;
                let mut colors = Vec::with_capacity(len);
                for _ in 0..len {
                    colors.push(r.u64()?);
                }
                Some(colors)
            }
            tag => {
                return Err(CheckpointError::Malformed(format!("bad witness tag {tag}")));
            }
        };
        let num_seeds = r.len(MAX_ELEMENTS)?;
        let mut worker_seeds = Vec::with_capacity(num_seeds);
        for _ in 0..num_seeds {
            worker_seeds.push(r.u64()?);
        }
        let num_clauses = r.len(MAX_ELEMENTS)?;
        let mut clauses = Vec::with_capacity(num_clauses.min(1024));
        for _ in 0..num_clauses {
            let lbd = r.u32()?;
            let len = r.len(MAX_ELEMENTS)?;
            let mut lits = Vec::with_capacity(len.min(1024));
            for _ in 0..len {
                lits.push(Lit::from_code(r.u32()? as usize));
            }
            clauses.push((lits, lbd));
        }
        if !r.done() {
            return Err(CheckpointError::Malformed(format!(
                "{} trailing payload bytes",
                r.bytes.len() - r.at
            )));
        }
        Ok(SolveCheckpoint {
            fingerprint,
            sbp,
            ceiling,
            sbp_order,
            lower,
            upper,
            witness,
            worker_seeds,
            clauses,
        })
    }

    /// Atomically persists the checkpoint to `path` (write temp file,
    /// flush, rename): a crash at any instant leaves either the previous
    /// checkpoint or this one, never a truncated hybrid.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] on any filesystem failure (including an
    /// injected one when `fault` schedules artifact-write failures).
    pub fn save(&self, path: &Path, fault: Option<&FaultPlan>) -> Result<(), CheckpointError> {
        sbgc_obs::write_atomic_instrumented(path, &self.to_bytes(), fault).map_err(|e| {
            CheckpointError::Io { path: path.display().to_string(), detail: e.to_string() }
        })
    }

    /// Loads and structurally validates a checkpoint from `path`.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] when the file cannot be read, otherwise
    /// everything [`SolveCheckpoint::from_bytes`] can return.
    pub fn load(path: &Path) -> Result<Self, CheckpointError> {
        let bytes = std::fs::read(path).map_err(|e| CheckpointError::Io {
            path: path.display().to_string(),
            detail: e.to_string(),
        })?;
        Self::from_bytes(&bytes)
    }
}

struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Reader<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8], CheckpointError> {
        let end = self.at.checked_add(n).filter(|&e| e <= self.bytes.len()).ok_or_else(|| {
            CheckpointError::Malformed(format!("truncated: wanted {n} bytes at offset {}", self.at))
        })?;
        let slice = &self.bytes[self.at..end];
        self.at = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, CheckpointError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4-byte slice")))
    }

    fn u64(&mut self) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8-byte slice")))
    }

    /// Reads a length prefix and bounds it: a corrupted count must not
    /// drive a huge allocation or a long decode loop.
    fn len(&mut self, max: u64) -> Result<usize, CheckpointError> {
        let n = self.u64()?;
        if n > max {
            return Err(CheckpointError::Malformed(format!("length {n} exceeds bound {max}")));
        }
        Ok(n as usize)
    }

    fn string(&mut self) -> Result<String, CheckpointError> {
        let n = self.len(4096)?;
        let raw = self.take(n)?.to_vec();
        String::from_utf8(raw)
            .map_err(|_| CheckpointError::Malformed("non-UTF-8 string field".to_string()))
    }

    fn done(&self) -> bool {
        self.at == self.bytes.len()
    }
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_bytes(buf: &mut Vec<u8>, bytes: &[u8]) {
    put_u64(buf, bytes.len() as u64);
    buf.extend_from_slice(bytes);
}

/// CRC-32 (IEEE 802.3, reflected), bitwise — checkpoint files are small
/// enough that a lookup table would be vanity.
fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// SplitMix64 — same mixer the portfolio uses for seed diversification.
fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbgc_formula::Var;
    use sbgc_graph::Graph;

    fn sample() -> SolveCheckpoint {
        let lit = |code: usize| Lit::from_code(code);
        SolveCheckpoint {
            fingerprint: GraphFingerprint { vertices: 36, edges: 290, edge_hash: 0xDEAD_BEEF },
            sbp: "ValPrec".to_string(),
            ceiling: 8,
            sbp_order: (0..36).rev().collect(),
            lower: 6,
            upper: 8,
            witness: Some((0..36).map(|v| v % 8).collect()),
            worker_seeds: vec![0, 1, 2, 3],
            clauses: vec![(vec![lit(0), lit(3), lit(7)], 2), (vec![lit(5)], 1)],
        }
    }

    #[test]
    fn round_trips_bit_exact() {
        let ckpt = sample();
        let bytes = ckpt.to_bytes();
        assert_eq!(SolveCheckpoint::from_bytes(&bytes).unwrap(), ckpt);
        // And without optional parts.
        let bare = SolveCheckpoint {
            sbp_order: Vec::new(),
            witness: None,
            worker_seeds: Vec::new(),
            clauses: Vec::new(),
            ..ckpt
        };
        assert_eq!(SolveCheckpoint::from_bytes(&bare.to_bytes()).unwrap(), bare);
    }

    #[test]
    fn every_single_bit_flip_is_rejected() {
        let bytes = sample().to_bytes();
        for byte in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[byte] ^= 1;
            let err =
                SolveCheckpoint::from_bytes(&corrupt).expect_err("a flipped bit must never decode");
            match err {
                CheckpointError::ChecksumMismatch { .. }
                | CheckpointError::BadMagic
                | CheckpointError::UnsupportedVersion(_)
                | CheckpointError::Malformed(_) => {}
                other => panic!("unexpected error class for flip at {byte}: {other:?}"),
            }
        }
    }

    #[test]
    fn every_truncation_is_rejected() {
        let bytes = sample().to_bytes();
        for keep in 0..bytes.len() {
            assert!(
                SolveCheckpoint::from_bytes(&bytes[..keep]).is_err(),
                "truncation to {keep} bytes must be rejected"
            );
        }
    }

    #[test]
    fn future_version_is_a_typed_error() {
        let mut bytes = sample().to_bytes();
        bytes[4..8].copy_from_slice(&99u32.to_le_bytes());
        assert_eq!(
            SolveCheckpoint::from_bytes(&bytes),
            Err(CheckpointError::UnsupportedVersion(99))
        );
    }

    #[test]
    fn version_1_files_are_refused_truthfully() {
        // A genuine version-1 layout: no SBP-order field, CRC intact.
        let ckpt = SolveCheckpoint { sbp_order: Vec::new(), ..sample() };
        let v2 = ckpt.to_bytes();
        let order_at = 4 + 4 + 24 + 8 + ckpt.sbp.len() + 8;
        assert_eq!(v2[order_at..order_at + 8], 0u64.to_le_bytes(), "empty order length");
        let mut v1 = [&v2[..order_at], &v2[order_at + 8..v2.len() - 4]].concat();
        v1[4..8].copy_from_slice(&1u32.to_le_bytes());
        let crc = crc32(&v1);
        put_u32(&mut v1, crc);
        let err = SolveCheckpoint::from_bytes(&v1).unwrap_err();
        assert_eq!(err, CheckpointError::UnsupportedVersion(1));
        assert_eq!(
            err.to_string(),
            "unsupported checkpoint format version 1 (this build reads only version 2)"
        );
    }

    #[test]
    fn order_longer_than_the_graph_is_malformed() {
        let mut ckpt = sample();
        ckpt.sbp_order = (0..37).collect();
        match SolveCheckpoint::from_bytes(&ckpt.to_bytes()) {
            Err(CheckpointError::Malformed(msg)) => assert!(msg.contains("exceeds bound 36")),
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    #[test]
    fn absurd_length_prefix_does_not_allocate() {
        // Hand-craft a payload whose seed count claims 2^60 entries; the
        // decoder must reject the length, not try to reserve it.
        let mut ckpt = sample();
        ckpt.witness = None;
        let mut bytes = ckpt.to_bytes();
        let crc_at = bytes.len() - 4;
        // Seed-count field sits right after the witness tag: magic (4) +
        // version (4) + fingerprint (24) + sbp (8 + len) + ceiling (8) +
        // order (8 + 8 per vertex) + lower/upper (16) + witness tag (1).
        let seeds_at = 4 + 4 + 24 + 8 + ckpt.sbp.len() + 8 + 8 + 8 * 36 + 16 + 1;
        bytes[seeds_at..seeds_at + 8].copy_from_slice(&(1u64 << 60).to_le_bytes());
        let fixed = crc32(&bytes[..crc_at]);
        bytes[crc_at..].copy_from_slice(&fixed.to_le_bytes());
        match SolveCheckpoint::from_bytes(&bytes) {
            Err(CheckpointError::Malformed(msg)) => assert!(msg.contains("exceeds bound")),
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    #[test]
    fn inverted_bracket_is_malformed() {
        let mut ckpt = sample();
        ckpt.lower = 9;
        ckpt.upper = 3;
        ckpt.witness = None;
        match SolveCheckpoint::from_bytes(&ckpt.to_bytes()) {
            Err(CheckpointError::Malformed(msg)) => assert!(msg.contains("inverted")),
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    #[test]
    fn fingerprint_is_edge_order_insensitive_but_label_sensitive() {
        let a = Graph::from_edges(4, [(0, 1), (2, 3)]);
        let b = Graph::from_edges(4, [(3, 2), (1, 0)]);
        assert_eq!(GraphFingerprint::of(&a), GraphFingerprint::of(&b));
        let c = Graph::from_edges(4, [(0, 1), (1, 2)]);
        assert_ne!(GraphFingerprint::of(&a), GraphFingerprint::of(&c));
    }

    #[test]
    fn save_and_load_round_trip_atomically() {
        let mut path = std::env::temp_dir();
        path.push(format!("sbgc-ckpt-{}.bin", std::process::id()));
        let ckpt = sample();
        ckpt.save(&path, None).unwrap();
        assert_eq!(SolveCheckpoint::load(&path).unwrap(), ckpt);
        // An injected write failure leaves the old checkpoint readable.
        let fault = FaultPlan::new(1).with_artifact_write_failure();
        let denied = SolveCheckpoint { upper: 7, ..ckpt.clone() };
        match denied.save(&path, Some(&fault)) {
            Err(CheckpointError::Io { detail, .. }) => {
                assert!(detail.contains("injected fault"));
            }
            other => panic!("expected Io error, got {other:?}"),
        }
        assert_eq!(SolveCheckpoint::load(&path).unwrap(), ckpt, "old file must survive");
        // A corrupted write is caught by the CRC at load.
        let fault = FaultPlan::new(2).with_checkpoint_corruption(21);
        ckpt.save(&path, Some(&fault)).unwrap();
        assert!(matches!(
            SolveCheckpoint::load(&path),
            Err(CheckpointError::ChecksumMismatch { .. })
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn load_of_missing_file_is_io_error() {
        let err = SolveCheckpoint::load(Path::new("/nonexistent/sbgc.ckpt")).unwrap_err();
        assert!(matches!(err, CheckpointError::Io { .. }));
    }

    #[test]
    fn lit_codes_survive_the_round_trip() {
        let v = Var::from_index(12);
        let ckpt = SolveCheckpoint {
            clauses: vec![(vec![v.positive(), !Var::from_index(3).positive()], 4)],
            witness: None,
            ..sample()
        };
        let back = SolveCheckpoint::from_bytes(&ckpt.to_bytes()).unwrap();
        assert_eq!(back.clauses[0].0[0], v.positive());
        assert_eq!(back.clauses[0].0[1].var(), Var::from_index(3));
        assert!(back.clauses[0].0[1].is_negated());
    }
}
