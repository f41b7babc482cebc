//! Evidence-ledger primitives: the hash chain, sealed block headers and
//! Merkle inclusion proofs that make the journal *tamper-evident*, not
//! merely crash-safe.
//!
//! The paper's settlement story needs more than replayability: a tenant
//! disputing an invoice should be handed a piece of evidence they can
//! check **without** trusting the provider to replay the whole journal
//! honestly. This module supplies the three layers that story stands on:
//!
//! 1. **The hash chain.** Every journal line embeds the digest of the
//!    chain up to its predecessor (`{"prev":"<hex>","entry":…}`), and the
//!    chain folds over the *canonical line bytes* — the exact bytes the
//!    PR-5 streaming serializer committed. Duplicating, reordering or
//!    deleting a line anywhere before the torn tail breaks the fold at
//!    the first bad entry, and [`crate::journal::parse_journal`] says so.
//!    The chain is entry-type-agnostic: the submission-side
//!    `Accepted` lines are chained exactly like runs and receipts, so
//!    the accepted-but-unreleased backlog is as tamper-evident as the
//!    billing record. And because the chain head advances only after
//!    the sink accepts a commit, a *failed* write never burns a link —
//!    the retry/failover path (see [`crate::faults`]) re-frames from
//!    the same `prev` with no chain gap.
//! 2. **Sealed block headers.** When a segment rotates (including the
//!    forced rotation before a checkpoint), the sink writes a
//!    [`BlockHeader`] beside it: a Merkle root over the segment's lines,
//!    the range of job ids they name ([`JobRange`]) and the chain values
//!    at the segment's boundaries, signed with an HMAC under a
//!    [`SealKey`] derived from the fleet seed. A flipped byte, a spliced
//!    segment from another fleet, or a rewritten history now has to forge
//!    the seal, not just rewrite JSON.
//! 3. **Inclusion proofs.** An [`InclusionProof`] carries one line, its
//!    Merkle path and the sealed header; [`InclusionProof::verify`]
//!    checks it against the seal key alone — no journal, no replay — so a
//!    [`crate::FleetService::dispute`] verdict is pinned to exactly the
//!    chained bytes that justify it.
//!
//! Everything here is deterministic: the same entries produce the same
//! chain, roots and seals whatever the worker count, which is what lets
//! the recovery contract stay bit-identical with sealing on.

use serde::{Deserialize, Serialize};

use crate::executor::JobId;
use crate::journal::JournalEntry;
use trustmeter_core::Sha256;

/// A 32-byte SHA-256 digest, the unit of the chain and the Merkle tree.
pub type ChainDigest = [u8; 32];

// Domain separators: every digest in the ledger states what it is, so a
// leaf can never be replayed as a link, a node as a leaf, or a seal as
// either.
const GENESIS_DOMAIN: &[u8] = b"trustmeter-evidence/genesis/v1";
const LINK_DOMAIN: &[u8] = b"trustmeter-evidence/link/v1";
const LEAF_DOMAIN: &[u8] = b"trustmeter-evidence/leaf/v1";
const NODE_DOMAIN: &[u8] = b"trustmeter-evidence/node/v1";
const SEAL_KEY_DOMAIN: &[u8] = b"trustmeter-evidence/seal-key/v1";
const SEAL_DOMAIN: &[u8] = b"trustmeter-evidence/seal/v1";

/// The chain value before the first entry of a journal born empty.
///
/// Deliberately fleet-independent: what binds a journal to *its* fleet is
/// the [`SealKey`] signature over the block headers, not the starting
/// constant — a journal whose live head starts at a retired checkpoint
/// has no genesis on disk at all.
pub fn genesis() -> ChainDigest {
    Sha256::digest(GENESIS_DOMAIN)
}

/// Folds one committed line into the chain: `SHA-256(domain ‖ prev ‖
/// leaf)` where `leaf` is [`leaf_digest`] of the canonical line bytes
/// (no trailing newline). Folding over the leaf rather than the raw
/// bytes means each line is hashed **once** when it is written:
/// [`crate::Journal::append_batch`] computes the leaf and the link and
/// hands both to the sink ([`crate::Framed`]), so the same leaf feeds the
/// chain and a sealing sink's Merkle tree.
pub fn link_leaf(prev: &ChainDigest, leaf: &ChainDigest) -> ChainDigest {
    let mut h = Sha256::new();
    h.update(LINK_DOMAIN);
    h.update(prev);
    h.update(leaf);
    h.finalize()
}

/// The Merkle leaf digest of one committed line.
pub fn leaf_digest(line: &[u8]) -> ChainDigest {
    let mut h = Sha256::new();
    h.update(LEAF_DOMAIN);
    h.update(line);
    h.finalize()
}

fn node_digest(left: &ChainDigest, right: &ChainDigest) -> ChainDigest {
    let mut h = Sha256::new();
    h.update(NODE_DOMAIN);
    h.update(left);
    h.update(right);
    h.finalize()
}

/// One step of a Merkle path: the sibling digest and which side it sits
/// on.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProofStep {
    /// The sibling digest, hex-encoded.
    pub sibling: String,
    /// Whether the sibling is the *left* input of the parent node.
    pub sibling_left: bool,
}

/// The Merkle tree over a segment's leaf digests, every level kept, so one
/// build gives the root and every leaf's path. Levels pair left to right,
/// and an odd last node is promoted unchanged.
#[derive(Debug)]
pub struct MerkleTree {
    /// The leaves, then each level above them, up to the root.
    levels: Vec<Vec<ChainDigest>>,
}

impl MerkleTree {
    /// Builds the tree over `leaves`.
    pub fn new(leaves: &[ChainDigest]) -> MerkleTree {
        let mut levels = vec![leaves.to_vec()];
        while let Some(level) = levels.last().filter(|level| level.len() > 1) {
            let next = level
                .chunks(2)
                .map(|pair| match pair {
                    [left, right] => node_digest(left, right),
                    [odd] => *odd,
                    _ => unreachable!("chunks(2) yields 1- or 2-element slices"),
                })
                .collect();
            levels.push(next);
        }
        MerkleTree { levels }
    }

    /// The root. A tree over no leaves roots at the bare leaf domain
    /// (sealed segments are never empty, but the tree is total).
    pub fn root(&self) -> ChainDigest {
        match self.levels.last().map(Vec::as_slice) {
            Some([root]) => *root,
            _ => Sha256::digest(LEAF_DOMAIN),
        }
    }

    /// The path authenticating leaf `index` against [`MerkleTree::root`]:
    /// its sibling at each level, bottom up. A promoted odd node has no
    /// sibling and contributes no step.
    ///
    /// # Panics
    /// Panics if `index` is out of bounds.
    pub fn path(&self, index: usize) -> Vec<ProofStep> {
        assert!(index < self.levels[0].len(), "proof index out of bounds");
        let mut path = Vec::new();
        let mut at = index;
        for level in &self.levels[..self.levels.len() - 1] {
            let sibling = at ^ 1;
            if let Some(digest) = level.get(sibling) {
                path.push(ProofStep {
                    sibling: Sha256::to_hex(digest),
                    sibling_left: sibling < at,
                });
            }
            at /= 2;
        }
        path
    }
}

/// Whether `path` has the length and side flags [`MerkleTree::path`]
/// gives leaf `index` of a tree of `width` leaves. Under the odd-promotion
/// rule these follow from `(index, width)` alone — each level's flag is a
/// bit of `index`, and a promoted level has no step — so a path that folds
/// to the root *and* fits proves the leaf sits at `index`, not merely
/// somewhere in the tree.
fn path_fits(path: &[ProofStep], index: u64, width: u64) -> bool {
    let (mut at, mut width) = (index, width);
    let mut steps = path.iter();
    while width > 1 {
        let sibling = at ^ 1;
        if sibling < width {
            match steps.next() {
                Some(step) if step.sibling_left == (sibling < at) => {}
                _ => return false,
            }
        }
        at /= 2;
        width = width.div_ceil(2);
    }
    steps.next().is_none()
}

/// Folds a leaf up a Merkle path; equals the root iff the leaf really
/// sits where the path claims.
pub fn fold_path(leaf: &ChainDigest, path: &[ProofStep]) -> Option<ChainDigest> {
    let mut acc = *leaf;
    for step in path {
        let sibling = Sha256::from_hex(&step.sibling)?;
        acc = if step.sibling_left {
            node_digest(&sibling, &acc)
        } else {
            node_digest(&acc, &sibling)
        };
    }
    Some(acc)
}

/// The ledger sealing key: derived from the fleet seed exactly like the
/// fleet's attestation key, so the party that can sign quotes is the
/// party that can seal blocks — and nobody else.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SealKey {
    secret: ChainDigest,
}

impl SealKey {
    /// Derives the sealing key for a fleet seed.
    pub fn from_seed(seed: u64) -> SealKey {
        let mut h = Sha256::new();
        h.update(SEAL_KEY_DOMAIN);
        h.update(&seed.to_be_bytes());
        SealKey {
            secret: h.finalize(),
        }
    }

    /// HMAC-SHA-256 over `message` under this key, domain-separated so a
    /// seal can never double as an attestation MAC.
    fn mac(&self, message: &[u8]) -> ChainDigest {
        let mut framed = Vec::with_capacity(SEAL_DOMAIN.len() + message.len());
        framed.extend_from_slice(SEAL_DOMAIN);
        framed.extend_from_slice(message);
        Sha256::hmac(&self.secret, &framed)
    }
}

/// The inclusive range of job ids a segment's lines name: the smallest
/// and the largest [`JournalEntry::job`] over the segment. A sealed
/// header carries it so [`crate::Journal::prove`] can skip every
/// segment whose range does not hold the disputed job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct JobRange {
    /// The smallest job id named.
    pub min: JobId,
    /// The largest job id named.
    pub max: JobId,
}

impl JobRange {
    /// `range` widened to hold `job`; a line that names no job (a
    /// checkpoint) leaves it as it is.
    pub fn widen(range: Option<JobRange>, job: Option<JobId>) -> Option<JobRange> {
        let Some(job) = job else {
            return range;
        };
        Some(match range {
            Some(range) => JobRange {
                min: range.min.min(job),
                max: range.max.max(job),
            },
            None => JobRange { min: job, max: job },
        })
    }

    /// The range of the ids `jobs` name; `None` if none names a job.
    pub fn of(jobs: impl IntoIterator<Item = Option<JobId>>) -> Option<JobRange> {
        jobs.into_iter().fold(None, JobRange::widen)
    }

    /// Whether `job` lies inside the range.
    pub fn contains(&self, job: JobId) -> bool {
        self.min <= job && job <= self.max
    }
}

/// The sealed header of one finished journal segment: what the segment
/// contained (Merkle root over its lines, the range of job ids they
/// name) and where it sat in the chain (boundary links), signed under
/// the fleet's [`SealKey`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BlockHeader {
    /// Header format version.
    pub version: u32,
    /// The segment index this header seals.
    pub segment: u64,
    /// Committed entry lines in the segment.
    pub entries: u64,
    /// The range of job ids the segment's lines name; `None` for a
    /// segment that holds only checkpoints.
    pub jobs: Option<JobRange>,
    /// Chain value before the segment's first line (hex).
    pub chain_prev: String,
    /// Chain value after the segment's last line (hex).
    pub chain_head: String,
    /// Merkle root over the segment's line leaves (hex).
    pub merkle_root: String,
    /// HMAC-SHA-256 over the canonical header bytes (with this field
    /// empty), under the fleet's [`SealKey`] (hex).
    pub seal: String,
}

impl BlockHeader {
    /// The current header format version. Version 1 headers also carried
    /// the checkpoint metric-family exclusion list; version 2 headers
    /// lacked the signed job-id range ([`BlockHeader::jobs`]), so a
    /// prover had to read every segment to find one job's lines; version
    /// 3 headers sealed `Run` lines that wrote digests as arrays of
    /// decimal bytes and repeated the outcome's facts in the reference
    /// and the quote (version 4 says each fact once, see
    /// [`crate::RunRecord`]). Readers reject every version but this one
    /// by name ([`crate::JournalError::UnsupportedHeader`],
    /// [`ProofError::UnsupportedHeader`]).
    pub const VERSION: u32 = 4;

    /// The canonical bytes the seal signs: this header serialized with an
    /// empty `seal` field.
    fn signing_bytes(&self) -> String {
        let mut unsigned = self.clone();
        unsigned.seal = String::new();
        serde_json::to_string(&unsigned).expect("block header serializes")
    }

    /// Signs this header in place under `key`.
    pub fn sign(&mut self, key: &SealKey) {
        self.seal = String::new();
        let mac = key.mac(self.signing_bytes().as_bytes());
        self.seal = Sha256::to_hex(&mac);
    }

    /// Whether `seal` is a valid signature over this header under `key`.
    pub fn verify_seal(&self, key: &SealKey) -> bool {
        match Sha256::from_hex(&self.seal) {
            Some(mac) => mac == key.mac(self.signing_bytes().as_bytes()),
            None => false,
        }
    }
}

/// Why an [`InclusionProof`] failed to verify.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProofError {
    /// The block header's seal does not verify under the given key: the
    /// header was forged, altered, or sealed by a different fleet.
    SealForged {
        /// The segment whose header failed.
        segment: u64,
    },
    /// The Merkle path does not fold from the line to the header's root:
    /// the line is not the committed member the proof claims.
    RootMismatch {
        /// The segment whose root was not reached.
        segment: u64,
        /// The leaf index the proof claimed.
        index: u64,
    },
    /// The proof's line is not a parseable chained journal line.
    MalformedEvidence {
        /// The parser's message.
        message: String,
    },
    /// The proof's block header is in a format this build does not read:
    /// its `version` is not [`BlockHeader::VERSION`].
    UnsupportedHeader {
        /// The segment whose header was rejected.
        segment: u64,
        /// The version the header declares.
        version: u32,
    },
}

impl std::fmt::Display for ProofError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProofError::SealForged { segment } => {
                write!(f, "segment {segment} header seal does not verify")
            }
            ProofError::RootMismatch { segment, index } => write!(
                f,
                "merkle path for leaf {index} does not reach segment {segment}'s sealed root"
            ),
            ProofError::MalformedEvidence { message } => {
                write!(f, "proof line is not a chained journal line: {message}")
            }
            ProofError::UnsupportedHeader { segment, version } => write!(
                f,
                "segment {segment} block header is version {version}; this build reads version {}",
                BlockHeader::VERSION
            ),
        }
    }
}

impl std::error::Error for ProofError {}

/// A self-contained membership proof: one journal line, its Merkle path,
/// and the sealed header of the segment that committed it.
/// [`InclusionProof::verify`] needs only the fleet's [`SealKey`] — no
/// journal access, no replay.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InclusionProof {
    /// The committed line, exactly as journaled (no trailing newline).
    pub line: String,
    /// The line's leaf index within its segment.
    pub index: u64,
    /// Sibling digests from the leaf up to the root.
    pub path: Vec<ProofStep>,
    /// The sealed header of the segment.
    pub header: BlockHeader,
}

impl InclusionProof {
    /// Verifies the proof against `key` and returns the proven entry:
    /// the header must be [`BlockHeader::VERSION`], its seal must verify,
    /// the path's shape must be the one leaf `index` of the sealed
    /// `entries` has, and the line's leaf must fold up the path to the
    /// sealed Merkle root — so the proof also authenticates the line's
    /// position in its segment.
    ///
    /// # Errors
    /// [`ProofError`] describing the first check that failed.
    pub fn verify(&self, key: &SealKey) -> Result<JournalEntry, ProofError> {
        if self.header.version != BlockHeader::VERSION {
            return Err(ProofError::UnsupportedHeader {
                segment: self.header.segment,
                version: self.header.version,
            });
        }
        if !self.header.verify_seal(key) {
            return Err(ProofError::SealForged {
                segment: self.header.segment,
            });
        }
        self.verify_against(&self.header)
    }

    /// Verifies only the Merkle membership, position included, against an
    /// already-trusted `header` (e.g. one re-checked out of band). This is
    /// the half the property tests exercise: a proof folds to *its*
    /// header's root and to no other's.
    ///
    /// # Errors
    /// [`ProofError::RootMismatch`] if `index` is not a leaf of the
    /// header's segment, the path's length and side flags are not the
    /// ones [`MerkleTree::path`] gives that leaf, or the path does not reach
    /// the header's root;
    /// [`ProofError::MalformedEvidence`] if the line does not parse.
    pub fn verify_against(&self, header: &BlockHeader) -> Result<JournalEntry, ProofError> {
        let mismatch = || ProofError::RootMismatch {
            segment: header.segment,
            index: self.index,
        };
        if self.index >= header.entries || !path_fits(&self.path, self.index, header.entries) {
            return Err(mismatch());
        }
        let leaf = leaf_digest(self.line.as_bytes());
        let folded = fold_path(&leaf, &self.path).ok_or_else(mismatch)?;
        if Some(folded) != Sha256::from_hex(&header.merkle_root) {
            return Err(mismatch());
        }
        let chained: ChainedLine =
            serde_json::from_str(&self.line).map_err(|e| ProofError::MalformedEvidence {
                message: e.to_string(),
            })?;
        Ok(chained.entry)
    }
}

/// The parsed form of one chained journal line:
/// `{"prev":"<hex>","entry":{…}}`.
#[derive(Debug, Clone, PartialEq, Deserialize)]
pub struct ChainedLine {
    /// The chain value before this entry, hex-encoded.
    pub prev: String,
    /// The journal entry itself.
    pub entry: JournalEntry,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaves(n: usize) -> Vec<ChainDigest> {
        (0..n)
            .map(|i| leaf_digest(format!("line-{i}").as_bytes()))
            .collect()
    }

    /// Chained journal lines, one `Accepted` entry each.
    fn chained_lines(n: usize) -> Vec<String> {
        use crate::executor::JobSpec;
        use crate::tenant::TenantId;
        use trustmeter_workloads::Workload;
        (0..n as u64)
            .map(|id| {
                let entry =
                    JournalEntry::accepted(JobSpec::clean(id, TenantId(1), Workload::LoopO, 0.001));
                format!(
                    "{{\"prev\":\"{}\",\"entry\":{}}}",
                    Sha256::to_hex(&genesis()),
                    serde_json::to_string(&entry).unwrap()
                )
            })
            .collect()
    }

    /// SHA-256 over the root, then every leaf's path (each sibling's hex
    /// and side), of the tree over [`leaves`]`(n)` for `n` in 1..=257,
    /// recorded from the level-by-level root and path functions the tree
    /// replaced.
    const SHAPES_DIGEST: &str = "6be8b51f1dc5df2005c9985d64e92af890073115a7ddbd4ea2bb8915b5dcf5b8";

    #[test]
    fn merkle_paths_fold_to_the_root_for_every_width() {
        for n in 1..=33 {
            let lines = chained_lines(n);
            let leaves: Vec<ChainDigest> =
                lines.iter().map(|l| leaf_digest(l.as_bytes())).collect();
            let tree = MerkleTree::new(&leaves);
            let root = tree.root();
            let header = BlockHeader {
                version: BlockHeader::VERSION,
                segment: 1,
                entries: n as u64,
                jobs: None,
                chain_prev: Sha256::to_hex(&genesis()),
                chain_head: Sha256::to_hex(&genesis()),
                merkle_root: Sha256::to_hex(&root),
                seal: String::new(),
            };
            for (i, leaf) in leaves.iter().enumerate() {
                let path = tree.path(i);
                assert_eq!(fold_path(leaf, &path), Some(root), "n={n} i={i}");
                let mut proof = InclusionProof {
                    line: lines[i].clone(),
                    index: i as u64,
                    path,
                    header: header.clone(),
                };
                assert!(proof.verify_against(&header).is_ok(), "n={n} i={i}");
                // The path's shape binds the index: no other index verifies.
                for j in (0..n as u64).filter(|&j| j != i as u64) {
                    proof.index = j;
                    assert_eq!(
                        proof.verify_against(&header).unwrap_err(),
                        ProofError::RootMismatch {
                            segment: 1,
                            index: j
                        },
                        "n={n} i={i} claimed {j}"
                    );
                }
            }
        }
        // Wider trees, checked without the quadratic index sweep: every
        // leaf's path fits its index and folds to the root, and the roots
        // and paths are the ones the tree replaced.
        let mut shapes = Sha256::new();
        for n in 1..=257 {
            let leaves = leaves(n);
            let tree = MerkleTree::new(&leaves);
            let root = tree.root();
            shapes.update(&root);
            for (i, leaf) in leaves.iter().enumerate() {
                let path = tree.path(i);
                assert_eq!(fold_path(leaf, &path), Some(root), "n={n} i={i}");
                assert!(path_fits(&path, i as u64, n as u64), "n={n} i={i}");
                for step in &path {
                    shapes.update(step.sibling.as_bytes());
                    shapes.update(&[u8::from(step.sibling_left)]);
                }
            }
        }
        assert_eq!(Sha256::to_hex(&shapes.finalize()), SHAPES_DIGEST);
    }

    #[test]
    fn a_path_does_not_fold_to_a_different_tree() {
        let a = leaves(5);
        let b = leaves(6);
        let path = MerkleTree::new(&a).path(2);
        assert_ne!(fold_path(&a[2], &path), Some(MerkleTree::new(&b).root()));
    }

    #[test]
    fn seals_verify_under_the_signing_key_only() {
        let key = SealKey::from_seed(7);
        let other = SealKey::from_seed(8);
        let mut header = BlockHeader {
            version: BlockHeader::VERSION,
            segment: 1,
            entries: 2,
            jobs: JobRange::of([Some(JobId(3)), None, Some(JobId(9))]),
            chain_prev: Sha256::to_hex(&genesis()),
            chain_head: Sha256::to_hex(&Sha256::digest(b"head")),
            merkle_root: Sha256::to_hex(&MerkleTree::new(&leaves(2)).root()),
            seal: String::new(),
        };
        header.sign(&key);
        assert!(header.verify_seal(&key));
        assert!(!header.verify_seal(&other));
        // A seal has one spelling: the same MAC in upper-case hex fails.
        let mut shouted = header.clone();
        shouted.seal = shouted.seal.to_uppercase();
        assert_ne!(shouted.seal, header.seal);
        assert!(!shouted.verify_seal(&key));
        // Any mutation of the sealed fields invalidates the seal.
        let mut doctored = header.clone();
        doctored.entries = 3;
        assert!(!doctored.verify_seal(&key));
        let mut downgraded = header.clone();
        downgraded.version = 1;
        assert!(!downgraded.verify_seal(&key));
        // The job-id range is sealed too: narrowing, widening or dropping
        // it breaks the seal.
        for jobs in [
            JobRange::of([Some(JobId(4)), Some(JobId(9))]),
            JobRange::of([Some(JobId(3)), Some(JobId(10))]),
            None,
        ] {
            let mut doctored = header.clone();
            doctored.jobs = jobs;
            assert!(!doctored.verify_seal(&key), "jobs {jobs:?}");
        }
    }

    #[test]
    fn job_ranges_widen_over_named_jobs_only() {
        assert_eq!(JobRange::of([None, None]), None);
        let range = JobRange::of([Some(JobId(7)), None, Some(JobId(3)), Some(JobId(5))]).unwrap();
        assert_eq!(
            range,
            JobRange {
                min: JobId(3),
                max: JobId(7)
            }
        );
        assert!(range.contains(JobId(3)) && range.contains(JobId(5)) && range.contains(JobId(7)));
        assert!(!range.contains(JobId(2)) && !range.contains(JobId(8)));
    }

    #[test]
    fn chain_links_are_order_sensitive() {
        let g = genesis();
        let (a, b) = (leaf_digest(b"a"), leaf_digest(b"b"));
        let ab = link_leaf(&link_leaf(&g, &a), &b);
        let ba = link_leaf(&link_leaf(&g, &b), &a);
        assert_ne!(ab, ba);
        assert_ne!(link_leaf(&g, &a), a, "domains differ");
    }
}
