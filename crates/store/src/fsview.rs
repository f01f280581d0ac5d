//! File-system flavoured content: paths, file reads, and grep — built
//! on the content-addressed chunk store.
//!
//! Models the paper's motivating example — "it should not only support
//! operations of the type `read FileName`, but also operations of the type
//! `grep Expression Path`" (Section 2).
//!
//! Since the chunked rebuild, a file is a [`FileManifest`] (ordered
//! chunk digests) in the path tree plus reference-counted chunk bytes in
//! a [`ChunkStore`]: identical content is stored once across files, an
//! append re-hashes only the tail chunk, and the Merkle digest commits
//! to manifests — so any single chunk of a file can be authenticated
//! without the rest of it (the streamed-read proof path).

use crate::chunk::{chunk_spans, ChunkId, ChunkStats, ChunkStore, FileManifest, ManifestEntry};
use crate::error::StoreError;
use crate::pattern::Pattern;
use crate::pmap::PMap;
use sdr_crypto::Hash256;

/// One grep hit: file, line number (1-based), and the matching line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GrepMatch {
    /// Path of the file containing the match.
    pub path: String,
    /// 1-based line number.
    pub line: u32,
    /// The matching line's text.
    pub text: String,
}

/// An in-memory tree of text files keyed by path.
///
/// Both layers are persistent ([`PMap`]): cloning a view is O(1) and
/// writes copy only the touched paths, so database snapshots share file
/// content (and the chunk store's bytes) structurally.
#[derive(Clone, Debug, Default)]
pub struct FsView {
    files: PMap<String, FileManifest>,
    store: ChunkStore,
}

impl FsView {
    /// Creates an empty view.
    pub fn new() -> Self {
        FsView::default()
    }

    /// Creates or replaces a file.
    pub fn write_file(&mut self, path: impl Into<String>, contents: impl Into<String>) {
        let path = path.into();
        let contents = contents.into();
        let old = self.files.get(&path).cloned();
        let manifest = self.store_chunks(contents.as_bytes());
        self.files.insert(path, manifest);
        if let Some(old) = old {
            self.release_manifest(&old);
        }
    }

    /// Appends to a file, creating it when absent.
    ///
    /// O(chunk), not O(file): only `tail-chunk ‖ contents` is re-chunked
    /// and re-hashed — the restart-at-cut chunker guarantees the result
    /// is byte-identical to re-chunking the whole file from scratch, so
    /// every earlier chunk's digest (and its dedup sharing) survives.
    pub fn append_file(&mut self, path: impl Into<String>, contents: &str) {
        let path = path.into();
        let Some(mut manifest) = self.files.get(&path).cloned() else {
            self.write_file(path, contents.to_string());
            return;
        };
        let old_tail = manifest.chunks.pop();
        let mut tail = Vec::with_capacity(
            old_tail.map_or(0, |e| e.len as usize) + contents.len(),
        );
        if let Some(entry) = old_tail {
            let bytes = self
                .store
                .get(&entry.id)
                .expect("manifest references a stored chunk");
            tail.extend_from_slice(bytes);
        }
        tail.extend_from_slice(contents.as_bytes());
        for (s, e) in chunk_spans(&tail) {
            let id = self.store.retain(&tail[s..e]);
            manifest.chunks.push(ManifestEntry {
                id,
                len: (e - s) as u32,
            });
        }
        // Release after retaining: an unchanged tail keeps its refcount.
        if let Some(entry) = old_tail {
            self.store.release(entry.id, entry.len);
        }
        manifest.total_len += contents.len() as u64;
        self.files.insert(path, manifest);
    }

    /// Deletes a file; fails when absent.
    pub fn delete_file(&mut self, path: &str) -> Result<(), StoreError> {
        match self.files.remove(path) {
            Some(manifest) => {
                self.release_manifest(&manifest);
                Ok(())
            }
            None => Err(StoreError::NoSuchFile(path.to_string())),
        }
    }

    /// Reads a file's contents (assembled from its chunks).
    pub fn read(&self, path: &str) -> Option<String> {
        let manifest = self.files.get(path)?;
        Some(self.assemble(manifest))
    }

    /// Reads `len` bytes of a file from byte `offset` (clamped to the
    /// file), touching only the overlapping chunks.
    pub fn read_range(&self, path: &str, offset: u64, len: u64) -> Option<String> {
        let manifest = self.files.get(path)?;
        let (first, end) = manifest.chunk_range(offset, len);
        if first == end {
            return Some(String::new());
        }
        let start_off = manifest.chunk_offset(first);
        let mut bytes = Vec::new();
        for entry in &manifest.chunks[first..end] {
            bytes.extend_from_slice(
                self.store
                    .get(&entry.id)
                    .expect("manifest references a stored chunk"),
            );
        }
        let lo = (offset.min(manifest.total_len) - start_off) as usize;
        let hi = (offset
            .saturating_add(len)
            .min(manifest.total_len)
            - start_off) as usize;
        Some(String::from_utf8_lossy(&bytes[lo..hi]).into_owned())
    }

    /// The chunk manifest of a file (what the Merkle digest commits to).
    pub fn manifest(&self, path: &str) -> Option<&FileManifest> {
        self.files.get(path)
    }

    /// The stored bytes of one chunk.
    pub fn chunk_bytes(&self, id: &ChunkId) -> Option<&[u8]> {
        self.store.get(id)
    }

    /// Lists paths under `prefix` (all files when empty).
    pub fn list(&self, prefix: &str) -> Vec<String> {
        self.files
            .iter_from(prefix)
            .take_while(|(p, _)| p.starts_with(prefix))
            .map(|(p, _)| p.clone())
            .collect()
    }

    /// Number of files.
    pub fn file_count(&self) -> usize {
        self.files.len()
    }

    /// Total bytes of file content (logical: dedup does not shrink it).
    pub fn total_bytes(&self) -> usize {
        self.store.stats().logical_bytes as usize
    }

    /// Chunk-store telemetry: distinct chunks, dedup hits, logical vs
    /// physical bytes.
    pub fn chunk_stats(&self) -> ChunkStats {
        self.store.stats()
    }

    /// Greps all files under `prefix` line-by-line with `pattern`
    /// (search semantics).  Returns the matches and the number of bytes
    /// scanned, which feeds query cost accounting.
    pub fn grep(&self, pattern: &Pattern, prefix: &str) -> (Vec<GrepMatch>, usize) {
        let mut matches = Vec::new();
        let mut scanned = 0usize;
        for (path, manifest) in self
            .files
            .iter_from(prefix)
            .take_while(|(p, _)| p.starts_with(prefix))
        {
            scanned += manifest.total_len as usize;
            let contents = self.assemble(manifest);
            for (i, line) in contents.lines().enumerate() {
                if pattern.search(line) {
                    matches.push(GrepMatch {
                        path: path.clone(),
                        line: (i + 1) as u32,
                        text: line.to_string(),
                    });
                }
            }
        }
        (matches, scanned)
    }

    /// The Merkle digest of the file tree (cached; see
    /// [`PMap::root_hash`]).  Commits to per-file manifests, whose chunk
    /// digests commit to every content byte.
    pub fn files_digest(&self) -> Hash256 {
        self.files.root_hash()
    }

    /// O(log n) inclusion (or absence) proof for a path against
    /// [`FsView::files_digest`] (see [`PMap::prove`]).
    pub fn prove_file(&self, path: &str) -> crate::pmap::InclusionProof<String> {
        self.files.prove(&path.to_string())
    }

    /// Shared-vs-owned node counts across the path tree and the chunk
    /// store (memory telemetry).
    pub fn node_stats(&self) -> crate::pmap::NodeStats {
        let mut stats = self.files.node_stats();
        stats.merge(self.store.node_stats());
        stats
    }

    /// Appends a canonical encoding of the whole tree (a linear scan —
    /// digests should prefer [`FsView::files_digest`]).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.files.len() as u64).to_be_bytes());
        for (path, manifest) in self.files.iter() {
            out.extend_from_slice(&(path.len() as u32).to_be_bytes());
            out.extend_from_slice(path.as_bytes());
            crate::pmap::MerkleContent::content_encode(manifest, out);
        }
    }

    /// Chunks `data`, retaining every chunk in the store, and returns
    /// the manifest.
    fn store_chunks(&mut self, data: &[u8]) -> FileManifest {
        let mut manifest = FileManifest {
            total_len: data.len() as u64,
            chunks: Vec::new(),
        };
        for (s, e) in chunk_spans(data) {
            let id = self.store.retain(&data[s..e]);
            manifest.chunks.push(ManifestEntry {
                id,
                len: (e - s) as u32,
            });
        }
        manifest
    }

    /// Drops one reference from every chunk of a manifest.
    fn release_manifest(&mut self, manifest: &FileManifest) {
        for entry in &manifest.chunks {
            self.store.release(entry.id, entry.len);
        }
    }

    /// Reassembles a manifest's contents from the chunk store.
    fn assemble(&self, manifest: &FileManifest) -> String {
        let mut bytes = Vec::with_capacity(manifest.total_len as usize);
        for entry in &manifest.chunks {
            bytes.extend_from_slice(
                self.store
                    .get(&entry.id)
                    .expect("manifest references a stored chunk"),
            );
        }
        String::from_utf8_lossy(&bytes).into_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fs() -> FsView {
        let mut f = FsView::new();
        f.write_file("/var/log/app.log", "boot ok\nerror: disk full\nshutdown\n");
        f.write_file("/var/log/db.log", "connected\nquery slow\n");
        f.write_file("/etc/config", "mode=fast\n");
        f
    }

    /// Deterministic multi-chunk content (mirrors the dataset's log files).
    fn big(lines: usize, tag: u64) -> String {
        (0..lines)
            .map(|l| format!("entry {l:05} tag={tag:04} code={:04}\n", (l as u64 * 31 + tag) % 9973))
            .collect()
    }

    #[test]
    fn read_write_delete() {
        let mut f = fs();
        assert!(f.read("/etc/config").unwrap().contains("mode=fast"));
        assert!(f.read("/missing").is_none());
        f.delete_file("/etc/config").unwrap();
        assert!(f.read("/etc/config").is_none());
        assert_eq!(
            f.delete_file("/etc/config"),
            Err(StoreError::NoSuchFile("/etc/config".into()))
        );
    }

    #[test]
    fn append_creates_and_extends() {
        let mut f = FsView::new();
        f.append_file("/a", "one\n");
        f.append_file("/a", "two\n");
        assert_eq!(f.read("/a").as_deref(), Some("one\ntwo\n"));
    }

    #[test]
    fn round_trips_multi_chunk_files() {
        let mut f = FsView::new();
        let contents = big(3_000, 7);
        f.write_file("/big", contents.clone());
        assert!(f.manifest("/big").unwrap().chunks.len() > 1);
        assert_eq!(f.read("/big").as_deref(), Some(contents.as_str()));
    }

    #[test]
    fn append_rehashes_only_the_tail_chunk() {
        let mut f = FsView::new();
        f.write_file("/log", big(3_000, 1));
        let before = f.manifest("/log").unwrap().clone();
        assert!(before.chunks.len() > 2);

        f.append_file("/log", "one more line\n");
        let after = f.manifest("/log").unwrap().clone();

        // Every chunk but the old tail is byte-identical (same digests).
        let stable = &before.chunks[..before.chunks.len() - 1];
        assert_eq!(&after.chunks[..stable.len()], stable);
        assert_eq!(
            after.total_len,
            before.total_len + "one more line\n".len() as u64
        );
        // And the manifest matches a from-scratch chunking of the result.
        let assembled = f.read("/log").unwrap();
        assert_eq!(after, FileManifest::of(assembled.as_bytes()));
    }

    #[test]
    fn shared_content_is_stored_once() {
        let mut f = FsView::new();
        let shared = big(2_000, 3);
        f.write_file("/a", shared.clone());
        let solo = f.chunk_stats();
        assert_eq!(solo.chunks_deduped, 0);
        assert_eq!(solo.logical_bytes, solo.physical_bytes);

        // A second file with the same body plus a distinct tail: all but
        // the tail chunk dedup against /a.
        f.write_file("/b", format!("{shared}unique trailer for b\n"));
        let both = f.chunk_stats();
        assert!(both.chunks_deduped > 0, "expected dedup hits");
        assert!(both.physical_bytes < both.logical_bytes);
        assert!(both.dedup_ratio() > 0.3, "ratio {}", both.dedup_ratio());

        // Deleting one sharer keeps the other readable.
        f.delete_file("/a").unwrap();
        assert!(f.read("/b").unwrap().starts_with("entry 00000"));
        // Dropping the last reference frees the bytes.
        f.delete_file("/b").unwrap();
        let empty = f.chunk_stats();
        assert_eq!(empty.chunks_stored, 0);
        assert_eq!(empty.physical_bytes, 0);
    }

    #[test]
    fn empty_files_round_trip() {
        let mut f = FsView::new();
        f.write_file("/empty", "");
        assert_eq!(f.read("/empty").as_deref(), Some(""));
        assert_eq!(f.manifest("/empty").unwrap().chunks.len(), 0);
        assert_eq!(f.read_range("/empty", 0, 10).as_deref(), Some(""));
        f.append_file("/empty", "now full");
        assert_eq!(f.read("/empty").as_deref(), Some("now full"));
        f.delete_file("/empty").unwrap();
        assert_eq!(f.chunk_stats().chunks_stored, 0);
    }

    #[test]
    fn read_range_matches_full_read() {
        let mut f = FsView::new();
        let contents = big(3_000, 9);
        f.write_file("/r", contents.clone());
        assert_eq!(
            f.read_range("/r", 0, u64::MAX).as_deref(),
            Some(contents.as_str())
        );
        assert_eq!(f.read_range("/r", 5, 40).as_deref(), Some(&contents[5..45]));
        let tail_off = contents.len() as u64 - 7;
        assert_eq!(
            f.read_range("/r", tail_off, 100).as_deref(),
            Some(&contents[contents.len() - 7..])
        );
        assert_eq!(f.read_range("/r", contents.len() as u64 + 1, 4).as_deref(), Some(""));
        assert!(f.read_range("/missing", 0, 4).is_none());
    }

    #[test]
    fn mid_file_edit_touches_only_local_chunks() {
        let mut f = FsView::new();
        let contents = big(4_000, 5);
        f.write_file("/doc", contents.clone());
        let before = f.manifest("/doc").unwrap().clone();
        assert!(before.chunks.len() > 4);

        // Flip one byte in the middle; rewrite the file.
        let mid = contents.len() / 2;
        let mut edited = contents.into_bytes();
        edited[mid] = b'#';
        f.write_file("/doc", String::from_utf8(edited).unwrap());
        let after = f.manifest("/doc").unwrap().clone();

        let changed = after
            .chunks
            .iter()
            .filter(|e| !before.chunks.contains(e))
            .count();
        // Only the chunk(s) around the edit differ; the rest dedup.
        assert!(changed >= 1);
        assert!(
            changed <= 3,
            "{changed} of {} chunks changed for a 1-byte edit",
            after.chunks.len()
        );
    }

    #[test]
    fn grep_finds_lines_with_line_numbers() {
        let f = fs();
        let pat = Pattern::compile("error").unwrap();
        let (hits, scanned) = f.grep(&pat, "/var/log");
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].path, "/var/log/app.log");
        assert_eq!(hits[0].line, 2);
        assert!(hits[0].text.contains("disk full"));
        assert!(scanned > 0);
    }

    #[test]
    fn grep_respects_prefix() {
        let f = fs();
        let pat = Pattern::compile("*").unwrap();
        let (hits_all, _) = f.grep(&pat, "");
        let (hits_etc, _) = f.grep(&pat, "/etc");
        assert!(hits_all.len() > hits_etc.len());
        assert!(hits_etc.iter().all(|m| m.path.starts_with("/etc")));
    }

    #[test]
    fn grep_glob_patterns() {
        let f = fs();
        let pat = Pattern::compile("mode=*").unwrap();
        let (hits, _) = f.grep(&pat, "");
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].path, "/etc/config");
    }

    #[test]
    fn list_and_counts() {
        let f = fs();
        assert_eq!(f.file_count(), 3);
        assert_eq!(f.list("/var").len(), 2);
        assert_eq!(f.list("").len(), 3);
        assert!(f.total_bytes() > 20);
    }

    #[test]
    fn encoding_sensitive_to_content() {
        let a = fs();
        let mut b = fs();
        b.append_file("/etc/config", "extra=1\n");
        let (mut ea, mut eb) = (Vec::new(), Vec::new());
        a.encode_into(&mut ea);
        b.encode_into(&mut eb);
        assert_ne!(ea, eb);
    }

    #[test]
    fn clone_shares_until_write() {
        let mut f = fs();
        let snap = f.clone();
        let snap_digest = snap.files_digest();
        f.append_file("/etc/config", "extra=1\n");
        f.delete_file("/var/log/db.log").unwrap();
        assert_eq!(snap.file_count(), 3);
        assert_eq!(snap.read("/etc/config").as_deref(), Some("mode=fast\n"));
        assert_eq!(snap.files_digest(), snap_digest);
        assert_ne!(f.files_digest(), snap_digest);
    }
}
