//! On-disk layout: paths and file naming.

use crate::failpoint::Staging;
use crate::Result;
use std::fs;
use std::path::{Path, PathBuf};

/// Manifest file name under the store root.
pub const MANIFEST_FILE: &str = "manifest";
/// Manifest snapshot file name (`CSM2`): a compact image of the live
/// store state, written by `Store::compact_manifest` so the log can be
/// truncated.
pub const SNAPSHOT_FILE: &str = "manifest.snap";
/// Committed segment directory.
pub const SEGMENTS_DIR: &str = "segments";
/// Where unreadable or orphaned segments are moved (never deleted).
pub const QUARANTINE_DIR: &str = "quarantine";
/// Staging directory for in-flight segment writes.
pub const TMP_DIR: &str = "tmp";

/// Resolved paths of one store root.
#[derive(Debug, Clone)]
pub struct Layout {
    pub root: PathBuf,
    pub manifest: PathBuf,
    /// `CSM2` snapshot (absent until the first `compact_manifest`).
    pub snapshot: PathBuf,
    pub segments: PathBuf,
    pub quarantine: PathBuf,
    pub tmp: PathBuf,
}

impl Layout {
    /// Computes the paths (no filesystem access).
    pub fn new(root: impl AsRef<Path>) -> Self {
        let root = root.as_ref().to_path_buf();
        Layout {
            manifest: root.join(MANIFEST_FILE),
            snapshot: root.join(SNAPSHOT_FILE),
            segments: root.join(SEGMENTS_DIR),
            quarantine: root.join(QUARANTINE_DIR),
            tmp: root.join(TMP_DIR),
            root,
        }
    }

    /// Staging path for an atomic rewrite of a root-level metadata file
    /// (the snapshot): same name, `tmp/` directory — open-time
    /// recovery sweeps abandoned staging files automatically.
    pub fn meta_tmp_path(&self, name: &str) -> Staging {
        Staging::new(self.tmp.join(name))
    }

    /// Creates the directory tree (idempotent).
    pub fn create_dirs(&self) -> Result<()> {
        fs::create_dir_all(&self.root)?;
        fs::create_dir_all(&self.segments)?;
        fs::create_dir_all(&self.quarantine)?;
        fs::create_dir_all(&self.tmp)?;
        Ok(())
    }

    /// `segments/<gen:08>.<rank>.seg`
    pub fn segment_path(&self, gen: u64, rank: u32) -> PathBuf {
        self.segments.join(segment_name(gen, rank))
    }

    /// `tmp/<gen:08>.<rank>.seg` (same name, staging directory).
    pub fn tmp_path(&self, gen: u64, rank: u32) -> Staging {
        Staging::new(self.tmp.join(segment_name(gen, rank)))
    }

    /// A free path under `quarantine/` for this segment; appends a
    /// numeric suffix when a rolled-back generation id was reused.
    pub fn quarantine_path(&self, name: &str) -> PathBuf {
        let base = self.quarantine.join(name);
        if !base.exists() {
            return base;
        }
        for k in 1u32.. {
            let alt = self.quarantine.join(format!("{name}.{k}"));
            if !alt.exists() {
                return alt;
            }
        }
        unreachable!("u32 suffix space exhausted")
    }
}

/// Canonical segment file name.
pub fn segment_name(gen: u64, rank: u32) -> String {
    format!("{gen:08}.{rank}.seg")
}

/// Parses `<gen>.<rank>.seg` back into ids; `None` for foreign files.
pub fn parse_segment_name(name: &str) -> Option<(u64, u32)> {
    let stem = name.strip_suffix(".seg")?;
    let (gen_s, rank_s) = stem.split_once('.')?;
    Some((gen_s.parse().ok()?, rank_s.parse().ok()?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segment_names_roundtrip() {
        assert_eq!(segment_name(7, 3), "00000007.3.seg");
        assert_eq!(parse_segment_name("00000007.3.seg"), Some((7, 3)));
        assert_eq!(parse_segment_name("12345678901.0.seg"), Some((12345678901, 0)));
        assert_eq!(parse_segment_name("garbage"), None);
        assert_eq!(parse_segment_name("x.y.seg"), None);
        assert_eq!(parse_segment_name("3.seg"), None);
    }

    #[test]
    #[expect(clippy::disallowed_methods, reason = "the test plants a file in quarantine/")]
    fn layout_paths_and_dirs() {
        let dir = std::env::temp_dir().join(format!("ckpt-store-layout-{}", std::process::id()));
        let l = Layout::new(&dir);
        l.create_dirs().unwrap();
        l.create_dirs().unwrap(); // idempotent
        assert!(l.segments.is_dir() && l.quarantine.is_dir() && l.tmp.is_dir());
        assert_eq!(l.segment_path(1, 0).file_name().unwrap(), "00000001.0.seg");

        let q1 = l.quarantine_path("00000001.0.seg");
        fs::write(&q1, b"x").unwrap();
        let q2 = l.quarantine_path("00000001.0.seg");
        assert_ne!(q1, q2, "reused name must get a fresh suffix");
        let _ = fs::remove_dir_all(&dir);
    }
}
