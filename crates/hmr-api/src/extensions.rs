//! The M3R API extensions in one place (paper §4).
//!
//! Every extension is *backward compatible*: "Hadoop simply ignores these
//! interfaces, allowing the same code to run on M3R and Hadoop." In this
//! Rust port the extensions surface as:
//!
//! | Paper interface | Here |
//! |---|---|
//! | `ImmutableOutput` (§4.1) | [`crate::job::JobDef::immutable_output`] |
//! | `NamedSplit` (§4.2.1) | [`crate::io::InputSplit::cache_name`] |
//! | `DelegatingSplit` (§4.2.1) | delegation in [`crate::multi::TaggedInputSplit`] |
//! | `PlacedSplit` (§4.3) | [`crate::io::InputSplit::placed_partition`] |
//! | `CacheFS` (§4.2.3–4.2.4) | [`CacheFsExt`] below |
//! | temp outputs (§4.2.3) | [`crate::conf::JobConf::is_temp_output`] |
//! | combiner folds (not in the paper; same contract: Hadoop ignores it) | [`crate::task::TaskReducer::as_fold`] |
//!
//! The stock engine consults none of them.

use std::sync::Arc;

use crate::fs::{FileStatus, FileSystem, HPath};
use crate::error::Result;

/// The `CacheFS` interface (§4.2.3): filesystems created by M3R expose a
/// *raw cache* view — "a new FileSystem object \[whose\] operations are only
/// sent to the cache of the original FileSystem. So calling delete on the
/// synthetic file system will delete the file from the cache without
/// affecting the underlying file system."
///
/// Typed queries over cached key/value sequences (§4.2.4's
/// `getCacheRecordReader`) are generic and therefore live on M3R's concrete
/// `CachingFs` type; this object-safe trait carries the untyped parts.
pub trait CacheFsExt: FileSystem {
    /// A `FileSystem` view whose operations touch only the cache.
    fn raw_cache(&self) -> Arc<dyn FileSystem>;

    /// Cache-side stat (§4.2.4: "a program can use getRawCache in
    /// conjunction with getFileStatus to check if data is in the cache").
    fn cache_file_status(&self, path: &HPath) -> Result<FileStatus> {
        self.raw_cache().get_file_status(path)
    }

    /// True when the cache currently holds data for `path`.
    fn is_cached(&self, path: &HPath) -> bool {
        self.raw_cache().exists(path)
    }
}
