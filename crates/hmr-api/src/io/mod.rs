//! Input/output formats, splits, and record readers/writers.
//!
//! The split model carries M3R's two split-level extensions (§4.2.1, §4.3)
//! as optional capabilities every split can answer:
//! * `cache_name` — the `NamedSplit`/`DelegatingSplit` interface: "what name
//!   is associated with a given piece of data", without which M3R must
//!   bypass the cache for that split;
//! * `placed_partition` — the `PlacedSplit` interface: which partition (and
//!   therefore, under partition stability, which place) should map the
//!   split.
//!
//! Stock Hadoop ignores both — exactly as the paper requires.

pub mod placed;
pub mod seqfile;
pub mod split;
pub mod text;

pub use placed::PlacedByPartFile;
pub use seqfile::{SequenceFileInputFormat, SequenceFileOutputFormat};
pub use split::{FileSplit, InputSplit, MemorySplit, PlacedFileSplit};
pub use text::{TextInputFormat, TextOutputFormat};

use std::sync::Arc;

use crate::conf::JobConf;
use crate::error::{HmrError, Result};
use crate::fs::{FileSystem, HPath};

/// Produces splits and record readers for a job's input.
pub trait InputFormat<K, V>: Send + Sync {
    /// Describe the input as splits. `hint` is the requested parallelism.
    fn get_splits(
        &self,
        fs: &dyn FileSystem,
        conf: &JobConf,
        hint: usize,
    ) -> Result<Vec<Arc<dyn InputSplit>>>;

    /// Open a reader over one split.
    fn record_reader(
        &self,
        fs: &dyn FileSystem,
        split: &dyn InputSplit,
        conf: &JobConf,
    ) -> Result<Box<dyn RecordReader<K, V>>>;
}

/// Streams `(key, value)` records out of one split.
pub trait RecordReader<K, V>: Send {
    /// The next record, or `None` at end of split.
    fn next(&mut self) -> Result<Option<(K, V)>>;
}

/// Produces record writers for a job's output.
pub trait OutputFormat<K, V>: Send + Sync {
    /// Open the writer for reduce partition `partition`.
    fn record_writer(
        &self,
        fs: &dyn FileSystem,
        conf: &JobConf,
        partition: usize,
    ) -> Result<Box<dyn RecordWriter<K, V>>>;

    /// The output location this format writes beneath, when file-based.
    /// M3R keys its output cache by `{path}/part-NNNNN`; formats returning
    /// `None` bypass the cache (§4.2.1).
    fn output_path(&self, conf: &JobConf) -> Option<HPath> {
        conf.output_path()
    }

    /// `MultipleOutputs` (§4.2.2): open the writer for the named side
    /// output of `partition`, conventionally `{output}/{name}-part-NNNNN`.
    /// Formats that cannot place side files refuse.
    fn record_writer_named(
        &self,
        _fs: &dyn FileSystem,
        _conf: &JobConf,
        name: &str,
        _partition: usize,
    ) -> Result<Box<dyn RecordWriter<K, V>>> {
        Err(HmrError::Unsupported(format!(
            "named output '{name}' not supported by this output format"
        )))
    }
}

/// Writes one partition's output records.
pub trait RecordWriter<K, V>: Send {
    /// Hint that the committed file will be `len` bytes long when written
    /// as a SequenceFile ([`seqfile::file_len`]), from a caller that holds
    /// every record before it writes the first. The default ignores it, as
    /// does a writer of any other format.
    fn reserve(&mut self, _len: u64) {}
    /// Append one record.
    fn write(&mut self, key: &K, value: &V) -> Result<()>;
    /// Commit the partition file; returns bytes written.
    fn close(self: Box<Self>) -> Result<u64>;
}

/// Name of the output file for a reduce partition (Hadoop convention).
pub fn part_file_name(partition: usize) -> String {
    format!("part-{partition:05}")
}

/// Expand the configured input paths into concrete files: directories
/// contribute their (sorted) child files, skipping Hadoop hidden files.
pub fn list_input_files(fs: &dyn FileSystem, conf: &JobConf) -> Result<Vec<HPath>> {
    let mut files = Vec::new();
    let inputs = conf.input_paths();
    if inputs.is_empty() {
        return Err(HmrError::InvalidJob("no input paths configured".into()));
    }
    for p in inputs {
        let status = fs.get_file_status(&p)?;
        if status.is_dir {
            for child in fs.list_status(&p)? {
                let hidden = child
                    .path
                    .name()
                    .map(|n| n.starts_with('_') || n.starts_with('.'))
                    .unwrap_or(false);
                if !child.is_dir && !hidden {
                    files.push(child.path);
                }
            }
        } else {
            files.push(p);
        }
    }
    Ok(files)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fs::{write_file, MemFs};

    #[test]
    fn part_file_names_are_padded() {
        assert_eq!(part_file_name(0), "part-00000");
        assert_eq!(part_file_name(123), "part-00123");
    }

    #[test]
    fn list_input_files_expands_dirs_and_skips_hidden() {
        let fs = MemFs::new();
        write_file(&fs, &HPath::new("/in/part-00000"), b"a").unwrap();
        write_file(&fs, &HPath::new("/in/part-00001"), b"b").unwrap();
        write_file(&fs, &HPath::new("/in/_SUCCESS"), b"").unwrap();
        write_file(&fs, &HPath::new("/other.txt"), b"c").unwrap();
        let mut conf = JobConf::new();
        conf.add_input_path(&HPath::new("/in"));
        conf.add_input_path(&HPath::new("/other.txt"));
        let files = list_input_files(&fs, &conf).unwrap();
        let names: Vec<&str> = files.iter().map(|p| p.as_str()).collect();
        assert_eq!(
            names,
            vec!["/in/part-00000", "/in/part-00001", "/other.txt"]
        );
    }

    #[test]
    fn empty_input_config_is_invalid() {
        let fs = MemFs::new();
        let conf = JobConf::new();
        assert!(matches!(
            list_input_files(&fs, &conf),
            Err(HmrError::InvalidJob(_))
        ));
    }

    #[test]
    fn missing_input_path_is_not_found() {
        let fs = MemFs::new();
        let mut conf = JobConf::new();
        conf.add_input_path(&HPath::new("/absent"));
        assert!(matches!(
            list_input_files(&fs, &conf),
            Err(HmrError::NotFound(_))
        ));
    }
}
