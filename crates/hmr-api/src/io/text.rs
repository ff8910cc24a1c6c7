//! Text formats: line-oriented input (`LongWritable` byte offset → `Text`
//! line, as in Hadoop's `TextInputFormat`) and tab-separated output.

use std::marker::PhantomData;
use std::sync::Arc;

use crate::conf::JobConf;
use crate::error::{HmrError, Result};
use crate::fs::{FileSystem, FsWriter};
use crate::io::split::{FileSplit, InputSplit};
use crate::io::{list_input_files, part_file_name, InputFormat, OutputFormat, RecordReader, RecordWriter};
use crate::writable::{LongWritable, Text, Writable};

/// Reads text files line by line. Keys are byte offsets, values are lines.
#[derive(Clone, Copy, Debug, Default)]
pub struct TextInputFormat;

impl InputFormat<LongWritable, Text> for TextInputFormat {
    fn get_splits(
        &self,
        fs: &dyn FileSystem,
        conf: &JobConf,
        _hint: usize,
    ) -> Result<Vec<Arc<dyn InputSplit>>> {
        let mut splits: Vec<Arc<dyn InputSplit>> = Vec::new();
        for file in list_input_files(fs, conf)? {
            let status = fs.get_file_status(&file)?;
            // Preserve replica order: the first location is the primary
            // (write-local) replica, which schedulers prefer.
            let mut hosts: Vec<usize> = Vec::new();
            for replica_set in fs.block_locations(&file, 0, status.len)? {
                for h in replica_set {
                    if !hosts.contains(&h) {
                        hosts.push(h);
                    }
                }
            }
            splits.push(Arc::new(FileSplit::whole_file(file, status.len, hosts)));
        }
        Ok(splits)
    }

    fn record_reader(
        &self,
        fs: &dyn FileSystem,
        split: &dyn InputSplit,
        _conf: &JobConf,
    ) -> Result<Box<dyn RecordReader<LongWritable, Text>>> {
        let file = split
            .as_any()
            .downcast_ref::<FileSplit>()
            .ok_or_else(|| HmrError::Unsupported("TextInputFormat needs a FileSplit".into()))?;
        let bytes = fs.open(&file.path)?.read_range(file.offset, file.len)?;
        Ok(Box::new(LineReader {
            bytes,
            pos: 0,
            base_offset: file.offset,
        }))
    }
}

struct LineReader {
    bytes: bytes::Bytes,
    pos: usize,
    base_offset: u64,
}

impl RecordReader<LongWritable, Text> for LineReader {
    fn next(&mut self) -> Result<Option<(LongWritable, Text)>> {
        if self.pos >= self.bytes.len() {
            return Ok(None);
        }
        let start = self.pos;
        let rest = &self.bytes[start..];
        let line_end = rest
            .iter()
            .position(|b| *b == b'\n')
            .map(|i| start + i)
            .unwrap_or(self.bytes.len());
        // The line is a view of the split's bytes, not a copy.
        let line = Text::from_utf8(self.bytes.slice(start..line_end))?;
        self.pos = line_end + 1;
        Ok(Some((
            LongWritable(self.base_offset as i64 + start as i64),
            line,
        )))
    }
}

/// Writes `key<TAB>value` lines to `{output}/part-NNNNN`, requiring only
/// `Display` of both types — mirroring Hadoop's `toString`-based
/// `TextOutputFormat`.
pub struct TextOutputFormat<K, V> {
    _marker: PhantomData<fn() -> (K, V)>,
}

impl<K, V> Default for TextOutputFormat<K, V> {
    fn default() -> Self {
        TextOutputFormat {
            _marker: PhantomData,
        }
    }
}

impl<K, V> TextOutputFormat<K, V> {
    /// A new format instance.
    pub fn new() -> Self {
        Self::default()
    }
}

impl<K, V> TextOutputFormat<K, V>
where
    K: Writable + std::fmt::Display,
    V: Writable + std::fmt::Display,
{
    fn open_writer(
        &self,
        fs: &dyn FileSystem,
        conf: &JobConf,
        file_name: &str,
    ) -> Result<Box<dyn RecordWriter<K, V>>> {
        let dir = conf
            .output_path()
            .ok_or_else(|| HmrError::InvalidJob("no output path configured".into()))?;
        Ok(Box::new(LineWriter {
            writer: fs.create(&dir.join(file_name))?,
            file: Vec::new(),
            _marker: PhantomData,
        }))
    }
}

impl<K, V> OutputFormat<K, V> for TextOutputFormat<K, V>
where
    K: Writable + std::fmt::Display,
    V: Writable + std::fmt::Display,
{
    fn record_writer(
        &self,
        fs: &dyn FileSystem,
        conf: &JobConf,
        partition: usize,
    ) -> Result<Box<dyn RecordWriter<K, V>>> {
        self.open_writer(fs, conf, &part_file_name(partition))
    }

    fn record_writer_named(
        &self,
        fs: &dyn FileSystem,
        conf: &JobConf,
        name: &str,
        partition: usize,
    ) -> Result<Box<dyn RecordWriter<K, V>>> {
        self.open_writer(fs, conf, &crate::multi::named_part_file(name, partition))
    }
}

/// Formats each line straight into `file`, which `close` hands to the
/// filesystem writer by value, as [`super::seqfile`]'s writer does.
struct LineWriter<K, V> {
    writer: Box<dyn FsWriter>,
    file: Vec<u8>,
    _marker: PhantomData<fn() -> (K, V)>,
}

impl<K, V> RecordWriter<K, V> for LineWriter<K, V>
where
    K: Writable + std::fmt::Display,
    V: Writable + std::fmt::Display,
{
    fn write(&mut self, key: &K, value: &V) -> Result<()> {
        use std::io::Write;
        writeln!(self.file, "{key}\t{value}")
            .map_err(|e| HmrError::Io(e.to_string()))
    }
    fn close(self: Box<Self>) -> Result<u64> {
        let Self { mut writer, file, .. } = *self;
        writer.write_owned(file)?;
        writer.close()
    }
}

impl std::fmt::Display for LongWritable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::fmt::Display for crate::writable::IntWritable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::fmt::Display for crate::writable::DoubleWritable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fs::{read_file, write_file, HPath, MemFs};
    use crate::writable::IntWritable;

    #[test]
    fn lines_come_back_with_offsets() {
        let fs = MemFs::new();
        write_file(&fs, &HPath::new("/t.txt"), b"alpha\nbeta\n\ngamma").unwrap();
        let mut conf = JobConf::new();
        conf.add_input_path(&HPath::new("/t.txt"));
        let fmt = TextInputFormat;
        let splits = fmt.get_splits(&fs, &conf, 1).unwrap();
        let mut r = fmt.record_reader(&fs, splits[0].as_ref(), &conf).unwrap();
        let mut lines = Vec::new();
        let mut first = None;
        while let Some((off, line)) = r.next().unwrap() {
            // Every line is a view of the split's bytes, at its offset.
            let at = first.get_or_insert(line.as_str().as_ptr());
            assert_eq!(line.as_str().as_ptr(), at.wrapping_add(off.0 as usize));
            lines.push((off.0, line.as_str().to_string()));
        }
        assert_eq!(
            lines,
            vec![
                (0, "alpha".to_string()),
                (6, "beta".to_string()),
                (11, "".to_string()),
                (12, "gamma".to_string()),
            ]
        );
    }

    #[test]
    fn text_output_is_tab_separated() {
        let fs = MemFs::new();
        let mut conf = JobConf::new();
        conf.set_output_path(&HPath::new("/out"));
        let fmt = TextOutputFormat::<Text, IntWritable>::new();
        let mut w = fmt.record_writer(&fs, &conf, 0).unwrap();
        w.write(&Text::from("word"), &IntWritable(3)).unwrap();
        w.write(&Text::from("count"), &IntWritable(1)).unwrap();
        w.close().unwrap();
        let bytes = read_file(&fs, &HPath::new("/out/part-00000")).unwrap();
        assert_eq!(String::from_utf8(bytes.to_vec()).unwrap(), "word\t3\ncount\t1\n");
    }

    #[test]
    fn invalid_utf8_line_is_a_typed_error() {
        let fs = MemFs::new();
        write_file(&fs, &HPath::new("/bad.txt"), b"ok\nbro\xFFken\nnever").unwrap();
        let mut conf = JobConf::new();
        conf.add_input_path(&HPath::new("/bad.txt"));
        let fmt = TextInputFormat;
        let splits = fmt.get_splits(&fs, &conf, 1).unwrap();
        let mut r = fmt.record_reader(&fs, splits[0].as_ref(), &conf).unwrap();
        assert_eq!(r.next().unwrap().unwrap().1.as_str(), "ok");
        assert!(matches!(r.next(), Err(HmrError::Serde(_))));
    }

    #[test]
    fn empty_file_has_no_lines() {
        let fs = MemFs::new();
        write_file(&fs, &HPath::new("/e.txt"), b"").unwrap();
        let mut conf = JobConf::new();
        conf.add_input_path(&HPath::new("/e.txt"));
        let fmt = TextInputFormat;
        let splits = fmt.get_splits(&fs, &conf, 1).unwrap();
        let mut r = fmt.record_reader(&fs, splits[0].as_ref(), &conf).unwrap();
        assert!(r.next().unwrap().is_none());
    }
}
