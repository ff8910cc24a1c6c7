//! Partitioners (§3.2.2.2).
//!
//! "The HMR API allows the programmer to control how keys are partitioned
//! amongst the reducers ... The default implementation uses a hash function
//! to map keys to partitions." Hadoop deliberately gives no control over
//! *where* a partition's reducer runs; M3R's partition-stability guarantee
//! (same partition → same place, deterministically) is layered on top of
//! this trait by the engine, not here.

use std::hash::{Hash, Hasher};

/// Maps a map-output key (and value) to a reduce partition.
pub trait Partitioner<K, V>: Send + Sync {
    /// The partition for `key` among `num_partitions` (must be in range).
    fn partition(&self, key: &K, value: &V, num_partitions: usize) -> usize;
}

/// The default hash partitioner. Uses `DefaultHasher::new()`, which is
/// keyed deterministically, so partition assignments are stable across
/// processes and runs — a property M3R's partition stability relies on.
#[derive(Clone, Copy, Debug, Default)]
pub struct HashPartitioner;

/// The deterministic hash used by [`HashPartitioner`]; exposed so tests and
/// workloads can predict placements.
pub fn stable_hash<K: Hash>(key: &K) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    key.hash(&mut h);
    h.finish()
}

impl<K: Hash, V> Partitioner<K, V> for HashPartitioner {
    fn partition(&self, key: &K, _value: &V, num_partitions: usize) -> usize {
        (stable_hash(key) % num_partitions as u64) as usize
    }
}

/// A partitioner backed by a plain function — convenient for jobs like the
/// microbenchmark ("the partitioner simply mods the integer key", §6.1) and
/// the matvec row partitioner (§3.2.2.2).
pub struct FnPartitioner<K, V> {
    f: Box<dyn Fn(&K, &V, usize) -> usize + Send + Sync>,
}

impl<K, V> FnPartitioner<K, V> {
    /// Wrap `f` as a partitioner.
    pub fn new(f: impl Fn(&K, &V, usize) -> usize + Send + Sync + 'static) -> Self {
        FnPartitioner { f: Box::new(f) }
    }
}

impl<K, V> Partitioner<K, V> for FnPartitioner<K, V> {
    fn partition(&self, key: &K, value: &V, num_partitions: usize) -> usize {
        (self.f)(key, value, num_partitions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writable::{IntWritable, Text};

    #[test]
    fn hash_partitioner_is_in_range_and_deterministic() {
        let p = HashPartitioner;
        for i in 0..1000 {
            let k = Text::from(format!("key-{i}"));
            let a = p.partition(&k, &IntWritable(0), 7);
            let b = p.partition(&k, &IntWritable(0), 7);
            assert!(a < 7);
            assert_eq!(a, b);
        }
        // Placements of `Text` keys when `Text` held a `String`; a key's
        // partition is its `str` hash, whatever holds the bytes.
        for (word, hash, of_4, of_7) in [
            ("", 3476900567878811119, 3, 4),
            ("the", 1408696025010063379, 3, 2),
            ("M3R", 5841942318692574465, 1, 0),
            ("hadoop", 9158236605951237720, 0, 6),
            ("naïve", 5596862398719544764, 0, 0),
            ("日本語", 5023470454829861438, 2, 5),
        ] {
            let k = Text::from(word);
            assert_eq!(stable_hash(&k), hash, "{word:?}");
            assert_eq!(p.partition(&k, &(), 4), of_4, "{word:?}");
            assert_eq!(p.partition(&k, &(), 7), of_7, "{word:?}");
        }
    }

    #[test]
    fn hash_partitioner_spreads_keys() {
        let p = HashPartitioner;
        let mut counts = [0usize; 8];
        for i in 0..4000 {
            let k = Text::from(format!("key-{i}"));
            counts[p.partition(&k, &(), 8)] += 1;
        }
        // Roughly uniform: every partition sees a decent share.
        for (i, c) in counts.iter().enumerate() {
            assert!(*c > 250, "partition {i} starved: {c}");
        }
    }

    #[test]
    fn fn_partitioner_mods_integer_keys() {
        // §6.1: "The partitioner simply mods the integer key."
        let p = FnPartitioner::new(|k: &IntWritable, _: &(), n| k.0 as usize % n);
        assert_eq!(p.partition(&IntWritable(13), &(), 5), 3);
        assert_eq!(p.partition(&IntWritable(10), &(), 5), 0);
    }

    #[cfg(test)]
    mod prop {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn stable_hash_equal_keys_equal_hashes(s in ".*") {
                let a = Text::from(s.clone());
                let b = Text::from(s);
                prop_assert_eq!(stable_hash(&a), stable_hash(&b));
            }

            #[test]
            fn partition_always_in_range(k in any::<i64>(), n in 1usize..64) {
                let p = HashPartitioner;
                prop_assert!(p.partition(&crate::writable::LongWritable(k), &(), n) < n);
            }
        }
    }
}
