//! `IdHasher` spread. `HashMap` picks a bucket from the low bits of a hash
//! and a control byte from its top seven, so both ends must spread whatever
//! pattern the ids come in: sequential counters, strides, and the same raw
//! value in the thread and task arms of `OwnerId`.

use dimmunix_core::{IdHasher, LockId, OwnerId};
use std::collections::HashSet;
use std::hash::{BuildHasher, BuildHasherDefault, Hash};

const KEYS: u64 = 4096;

/// Distinct values of the low 12 bits and of the top 7 bits over `keys`.
fn spread<K: Hash>(keys: impl Iterator<Item = K>) -> (usize, usize) {
    let build = BuildHasherDefault::<IdHasher>::default();
    let hashes: Vec<u64> = keys.map(|k| build.hash_one(k)).collect();
    assert_eq!(hashes.len() as u64, KEYS);
    let low: HashSet<u64> = hashes.iter().map(|h| h & 0xfff).collect();
    let top: HashSet<u64> = hashes.iter().map(|h| h >> 57).collect();
    (low.len(), top.len())
}

/// 4096 keys thrown uniformly into 4096 buckets fill about 2590 of them; a
/// bare multiply leaves the stride-2^20 keys in one.
fn assert_spread(what: &str, (low, top): (usize, usize)) {
    assert!(low >= 2400, "{what}: {low} distinct low-12-bit values");
    assert!(top >= 120, "{what}: {top} of 128 top-7-bit values");
}

#[test]
fn lock_ids_spread_whatever_their_stride() {
    for (what, shift) in [("sequential", 0), ("stride 64", 6), ("stride 2^20", 20)] {
        assert_spread(what, spread((0..KEYS).map(|i| LockId::new(i << shift))));
    }
}

#[test]
fn thread_and_task_owners_with_equal_raw_values_spread() {
    let owners = (0..KEYS / 2).flat_map(|i| [OwnerId::thread(i), OwnerId::task(i)]);
    assert_spread("thread/task pairs", spread(owners));
}
