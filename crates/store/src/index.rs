//! Secondary indexes over tables.
//!
//! The controller's query patterns — "all readings of zone X", "ticks in
//! hour range" — need more than primary-key lookups. [`IndexedTable`] wraps
//! a [`Table`] with one typed secondary index maintained through its own
//! mutation methods: key extraction is a pure function of the row, the
//! index lives in memory and is rebuilt on open (the WAL remains the only
//! durable structure, so recovery semantics are unchanged).

use crate::table::{Table, TableError};
use serde::de::DeserializeOwned;
use serde::Serialize;
use std::collections::BTreeMap;
use std::ops::RangeBounds;
use std::path::Path;

/// A table plus one secondary index on `K = key_fn(row)`.
pub struct IndexedTable<T, K: Ord + Clone> {
    table: Table<T>,
    key_fn: Box<dyn Fn(&T) -> K + Send>,
    index: BTreeMap<K, Vec<u64>>,
}

impl<T, K> IndexedTable<T, K>
where
    T: Serialize + DeserializeOwned + Clone + Send,
    K: Ord + Clone,
{
    /// Opens the underlying table and builds the index.
    pub fn open<F>(dir: impl AsRef<Path>, name: &str, key_fn: F) -> Result<Self, TableError>
    where
        F: Fn(&T) -> K + Send + 'static,
    {
        let table = Table::open(dir, name)?;
        let mut index: BTreeMap<K, Vec<u64>> = BTreeMap::new();
        for (id, row) in table.scan() {
            index.entry(key_fn(row)).or_default().push(id);
        }
        Ok(IndexedTable {
            table,
            key_fn: Box::new(key_fn),
            index,
        })
    }

    /// Inserts a row, indexing it.
    pub fn insert(&mut self, row: T) -> Result<u64, TableError> {
        let key = (self.key_fn)(&row);
        let id = self.table.insert(row)?;
        self.index.entry(key).or_default().push(id);
        Ok(id)
    }

    /// Replaces a row, moving it between index buckets when its key
    /// changes.
    pub fn update(&mut self, id: u64, row: T) -> Result<(), TableError> {
        let old_key = self.table.get(id).map(&self.key_fn);
        let new_key = (self.key_fn)(&row);
        self.table.update(id, row)?;
        if let Some(old) = old_key {
            if old != new_key {
                self.remove_from_bucket(&old, id);
                self.index.entry(new_key).or_default().push(id);
            }
        }
        Ok(())
    }

    /// Deletes a row and its index entry.
    pub fn delete(&mut self, id: u64) -> Result<(), TableError> {
        let key = self.table.get(id).map(&self.key_fn);
        self.table.delete(id)?;
        if let Some(k) = key {
            self.remove_from_bucket(&k, id);
        }
        Ok(())
    }

    fn remove_from_bucket(&mut self, key: &K, id: u64) {
        if let Some(bucket) = self.index.get_mut(key) {
            bucket.retain(|i| *i != id);
            if bucket.is_empty() {
                self.index.remove(key);
            }
        }
    }

    /// Rows whose key equals `key`, in insertion order.
    pub fn lookup(&self, key: &K) -> Vec<(u64, &T)> {
        self.index
            .get(key)
            .map(|ids| {
                ids.iter()
                    .filter_map(|id| self.table.get(*id).map(|r| (*id, r)))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Rows whose key falls in `range`, ordered by key then insertion.
    pub fn range<R: RangeBounds<K>>(&self, range: R) -> Vec<(u64, &T)> {
        self.index
            .range(range)
            .flat_map(|(_, ids)| {
                ids.iter()
                    .filter_map(|id| self.table.get(*id).map(|r| (*id, r)))
            })
            .collect()
    }

    /// Distinct keys present, sorted.
    pub fn keys(&self) -> Vec<K> {
        self.index.keys().cloned().collect()
    }

    /// The wrapped table (read-only access; mutations must go through the
    /// indexed wrappers).
    pub fn table(&self) -> &Table<T> {
        &self.table
    }

    /// Snapshots the underlying table (the index needs no persistence).
    pub fn snapshot(&mut self) -> Result<(), TableError> {
        self.table.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Deserialize;

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    struct Tick {
        zone: String,
        hour: u64,
        kwh: f64,
    }

    fn tick(zone: &str, hour: u64, kwh: f64) -> Tick {
        Tick {
            zone: zone.into(),
            hour,
            kwh,
        }
    }

    fn open(dir: &Path) -> IndexedTable<Tick, String> {
        IndexedTable::open(dir, "ticks", |t: &Tick| t.zone.clone()).unwrap()
    }

    #[test]
    fn lookup_by_key() {
        let dir = tempfile::tempdir().unwrap();
        let mut t = open(dir.path());
        t.insert(tick("den", 0, 0.3)).unwrap();
        t.insert(tick("kitchen", 0, 0.1)).unwrap();
        t.insert(tick("den", 1, 0.4)).unwrap();
        let den = t.lookup(&"den".to_string());
        assert_eq!(den.len(), 2);
        assert_eq!(den[0].1.hour, 0);
        assert_eq!(den[1].1.hour, 1);
        assert!(t.lookup(&"garage".to_string()).is_empty());
        assert_eq!(t.keys(), vec!["den".to_string(), "kitchen".to_string()]);
    }

    #[test]
    fn range_queries_on_numeric_keys() {
        let dir = tempfile::tempdir().unwrap();
        let mut t: IndexedTable<Tick, u64> =
            IndexedTable::open(dir.path(), "byhour", |t: &Tick| t.hour).unwrap();
        for h in 0..10 {
            t.insert(tick("z", h, h as f64)).unwrap();
        }
        let mid = t.range(3..7);
        let hours: Vec<u64> = mid.iter().map(|(_, r)| r.hour).collect();
        assert_eq!(hours, vec![3, 4, 5, 6]);
    }

    #[test]
    fn update_moves_between_buckets() {
        let dir = tempfile::tempdir().unwrap();
        let mut t = open(dir.path());
        let id = t.insert(tick("den", 0, 0.3)).unwrap();
        t.update(id, tick("kitchen", 0, 0.3)).unwrap();
        assert!(t.lookup(&"den".to_string()).is_empty());
        assert_eq!(t.lookup(&"kitchen".to_string()).len(), 1);
    }

    #[test]
    fn delete_clears_index_entries() {
        let dir = tempfile::tempdir().unwrap();
        let mut t = open(dir.path());
        let id = t.insert(tick("den", 0, 0.3)).unwrap();
        t.delete(id).unwrap();
        assert!(t.lookup(&"den".to_string()).is_empty());
        assert!(t.keys().is_empty());
        assert!(matches!(t.delete(id), Err(TableError::NoSuchRow(_))));
    }

    #[test]
    fn index_rebuilds_on_open() {
        let dir = tempfile::tempdir().unwrap();
        {
            let mut t = open(dir.path());
            t.insert(tick("den", 0, 0.3)).unwrap();
            t.insert(tick("kitchen", 1, 0.1)).unwrap();
            t.snapshot().unwrap();
            t.insert(tick("den", 2, 0.2)).unwrap();
        }
        let t = open(dir.path());
        assert_eq!(t.lookup(&"den".to_string()).len(), 2);
        assert_eq!(t.table().len(), 3);
    }
}
