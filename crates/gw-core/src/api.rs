//! The Glasswing application API (paper §III-F).
//!
//! "The Glasswing OpenCL API provides utilities for the user's OpenCL
//! map/reduce functions that process the data. This API strictly follows
//! the MapReduce model: the user functions consume input and emit output in
//! the form of key/value pairs."
//!
//! An application implements [`GwApp`]. The `map` and `reduce` bodies play
//! the role of the user's OpenCL kernel functions: the engine invokes them
//! from NDRange work items, concurrently, so they must be `Sync` and all
//! shared state must be internally synchronised (just as OpenCL kernels
//! must use atomics).
//!
//! The unit the map kernel hands an application is a *work item*, not a
//! record: [`GwApp::map_records`] gets the work item's whole record slice
//! ([`Records`]) and an [`Emit`] whose destination the collector resolved
//! once for the work item ([`Collector::work_item`]). An application that
//! only writes `map` gets the per-record loop as the default.

use std::cell::RefCell;

use gw_storage::varint::RecRef;

use crate::collect::{Collector, Sink};
use crate::hash;

pub use gw_intermediate::Combiner;

/// One work item's records: a borrowed view of the chunk's bytes and the
/// work item's slice of its record positions.
pub struct Records<'a> {
    bytes: &'a [u8],
    refs: &'a [RecRef],
}

impl<'a> Records<'a> {
    /// The records `refs` points at inside `bytes`.
    pub fn new(bytes: &'a [u8], refs: &'a [RecRef]) -> Self {
        Records { bytes, refs }
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.refs.len()
    }

    /// Whether the work item has no record.
    pub fn is_empty(&self) -> bool {
        self.refs.is_empty()
    }

    /// The `i`-th record's `(key, value)`.
    #[inline]
    pub fn get(&self, i: usize) -> (&'a [u8], &'a [u8]) {
        let r = &self.refs[i];
        (r.key(self.bytes), r.value(self.bytes))
    }

    /// Every `(key, value)`, in record order.
    pub fn iter(&self) -> impl Iterator<Item = (&'a [u8], &'a [u8])> + '_ {
        (0..self.len()).map(|i| self.get(i))
    }
}

/// Output emitter handed to map/reduce functions.
///
/// Backed by one of the two collection mechanisms (shared buffer pool or
/// hash table; see [`crate::collect`]), either through the collector's
/// per-record [`Collector::emit`] or through the sink it resolved for one
/// work item.
pub struct Emit<'a> {
    to: Target<'a>,
}

enum Target<'a> {
    Collector(&'a dyn Collector),
    /// `emit` takes `&self`; a work item runs on one thread.
    Sink(RefCell<&'a mut Sink<'a>>),
}

impl<'a> Emit<'a> {
    /// Wrap a collector.
    pub fn new(collector: &'a dyn Collector) -> Self {
        Emit {
            to: Target::Collector(collector),
        }
    }

    /// Wrap the sink of one work item ([`Collector::work_item`]).
    pub fn to_sink(sink: &'a mut Sink<'a>) -> Self {
        Emit {
            to: Target::Sink(RefCell::new(sink)),
        }
    }

    /// Emit one key/value pair.
    #[inline]
    pub fn emit(&self, key: &[u8], value: &[u8]) {
        match &self.to {
            Target::Collector(collector) => collector.emit(key, value),
            Target::Sink(sink) => (sink.borrow_mut())(key, value),
        }
    }
}

/// A Glasswing MapReduce application.
pub trait GwApp: Send + Sync + 'static {
    /// Application name (reports, output naming).
    fn name(&self) -> &'static str;

    /// Map one input record. Invoked concurrently by kernel work items.
    fn map(&self, key: &[u8], value: &[u8], emit: &Emit<'_>);

    /// Map one work item's records, in record order — what the map kernel
    /// calls. Override it to work across records (K-Means evaluates four
    /// points per pass over its centers); what it emits, and in which
    /// order, must be what `map` record by record would.
    fn map_records(&self, records: &Records<'_>, emit: &Emit<'_>) {
        for (key, value) in records.iter() {
            self.map(key, value, emit);
        }
    }

    /// The application's combiner, if any.
    fn combiner(&self) -> Option<std::sync::Arc<dyn Combiner>> {
        None
    }

    /// Whether the job has a reduce phase. When `false` (TeraSort), the
    /// framework writes the merged, sorted intermediate data directly:
    /// "its output is fully processed by the end of the intermediate data
    /// shuffle".
    fn has_reduce(&self) -> bool {
        true
    }

    /// Reduce a chunk of values for one key.
    ///
    /// Large value lists are fed in several chunks across kernel
    /// invocations; `state` is the key's scratch buffer persisting between
    /// chunks (paper §III-C) and `last` marks the final chunk. Typical
    /// implementations accumulate into `state` and emit on `last`.
    fn reduce(
        &self,
        key: &[u8],
        values: &[&[u8]],
        state: &mut Vec<u8>,
        last: bool,
        emit: &Emit<'_>,
    );

    /// Partition function over the global partition space. "Glasswing
    /// partitions intermediate data based on a hash function which can be
    /// overloaded by the user" — TeraSort overloads it with its sampled
    /// key-range partitioner.
    fn partition(&self, key: &[u8], num_partitions: u32) -> u32 {
        hash::default_partition(key, num_partitions)
    }

    /// Merge another partial reduction state into `acc` (both produced by
    /// [`GwApp::reduce`] calls with `last = false`). Returning `true`
    /// declares the reduction *associative* and unlocks the paper's first
    /// form of reduce parallelism: "applications can choose to process
    /// each single key with multiple threads" — the engine splits a large
    /// key's values over several work items, reduces partials
    /// concurrently, merges the states with this function, and finishes
    /// with one `last = true` call. The default (`false`) keeps per-key
    /// reduction sequential.
    fn merge_states(&self, _acc: &mut Vec<u8>, _other: &[u8]) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collect::{BufferPoolCollector, Collector};

    struct Echo;
    impl GwApp for Echo {
        fn name(&self) -> &'static str {
            "echo"
        }
        fn map(&self, key: &[u8], value: &[u8], emit: &Emit<'_>) {
            emit.emit(key, value);
        }
        fn reduce(
            &self,
            key: &[u8],
            values: &[&[u8]],
            _state: &mut Vec<u8>,
            last: bool,
            emit: &Emit<'_>,
        ) {
            if last {
                emit.emit(key, &(values.len() as u32).to_le_bytes());
            }
        }
    }

    #[test]
    fn default_partition_matches_hash() {
        let app = Echo;
        assert_eq!(app.partition(b"k", 8), hash::default_partition(b"k", 8));
        assert!(app.has_reduce());
        assert!(app.combiner().is_none());
    }

    #[test]
    fn emit_routes_to_collector() {
        let app = Echo;
        let collector = BufferPoolCollector::new(4096, 2);
        app.map(b"key", b"val", &Emit::new(&collector));
        assert_eq!(collector.records(), 1);
    }

    #[test]
    fn map_records_defaults_to_map_in_record_order_through_the_work_items_sink() {
        let mut block = Vec::new();
        let refs = [(b"k0", b"v0"), (b"k1", b"v1"), (b"k2", b"v2")]
            .map(|(k, v)| RecRef::write(&mut block, k, v));
        let records = Records::new(&block, &refs[1..]);
        assert_eq!(records.len(), 2);
        assert_eq!(records.get(0), (&b"k1"[..], &b"v1"[..]));
        let collector = BufferPoolCollector::new(4096, 1);
        collector.work_item(&mut |sink| Echo.map_records(&records, &Emit::to_sink(sink)));
        let mut out = Vec::new();
        crate::collect::for_each_record(&collector, &mut |k, v| out.push((k.to_vec(), v.to_vec())));
        assert_eq!(
            out,
            vec![
                (b"k1".to_vec(), b"v1".to_vec()),
                (b"k2".to_vec(), b"v2".to_vec())
            ]
        );
    }
}
