//! The steps the baseline models share; each model only schedules them.

use std::panic::resume_unwind;

use gw_core::collect::{for_each_record, BufferPoolCollector, Collector};
use gw_core::{Combiner, Emit, GwApp};
use gw_storage::seqfile::{RecordRef, SeqReader};
use gw_storage::split::{FileStore, FileStoreExt};
use gw_storage::{KvVec, NodeId};

use crate::Result;

type Pair = (Vec<u8>, Vec<u8>);

/// A block's records, in order.
pub(crate) fn read_records(block: &[u8]) -> Result<Vec<RecordRef<'_>>> {
    let mut reader = SeqReader::open_raw(block);
    let records = std::iter::from_fn(|| reader.next().transpose());
    Ok(records.collect::<std::result::Result<_, _>>()?)
}

/// The records a collector holds, in its visiting order.
pub(crate) fn collected(collector: &dyn Collector) -> KvVec {
    let mut out = Vec::with_capacity(collector.records());
    for_each_record(collector, &mut |k, v| out.push((k.to_vec(), v.to_vec())));
    out
}

/// What `f` emits, in emission order.
fn emitted(f: impl FnOnce(&Emit<'_>)) -> KvVec {
    let collector = BufferPoolCollector::new(1 << 20, 1);
    f(&Emit::new(&collector));
    collected(&collector)
}

/// Map a split record by record and combine the output by the app's
/// combiner, if it has one. Returns the records mapped and the output.
pub(crate) fn map_split(app: &dyn GwApp, block: &[u8]) -> Result<(usize, KvVec)> {
    let records = read_records(block)?;
    let mut out = emitted(|emit| records.iter().for_each(|(k, v)| app.map(k, v, emit)));
    if let Some(combiner) = app.combiner() {
        out = combine(combiner.as_ref(), out);
    }
    Ok((records.len(), out))
}

/// Fold each key's values into one, in emission order; sorts by key.
fn combine(combiner: &dyn Combiner, mut pairs: KvVec) -> KvVec {
    pairs.sort_by(|a, b| a.0.cmp(&b.0)); // stable: values keep their order
    let mut out: KvVec = Vec::new();
    for (k, v) in pairs {
        match out.last_mut() {
            Some((last, acc)) if *last == k => combiner.combine(&k, acc, &v),
            _ => out.push((k, v)),
        }
    }
    out
}

/// Split map output into `partitions` fragments by the app's partitioner.
pub(crate) fn partition(app: &dyn GwApp, pairs: KvVec, partitions: u32) -> Vec<KvVec> {
    let mut fragments = vec![Vec::new(); partitions as usize];
    for (k, v) in pairs {
        fragments[app.partition(&k, partitions) as usize].push((k, v));
    }
    fragments
}

/// The shuffle's merge: each partition's fragments from every task,
/// gathered and sorted.
pub(crate) fn merge(tasks: impl IntoIterator<Item = Vec<KvVec>>, partitions: u32) -> Vec<KvVec> {
    let mut inputs = vec![Vec::new(); partitions as usize];
    for fragments in tasks {
        for (input, fragment) in inputs.iter_mut().zip(fragments) {
            input.extend(fragment);
        }
    }
    inputs.iter_mut().for_each(|input| input.sort());
    inputs
}

/// A sorted partition's runs of equal keys.
pub(crate) fn key_groups(part: &[Pair]) -> impl Iterator<Item = &[Pair]> {
    part.chunk_by(|a, b| a.0 == b.0)
}

/// Reduce one key group in a single call with all its values.
pub(crate) fn reduce_group(app: &dyn GwApp, group: &[Pair], emit: &Emit<'_>) {
    let values: Vec<&[u8]> = group.iter().map(|(_, v)| v.as_slice()).collect();
    app.reduce(&group[0].0, &values, &mut Vec::new(), true, emit);
}

/// Reduce a sorted partition key group by key group; a job without a
/// reduce passes it through.
pub(crate) fn reduce(app: &dyn GwApp, part: KvVec) -> KvVec {
    if !app.has_reduce() {
        return part;
    }
    emitted(|emit| key_groups(&part).for_each(|group| reduce_group(app, group, emit)))
}

fn part_path(output: &str, p: u32) -> String {
    format!("{output}/part-r-{p:05}")
}

/// Write partition `p`'s output file from `writer`.
pub(crate) fn write_partition(
    store: &dyn FileStore,
    output: &str,
    p: u32,
    writer: NodeId,
    records: &[Pair],
    block_size: usize,
    replication: usize,
) -> Result<()> {
    let path = part_path(output, p);
    let records = records.iter().map(|(k, v)| (k.as_slice(), v.as_slice()));
    store.write_records(&path, writer, block_size, replication, records)?;
    Ok(())
}

/// Partitions `0..partitions`' output files, in order; a partition
/// without a file adds nothing.
pub(crate) fn read_output(store: &dyn FileStore, output: &str, partitions: u32) -> Result<KvVec> {
    let mut out = Vec::new();
    for path in (0..partitions).map(|p| part_path(output, p)) {
        if store.exists(&path) {
            out.extend(store.read_all_records(&path, NodeId(0))?);
        }
    }
    Ok(out)
}

/// One scoped thread per worker, each running `task` on the items `next`
/// hands it until `None`. Joins them all; returns the first error in
/// worker order, or every result, worker by worker.
pub(crate) fn on_threads<W: Send, I, T: Send>(
    workers: impl IntoIterator<Item = W>,
    next: impl Fn(&mut W) -> Option<I> + Sync,
    task: impl Fn(&W, I) -> Result<T> + Sync,
) -> Result<Vec<T>> {
    let work = &|mut w: W| -> Result<Vec<T>> {
        let mut done = Vec::new();
        while let Some(item) = next(&mut w) {
            done.push(task(&w, item)?);
        }
        Ok(done)
    };
    std::thread::scope(|scope| {
        let handles = workers.into_iter().map(|w| scope.spawn(move || work(w)));
        let mut out = Vec::new();
        for handle in handles.collect::<Vec<_>>() {
            out.extend(handle.join().unwrap_or_else(|p| resume_unwind(p))?);
        }
        Ok(out)
    })
}
