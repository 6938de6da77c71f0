//! Push-based shuffle transport.
//!
//! Glasswing "pushes its intermediate data to the reducer node, whereas
//! Hadoop pulls" — as soon as the map pipeline's partitioning stage has
//! sorted a chunk's partition, it ships the run to the owning node, where a
//! receiver thread adds it to the intermediate cache *while the map phase
//! is still running*. The map phase ends, cluster-wide, when every node has
//! received a [`ShuffleMsg::MapDone`] marker from every peer.

use std::sync::Arc;
use std::thread::JoinHandle;

use gw_intermediate::{IntermediateStore, PartitionId, Run};

use crate::fabric::Endpoint;

/// Identity of one sorted run in the fault-tolerant shuffle, independent of
/// the node that produced it: a re-executed split re-produces each run
/// byte-identically under the same tag, which is what lets receivers
/// de-duplicate it and re-request runs lost to node crashes or message
/// drops. Runs are tagged only under supervision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RunTag {
    /// Global partition the run belongs to.
    pub partition: u32,
    /// Input block the run was computed from.
    pub block: u32,
    /// The partitioning worker that built the run: its index in the
    /// chunk's partition NDRange.
    pub lane: u32,
}

/// Messages of the shuffle protocol.
#[derive(Debug)]
pub enum ShuffleMsg {
    /// A sorted run for one of the receiver's partitions.
    Partition {
        /// Global partition id.
        partition: PartitionId,
        /// Serialized sorted run bytes (refcounted; shipping a run shares
        /// the producer's arena rather than copying it).
        bytes: bytes::Bytes,
        /// Record count of the run.
        records: usize,
        /// Recovery identity; `None` in the plain (fault-free) protocol.
        tag: Option<RunTag>,
    },
    /// The sender has finished its map phase (no more partitions follow).
    MapDone,
    /// Recovery protocol: the sender is missing these runs and asks their
    /// producer to re-serve them from its retention buffer.
    Resend {
        /// Identities of the missing runs.
        ids: Vec<RunTag>,
    },
}

impl ShuffleMsg {
    /// Wire size estimate used for throttling.
    pub fn wire_bytes(&self) -> usize {
        match self {
            ShuffleMsg::Partition { bytes, tag, .. } => {
                bytes.len() + 16 + if tag.is_some() { 12 } else { 0 }
            }
            ShuffleMsg::MapDone => 8,
            ShuffleMsg::Resend { ids } => 8 + 12 * ids.len(),
        }
    }
}

/// Summary of a completed shuffle reception.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShuffleSummary {
    /// Runs received from peers.
    pub runs: usize,
    /// Total serialized bytes received.
    pub bytes: usize,
    /// `MapDone` markers received.
    pub done_markers: usize,
}

/// Background thread feeding received partitions into the local
/// intermediate store.
pub struct ShuffleReceiver {
    handle: JoinHandle<ShuffleSummary>,
}

impl ShuffleReceiver {
    /// Spawn a receiver on `endpoint` that adds incoming runs to `store`
    /// and completes after `expected_done` `MapDone` markers (normally the
    /// number of peer nodes). The endpoint is shared: this thread receives
    /// while the map pipeline's partitioning stage sends through it.
    pub fn spawn(
        endpoint: Arc<Endpoint<ShuffleMsg>>,
        store: Arc<IntermediateStore>,
        expected_done: usize,
    ) -> Self {
        let handle = std::thread::Builder::new()
            .name(format!("gw-shuffle-rx-{}", endpoint.node()))
            .spawn(move || {
                let mut summary = ShuffleSummary {
                    runs: 0,
                    bytes: 0,
                    done_markers: 0,
                };
                while summary.done_markers < expected_done {
                    let Some(env) = endpoint.recv() else {
                        // Defensive: cannot normally happen (every endpoint
                        // keeps the fabric alive), but never spin on a dead
                        // channel.
                        break;
                    };
                    match env.payload {
                        ShuffleMsg::Partition {
                            partition,
                            bytes,
                            records,
                            // Runs are tagged only under supervision, whose
                            // receiver (gw-core) de-duplicates them.
                            tag: _,
                        } => {
                            summary.runs += 1;
                            summary.bytes += bytes.len();
                            store.add_run(partition, Run::from_sorted_bytes(bytes, records));
                        }
                        ShuffleMsg::MapDone => summary.done_markers += 1,
                        // The plain receiver has no retention buffer; the
                        // fault-tolerant receiver (gw-core) serves these.
                        ShuffleMsg::Resend { .. } => {}
                    }
                }
                summary
            })
            .expect("spawn shuffle receiver");
        ShuffleReceiver { handle }
    }

    /// Wait for the receiver to finish (all peers done).
    pub fn join(self) -> ShuffleSummary {
        self.handle.join().expect("shuffle receiver panicked")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::Fabric;
    use crate::profile::NetProfile;
    use gw_intermediate::kv::run_from_pairs;
    use gw_intermediate::IntermediateConfig;
    use gw_storage::NodeId;

    fn store(parts: u32) -> Arc<IntermediateStore> {
        Arc::new(
            IntermediateStore::new(IntermediateConfig {
                num_partitions: parts,
                ..Default::default()
            })
            .unwrap(),
        )
    }

    #[test]
    fn runs_flow_from_peers_into_store() {
        let mut fabric: Fabric<ShuffleMsg> = Fabric::new(3, NetProfile::unlimited());
        let rx_ep = fabric.endpoint(NodeId(0));
        let store0 = store(2);
        let receiver = ShuffleReceiver::spawn(Arc::new(rx_ep), Arc::clone(&store0), 2);

        let senders: Vec<_> = [NodeId(1), NodeId(2)]
            .into_iter()
            .map(|n| {
                let ep = fabric.endpoint(n);
                std::thread::spawn(move || {
                    let run = run_from_pairs([(format!("from-{n}").as_bytes(), b"1".as_slice())]);
                    let records = run.records();
                    let bytes = run.into_shared();
                    let msg = ShuffleMsg::Partition {
                        partition: (n.0 - 1) % 2,
                        bytes,
                        records,
                        tag: None,
                    };
                    let wire = msg.wire_bytes();
                    ep.send(NodeId(0), msg, wire);
                    ep.send(NodeId(0), ShuffleMsg::MapDone, 8);
                })
            })
            .collect();
        for s in senders {
            s.join().unwrap();
        }
        let summary = receiver.join();
        assert_eq!(summary.runs, 2);
        assert_eq!(summary.done_markers, 2);
        store0.finish_map().expect("finish_map");
        assert_eq!(store0.partition_records(0) + store0.partition_records(1), 2);
    }

    #[test]
    fn receiver_stops_exactly_at_expected_done_markers() {
        let mut fabric: Fabric<ShuffleMsg> = Fabric::new(2, NetProfile::unlimited());
        let rx_ep = fabric.endpoint(NodeId(0));
        let tx_ep = fabric.endpoint(NodeId(1));
        let store0 = store(1);
        let receiver = ShuffleReceiver::spawn(Arc::new(rx_ep), Arc::clone(&store0), 1);
        tx_ep.send(NodeId(0), ShuffleMsg::MapDone, 8);
        // Messages after the final marker are ignored by the (finished)
        // receiver rather than consumed.
        let summary = receiver.join();
        assert_eq!(summary.done_markers, 1);
        assert_eq!(summary.runs, 0);
    }

    #[test]
    fn zero_expected_done_returns_immediately() {
        let mut fabric: Fabric<ShuffleMsg> = Fabric::new(1, NetProfile::unlimited());
        let rx_ep = fabric.endpoint(NodeId(0));
        let store0 = store(1);
        let receiver = ShuffleReceiver::spawn(Arc::new(rx_ep), store0, 0);
        let summary = receiver.join();
        assert_eq!(summary.runs, 0);
    }
}
