//! The in-process cluster fabric: one inbox per node, paced egress.

use std::sync::Arc;

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::RwLock;

use crate::profile::NetProfile;
use crate::throttle::Throttle;
use gw_storage::NodeId;
use gw_trace::{CounterId, LaneId, Realm, Tracer};

/// A message in flight.
#[derive(Debug)]
pub struct Envelope<T> {
    /// Sending node.
    pub from: NodeId,
    /// Payload.
    pub payload: T,
}

/// Outcome of consulting a [`NetFaultHook`] for one data-class message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetFaultAction {
    /// Deliver normally.
    Deliver,
    /// Silently lose the message (the bytes still left the NIC).
    Drop,
    /// Deliver after sleeping for the given duration.
    Delay(std::time::Duration),
}

/// Chaos hook for injecting message loss and delay. Only *data-class*
/// traffic sent through [`Endpoint::send_data`] (every shuffle run)
/// consults the hook; [`Endpoint::send`] is the reliable path. The shuffle
/// needs no reliable control message: a lost run is re-made by re-running
/// its split, and the re-made run is data-class again.
pub trait NetFaultHook: Send + Sync {
    /// Decide the fate of a data message from `from` to `to`.
    fn on_data_message(&self, from: NodeId, to: NodeId) -> NetFaultAction;
}

struct Shared<T> {
    inboxes: Vec<Sender<Envelope<T>>>,
    egress: Vec<Throttle>,
    fault: Option<Arc<dyn NetFaultHook>>,
    tracer: RwLock<Option<Arc<Tracer>>>,
}

/// A cluster fabric for `n` nodes carrying messages of type `T`.
pub struct Fabric<T> {
    shared: Arc<Shared<T>>,
    receivers: Vec<Option<Receiver<Envelope<T>>>>,
}

impl<T: Send + 'static> Fabric<T> {
    /// Build a fabric where every node's egress NIC follows `profile`.
    pub fn new(nodes: u32, profile: NetProfile) -> Self {
        Self::with_fault_hook(nodes, profile, None)
    }

    /// Like [`Fabric::new`], with a chaos fault hook armed on data-class
    /// traffic (see [`NetFaultHook`]).
    pub fn with_fault_hook(
        nodes: u32,
        profile: NetProfile,
        fault: Option<Arc<dyn NetFaultHook>>,
    ) -> Self {
        let mut inboxes = Vec::with_capacity(nodes as usize);
        let mut receivers = Vec::with_capacity(nodes as usize);
        for _ in 0..nodes {
            let (tx, rx) = unbounded();
            inboxes.push(tx);
            receivers.push(Some(rx));
        }
        let egress = (0..nodes).map(|_| Throttle::new(profile)).collect();
        Fabric {
            shared: Arc::new(Shared {
                inboxes,
                egress,
                fault,
                tracer: RwLock::new(None),
            }),
            receivers,
        }
    }

    /// Number of nodes on the fabric.
    pub fn nodes(&self) -> u32 {
        self.shared.inboxes.len() as u32
    }

    /// Take node `n`'s endpoint. Each endpoint can be taken once; the
    /// endpoint is `Send` and moves into the node's runtime thread.
    ///
    /// # Panics
    /// Panics if the endpoint was already taken or `n` is out of range.
    pub fn endpoint(&mut self, n: NodeId) -> Endpoint<T> {
        let rx = self.receivers[n.index()]
            .take()
            .expect("endpoint already taken");
        Endpoint {
            node: n,
            shared: Arc::clone(&self.shared),
            rx,
        }
    }

    /// Arm (or disarm, with `None`) the observability tracer. While
    /// armed, every endpoint emits shuffle send/recv counters on its
    /// node's net lanes.
    pub fn arm_tracer(&self, tracer: Option<Arc<Tracer>>) {
        *self.shared.tracer.write() = tracer;
    }
}

/// One node's attachment to the fabric.
pub struct Endpoint<T> {
    node: NodeId,
    shared: Arc<Shared<T>>,
    rx: Receiver<Envelope<T>>,
}

impl<T: Send + 'static> Endpoint<T> {
    /// This endpoint's node id.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Count one departing message on this node's egress net lane.
    fn trace_send(&self, wire_bytes: usize) {
        if let Some(t) = self.shared.tracer.read().as_ref() {
            let lane = t.lane(LaneId {
                job: 0,
                node: self.node.0,
                realm: Realm::Net,
            });
            lane.count(CounterId::ShuffleSendMsgs, 1);
            lane.count(CounterId::ShuffleSendBytes, wire_bytes as u64);
        }
    }

    /// Count one arriving message on this node's ingress net lane.
    fn trace_recv(&self) {
        if let Some(t) = self.shared.tracer.read().as_ref() {
            t.lane(LaneId {
                job: 0,
                node: self.node.0,
                realm: Realm::NetRx,
            })
            .count(CounterId::ShuffleRecvMsgs, 1);
        }
    }

    /// Send `payload` (`wire_bytes` long on the wire) to node `to`,
    /// blocking for the modeled transmission time on this node's egress
    /// link. Returns the modeled wire duration.
    ///
    /// # Panics
    /// Panics if `to` is out of range. Delivery to a dropped endpoint is
    /// silently discarded (the peer has left the computation).
    pub fn send(&self, to: NodeId, payload: T, wire_bytes: usize) -> std::time::Duration {
        self.trace_send(wire_bytes);
        let wire = self.shared.egress[self.node.index()].acquire(wire_bytes);
        let _ = self.shared.inboxes[to.index()].send(Envelope {
            from: self.node,
            payload,
        });
        wire
    }

    /// Send a *data-class* message: like [`Endpoint::send`], but consults
    /// the fabric's chaos fault hook (if armed), which may drop the
    /// message or delay its delivery. Dropped messages are still charged
    /// to the sender's trace counters and throttle — the bytes left the NIC.
    pub fn send_data(&self, to: NodeId, payload: T, wire_bytes: usize) -> std::time::Duration {
        if let Some(hook) = &self.shared.fault {
            match hook.on_data_message(self.node, to) {
                NetFaultAction::Deliver => {}
                NetFaultAction::Drop => {
                    self.trace_send(wire_bytes);
                    return self.shared.egress[self.node.index()].acquire(wire_bytes);
                }
                NetFaultAction::Delay(d) => std::thread::sleep(d),
            }
        }
        self.send(to, payload, wire_bytes)
    }

    /// Receive the next message, blocking until one arrives or all senders
    /// are gone (returns `None`).
    pub fn recv(&self) -> Option<Envelope<T>> {
        let env = self.rx.recv().ok();
        if env.is_some() {
            self.trace_recv();
        }
        env
    }

    /// Receive with a timeout; `Ok(None)` means all senders are gone.
    pub fn recv_timeout(
        &self,
        timeout: std::time::Duration,
    ) -> Result<Option<Envelope<T>>, RecvTimeoutError> {
        match self.rx.recv_timeout(timeout) {
            Ok(env) => {
                self.trace_recv();
                Ok(Some(env))
            }
            Err(RecvTimeoutError::Disconnected) => Ok(None),
            Err(e @ RecvTimeoutError::Timeout) => Err(e),
        }
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<Envelope<T>> {
        let env = self.rx.try_recv().ok();
        if env.is_some() {
            self.trace_recv();
        }
        env
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_to_point_delivery() {
        let mut fabric: Fabric<String> = Fabric::new(3, NetProfile::unlimited());
        let a = fabric.endpoint(NodeId(0));
        let b = fabric.endpoint(NodeId(1));
        a.send(NodeId(1), "hello".to_string(), 5);
        let env = b.recv().unwrap();
        assert_eq!(env.from, NodeId(0));
        assert_eq!(env.payload, "hello");
    }

    #[test]
    fn send_to_self_works() {
        let mut fabric: Fabric<u8> = Fabric::new(1, NetProfile::unlimited());
        let a = fabric.endpoint(NodeId(0));
        a.send(NodeId(0), 7, 1);
        assert_eq!(a.recv().unwrap().payload, 7);
    }

    #[test]
    #[should_panic(expected = "endpoint already taken")]
    fn endpoint_can_only_be_taken_once() {
        let mut fabric: Fabric<u8> = Fabric::new(1, NetProfile::unlimited());
        let _a = fabric.endpoint(NodeId(0));
        let _b = fabric.endpoint(NodeId(0));
    }

    #[test]
    fn random_traffic_is_conserved() {
        // Every sent message arrives exactly once at its addressee, and
        // the byte accounting matches, under arbitrary traffic patterns.
        use std::collections::HashMap;
        let nodes = 4u32;
        let mut fabric: Fabric<(u32, u64)> = Fabric::new(nodes, NetProfile::unlimited());
        let tracer = Arc::new(Tracer::new());
        fabric.arm_tracer(Some(Arc::clone(&tracer)));
        let endpoints: Vec<_> = (0..nodes)
            .map(|n| Arc::new(fabric.endpoint(NodeId(n))))
            .collect();
        let mut expected: HashMap<u32, Vec<u64>> = HashMap::new();
        // Deterministic pseudo-random pattern.
        let mut x = 0x12345678u64;
        for msg_id in 0..500u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let from = (x >> 33) as u32 % nodes;
            let to = (x >> 17) as u32 % nodes;
            endpoints[from as usize].send(NodeId(to), (to, msg_id), 16);
            expected.entry(to).or_default().push(msg_id);
        }
        for (n, ep) in endpoints.iter().enumerate() {
            let want = expected.remove(&(n as u32)).unwrap_or_default();
            let mut got = Vec::new();
            for _ in 0..want.len() {
                let env = ep.recv().unwrap();
                assert_eq!(env.payload.0, n as u32, "misrouted message");
                got.push(env.payload.1);
            }
            assert!(ep.try_recv().is_none(), "extra messages at node {n}");
            assert_eq!(got.len(), want.len());
            // FIFO per (sender, receiver) pair is not global FIFO; compare
            // as multisets.
            let mut got_s = got;
            let mut want_s = want;
            got_s.sort_unstable();
            want_s.sort_unstable();
            assert_eq!(got_s, want_s);
        }
        let m = tracer.finish().metrics();
        assert_eq!(m.counter_total(CounterId::ShuffleSendMsgs), 500);
        assert_eq!(m.counter_total(CounterId::ShuffleSendBytes), 500 * 16);
        assert_eq!(m.counter_total(CounterId::ShuffleRecvMsgs), 500);
    }

    #[test]
    fn fault_hook_drops_and_delays_data_messages_only() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        struct DropFirst(AtomicUsize);
        impl NetFaultHook for DropFirst {
            fn on_data_message(&self, _from: NodeId, _to: NodeId) -> NetFaultAction {
                match self.0.fetch_add(1, Ordering::Relaxed) {
                    0 => NetFaultAction::Drop,
                    1 => NetFaultAction::Delay(std::time::Duration::from_millis(10)),
                    _ => NetFaultAction::Deliver,
                }
            }
        }
        let mut fabric: Fabric<u32> = Fabric::with_fault_hook(
            2,
            NetProfile::unlimited(),
            Some(Arc::new(DropFirst(AtomicUsize::new(0)))),
        );
        let tracer = Arc::new(Tracer::new());
        fabric.arm_tracer(Some(Arc::clone(&tracer)));
        let a = fabric.endpoint(NodeId(0));
        let b = fabric.endpoint(NodeId(1));
        a.send_data(NodeId(1), 1, 8); // dropped
        let t0 = std::time::Instant::now();
        a.send_data(NodeId(1), 2, 8); // delayed
        assert!(t0.elapsed() >= std::time::Duration::from_millis(10));
        a.send_data(NodeId(1), 3, 8); // delivered
        a.send(NodeId(1), 4, 8); // control path: never consults the hook
        assert_eq!(b.recv().unwrap().payload, 2);
        assert_eq!(b.recv().unwrap().payload, 3);
        assert_eq!(b.recv().unwrap().payload, 4);
        // Dropped messages are still charged to the sender.
        let m = tracer.finish().metrics();
        assert_eq!(m.counter(0, CounterId::ShuffleSendMsgs), 4);
        assert_eq!(m.counter(1, CounterId::ShuffleRecvMsgs), 3);
    }

    #[test]
    fn armed_tracer_counts_shuffle_traffic() {
        let mut fabric: Fabric<u8> = Fabric::new(2, NetProfile::unlimited());
        let tracer = Arc::new(Tracer::new());
        fabric.arm_tracer(Some(Arc::clone(&tracer)));
        let a = fabric.endpoint(NodeId(0));
        let b = fabric.endpoint(NodeId(1));
        a.send(NodeId(1), 1, 100);
        a.send(NodeId(1), 2, 50);
        assert!(b.recv().is_some());
        assert!(b.recv().is_some());
        fabric.arm_tracer(None);
        a.send(NodeId(1), 3, 10); // disarmed: counted nowhere
        let m = tracer.finish().metrics();
        assert_eq!(m.counter(0, CounterId::ShuffleSendMsgs), 2);
        assert_eq!(m.counter(0, CounterId::ShuffleSendBytes), 150);
        assert_eq!(m.counter(1, CounterId::ShuffleRecvMsgs), 2);
    }

    #[test]
    fn cross_thread_messaging() {
        let mut fabric: Fabric<usize> = Fabric::new(2, NetProfile::unlimited());
        let a = fabric.endpoint(NodeId(0));
        let b = fabric.endpoint(NodeId(1));
        let sender = std::thread::spawn(move || {
            for i in 0..100 {
                a.send(NodeId(1), i, 8);
            }
        });
        let mut got = Vec::new();
        for _ in 0..100 {
            got.push(b.recv().unwrap().payload);
        }
        sender.join().unwrap();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
    }
}
