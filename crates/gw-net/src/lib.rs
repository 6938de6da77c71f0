//! In-process cluster fabric for the Glasswing reproduction.
//!
//! The paper's cluster is connected by Gigabit Ethernet and QDR InfiniBand
//! (used as IP-over-InfiniBand). This crate replaces the physical network
//! with an in-process fabric whose links are bounded channels wrapped in a
//! token-bucket [`throttle::Throttle`], so the *protocol* (Glasswing's
//! push-based shuffle vs. Hadoop's pull) executes for real while bandwidth
//! and latency follow a configurable [`profile::NetProfile`].
//!
//! The key behavioural property preserved from the paper: Glasswing
//! "pushes its intermediate data to the reducer node, whereas Hadoop pulls
//! its intermediate data" — push overlaps the shuffle with the map phase,
//! pull serialises it after map completion.

pub mod fabric;
pub mod profile;
pub mod throttle;
pub mod transport;

pub use fabric::{Endpoint, Fabric, NetFaultAction, NetFaultHook};
pub use profile::NetProfile;
pub use throttle::Throttle;
pub use transport::{RunTag, ShuffleRun};

pub use gw_storage::NodeId;
