//! Token-bucket pacing for simulated NICs.
//!
//! Each node owns one [`Throttle`] per direction; every byte sent through
//! the fabric reserves wire time on it. Pacing uses *virtual transmission
//! scheduling*: a message of `b` bytes occupies the link for `b/bandwidth`
//! seconds starting no earlier than the end of the previous message, and
//! the sender sleeps until its transmission completes (store-and-forward).
//! This serialises concurrent senders on the same NIC — the contention that
//! makes the partitioning/shuffle stage a bottleneck at scale.

use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::profile::NetProfile;

#[derive(Debug)]
struct State {
    /// Virtual time at which the link becomes free.
    next_free: Instant,
}

/// A paced, shared link (NIC direction).
#[derive(Debug)]
pub struct Throttle {
    profile: NetProfile,
    state: Mutex<State>,
}

impl Throttle {
    /// Create a throttle for the given profile.
    pub fn new(profile: NetProfile) -> Self {
        Throttle {
            profile,
            state: Mutex::new(State {
                next_free: Instant::now(),
            }),
        }
    }

    /// The profile this throttle enforces.
    pub fn profile(&self) -> &NetProfile {
        &self.profile
    }

    /// Reserve wire time for `bytes` and sleep until the transmission
    /// completes. Returns the modeled wire duration of this message.
    pub fn acquire(&self, bytes: usize) -> Duration {
        let wire = self.profile.wire_time(bytes);
        if wire.is_zero() {
            return wire;
        }
        let completes_at = {
            let mut st = self.state.lock();
            let now = Instant::now();
            let start = if st.next_free > now {
                st.next_free
            } else {
                now
            };
            let completes = start + wire;
            st.next_free = completes;
            completes
        };
        let now = Instant::now();
        if completes_at > now {
            std::thread::sleep(completes_at - now);
        }
        wire
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn unlimited_throttle_does_not_sleep() {
        let t = Throttle::new(NetProfile::unlimited());
        let start = Instant::now();
        for _ in 0..100 {
            t.acquire(1 << 20);
        }
        assert!(start.elapsed() < Duration::from_millis(50));
    }

    #[test]
    fn pacing_enforces_bandwidth() {
        // 1 MB/s link, send 200 KB → ≥ 200 ms.
        let t = Throttle::new(NetProfile::slow_test(1.0e6));
        let start = Instant::now();
        for _ in 0..4 {
            t.acquire(50_000);
        }
        let elapsed = start.elapsed();
        assert!(
            elapsed >= Duration::from_millis(180),
            "expected ≥180ms, got {elapsed:?}"
        );
    }

    #[test]
    fn concurrent_senders_share_the_link() {
        let t = Arc::new(Throttle::new(NetProfile::slow_test(1.0e6)));
        let start = Instant::now();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let t = Arc::clone(&t);
                std::thread::spawn(move || {
                    t.acquire(50_000);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // 200 KB total over a shared 1 MB/s link: ≥ ~200 ms even with 4
        // concurrent senders (the link serialises them).
        let elapsed = start.elapsed();
        assert!(
            elapsed >= Duration::from_millis(180),
            "expected ≥180ms, got {elapsed:?}"
        );
    }

    #[test]
    fn acquire_returns_wire_time() {
        let t = Throttle::new(NetProfile::slow_test(1.0e6));
        let d = t.acquire(10_000);
        assert!((d.as_secs_f64() - 0.01).abs() < 1e-6);
    }
}
