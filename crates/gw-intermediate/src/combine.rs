//! The application's combiner, as the engine's collectors and this
//! crate's merges apply it.

/// A combiner: merges a newly emitted value into the accumulated value
/// for a key — "a local reduce over the results of one map chunk" (paper
/// §III-F). The map side applies it in the hash-table collection
/// mechanism, as in the paper. An **order-free** combiner
/// ([`Combiner::order_free`]) is applied again wherever a key's records
/// meet: the store's pre-merges fold each key's records of a batch into
/// one, and the reduce merge hands the reduce function a key's values
/// folded into one (`GroupedCursorMerge::folding`).
pub trait Combiner: Send + Sync {
    /// Merge `value` into `acc` (both in the application's value encoding).
    fn combine(&self, key: &[u8], acc: &mut Vec<u8>, value: &[u8]);

    /// Whether any grouping and order of a key's values combines to the
    /// same bytes: combining is associative and commutative *exactly*, as
    /// an integer sum is and an `f32` sum is not. Then which records a
    /// merge folded together, which depends on which runs the store's
    /// mergers reached before map end, cannot show in the output, and the
    /// engine folds in the store's pre-merges and the reduce merge too.
    /// The default, `false`, keeps the combiner to the map side.
    fn order_free(&self) -> bool {
        false
    }
}

/// Test fixture: sums little-endian `u64` values, order-free.
#[cfg(test)]
pub(crate) struct U64Sum;

#[cfg(test)]
impl U64Sum {
    /// A value's `u64`.
    pub(crate) fn read(value: &[u8]) -> u64 {
        u64::from_le_bytes(value.try_into().expect("an 8-byte count"))
    }
}

#[cfg(test)]
impl Combiner for U64Sum {
    fn combine(&self, _key: &[u8], acc: &mut Vec<u8>, value: &[u8]) {
        let sum = Self::read(acc) + Self::read(value);
        acc.copy_from_slice(&sum.to_le_bytes());
    }

    fn order_free(&self) -> bool {
        true
    }
}
