//! K-Means clustering (KM) — "partitions observations (vector points) in a
//! multi-dimensional vector space, by grouping close-by points together.
//! KM is a compute-intensive application and its complexity is a function
//! of the number of dimensions, centers and observations."
//!
//! "KM is an iterative algorithm, but our implementations perform just one
//! iteration since this shows the performance well for all frameworks."
//! One iteration: assign each point to its nearest center (map, the hot
//! kernel: `k × d` distance evaluations per point), then average each
//! center's members (combine/reduce) to produce the new centers.
//!
//! Intermediate value encoding: `count (u64 LE) ++ sum-vector (d × f32 LE)`
//! so that combining is a count add plus vector add — the aggregation
//! pattern that makes KM's intermediate volume tiny (one record per center
//! after combining, Table III).

use std::sync::Arc;

use gw_core::{Combiner, Emit, GwApp, Records};

use crate::codec::{self, dec_u64, enc_key_u32, enc_u64};

/// Adds partial `(count, sum-vector)` accumulators.
pub struct CentroidCombiner;

impl Combiner for CentroidCombiner {
    fn combine(&self, _key: &[u8], acc: &mut Vec<u8>, value: &[u8]) {
        let count = dec_u64(&acc[..8]) + dec_u64(&value[..8]);
        acc[..8].copy_from_slice(&enc_u64(count));
        codec::add_f32s_in_place(&mut acc[8..], &value[8..]);
    }
}

/// Centers per block of the map kernel: two SSE registers of `f32` lanes.
const LANES: usize = 8;

/// Points the map kernel evaluates per pass over the centers. With
/// [`LANES`] that is eight accumulator registers, which leaves room for a
/// block row and a broadcast coordinate among the sixteen of baseline
/// x86-64; a pass's tail runs one point at a time.
const POINTS: usize = 4;

/// The K-Means application (one iteration).
pub struct KMeans {
    /// Flattened `k × dims` center matrix.
    centers: Vec<f32>,
    /// The same centers for the map kernel: blocks of [`LANES`] centers,
    /// dimension-major inside a block (`[block][dim][lane]`), the last
    /// block's spare lanes filled with `+∞`: a point's distance to one is
    /// `+∞` or NaN, which is `<` nothing.
    blocks: Vec<[f32; LANES]>,
    k: usize,
    dims: usize,
    use_combiner: bool,
}

/// What the map kernel reuses from point to point.
struct Scratch {
    /// The pass's decoded points, point-major.
    points: Vec<f32>,
    /// The record being emitted: `count = 1 ++ point`.
    payload: Vec<u8>,
}

impl KMeans {
    /// Build from the current centers.
    pub fn new(centers: Vec<f32>, k: usize, dims: usize) -> Self {
        assert_eq!(centers.len(), k * dims, "centers must be k × dims");
        assert!(k > 0 && dims > 0);
        // A NaN center is nearer to nothing: every `<` against it is false.
        assert!(
            centers.iter().all(|c| c.is_finite()),
            "centers must be finite"
        );
        let mut blocks = vec![[f32::INFINITY; LANES]; k.div_ceil(LANES) * dims];
        for (c, center) in centers.chunks_exact(dims).enumerate() {
            for (d, coord) in center.iter().enumerate() {
                blocks[c / LANES * dims + d][c % LANES] = *coord;
            }
        }
        KMeans {
            centers,
            blocks,
            k,
            dims,
            use_combiner: true,
        }
    }

    /// Disable the combiner (paper configuration (ii)).
    pub fn without_combiner(mut self) -> Self {
        self.use_combiner = false;
        self
    }

    /// Number of centers.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Dimensionality.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Index of the nearest center to `point` (squared distance, ties to
    /// the lower index). The reference the map kernel is tested against.
    #[inline]
    pub fn nearest_center(&self, point: &[f32]) -> usize {
        assert_eq!(point.len(), self.dims, "point must have dims coordinates");
        let mut best = 0usize;
        let mut best_d = f32::INFINITY;
        for c in 0..self.k {
            let center = &self.centers[c * self.dims..(c + 1) * self.dims];
            let mut d = 0.0f32;
            for (p, q) in point.iter().zip(center) {
                let diff = p - q;
                d += diff * diff;
            }
            if d < best_d {
                best_d = d;
                best = c;
            }
        }
        best
    }

    fn scratch(&self) -> Scratch {
        Scratch {
            points: vec![0.0; POINTS * self.dims],
            payload: Vec::with_capacity(8 + self.dims * 4),
        }
    }

    /// The map kernel: assign the `P` points in `values` to their nearest
    /// centers and emit `(center, 1 ++ point)` for each, in order.
    ///
    /// Every (point, center) distance is [`KMeans::nearest_center`]'s: the
    /// same `f32` subtractions, multiplications and additions, dimensions
    /// ascending. What differs is which distances are in flight together
    /// — `P` points against the [`LANES`] centers of a block — so that the
    /// arithmetic fills vector lanes. Blocks are visited in center order,
    /// a block's lanes in order, and a distance replaces the best so far
    /// only on `<`: ties go to the lower index, as in the reference.
    #[inline]
    fn map_points<const P: usize>(&self, values: [&[u8]; P], s: &mut Scratch, emit: &Emit<'_>) {
        let dims = self.dims;
        let points = &mut s.points[..P * dims];
        for (point, value) in points.chunks_exact_mut(dims).zip(values) {
            // A real check: a shorter or longer value would be assigned by
            // the coordinates it shares with the centers, silently.
            assert_eq!(value.len(), dims * 4, "point must be dims × f32");
            for (coord, bytes) in point.iter_mut().zip(value.chunks_exact(4)) {
                *coord = f32::from_le_bytes(bytes.try_into().expect("4 bytes"));
            }
        }
        let points: [&[f32]; P] = std::array::from_fn(|p| &points[p * dims..][..dims]);
        let mut best = [0usize; P];
        let mut best_d = [f32::INFINITY; P];
        for (b, block) in self.blocks.chunks_exact(dims).enumerate() {
            let mut dist = [[0.0f32; LANES]; P];
            for (d, row) in block.iter().enumerate() {
                for p in 0..P {
                    let coord = points[p][d];
                    for l in 0..LANES {
                        let diff = coord - row[l];
                        dist[p][l] += diff * diff;
                    }
                }
            }
            for p in 0..P {
                // Most blocks hold nothing nearer: one compare per lane
                // and no branch says so.
                if dist[p].iter().fold(false, |any, d| any | (*d < best_d[p])) {
                    for (l, d) in dist[p].iter().enumerate() {
                        if *d < best_d[p] {
                            best_d[p] = *d;
                            best[p] = b * LANES + l;
                        }
                    }
                }
            }
        }
        for (value, nearest) in values.iter().zip(best) {
            // Emit (center, count=1 ++ point) — ready for additive combining.
            s.payload.clear();
            s.payload.extend_from_slice(&enc_u64(1));
            s.payload.extend_from_slice(value);
            emit.emit(&enc_key_u32(nearest as u32), &s.payload);
        }
    }
}

impl GwApp for KMeans {
    fn name(&self) -> &'static str {
        "kmeans"
    }

    fn map(&self, _key: &[u8], value: &[u8], emit: &Emit<'_>) {
        self.map_points([value], &mut self.scratch(), emit);
    }

    fn map_records(&self, records: &Records<'_>, emit: &Emit<'_>) {
        let mut scratch = self.scratch();
        let mut i = 0;
        while i + POINTS <= records.len() {
            let values = std::array::from_fn::<_, POINTS, _>(|p| records.get(i + p).1);
            self.map_points(values, &mut scratch, emit);
            i += POINTS;
        }
        for i in i..records.len() {
            self.map_points([records.get(i).1], &mut scratch, emit);
        }
    }

    fn combiner(&self) -> Option<Arc<dyn Combiner>> {
        self.use_combiner
            .then(|| Arc::new(CentroidCombiner) as Arc<dyn Combiner>)
    }

    fn reduce(
        &self,
        key: &[u8],
        values: &[&[u8]],
        state: &mut Vec<u8>,
        last: bool,
        emit: &Emit<'_>,
    ) {
        if state.is_empty() {
            state.extend_from_slice(&enc_u64(0));
            state.resize(8 + self.dims * 4, 0);
        }
        for v in values {
            let count = dec_u64(&state[..8]) + dec_u64(&v[..8]);
            state[..8].copy_from_slice(&enc_u64(count));
            codec::add_f32s_in_place(&mut state[8..], &v[8..]);
        }
        if last {
            let count = dec_u64(&state[..8]);
            let sums = codec::get_f32s(&state[8..]);
            let new_center: Vec<f32> = if count == 0 {
                sums
            } else {
                sums.iter().map(|s| s / count as f32).collect()
            };
            let mut out = Vec::with_capacity(self.dims * 4);
            codec::put_f32s(&mut out, &new_center);
            emit.emit(key, &out);
        }
    }

    /// `(count, sum-vector)` accumulation is associative: enable parallel
    /// single-key reduction — the paper singles KM out as the kind of
    /// compute-intensive app "that can benefit from parallel reduction".
    fn merge_states(&self, acc: &mut Vec<u8>, other: &[u8]) -> bool {
        if other.is_empty() {
            return true;
        }
        if acc.is_empty() {
            acc.extend_from_slice(other);
            return true;
        }
        let count = dec_u64(&acc[..8]) + dec_u64(&other[..8]);
        acc[..8].copy_from_slice(&enc_u64(count));
        codec::add_f32s_in_place(&mut acc[8..], &other[8..]);
        true
    }
}

/// Outcome of an iterative K-Means run.
#[derive(Debug, Clone)]
pub struct KMeansRun {
    /// Final centers (flattened `k x dims`).
    pub centers: Vec<f32>,
    /// Total absolute center movement per iteration (monotone decrease is
    /// the convergence signal).
    pub movements: Vec<f32>,
}

/// Drive `iterations` K-Means iterations on a cluster: each iteration is a
/// full MapReduce job whose output centers seed the next ("KM is an
/// iterative algorithm"; the paper benchmarks one iteration, this helper
/// generalises it). `cfg.input` must already hold the point set; each
/// iteration writes `"{cfg.output}-{i}"`.
pub fn run_iterations(
    cluster: &gw_core::Cluster,
    cfg: &gw_core::JobConfig,
    mut centers: Vec<f32>,
    k: usize,
    dims: usize,
    iterations: usize,
) -> Result<KMeansRun, gw_core::EngineError> {
    let mut movements = Vec::with_capacity(iterations);
    for iter in 0..iterations {
        let mut iter_cfg = cfg.clone();
        iter_cfg.output = format!("{}-{iter}", cfg.output);
        let app = Arc::new(KMeans::new(centers.clone(), k, dims));
        let report = cluster.run(app, &iter_cfg)?;
        let out = gw_core::cluster::read_job_output(cluster.store(), &report)?;
        let mut moved = 0.0f32;
        for (key, v) in out {
            let c = codec::dec_key_u32(&key) as usize;
            let new = codec::get_f32s(&v);
            for (d, nv) in new.iter().enumerate() {
                moved += (centers[c * dims + d] - nv).abs();
                centers[c * dims + d] = *nv;
            }
        }
        movements.push(moved);
    }
    Ok(KMeansRun { centers, movements })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gw_core::collect::{for_each_record, BufferPoolCollector};

    fn app2d() -> KMeans {
        // Two centers: (0,0) and (10,10).
        KMeans::new(vec![0.0, 0.0, 10.0, 10.0], 2, 2)
    }

    #[test]
    fn nearest_center_picks_closest() {
        let app = app2d();
        assert_eq!(app.nearest_center(&[1.0, 1.0]), 0);
        assert_eq!(app.nearest_center(&[9.0, 9.0]), 1);
        // Equidistant ties go to the lower index.
        assert_eq!(app.nearest_center(&[5.0, 5.0]), 0);
    }

    #[test]
    fn map_emits_assignment_with_count() {
        let app = app2d();
        let c = BufferPoolCollector::new(4096, 1);
        let mut point = Vec::new();
        codec::put_f32s(&mut point, &[8.0, 9.0]);
        app.map(b"0", &point, &Emit::new(&c));
        let mut out = Vec::new();
        for_each_record(&c, &mut |k, v| out.push((k.to_vec(), v.to_vec())));
        assert_eq!(out.len(), 1);
        assert_eq!(codec::dec_key_u32(&out[0].0), 1);
        assert_eq!(dec_u64(&out[0].1[..8]), 1);
        assert_eq!(codec::get_f32s(&out[0].1[8..]), vec![8.0, 9.0]);
    }

    #[test]
    fn combiner_accumulates_counts_and_sums() {
        let comb = CentroidCombiner;
        let mut acc = Vec::new();
        acc.extend_from_slice(&enc_u64(1));
        codec::put_f32s(&mut acc, &[1.0, 2.0]);
        let mut v = Vec::new();
        v.extend_from_slice(&enc_u64(2));
        codec::put_f32s(&mut v, &[3.0, 4.0]);
        comb.combine(b"k", &mut acc, &v);
        assert_eq!(dec_u64(&acc[..8]), 3);
        assert_eq!(codec::get_f32s(&acc[8..]), vec![4.0, 6.0]);
    }

    #[test]
    fn reduce_averages_members() {
        let app = app2d();
        let c = BufferPoolCollector::new(4096, 1);
        let emit = Emit::new(&c);
        let mut state = Vec::new();
        let mk = |count: u64, p: [f32; 2]| {
            let mut v = Vec::new();
            v.extend_from_slice(&enc_u64(count));
            codec::put_f32s(&mut v, &p);
            v
        };
        let a = mk(1, [2.0, 4.0]);
        let b = mk(1, [4.0, 8.0]);
        // Split across two chunks to exercise scratch state.
        app.reduce(&enc_key_u32(0), &[&a], &mut state, false, &emit);
        app.reduce(&enc_key_u32(0), &[&b], &mut state, true, &emit);
        let mut out = Vec::new();
        for_each_record(&c, &mut |k, v| out.push((k.to_vec(), codec::get_f32s(v))));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].1, vec![3.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "centers must be k × dims")]
    fn wrong_center_shape_is_rejected() {
        KMeans::new(vec![0.0; 5], 2, 2);
    }

    #[test]
    #[should_panic(expected = "centers must be finite")]
    fn nan_center_is_rejected() {
        KMeans::new(vec![0.0, f32::NAN, 1.0, 1.0], 2, 2);
    }

    #[test]
    #[should_panic(expected = "point must be dims × f32")]
    fn short_point_is_rejected_by_map() {
        let c = BufferPoolCollector::new(4096, 1);
        app2d().map(b"0", &[0u8; 4], &Emit::new(&c));
    }

    #[test]
    #[should_panic(expected = "point must be dims × f32")]
    fn long_point_is_rejected_by_map_records() {
        let mut points = vec![vec![1.0f32, 2.0]; 5];
        points[2].push(3.0);
        assigned_by_map_records(&app2d(), &points);
    }

    // --- the blocked kernel against the scalar reference ---

    use gw_core::Collector;
    use gw_storage::varint::RecRef;

    /// The centers `run` emits for, after checking that every record is
    /// `(center, 1 ++ point)` and that they come in point order.
    fn assigned(
        points: &[Vec<f32>],
        run: impl FnOnce(&dyn Collector, &[u8], &[RecRef]),
    ) -> Vec<u32> {
        let mut bytes = Vec::new();
        let refs: Vec<RecRef> = points
            .iter()
            .enumerate()
            .map(|(i, point)| {
                let mut value = Vec::new();
                codec::put_f32s(&mut value, point);
                RecRef::write(&mut bytes, &enc_key_u32(i as u32), &value)
            })
            .collect();
        // One shard: records drain in emission order.
        let c = BufferPoolCollector::new(1 << 16, 1);
        run(&c, &bytes, &refs);
        let mut out = Vec::new();
        for_each_record(&c, &mut |k, v| {
            let mut want = enc_u64(1).to_vec();
            codec::put_f32s(&mut want, &points[out.len()]);
            assert_eq!(v, want, "record {} is 1 ++ point", out.len());
            out.push(codec::dec_key_u32(k));
        });
        assert_eq!(out.len(), points.len());
        out
    }

    fn assigned_by_map_records(app: &KMeans, points: &[Vec<f32>]) -> Vec<u32> {
        assigned(points, |c, bytes, refs| {
            app.map_records(&Records::new(bytes, refs), &Emit::new(c))
        })
    }

    fn assigned_by_map(app: &KMeans, points: &[Vec<f32>]) -> Vec<u32> {
        assigned(points, |c, bytes, refs| {
            for (key, value) in Records::new(bytes, refs).iter() {
                app.map(key, value, &Emit::new(c));
            }
        })
    }

    fn assert_kernel_matches_reference(app: &KMeans, points: &[Vec<f32>]) {
        let want: Vec<u32> = points
            .iter()
            .map(|p| app.nearest_center(p) as u32)
            .collect();
        assert_eq!(assigned_by_map_records(app, points), want, "map_records");
        assert_eq!(assigned_by_map(app, points), want, "map");
    }

    #[test]
    fn a_tie_across_a_block_boundary_goes_to_the_lower_index() {
        // Centers 0..10 on a line, 7 and 8 in the same place: the last
        // lane of block 0 and the first of block 1.
        let mut centers: Vec<f32> = (0..10).map(|c| c as f32 * 10.0).collect();
        centers[8] = centers[7];
        let app = KMeans::new(centers, 10, 1);
        let points = [vec![70.0], vec![71.0], vec![75.0], vec![85.0], vec![-5.0]];
        assert_eq!(assigned_by_map_records(&app, &points), [7, 7, 7, 9, 0]);
        assert_kernel_matches_reference(&app, &points);
    }

    #[test]
    fn one_eight_and_nine_centers() {
        for k in [1usize, 8, 9] {
            // The last center is the near one: the only lane of its block
            // at k = 1 and 9, the last lane at k = 8.
            let centers: Vec<f32> = (0..k).flat_map(|c| [(k - c) as f32, 0.0]).collect();
            let app = KMeans::new(centers, k, 2);
            let points: Vec<Vec<f32>> = (0..7).map(|i| vec![1.0 - i as f32, 0.5]).collect();
            assert_eq!(assigned_by_map_records(&app, &points)[0], k as u32 - 1);
            assert_kernel_matches_reference(&app, &points);
        }
    }

    #[test]
    fn points_no_center_is_near_go_to_center_0_as_in_the_reference() {
        // Every distance is +∞ or NaN, also against the padded lanes.
        let app = KMeans::new((0..20).map(|c| c as f32).collect(), 10, 2);
        let points = [
            vec![f32::NAN, 1.0],
            vec![f32::INFINITY, 1.0],
            vec![1.0, f32::NEG_INFINITY],
            vec![f32::MAX, f32::MAX],
            vec![9.0, 9.0],
        ];
        assert_eq!(assigned_by_map_records(&app, &points), [0, 0, 0, 0, 4]);
        assert_eq!(assigned_by_map(&app, &points), [0, 0, 0, 0, 4]);
        assert_eq!(app.nearest_center(&points[0]), 0);
        assert_eq!(app.nearest_center(&points[3]), 0);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// `map_records` (four points a pass, then the tail), `map`
            /// (one point a pass) and the scalar reference choose the same
            /// center for every point. Coordinates come from a five-value
            /// grid, so equidistant and duplicate centers are the rule;
            /// `k` covers 0–7 padded lanes in 1–5 blocks and the slice
            /// lengths every tail of the four-point pass.
            #[test]
            fn kernel_and_reference_choose_the_same_centers(
                k in 1usize..=40,
                dims in 1usize..=17,
                n_points in 0usize..=9,
                center_grid in proptest::collection::vec(-2i8..=2, 40 * 17),
                point_grid in proptest::collection::vec(-2i8..=2, 9 * 17))
            {
                let centers = center_grid[..k * dims].iter().map(|c| f32::from(*c)).collect();
                let app = KMeans::new(centers, k, dims);
                let points: Vec<Vec<f32>> = point_grid[..n_points * dims]
                    .chunks_exact(dims)
                    // Half steps: points midway between grid centers.
                    .map(|p| p.iter().map(|c| f32::from(*c) * 0.5).collect())
                    .collect();
                assert_kernel_matches_reference(&app, &points);
            }
        }
    }
}
