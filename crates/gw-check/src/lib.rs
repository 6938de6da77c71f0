//! # gw-check — one exhaustive explorer for the engine's state machines
//!
//! The intermediate store's merger tasks, the pipeline's buffer interlock
//! and the coordinator's re-execution are each one private state machine.
//! Their `checker` test modules each describe it, with the threads and
//! faults around it, as a [`Model`], and [`explore`] visits every state the
//! model reaches, breadth first: a violated property comes back with a
//! shortest event trace to it.
//!
//! A state's `Hash` is its canonical form: it covers what decides the
//! state's future, and two states that hash alike are one. The search
//! keeps 64-bit hashes, not states, so its memory is one parent link a
//! state.
//!
//! A state is **terminal** when no event leads out of it: it allows none,
//! or each leads back to it. [`Model::ends`] checks every terminal state,
//! so a thread that only re-asks a question whose answer never changes is
//! caught as stuck, not taken for progress.

use std::collections::hash_map::{DefaultHasher, Entry};
use std::collections::{HashMap, VecDeque};
use std::fmt::Debug;
use std::hash::{BuildHasher, BuildHasherDefault, Hash};
use std::time::Instant;

/// A state machine, the events its environment may bring, and the
/// properties it keeps.
pub trait Model {
    /// Everything the next events depend on; `Hash` is its canonical form.
    type State: Clone + Hash;
    type Event: Copy + Debug;

    fn start(&self) -> Self::State;

    /// The events `state` allows, in the order the search tries them.
    fn events(&self, state: &Self::State) -> Vec<Self::Event>;

    /// Take `event` in `state`: `Err` names the property the step breaks.
    fn apply(&self, state: &mut Self::State, event: Self::Event) -> Result<(), String>;

    /// The properties of a terminal state (crate doc).
    fn ends(&self, state: &Self::State) -> Result<(), String>;

    /// Names the model in the printed line and in a violation.
    fn label(&self) -> String;
}

/// Explore every state `model` reaches, print their count and the time
/// taken, and return the count; the first property violated comes back
/// with a shortest event trace to it.
pub fn explore<M: Model>(model: &M) -> Result<usize, String> {
    let started = Instant::now();
    let fingerprint =
        |state: &M::State| BuildHasherDefault::<DefaultHasher>::default().hash_one(state);
    let start = model.start();
    // Each state's parent and the event that led from it.
    let mut seen: HashMap<u64, Option<(u64, M::Event)>> = HashMap::new();
    seen.insert(fingerprint(&start), None);
    let mut frontier = VecDeque::from([start]);
    let fail = |seen: &HashMap<u64, Option<(u64, M::Event)>>, mut at, last, why| {
        let mut trace: Vec<M::Event> = Vec::from_iter(last);
        while let Some(Some((parent, event))) = seen.get(&at) {
            trace.push(*event);
            at = *parent;
        }
        trace.reverse();
        let n = trace.len();
        Err(format!(
            "{}: {why}\nshortest trace ({n} events): {trace:?}",
            model.label()
        ))
    };
    while let Some(state) = frontier.pop_front() {
        let here = fingerprint(&state);
        let mut terminal = true;
        for event in model.events(&state) {
            let mut next = state.clone();
            if let Err(why) = model.apply(&mut next, event) {
                return fail(&seen, here, Some(event), why);
            }
            let key = fingerprint(&next);
            terminal &= key == here;
            if let Entry::Vacant(e) = seen.entry(key) {
                e.insert(Some((here, event)));
                frontier.push_back(next);
            }
        }
        if terminal {
            if let Err(why) = model.ends(&state) {
                return fail(&seen, here, None, why);
            }
        }
    }
    let elapsed = started.elapsed();
    println!("{}: {} states in {elapsed:.2?}", model.label(), seen.len());
    Ok(seen.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    /// A walk over a directed graph: the state is the node, event `i` of a
    /// node takes its `i`th edge. Stepping onto `bad` breaks a property,
    /// and so does ending anywhere but `home`. Terminal nodes are logged.
    struct Walk {
        edges: Vec<Vec<usize>>,
        bad: Option<usize>,
        home: usize,
        ended: RefCell<Vec<usize>>,
    }

    impl Walk {
        fn new(edges: &[&[usize]], bad: Option<usize>, home: usize) -> Self {
            let edges = edges.iter().map(|e| e.to_vec()).collect();
            let ended = RefCell::default();
            Walk {
                edges,
                bad,
                home,
                ended,
            }
        }
    }

    impl Model for Walk {
        type State = usize;
        type Event = (usize, usize);

        fn start(&self) -> usize {
            0
        }

        fn events(&self, &node: &usize) -> Vec<(usize, usize)> {
            self.edges[node].iter().map(|&to| (node, to)).collect()
        }

        fn apply(&self, node: &mut usize, (_, to): (usize, usize)) -> Result<(), String> {
            *node = to;
            match self.bad {
                Some(bad) if to == bad => Err(format!("reached {bad}")),
                _ => Ok(()),
            }
        }

        fn ends(&self, &node: &usize) -> Result<(), String> {
            self.ended.borrow_mut().push(node);
            match node == self.home {
                true => Ok(()),
                false => Err(format!("stuck at {node}")),
            }
        }

        fn label(&self) -> String {
            "walk".into()
        }
    }

    #[test]
    fn of_two_paths_to_a_violation_the_shorter_comes_back() {
        // 0 → 1 → 2 → 3 → 9 is tried first; 0 → 4 → 9 is shorter.
        let edges: &[&[usize]] = &[&[1, 4], &[2], &[3], &[9], &[9], &[], &[], &[], &[], &[]];
        let err = explore(&Walk::new(edges, Some(9), 9)).unwrap_err();
        assert_eq!(
            err,
            "walk: reached 9\nshortest trace (2 events): [(0, 4), (4, 9)]"
        );
    }

    #[test]
    fn a_violated_end_comes_back_with_its_trace() {
        let edges: &[&[usize]] = &[&[1, 2], &[3], &[3], &[]];
        let err = explore(&Walk::new(edges, None, 0)).unwrap_err();
        assert_eq!(
            err,
            "walk: stuck at 3\nshortest trace (2 events): [(0, 1), (1, 3)]"
        );
    }

    #[test]
    fn a_state_whose_every_event_leads_back_to_it_is_terminal() {
        // Node 1 only loops on itself: it ends. Nodes 2 and 3 lead to each
        // other: neither ends.
        let edges: &[&[usize]] = &[&[1, 2], &[1, 1], &[3], &[2]];
        let err = explore(&Walk::new(edges, None, 0)).unwrap_err();
        assert_eq!(err, "walk: stuck at 1\nshortest trace (1 events): [(0, 1)]");
        let walk = Walk::new(edges, None, 1);
        assert_eq!(explore(&walk), Ok(4));
        assert_eq!(*walk.ended.borrow(), [1]);
    }

    /// Steps up or right on an `n × n` grid of points.
    struct Lattice(u32);

    impl Model for Lattice {
        type State = (u32, u32);
        type Event = bool;

        fn start(&self) -> (u32, u32) {
            (0, 0)
        }

        fn events(&self, &(x, y): &(u32, u32)) -> Vec<bool> {
            [
                (x + 1 < self.0).then_some(true),
                (y + 1 < self.0).then_some(false),
            ]
            .into_iter()
            .flatten()
            .collect()
        }

        fn apply(&self, (x, y): &mut (u32, u32), right: bool) -> Result<(), String> {
            *if right { x } else { y } += 1;
            Ok(())
        }

        fn ends(&self, &end: &(u32, u32)) -> Result<(), String> {
            match end == (self.0 - 1, self.0 - 1) {
                true => Ok(()),
                false => Err(format!("ended at {end:?}")),
            }
        }

        fn label(&self) -> String {
            format!("{0} × {0} lattice", self.0)
        }
    }

    #[test]
    fn a_lattice_is_counted_state_by_state() {
        assert_eq!(explore(&Lattice(1)), Ok(1));
        assert_eq!(explore(&Lattice(7)), Ok(49));
    }
}
