//! The resident node runtime: parked OS threads keyed by role.
//!
//! Every engine thread — a node's job thread, its shuffle receiver, each
//! stage lane, the device and partition pool workers, the store's
//! mergers — runs as a task on a [`Runtime`] that outlives the job. A
//! task names its [`RoleKey`] `(physical node, role, lane)`; it runs on
//! the lowest-numbered idle thread of that key, and a thread is born only
//! when every thread of the key is busy. A warm job therefore spawns
//! nothing, and each thread keeps doing the same work job after job.
//!
//! The keys matter as much as the reuse: glibc hands each thread a malloc
//! arena for life, and an arena keeps what its threads freed. A fresh
//! thread per job lands on whichever arena is next, so every arena ends
//! up holding the high-water mark of every role that ever ran on it; a
//! thread that keeps its role keeps one role's high-water mark.
//!
//! A task whose handle is dropped is *detached*: it keeps its thread busy
//! until it returns, and the next task of its key gets a new thread
//! rather than waiting for it (this is how a timed-out job's stuck
//! threads are left behind). Dropping the runtime ends its idle threads
//! and retires the busy ones once their task returns.

use std::collections::HashMap;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

use parking_lot::{Condvar, Mutex};

use crate::{PipelineKind, StageId};

/// What a runtime thread does for its node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Role {
    /// A node's whole job: map ∥ merge, then reduce.
    Node,
    /// A node's shuffle receiver.
    ShuffleRx,
    /// One lane of a pipeline stage slot.
    Stage(PipelineKind, StageId),
    /// A compute-device pool worker.
    Device,
    /// A partitioning pool worker.
    Partition,
    /// An intermediate-store merger.
    Merger,
    /// A service submission, from dispatch to its result.
    Job,
}

/// A runtime thread's identity: `(physical node, role, lane)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RoleKey {
    /// Physical node the task works for.
    pub node: u32,
    /// What the task does.
    pub role: Role,
    /// Lane of the role (worker index, stage lane); 0 for single roles.
    pub lane: u32,
}

impl RoleKey {
    /// Key `role`'s lane `lane` on physical node `node`.
    pub fn new(node: u32, role: Role, lane: u32) -> Self {
        RoleKey { node, role, lane }
    }

    fn thread_name(&self) -> String {
        let role = match self.role {
            Role::Node => "node".to_string(),
            Role::ShuffleRx => "rx".to_string(),
            Role::Stage(kind, stage) => format!("{}-{}", kind.name(), stage.name_in(kind)),
            Role::Device => "dev".to_string(),
            Role::Partition => "part".to_string(),
            Role::Merger => "merge".to_string(),
            Role::Job => "job".to_string(),
        };
        format!("gw{}-{role}-{}", self.node, self.lane)
    }
}

/// A task as a thread runs it; it calls [`Worker::rest`] once its
/// function has returned and before it publishes the result.
type Task = Box<dyn FnOnce(&Worker) + Send>;

/// One parked thread's mailbox.
struct Slot {
    /// The task handed to this thread and not yet started.
    next: Option<Task>,
    /// Set when a task is handed over, cleared when it returns.
    busy: bool,
    /// The runtime is gone: exit once no task is left.
    retire: bool,
}

struct Worker {
    slot: Mutex<Slot>,
    wake: Condvar,
    thread: Mutex<Option<thread::JoinHandle<()>>>,
}

impl Worker {
    fn run(&self) {
        loop {
            let task = {
                let mut slot = self.slot.lock();
                loop {
                    if let Some(task) = slot.next.take() {
                        break task;
                    }
                    if slot.retire {
                        return;
                    }
                    self.wake.wait(&mut slot);
                }
            };
            task(self);
        }
    }

    /// Mark this thread idle: the next task of its key may take it.
    fn rest(&self) {
        self.slot.lock().busy = false;
    }
}

#[derive(Default)]
struct State {
    /// Threads per key, lowest-numbered first.
    roles: HashMap<RoleKey, Vec<Arc<Worker>>>,
    /// Threads ever spawned, per physical node.
    spawned: HashMap<u32, u64>,
}

/// A set of parked OS threads keyed by [`RoleKey`]; see the module docs.
#[derive(Default)]
pub struct Runtime {
    state: Mutex<State>,
}

impl Runtime {
    /// A runtime with no threads yet.
    pub fn new() -> Self {
        Runtime::default()
    }

    /// Run `f` as a task of `role`. Dropping the handle detaches the task.
    pub fn spawn<F, T>(&self, role: RoleKey, f: F) -> JoinHandle<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        let packet = Arc::new(Packet::new(None));
        self.submit(role, task(f, Arc::clone(&packet)));
        JoinHandle { packet }
    }

    /// Run `f` with a [`Scope`] whose tasks may borrow from the caller's
    /// stack. Every task is joined before this returns, also when `f`
    /// panics; `f`'s panic is then re-raised, and so is the panic of any
    /// task whose handle was not joined.
    pub fn scope<'env, F, R>(&'env self, f: F) -> R
    where
        F: for<'scope> FnOnce(&'scope Scope<'scope, 'env>) -> R,
    {
        let scope = Scope {
            runtime: self,
            data: Arc::new(ScopeData::default()),
            scope: PhantomData,
            env: PhantomData,
        };
        let result = catch_unwind(AssertUnwindSafe(|| f(&scope)));
        scope.data.wait_all();
        match result {
            Err(panic) => resume_unwind(panic),
            Ok(_) if scope.data.panicked.load(Ordering::Relaxed) => {
                panic!("a scoped runtime task panicked")
            }
            Ok(r) => r,
        }
    }

    /// Threads the runtime holds, busy or idle.
    pub fn threads(&self) -> usize {
        self.state.lock().roles.values().map(Vec::len).sum()
    }

    /// Threads running a task right now.
    pub fn busy_threads(&self) -> usize {
        let state = self.state.lock();
        let workers = state.roles.values().flatten();
        workers.filter(|w| w.slot.lock().busy).count()
    }

    /// Threads ever spawned for tasks of physical node `node`.
    pub fn spawned_on(&self, node: u32) -> u64 {
        self.state.lock().spawned.get(&node).copied().unwrap_or(0)
    }

    /// Hand `task` to the lowest-numbered idle thread of `role`, or to a
    /// new thread when all of them are busy.
    fn submit(&self, role: RoleKey, task: Task) {
        let mut state = self.state.lock();
        let workers = state.roles.entry(role).or_default();
        // Only `submit` marks a thread busy, and it holds the state lock:
        // a thread found idle here is still idle below.
        if let Some(w) = workers.iter().find(|w| !w.slot.lock().busy) {
            let mut slot = w.slot.lock();
            slot.busy = true;
            slot.next = Some(task);
            w.wake.notify_one();
            return;
        }
        let worker = Arc::new(Worker {
            slot: Mutex::new(Slot {
                next: Some(task),
                busy: true,
                retire: false,
            }),
            wake: Condvar::new(),
            thread: Mutex::new(None),
        });
        let runs = Arc::clone(&worker);
        let handle = thread::Builder::new()
            .name(role.thread_name())
            .spawn(move || runs.run())
            .expect("spawn runtime thread");
        *worker.thread.lock() = Some(handle);
        workers.push(worker);
        *state.spawned.entry(role.node).or_default() += 1;
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        let roles = std::mem::take(&mut self.state.get_mut().roles);
        let me = thread::current().id();
        for worker in roles.into_values().flatten() {
            let idle = {
                let mut slot = worker.slot.lock();
                slot.retire = true;
                worker.wake.notify_one();
                !slot.busy
            };
            // A busy thread is detached: it exits when its task returns.
            if let Some(handle) = worker.thread.lock().take() {
                if idle && handle.thread().id() != me {
                    let _ = handle.join();
                }
            }
        }
    }
}

/// Wrap `f` as a task that publishes into `packet` once its thread rests.
fn task<'a, F, T>(f: F, packet: Arc<Packet<T>>) -> Box<dyn FnOnce(&Worker) + Send + 'a>
where
    F: FnOnce() -> T + Send + 'a,
    T: Send + 'a,
{
    Box::new(move |worker: &Worker| {
        let result = catch_unwind(AssertUnwindSafe(f));
        // Rest before the joiner can wake, so a job that joined all its
        // tasks leaves every one of their threads idle for the next job.
        worker.rest();
        packet.publish(result);
    })
}

/// A task's result, shared by its thread and its handle.
struct Packet<T> {
    result: Mutex<Option<thread::Result<T>>>,
    done: Condvar,
    scope: Option<Arc<ScopeData>>,
}

impl<T> Packet<T> {
    fn new(scope: Option<Arc<ScopeData>>) -> Self {
        Packet {
            result: Mutex::new(None),
            done: Condvar::new(),
            scope,
        }
    }

    fn publish(&self, result: thread::Result<T>) {
        *self.result.lock() = Some(result);
        self.done.notify_all();
    }

    fn wait(&self) -> thread::Result<T> {
        let mut result = self.result.lock();
        loop {
            if let Some(r) = result.take() {
                return r;
            }
            self.done.wait(&mut result);
        }
    }
}

impl<T> Drop for Packet<T> {
    fn drop(&mut self) {
        let unjoined_panic = matches!(self.result.get_mut(), Some(Err(_)));
        // The result may borrow from the scope's environment: drop it
        // before the scope may return.
        let _ = catch_unwind(AssertUnwindSafe(|| *self.result.get_mut() = None));
        if let Some(scope) = &self.scope {
            scope.task_ended(unjoined_panic);
        }
    }
}

/// Handle to a `'static` task; see [`Runtime::spawn`].
pub struct JoinHandle<T> {
    packet: Arc<Packet<T>>,
}

impl<T> JoinHandle<T> {
    /// Wait for the task; `Err` carries its panic.
    pub fn join(self) -> thread::Result<T> {
        self.packet.wait()
    }
}

/// Tasks of one [`Runtime::scope`] call still running.
#[derive(Default)]
struct ScopeData {
    running: Mutex<usize>,
    ended: Condvar,
    panicked: AtomicBool,
}

impl ScopeData {
    fn task_started(&self) {
        *self.running.lock() += 1;
    }

    fn task_ended(&self, panicked: bool) {
        if panicked {
            self.panicked.store(true, Ordering::Relaxed);
        }
        let mut running = self.running.lock();
        *running -= 1;
        if *running == 0 {
            self.ended.notify_all();
        }
    }

    fn wait_all(&self) {
        let mut running = self.running.lock();
        while *running > 0 {
            self.ended.wait(&mut running);
        }
    }
}

/// Spawner for tasks that borrow from a [`Runtime::scope`] caller.
pub struct Scope<'scope, 'env: 'scope> {
    runtime: &'env Runtime,
    data: Arc<ScopeData>,
    scope: PhantomData<&'scope mut &'scope ()>,
    env: PhantomData<&'env mut &'env ()>,
}

impl<'scope> Scope<'scope, '_> {
    /// Run `f` as a task of `role`; it must end before the scope does.
    pub fn spawn<F, T>(&'scope self, role: RoleKey, f: F) -> ScopedJoinHandle<'scope, T>
    where
        F: FnOnce() -> T + Send + 'scope,
        T: Send + 'scope,
    {
        self.data.task_started();
        let packet = Arc::new(Packet::new(Some(Arc::clone(&self.data))));
        let task = task(f, Arc::clone(&packet));
        // SAFETY: only the lifetime bound changes. The task borrows data
        // that lives for 'scope, and `Runtime::scope` does not return
        // before every packet of this scope is dropped — the task's own
        // reference goes last, after `f` and its captures are gone — even
        // when the scope body panics. This is `WorkerPool::run`'s argument
        // in gw-device: the erased borrow cannot outlive the blocking call.
        let task: Task =
            unsafe { std::mem::transmute::<Box<dyn FnOnce(&Worker) + Send + 'scope>, Task>(task) };
        self.runtime.submit(role, task);
        ScopedJoinHandle {
            packet,
            scope: PhantomData,
        }
    }
}

/// Handle to a scoped task; see [`Scope::spawn`].
pub struct ScopedJoinHandle<'scope, T> {
    packet: Arc<Packet<T>>,
    scope: PhantomData<&'scope ()>,
}

impl<T> ScopedJoinHandle<'_, T> {
    /// Wait for the task; `Err` carries its panic.
    pub fn join(self) -> thread::Result<T> {
        self.packet.wait()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::time::Duration;

    fn key(lane: u32) -> RoleKey {
        RoleKey::new(0, Role::Merger, lane)
    }

    #[test]
    fn a_role_runs_on_the_same_thread_across_scopes() {
        let rt = Runtime::new();
        let ids: Vec<_> = (0..3)
            .map(|_| rt.scope(|s| s.spawn(key(0), || thread::current().id()).join().unwrap()))
            .collect();
        assert!(ids.iter().all(|id| *id == ids[0]), "{ids:?}");
        assert_ne!(ids[0], thread::current().id());
        assert_eq!(rt.threads(), 1);
        assert_eq!(rt.spawned_on(0), 1);
        // Another lane is another key, so another thread.
        rt.scope(|s| s.spawn(key(1), || ()).join().unwrap());
        assert_eq!(rt.threads(), 2);
    }

    #[test]
    fn a_busy_role_grows_a_new_thread() {
        let rt = Runtime::new();
        let (release, parked) = crossbeam::channel::bounded::<()>(0);
        let held = rt.spawn(key(0), move || parked.recv().unwrap());
        let other = rt.spawn(key(0), || thread::current().id());
        let grown = other.join().unwrap();
        assert_eq!(rt.threads(), 2);
        release.send(()).unwrap();
        held.join().unwrap();
        // Both threads idle again: the lowest-numbered one takes the next
        // task, so the grown thread is not it.
        let next = rt.spawn(key(0), || thread::current().id()).join().unwrap();
        assert_ne!(next, grown);
        assert_eq!((rt.threads(), rt.busy_threads()), (2, 0));
    }

    #[test]
    fn a_panicking_task_leaves_its_thread_alive_and_surfaces_at_join() {
        let rt = Runtime::new();
        let first = rt.spawn(key(0), || thread::current().id()).join().unwrap();
        let err = rt.spawn(key(0), || panic!("boom")).join().unwrap_err();
        assert_eq!(err.downcast_ref::<&str>(), Some(&"boom"));
        let again = rt.spawn(key(0), || thread::current().id()).join().unwrap();
        assert_eq!(first, again);
        assert_eq!(rt.threads(), 1);
    }

    #[test]
    fn scope_joins_before_it_returns_when_its_body_panics() {
        let rt = Runtime::new();
        let done = AtomicUsize::new(0);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            rt.scope(|s| {
                for lane in 0..3 {
                    let done = &done;
                    s.spawn(key(lane), move || {
                        thread::sleep(Duration::from_millis(20));
                        done.fetch_add(1, Ordering::SeqCst);
                    });
                }
                panic!("body");
            })
        }));
        assert!(caught.is_err());
        assert_eq!(done.load(Ordering::SeqCst), 3);
        assert_eq!(rt.busy_threads(), 0);
    }

    #[test]
    fn an_unjoined_scoped_panic_fails_the_scope() {
        let rt = Runtime::new();
        let caught = catch_unwind(AssertUnwindSafe(|| {
            rt.scope(|s| {
                s.spawn(key(0), || panic!("unjoined"));
            })
        }));
        assert!(caught.is_err());
    }

    #[test]
    fn dropping_the_runtime_ends_its_idle_threads() {
        struct Exit(Arc<AtomicUsize>);
        impl Drop for Exit {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        thread_local! {
            static EXIT: std::cell::RefCell<Option<Exit>> = const { std::cell::RefCell::new(None) };
        }
        let exited = Arc::new(AtomicUsize::new(0));
        let rt = Runtime::new();
        for lane in 0..3 {
            let exited = Arc::clone(&exited);
            rt.spawn(key(lane), move || {
                EXIT.with(|e| *e.borrow_mut() = Some(Exit(exited)));
            })
            .join()
            .unwrap();
        }
        assert_eq!(
            exited.load(Ordering::SeqCst),
            0,
            "threads parked, not ended"
        );
        drop(rt);
        // Drop joins idle threads, so their thread-locals are gone.
        assert_eq!(exited.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn a_detached_task_keeps_its_thread_until_it_returns() {
        let rt = Runtime::new();
        let (release, parked) = crossbeam::channel::bounded::<()>(0);
        drop(rt.spawn(key(0), move || parked.recv().unwrap()));
        assert_eq!(rt.busy_threads(), 1);
        drop(rt);
        // The retired thread still runs its task to the end.
        release.send(()).unwrap();
    }
}
