//! The world: a fixed set of places and the `at`/`finish` constructs.
//!
//! An X10 program "typically runs as multiple operating system processes"
//! — one per place — and ships work between them with `at (p) S`. Within a
//! single host we model each place as a dedicated worker thread with a
//! mailbox; `at` enqueues a boxed closure, `finish` waits for every async
//! spawned under it. The fixed, long-lived set of workers is the exact
//! property M3R exploits to keep heap state between jobs (§3.2).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::thread::JoinHandle;

use crossbeam::channel::{unbounded, Sender};
use crossbeam::sync::WaitGroup;
use parking_lot::Mutex;

use crate::place::{PlaceCtx, PlaceId};

type Job = Box<dyn FnOnce(&mut PlaceCtx) + Send>;
type PanicLog = Arc<Mutex<Vec<(PlaceId, String)>>>;

/// What an async spawned under a `finish` carries back to it: the finish's
/// own panic log and its completion guard.
struct Completion {
    panics: PanicLog,
    _guard: WaitGroup,
}

enum Msg {
    Run(Job, Option<Completion>),
    Shutdown,
}

struct PlaceHandle {
    tx: Sender<Msg>,
    thread: Option<JoinHandle<()>>,
}

/// A fixed family of places. Dropping the world shuts the workers down and
/// returns the heap pages they freed to the operating system.
pub struct World {
    places: Vec<PlaceHandle>,
    panics: PanicLog,
}

impl World {
    /// Spawn `n` places (n ≥ 1), each a long-lived worker thread.
    pub fn new(n: usize) -> Self {
        assert!(n >= 1, "a world needs at least one place");
        let panics = PanicLog::default();
        let places = (0..n)
            .map(|id| {
                let (tx, rx) = unbounded::<Msg>();
                let panics = Arc::clone(&panics);
                let thread = std::thread::Builder::new()
                    .name(format!("x10-place-{id}"))
                    .spawn(move || {
                        let mut ctx = PlaceCtx::new(id, n);
                        while let Ok(msg) = rx.recv() {
                            match msg {
                                // Every body — `at_sync`, `at_async`,
                                // `Finish::at` — is unwound and logged here,
                                // once; the finish's guard drops only after
                                // the panic is in both logs.
                                Msg::Run(job, done) => {
                                    let r = catch_unwind(AssertUnwindSafe(|| job(&mut ctx)));
                                    if let Err(e) = r {
                                        let text = panic_text(&*e);
                                        if let Some(done) = &done {
                                            done.panics.lock().push((id, text.clone()));
                                        }
                                        panics.lock().push((id, text));
                                    }
                                    drop(done);
                                }
                                Msg::Shutdown => break,
                            }
                        }
                    })
                    .expect("spawn place worker");
                PlaceHandle {
                    tx,
                    thread: Some(thread),
                }
            })
            .collect();
        World { places, panics }
    }

    /// Number of places.
    pub fn num_places(&self) -> usize {
        self.places.len()
    }

    /// The one dispatch behind `at_sync`, `at_async` and `Finish::at`: box
    /// `f` and mail it to `place`, with the enclosing finish's completion
    /// when there is one.
    fn dispatch(
        &self,
        place: PlaceId,
        f: impl FnOnce(&mut PlaceCtx) + Send + 'static,
        done: Option<Completion>,
    ) {
        self.places[place]
            .tx
            .send(Msg::Run(Box::new(f), done))
            .expect("place worker alive");
    }

    /// `at (p) S` — run `f` at place `p` and wait for its result.
    ///
    /// Mirrors X10's synchronous place shift: the calling activity blocks
    /// until the body has executed at the destination.
    pub fn at_sync<R: Send + 'static>(
        &self,
        place: PlaceId,
        f: impl FnOnce(&mut PlaceCtx) -> R + Send + 'static,
    ) -> R {
        let (tx, rx) = unbounded();
        self.dispatch(
            place,
            move |ctx| {
                // If `f` panics the worker records it and drops `tx`;
                // the receiver then surfaces the failure below.
                let r = f(ctx);
                let _ = tx.send(r);
            },
            None,
        );
        match rx.recv() {
            Ok(r) => r,
            Err(_) => panic!(
                "at_sync target place {place} panicked: {:?}",
                self.panics.lock().last()
            ),
        }
    }

    /// `async at (p) S` — fire-and-forget. Pair with [`World::finish`] to
    /// wait for completion. A panic inside `f` is recorded in the panic log.
    pub fn at_async(&self, place: PlaceId, f: impl FnOnce(&mut PlaceCtx) + Send + 'static) {
        self.dispatch(place, f, None);
    }

    /// `finish S` — run `body`, then wait for every async it spawned through
    /// the provided [`Finish`] handle. Panics (after draining) if any async
    /// panicked, reporting the offending places.
    pub fn finish<R>(&self, body: impl FnOnce(&Finish<'_>) -> R) -> R {
        let wg = WaitGroup::new();
        // Each finish tracks its own asyncs' panics. Comparing global log
        // lengths would mis-attribute failures when several finishes run
        // concurrently (the multi-tenant job server does exactly that).
        let panics = PanicLog::default();
        let fin = Finish {
            world: self,
            wg,
            panics: Arc::clone(&panics),
        };
        let r = body(&fin);
        fin.wg.wait();
        let panics = panics.lock();
        if !panics.is_empty() {
            panic!("asyncs panicked under finish: {:?}", &panics[..]);
        }
        r
    }

    /// Run `f` at every place in parallel and wait for all of them —
    /// `finish { for p in places async at (p) f }`, the engine's workhorse.
    pub fn broadcast(&self, f: impl Fn(&mut PlaceCtx) + Send + Sync + 'static) {
        let f = Arc::new(f);
        self.finish(|fin| {
            for p in 0..self.num_places() {
                let f = Arc::clone(&f);
                fin.at(p, move |ctx| f(ctx));
            }
        });
    }

    /// Panic messages recorded so far (place id, message).
    pub fn panic_log(&self) -> Vec<(PlaceId, String)> {
        self.panics.lock().clone()
    }
}

impl Drop for World {
    fn drop(&mut self) {
        for p in &self.places {
            let _ = p.tx.send(Msg::Shutdown);
        }
        for p in &mut self.places {
            if let Some(t) = p.thread.take() {
                let _ = t.join();
            }
        }
        release_freed_heap();
    }
}

/// Hand the heap pages the exited places freed back to the operating
/// system.
///
/// glibc serves each thread from a malloc arena, keeps the pages freed
/// inside an arena resident, and passes an exited thread's arena to the
/// next new thread that allocates. Whether the next world's places inherit
/// arenas already grown by places or arenas that lighter threads used is
/// down to thread scheduling, so without this a process that builds worlds
/// one after another would carry a peak resident set that differs by
/// megabytes from one run to the next.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn release_freed_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> std::ffi::c_int;
    }
    // SAFETY: `malloc_trim` takes no pointer and reads no caller memory;
    // glibc locks each arena while it trims it, so any thread may call it
    // at any time.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn release_freed_heap() {}

/// Capability to spawn asyncs that the enclosing [`World::finish`] waits on.
pub struct Finish<'w> {
    world: &'w World,
    wg: WaitGroup,
    /// Panics from asyncs spawned through *this* finish (the world's global
    /// log additionally records them for post-mortem inspection).
    panics: PanicLog,
}

impl Finish<'_> {
    /// Spawn `f` at `place`; the enclosing `finish` will wait for it.
    ///
    /// A panic inside `f` is logged *before* the completion guard is
    /// released, so the enclosing `finish` observes it deterministically.
    pub fn at(&self, place: PlaceId, f: impl FnOnce(&mut PlaceCtx) + Send + 'static) {
        let done = Completion {
            panics: Arc::clone(&self.panics),
            _guard: self.wg.clone(),
        };
        self.world.dispatch(place, f, Some(done));
    }
}

fn panic_text(e: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = e.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = e.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn at_sync_returns_value_from_place() {
        let w = World::new(4);
        let id = w.at_sync(2, |ctx| ctx.id());
        assert_eq!(id, 2);
    }

    #[test]
    fn place_heap_survives_across_jobs() {
        // The essence of M3R: data loaded by job 1 is still there for job 2.
        let w = World::new(2);
        w.at_sync(1, |ctx| {
            ctx.get_or_insert_with(|| vec![10u32, 20]).push(30);
        });
        let v = w.at_sync(1, |ctx| ctx.get::<Vec<u32>>().cloned());
        assert_eq!(v.unwrap(), vec![10, 20, 30]);
        // And it is place-local: place 0 has nothing.
        assert!(w.at_sync(0, |ctx| ctx.get::<Vec<u32>>().is_none()));
    }

    #[test]
    fn finish_waits_for_all_asyncs() {
        let w = World::new(4);
        let counter = Arc::new(AtomicUsize::new(0));
        w.finish(|fin| {
            for p in 0..4 {
                for _ in 0..16 {
                    let c = Arc::clone(&counter);
                    fin.at(p, move |_| {
                        std::thread::sleep(std::time::Duration::from_micros(50));
                        c.fetch_add(1, Ordering::SeqCst);
                    });
                }
            }
        });
        assert_eq!(counter.load(Ordering::SeqCst), 64);
    }

    #[test]
    fn broadcast_touches_every_place() {
        let w = World::new(5);
        let seen = Arc::new(Mutex::new(Vec::new()));
        let seen2 = Arc::clone(&seen);
        w.broadcast(move |ctx| {
            seen2.lock().push(ctx.id());
        });
        let mut got = seen.lock().clone();
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn panicking_async_is_reported_by_finish() {
        let w = World::new(2);
        let r = catch_unwind(AssertUnwindSafe(|| {
            w.finish(|fin| {
                fin.at(1, |_| panic!("worker exploded"));
            });
        }));
        assert!(r.is_err());
        let log = w.panic_log();
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].0, 1);
        assert!(log[0].1.contains("worker exploded"));
        // The world remains usable after a panic — places do not restart.
        assert_eq!(w.at_sync(1, |ctx| ctx.id()), 1);
    }

    #[test]
    fn concurrent_finishes_attribute_panics_to_the_right_one() {
        // Two finishes in flight (as under the multi-tenant job server):
        // only the finish whose async panicked may fail; the innocent one
        // must complete cleanly even though the global log grew meanwhile.
        let w = Arc::new(World::new(2));
        let w2 = Arc::clone(&w);
        let clean = std::thread::spawn(move || {
            w2.finish(|fin| {
                for _ in 0..50 {
                    fin.at(0, |_| {
                        std::thread::sleep(std::time::Duration::from_micros(100));
                    });
                }
            });
        });
        let guilty = catch_unwind(AssertUnwindSafe(|| {
            w.finish(|fin| {
                fin.at(1, |_| panic!("tenant b exploded"));
            });
        }));
        assert!(guilty.is_err());
        clean.join().expect("the innocent finish must not panic");
        assert_eq!(w.panic_log().len(), 1, "global log still records it");
    }

    #[test]
    fn jobs_on_one_place_run_in_submission_order() {
        let w = World::new(1);
        w.finish(|fin| {
            for i in 0..100u64 {
                fin.at(0, move |ctx| {
                    let log = ctx.get_or_insert_with(Vec::<u64>::new);
                    log.push(i);
                });
            }
        });
        let log = w.at_sync(0, |ctx| ctx.get::<Vec<u64>>().cloned().unwrap());
        assert_eq!(log, (0..100).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "at least one place")]
    fn zero_place_world_rejected() {
        let _ = World::new(0);
    }
}
