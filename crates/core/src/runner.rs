//! Parallel execution of independent work items.
//!
//! Sweeps are embarrassingly parallel. [`fan_out`] is the workspace's one
//! thread fan-out: it hands items out in input order to scoped threads,
//! each of which keeps one state for the whole batch (a grid backend keeps
//! its worker process there), and streams every output back to the calling
//! thread as it finishes. [`parallel_map`] is the ordered collector over it
//! that the experiment tables and `Sweep::run` use; the grid's in-process
//! and subprocess backends run on it too.

use std::convert::Infallible;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Mutex};

/// Run `run` over `items` on up to `threads` scoped threads (`0` means
/// hardware parallelism; never more threads than items, and one thread
/// runs the items on the calling thread).
///
/// Items go out in input order. Each thread makes one state with `open`
/// before its first item, passes it to `run` for every item it takes, and
/// hands it to `close(state, stopped)` at the end; `stopped` says whether
/// an error had stopped the batch by then. `on_result(index, output)`
/// runs on the calling thread as items finish, in completion order. The
/// first error, from `run` or from `on_result`, stops every thread before
/// its next item and is returned. An empty batch returns at once without
/// calling `open`.
pub fn fan_out<I, S, O, E>(
    items: I,
    threads: usize,
    open: impl Fn() -> S + Sync,
    run: impl Fn(&mut S, I::Item) -> Result<O, E> + Sync,
    close: impl Fn(S, bool) + Sync,
    mut on_result: impl FnMut(usize, O) -> Result<(), E>,
) -> Result<(), E>
where
    I: IntoIterator,
    I::IntoIter: ExactSizeIterator + Send,
    I::Item: Send,
    O: Send,
    E: Send,
{
    let items = items.into_iter();
    if items.len() == 0 {
        return Ok(());
    }
    let threads = match threads {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        t => t,
    }
    .min(items.len());
    if threads == 1 {
        let mut state = open();
        let outcome = items
            .enumerate()
            .try_for_each(|(index, item)| on_result(index, run(&mut state, item)?));
        close(state, outcome.is_err());
        return outcome;
    }
    let queue = Mutex::new(items.enumerate());
    let stopped = AtomicBool::new(false);
    let (tx, rx) = mpsc::channel();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let tx = tx.clone();
            let (queue, stopped, open, run, close) = (&queue, &stopped, &open, &run, &close);
            scope.spawn(move || {
                let mut state = open();
                while !stopped.load(Ordering::Relaxed) {
                    let Some((index, item)) = queue.lock().expect("fan-out queue lock").next()
                    else {
                        break;
                    };
                    let output = run(&mut state, item);
                    if output.is_err() {
                        stopped.store(true, Ordering::Relaxed);
                    }
                    if tx.send((index, output)).is_err() {
                        break;
                    }
                }
                close(state, stopped.load(Ordering::Relaxed));
            });
        }
        drop(tx);
        for (index, output) in rx {
            if let Err(e) = output.and_then(|output| on_result(index, output)) {
                stopped.store(true, Ordering::Relaxed);
                return Err(e);
            }
        }
        Ok(())
    })
}

/// Map `f` over `items` on up to `threads` worker threads, returning
/// results in input order. `threads = 0` means "hardware parallelism".
/// An ordered collector over [`fan_out`].
pub fn parallel_map<T, O, F>(items: Vec<T>, threads: usize, f: F) -> Vec<O>
where
    T: Send,
    O: Send,
    F: Fn(T) -> O + Sync,
{
    let mut out: Vec<Option<O>> = items.iter().map(|_| None).collect();
    let done = fan_out(
        items,
        threads,
        || (),
        |(), item| Ok::<_, Infallible>(f(item)),
        |(), _| {},
        |index, output| {
            out[index] = Some(output);
            Ok(())
        },
    );
    let Ok(()) = done;
    out.into_iter()
        .map(|o| o.expect("fan_out yields every item"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn preserves_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = parallel_map(items, 4, |x| x * x);
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, (i * i) as u64);
        }
    }

    #[test]
    fn single_thread_fallback() {
        let out = parallel_map(vec![1, 2, 3], 1, |x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn empty_input() {
        let out: Vec<i32> = parallel_map(Vec::<i32>::new(), 0, |x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn each_item_processed_exactly_once() {
        use std::sync::atomic::AtomicU64;
        let calls = AtomicU64::new(0);
        let out = parallel_map((0..1000).collect::<Vec<_>>(), 0, |x| {
            calls.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(out.len(), 1000);
        assert_eq!(calls.load(Ordering::Relaxed), 1000);
    }

    #[test]
    fn heavier_work_than_threads() {
        // More items than threads exercises the shared queue.
        let out = parallel_map((0..37).collect::<Vec<_>>(), 2, |x: u64| {
            // Busy-ish work.
            (0..1000u64).fold(x, |a, b| a.wrapping_add(b))
        });
        assert_eq!(out.len(), 37);
    }

    #[test]
    fn fan_out_keeps_one_state_per_thread_and_closes_each_once() {
        // Each state counts the items its thread ran; the closed counts
        // add up to the batch, and no more states open than threads.
        for threads in [1, 3] {
            let opened = AtomicUsize::new(0);
            let closed = Mutex::new(Vec::new());
            let mut seen = Vec::new();
            fan_out(
                0..20usize,
                threads,
                || {
                    opened.fetch_add(1, Ordering::Relaxed);
                    0usize
                },
                |ran, item| {
                    *ran += 1;
                    Ok::<_, ()>(item * 2)
                },
                |ran, stopped| closed.lock().unwrap().push((ran, stopped)),
                |index, output| {
                    assert_eq!(output, index * 2);
                    seen.push(index);
                    Ok(())
                },
            )
            .unwrap();
            seen.sort_unstable();
            assert_eq!(seen, (0..20).collect::<Vec<_>>());
            let closed = closed.into_inner().unwrap();
            assert_eq!(closed.len(), opened.load(Ordering::Relaxed));
            assert!(closed.len() <= threads);
            assert_eq!(closed.iter().map(|&(ran, _)| ran).sum::<usize>(), 20);
            assert!(closed.iter().all(|&(_, stopped)| !stopped));
        }
    }

    #[test]
    fn fan_out_stops_at_the_first_error_from_run_or_on_result() {
        for threads in [1, 2] {
            // Every item fails, so a thread that stops at its own error
            // and at every other thread's runs at most one item.
            let ran = AtomicUsize::new(0);
            let closed = Mutex::new(Vec::new());
            let err = fan_out(
                0..1000usize,
                threads,
                || (),
                |(), item| {
                    ran.fetch_add(1, Ordering::Relaxed);
                    Err::<(), _>(format!("item {item}"))
                },
                |(), stopped| closed.lock().unwrap().push(stopped),
                |_, ()| Ok(()),
            )
            .unwrap_err();
            assert!(err.starts_with("item "), "{err}");
            assert!(ran.load(Ordering::Relaxed) <= threads, "threads={threads}");
            assert!(closed.into_inner().unwrap().iter().all(|&stopped| stopped));

            let delivered = AtomicUsize::new(0);
            let err = fan_out(
                0..1000usize,
                threads,
                || (),
                |(), item| Ok(item),
                |(), _| {},
                |_, _| {
                    delivered.fetch_add(1, Ordering::Relaxed);
                    Err("callback")
                },
            )
            .unwrap_err();
            assert_eq!(err, "callback");
            assert_eq!(delivered.load(Ordering::Relaxed), 1);
        }
    }

    #[test]
    fn fan_out_of_nothing_opens_no_state() {
        let done = fan_out(
            Vec::<u8>::new(),
            0,
            || panic!("no state for an empty batch"),
            |(), _| Ok::<_, ()>(()),
            |(), _| {},
            |_, ()| panic!("no results expected"),
        );
        assert_eq!(done, Ok(()));
    }
}
