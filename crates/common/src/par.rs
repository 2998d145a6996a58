//! The one place where the workspace starts parallel work.
//!
//! Every parallel loop — the row-partitioned kernels, the CSV reader's
//! passes, federated fan-out, `parfor` workers and the parameter server —
//! runs its items through [`map`]. It fixes three rules in one place:
//!
//! * items `1..` start on scoped threads of their own first, then item 0
//!   runs on the calling thread, so an item 0 that waits on the others
//!   (the ASP server loop) cannot block them from starting;
//! * results come back in item order, so partition-order merges stay
//!   deterministic whatever the scheduling;
//! * a panic in any item waits until every item has finished, then the
//!   first panicking item's own payload (in item order) is re-raised.
//!
//! Threads know nothing of the caller's span context: an item that records
//! spans enters `sysds_obs::SpanContext` itself (`sysds-obs` builds on this
//! crate, not the other way round).

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

/// `f` applied to every item of `work`, item 0 on the calling thread and
/// every other item on a scoped thread of its own; the results in item
/// order. With 0 or 1 items it runs inline and starts no thread.
///
/// When items panic, every item still runs to its end; then the payload of
/// the first panicking item in item order is re-raised.
pub fn map<W: Send, T: Send>(work: Vec<W>, f: impl Fn(W) -> T + Sync) -> Vec<T> {
    if work.len() <= 1 {
        return work.into_iter().map(f).collect();
    }
    let f = &f;
    let mut work = work.into_iter();
    let first = work.next().expect("two or more items");
    let finished: Vec<_> = std::thread::scope(|s| {
        let others: Vec<_> = work.map(|w| s.spawn(move || f(w))).collect();
        let first = catch_unwind(AssertUnwindSafe(|| f(first)));
        std::iter::once(first)
            .chain(others.into_iter().map(|h| h.join()))
            .collect()
    });
    finished
        .into_iter()
        .map(|r| r.unwrap_or_else(|payload| resume_unwind(payload)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::panic_message;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::mpsc;
    use std::thread::{self, ThreadId};
    use std::time::Duration;

    #[test]
    fn results_come_back_in_item_order() {
        let out = map((0..16).collect(), |i: u64| {
            // Later items finish first.
            thread::sleep(Duration::from_millis(16 - i));
            i * i
        });
        assert_eq!(out, (0..16).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn item_zero_runs_on_the_calling_thread_and_the_others_do_not() {
        let caller = thread::current().id();
        let ids: Vec<ThreadId> = map(vec![(); 4], |_| thread::current().id());
        assert_eq!(ids[0], caller);
        assert!(ids[1..].iter().all(|&id| id != caller), "{ids:?}");
    }

    #[test]
    fn other_items_start_before_item_zero_runs() {
        // Item 0 waits for what item 1 sends: were item 1 started only
        // after item 0 returned, the wait would time out.
        let (tx, rx) = mpsc::channel();
        let work = vec![(Some(rx), None), (None, Some(tx))];
        let out = map(work, |(rx, tx)| match (rx, tx) {
            (Some(rx), _) => rx.recv_timeout(Duration::from_secs(30)).is_ok(),
            (_, Some(tx)) => tx.send(()).is_ok(),
            _ => unreachable!(),
        });
        assert_eq!(out, vec![true, true]);
    }

    #[test]
    fn a_panic_reaches_the_caller_after_the_other_items_finish() {
        let finished = AtomicBool::new(false);
        let err = catch_unwind(AssertUnwindSafe(|| {
            map(vec![0, 1, 2], |i| match i {
                1 => panic!("item one failed"),
                2 => {
                    thread::sleep(Duration::from_millis(50));
                    finished.store(true, Ordering::SeqCst);
                }
                _ => {}
            })
        }))
        .unwrap_err();
        assert_eq!(panic_message(err.as_ref()), Some("item one failed"));
        assert!(finished.load(Ordering::SeqCst));
    }

    #[test]
    fn the_first_panicking_item_in_item_order_wins() {
        let finished = AtomicBool::new(false);
        let err = catch_unwind(AssertUnwindSafe(|| {
            map(vec![0, 1, 2], |i| match i {
                0 => {
                    thread::sleep(Duration::from_millis(50));
                    panic!("item zero failed")
                }
                1 => {
                    thread::sleep(Duration::from_millis(100));
                    finished.store(true, Ordering::SeqCst);
                }
                _ => panic!("item two failed"),
            })
        }))
        .unwrap_err();
        assert_eq!(panic_message(err.as_ref()), Some("item zero failed"));
        assert!(finished.load(Ordering::SeqCst));
    }

    #[test]
    fn zero_and_one_items_run_inline() {
        let none: Vec<u8> = map(Vec::<u8>::new(), |_| unreachable!());
        assert!(none.is_empty());
        let caller = thread::current().id();
        assert_eq!(
            map(vec![7], |v| (v, thread::current().id())),
            vec![(7, caller)]
        );
    }
}
