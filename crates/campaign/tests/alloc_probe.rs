//! The counting allocator, installed the way the `flexran-campaign` and
//! `experiments` binaries install it: allocations are attributed to the
//! thread that made them, so concurrent campaign runs do not blame each
//! other, while `measure` still sees every thread.

use std::hint::black_box;
use std::sync::{Arc, Barrier};

use flexran_campaign::alloc_probe::{measure, thread_allocations, CountingAllocator};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

#[test]
fn allocations_are_attributed_to_the_allocating_thread() {
    let before = thread_allocations().expect("the allocator is installed");
    black_box(Box::new(7u64));
    let after = thread_allocations().expect("the allocator is installed");
    assert!(
        after > before,
        "an allocation on this thread was not counted"
    );

    // The worker allocates strictly between the two barriers; this thread
    // only waits on them, which does not allocate.
    let (start, done) = (Arc::new(Barrier::new(2)), Arc::new(Barrier::new(2)));
    let worker = {
        let (start, done) = (start.clone(), done.clone());
        std::thread::spawn(move || {
            start.wait();
            for i in 0..100u64 {
                black_box(Box::new(i));
            }
            done.wait();
        })
    };
    let before = thread_allocations().expect("the allocator is installed");
    let ((), process_wide, _) = measure(|| {
        start.wait();
        done.wait();
    });
    assert_eq!(
        thread_allocations(),
        Some(before),
        "another thread's allocations were blamed on this one"
    );
    assert!(
        process_wide >= 100,
        "measure missed the worker's allocations"
    );
    worker.join().expect("worker thread");
}
