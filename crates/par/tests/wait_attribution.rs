//! The profiler books a batch's join as waiting, not work.
//!
//! A 2-job batch whose jobs meet at a barrier runs one job on the caller
//! and one on a helper. The helper's job then sleeps, so the caller spends
//! that sleep joining the helper inside the `par.batch` span: the profile
//! must show it as the span's wait time, with near-zero self time.
//!
//! Profiling is process-global, so this test has a target of its own.

use std::sync::Barrier;
use std::time::Duration;

use archline_obs as obs;
use archline_par::parallel_jobs;

#[test]
fn batch_join_is_profiled_as_wait() {
    archline_par::set_num_threads(2).expect("positive width");
    let caller = std::thread::current().id();
    let barrier = Barrier::new(2);
    let job = || {
        barrier.wait();
        if std::thread::current().id() != caller {
            std::thread::sleep(Duration::from_millis(30));
        }
    };
    obs::set_profiling(true);
    parallel_jobs([job, job]);
    obs::set_profiling(false);
    let rows = obs::profile_snapshot();
    let batch = rows.iter().find(|r| r.target == "par" && r.name == "batch").expect("batch profiled");
    assert_eq!(batch.count, 1, "{batch:?}");
    assert!(batch.wait_ns >= 25_000_000, "the join is wait: {batch:?}");
    assert!(batch.self_ns < 5_000_000, "near-zero self time: {batch:?}");
}
