//! Graph fixture: an event-machine step blocks the calling thread
//! two calls down — the stall skews every virtual-time measurement
//! scheduled behind it.
use std::time::Duration;

fn backoff() {
    std::thread::sleep(Duration::from_millis(5));
}

fn retry() {
    backoff();
}

pub fn on_event() {
    retry();
}
