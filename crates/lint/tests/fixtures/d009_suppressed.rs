//! Graph fixture: the blocking call carries a justified pragma.
use std::sync::mpsc::Receiver;

fn drain(rx: &Receiver<u64>) -> Option<u64> {
    // doe-lint: allow(D009) — fixture: harness rendezvous channel, the
    // sender completes before the step is dispatched so recv cannot stall
    rx.recv().ok()
}

pub fn on_event(rx: &Receiver<u64>) -> Option<u64> {
    drain(rx)
}
