//! Graph fixture: the step models its wait as a scheduled event and
//! only computes — nothing blocks the dispatch loop.
pub struct Sched {
    pub deadline: u64,
}

fn reschedule(s: &mut Sched, now: u64) {
    s.deadline = now + 5;
}

pub fn on_event(s: &mut Sched, now: u64) {
    reschedule(s, now);
}
