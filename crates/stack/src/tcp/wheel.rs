//! The hashed timer wheel of the TCP server shell.

use std::time::Duration;

use super::conn::TimerKind;
use crate::msg::SockId;

/// Number of slots in the hashed retransmission/ACK timer wheel.
pub(super) const WHEEL_SLOTS: usize = 64;
/// Virtual-time width of one wheel slot.
pub(super) const WHEEL_TICK: Duration = Duration::from_millis(5);
/// Entries of storage every bucket is created with and keeps (32 KiB per
/// wheel): the timers of a few connections never allocate, wherever the
/// clock happens to spread them.
const BUCKET_KEEP: usize = 16;

#[derive(Debug, Clone, Copy)]
pub(super) struct TimerEntry {
    pub(super) sock: SockId,
    pub(super) kind: TimerKind,
    pub(super) deadline: Duration,
}

/// A hashed timer wheel: deadlines hash into one of [`WHEEL_SLOTS`] buckets
/// by tick index, and each poll scans only the buckets the clock moved
/// through since the previous poll.  Per-poll cost is therefore proportional
/// to the timers that actually fired, not to the socket population — the
/// scheduling half of making `poll` O(active).
///
/// Entries are *lazily validated*: firing hands the (sock, kind) pair back
/// to the server, which compares against the socket's **current** deadline
/// and re-arms when the deadline moved (an ACK pushing the RTO out does not
/// touch the wheel at all).  An entry whose deadline lies further than one
/// wheel revolution away simply stays in its bucket and is examined once
/// per revolution — and dropped there once its socket is gone, so the wheel
/// holds the timers of the sockets that exist, not one idle timer per
/// connection served in the last idle timeout.
#[derive(Debug)]
pub(super) struct TimerWheel {
    pub(super) slots: Vec<Vec<TimerEntry>>,
    /// Last tick whose bucket was scanned.
    cursor: u64,
}

impl TimerWheel {
    pub(super) fn new(now: Duration) -> Self {
        TimerWheel {
            slots: (0..WHEEL_SLOTS)
                .map(|_| Vec::with_capacity(BUCKET_KEEP))
                .collect(),
            cursor: Self::tick_of(now),
        }
    }

    fn tick_of(t: Duration) -> u64 {
        (t.as_nanos() / WHEEL_TICK.as_nanos()) as u64
    }

    /// Registers a timer.  The bucket is the tick *after* the deadline's, so
    /// a fired entry is always past due — never early; a deadline already in
    /// the past lands in the next bucket to be scanned.
    pub(super) fn insert(&mut self, sock: SockId, kind: TimerKind, deadline: Duration) {
        let tick = Self::tick_of(deadline) + 1;
        let tick = tick.max(self.cursor + 1);
        self.slots[(tick % WHEEL_SLOTS as u64) as usize].push(TimerEntry {
            sock,
            kind,
            deadline,
        });
    }

    /// Registers a timer if there is a deadline to register it for.
    pub(super) fn arm(&mut self, sock: SockId, kind: TimerKind, deadline: Option<Duration>) {
        if let Some(deadline) = deadline {
            self.insert(sock, kind, deadline);
        }
    }

    /// Moves every entry that is due at `now` into `due`, scanning only the
    /// buckets between the previous call and `now`; entries met there that
    /// are not due and whose socket `alive` disowns are forgotten.
    pub(super) fn expire(
        &mut self,
        now: Duration,
        due: &mut Vec<TimerEntry>,
        alive: impl Fn(SockId) -> bool,
    ) {
        let now_tick = Self::tick_of(now);
        if now_tick <= self.cursor {
            return;
        }
        let span = (now_tick - self.cursor).min(WHEEL_SLOTS as u64);
        let mut emptied_a_bucket = false;
        for offset in 1..=span {
            let slot = ((self.cursor + offset) % WHEEL_SLOTS as u64) as usize;
            let entries = &mut self.slots[slot];
            if entries.is_empty() {
                continue;
            }
            let mut i = 0;
            while i < entries.len() {
                if entries[i].deadline <= now {
                    due.push(entries.swap_remove(i));
                } else if !alive(entries[i].sock) {
                    entries.swap_remove(i);
                } else {
                    // More than one revolution away: stays for a later pass.
                    i += 1;
                }
            }
            emptied_a_bucket |= entries.is_empty();
        }
        self.cursor = now_tick;
        // A wheel with no timer left holds no storage beyond what it was
        // created with: how large the buckets had to grow depends on how
        // deadlines happened to fall together.
        if emptied_a_bucket && self.slots.iter().all(Vec::is_empty) {
            self.slots.iter_mut().for_each(|b| b.shrink_to(BUCKET_KEEP));
        }
    }

    /// The time at which the next non-empty bucket is scanned, i.e. the
    /// earliest moment [`TimerWheel::expire`] can hand anything out.
    pub(super) fn next_expiry(&self) -> Option<Duration> {
        (1..=WHEEL_SLOTS as u64)
            .map(|offset| self.cursor + offset)
            .find(|tick| !self.slots[(tick % WHEEL_SLOTS as u64) as usize].is_empty())
            .map(|tick| Duration::from_nanos(tick * WHEEL_TICK.as_nanos() as u64))
    }
}
