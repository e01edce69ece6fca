//! CPU time per thread, from the scheduler's own accounting.
//!
//! `/proc/self/task/<tid>/schedstat` starts with the nanoseconds the thread
//! has run on a CPU, and `comm` holds its name, cut to 15 bytes (so
//! `newtos-remote-peer` reads `newtos-remote-p`).  Every service of a
//! booted stack runs on a thread named `newtos-<service>`, so the time of a
//! service is the time of the threads of that name.

use std::collections::BTreeMap;
use std::fs;

/// Run time of every live thread of this process, by thread id.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ThreadTimes {
    threads: BTreeMap<u32, (String, u64)>,
}

impl ThreadTimes {
    /// Reads every thread's name and run time; `None` when `/proc` or the
    /// scheduler statistics cannot be read.
    pub fn sample() -> Option<Self> {
        let mut threads = BTreeMap::new();
        for task in fs::read_dir("/proc/self/task").ok()?.flatten() {
            let Ok(tid) = task.file_name().to_string_lossy().parse() else {
                continue;
            };
            // A thread that exits while the list is read is skipped.
            let (Ok(comm), Ok(schedstat)) = (
                fs::read_to_string(task.path().join("comm")),
                fs::read_to_string(task.path().join("schedstat")),
            ) else {
                continue;
            };
            if let Some(ns) = parse_schedstat(&schedstat) {
                threads.insert(tid, (parse_comm(&comm).to_string(), ns));
            }
        }
        (!threads.is_empty()).then_some(ThreadTimes { threads })
    }

    /// Whether thread `tid` was alive at this sample.
    pub fn contains(&self, tid: u32) -> bool {
        self.threads.contains_key(&tid)
    }

    /// `(tid, name, ns)` run by every thread of this sample since
    /// `earlier`; a thread born in between counts from zero.  A thread that
    /// exited in between is missing, so sample while the threads of
    /// interest are alive.
    pub fn since<'a>(&'a self, earlier: &'a Self) -> impl Iterator<Item = (u32, &'a str, u64)> {
        self.threads.iter().map(|(&tid, (name, ns))| {
            let before = earlier.threads.get(&tid).map_or(0, |(_, ns)| *ns);
            (tid, name.as_str(), ns.saturating_sub(before))
        })
    }
}

/// The calling thread's run time in ns.
pub fn own_ns() -> Option<u64> {
    parse_schedstat(&fs::read_to_string("/proc/thread-self/schedstat").ok()?)
}

/// Run time in ns: the first of a `schedstat` line's three fields (run
/// time, wait time, timeslices).
pub fn parse_schedstat(text: &str) -> Option<u64> {
    text.split_ascii_whitespace().next()?.parse().ok()
}

/// A thread name as `comm` holds it, without the trailing newline.
pub fn parse_comm(text: &str) -> &str {
    text.strip_suffix('\n').unwrap_or(text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedstat_and_comm_parse() {
        assert_eq!(parse_schedstat("266630 2181333 2\n"), Some(266_630));
        assert_eq!(parse_schedstat("18446744073709551615 0 0"), Some(u64::MAX));
        assert_eq!(parse_schedstat(""), None);
        assert_eq!(parse_schedstat("n/a 1 2"), None);
        assert_eq!(parse_comm("newtos-e1000.0\n"), "newtos-e1000.0");
        assert_eq!(parse_comm("newtos-remote-p\n"), "newtos-remote-p");
        assert_eq!(parse_comm("with space"), "with space");
    }

    #[test]
    fn since_counts_new_threads_from_zero() {
        let times = |entries: &[(u32, &str, u64)]| ThreadTimes {
            threads: entries
                .iter()
                .map(|&(tid, name, ns)| (tid, (name.to_string(), ns)))
                .collect(),
        };
        let earlier = times(&[(1, "main", 100), (2, "newtos-tcp", 40), (3, "gone", 9)]);
        let later = times(&[
            (1, "main", 150),
            (2, "newtos-tcp", 340),
            (4, "newtos-ip", 70),
        ]);
        let delta: Vec<_> = later.since(&earlier).collect();
        assert_eq!(
            delta,
            [
                (1, "main", 50),
                (2, "newtos-tcp", 300),
                (4, "newtos-ip", 70)
            ]
        );
        assert!(earlier.contains(3) && !later.contains(3));
    }
}
