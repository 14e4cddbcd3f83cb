//! Exactly-once ledger: what the generator itself counted, against what
//! the program answered.
//!
//! Every reply of the paper workload carries its session's request
//! counter, and every committed request bumps each shared counter on its
//! path once (SV0, SV1 at MSP1) or once per call (SV2, SV3 at MSP2). A
//! lost or doubled execution therefore shows as a counter off by one.

/// Per-session Ok-reply counts, as the generator saw them.
#[derive(Debug, Default, Clone)]
pub struct Ledger {
    counts: Vec<u64>,
    committed: u64,
}

impl Ledger {
    /// A ledger for sessions that already committed `prior[i]` requests
    /// each (before a crash) — zero for fresh sessions.
    pub fn new(prior: Vec<u64>) -> Ledger {
        Ledger {
            counts: prior,
            committed: 0,
        }
    }

    /// Ok replies each session has committed, its history included.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Record an Ok reply on `session` carrying `counter`; it must be
    /// exactly one past what this session committed before.
    pub fn on_ok(&mut self, session: usize, counter: u64) -> Result<(), String> {
        let want = self.counts[session] + 1;
        if counter != want {
            return Err(format!(
                "session #{session}: reply counter {counter}, expected {want}"
            ));
        }
        self.counts[session] = want;
        self.committed += 1;
        Ok(())
    }

    /// Ok replies recorded by this ledger.
    pub fn committed(&self) -> u64 {
        self.committed
    }
}

/// The counter stored in the first eight bytes of a shared variable.
pub fn shared_counter(value: &[u8]) -> u64 {
    value
        .get(..8)
        .map(|b| u64::from_le_bytes(b.try_into().expect("eight bytes")))
        .unwrap_or(0)
}

/// Check a `dump_shared` result against the expected counter of each
/// variable, in registration order.
pub fn check_shared(what: &str, dump: &[Vec<u8>], expected: &[u64]) -> Result<(), String> {
    let got: Vec<u64> = dump.iter().map(|v| shared_counter(v)).collect();
    if got != expected {
        return Err(format!(
            "{what}: shared counters {got:?}, expected {expected:?}"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replies_must_count_up_by_one_per_session() {
        let mut l = Ledger::new(vec![0, 0]);
        l.on_ok(0, 1).unwrap();
        l.on_ok(1, 1).unwrap();
        l.on_ok(0, 2).unwrap();
        assert_eq!(l.committed(), 3);
        // A replayed-twice request shows as a skipped counter...
        assert!(l.on_ok(1, 3).is_err());
        // ...and a lost one as a repeated counter.
        assert!(l.on_ok(0, 2).is_err());
        assert_eq!(l.committed(), 3);
    }

    #[test]
    fn restored_sessions_start_past_their_history() {
        let mut l = Ledger::new(vec![20]);
        assert!(l.on_ok(0, 1).is_err());
        l.on_ok(0, 21).unwrap();
        assert_eq!(l.committed(), 1);
    }

    #[test]
    fn shared_counters_compare_in_registration_order() {
        let var = |n: u64| {
            let mut v = vec![0u8; 128];
            v[..8].copy_from_slice(&n.to_le_bytes());
            v
        };
        let dump = vec![var(7), var(14)];
        assert!(check_shared("msp", &dump, &[7, 14]).is_ok());
        assert!(check_shared("msp", &dump, &[7, 13]).is_err());
        assert!(check_shared("msp", &dump, &[14, 7]).is_err());
        assert_eq!(shared_counter(&[]), 0);
    }
}
