//! Negative fixture: simulation code on SimTime, timing via a
//! telemetry span, wall clock only in test code (linted as crate
//! `auction`).

pub fn run_auction(now_minutes: i64) -> i64 {
    let _span = yav_telemetry::span!("auction.market");
    now_minutes + 1
}

#[cfg(test)]
mod tests {
    #[test]
    fn benches_may_read_the_clock() {
        let t0 = std::time::Instant::now();
        assert!(t0.elapsed().as_nanos() < u128::MAX);
    }
}
