//! The Data Management Platform (DMP): run-time user profiles.
//!
//! The paper's Figure 1 puts a "Data Hub" at the centre of the ecosystem:
//! DSPs query it for user value before bidding (step 4). Our [`Dmp`] keeps
//! the market's latent knowledge about each user — a heavy-tailed value
//! multiplier plus a count of cookie-sync events — lazily materialised so
//! users only cost memory once they are actually seen in an auction.
//!
//! The value distribution drives Figures 17–19: most users are ordinary
//! (log-normal around 1), while a ~2 % tail of "whales" (incomplete
//! purchases being retargeted, expensive tastes, specialised needs — the
//! paper's §2.3 speculations) is worth ≈5–20× more per impression; the
//! paper's 10–100× *total*-cost outliers emerge when that premium
//! compounds with heavy browsing volume.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use yav_types::UserId;

/// A per-user map of the DMP's latent knowledge.
#[expect(
    clippy::disallowed_types,
    reason = "keyed lookups only (get/insert/entry/len), never iterated, so hash order \
              cannot reach output; O(1) access once per auction"
)]
type UserMap<V> = std::collections::HashMap<UserId, V>;

/// Latent market knowledge about one user.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UserValue {
    /// Multiplicative value factor applied to every valuation for this
    /// user. Median 1.0; heavy upper tail.
    pub factor: f64,
    /// Whether the user sits in the retargeted "whale" tail.
    pub whale: bool,
}

/// The market's user-knowledge store.
#[derive(Debug)]
pub struct Dmp {
    rng: StdRng,
    values: UserMap<UserValue>,
    /// Fraction of users in the whale tail (paper: ~2 % of users cost
    /// 10–100× the average in total).
    whale_fraction: f64,
    /// Log-normal sigma of the ordinary-user value factor.
    value_sigma: f64,
    cookie_syncs: UserMap<u32>,
}

impl Dmp {
    /// Creates a DMP with its own deterministic randomness stream.
    pub fn new(seed: u64, whale_fraction: f64, value_sigma: f64) -> Dmp {
        Dmp {
            rng: StdRng::seed_from_u64(seed ^ 0xD11A_0000_0000_0001),
            values: UserMap::new(),
            whale_fraction,
            value_sigma,
            cookie_syncs: UserMap::new(),
        }
    }

    /// The user's latent value, drawing it on first sight.
    pub fn user_value(&mut self, user: UserId) -> UserValue {
        if let Some(v) = self.values.get(&user) {
            return *v;
        }
        let whale = self.rng.gen::<f64>() < self.whale_fraction;
        let base = (self.value_sigma * standard_normal(&mut self.rng)).exp();
        let factor = if whale {
            // ≈8–50× per impression, log-uniform. Combined with the
            // heavy-browsing activity tail this produces the paper's
            // outlier users costing 10–100× the average in *total*
            // (Figure 17's 1 000–10 000 CPM band) without making
            // individual prices unlearnably heavy-tailed — the §5.4
            // model's feature set has no user-value signal, in the paper
            // as here.
            base * 10f64.powf(0.9 + 0.8 * self.rng.gen::<f64>())
        } else {
            base
        };
        let v = UserValue { factor, whale };
        self.values.insert(user, v);
        v
    }

    /// Records one cookie-synchronisation event for a user (SSPs sync
    /// aggressively to enable retargeting, §2.1).
    pub fn record_cookie_sync(&mut self, user: UserId) {
        *self.cookie_syncs.entry(user).or_insert(0) += 1;
    }

    /// Cookie syncs seen for a user so far.
    pub fn cookie_syncs(&self, user: UserId) -> u32 {
        self.cookie_syncs.get(&user).copied().unwrap_or(0)
    }

    /// Number of users materialised so far.
    pub fn known_users(&self) -> usize {
        self.values.len()
    }
}

/// One standard-normal draw via Box–Muller (avoids a rand_distr
/// dependency; two uniforms per call is fine at simulator scale).
pub fn standard_normal<R: Rng>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_are_stable_per_user() {
        let mut dmp = Dmp::new(1, 0.02, 0.6);
        let a1 = dmp.user_value(UserId(7));
        let a2 = dmp.user_value(UserId(7));
        assert_eq!(a1, a2);
        assert_eq!(dmp.known_users(), 1);
    }

    #[test]
    fn whale_fraction_respected() {
        let mut dmp = Dmp::new(42, 0.02, 0.6);
        let whales = (0..20_000u32)
            .filter(|&i| dmp.user_value(UserId(i)).whale)
            .count();
        let frac = whales as f64 / 20_000.0;
        assert!((0.012..=0.028).contains(&frac), "whale fraction {frac}");
    }

    #[test]
    fn whales_are_worth_much_more() {
        let mut dmp = Dmp::new(7, 0.02, 0.6);
        let (mut whale_vals, mut normal_vals) = (Vec::new(), Vec::new());
        for i in 0..20_000u32 {
            let v = dmp.user_value(UserId(i));
            if v.whale {
                whale_vals.push(v.factor);
            } else {
                normal_vals.push(v.factor);
            }
        }
        let mw = whale_vals.iter().sum::<f64>() / whale_vals.len() as f64;
        let mn = normal_vals.iter().sum::<f64>() / normal_vals.len() as f64;
        assert!(mw / mn > 8.0, "whales {mw:.2} vs normals {mn:.2}");
    }

    #[test]
    fn ordinary_values_center_on_one() {
        let mut dmp = Dmp::new(9, 0.0, 0.6);
        let mut vals: Vec<f64> = (0..10_000u32)
            .map(|i| dmp.user_value(UserId(i)).factor)
            .collect();
        vals.sort_by(|a, b| a.total_cmp(b));
        let median = vals[vals.len() / 2];
        assert!((0.9..=1.1).contains(&median), "median {median}");
    }

    #[test]
    fn cookie_sync_counters() {
        let mut dmp = Dmp::new(3, 0.02, 0.6);
        assert_eq!(dmp.cookie_syncs(UserId(1)), 0);
        dmp.record_cookie_sync(UserId(1));
        dmp.record_cookie_sync(UserId(1));
        assert_eq!(dmp.cookie_syncs(UserId(1)), 2);
        assert_eq!(dmp.cookie_syncs(UserId(2)), 0);
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = StdRng::seed_from_u64(11);
        let n = 50_000;
        let draws: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean = draws.iter().sum::<f64>() / n as f64;
        let var = draws.iter().map(|d| (d - mean) * (d - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
    }
}
