//! Exchange-side machinery: integrations and their price encoding.
//!
//! An *integration* is one (exchange, DSP) reporting channel. Its price
//! visibility is decided here:
//!
//! * encrypted-house exchanges always report encrypted;
//! * cleartext-house integrations may *migrate* to encryption at a
//!   per-integration flip day drawn at construction — the steady rise of
//!   encrypted ADX-DSP pairs the paper plots in Figure 2;
//! * retargeting DSPs ask for encryption wherever the exchange offers it.
//!
//! Each encrypted integration owns a [`PriceCrypter`] keyed to the pair,
//! mirroring the real protocol where the exchange shares per-buyer
//! secrets. Observers (everything downstream of the emitted URL) never
//! see these keys.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use yav_crypto::{PriceCrypter, PriceKeys};
use yav_nurl::fields::PricePayload;
use yav_types::{Adx, Cpm, DspId, PriceVisibility, SimTime};

/// Simulation horizon for migration draws: flip days land anywhere in
/// 2015–2016 (the study window).
const HORIZON_DAYS: i64 = 730;

/// One (exchange, DSP) reporting channel.
#[derive(Debug, Clone)]
pub struct Integration {
    adx: Adx,
    dsp: DspId,
    /// Day (since epoch) after which this integration reports encrypted;
    /// `None` means it stays cleartext for the whole horizon.
    flip_day: Option<i64>,
    crypter: PriceCrypter,
    iv_counter: u64,
}

impl Integration {
    /// The integration's price visibility at a given time.
    pub fn visibility(&self, time: SimTime) -> PriceVisibility {
        match self.flip_day {
            Some(day) if time.minutes() >= day * yav_types::MINUTES_PER_DAY => {
                PriceVisibility::Encrypted
            }
            Some(_) | None => PriceVisibility::Cleartext,
        }
    }

    /// Encodes a charge price for the wire at `time`, encrypting when the
    /// channel calls for it.
    pub fn encode_price(&mut self, charge: Cpm, time: SimTime) -> PricePayload {
        match self.visibility(time) {
            PriceVisibility::Cleartext => PricePayload::Cleartext(charge),
            PriceVisibility::Encrypted => {
                let mut iv = [0u8; 16];
                iv[..8].copy_from_slice(&self.iv_counter.to_be_bytes());
                iv[8..12].copy_from_slice(&(self.dsp.0).to_be_bytes());
                iv[12..16].copy_from_slice(&(self.adx.index() as u32).to_be_bytes());
                self.iv_counter += 1;
                PricePayload::Encrypted(self.crypter.encrypt(charge.micros().max(0) as u64, iv))
            }
        }
    }

    /// The DSP-side decryption of a token this integration produced —
    /// what the buyer's performance report contains. Exposed so the
    /// probing-campaign harness can receive ground truth exactly the way
    /// the paper's campaigns did.
    pub fn crypter(&self) -> &PriceCrypter {
        &self.crypter
    }
}

/// The full integration matrix.
///
/// Cloning copies the derived keys instead of re-deriving them — the
/// parallel world builders stamp per-shard matrices from one template
/// build (see [`crate::MarketTemplate`]), since deriving the keys costs
/// two HMAC-SHA256s per (exchange, DSP) pair.
#[derive(Debug, Clone)]
pub struct IntegrationMatrix {
    map: HashMap<(Adx, DspId), Integration>,
}

impl IntegrationMatrix {
    /// Builds the matrix for a DSP roster. Migration flip days are drawn
    /// once, deterministically from `seed`.
    pub fn build(
        seed: u64,
        dsps: &[crate::dsp::DspProfile],
        migration_rate_major: f64,
        migration_rate_minor: f64,
    ) -> IntegrationMatrix {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x1A7E_6000_0000_0002);
        let mut map = HashMap::new();
        for adx in Adx::ALL {
            for dsp in dsps {
                let flip_day = match adx.house_style() {
                    // Encrypted houses encrypt from day zero.
                    PriceVisibility::Encrypted => Some(0),
                    PriceVisibility::Cleartext => {
                        let rate = if crate::config::MarketConfig::is_major_cleartext(adx) {
                            migration_rate_major
                        } else {
                            migration_rate_minor
                        };
                        // Retargeters push for encryption: raised odds.
                        let rate = if dsp.prefers_encryption() {
                            (rate * 1.5).min(1.0)
                        } else {
                            rate
                        };
                        if rng.gen::<f64>() < rate {
                            Some(rng.gen_range(0..HORIZON_DAYS))
                        } else {
                            None
                        }
                    }
                };
                let label = format!("{}|{}", adx.domain(), dsp.id.domain());
                map.insert(
                    (adx, dsp.id),
                    Integration {
                        adx,
                        dsp: dsp.id,
                        flip_day,
                        crypter: PriceCrypter::new(PriceKeys::derive(&label)),
                        iv_counter: 0,
                    },
                );
            }
        }
        IntegrationMatrix { map }
    }

    /// Mutable access to one integration.
    pub fn get_mut(&mut self, adx: Adx, dsp: DspId) -> Option<&mut Integration> {
        self.map.get_mut(&(adx, dsp))
    }

    /// Shared access to one integration.
    pub fn get(&self, adx: Adx, dsp: DspId) -> Option<&Integration> {
        self.map.get(&(adx, dsp))
    }

    /// Fraction of integrations reporting encrypted at `time` — the
    /// Figure-2 y-axis.
    pub fn encrypted_pair_share(&self, time: SimTime) -> f64 {
        if self.map.is_empty() {
            return 0.0;
        }
        let enc = self
            .map
            .values()
            .filter(|i| i.visibility(time) == PriceVisibility::Encrypted)
            .count();
        enc as f64 / self.map.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsp::DspProfile;

    fn matrix() -> IntegrationMatrix {
        IntegrationMatrix::build(1, &DspProfile::roster(30), 0.06, 0.35)
    }

    #[test]
    fn encrypted_houses_start_encrypted() {
        let m = matrix();
        let t0 = SimTime::EPOCH;
        for adx in Adx::ENCRYPTED_TARGETS {
            let i = m.get(adx, DspId(0)).unwrap();
            assert_eq!(i.visibility(t0), PriceVisibility::Encrypted);
        }
    }

    #[test]
    fn pair_share_rises_over_the_year() {
        let m = matrix();
        let jan = m.encrypted_pair_share(SimTime::from_ymd_hm(2015, 1, 15, 0, 0));
        let dec = m.encrypted_pair_share(SimTime::from_ymd_hm(2015, 12, 15, 0, 0));
        assert!(dec > jan, "encrypted pair share must rise: {jan} -> {dec}");
        // Encrypted houses alone put the floor around 8/17 of pairs.
        assert!(jan >= 8.0 / 17.0 - 0.05);
    }

    #[test]
    fn migration_is_sticky() {
        let m = matrix();
        // Once encrypted, an integration never goes back.
        for (_, i) in m.map.iter() {
            if let Some(day) = i.flip_day {
                let before = SimTime::from_minutes((day - 1).max(0) * yav_types::MINUTES_PER_DAY);
                let after = SimTime::from_minutes((day + 1) * yav_types::MINUTES_PER_DAY);
                if day > 0 {
                    assert_eq!(i.visibility(before), PriceVisibility::Cleartext);
                }
                assert_eq!(i.visibility(after), PriceVisibility::Encrypted);
            }
        }
    }

    #[test]
    fn encode_price_round_trips_through_dsp_keys() {
        let mut m = matrix();
        let t = SimTime::EPOCH;
        let i = m.get_mut(Adx::DoubleClick, DspId(2)).unwrap();
        let payload = i.encode_price(Cpm::from_f64(1.25), t);
        let token = payload.encrypted().expect("doubleclick encrypts");
        assert_eq!(i.crypter().decrypt(token).unwrap(), 1_250_000);
    }

    #[test]
    fn ivs_never_repeat() {
        let mut m = matrix();
        let i = m.get_mut(Adx::OpenX, DspId(1)).unwrap();
        let a = i.encode_price(Cpm::ONE, SimTime::EPOCH);
        let b = i.encode_price(Cpm::ONE, SimTime::EPOCH);
        assert_ne!(a.encrypted().unwrap(), b.encrypted().unwrap());
    }

    #[test]
    fn matrix_is_deterministic() {
        let a = matrix();
        let b = matrix();
        for (k, ia) in a.map.iter() {
            assert_eq!(ia.flip_day, b.map[k].flip_day);
        }
    }

    #[test]
    fn cleartext_major_rarely_migrates() {
        let m = IntegrationMatrix::build(5, &DspProfile::roster(200), 0.06, 0.35);
        let migrated = |adx: Adx| {
            (0..200u32)
                .filter(|&d| m.get(adx, DspId(d)).unwrap().flip_day.is_some())
                .count() as f64
                / 200.0
        };
        assert!(
            migrated(Adx::MoPub) < 0.20,
            "mopub {}",
            migrated(Adx::MoPub)
        );
        assert!(migrated(Adx::Turn) > 0.25, "turn {}", migrated(Adx::Turn));
    }
}
