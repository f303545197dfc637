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
//! see these keys. An integration holds no mutable state: the IV of each
//! sealed price comes from the sale's impression id, so every market
//! shard reads one shared matrix.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use yav_crypto::{PriceCrypter, PriceKeys};
use yav_nurl::fields::PricePayload;
use yav_types::{Adx, Cpm, DspId, ImpressionId, PriceVisibility, SimTime};

/// Simulation horizon for migration draws: flip days land anywhere in
/// 2015–2016 (the study window).
const HORIZON_DAYS: i64 = 730;

/// One (exchange, DSP) reporting channel.
#[derive(Debug)]
pub struct Integration {
    adx: Adx,
    dsp: DspId,
    /// Day (since epoch) after which this integration reports encrypted;
    /// `None` means it stays cleartext for the whole horizon.
    flip_day: Option<i64>,
    crypter: PriceCrypter,
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

    /// Encodes the charge price of `impression` for the wire at `time`,
    /// encrypting when the channel calls for it. The IV is the
    /// impression id, then the DSP id, then the exchange index: impression
    /// ids live in per-shard namespaces, so no two sales of one market
    /// stream share an IV under a pair's keys.
    pub fn encode_price(
        &self,
        charge: Cpm,
        time: SimTime,
        impression: ImpressionId,
    ) -> PricePayload {
        match self.visibility(time) {
            PriceVisibility::Cleartext => PricePayload::Cleartext(charge),
            PriceVisibility::Encrypted => {
                let mut iv = [0u8; 16];
                iv[..8].copy_from_slice(&impression.0.to_be_bytes());
                iv[8..12].copy_from_slice(&(self.dsp.0).to_be_bytes());
                iv[12..16].copy_from_slice(&(self.adx.index() as u32).to_be_bytes());
                PricePayload::Encrypted(self.crypter.encrypt(charge.micros().max(0) as u64, iv))
            }
        }
    }
}

/// The full integration matrix: one integration per (exchange, DSP)
/// pair, stored densely at `adx.index() * n_dsps + dsp.0`.
///
/// Built once per [`crate::MarketTemplate`] and shared by every shard it
/// stamps, since deriving the keys costs two HMAC-SHA256s per pair.
#[derive(Debug)]
pub struct IntegrationMatrix {
    n_dsps: usize,
    table: Vec<Integration>,
}

impl IntegrationMatrix {
    /// Builds the matrix for a DSP roster, whose ids are its positions
    /// (as [`crate::dsp::DspProfile::roster`] numbers them). Migration
    /// flip days are drawn once, deterministically from `seed`.
    pub fn build(
        seed: u64,
        dsps: &[crate::dsp::DspProfile],
        migration_rate_major: f64,
        migration_rate_minor: f64,
    ) -> IntegrationMatrix {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x1A7E_6000_0000_0002);
        let mut table = Vec::with_capacity(Adx::ALL.len() * dsps.len());
        for adx in Adx::ALL {
            for (i, dsp) in dsps.iter().enumerate() {
                debug_assert_eq!(dsp.id.0 as usize, i, "roster ids are positions");
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
                table.push(Integration {
                    adx,
                    dsp: dsp.id,
                    flip_day,
                    crypter: PriceCrypter::new(PriceKeys::derive(&label)),
                });
            }
        }
        IntegrationMatrix {
            n_dsps: dsps.len(),
            table,
        }
    }

    /// The integration of `dsp` on `adx`, if `dsp` is on the roster.
    pub fn get(&self, adx: Adx, dsp: DspId) -> Option<&Integration> {
        let dsp = dsp.0 as usize;
        if dsp < self.n_dsps {
            self.table.get(adx.index() * self.n_dsps + dsp)
        } else {
            None
        }
    }

    /// Fraction of integrations reporting encrypted at `time` — the
    /// Figure-2 y-axis.
    pub fn encrypted_pair_share(&self, time: SimTime) -> f64 {
        if self.table.is_empty() {
            return 0.0;
        }
        let enc = self
            .table
            .iter()
            .filter(|i| i.visibility(time) == PriceVisibility::Encrypted)
            .count();
        enc as f64 / self.table.len() as f64
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
        for i in &m.table {
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
        let m = matrix();
        let t = SimTime::EPOCH;
        let i = m.get(Adx::DoubleClick, DspId(2)).unwrap();
        let payload = i.encode_price(Cpm::from_f64(1.25), t, ImpressionId(42));
        let token = payload.encrypted().expect("doubleclick encrypts");
        assert_eq!(i.crypter.decrypt(token).unwrap(), 1_250_000);
        assert_eq!(token.iv()[..8], 42u64.to_be_bytes());
    }

    #[test]
    fn ivs_never_repeat() {
        let m = matrix();
        let i = m.get(Adx::OpenX, DspId(1)).unwrap();
        let a = i.encode_price(Cpm::ONE, SimTime::EPOCH, ImpressionId(7));
        let b = i.encode_price(Cpm::ONE, SimTime::EPOCH, ImpressionId(8));
        assert_ne!(a.encrypted().unwrap().iv(), b.encrypted().unwrap().iv());
        // The same impression id on another pair is still another IV.
        let other = m.get(Adx::OpenX, DspId(2)).unwrap();
        let c = other.encode_price(Cpm::ONE, SimTime::EPOCH, ImpressionId(7));
        assert_ne!(a.encrypted().unwrap().iv(), c.encrypted().unwrap().iv());
    }

    #[test]
    fn dense_table_is_indexed_by_exchange_then_dsp() {
        let m = matrix();
        for adx in Adx::ALL {
            for d in 0..30 {
                let i = m.get(adx, DspId(d)).unwrap();
                assert_eq!((i.adx, i.dsp), (adx, DspId(d)));
            }
            assert!(m.get(adx, DspId(30)).is_none(), "off the roster");
        }
    }

    #[test]
    fn matrix_is_deterministic() {
        let a = matrix();
        let b = matrix();
        for (ia, ib) in a.table.iter().zip(&b.table) {
            assert_eq!(ia.flip_day, ib.flip_day);
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
