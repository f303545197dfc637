//! Quickstart: answer the paper's question end to end on a miniature
//! world.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! Builds a small RTB market and user panel, runs a probing ad-campaign
//! to collect encrypted-price ground truth, trains the Price Modeling
//! Engine, installs the model into a YourAdValue client, streams a panel
//! user's browsing traffic through it, and prints the cumulative amount
//! advertisers paid.

use your_ad_value::prelude::*;

fn main() {
    // 1. The world: a simulated RTB market and a browsing panel.
    let generator = WeblogGenerator::new(WeblogConfig::small());
    let universe = generator.universe().clone();

    // 2. Ground truth for encrypted prices: a probing ad-campaign on the
    //    four price-encrypting exchanges (the paper's campaign A1).
    println!("running probing ad-campaign A1 (scaled) …");
    let a1 = campaign::execute_parallel(
        &MarketConfig::default(),
        &universe,
        &Campaign::a1().scaled(40),
        &ExecConfig::serial(),
    );
    println!(
        "  bought {} impressions on {} publishers for {}",
        a1.rows.len(),
        a1.distinct_publishers(),
        a1.spent,
    );

    // 3. The Price Modeling Engine trains the encrypted-price estimator.
    let pme = Pme::new();
    pme.train_from_campaign(&a1.rows, &TrainConfig::quick());
    let trained = pme.trained_model().expect("just trained");
    println!(
        "  model v{}: accuracy {:.1} %, AUCROC {:.3}",
        pme.version(),
        trained.cv.accuracy * 100.0,
        trained.cv.auc_roc,
    );

    // 4. A user installs YourAdValue; it polls the PME for the model.
    let mut yav = YourAdValue::new(Some(City::Madrid));
    assert!(yav.refresh_model(&pme));

    // 5. Stream the panel's browsing year through the client.
    println!("streaming panel traffic through YourAdValue …");
    generator.run(
        &MarketConfig::default(),
        |req| {
            yav.observe(req);
        },
        |_| {},
    );

    // 6. The answer.
    let s = yav.ledger().summary();
    println!("\n=== How much did advertisers pay to reach this panel? ===");
    println!(
        "cleartext prices read   : {:>10} CPM over {} impressions",
        s.cleartext, s.cleartext_count
    );
    println!(
        "encrypted prices est.   : {:>10} CPM over {} impressions",
        s.encrypted_estimated, s.encrypted_count
    );
    println!("total V_u(T)            : {:>10} CPM", s.total());
    println!(
        "(encrypted estimation adds {:.0} % on top of the readable prices)",
        s.encrypted_estimated.as_f64() / s.cleartext.as_f64().max(f64::MIN_POSITIVE) * 100.0
    );
}
