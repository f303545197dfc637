//! Live-extension session: the toolbar experience of §3.3.
//!
//! ```sh
//! cargo run --release --example live_extension
//! ```
//!
//! Simulates one user's browsing session with YourAdValue installed:
//! model download, per-notification toolbar events as pages load, a
//! mid-session model upgrade after the PME retrains, and the final
//! popup summary — plus the opt-in anonymous contribution upload.

use your_ad_value::prelude::*;
use your_ad_value::weblog::PublisherUniverse;

fn main() {
    // Back-end: market + PME bootstrapped from a probing campaign.
    let universe = PublisherUniverse::build(0xD474, 600, 240);
    let a1 = campaign::execute_parallel(
        &MarketConfig::default(),
        &universe,
        &Campaign::a1().scaled(25),
        &ExecConfig::serial(),
    );
    let pme = Pme::new();
    pme.train_from_campaign(&a1.rows, &TrainConfig::quick());

    // The user installs the extension; it fetches model v1.
    let mut yav = YourAdValue::new(Some(City::Barcelona));
    yav.refresh_model(&pme);
    println!("YourAdValue installed — model v{}", yav.model_version());

    // One panel user's traffic, streamed as a "session".
    let generator = WeblogGenerator::new(WeblogConfig::tiny());
    let mut session: Vec<_> = Vec::new();
    generator.run(
        &MarketConfig::default(),
        |req| {
            if req.user == UserId(3) {
                session.push(req.clone());
            }
        },
        |_| {},
    );
    println!(
        "replaying {} requests from one user's trace\n",
        session.len()
    );

    let halfway = session.len() / 2;
    for (i, req) in session.iter().enumerate() {
        // The extension's periodic model poll: the PME retrained overnight.
        if i == halfway {
            pme.train_from_campaign(&a1.rows, &TrainConfig::quick());
            if yav.refresh_model(&pme) {
                println!("… model upgraded to v{} mid-session", yav.model_version());
            }
        }
        if let Some(event) = yav.observe(req) {
            // The toolbar notification for a newly detected charge price.
            println!(
                "[{}] {} ad on {:<14} {} {} CPM",
                event.time,
                event.visibility,
                event.adx.name(),
                if event.estimated { "≈" } else { "=" },
                event.amount,
            );
        }
    }

    // The popup: cumulative cost and the most recent charge prices.
    let s = yav.ledger().summary();
    println!("\n── toolbar popup ─────────────────────────────");
    println!("   you were worth {} CPM to advertisers", s.total());
    println!(
        "   {} readable + {} estimated prices",
        s.cleartext_count, s.encrypted_count
    );
    println!("   recent prices:");
    for e in yav.ledger().recent(5) {
        println!("     {} {} {} CPM", e.time, e.adx.name(), e.amount);
    }

    // Opt-in: contribute anonymised observations back to the PME.
    let sent = yav.contribute_to(&pme);
    let (clear, enc) = pme.contribution_count();
    println!("\ncontributed {sent} anonymous observations (PME now holds {clear} cleartext / {enc} encrypted)");
}
