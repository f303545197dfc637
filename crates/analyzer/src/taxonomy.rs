//! Publisher content taxonomy.
//!
//! The paper labels each visited website with IAB categories by querying
//! Google AdWords' content classification. Our stand-in classifies a
//! publisher domain by its content keywords — the synthetic universe names
//! publishers after their topic (e.g. `midesporte12.example`), exactly the
//! signal a real content classifier would extract from the page itself.

use yav_types::IabCategory;

/// Topic keywords → IAB category. The first keyword in table order that
/// occurs anywhere in the host wins, so the order settles overlapping
/// keywords ("negocios" must outrank its substring "ocio") and hosts
/// holding two keywords ("deportetec" is Sports, "tecnoticias" News).
const KEYWORDS: [(&str, IabCategory); 18] = [
    ("noticias", IabCategory::News),
    ("negocios", IabCategory::Business),
    ("ocio", IabCategory::ArtsEntertainment),
    ("deporte", IabCategory::Sports),
    ("tec", IabCategory::Technology),
    ("aficion", IabCategory::Hobbies),
    ("compras", IabCategory::Shopping),
    ("viajes", IabCategory::Travel),
    ("cocina", IabCategory::FoodDrink),
    ("moda", IabCategory::StyleFashion),
    ("salud", IabCategory::Health),
    ("motor", IabCategory::Automotive),
    ("gente", IabCategory::Society),
    ("hogar", IabCategory::HomeGarden),
    ("finanzas", IabCategory::PersonalFinance),
    ("aula", IabCategory::Education),
    ("empleo", IabCategory::Careers),
    ("ciencia", IabCategory::Science),
];

// `FIRST` holds one bit per keyword.
const _: () = assert!(KEYWORDS.len() <= 32);

/// Bit `k` is set at both ASCII cases of keyword `k`'s first byte.
const FIRST: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut k = 0;
    while k < KEYWORDS.len() {
        let b = KEYWORDS[k].0.as_bytes()[0];
        table[b.to_ascii_lowercase() as usize] |= 1 << k;
        table[b.to_ascii_uppercase() as usize] |= 1 << k;
        k += 1;
    }
    table
};

/// Classifies a publisher host (or app bundle name) into an IAB category:
/// that of the first keyword in table order occurring anywhere in the
/// host, ASCII case-insensitively. Returns `None` when no topic keyword
/// matches — the analyzer treats those as uncategorised, as AdWords does
/// for unknown sites.
///
/// One pass over the host's bytes: at each position only the keywords
/// starting with that byte are compared, and only those that would still
/// outrank the best match so far.
pub fn categorize(host: &str) -> Option<IabCategory> {
    let h = host.as_bytes();
    // Keywords that could still win: those before the best match so far.
    let mut live = u32::MAX;
    let mut best = None;
    for (i, &b) in h.iter().enumerate() {
        let mut candidates = FIRST[b as usize] & live;
        while candidates != 0 {
            let k = candidates.trailing_zeros();
            candidates &= candidates - 1;
            let (kw, iab) = KEYWORDS[k as usize];
            if h[i..]
                .get(..kw.len())
                .is_some_and(|w| w.eq_ignore_ascii_case(kw.as_bytes()))
            {
                best = Some(iab);
                live = (1 << k) - 1;
                // Later candidates come after `k` in the table.
                break;
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The windowed scans the one-pass matcher replaced, kept as its
    /// oracle: keyword by keyword in table order, every window of the host.
    fn categorize_by_scans(host: &str) -> Option<IabCategory> {
        let h = host.as_bytes();
        KEYWORDS
            .iter()
            .find(|(kw, _)| {
                let n = kw.as_bytes();
                h.len() >= n.len() && h.windows(n.len()).any(|w| w.eq_ignore_ascii_case(n))
            })
            .map(|&(_, iab)| iab)
    }

    #[test]
    fn one_pass_matches_the_windowed_scans() {
        let u = yav_weblog::PublisherUniverse::build(1, 400, 150);
        let mut hosts: Vec<String> = u.all().iter().map(|p| p.name.clone()).collect();
        hosts.extend(u.all().iter().map(|p| p.name.to_ascii_uppercase()));
        hosts.extend(
            [
                "deportetec",
                "tecnoticias",
                "ocionegocios",
                "OCIONEGOCIOS",
                "",
                "étec",
            ]
            .map(String::from),
        );
        for h in &hosts {
            assert_eq!(categorize(h), categorize_by_scans(h), "{h:?}");
        }
    }

    #[test]
    fn synthetic_universe_fully_categorised() {
        let u = yav_weblog::PublisherUniverse::build(1, 400, 150);
        for p in u.all() {
            let got = categorize(&p.name);
            assert_eq!(got, Some(p.iab), "publisher {}", p.name);
        }
    }

    #[test]
    fn unknown_hosts_none() {
        assert_eq!(categorize("www.example.com"), None);
        assert_eq!(categorize("cdn.fastassets.example"), None);
    }

    #[test]
    fn subdomains_and_case() {
        for (host, iab) in [
            ("WWW.ELDEPORTE5.EXAMPLE", IabCategory::Sports),
            ("api.com.minoticias.app3", IabCategory::News),
            ("minegocios.example", IabCategory::Business),
            ("deportetec.example", IabCategory::Sports),
            ("tecnoticias.example", IabCategory::News),
        ] {
            assert_eq!(categorize(host), Some(iab), "{host}");
        }
    }
}
