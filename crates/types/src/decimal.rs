//! Decimal rendering without `core::fmt`, for the URL builders on the
//! event path (the generator's requests, the nURL renderer).

/// Appends `n` in decimal to `buf`: the bytes `write!(buf, "{n}")`
/// appends, without `core::fmt`. Digits go two at a time, leading pair
/// first, as slices of a table of the hundred two-digit strings (so no
/// byte buffer needs a UTF-8 check).
pub fn push_decimal(buf: &mut String, n: impl Into<u64>) {
    /// `PAIRS[2k..2k + 2]` is `k` in two digits, for `k` below 100.
    const PAIRS: &str = concat!(
        "00010203040506070809",
        "10111213141516171819",
        "20212223242526272829",
        "30313233343536373839",
        "40414243444546474849",
        "50515253545556575859",
        "60616263646566676869",
        "70717273747576777879",
        "80818283848586878889",
        "90919293949596979899",
    );
    // The pairs below the leading one, least significant first: u64::MAX
    // has twenty digits, so at most nine.
    let mut low = [0u8; 9];
    let (mut len, mut lead) = (0, n.into());
    while lead >= 100 {
        low[len] = (lead % 100) as u8;
        lead /= 100;
        len += 1;
    }
    // A leading pair below 10 is written as its one digit.
    let k = 2 * lead as usize;
    buf.push_str(&PAIRS[k + usize::from(lead < 10)..k + 2]);
    for &pair in low[..len].iter().rev() {
        let k = 2 * pair as usize;
        buf.push_str(&PAIRS[k..k + 2]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_decimal_writes_what_display_writes() {
        let mut cases: Vec<u64> = (0..=1_000).collect();
        for digits in 1..=19 {
            let p = 10u64.pow(digits);
            cases.extend([p - 1, p, p + 1, p / 2 * 3 - 1, p / 4 * 7 + 7]);
        }
        cases.extend([u64::from(u32::MAX), u64::MAX - 1, u64::MAX, 0x9E37_79B9]);
        // Spread over the whole range by a multiplicative hash.
        cases.extend((0..10_000u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
        let mut buf = String::from("prefix/");
        for n in cases {
            buf.truncate("prefix/".len());
            push_decimal(&mut buf, n);
            assert_eq!(buf, format!("prefix/{n}"));
        }
        buf.truncate("prefix/".len());
        push_decimal(&mut buf, 7u8);
        assert_eq!(buf, "prefix/7");
    }
}
