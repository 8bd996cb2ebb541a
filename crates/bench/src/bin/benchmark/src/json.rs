//! The two JSON scalars the benchmark writes; everything else is built
//! with `format!`.

/// A JSON string literal.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit of the measurement (Rust's shortest
/// round-trip form, never an exponent). Non-finite values have no JSON
/// form and show a bug in the caller.
pub fn number(x: f64) -> String {
    assert!(x.is_finite(), "metric value {x} is not finite");
    format!("{x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_are_escaped() {
        assert_eq!(string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }

    #[test]
    fn numbers_keep_all_digits() {
        assert_eq!(number(0.1234567891), "0.1234567891");
        assert_eq!(number(3.0), "3");
        assert_eq!(number(1e-7), "0.0000001");
    }
}
