//! The workspace's one JSON string and number encoder.
//!
//! Every hand-rolled JSON emitter (the `safelight::eval` reports, the
//! serving and chaos reports, incident forensics, the metrics snapshot)
//! renders its literals through this pair, so they share one escaping
//! discipline instead of drifting copies.

/// Escapes `s` as a JSON string literal, quotes included: `"` and `\`
/// are backslash-escaped, `\n`, `\r` and `\t` use their short escapes,
/// and every other control character becomes `\u00XX`.
#[must_use]
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number literal: `null` for non-finite values, which JSON cannot
/// represent.
#[must_use]
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_strings_escape_special_characters() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_str("r\rt\tb\u{8}"), "\"r\\rt\\tb\\u0008\"");
        assert_eq!(json_str("\u{1f}é"), "\"\\u001fé\"");
        assert_eq!(json_num(f64::INFINITY), "null");
        assert_eq!(json_num(f64::NAN), "null");
        assert_eq!(json_num(0.25), "0.25");
    }
}
