//! On-disk layout ordering of blob names.
//!
//! The preprocessor creates files in row-major cell order (`ss_0_0.bin`,
//! `ss_0_1.bin`, …, then delta generations per cell), and extent-based
//! filesystems tend to lay sequentially-created files out sequentially.
//! Sorting names the way they were created therefore approximates LBA
//! order — the key the paced-device emulation relies on to charge seeks
//! on backward jumps.

/// A file-name sort key approximating on-disk layout: alternating text
/// and numeric runs compared piecewise, so `ss_0_2.bin < ss_0_10.bin`
/// and `ss_0_1.bin < ss_0_1.g1.d2.bin` — the order the preprocessor
/// created (and the filesystem likely laid out) the files in.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum LayoutToken {
    /// A maximal run of non-digit characters.
    Text(String),
    /// A maximal run of digits, compared numerically.
    Num(u64),
}

/// Tokenise `name` into its layout-comparison key.
pub fn layout_key(name: &str) -> Vec<LayoutToken> {
    let mut out = Vec::new();
    let mut chars = name.chars().peekable();
    while let Some(&c) = chars.peek() {
        if c.is_ascii_digit() {
            let mut n = 0u64;
            while let Some(&d) = chars.peek() {
                let Some(v) = d.to_digit(10) else { break };
                n = n.saturating_mul(10).saturating_add(v as u64);
                chars.next();
            }
            out.push(LayoutToken::Num(n));
        } else {
            let mut s = String::new();
            while let Some(&d) = chars.peek() {
                if d.is_ascii_digit() {
                    break;
                }
                s.push(d);
                chars.next();
            }
            out.push(LayoutToken::Text(s));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_key_orders_numerically() {
        let mut names = vec![
            "ss_0_10.bin".to_string(),
            "ss_0_2.bin".to_string(),
            "ss_0_1.g1.d2.bin".to_string(),
            "ss_0_1.bin".to_string(),
            "hub_3_1.bin".to_string(),
        ];
        names.sort_by_key(|n| layout_key(n));
        assert_eq!(
            names,
            vec![
                "hub_3_1.bin",
                "ss_0_1.bin",
                "ss_0_1.g1.d2.bin",
                "ss_0_2.bin",
                "ss_0_10.bin",
            ]
        );
    }
}
