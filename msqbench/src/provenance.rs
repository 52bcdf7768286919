//! Where a report came from: host, toolchain, commit, build profile,
//! workload seed and a digest of the generated inputs. Two runs that
//! print the same digest saw the same network, objects, query sets and
//! update batches.

use std::process::Command;

/// 64-bit FNV-1a over everything the benchmark generates.
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Feeds raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Feeds an integer.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Feeds a float by its bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// The digest as printed in reports.
    pub fn hex(&self) -> String {
        format!("fnv1a64:{:016x}", self.0)
    }
}

/// First line of a command's standard output, if it runs and succeeds.
fn first_line_of(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8_lossy(&out.stdout);
    text.lines().next().map(|l| l.trim().to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Escapes a string for a JSON string literal.
pub fn json_str(s: &str) -> String {
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

/// The provenance block as one JSON object.
pub fn block(workload: &str, seed: u64, trace: bool, input_digest: &str) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rustc = first_line_of("rustc", &["--version"]).unwrap_or_else(|| "unknown".into());
    let commit = first_line_of("git", &["rev-parse", "HEAD"])
        .unwrap_or_else(|| "unknown (not a git checkout)".into());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "{{\"provenance\": {{\"nproc\": {nproc}, \"cpu_model\": {}, \"rustc\": {}, \
         \"commit\": {}, \"profile\": \"{profile}\", \"workload\": \"{workload}\", \
         \"seed\": {seed}, \"trace\": {trace}, \"input_digest\": \"{input_digest}\"}}}}",
        json_str(&cpu_model()),
        json_str(&rustc),
        json_str(&commit),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_separates_inputs() {
        let mut a = Digest::default();
        let mut b = Digest::default();
        a.f64(1.0);
        b.f64(1.0);
        assert_eq!(a.hex(), b.hex());
        b.u64(0);
        assert_ne!(a.hex(), b.hex());
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
