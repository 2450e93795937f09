//! Email corpus + mail-server blacklist for the Fig. 4 workflow
//! (paper, Section 5.1 and Listing 5).
//!
//! The paper uses 1 M emails (~100 KB each, 100 GB total) and a blacklist of
//! 100 k IPs with per-server information (2 GB). Scaled down, we keep the
//! *ratios*: emails dominate the blacklist by ~50× in bytes, a sizable
//! fraction of emails come from blacklisted servers, and each record carries
//! a payload so that byte-based costs (broadcast, shuffle, cache) behave like
//! the original.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use emma_compiler::value::Value;

/// Email tuple fields.
pub mod email {
    /// Originating mail-server IP (as an integer id).
    pub const IP: usize = 0;
    /// Subject line.
    pub const SUBJECT: usize = 1;
    /// Body payload.
    pub const BODY: usize = 2;
}

/// Blacklist tuple fields.
pub mod blacklist {
    /// Blacklisted server IP.
    pub const IP: usize = 0;
    /// Per-server information payload.
    pub const INFO: usize = 1;
}

/// Parameters of the email-workflow dataset.
#[derive(Clone, Copy, Debug)]
pub struct EmailSpec {
    /// Number of emails.
    pub emails: usize,
    /// Number of blacklisted IPs.
    pub blacklist: usize,
    /// Total IP domain size (blacklist hit rate = blacklist / domain).
    pub ip_domain: i64,
    /// Email body payload bytes.
    pub body_bytes: usize,
    /// Blacklist info payload bytes.
    pub info_bytes: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for EmailSpec {
    fn default() -> Self {
        // ~1/1000 of the paper's volumes, same ratios: 1M→2k emails of
        // ~100 B (paper: 100 KB), 100k→400 blacklist entries with bigger
        // per-entry info so blacklist ≈ 2 % of email bytes.
        EmailSpec {
            emails: 2_000,
            blacklist: 400,
            ip_domain: 2_000,
            body_bytes: 100,
            info_bytes: 50,
            seed: 42,
        }
    }
}

fn rand_string(rng: &mut StdRng, len: usize) -> String {
    (0..len)
        .map(|_| (b'a' + rng.gen_range(0..26u8)) as char)
        .collect()
}

/// Generates `(emails, blacklist)` row sets.
pub fn generate(spec: &EmailSpec) -> (Vec<Value>, Vec<Value>) {
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let blacklist: Vec<Value> = (0..spec.blacklist)
        .map(|i| {
            Value::tuple([
                Value::Int(i as i64), // IPs 0..blacklist are blacklisted
                Value::str(rand_string(&mut rng, spec.info_bytes)),
            ])
        })
        .collect();
    let emails: Vec<Value> = (0..spec.emails)
        .map(|_| {
            let ip = rng.gen_range(0..spec.ip_domain);
            Value::tuple([
                Value::Int(ip),
                Value::str(rand_string(&mut rng, 12)),
                Value::str(rand_string(&mut rng, spec.body_bytes)),
            ])
        })
        .collect();
    (emails, blacklist)
}

/// The classifier ids used by the Listing-5 workflow: each classifier is an
/// integer threshold driving a deterministic `isSpam` predicate
/// (`hash(body) % 100 < threshold`).
pub fn classifiers(n: usize) -> Vec<Value> {
    (0..n).map(|i| Value::Int(20 + 10 * i as i64)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_match_spec() {
        let spec = EmailSpec::default();
        let (emails, bl) = generate(&spec);
        assert_eq!(emails.len(), spec.emails);
        assert_eq!(bl.len(), spec.blacklist);
    }

    #[test]
    fn emails_dominate_blacklist_in_bytes() {
        let (emails, bl) = generate(&EmailSpec::default());
        let eb: u64 = emails.iter().map(Value::approx_bytes).sum();
        let bb: u64 = bl.iter().map(Value::approx_bytes).sum();
        assert!(eb > bb * 5, "emails {eb} vs blacklist {bb}");
    }

    #[test]
    fn some_emails_hit_the_blacklist() {
        let spec = EmailSpec::default();
        let (emails, _) = generate(&spec);
        let hits = emails
            .iter()
            .filter(|e| e.field(email::IP).unwrap().as_int().unwrap() < spec.blacklist as i64)
            .count();
        let frac = hits as f64 / emails.len() as f64;
        let expected = spec.blacklist as f64 / spec.ip_domain as f64;
        assert!(
            (frac - expected).abs() < 0.1,
            "hit rate {frac}, expected ≈ {expected}"
        );
    }

    #[test]
    fn deterministic() {
        let a = generate(&EmailSpec::default());
        let b = generate(&EmailSpec::default());
        assert_eq!(a.0, b.0);
        assert_eq!(a.1, b.1);
    }

    #[test]
    fn classifier_ids_are_distinct() {
        let cs = classifiers(4);
        assert_eq!(cs.len(), 4);
        let set: std::collections::HashSet<_> = cs.iter().collect();
        assert_eq!(set.len(), 4);
    }
}
