//! Recorded deterministic quantities of the `mine` pipeline.
//!
//! The default corpus `0xC0FFEE` is the paper's headline corpus, whose
//! funnel `tests/headline_funnel.rs` pins (1932 → 361 → 88 → 86, 395 deploy
//! requests); `0xC0FFEF` is the held-out corpus, recorded so that a later
//! claim can be checked on a corpus it was not tuned on (`--corpus 0xC0FFEF`;
//! a traced run with `--seed 1` also runs it). A run on either corpus fails
//! loudly if the pipeline drifts from these numbers.

use crate::mine::Funnel;

/// The recorded funnel of the pipeline on `corpus_seed`, if any.
pub fn funnel(corpus_seed: u64) -> Option<Funnel> {
    match corpus_seed {
        0xC0FFEE => Some(Funnel {
            hypothesized: 1932,
            mined: 361,
            validated: 88,
            final_checks: 86,
            check_hash: 0xfa7c_98cc_bbe5_4430,
            requests: 395,
            cloud_deploys: 294,
            cloud_secs: 205_320,
        }),
        0xC0FFEF => Some(Funnel {
            hypothesized: 1934,
            mined: 406,
            validated: 94,
            final_checks: 92,
            check_hash: 0x03cf_4799_f970_1244,
            requests: 423,
            cloud_deploys: 315,
            cloud_secs: 212_115,
        }),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_default_seed_record_matches_the_headline_funnel() {
        let f = funnel(0xC0FFEE).expect("the default seed is recorded");
        assert_eq!(
            (
                f.hypothesized,
                f.mined,
                f.validated,
                f.final_checks,
                f.requests
            ),
            (1932, 361, 88, 86, 395),
            "tests/headline_funnel.rs pins these"
        );
        assert!(funnel(0xC0FFEF).is_some(), "the held-out seed is recorded");
    }
}
